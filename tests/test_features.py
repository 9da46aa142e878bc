import logging

import numpy as np
import pytest

from conftest import midpoint_vector, with_value
from featgeo.errors import ValidationError
from featgeo.features import (
    BOOLEAN_THRESHOLD,
    FeatureVector,
    INTRO_INCLUDE_DIRECTIVE,
    INTRO_OMIT_DIRECTIVE,
    LAYER_CONTENT,
    LAYER_LANGUAGE,
    LAYER_STRUCTURE,
    catalog_default,
    clamp,
    density_percent,
    guidelines_text,
    render_guidelines,
    tier_of,
    vector_from_mapping,
)

CATALOG = catalog_default()


def random_vector(rng):
    return FeatureVector(tuple(rng.uniform(f.lo, f.hi) for f in CATALOG))


def test_catalog_has_thirteen_features_in_documented_layers():
    assert len(CATALOG.features) == 13
    layers = [f.layer for f in CATALOG]
    assert layers.count(LAYER_STRUCTURE) == 4
    assert layers.count(LAYER_CONTENT) == 5
    assert layers.count(LAYER_LANGUAGE) == 4
    # grouped contiguously in canonical order
    assert layers == [LAYER_STRUCTURE] * 4 + [LAYER_CONTENT] * 5 + [LAYER_LANGUAGE] * 4


@pytest.mark.parametrize(
    "key,lo,hi,kind",
    [
        ("has_intro_summary", 0.0, 1.0, "boolean"),
        ("headings_level", 1.0, 3.0, "tiered"),
        ("list_density", 0.0, 3.0, "density"),
        ("length_level", 1.0, 3.0, "tiered"),
        ("statistics_level", 0.0, 3.0, "density"),
        ("cite_sources_level", 0.0, 3.0, "density"),
        ("quotation_level", 0.0, 3.0, "density"),
        ("unique_info_level", 0.0, 3.0, "density"),
        ("technical_terms_level", 0.0, 3.0, "density"),
        ("authoritative_level", 0.0, 3.0, "density"),
        ("easy_to_understand_level", 1.0, 3.0, "tiered"),
        ("fluency_level", 1.0, 3.0, "tiered"),
        ("keyword_focus_level", 1.0, 3.0, "tiered"),
    ],
)
def test_catalog_ranges_and_kinds(key, lo, hi, kind):
    feat = CATALOG.features[CATALOG.index_of(key)]
    assert (feat.lo, feat.hi, feat.kind) == (lo, hi, kind)
    if kind == "tiered":
        assert len(set(feat.tier_directives)) == 3 and all(feat.tier_directives)
    if kind == "density":
        assert feat.density_label


def test_clamp_projects_upper_bound():
    idx = CATALOG.index_of("statistics_level")
    v = with_value(midpoint_vector(CATALOG), idx, 3.4)
    assert clamp(v, CATALOG)[idx] == 3.0


def test_clamp_projects_lower_bound_of_tiered_feature():
    idx = CATALOG.index_of("fluency_level")
    v = with_value(midpoint_vector(CATALOG), idx, 0.6)
    assert clamp(v, CATALOG)[idx] == 1.0


def test_clamp_leaves_in_range_vector_unchanged():
    rng = np.random.default_rng(0)
    vectors = [random_vector(rng) for _ in range(50)]
    vectors += [FeatureVector(CATALOG.lows), FeatureVector(CATALOG.highs)]
    vectors.append(FeatureVector(tuple(-0.0 if f.lo == 0.0 else f.lo for f in CATALOG)))
    for v in vectors:
        assert clamp(v, CATALOG) is v


def test_clamp_is_idempotent_on_wild_vectors():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = FeatureVector(tuple(rng.uniform(-5, 8, size=13)))
        once = clamp(v, CATALOG)
        assert once.values == tuple(min(max(x, f.lo), f.hi) for x, f in zip(v.values, CATALOG))
        assert clamp(once, CATALOG) == once


def test_clamp_rejects_non_finite_and_names_the_feature():
    for bad in (float("nan"), float("inf"), float("-inf")):
        # The first non-finite feature is named, past an out-of-range one and before another NaN.
        v = with_value(midpoint_vector(CATALOG), CATALOG.index_of("statistics_level"), 9.0)
        v = with_value(v, CATALOG.index_of("quotation_level"), bad)
        v = with_value(v, CATALOG.index_of("fluency_level"), float("nan"))
        with pytest.raises(ValidationError, match="'quotation_level'"):
            clamp(v, CATALOG)


def test_tier_boundaries_split_range_in_three_equal_bands():
    assert tier_of(1.0) == "low"
    assert tier_of(5 / 3 - 1e-9) == "low"
    assert tier_of(5 / 3) == "medium"
    assert tier_of(7 / 3 - 1e-9) == "medium"
    assert tier_of(7 / 3) == "high"
    assert tier_of(3.0) == "high"


def test_tier_is_monotone():
    rng = np.random.default_rng(2)
    order = {"low": 0, "medium": 1, "high": 2}
    for _ in range(500):
        a, b = sorted(rng.uniform(1.0, 3.0, size=2))
        assert order[tier_of(a)] <= order[tier_of(b)]


def test_density_percent_endpoints_and_monotonicity():
    assert density_percent(0.0) == 0
    assert density_percent(3.0) == 100
    assert density_percent(1.62) == 54
    values = np.linspace(0, 3, 301)
    percents = [density_percent(v) for v in values]
    assert all(b >= a for a, b in zip(percents, percents[1:]))


def test_every_rendered_directive_has_a_realized_value():
    """A reworded directive whose realized table was not rebuilt from the renderer fails here."""
    for i, feat in enumerate(CATALOG):
        lines = {render_guidelines(with_value(midpoint_vector(CATALOG), i, value), CATALOG)[i]
                 for value in np.linspace(feat.lo, feat.hi, 601)}
        assert lines == set(CATALOG.realized[i]), feat.key


def test_render_medium_fluency_directive():
    idx = CATALOG.index_of("fluency_level")
    v = with_value(midpoint_vector(CATALOG), idx, 2.17)
    block = render_guidelines(clamp(v, CATALOG), CATALOG)
    assert block[idx] == CATALOG.features[CATALOG.index_of("fluency_level")].tier_directives[1]


def test_render_statistics_density_percentage():
    idx = CATALOG.index_of("statistics_level")
    v = with_value(midpoint_vector(CATALOG), idx, 1.62)
    block = render_guidelines(clamp(v, CATALOG), CATALOG)
    assert "54%" in block[idx]


def test_render_boolean_threshold():
    idx = CATALOG.index_of("has_intro_summary")
    on = render_guidelines(with_value(midpoint_vector(CATALOG), idx, 0.64), CATALOG)
    off = render_guidelines(with_value(midpoint_vector(CATALOG), idx, 0.49), CATALOG)
    assert on[idx] == INTRO_INCLUDE_DIRECTIVE
    assert off[idx] == INTRO_OMIT_DIRECTIVE
    at = render_guidelines(with_value(midpoint_vector(CATALOG), idx, BOOLEAN_THRESHOLD), CATALOG)
    assert at[idx] == INTRO_INCLUDE_DIRECTIVE


def test_render_is_total_and_deterministic_on_clamped_vectors():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = clamp(FeatureVector(tuple(rng.uniform(-2, 5, size=13))), CATALOG)
        first = render_guidelines(v, CATALOG)
        second = render_guidelines(v, CATALOG)
        assert first == second
        assert len(first) == 13
        assert all(line for line in first)


def test_guideline_text_groups_by_layer():
    text = guidelines_text(render_guidelines(midpoint_vector(CATALOG), CATALOG), CATALOG)
    s = text.index("Structure:")
    c = text.index("Content:")
    l = text.index("Language:")
    assert s < c < l


def test_decode_rejects_missing_key():
    record = {f.key: 1.0 for f in CATALOG}
    record.pop("keyword_focus_level")
    with pytest.raises(ValidationError, match="keyword_focus_level"):
        vector_from_mapping(record, CATALOG)


def test_decode_rejects_unknown_key():
    record = {f.key: 1.0 for f in CATALOG}
    record["brand_mentions"] = 2.0
    with pytest.raises(ValidationError, match="brand_mentions"):
        vector_from_mapping(record, CATALOG)


def test_decode_clamps_out_of_range_values():
    record = {f.key: (f.lo + f.hi) / 2 for f in CATALOG}
    record["statistics_level"] = 5.0
    v = vector_from_mapping(record, CATALOG)
    assert v[CATALOG.index_of("statistics_level")] == 3.0


def test_decode_logs_one_warning_naming_every_clamped_value(caplog):
    record = {f.key: (f.lo + f.hi) / 2 for f in CATALOG}
    with caplog.at_level(logging.WARNING, logger="featgeo.features"):
        vector_from_mapping(record, CATALOG)
    assert caplog.records == []
    record["statistics_level"] = 5.0
    record["has_intro_summary"] = -1.0
    with caplog.at_level(logging.WARNING, logger="featgeo.features"):
        vector_from_mapping(record, CATALOG)
    [entry] = caplog.records
    assert entry.levelno == logging.WARNING
    assert "statistics_level=5.0" in entry.getMessage()
    assert "has_intro_summary=-1.0" in entry.getMessage()


def test_feature_vector_requires_thirteen_values():
    with pytest.raises(ValidationError):
        FeatureVector((1.0, 2.0))
