import json
import logging

import numpy as np
import pytest

from conftest import load_example_solutions, midpoint_vector
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
    decode_vector,
    density_percent,
    encode_vector,
    render_guidelines,
    tier_of,
    vector_from_mapping,
)

CATALOG = catalog_default()


def random_vector(rng):
    return FeatureVector(tuple(rng.uniform(f.lo, f.hi) for f in CATALOG))


def test_catalog_has_thirteen_features_in_documented_layers():
    assert len(CATALOG) == 13
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
    feat = CATALOG.definition(key)
    assert (feat.lo, feat.hi, feat.kind) == (lo, hi, kind)


def test_clamp_projects_upper_bound():
    idx = CATALOG.index_of("statistics_level")
    v = midpoint_vector(CATALOG).replace(idx, 3.4)
    assert clamp(v, CATALOG)[idx] == 3.0


def test_clamp_projects_lower_bound_of_tiered_feature():
    idx = CATALOG.index_of("fluency_level")
    v = midpoint_vector(CATALOG).replace(idx, 0.6)
    assert clamp(v, CATALOG)[idx] == 1.0


def test_clamp_leaves_in_range_vector_unchanged():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = random_vector(rng)
        assert clamp(v, CATALOG) == v


def test_clamp_is_idempotent_on_wild_vectors():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = FeatureVector(tuple(rng.uniform(-5, 8, size=13)))
        once = clamp(v, CATALOG)
        assert clamp(once, CATALOG) == once


def test_clamp_rejects_non_finite_and_names_the_feature():
    v = midpoint_vector(CATALOG).replace(CATALOG.index_of("quotation_level"), float("nan"))
    with pytest.raises(ValidationError, match="quotation_level"):
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


def test_render_medium_fluency_directive():
    idx = CATALOG.index_of("fluency_level")
    v = midpoint_vector(CATALOG).replace(idx, 2.17)
    block = render_guidelines(clamp(v, CATALOG), CATALOG)
    assert block.lines[idx] == CATALOG.definition("fluency_level").tier_directives[1]


def test_render_statistics_density_percentage():
    idx = CATALOG.index_of("statistics_level")
    v = midpoint_vector(CATALOG).replace(idx, 1.62)
    block = render_guidelines(clamp(v, CATALOG), CATALOG)
    assert "54%" in block.lines[idx]


def test_render_boolean_threshold():
    idx = CATALOG.index_of("has_intro_summary")
    on = render_guidelines(midpoint_vector(CATALOG).replace(idx, 0.64), CATALOG)
    off = render_guidelines(midpoint_vector(CATALOG).replace(idx, 0.49), CATALOG)
    assert on.lines[idx] == INTRO_INCLUDE_DIRECTIVE
    assert off.lines[idx] == INTRO_OMIT_DIRECTIVE
    at = render_guidelines(midpoint_vector(CATALOG).replace(idx, BOOLEAN_THRESHOLD), CATALOG)
    assert at.lines[idx] == INTRO_INCLUDE_DIRECTIVE


def test_render_is_total_and_deterministic_on_clamped_vectors():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = clamp(FeatureVector(tuple(rng.uniform(-2, 5, size=13))), CATALOG)
        first = render_guidelines(v, CATALOG)
        second = render_guidelines(v, CATALOG)
        assert first == second
        assert len(first.lines) == 13
        assert all(line for line in first.lines)


def test_guideline_text_groups_by_layer():
    text = render_guidelines(midpoint_vector(CATALOG), CATALOG).as_text()
    s = text.index("Structure:")
    c = text.index("Content:")
    l = text.index("Language:")
    assert s < c < l


def test_encode_decode_round_trip_of_recorded_solution():
    record = load_example_solutions()["solution_a"]["features"]
    v = vector_from_mapping(record, CATALOG)
    assert v[CATALOG.index_of("quotation_level")] == 2.84
    assert v[CATALOG.index_of("fluency_level")] == 2.17
    decoded = decode_vector(encode_vector(v, CATALOG), CATALOG)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(decoded.values, v.values))


def test_encode_of_decode_is_identity_for_canonical_text():
    rng = np.random.default_rng(4)
    v = random_vector(rng)
    text = encode_vector(v, CATALOG)
    assert encode_vector(decode_vector(text, CATALOG), CATALOG) == text


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


def test_decode_reports_out_of_range_then_clamps_only_when_lenient():
    record = {f.key: (f.lo + f.hi) / 2 for f in CATALOG}
    record["statistics_level"] = 5.0
    with pytest.raises(ValidationError, match="statistics_level"):
        vector_from_mapping(record, CATALOG)
    v = vector_from_mapping(record, CATALOG, lenient=True)
    assert v[CATALOG.index_of("statistics_level")] == 3.0


def test_lenient_decode_logs_one_warning_naming_every_clamped_value(caplog):
    record = {f.key: (f.lo + f.hi) / 2 for f in CATALOG}
    with caplog.at_level(logging.WARNING, logger="featgeo.features"):
        vector_from_mapping(record, CATALOG, lenient=True)
    assert caplog.records == []
    record["statistics_level"] = 5.0
    record["has_intro_summary"] = -1.0
    with caplog.at_level(logging.WARNING, logger="featgeo.features"):
        vector_from_mapping(record, CATALOG, lenient=True)
    [entry] = caplog.records
    assert entry.levelno == logging.WARNING
    assert "statistics_level=5.0" in entry.getMessage()
    assert "has_intro_summary=-1.0" in entry.getMessage()


def test_decode_rejects_non_json_and_non_object():
    with pytest.raises(ValidationError):
        decode_vector("not json", CATALOG)
    with pytest.raises(ValidationError):
        decode_vector(json.dumps([1, 2, 3]), CATALOG)


def test_feature_vector_requires_thirteen_values():
    with pytest.raises(ValidationError):
        FeatureVector((1.0, 2.0))
