import json
import logging
import re
import sys
import threading

import numpy as np
import pytest

from conftest import ORACLE_ACTIVE_FEATURES, ledger_sum, load_example_solutions, midpoint_vector, with_value
import featgeo.sim as sim_module
from featgeo.bundled import default_sim_config_path
from featgeo.citations import parse_citations
from featgeo.engine.client import EngineClient
from featgeo.engine.types import Role, SourceDocument, TopicBrief, build_request
from featgeo.errors import ValidationError
from featgeo.features import (
    INTRO_INCLUDE_DIRECTIVE,
    TIER_LOW_UPPER,
    TIER_MEDIUM_UPPER,
    FeatureVector,
    catalog_default,
    clamp,
    realized_vector,
    render_guidelines,
    vector_from_mapping,
)
from featgeo.optimizer import GAConfig, evolve
from featgeo.pipeline import RunConfig, load_documents, run_optimization
from featgeo.quality import QualityConfig, aggregate_quality
from featgeo.sim import (
    PROFILE_MARKER,
    SimBackend,
    SimConfig,
    SimWorld,
    brute_force_pareto,
    direct_evaluator,
    extract_profile,
    profile_line,
    sim_answer,
    sim_propensity,
    sim_quality_dims,
)

CATALOG = catalog_default()


def make_world(vis_weights=None, bias=0.0, qual_weights=None, tradeoff=0.0,
               competitors=(), noise=0.0, seed=5):
    cfg = SimConfig(
        seed=seed,
        visibility_weights=tuple(vis_weights or [0.0] * 13),
        visibility_bias=bias,
        quality_weights=tuple(qual_weights or [0.0] * 13),
        tradeoff_strength=tradeoff,
        competitor_vectors=tuple(competitors),
        noise_scale=noise,
    )
    return SimWorld(cfg, CATALOG)


def bundled_world():
    return SimWorld(RunConfig.from_file(default_sim_config_path()).sim, CATALOG)


def weights_on(key, value):
    w = [0.0] * 13
    w[CATALOG.index_of(key)] = value
    return w


def doc_with_intro(doc_id, intro):
    v = with_value(midpoint_vector(CATALOG), CATALOG.index_of("has_intro_summary"), intro)
    return SourceDocument(id=doc_id, text=f"Body.\n{profile_line(v, CATALOG)}")


# -- propensity -----------------------------------------------------------------


def test_propensity_is_half_for_zero_weights():
    world = make_world()
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        assert sim_propensity(v, world) == pytest.approx(0.5, abs=1e-12)


def test_propensity_strictly_increasing_in_positive_weight():
    world = make_world(vis_weights=weights_on("statistics_level", 2.0))
    idx = CATALOG.index_of("statistics_level")
    values = [sim_propensity(with_value(midpoint_vector(CATALOG), idx, x), world)
              for x in np.linspace(0, 3, 7)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < p < 1.0 for p in values)


def test_propensity_deterministic_across_world_instances():
    a, b = bundled_world(), bundled_world()
    v = midpoint_vector(CATALOG)
    assert sim_propensity(v, a) == sim_propensity(v, b)


# -- quality --------------------------------------------------------------------


def test_neutral_world_gives_mid_scale_dimensions():
    world = make_world()
    dims = sim_quality_dims(midpoint_vector(CATALOG), world)
    assert dims == (3,) * 7


def test_quality_base_strictly_decreasing_in_propensity():
    world = make_world(vis_weights=weights_on("statistics_level", 3.0), tradeoff=1.0)
    idx = CATALOG.index_of("statistics_level")
    points = [with_value(midpoint_vector(CATALOG), idx, x) for x in np.linspace(0, 3, 9)]
    props = [sim_propensity(p, world) for p in points]
    bases = [sim_module._propensity_and_base(p, world)[1] for p in points]
    assert all(b > a for a, b in zip(props, props[1:]))
    assert all(b < a for a, b in zip(bases, bases[1:]))


def test_equal_scores_give_equal_dimensions():
    # two distinct vectors engineered to the same propensity and quality term
    world = make_world(vis_weights=weights_on("statistics_level", 1.0))
    a = with_value(midpoint_vector(CATALOG), CATALOG.index_of("fluency_level"), 1.2)
    b = with_value(midpoint_vector(CATALOG), CATALOG.index_of("headings_level"), 2.9)
    assert sim_module._propensity_and_base(a, world)[1] == sim_module._propensity_and_base(b, world)[1]
    assert sim_quality_dims(a, world) == sim_quality_dims(b, world)


def test_dims_always_in_range():
    world = make_world(qual_weights=[1.0] * 13, tradeoff=5.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        dims = sim_quality_dims(v, world)
        assert all(1 <= score <= 5 for score in dims)


# -- answers ---------------------------------------------------------------------


def test_single_doc_gets_every_citation():
    world = make_world()
    answer = sim_answer("how to plan?", [doc_with_intro(1, 1.0)], world)
    parse = parse_citations(answer, 1)
    assert len(parse.sentences) >= 4
    assert all(s.cited == {1} for s in parse.sentences)


def test_answer_replay_is_identical():
    world = bundled_world()
    docs = [doc_with_intro(1, 1.0), doc_with_intro(2, 0.0)]
    a = sim_answer("query text", docs, world, salt="r0")
    b = sim_answer("query text", docs, world, salt="r0")
    assert a == b
    c = sim_answer("query text", docs, world, salt="r1")
    assert a != c


def test_answer_sentence_count_seeded_from_query():
    world = bundled_world()
    docs = [doc_with_intro(1, 1.0)]
    for query in ["one?", "two?", "a much longer query about meals"]:
        counts = set()
        for salt in ("a", "b", "c"):
            parse = parse_citations(sim_answer(query, docs, world, salt=salt), 1)
            counts.add(len(parse.sentences))
        assert len(counts) == 1
        assert 4 <= counts.pop() <= 10


def test_dominant_propensity_takes_nearly_all_citations():
    world = make_world(vis_weights=weights_on("has_intro_summary", 8.0), bias=-4.0)
    docs = [doc_with_intro(1, 1.0), doc_with_intro(2, 0.0), doc_with_intro(3, 0.0)]
    assert sim_propensity(world.source_state(docs[0])[0], world) > 0.98
    assert sim_propensity(world.source_state(docs[1])[0], world) < 0.02
    total = winner = 0
    salt = 0
    while total < 1000:
        parse = parse_citations(sim_answer("steady query", docs, world, salt=str(salt)), 3)
        for s in parse.sentences:
            total += 1
            if s.cited == {1}:
                winner += 1
        salt += 1
    assert winner / total >= 0.97


def reference_sim_answer(query, docs, w, salt=""):
    """sim_answer drawing each citation with rng.choice(len(docs), p=weights): the differential oracle."""
    propensities = np.array([w.source_state(d)[1] for d in docs])
    k_sentences = 4 + sim_module.digest_to_int(query) % 7
    rng = sim_module._stream(w, query, sim_module._docs_digest(docs), salt)
    if w.config.noise_scale > 0:
        propensities = propensities + rng.normal(0.0, w.config.noise_scale, size=len(docs))
    logits = propensities / sim_module.SOFTMAX_TEMPERATURE
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    sentences = []
    for _ in range(k_sentences):
        n_words = int(rng.integers(6, 15))
        vocab = sim_module._FILLER_VOCAB
        words = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n_words)]
        cited = docs[int(rng.choice(len(docs), p=weights))].id
        sentences.append(f"{words[0].capitalize()} {' '.join(words[1:])} [{cited}].")
    return " ".join(sentences)


def test_cdf_draw_matches_rng_choice_on_seeded_cases():
    # sim_answer bisects the cdf of its weights with one uniform per sentence;
    # rng.choice(n, p=weights) must draw the same index and leave the stream
    # at the same place, for every weight shape from near-uniform to one-hot.
    cases = np.random.default_rng(20240607)
    for _ in range(20_000):
        n = int(cases.integers(1, 8))
        logits = cases.normal(0.0, [0.05, 1.0, 30.0, 800.0][int(cases.integers(4))], size=n)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        seed = int(cases.integers(2**63))
        ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert int(cdf.searchsorted(ours.random(), side="right")) == int(numpy_choice.choice(n, p=weights))
        assert ours.random() == numpy_choice.random()


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_answer_matches_the_rng_choice_reference(noise):
    world = make_world(vis_weights=weights_on("has_intro_summary", 6.0), bias=-3.0, noise=noise,
                       competitors=[midpoint_vector(CATALOG)] * 2)
    cases = np.random.default_rng(11)
    for case in range(150):
        n = int(cases.integers(1, 7))
        docs = [doc_with_intro(i + 1, float(cases.integers(2))) if i >= 2 else
                SourceDocument(id=i + 1, text=f"Competitor {i + 1}.") for i in range(n)]
        query, salt = f"query {case % 17}?", f"rep{case}"
        assert sim_answer(query, docs, world, salt=salt) == reference_sim_answer(query, docs, world, salt=salt)


def test_latent_fallback_uses_competitor_vectors():
    competitor = midpoint_vector(CATALOG)
    world = make_world(competitors=[competitor])
    plain = SourceDocument(id=1, text="no profile here")
    assert world.source_state(plain)[0] == competitor
    unknown = SourceDocument(id=2, text="no profile here")
    with pytest.raises(ValidationError):
        world.source_state(unknown)


def test_a_profile_marker_inside_a_line_is_no_profile():
    """Only a line that starts with the marker carries a profile; otherwise the configured vector stands in."""
    competitor = midpoint_vector(CATALOG)
    world = make_world(competitors=[competitor])
    record = profile_line(with_value(competitor, 0, 1.0), CATALOG)
    assert extract_profile(f"Summary line.\n  {record}", CATALOG) is not None
    text = f"Summary line, then {record}"
    assert extract_profile(text, CATALOG) is None
    assert world.profile_of(text) is None
    assert world.source_state(SourceDocument(id=1, text=text)) == (competitor, world.competitor_propensities[0])


def test_each_bundled_document_profile_equals_its_configured_vector():
    """A bundled competitor's latent vector is written twice: in the document's profile line, which the sim
    reads, and in the config's row, which README's API example seeds evolve from. The two must agree."""
    cfg = RunConfig.from_file(default_sim_config_path())
    docs = load_documents(cfg.competitor_docs)
    assert len(docs) == len(cfg.sim.competitor_vectors) == 5
    for doc, vector in zip(docs, cfg.sim.competitor_vectors):
        assert extract_profile(doc.text, CATALOG) == vector, cfg.competitor_docs[doc.id - 1].name


# -- the profile line --------------------------------------------------------------


def test_encode_decode_round_trip_of_recorded_solution():
    record = load_example_solutions()["solution_a"]["features"]
    v = vector_from_mapping(record, CATALOG)
    assert v[CATALOG.index_of("quotation_level")] == 2.84
    assert v[CATALOG.index_of("fluency_level")] == 2.17
    decoded = extract_profile(profile_line(v, CATALOG), CATALOG)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(decoded.values, v.values))


def test_encode_of_decode_is_identity_for_canonical_text():
    rng = np.random.default_rng(4)
    v = FeatureVector(tuple(rng.uniform(f.lo, f.hi) for f in CATALOG))
    text = profile_line(v, CATALOG)
    assert text == f"{PROFILE_MARKER} {json.dumps({f.key: value for f, value in zip(CATALOG, v.values)})}"
    assert profile_line(extract_profile(text, CATALOG), CATALOG) == text


def test_decode_rejects_non_json_and_non_object():
    with pytest.raises(ValidationError, match="not valid JSON"):
        extract_profile(f"{PROFILE_MARKER} not json", CATALOG)
    with pytest.raises(ValidationError, match=re.escape("feature profile must be an object, got [1, 2, 3]")):
        extract_profile(f"{PROFILE_MARKER} {json.dumps([1, 2, 3])}", CATALOG)


@pytest.mark.parametrize("drop, add, message", [
    ("keyword_focus_level", None, "missing feature keys: keyword_focus_level"),
    (None, "brand_mentions", "unknown feature keys: brand_mentions"),
], ids=["missing", "unknown"])
def test_decode_rejects_a_missing_or_unknown_key(drop, add, message):
    record = {f.key: 1.0 for f in CATALOG if f.key != drop}
    if add:
        record[add] = 2.0
    with pytest.raises(ValidationError, match=message):
        extract_profile(f"{PROFILE_MARKER} {json.dumps(record)}", CATALOG)


@pytest.mark.parametrize("value, message", [
    ('"high"', "must be a number, got 'high'"),
    ("null", "must be a number, got None"),
    ("NaN", "must be a finite number, got nan"),
    ("1e400", "must be a finite number, got inf"),
    ('"1.5"', "must be a number, got '1.5'"),
    ("true", "must be a number, got True"),
], ids=["string", "null", "nan", "overflow", "numeric-string", "bool"])
def test_decode_rejects_a_non_numeric_or_non_finite_value(value, message, caplog):
    """Each value on the line is read as the strict reader reads a config value: a JSON number, never converted."""
    line = profile_line(midpoint_vector(CATALOG), CATALOG)
    text = line.replace('"statistics_level": 1.5', f'"statistics_level": {value}')
    assert text != line
    with caplog.at_level(logging.WARNING, logger="featgeo.features"), \
            pytest.raises(ValidationError, match=re.escape(f"feature profile statistics_level {message}")):
        extract_profile(text, CATALOG)
    assert caplog.records == []  # a rejected value is not also reported as clamped


# -- brute-force oracle ------------------------------------------------------------

def dims_from_base(base) -> np.ndarray:
    """Vectorized reference for the sim's quantization: the quality base onto seven integers in [1, 5]."""
    v = 3.0 + 2.0 * np.asarray(base, dtype=float)
    staggered = v[..., None] + np.asarray(sim_module._DIMENSION_OFFSETS)
    return np.clip(np.floor(staggered + 0.5), 1, 5).astype(int)


def evaluate_grid(matrix: np.ndarray, world, quality_cfg: QualityConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized reference for the closed form: exact (visibility %, quality %) for rows of feature values."""
    x_norm = (matrix - np.array(world.catalog.lows)) / np.array(world.catalog.widths)
    prop = 1.0 / (1.0 + np.exp(-(x_norm @ world._vis_weights + world.config.visibility_bias)))
    base = x_norm @ world._qual_weights - world.config.tradeoff_strength * prop
    normalized = (dims_from_base(base) - 1) / 4.0
    content = 100.0 * normalized[:, :4].mean(axis=1)
    appeal = 100.0 * normalized[:, 4:].mean(axis=1)
    return 100.0 * prop, quality_cfg.alpha * content + (1.0 - quality_cfg.alpha) * appeal


def test_single_monotone_feature_yields_single_front_point():
    world = make_world(vis_weights=weights_on("statistics_level", 2.0))
    front = brute_force_pareto(5, ["statistics_level"], world)
    assert len(front) == 1
    assert front.members[0].x[CATALOG.index_of("statistics_level")] == 3.0


def test_opposing_weights_yield_full_grid_line():
    world = make_world(
        vis_weights=weights_on("statistics_level", 2.0),
        qual_weights=weights_on("statistics_level", -0.9),
    )
    front = brute_force_pareto(4, ["statistics_level"], world)
    assert len(front) == 4


def test_front_members_are_grid_points_and_undominated():
    world = bundled_world()
    active = ORACLE_ACTIVE_FEATURES
    front = brute_force_pareto(3, active, world)
    assert 1 <= len(front) <= 243

    # independent pairwise-dominance recheck over the very values the sweep saw: direct_evaluator's
    from itertools import product
    axes = {key: np.linspace(CATALOG.features[CATALOG.index_of(key)].lo,
                             CATALOG.features[CATALOG.index_of(key)].hi, 3)
            for key in active}
    rows = []
    for combo in product(*(axes[k] for k in active)):
        v = midpoint_vector(CATALOG)
        for key, value in zip(active, combo):
            v = with_value(v, CATALOG.index_of(key), float(value))
        rows.append(v.values)
    evaluate = direct_evaluator(world)
    grid_points = [evaluate(FeatureVector(row)) for row in rows]
    assert len(grid_points) == 243
    front_points = {m.objectives for m in front}
    assert front_points <= set(grid_points)
    for mv, mq in front_points:
        for gv, gq in grid_points:
            assert not (gv >= mv and gq >= mq and (gv > mv or gq > mq))
    # and every non-front grid point is dominated by some front member
    for gv, gq in grid_points:
        if (gv, gq) in front_points:
            continue
        assert any(mv >= gv and mq >= gq and (mv > gv or mq > gq) for mv, mq in front_points)
    # each member is a grid row, and the vectorized reference scores that row alike
    assert {m.x.values for m in front} <= set(rows)
    vis, qual = evaluate_grid(np.array([m.x.values for m in front]), world, QualityConfig())
    for member, v, q in zip(front, vis.tolist(), qual.tolist()):
        assert member.objectives == pytest.approx((v, q), abs=1e-12), member.x


def test_grid_front_objectives_equal_the_closed_form_evolve_sees_bit_for_bit():
    world = bundled_world()
    evaluate = direct_evaluator(world)
    front = brute_force_pareto(3, ORACLE_ACTIVE_FEATURES, world)
    # 11 members: (86.98915256370023, 40.625) sits 1 ulp above an exact visibility tie and is kept.
    assert len(front) == 11
    for member in front:
        assert member.objectives == evaluate(member.x), member.x


def test_an_exact_objective_tie_collapses_to_the_first_grid_point():
    active = ["statistics_level", "list_density"]
    front = brute_force_pareto(3, active, make_world())  # all weights 0: every grid point scores the same
    assert len(front) == 1
    first = midpoint_vector(CATALOG)
    for key in active:
        first = with_value(first, CATALOG.index_of(key), CATALOG.features[CATALOG.index_of(key)].lo)
    assert front.members[0].x == first
    assert front.members[0].objectives == (50.0, 50.0)


def test_scalar_and_vectorized_evaluation_agree():
    world = bundled_world()
    evaluate = direct_evaluator(world)
    rng = np.random.default_rng(2)
    for _ in range(25):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        vis_s, qual_s = evaluate(v)
        vis_v, qual_v = evaluate_grid(np.array([v.values]), world, QualityConfig())
        assert vis_s == pytest.approx(float(vis_v[0]), abs=1e-12)
        assert qual_s == pytest.approx(float(qual_v[0]), abs=1e-12)


def test_direct_evaluator_equals_its_public_parts_exactly():
    world = bundled_world()
    evaluate = direct_evaluator(world)
    rng = np.random.default_rng(9)
    randoms = [clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG) for _ in range(200)]
    corners = [
        FeatureVector(tuple(f.hi if (mask >> i) & 1 else f.lo for i, f in enumerate(CATALOG)))
        for mask in range(2 ** 13)
    ]
    for x in randoms + corners:
        quality = aggregate_quality(sim_quality_dims(x, world), QualityConfig())
        assert evaluate(x) == (100 * sim_propensity(x, world), quality)


def test_closed_form_evolve_builds_each_distinct_quality_once(monkeypatch):
    world = bundled_world()
    built = []
    aggregate = sim_module.aggregate_quality

    def counted(dims, cfg):
        built.append(dims)
        return aggregate(dims, cfg)

    monkeypatch.setattr(sim_module, "aggregate_quality", counted)  # the name perfbench hooks
    evaluate, seen = direct_evaluator(world), set()

    def recording(x, key):
        seen.add(sim_quality_dims(x, world))
        return evaluate(x, key)

    cfg = GAConfig(population_size=16, generations=12, repeats_per_eval=1, seed=2024)
    result = evolve(cfg, recording, list(world.config.competitor_vectors), CATALOG)
    assert result.evaluations == 16 * 13
    assert len(built) == len(set(built)) == len(seen)  # one build per distinct tuple, no more


def test_scalar_quantization_matches_the_vectorized_one():
    # Every base at which some dimension steps (v + offset + 0.5 an integer),
    # a float either side of it, far outside [1, 5], and random ones.
    steps = [(k - 0.5 - offset - 3.0) / 2.0 for k in range(-3, 10) for offset in sim_module._DIMENSION_OFFSETS]
    bases = steps + [np.nextafter(b, d) for b in steps for d in (-np.inf, np.inf)]
    bases += [-1e300, 1e300] + list(np.random.default_rng(4).uniform(-3.0, 3.0, size=500))
    for base in bases:
        assert sim_module._dim_ints(float(base)) == tuple(
            int(s) for s in dims_from_base(base)
        ), base


@pytest.mark.parametrize("grid_levels, active, message", [
    (1, ["statistics_level"], "grid levels must be >= 2, got 1"),
    (3, [], "need at least one active feature"),
    (3, ["statistics_level", "statistics_level"], "active features must be distinct"),
], ids=["one-level", "no-feature", "repeated-feature"])
def test_brute_force_pareto_rejects_a_malformed_grid(grid_levels, active, message):
    with pytest.raises(ValidationError, match=message):
        brute_force_pareto(grid_levels, active, make_world())


def test_budget_exceeded_raises():
    with pytest.raises(ValidationError, match="grid of 1030301 points exceeds the 100000 evaluation budget"):
        brute_force_pareto(101, ["statistics_level", "list_density", "quotation_level"],
                           make_world())


def test_ablating_positive_feature_lowers_max_propensity():
    world = bundled_world()
    idx = CATALOG.index_of("statistics_level")
    full = brute_force_pareto(3, ["statistics_level"], world)
    best_full = max(ind.objectives[0] for ind in full)
    frozen = with_value(midpoint_vector(CATALOG), idx, 0.0)
    assert 100 * sim_propensity(frozen, world) < best_full


# -- guideline reconstruction --------------------------------------------------------


def reconstruct_from_guidelines(lines, catalog):
    """Reference inverse of the rendered directives, by parsing their text: the boolean maps to
    0 or 1, a tier directive to its band middle, and a density line to its stated percent of 3."""
    values = []
    for line, feat in zip(lines, catalog):
        if feat.kind == "boolean":
            values.append(1.0 if line == INTRO_INCLUDE_DIRECTIVE else 0.0)
        elif feat.kind == "tiered":
            values.append((4.0 / 3.0, 2.0, 8.0 / 3.0)[feat.tier_directives.index(line)])
        else:  # "Target a {pct}% density of ..."
            values.append(3.0 * int(line.split()[2][:-1]) / 100.0)
    return clamp(FeatureVector(tuple(values)), catalog)


def test_reconstruction_inverts_density_almost_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        block = render_guidelines(v, CATALOG)
        rebuilt = realized_vector(block, CATALOG)
        for i, feat in enumerate(CATALOG):
            if feat.kind == "density":
                assert abs(rebuilt[i] - v[i]) <= 0.015 + 1e-9
            elif feat.kind == "boolean":
                assert rebuilt[i] == (1.0 if v[i] >= 0.5 else 0.0)
            else:
                assert rebuilt[i] in (4 / 3, 2.0, 8 / 3)


def test_realized_vector_matches_the_text_parsing_reference():
    """Every density percent, tier and boolean value, the band edges, and random clamped vectors."""
    kinds = [feat.kind for feat in CATALOG]
    grid = {"boolean": [0.0, 0.49, 0.5, 1.0],
            "tiered": [1.0, 4 / 3, TIER_LOW_UPPER, 2.0, TIER_MEDIUM_UPPER, 8 / 3, 3.0],
            "density": [3.0 * pct / 100.0 for pct in range(101)]}
    vectors = [FeatureVector(tuple(grid[kind][min(j, len(grid[kind]) - 1)] for kind in kinds))
               for j in range(len(grid["density"]))]
    rng = np.random.default_rng(11)
    vectors += [clamp(FeatureVector(tuple(rng.uniform(f.lo, f.hi) for f in CATALOG)), CATALOG) for _ in range(500)]
    for v in vectors:
        block = render_guidelines(v, CATALOG)
        assert realized_vector(block, CATALOG).values == reconstruct_from_guidelines(block, CATALOG).values
    density = CATALOG.index_of("list_density")
    assert len({render_guidelines(v, CATALOG)[density] for v in vectors[:101]}) == 101  # every percent is visited


# -- backend roles ---------------------------------------------------------------


def sim_client():
    world = bundled_world()
    return EngineClient(SimBackend(world), CATALOG), world


def test_backend_queries_are_distinct_and_deterministic():
    client, _ = sim_client()
    brief = TopicBrief("meal planning", "Position NovaPath as the companion.")
    queries = client.generate_queries(brief, 7)
    assert len(queries) == len(set(queries)) == 7
    client2, _ = sim_client()
    assert client2.generate_queries(brief, 7) == queries


def test_backend_theme_is_short_and_cache_stable(tmp_path):
    from featgeo.engine.cache import ResponseCache
    world = bundled_world()
    cache = ResponseCache(tmp_path / "c.jsonl")
    client = EngineClient(SimBackend(world), CATALOG, cache=cache)
    docs = [doc_with_intro(i, float(i % 2)) for i in range(1, 6)]
    brief1 = client.extract_theme(docs, "meal planning")
    brief2 = client.extract_theme(docs, "meal planning")
    assert brief1 == brief2
    assert len(brief1.strategy_text.split()) < 200
    assert ledger_sum(client.ledger, role=Role.THEME_EXTRACT).api_calls == 1  # second was a cache hit


def test_backend_identity_follows_the_sim_config():
    assert SimBackend(make_world(seed=5)).identity == SimBackend(make_world(seed=5)).identity
    identities = {SimBackend(world).identity for world in (
        make_world(seed=5), make_world(seed=6), make_world(seed=5, noise=0.1), bundled_world(),
    )}
    assert len(identities) == 4
    assert all(identity.startswith("sim ") for identity in identities)


def test_backend_feature_extraction_returns_bundled_latents_exactly():
    world = SimWorld(RunConfig.from_file(default_sim_config_path()).sim, CATALOG)
    client = EngineClient(SimBackend(world), CATALOG)
    doc_dir = default_sim_config_path().parent / "docs"
    for i in range(1, 6):
        text = (doc_dir / f"competitor{i}.txt").read_text()
        doc = SourceDocument(id=i, text=text)
        v = client.extract_features(doc)
        assert v == world.config.competitor_vectors[i - 1]


def test_backend_page_embeds_realized_profile():
    client, world = sim_client()
    brief = TopicBrief("meal planning", "Position PeakNest as the companion.")
    guidelines = render_guidelines(midpoint_vector(CATALOG), CATALOG)
    page = client.generate_page(brief, guidelines)
    embedded = extract_profile(page, CATALOG)
    assert embedded == realized_vector(guidelines, CATALOG)
    assert client.generate_page(brief, guidelines) == page


def test_backend_judge_matches_closed_form_on_pages():
    client, world = sim_client()
    brief = TopicBrief("meal planning", "Position PeakNest as the companion.")
    guidelines = render_guidelines(midpoint_vector(CATALOG), CATALOG)
    page = client.generate_page(brief, guidelines)
    dims = client.judge_quality(page, "meal planning")
    assert dims == sim_quality_dims(extract_profile(page, CATALOG), world)


def test_backend_judge_fallback_is_deterministic_and_in_range():
    client, _ = sim_client()
    text = "Plain answer with words [1]. Another sentence follows here [2]."
    a = client.judge_quality(text, "q")
    b = client.judge_quality(text, "q")
    assert a == b
    assert all(1 <= score <= 5 for score in a)


def test_backend_wall_time_is_deterministic():
    world = bundled_world()
    backend = SimBackend(world)
    req = build_request(Role.ANSWER_GEN, "prompt", payload={
        "query": "q", "docs": [doc_with_intro(1, 1.0)], "salt": ""})
    r1 = backend.complete(req)
    r2 = backend.complete(req)
    assert r1 == r2
    assert r1.elapsed_seconds > 0


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 12, 0.0, (0.0,) * 13, 0.0, ())
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, -1.0, ())
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, 0.0, (), noise_scale=-0.1)
    with pytest.raises(ValidationError, match="sim seed must be >= 0, got -1"):
        SimConfig(-1, (0.0,) * 13, 0.0, (0.0,) * 13, 0.0, ())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="tradeoff strength must be finite"):
            SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, bad, ())
        with pytest.raises(ValidationError, match="noise scale must be finite"):
            SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, 0.0, (), noise_scale=bad)
        with pytest.raises(ValidationError, match="visibility_weights must be finite"):
            SimConfig(1, (bad,) + (0.0,) * 12, 0.0, (0.0,) * 13, 0.0, ())
        with pytest.raises(ValidationError, match="quality_weights must be finite"):
            SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 12 + (bad,), 0.0, ())
        with pytest.raises(ValidationError, match="visibility bias must be finite"):
            SimConfig(1, (0.0,) * 13, bad, (0.0,) * 13, 0.0, ())


def test_run_decodes_each_document_profile_once_and_shares_the_world_across_workers(
    tmp_path, monkeypatch
):
    decoded, pages = [], []
    extract, page = sim_module.extract_profile, SimBackend._page

    def counted_extract(text, catalog):
        decoded.append(text)
        return extract(text, catalog)

    def recorded_page(self, request):
        pages.append(page(self, request))
        return pages[-1]

    monkeypatch.setattr(sim_module, "extract_profile", counted_extract)
    monkeypatch.setattr(SimBackend, "_page", recorded_page)
    one = RunConfig.from_file(default_sim_config_path(), seed=7, output_dir=tmp_path / "one")
    run_optimization(one)
    documents = {d.text for d in load_documents(one.competitor_docs)} | set(pages)
    assert len(decoded) == len(set(decoded)) <= len(documents)
    assert set(decoded) <= documents

    two = RunConfig.from_file(
        default_sim_config_path(), seed=7, output_dir=tmp_path / "two", eval_workers=2
    )
    run_optimization(two)
    metrics = "eval_metrics.jsonl"
    assert (tmp_path / "two" / metrics).read_bytes() == (tmp_path / "one" / metrics).read_bytes()


def test_profile_memo_shared_by_many_threads_returns_the_single_thread_values():
    docs = [doc_with_intro(i, i / 40) for i in range(1, 41)]
    expected = [bundled_world().source_state(d) for d in docs]
    world = bundled_world()
    results = {}

    def read(offset):
        order = docs[offset:] + docs[:offset]
        results[offset] = [world.source_state(d) for d in order for _ in range(5)]

    threads = [threading.Thread(target=read, args=(k * 5,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for offset, got in results.items():
        order = expected[offset:] + expected[:offset]
        assert got == [state for state in order for _ in range(5)]
    assert len(results) == 8 and len(world._profiles) == len(docs)
