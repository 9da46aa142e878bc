import sys
import threading

import numpy as np
import pytest

from conftest import midpoint_vector
import featgeo.sim as sim_module
from featgeo.bundled import default_sim_config_path
from featgeo.citations import parse_citations
from featgeo.engine.client import EngineClient
from featgeo.engine.types import Role, SourceDocument, TopicBrief, build_request
from featgeo.errors import BudgetError, ValidationError
from featgeo.features import (
    FeatureVector,
    catalog_default,
    clamp,
    render_guidelines,
)
from featgeo.pipeline import RunConfig, load_documents, run_optimization
from featgeo.quality import ALL_DIMENSIONS, QualityConfig
from featgeo.sim import (
    SimBackend,
    SimConfig,
    SimWorld,
    brute_force_pareto,
    direct_evaluator,
    extract_profile,
    reconstruct_from_guidelines,
    sim_answer,
    sim_propensity,
    sim_quality_base,
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
    v = midpoint_vector(CATALOG).replace(CATALOG.index_of("has_intro_summary"), intro)
    from featgeo.features import encode_vector
    return SourceDocument(id=doc_id, text=f"Body.\nfeature-profile: {encode_vector(v, CATALOG)}")


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
    values = [sim_propensity(midpoint_vector(CATALOG).replace(idx, x), world)
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
    assert all(getattr(dims, name) == 3 for name in ALL_DIMENSIONS)


def test_quality_base_strictly_decreasing_in_propensity():
    world = make_world(vis_weights=weights_on("statistics_level", 3.0), tradeoff=1.0)
    idx = CATALOG.index_of("statistics_level")
    points = [midpoint_vector(CATALOG).replace(idx, x) for x in np.linspace(0, 3, 9)]
    props = [sim_propensity(p, world) for p in points]
    bases = [sim_quality_base(p, world) for p in points]
    assert all(b > a for a, b in zip(props, props[1:]))
    assert all(b < a for a, b in zip(bases, bases[1:]))


def test_equal_scores_give_equal_dimensions():
    # two distinct vectors engineered to the same propensity and quality term
    world = make_world(vis_weights=weights_on("statistics_level", 1.0))
    a = midpoint_vector(CATALOG).replace(CATALOG.index_of("fluency_level"), 1.2)
    b = midpoint_vector(CATALOG).replace(CATALOG.index_of("headings_level"), 2.9)
    assert sim_quality_base(a, world) == sim_quality_base(b, world)
    assert sim_quality_dims(a, world) == sim_quality_dims(b, world)


def test_dims_always_in_range():
    world = make_world(qual_weights=[1.0] * 13, tradeoff=5.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        dims = sim_quality_dims(v, world)
        assert all(1 <= getattr(dims, name) <= 5 for name in ALL_DIMENSIONS)


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
    assert sim_propensity(world.latent_for(docs[0]), world) > 0.98
    assert sim_propensity(world.latent_for(docs[1]), world) < 0.02
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


def test_answer_requires_documents():
    with pytest.raises(ValidationError):
        sim_answer("q", [], make_world())


def test_latent_fallback_uses_competitor_vectors():
    competitor = midpoint_vector(CATALOG)
    world = make_world(competitors=[competitor])
    plain = SourceDocument(id=1, text="no profile here")
    assert world.latent_for(plain) == competitor
    unknown = SourceDocument(id=2, text="no profile here")
    with pytest.raises(ValidationError):
        world.latent_for(unknown)


# -- brute-force oracle ------------------------------------------------------------


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
    active = ["statistics_level", "cite_sources_level", "quotation_level",
              "list_density", "length_level"]
    front = brute_force_pareto(3, active, world)
    assert 1 <= len(front) <= 243

    # independent pairwise-dominance recheck over the very values the sweep saw
    from featgeo.sim import _evaluate_grid
    from itertools import product
    axes = {key: np.linspace(CATALOG.definition(key).lo, CATALOG.definition(key).hi, 3)
            for key in active}
    rows = []
    for combo in product(*(axes[k] for k in active)):
        v = midpoint_vector(CATALOG)
        for key, value in zip(active, combo):
            v = v.replace(CATALOG.index_of(key), float(value))
        rows.append(v.values)
    vis, qual = _evaluate_grid(np.array(rows), world, QualityConfig())
    assert len(vis) == 243
    grid_points = list(zip(vis.tolist(), qual.tolist()))
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


def test_scalar_and_vectorized_evaluation_agree():
    world = bundled_world()
    evaluate = direct_evaluator(world)
    rng = np.random.default_rng(2)
    from featgeo.sim import _evaluate_grid
    for _ in range(25):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        vis_s, qual_s = evaluate(v)
        vis_v, qual_v = _evaluate_grid(np.array([v.values]), world, QualityConfig())
        assert vis_s == pytest.approx(float(vis_v[0]), abs=1e-12)
        assert qual_s == pytest.approx(float(qual_v[0]), abs=1e-12)


def test_budget_exceeded_raises():
    with pytest.raises(BudgetError):
        brute_force_pareto(101, ["statistics_level", "list_density", "quotation_level"],
                           make_world())


def test_ablating_positive_feature_lowers_max_propensity():
    world = bundled_world()
    idx = CATALOG.index_of("statistics_level")
    full = brute_force_pareto(3, ["statistics_level"], world)
    best_full = max(ind.objectives[0] for ind in full)
    frozen = midpoint_vector(CATALOG).replace(idx, 0.0)
    assert 100 * sim_propensity(frozen, world) < best_full


# -- guideline reconstruction --------------------------------------------------------


def test_reconstruction_inverts_density_almost_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = clamp(FeatureVector(tuple(rng.uniform(0, 3, size=13))), CATALOG)
        block = render_guidelines(v, CATALOG)
        rebuilt = reconstruct_from_guidelines(block, CATALOG)
        for i, feat in enumerate(CATALOG):
            if feat.kind == "density":
                assert abs(rebuilt[i] - v[i]) <= 0.015 + 1e-9
            elif feat.kind == "boolean":
                assert rebuilt[i] == (1.0 if v[i] >= 0.5 else 0.0)
            else:
                assert rebuilt[i] in (4 / 3, 2.0, 8 / 3)


def test_reconstruction_rejects_foreign_lines():
    block = render_guidelines(midpoint_vector(CATALOG), CATALOG)
    from featgeo.features import GuidelineBlock
    tampered = GuidelineBlock(("something else",) + block.lines[1:], block.layers)
    # boolean line falls back to 0; tamper a tiered line instead
    tiered_idx = CATALOG.index_of("fluency_level")
    lines = list(block.lines)
    lines[tiered_idx] = "not a known directive"
    with pytest.raises(ValidationError):
        reconstruct_from_guidelines(GuidelineBlock(tuple(lines), block.layers), CATALOG)


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
    assert client.ledger.role_calls(Role.THEME_EXTRACT) == 1  # second was a cache hit


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
    assert embedded == reconstruct_from_guidelines(guidelines, CATALOG)
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
    assert all(1 <= getattr(a, n) <= 5 for n in ALL_DIMENSIONS)


def test_backend_wall_time_is_deterministic():
    world = bundled_world()
    backend = SimBackend(world)
    req = build_request(Role.ANSWER_GEN, "prompt", payload={
        "query": "q", "docs": [doc_with_intro(1, 1.0)], "salt": ""})
    r1 = backend.complete(req)
    r2 = backend.complete(req)
    assert r1 == r2
    assert r1.elapsed_seconds > 0


def test_backend_requires_payload():
    backend = SimBackend(bundled_world())
    with pytest.raises(ValidationError):
        backend.complete(build_request(Role.ANSWER_GEN, "prompt only"))


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 12, 0.0, (0.0,) * 13, 0.0, ())
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, -1.0, ())
    with pytest.raises(ValidationError):
        SimConfig(1, (0.0,) * 13, 0.0, (0.0,) * 13, 0.0, (), noise_scale=-0.1)


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
