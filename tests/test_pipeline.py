import contextlib
import dataclasses
import json
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import dominates, ledger_requests, ledger_sum, midpoint_vector, run_tree, with_value
import featgeo.pipeline as pipeline_module
import featgeo.records as records
import featgeo.report as report_module
from featgeo.bundled import default_sim_config_path
from featgeo.engine.cache import ENV_CACHE_DIR, ResponseCache
from featgeo.engine.client import EngineClient
from featgeo.engine.ledger import CostLedger
from featgeo.engine.types import (
    EngineRequest,
    EngineResponse,
    Role,
    TopicBrief,
    estimate_tokens,
)
from featgeo.errors import EngineError, ValidationError
from featgeo.features import FeatureVector, catalog_default
from featgeo.optimizer import GAConfig
from featgeo.pipeline import (
    CandidateEvaluator,
    ProbeResult,
    RunConfig,
    build_client,
    load_documents,
    probe_topic,
    run_ablation,
    run_optimization,
)
from featgeo.quality import QualityConfig
from featgeo.sim import PROFILE_MARKER, SimBackend, SimConfig, SimWorld, profile_line

CATALOG = catalog_default()


def write_docs(tmp_path, vectors=None, with_profiles=True):
    paths = []
    n = 5 if vectors is None else len(vectors)
    for i in range(n):
        body = f"Competitor article number {i + 1} about planning meals at home.\n"
        if with_profiles and vectors is not None:
            body += f"\n{profile_line(vectors[i], CATALOG)}\n"
        p = tmp_path / f"doc{i + 1}.txt"
        p.write_text(body, encoding="utf-8")
        paths.append(p)
    return tuple(paths)


def small_sim_config(tmp_path, *, vis_weights=None, bias=-1.0, noise=0.1, seed=3,
                     ga=None, competitors=None, **kwargs):
    competitors = competitors or [midpoint_vector(CATALOG)] * 5
    docs = write_docs(tmp_path, vectors=competitors)
    sim = SimConfig(
        seed=seed,
        visibility_weights=tuple(vis_weights or [0.0] * 13),
        visibility_bias=bias,
        quality_weights=(0.0,) * 13,
        tradeoff_strength=0.5,
        competitor_vectors=tuple(competitors),
        noise_scale=noise,
    )
    ga = ga or GAConfig(population_size=4, generations=2, repeats_per_eval=2, seed=seed)
    defaults = dict(
        topic="meal planning",
        competitor_docs=docs,
        output_dir=tmp_path / "run",
        ga=ga,
        quality=QualityConfig(),
        sim=sim,
        query_count=2,
        exemplar_count=3,
        backend="sim",
        judge_target="page",
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def weights_on(key, value):
    w = [0.0] * 13
    w[CATALOG.index_of(key)] = value
    return w


# -- config loading -----------------------------------------------------------------


def test_bundled_config_loads():
    cfg = RunConfig.from_file(default_sim_config_path())
    assert cfg.backend == "sim"
    assert len(cfg.competitor_docs) == 5
    assert cfg.ga.population_size == 8
    assert cfg.ga.generations == 8
    assert cfg.ga.mutation_prob == 0.5
    assert cfg.ga.mutation_sigma == 0.2
    assert cfg.ga.repeats_per_eval == 5


def test_config_seed_override_drives_both_seeds():
    cfg = RunConfig.from_file(default_sim_config_path(), seed=99)
    assert cfg.ga.seed == 99
    assert cfg.sim.seed == 99


def test_config_missing_doc_is_validation_error(tmp_path):
    """The config reader only resolves a document's path; the run reads it before it writes anything."""
    raw = json.loads(default_sim_config_path().read_text())
    raw["competitor_docs"] = ["nope.txt"]
    raw["output_dir"] = "run"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    cfg = RunConfig.from_file(p)
    assert cfg.competitor_docs == (tmp_path / "nope.txt",)
    with pytest.raises(ValidationError, match=f"cannot read competitor document {re.escape(str(tmp_path))}/nope.txt: "):
        run_optimization(cfg, run_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_config_output_dir_override_is_a_path():
    assert RunConfig.from_file(default_sim_config_path(), output_dir="x").output_dir == Path("x")


def test_config_file_that_is_not_json_is_validation_error(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"topic": ')
    with pytest.raises(ValidationError, match=f"config file {re.escape(str(p))} is not valid JSON"):
        RunConfig.from_file(p)


def test_config_validation_errors(tmp_path):
    docs = write_docs(tmp_path, [midpoint_vector(CATALOG)] * 5)
    with pytest.raises(ValidationError):
        RunConfig(topic="t", competitor_docs=docs, output_dir=tmp_path, backend="other")
    with pytest.raises(ValidationError):
        RunConfig(topic="t", competitor_docs=docs, output_dir=tmp_path, backend="sim")  # no sim section


def test_config_file_reads_back_every_field_of_every_section(tmp_path):
    docs = write_docs(tmp_path)
    vector = [0.5] * 13
    raw = {
        "topic": "meal planning",
        "competitor_docs": [doc.name for doc in docs],
        "output_dir": "out",
        "query_count": 2,
        "exemplar_count": 3,
        "backend": "live",
        "advertiser_position": "first",
        "judge_target": "page",
        "regenerate_page_per_repeat": True,
        "eval_workers": 3,
        "cache_path": "cache.jsonl",
        "salt": "s1",
        "ga": {"population_size": 10, "generations": 3, "mutation_prob": 1, "mutation_sigma": 0.3,
               "repeats_per_eval": 2, "crossover_prob": 0.8, "tournament_size": 3, "seed": 4},
        "quality": {"alpha": 0.25, "repeats": 2},
        "sim": {"seed": 5, "visibility_weights": [1] * 13, "visibility_bias": -2.0,
                "quality_weights": [0.1] * 13, "tradeoff_strength": 0.4,
                "competitor_vectors": [vector], "noise_scale": 0.2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = RunConfig.from_file(path)
    assert cfg == RunConfig(
        topic="meal planning", competitor_docs=docs, output_dir=Path("out"), query_count=2,
        exemplar_count=3, backend="live", advertiser_position="first", judge_target="page",
        regenerate_page_per_repeat=True, eval_workers=3, cache_path=Path("cache.jsonl"), salt="s1",
        ga=GAConfig(10, 3, 1.0, 0.3, 2, 0.8, 3, 4),
        quality=QualityConfig(0.25, 2),
        sim=SimConfig(5, (1.0,) * 13, -2.0, (0.1,) * 13, 0.4, (FeatureVector(tuple(vector)),), 0.2),
    )
    # A field added to a dataclass fails here until this test writes it with a non-default value.
    for cls, section, loaded in ((RunConfig, raw, cfg), (GAConfig, raw["ga"], cfg.ga),
                                 (QualityConfig, raw["quality"], cfg.quality), (SimConfig, raw["sim"], cfg.sim)):
        assert set(section) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING or getattr(loaded, f.name) != f.default, f.name


def test_config_snapshot_keys_are_the_run_fields_but_deployment_ones_in_field_order(tmp_path):
    cfg = small_sim_config(tmp_path, cache_path=tmp_path / "cache.jsonl", eval_workers=2)
    snapshot = pipeline_module._config_snapshot(cfg, load_documents(cfg.competitor_docs))
    deployment = {"output_dir", "eval_workers", "cache_path"}
    assert list(snapshot) == [f.name for f in dataclasses.fields(RunConfig) if f.name not in deployment]
    assert snapshot["sim"]["competitor_vectors"] == [list(v.values) for v in cfg.sim.competitor_vectors]


# -- probe ----------------------------------------------------------------------------


def test_probe_counts_and_bounds(tmp_path):
    cfg = small_sim_config(tmp_path, query_count=5)
    client = build_client(cfg, CATALOG)
    docs = load_documents(cfg.competitor_docs)
    probe = probe_topic(cfg, client, docs)
    assert len(probe.queries) == 5
    assert records.probe_to_dict(probe, CATALOG)["num_queries"] == 5
    assert all(0 <= f <= 5 for f in probe.frequencies.values())
    assert len(probe.exemplar_vectors) == len(probe.exemplar_ids) <= 3
    for v in probe.exemplar_vectors:
        for value, feat in zip(v.values, CATALOG):
            assert feat.lo <= value <= feat.hi


def test_probe_exemplars_begin_with_dominant_document(tmp_path):
    competitors = [with_value(midpoint_vector(CATALOG), 0, 0.0) for _ in range(5)]
    competitors[1] = with_value(midpoint_vector(CATALOG), 0, 1.0)  # doc 2 dominates
    cfg = small_sim_config(
        tmp_path,
        vis_weights=weights_on("has_intro_summary", 9.0),
        bias=-4.5,
        noise=0.0,
        competitors=competitors,
        query_count=8,
    )
    client = build_client(cfg, CATALOG)
    docs = load_documents(cfg.competitor_docs)
    probe = probe_topic(cfg, client, docs)
    assert probe.exemplar_ids[0] == 2
    assert probe.frequencies[2] == 8


def test_probe_without_a_cited_source_falls_back_to_the_first_documents(tmp_path, caplog):
    cfg = small_sim_config(tmp_path, exemplar_count=3)
    backend = RoleScriptBackend(SimWorld(cfg.sim, CATALOG), {
        Role.ANSWER_GEN: lambda req: "This answer cites no source at all.",
    })
    with caplog.at_level("WARNING"):
        probe = probe_topic(cfg, EngineClient(backend, CATALOG), load_documents(cfg.competitor_docs))
    assert probe.exemplar_ids == (1, 2, 3)
    assert len(probe.exemplar_vectors) == 3
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert [r.getMessage() for r in warnings] == [
        "no source was cited during probing; falling back to the first 3 documents"
    ]


# -- candidate evaluation ----------------------------------------------------------------


class RoleScriptBackend:
    """Sim backend with per-role overrides, for fault injection and canned replies."""

    def __init__(self, world, overrides=None):
        self.inner = SimBackend(world)
        self.overrides = overrides or {}
        self.calls = []

    def complete(self, request: EngineRequest) -> EngineResponse:
        self.calls.append(request.role)
        if request.role in self.overrides:
            text = self.overrides[request.role](request)
            return EngineResponse(text, estimate_tokens(request.prompt),
                                  estimate_tokens(text), True, 0.001)
        return self.inner.complete(request)


def manual_probe(queries=("how to plan meals?", "what to cook weekly?")):
    return ProbeResult(
        queries=tuple(queries),
        frequencies={},
        exemplar_ids=(1,),
        exemplar_vectors=(midpoint_vector(CATALOG),),
        brief=TopicBrief("meal planning", "Position PeakNest as the planning companion."),
    )


def run_against(monkeypatch, backend):
    """Make run_optimization build its client around ``backend``."""
    monkeypatch.setattr(
        pipeline_module, "build_client",
        lambda c, cat, docs=(): EngineClient(backend, cat),
    )


def make_evaluator(cfg, backend):
    client = EngineClient(backend, CATALOG)
    docs = load_documents(cfg.competitor_docs)
    return CandidateEvaluator(cfg, client, manual_probe(), docs)


def test_evaluate_dominant_candidate_visibility_near_100(tmp_path):
    competitors = [with_value(midpoint_vector(CATALOG), 0, 0.0) for _ in range(5)]
    cfg = small_sim_config(
        tmp_path,
        vis_weights=weights_on("has_intro_summary", 9.0),
        bias=-4.5,
        noise=0.0,
        competitors=competitors,
        judge_target="page",
    )
    world = SimWorld(cfg.sim, CATALOG)
    evaluator = make_evaluator(cfg, SimBackend(world))
    candidate = with_value(midpoint_vector(CATALOG), 0, 1.0)
    vis, qual = evaluator(candidate, (0, 0, 0))
    assert vis >= 97.0


def test_evaluate_uncited_advertiser_scores_zero(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)
    backend = RoleScriptBackend(world, {
        Role.ANSWER_GEN: lambda req: "Competitors only here [1]. More of them [2].",
    })
    evaluator = make_evaluator(cfg, backend)
    vis, qual = evaluator(midpoint_vector(CATALOG), (0, 0, 0))
    assert vis == 0.0


def test_evaluate_all_five_judge_gives_quality_100(tmp_path):
    cfg = small_sim_config(tmp_path, judge_target="answer")
    world = SimWorld(cfg.sim, CATALOG)
    judge_text = "\n".join(f"{n}: 5" for n in
                           ("fluency", "usefulness", "credibility", "structure",
                            "uniqueness", "attractiveness", "influence"))
    backend = RoleScriptBackend(world, {Role.JUDGE: lambda req: judge_text})
    evaluator = make_evaluator(cfg, backend)
    vis, qual = evaluator(midpoint_vector(CATALOG), (0, 0, 0))
    assert qual == pytest.approx(100.0, abs=1e-9)


def test_evaluate_records_per_query_mean_bookkeeping(tmp_path):
    cfg = small_sim_config(tmp_path, query_count=4)
    world = SimWorld(cfg.sim, CATALOG)
    evaluator = make_evaluator(cfg, SimBackend(world))
    evaluator(midpoint_vector(CATALOG), (0, 0, 0))
    metric = evaluator.metrics[0]
    assert metric.visibility == pytest.approx(
        sum(metric.per_query_vis) / len(metric.per_query_vis), abs=1e-9
    )


def test_evaluate_failure_yields_no_objectives(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)

    def explode(req):
        raise EngineError("answer backend down")

    backend = RoleScriptBackend(world, {Role.ANSWER_GEN: explode})
    evaluator = make_evaluator(cfg, backend)
    assert evaluator(midpoint_vector(CATALOG), (1, 2, 0)) is None
    assert evaluator.metrics[0].failed


def test_page_memo_reuses_page_across_repeats(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)
    backend = RoleScriptBackend(world)
    evaluator = make_evaluator(cfg, backend)
    x = midpoint_vector(CATALOG)
    evaluator.evaluate_batch([(x, (0, 0, rep)) for rep in range(3)])
    assert evaluator.realizations == 1
    assert backend.calls.count(Role.PAGE_GEN) == 1
    evaluator(x, (1, 0, 0))  # a different candidate slot realizes again
    assert evaluator.realizations == 2


def test_regenerate_flag_realizes_each_repeat(tmp_path):
    cfg = small_sim_config(tmp_path, regenerate_page_per_repeat=True)
    world = SimWorld(cfg.sim, CATALOG)
    evaluator = make_evaluator(cfg, SimBackend(world))
    x = midpoint_vector(CATALOG)
    evaluator.evaluate_batch([(x, (0, 0, rep)) for rep in range(3)])
    assert evaluator.realizations == 3


def test_regenerated_pages_are_not_replayed_from_the_cache(tmp_path):
    cfg = small_sim_config(tmp_path, regenerate_page_per_repeat=True)
    client = EngineClient(SimBackend(SimWorld(cfg.sim, CATALOG)), CATALOG,
                          cache=ResponseCache(tmp_path / "responses.jsonl"))
    evaluator = CandidateEvaluator(cfg, client, manual_probe(), load_documents(cfg.competitor_docs))
    evaluator.evaluate_batch([(midpoint_vector(CATALOG), (0, 0, rep)) for rep in range(3)])
    assert ledger_sum(client.ledger, role=Role.PAGE_GEN).api_calls == 3  # live calls
    assert ledger_requests(client.ledger, Role.PAGE_GEN) == 3  # live calls plus cache hits


def batch_units(x, slots_repeats):
    return [(x, (0, slot, repeat)) for slot, repeat in slots_repeats]


@pytest.mark.parametrize("workers", [1, 4])
def test_a_failing_answer_fails_only_its_unit(tmp_path, workers):
    cfg = small_sim_config(tmp_path, judge_target="answer")
    world = SimWorld(cfg.sim, CATALOG)
    first_query = manual_probe().queries[0]

    def fail_rep2(req):
        if req.payload["salt"] == "rep2" and req.payload["query"] == first_query:
            raise EngineError("answer backend down")
        return SimBackend(world).complete(req).text

    # Repeat 2 exists for slot 0 only, so exactly one unit sees the failure.
    units = batch_units(midpoint_vector(CATALOG), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
    healthy = make_evaluator(cfg, SimBackend(world)).evaluate_batch(units)
    backend = RoleScriptBackend(world, {Role.ANSWER_GEN: fail_rep2})
    evaluator = make_evaluator(cfg, backend)
    with ThreadPoolExecutor(workers) as pool:
        evaluator.query_map = pool.map
        objectives = evaluator.evaluate_batch(units)
    assert objectives == healthy[:2] + [None] + healthy[3:]
    assert [m.failed for m in evaluator.metrics] == [False, False, True, False, False]
    assert [(m.slot, m.repeat) for m in evaluator.metrics] == [key[1:] for _, key in units]
    if workers == 1:  # the failed unit makes no further call: not its second answer, no judge call
        assert backend.calls.count(Role.ANSWER_GEN) == 4 * cfg.query_count + 1
        assert backend.calls.count(Role.JUDGE) == 4 * cfg.query_count * cfg.quality.repeats


@pytest.mark.parametrize("workers", [1, 4])
def test_non_finite_judge_scores_fail_only_their_unit(tmp_path, workers):
    cfg = small_sim_config(tmp_path, judge_target="answer")
    world = SimWorld(cfg.sim, CATALOG)

    def answer(req):  # marks the answers of repeat 2, which only slot 0 has
        text = SimBackend(world).complete(req).text
        return text + " Marked." if req.payload["salt"] == "rep2" else text

    def judge(req):
        scores = SimBackend(world).complete(req).text
        return re.sub(r"fluency: \d+", "fluency: inf", scores) if "Marked." in req.payload["text"] else scores

    units = batch_units(midpoint_vector(CATALOG), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
    healthy = make_evaluator(cfg, SimBackend(world)).evaluate_batch(units)
    backend = RoleScriptBackend(world, {Role.ANSWER_GEN: answer, Role.JUDGE: judge})
    evaluator = make_evaluator(cfg, backend)
    with ThreadPoolExecutor(workers) as pool:
        evaluator.query_map = pool.map
        objectives = evaluator.evaluate_batch(units)
    assert objectives == healthy[:2] + [None] + healthy[3:]
    assert [m.failed for m in evaluator.metrics] == [False, False, True, False, False]
    # The failed unit's first judge call was sent retry_limit times, then it stopped.
    assert backend.calls.count(Role.JUDGE) == 4 * cfg.query_count + evaluator.client.retry_limit


def test_a_failed_repeat_leaves_its_candidate_the_mean_of_the_other_repeats(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path, ga=GAConfig(population_size=4, generations=1, repeats_per_eval=5, seed=3))
    world = SimWorld(cfg.sim, CATALOG)
    rep3_answers = []

    def first_rep3_answer_fails(req):  # at one worker, the first rep3 answer is slot 0's
        if req.payload["salt"] == "rep3":
            rep3_answers.append(req)
            if len(rep3_answers) == 1:
                raise EngineError("answer backend down")
        return SimBackend(world).complete(req).text

    run_against(monkeypatch, RoleScriptBackend(world, {Role.ANSWER_GEN: first_rep3_answer_fails}))
    assert run_optimization(cfg).status == "degraded"
    rows = [json.loads(line) for line in (cfg.output_dir / "eval_metrics.jsonl").read_text().splitlines()]
    assert [(r["generation"], r["slot"], r["repeat"]) for r in rows if r["failed"]] == [(0, 0, 3)]
    scored = [r for r in rows if (r["generation"], r["slot"]) == (0, 0) and not r["failed"]]
    assert len(scored) == 4
    logged = [json.loads(line) for line in (cfg.output_dir / "generations.jsonl").read_text().splitlines()]
    slot0 = next(r for r in logged if (r["generation"], r["slot"]) == (0, 0))
    expected = tuple(sum(r[name] for r in scored) / 4 for name in ("visibility", "quality"))
    assert expected[1] > 0.0  # a (0, 0) penalty averaged in would show
    assert (slot0["visibility"], slot0["quality"]) == expected


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("failing, status", [
    ((), "complete"),
    (("rep1",), "degraded"),  # exactly half of the units failed
    (("rep0", "rep1"), "failed"),
])
def test_run_status_follows_the_failed_evaluations(tmp_path, monkeypatch, workers, failing, status):
    cfg = small_sim_config(tmp_path, eval_workers=workers)
    world = SimWorld(cfg.sim, CATALOG)

    def answer(req):
        if req.payload["salt"] in failing:
            raise EngineError("answer backend down")
        return SimBackend(world).complete(req).text

    run_against(monkeypatch, RoleScriptBackend(world, {Role.ANSWER_GEN: answer}))
    record = run_optimization(cfg)
    failed = sum(m.failed for m in record.eval_metrics)
    assert failed == len(failing) * len(record.eval_metrics) // cfg.ga.repeats_per_eval
    assert record.status == status
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == status
    expected_error = f"{failed} of {len(record.eval_metrics)} evaluations failed" if status == "failed" else None
    assert manifest["error"] == expected_error
    assert (cfg.output_dir / "report").is_dir()


def pages_asked(cfg):
    return cfg.ga.population_size * (cfg.ga.generations + 1)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failed_page_fails_exactly_the_units_of_its_slot(tmp_path, monkeypatch, workers):
    cfg = small_sim_config(tmp_path, eval_workers=workers)
    world = SimWorld(cfg.sim, CATALOG)
    lock, pages = threading.Lock(), {"n": 0}

    def first_page_fails(req):
        with lock:
            pages["n"] += 1
            if pages["n"] == 1:
                raise EngineError("page backend down")
        return SimBackend(world).complete(req).text

    backend = RoleScriptBackend(world, {Role.PAGE_GEN: first_page_fails})
    run_against(monkeypatch, backend)
    record = run_optimization(cfg)
    assert record.status == "degraded"
    failed = [m for m in record.eval_metrics if m.failed]
    slot = failed[0].slot
    assert [(m.generation, m.slot, m.repeat) for m in failed] == [
        (0, slot, repeat) for repeat in range(cfg.ga.repeats_per_eval)
    ]
    assert backend.calls.count(Role.PAGE_GEN) == pages_asked(cfg)  # the failed page is not asked for again


def test_a_page_re_asked_after_an_empty_reply_completes_the_run(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)
    pages = {"n": 0}

    def first_page_empty(req):
        pages["n"] += 1
        return "" if pages["n"] == 1 else SimBackend(world).complete(req).text

    backend = RoleScriptBackend(world, {Role.PAGE_GEN: first_page_empty})
    run_against(monkeypatch, backend)
    record = run_optimization(cfg)
    assert record.status == "complete"
    assert not any(m.failed for m in record.eval_metrics)
    assert backend.calls.count(Role.PAGE_GEN) == pages_asked(cfg) + 1


@pytest.mark.parametrize("fault", [RuntimeError("socket closed"), KeyError("docs")])
def test_a_program_fault_in_the_backend_aborts_the_run(tmp_path, monkeypatch, fault):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)

    def broken_judge(req):
        raise fault

    run_against(monkeypatch, RoleScriptBackend(world, {Role.JUDGE: broken_judge}))
    with pytest.raises(type(fault)) as err:
        run_optimization(cfg)
    assert err.value is fault
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_identical_requests_in_flight_make_one_call(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)

    class SlowPages(RoleScriptBackend):
        def complete(self, request):
            if request.role == Role.PAGE_GEN:
                time.sleep(0.05)
            return super().complete(request)

    cache = ResponseCache(tmp_path / "responses.jsonl")
    client = EngineClient(SlowPages(world), CATALOG, cache=cache)
    docs = load_documents(cfg.competitor_docs)
    with ThreadPoolExecutor(2) as pool:
        evaluator = CandidateEvaluator(cfg, client, manual_probe(), docs, pool.map)
        # Two clones in one generation send the same page request.
        first, second = evaluator.evaluate_batch(batch_units(midpoint_vector(CATALOG), [(0, 0), (1, 0)]))
    assert first == second
    assert ledger_sum(client.ledger, role=Role.PAGE_GEN).api_calls == 1
    assert ledger_requests(client.ledger, Role.PAGE_GEN) == 2  # one live call, one cache hit
    records = [json.loads(line) for line in cache.path.read_text().splitlines()]
    assert [r["role"] for r in records].count(Role.PAGE_GEN.value) == 1


def test_the_client_holds_no_key_lock_after_a_cached_run_or_its_replay(tmp_path, monkeypatch):
    """A key's lock goes once its reply is cached, so a run that fails no call ends with none."""
    clients = []
    build_client = pipeline_module.build_client

    def recording_build_client(cfg, catalog, docs=()):
        clients.append(build_client(cfg, catalog, docs))
        return clients[-1]

    monkeypatch.setattr(pipeline_module, "build_client", recording_build_client)
    cfg = RunConfig.from_file(default_sim_config_path(), seed=7, output_dir=tmp_path / "run",
                              cache_path=tmp_path / "responses.jsonl")
    run_optimization(cfg)
    run_optimization(dataclasses.replace(cfg, output_dir=tmp_path / "replay"))
    filled, replayed = (ledger_sum(client.ledger) for client in clients)
    assert replayed.api_calls == 0 and replayed.cache_hits == filled.api_calls + filled.cache_hits
    assert [len(client._key_locks) for client in clients] == [0, 0]


def test_advertiser_position_first_keeps_last_id(tmp_path):
    cfg = small_sim_config(tmp_path, advertiser_position="first")
    world = SimWorld(cfg.sim, CATALOG)
    evaluator = make_evaluator(cfg, SimBackend(world))
    docs = evaluator._candidate_docs("page text\n")
    assert docs[0].text == "page text\n"
    assert docs[0].id == 6
    assert [d.id for d in docs[1:]] == [1, 2, 3, 4, 5]


# -- full runs -------------------------------------------------------------------------


@pytest.mark.parametrize("judge_target, regenerate", [
    ("page", False), ("answer", False), ("page", True), ("answer", True),
], ids=["page", "answer", "page-regenerate", "answer-regenerate"])
def test_run_optimization_is_deterministic_across_runs_and_workers(tmp_path, judge_target, regenerate):
    trees = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 3), ("e", 4), ("f", 16)):
        (tmp_path / name).mkdir()
        cfg = small_sim_config(tmp_path / name, eval_workers=workers, judge_target=judge_target,
                               regenerate_page_per_repeat=regenerate, output_dir=tmp_path / name / "run")
        record = run_optimization(cfg)
        assert record.status == "complete"
        trees.append(run_tree(cfg.output_dir))
    assert "report/cost_table.txt" in trees[0]
    for tree in trees[1:]:
        assert tree == trees[0]


class InFlightBackend(RoleScriptBackend):
    """Sim backend whose answers take a while, counting how many run at once."""

    def __init__(self, world):
        super().__init__(world)
        self.lock = threading.Lock()
        self.in_flight = self.max_in_flight = 0

    def complete(self, request):
        if request.role != Role.ANSWER_GEN:
            return super().complete(request)
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(0.01)
            return super().complete(request)
        finally:
            with self.lock:
                self.in_flight -= 1


@pytest.mark.parametrize("workers, query_count, ga", [
    (1, 4, GAConfig(population_size=2, generations=1, repeats_per_eval=1)),
    (2, 4, GAConfig(population_size=2, generations=1, repeats_per_eval=1)),
    # Two queries per unit: only answers of several units at once can keep four workers busy.
    (4, 2, None),
], ids=["1", "2", "4"])
def test_eval_workers_bound_the_answers_in_flight(tmp_path, monkeypatch, workers, query_count, ga):
    cfg = small_sim_config(tmp_path, eval_workers=workers, query_count=query_count, ga=ga)
    backend = InFlightBackend(SimWorld(cfg.sim, CATALOG))
    run_against(monkeypatch, backend)
    assert run_optimization(cfg).status == "complete"
    assert backend.max_in_flight == workers


def test_run_record_files_and_report_exist(tmp_path):
    cfg = small_sim_config(tmp_path)
    record = run_optimization(cfg)
    for name in ("manifest.json", "probe.json", "generations.jsonl", "pareto_front.jsonl",
                 "hv_trace.csv", "final_solutions.json", "eval_metrics.jsonl", "cost.json"):
        assert (cfg.output_dir / name).exists(), name
    report_dir = cfg.output_dir / "report"
    names = sorted(p.name for p in report_dir.iterdir())
    assert names == ["cost_table.txt", "hv_trace.csv", "metrics_table.txt",
                     "pareto_scatter.csv", "solution_comparison.txt"]
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert set(manifest["artifacts"]) >= {"probe.json", "cost.json"}


@pytest.mark.parametrize("regenerate", [False, True])
def test_run_ledger_accounting(tmp_path, regenerate):
    from featgeo.engine.types import Stage

    cfg = small_sim_config(tmp_path, regenerate_page_per_repeat=regenerate)
    record = run_optimization(cfg)
    CostLedger.from_dict(json.loads((cfg.output_dir / "cost.json").read_text()), "cost.json: ")
    n, g = cfg.ga.population_size, cfg.ga.generations
    m = cfg.query_count
    reps = cfg.ga.repeats_per_eval
    pages = reps if regenerate else 1  # page requests per candidate: one, or one per repeat
    assert ledger_requests(record.ledger, Role.PAGE_GEN) == n * (g + 1) * pages
    # stage split: N candidates' pages at initialization, N candidates' per generation afterwards
    assert ledger_requests(record.ledger, Role.PAGE_GEN, Stage.INITIAL_POPULATION) == n * pages
    assert ledger_requests(record.ledger, Role.PAGE_GEN, Stage.GA_OPTIMIZATION) == n * g * pages
    assert ledger_requests(record.ledger, Role.PAGE_GEN, Stage.FEATURE_EXTRACTION) == 0
    # answers: probe M, then M per (candidate, repeat)
    assert ledger_requests(record.ledger, Role.ANSWER_GEN, Stage.FEATURE_EXTRACTION) == m
    assert ledger_requests(record.ledger, Role.ANSWER_GEN, Stage.GA_OPTIMIZATION) == n * g * reps * m
    assert ledger_requests(record.ledger, Role.ANSWER_GEN) == m + n * (g + 1) * reps * m
    totals = ledger_sum(record.ledger)
    assert totals.api_calls > 0
    assert totals.prompt_tokens > 0


def test_an_unreadable_competitor_document_fails_the_run_naming_it(tmp_path):
    """A config built in Python meets the same document reader, before the run writes anything."""
    cfg = small_sim_config(tmp_path)
    missing = tmp_path / "docs" / "missing.txt"
    cfg = dataclasses.replace(cfg, competitor_docs=(*cfg.competitor_docs[:-1], missing))
    with pytest.raises(ValidationError) as err:
        run_optimization(cfg)
    assert str(err.value).startswith(f"cannot read competitor document {missing}: ")
    assert not cfg.output_dir.exists()


def test_the_profile_memo_holds_only_texts_that_carry_a_profile(tmp_path, monkeypatch):
    """With the judge reading answers, answers reach ``SimWorld.profile_of`` too, and stay out of its memo."""
    worlds = []

    class RecordedWorld(SimWorld):
        def __init__(self, *args):
            super().__init__(*args)
            worlds.append(self)

    monkeypatch.setattr(pipeline_module, "SimWorld", RecordedWorld)
    run_optimization(small_sim_config(tmp_path, judge_target="answer"))
    [world] = worlds
    assert world._profiles and all(PROFILE_MARKER in text for text in world._profiles)


def test_run_records_raw_judge_dimensions(tmp_path):
    cfg = small_sim_config(tmp_path, judge_target="answer")
    record = run_optimization(cfg)
    rows = [json.loads(l) for l in (cfg.output_dir / "eval_metrics.jsonl").read_text().splitlines()]
    assert rows
    for row in rows:
        if row["failed"]:
            continue
        assert len(row["judge_scores"]) == cfg.query_count * cfg.quality.repeats
        for dims in row["judge_scores"]:
            assert len(dims) == 7
            assert all(1 <= s <= 5 for s in dims)


def break_evaluations_after(monkeypatch, n):
    """Evaluate the run's first n units, then raise a bug that aborts the run.

    Returns a probe whose "threads" is the most threads alive after a batch ran.
    """
    probe = {"units": 0, "threads": 0}
    original = CandidateEvaluator.evaluate_batch

    def sometimes_broken(self, units):
        room = n - probe["units"]
        probe["units"] += len(units)
        ran = units if len(units) <= room else units[:max(room, 0)]
        objectives = original(self, ran) if ran else []
        probe["threads"] = max(probe["threads"], threading.active_count())
        if len(objectives) < len(units):
            raise RuntimeError("hard backend bug")  # not an EngineError: aborts the run
        return objectives

    monkeypatch.setattr(CandidateEvaluator, "evaluate_batch", sometimes_broken)
    return probe


def test_evolve_failure_persists_partial_record(tmp_path, monkeypatch):
    """A bug in generation 2's batch aborts the run: run_optimization raises the bug itself, after it
    records the generations, trace and archive front evolve reached and the rows of the batches that ran."""
    cfg = small_sim_config(tmp_path)  # 4 slots x 2 repeats per generation
    break_evaluations_after(monkeypatch, 16)
    results, raised, evolve = [], [], pipeline_module.evolve

    def recording_evolve(*args, on_generation, **kwargs):
        def record(result):
            results.append(result)
            on_generation(result)

        try:
            return evolve(*args, on_generation=record, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(pipeline_module, "evolve", recording_evolve)
    with pytest.raises(RuntimeError) as err:
        run_optimization(cfg)
    (bug,) = raised
    assert err.value is bug and type(bug) is RuntimeError
    partial = results[-1]
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "hard backend bug"
    rows = [json.loads(line) for line in (cfg.output_dir / "eval_metrics.jsonl").read_text().splitlines()]
    assert [(r["generation"], r["slot"], r["repeat"]) for r in rows] == [
        (g, s, r) for g in (0, 1) for s in range(4) for r in range(2)
    ]
    front = [json.loads(line) for line in (cfg.output_dir / "pareto_front.jsonl").read_text().splitlines()]
    assert front and [(m["visibility"], m["quality"]) for m in front] == partial.front.objective_pairs()
    assert [m["realized_at"] for m in front] == [list(ind.key) for ind in partial.front]
    trace = (cfg.output_dir / "hv_trace.csv").read_text()
    assert trace == records.trace_csv(partial.trace.entries) and trace.count("\n") == 3
    assert (cfg.output_dir / "generations.jsonl").read_text().count("\n") == 8


@pytest.mark.parametrize("aborted", [False, True])
def test_run_leaves_no_pool_thread_behind(tmp_path, monkeypatch, aborted):
    cfg = small_sim_config(tmp_path, eval_workers=3)
    probe = break_evaluations_after(monkeypatch, 6 if aborted else math.inf)
    before = threading.active_count()
    with pytest.raises(RuntimeError) if aborted else contextlib.nullcontext():
        run_optimization(cfg)
    assert probe["threads"] > before  # the pool ran tasks before the run ended
    assert threading.active_count() == before


def test_run_front_members_are_mutually_nondominated(tmp_path):
    cfg = small_sim_config(tmp_path, vis_weights=weights_on("statistics_level", 3.0))
    record = run_optimization(cfg)
    members = list(record.result.front)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not dominates(a, b)
            assert not dominates(b, a)


def test_run_eq3_estimator_bookkeeping(tmp_path):
    cfg = small_sim_config(tmp_path)
    record = run_optimization(cfg)
    assert record.eval_metrics
    for metric in record.eval_metrics:
        if metric.failed:
            continue
        assert metric.visibility == pytest.approx(
            sum(metric.per_query_vis) / len(metric.per_query_vis), abs=1e-9
        )


def test_run_survives_transient_candidate_failures(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)
    counter = {"n": 0}

    class FlakyBackend(RoleScriptBackend):
        def complete(self, request):
            if request.role == Role.ANSWER_GEN and request.payload.get("salt") != "probe":
                counter["n"] += 1
                if counter["n"] == 3:
                    raise EngineError("transient failure")
            return super().complete(request)

    run_against(monkeypatch, FlakyBackend(world))
    record = run_optimization(cfg)
    assert record.status == "degraded"
    assert any(m.failed for m in record.eval_metrics)


def test_cache_dir_env_var_enables_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cachedir"))
    cfg = small_sim_config(tmp_path)
    run_optimization(cfg)
    cache_file = tmp_path / "cachedir" / "responses.jsonl"
    assert cache_file.exists()
    assert cache_file.read_text().splitlines()


def test_run_replays_a_cache_whose_last_record_was_cut_short(tmp_path):
    cfg = small_sim_config(tmp_path, cache_path=tmp_path / "responses.jsonl")
    run_optimization(cfg)
    cfg.cache_path.write_bytes(cfg.cache_path.read_bytes()[:-40])  # a crash mid-append
    again = dataclasses.replace(cfg, output_dir=tmp_path / "again")
    assert run_optimization(again).status == "complete"
    for line in cfg.cache_path.read_text().splitlines():
        json.loads(line)
    finals = "final_solutions.json"
    assert (again.output_dir / finals).read_bytes() == (cfg.output_dir / finals).read_bytes()


def theme_extraction_down(request):
    raise EngineError("theme extraction backend down")


def test_failed_run_persists_partial_record(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path)
    run_against(monkeypatch, RoleScriptBackend(SimWorld(cfg.sim, CATALOG), {Role.THEME_EXTRACT: theme_extraction_down}))
    with pytest.raises(EngineError):
        run_optimization(cfg)
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]


def test_failed_rerun_lists_only_its_own_files(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path)
    assert run_optimization(cfg).status == "complete"
    assert (cfg.output_dir / records.PROBE_FILE).exists()
    # the rerun fails before it probes
    run_against(monkeypatch, RoleScriptBackend(SimWorld(cfg.sim, CATALOG), {Role.THEME_EXTRACT: theme_extraction_down}))
    with pytest.raises(EngineError):
        run_optimization(cfg)
    manifest = json.loads((cfg.output_dir / records.MANIFEST_FILE).read_text())
    assert manifest["status"] == "failed"
    assert not (cfg.output_dir / records.PROBE_FILE).exists()
    assert list(manifest["artifacts"]) == [n for n in records.RECORD_FILES if n != records.PROBE_FILE]
    for name, digest in manifest["artifacts"].items():
        assert records.file_digest(cfg.output_dir / name) == digest, name


# -- ablation -------------------------------------------------------------------------


def test_ablated_run_freezes_feature_at_minimum(tmp_path):
    cfg = small_sim_config(tmp_path)
    idx = CATALOG.index_of("statistics_level")
    record = run_optimization(cfg, frozen_features={idx: 0.0},
                              run_dir=cfg.output_dir)
    lines = (cfg.output_dir / "generations.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert row["features"]["statistics_level"] == 0.0
    for member in record.result.front:
        assert member.x[idx] == 0.0


def test_ablation_positive_weight_gives_positive_delta(tmp_path):
    competitors = [with_value(midpoint_vector(CATALOG), 4, 1.0) for _ in range(5)]
    cfg = small_sim_config(
        tmp_path,
        vis_weights=weights_on("statistics_level", 6.0),
        bias=-3.0,
        noise=0.05,
        competitors=competitors,
        ga=GAConfig(population_size=6, generations=3, repeats_per_eval=2, seed=5),
        query_count=3,
    )
    (result,) = run_ablation(cfg, ["statistics_level"])
    assert result.feature_key == "statistics_level"
    assert result.delta > 0
    assert result.delta == pytest.approx(result.baseline_vis - result.ablated_vis, abs=1e-9)


def test_ablation_unknown_feature_key(tmp_path):
    cfg = small_sim_config(tmp_path)
    with pytest.raises(ValidationError, match="unknown feature key"):
        run_ablation(cfg, ["brand_density"])


def test_ablation_checks_every_key_before_the_baseline_runs(tmp_path):
    cfg = small_sim_config(tmp_path)
    with pytest.raises(ValidationError, match="unknown feature key 'brand_density'"):
        run_ablation(cfg, ["statistics_level", "brand_density"])
    assert not (cfg.output_dir / "baseline").exists()


# -- report -------------------------------------------------------------------------------


def stats_dict(wall_time, api_calls, prompt_tokens, completion_tokens):
    return {"wall_time": wall_time, "api_calls": api_calls,
            "prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens,
            "cache_hits": 0}


def test_cost_table_renders_known_stage_numbers():
    data = {
        "entries": {
            "Feature Extraction/FeatureExtract": stats_dict(17.8, 5, 19011, 740),
            "Initial Population/PageGen": stats_dict(192.2, 41, 113318, 16495),
            "GA Optimization/AnswerGen": stats_dict(1510.8, 320, 874828, 133232),
        },
        "stages": {
            "Feature Extraction": stats_dict(17.8, 5, 19011, 740),
            "Initial Population": stats_dict(192.2, 41, 113318, 16495),
            "GA Optimization": stats_dict(1510.8, 320, 874828, 133232),
        },
        "totals": stats_dict(1720.8, 366, 1007157, 150467),
    }
    table = report_module._cost_table(data)
    assert "Feature Extraction" in table
    assert "Initial Population" in table
    assert "GA Optimization" in table
    assert "366" in table
    assert "1,007,157" in table
    assert "150,467" in table
    assert "1,720.8" in table


def test_cost_table_of_an_empty_ledger_is_all_zero():
    table = report_module._cost_table(CostLedger().to_dict())
    assert table.count("0") >= 8


def test_report_reexport_is_byte_identical(tmp_path):
    from featgeo.report import export_report
    cfg = small_sim_config(tmp_path)
    run_optimization(cfg)
    report_dir = cfg.output_dir / "report"
    original = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    for p in report_dir.iterdir():
        p.unlink()
    export_report(cfg.output_dir, overwrite=False)
    again = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    assert original == again


def test_report_comparison_table_contents(tmp_path):
    cfg = small_sim_config(tmp_path, vis_weights=weights_on("statistics_level", 3.0))
    record = run_optimization(cfg)
    text = (cfg.output_dir / "report" / "solution_comparison.txt").read_text()
    for feat in CATALOG:
        assert feat.key in text
    assert "Sol. A" in text and "Sol. B" in text
    metrics = (cfg.output_dir / "report" / "metrics_table.txt").read_text()
    assert "max_visibility" in metrics and "knee" in metrics
    for col in ("Vis", "Qual", "Word", "Pos"):
        assert col in metrics
    cost = (cfg.output_dir / "report" / "cost_table.txt").read_text()
    for stage in ("Feature Extraction", "Initial Population", "GA Optimization", "Total"):
        assert stage in cost
