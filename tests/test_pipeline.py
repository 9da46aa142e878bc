import contextlib
import dataclasses
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import midpoint_vector
import featgeo.pipeline as pipeline_module
from featgeo.bundled import default_sim_config_path
from featgeo.engine.cache import ResponseCache
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
from featgeo.features import FeatureVector, catalog_default, encode_vector
from featgeo.optimizer import GAConfig, OptimizerAbort
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
from featgeo.sim import PROFILE_MARKER, SimBackend, SimConfig, SimWorld

CATALOG = catalog_default()


def write_docs(tmp_path, vectors=None, with_profiles=True):
    paths = []
    n = 5 if vectors is None else len(vectors)
    for i in range(n):
        body = f"Competitor article number {i + 1} about planning meals at home.\n"
        if with_profiles and vectors is not None:
            body += f"\n{PROFILE_MARKER} {encode_vector(vectors[i], CATALOG)}\n"
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
    raw = json.loads(default_sim_config_path().read_text())
    raw["competitor_docs"] = ["nope.txt"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="nope.txt"):
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
    assert probe.num_queries == 5
    assert all(0 <= f <= 5 for f in probe.frequencies.values())
    assert len(probe.exemplar_vectors) == len(probe.exemplar_ids) <= 3
    for v in probe.exemplar_vectors:
        for value, feat in zip(v.values, CATALOG):
            assert feat.lo <= value <= feat.hi


def test_probe_exemplars_begin_with_dominant_document(tmp_path):
    competitors = [midpoint_vector(CATALOG).replace(0, 0.0) for _ in range(5)]
    competitors[1] = midpoint_vector(CATALOG).replace(0, 1.0)  # doc 2 dominates
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
        num_queries=len(queries),
        exemplar_ids=(1,),
        exemplar_vectors=(midpoint_vector(CATALOG),),
        brief=TopicBrief("meal planning", "Position PeakNest as the planning companion."),
    )


def run_against(monkeypatch, backend):
    """Make run_optimization build its client around ``backend``."""
    monkeypatch.setattr(
        pipeline_module, "build_client",
        lambda c, cat: EngineClient(backend, cat, max_answer_docs=len(c.competitor_docs) + 1,
                                    theme_doc_count=len(c.competitor_docs)),
    )


def make_evaluator(cfg, backend):
    client = EngineClient(backend, CATALOG, max_answer_docs=len(cfg.competitor_docs) + 1,
                          theme_doc_count=len(cfg.competitor_docs))
    docs = load_documents(cfg.competitor_docs)
    return CandidateEvaluator(cfg, client, manual_probe(), docs, CATALOG)


def test_evaluate_dominant_candidate_visibility_near_100(tmp_path):
    competitors = [midpoint_vector(CATALOG).replace(0, 0.0) for _ in range(5)]
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
    candidate = midpoint_vector(CATALOG).replace(0, 1.0)
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


def test_evaluate_failure_yields_penalty_objectives(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)

    def explode(req):
        raise EngineError("answer backend down")

    backend = RoleScriptBackend(world, {Role.ANSWER_GEN: explode})
    evaluator = make_evaluator(cfg, backend)
    vis, qual = evaluator(midpoint_vector(CATALOG), (1, 2, 0))
    assert (vis, qual) == (0.0, 0.0)
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
    assert objectives == healthy[:2] + [(0.0, 0.0)] + healthy[3:]
    assert [m.failed for m in evaluator.metrics] == [False, False, True, False, False]
    assert [(m.slot, m.repeat) for m in evaluator.metrics] == [key[1:] for _, key in units]
    if workers == 1:  # the failed unit makes no further call: not its second answer, no judge call
        assert backend.calls.count(Role.ANSWER_GEN) == 4 * cfg.query_count + 1
        assert backend.calls.count(Role.JUDGE) == 4 * cfg.query_count * cfg.quality.repeats


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failed_first_page_fails_only_that_repeat(tmp_path, monkeypatch, workers):
    cfg = small_sim_config(tmp_path, eval_workers=workers)
    world = SimWorld(cfg.sim, CATALOG)
    lock, pages = threading.Lock(), {"n": 0}

    def first_page_fails(req):
        with lock:
            pages["n"] += 1
            if pages["n"] == 1:
                raise EngineError("page backend down")
        return SimBackend(world).complete(req).text

    run_against(monkeypatch, RoleScriptBackend(world, {Role.PAGE_GEN: first_page_fails}))
    record = run_optimization(cfg)
    assert record.status == "complete"  # the page accounting of _verify_run holds
    failed = [m for m in record.eval_metrics if m.failed]
    assert [(m.generation, m.repeat) for m in failed] == [(0, 0)]
    slot = failed[0].slot
    assert [m.failed for m in record.eval_metrics if (m.generation, m.slot) == (0, slot)] == [True, False]


def test_identical_requests_in_flight_make_one_call(tmp_path):
    cfg = small_sim_config(tmp_path)
    world = SimWorld(cfg.sim, CATALOG)

    class SlowPages(RoleScriptBackend):
        def complete(self, request):
            if request.role == Role.PAGE_GEN:
                time.sleep(0.05)
            return super().complete(request)

    cache = ResponseCache(tmp_path / "responses.jsonl")
    client = EngineClient(SlowPages(world), CATALOG, cache=cache,
                          max_answer_docs=len(cfg.competitor_docs) + 1)
    docs = load_documents(cfg.competitor_docs)
    with ThreadPoolExecutor(2) as pool:
        evaluator = CandidateEvaluator(cfg, client, manual_probe(), docs, CATALOG, pool.map)
        # Two clones in one generation send the same page request.
        first, second = evaluator.evaluate_batch(batch_units(midpoint_vector(CATALOG), [(0, 0), (1, 0)]))
    assert first == second
    assert client.ledger.role_calls(Role.PAGE_GEN) == 1
    assert client.ledger.role_requests(Role.PAGE_GEN) == 2  # one live call, one cache hit
    records = [json.loads(line) for line in cache.path.read_text().splitlines()]
    assert [r["role"] for r in records].count(Role.PAGE_GEN.value) == 1


def test_advertiser_position_first_keeps_last_id(tmp_path):
    cfg = small_sim_config(tmp_path, advertiser_position="first")
    world = SimWorld(cfg.sim, CATALOG)
    evaluator = make_evaluator(cfg, SimBackend(world))
    docs = evaluator._candidate_docs("page text\n")
    assert docs[0].origin == "advertiser"
    assert docs[0].id == 6
    assert [d.id for d in docs[1:]] == [1, 2, 3, 4, 5]


# -- full runs -------------------------------------------------------------------------


def run_tree(run_dir):
    out = {}
    for root, _, files in os.walk(run_dir):
        for f in files:
            p = Path(root) / f
            out[str(p.relative_to(run_dir))] = p.read_bytes()
    return out


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


def test_run_ledger_accounting(tmp_path):
    from featgeo.engine.types import Stage

    cfg = small_sim_config(tmp_path)
    record = run_optimization(cfg)
    CostLedger.from_dict(json.loads((cfg.output_dir / "cost.json").read_text()))
    n, g = cfg.ga.population_size, cfg.ga.generations
    m = cfg.query_count
    reps = cfg.ga.repeats_per_eval
    assert record.ledger.role_requests(Role.PAGE_GEN) == n * (g + 1)
    # stage split: N realizations at initialization, N per generation afterwards
    assert record.ledger.role_requests(Role.PAGE_GEN, Stage.INITIAL_POPULATION) == n
    assert record.ledger.role_requests(Role.PAGE_GEN, Stage.GA_OPTIMIZATION) == n * g
    assert record.ledger.role_requests(Role.PAGE_GEN, Stage.FEATURE_EXTRACTION) == 0
    # answers: probe M, then M per (candidate, repeat)
    assert record.ledger.role_requests(Role.ANSWER_GEN, Stage.FEATURE_EXTRACTION) == m
    assert record.ledger.role_requests(Role.ANSWER_GEN, Stage.GA_OPTIMIZATION) == n * g * reps * m
    assert record.ledger.role_requests(Role.ANSWER_GEN) == m + n * (g + 1) * reps * m
    totals = record.ledger.totals()
    assert totals.api_calls > 0
    assert totals.prompt_tokens > 0


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


def test_evolve_abort_persists_partial_record(tmp_path, monkeypatch):
    cfg = small_sim_config(tmp_path)
    break_evaluations_after(monkeypatch, 6)
    with pytest.raises(OptimizerAbort):
        run_optimization(cfg)
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "hard backend bug" in manifest["error"]
    assert (cfg.output_dir / "hv_trace.csv").exists()


@pytest.mark.parametrize("aborted", [False, True])
def test_run_leaves_no_pool_thread_behind(tmp_path, monkeypatch, aborted):
    cfg = small_sim_config(tmp_path, eval_workers=3)
    probe = break_evaluations_after(monkeypatch, 6 if aborted else math.inf)
    before = threading.active_count()
    with pytest.raises(OptimizerAbort) if aborted else contextlib.nullcontext():
        run_optimization(cfg)
    assert probe["threads"] > before  # the pool ran tasks before the run ended
    assert threading.active_count() == before


def test_run_front_members_are_mutually_nondominated(tmp_path):
    cfg = small_sim_config(tmp_path, vis_weights=weights_on("statistics_level", 3.0))
    record = run_optimization(cfg)
    members = list(record.front)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert not a.dominates(b)
            assert not b.dominates(a)


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
    assert record.status == "complete"
    assert any(m.failed for m in record.eval_metrics)


def test_cache_dir_env_var_enables_cache(tmp_path, monkeypatch):
    from featgeo.engine.live import ENV_CACHE_DIR
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


def test_failed_run_persists_partial_record(tmp_path):
    cfg = small_sim_config(tmp_path)
    bad_docs = tuple(list(cfg.competitor_docs[:-1]) + [tmp_path / "empty.txt"])
    (tmp_path / "empty.txt").write_text("")
    cfg = dataclasses.replace(cfg, competitor_docs=bad_docs)
    with pytest.raises(ValidationError):
        run_optimization(cfg)
    manifest = json.loads((cfg.output_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]


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
    for member in record.front:
        assert member.x[idx] == 0.0


def test_ablation_positive_weight_gives_positive_delta(tmp_path):
    competitors = [midpoint_vector(CATALOG).replace(4, 1.0) for _ in range(5)]
    cfg = small_sim_config(
        tmp_path,
        vis_weights=weights_on("statistics_level", 6.0),
        bias=-3.0,
        noise=0.05,
        competitors=competitors,
        ga=GAConfig(population_size=6, generations=3, repeats_per_eval=2, seed=5),
        query_count=3,
    )
    result = run_ablation(cfg, "statistics_level")
    assert result.feature_key == "statistics_level"
    assert result.delta > 0
    assert result.delta == pytest.approx(result.baseline_vis - result.ablated_vis, abs=1e-9)


def test_ablation_unknown_feature_key(tmp_path):
    cfg = small_sim_config(tmp_path)
    with pytest.raises(ValidationError, match="unknown feature key"):
        run_ablation(cfg, "brand_density")


# -- report -------------------------------------------------------------------------------


def test_report_reexport_is_byte_identical(tmp_path):
    from featgeo.report import export_report, load_report_data
    cfg = small_sim_config(tmp_path)
    run_optimization(cfg)
    report_dir = cfg.output_dir / "report"
    original = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    data = load_report_data(cfg.output_dir)
    export_report(data, tmp_path / "reexport")
    again = {p.name: p.read_bytes() for p in (tmp_path / "reexport").iterdir()}
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
