import dataclasses
import errno
import json
import os
import re
import shutil
from pathlib import Path

import pytest

from conftest import run_tree
from featgeo.cli import EXIT_ENGINE, EXIT_INTEGRITY, EXIT_OK, EXIT_VALIDATION, run_cli
from featgeo.bundled import default_sim_config_path
from featgeo.engine.cache import ENV_CACHE_DIR
from featgeo.engine.client import EngineClient
from featgeo.engine.live import ENV_BASE_URL, ENV_MODEL, ChatCompletionBackend
from featgeo.engine.types import Role
from featgeo.errors import EngineError, ValidationError
from featgeo import pipeline
from featgeo.features import catalog_default
from featgeo.pipeline import CandidateEvaluator
from featgeo.sim import SimBackend


def write_small_config(directory):
    """Bundled sim config shrunk for fast CLI runs, written into ``directory``."""
    raw = json.loads(default_sim_config_path().read_text())
    docs_dir = default_sim_config_path().parent / "docs"
    raw["competitor_docs"] = [str(docs_dir / f"competitor{i}.txt") for i in range(1, 6)]
    raw["ga"].update(population_size=4, generations=2, repeats_per_eval=2)
    raw["query_count"] = 2
    raw["output_dir"] = str(directory / "default_out")
    path = directory / "config.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture()
def small_config(tmp_path):
    return write_small_config(tmp_path)


def test_simulate_replay_produces_identical_run_directories(tmp_path, small_config, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", str(small_config), "--seed", "7",
                    "--output-dir", str(a)]) == EXIT_OK
    assert run_cli(["simulate", "--config", str(small_config), "--seed", "7",
                    "--output-dir", str(b)]) == EXIT_OK
    assert run_tree(a) == run_tree(b)
    out = capsys.readouterr().out
    assert "run complete" in out


def test_simulate_different_seed_changes_results(tmp_path, small_config):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "--config", str(small_config), "--seed", "7", "--output-dir", str(a)])
    run_cli(["simulate", "--config", str(small_config), "--seed", "8", "--output-dir", str(b)])
    assert run_tree(a) != run_tree(b)


def test_shared_cache_dir_does_not_replay_one_seed_into_another(tmp_path, small_config, monkeypatch):
    def simulate(seed, out, cache_dir):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / cache_dir))
        assert run_cli(["simulate", "--config", str(small_config), "--seed", seed,
                        "--output-dir", str(tmp_path / out)]) == EXIT_OK
        return run_tree(tmp_path / out)

    clean = simulate("8", "clean8", "clean_cache")
    simulate("7", "shared7", "shared_cache")
    shared = simulate("8", "shared8", "shared_cache")
    assert shared["probe.json"] == clean["probe.json"]
    assert shared == clean


def test_simulate_refuses_existing_dir_without_overwrite(tmp_path, small_config, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_OK
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    assert "--overwrite" in capsys.readouterr().err
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir),
                    "--overwrite"]) == EXIT_OK


def test_score_prints_word_share(tmp_path, capsys):
    answer = tmp_path / "answer.txt"
    answer.write_text("A is B [1]. C is D [2].")
    assert run_cli(["score", "--answer", str(answer), "--sources", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 sentences" in out
    lines = [l for l in out.splitlines() if l.startswith("1 ")]
    assert lines and "50.00" in lines[0]


def test_score_missing_file_is_validation_error(tmp_path, capsys):
    assert run_cli(["score", "--answer", str(tmp_path / "none.txt"), "--sources", "2"]) == EXIT_VALIDATION


@pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"Caf\xe9 [1]."), lambda p: p.mkdir()],
                         ids=["not-utf8", "directory"])
def test_score_reports_an_unreadable_answer_file_without_a_traceback(tmp_path, capsys, make):
    answer = tmp_path / "answer.txt"
    make(answer)
    assert run_cli(["score", "--answer", str(answer), "--sources", "2"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read answer file {answer}: ") and err.count("\n") == 1


def test_ablate_unknown_feature_lists_keys(tmp_path, small_config, capsys):
    code = run_cli(["ablate", "--config", str(small_config), "--feature", "wrongness",
                    "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "statistics_level" in err and "fluency_level" in err


def test_ablate_single_feature_prints_delta(tmp_path, small_config, capsys):
    code = run_cli(["ablate", "--config", str(small_config), "--feature", "statistics_level",
                    "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "statistics_level" in out
    baseline, ablated = (json.loads((tmp_path / "out" / name / "manifest.json").read_text())["config"]
                         for name in ("baseline", "ablate_statistics_level"))
    assert "frozen_features" not in baseline
    assert ablated.pop("frozen_features") == {"statistics_level": 0.0} and ablated == baseline


def test_ablate_all_runs_one_baseline_then_each_feature_in_catalog_order(tmp_path, small_config, monkeypatch,
                                                                         capsys):
    run_dirs, run = [], pipeline.run_optimization
    monkeypatch.setattr(pipeline, "run_optimization",
                        lambda cfg, **kw: run_dirs.append(kw["run_dir"]) or run(cfg, **kw))
    out_dir = tmp_path / "out"
    assert run_cli(["ablate", "--config", str(small_config), "--all", "--output-dir", str(out_dir)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    keys = list(catalog_default().keys())
    assert len(rows) == 13 and [row.split()[0] for row in rows] == keys
    assert len({row.split()[1] for row in rows}) == 1  # one baseline visibility, shared by every row
    expected = [out_dir / "baseline", *(out_dir / f"ablate_{key}" for key in keys)]
    assert run_dirs == expected
    assert sorted(out_dir.iterdir()) == sorted(expected)
    assert all((run_dir / "manifest.json").exists() for run_dir in expected)


def test_ablate_marks_failed_runs_and_exits_with_engine_status(tmp_path, small_config, monkeypatch, capsys):
    complete = SimBackend.complete

    def failing_answers(self, request):
        if request.role is Role.ANSWER_GEN and request.payload["salt"] != "probe":
            raise EngineError("answer backend down")
        return complete(self, request)

    monkeypatch.setattr(SimBackend, "complete", failing_answers)
    code = run_cli(["ablate", "--config", str(small_config), "--feature", "statistics_level",
                    "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_ENGINE
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "runs"
    assert row.split()[0] == "statistics_level" and row.split()[-1] == "failed/failed"


def test_probe_writes_probe_file(tmp_path, small_config, capsys):
    out_dir = tmp_path / "probe_out"
    assert run_cli(["probe", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_OK
    data = json.loads((out_dir / "probe.json").read_text())
    assert len(data["queries"]) == 2
    assert data["exemplar_ids"]


@pytest.mark.parametrize("edit, key", [
    (lambda raw: {**raw, "ga": {**raw["ga"], "populaton_size": 4}}, "unknown config key ga.populaton_size"),
    (lambda raw: {**raw, "eval_worker": 4}, "unknown config key eval_worker"),
    (lambda raw: {**raw, "ga": {**raw["ga"], "population_size": "4"}}, "ga.population_size must be an integer"),
    (lambda raw: {**raw, "query_count": "five"}, "query_count must be an integer"),
    (lambda raw: {**raw, "query_count": True}, "query_count must be an integer"),
    (lambda raw: {**raw, "regenerate_page_per_repeat": "false"}, "regenerate_page_per_repeat must be true or false"),
    (lambda raw: {**raw, "competitor_docs": raw["competitor_docs"][0]}, "competitor_docs must be a list"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "competitor_vectors": [["a"] * 13]}},
     "sim.competitor_vectors[0][0] must be a number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "competitor_vectors": [[1.0] * 12] + raw["sim"]["competitor_vectors"][1:]}},
     "sim.competitor_vectors[0]: feature vector must hold 13 values, got 12"),
    (lambda raw: {**raw, "sim": {k: v for k, v in raw["sim"].items() if k != "seed"}}, "missing config key sim.seed"),
    (lambda raw: {**raw, "ga": [1, 2]}, "config ga must be a JSON object"),
    (lambda raw: [raw], "config file must be a JSON object"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "tradeoff_strength": float("nan")}},
     "sim.tradeoff_strength must be a finite number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "noise_scale": float("inf")}},
     "sim.noise_scale must be a finite number"),
    (lambda raw: {**raw, "ga": {**raw["ga"], "mutation_sigma": float("nan")}},
     "ga.mutation_sigma must be a finite number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "visibility_weights": [-float("inf")] + raw["sim"]["visibility_weights"][1:]}},
     "sim.visibility_weights[0] must be a finite number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "competitor_vectors": raw["sim"]["competitor_vectors"][:1]
                                 + [[float("nan")] * 13] + raw["sim"]["competitor_vectors"][2:]}},
     "sim.competitor_vectors[1][0] must be a finite number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "visibility_bias": 10**400}},
     "sim.visibility_bias must be a finite number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "visibility_weights": [10**400] + raw["sim"]["visibility_weights"][1:]}},
     "sim.visibility_weights[0] must be a finite number"),
    (lambda raw: {**raw, "ga": {**raw["ga"], "mutation_sigma": -10**400}},
     "ga.mutation_sigma must be a finite number"),
    (lambda raw: {**raw, "ga": {**raw["ga"], "seed": -1}}, "GA seed must be >= 0, got -1"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "seed": -1}}, "sim seed must be >= 0, got -1"),
    (lambda raw: {**raw, "topic": "  "}, "run config needs a topic label"),
    (lambda raw: {**raw, "query_count": 0}, "query count must be >= 1, got 0"),
    (lambda raw: {**raw, "exemplar_count": 0}, "exemplar count must be >= 1, got 0"),
    (lambda raw: {**raw, "advertiser_position": "middle"}, "advertiser position must be 'first' or 'last', got 'middle'"),
    (lambda raw: {**raw, "judge_target": "both"}, "judge target must be 'answer' or 'page', got 'both'"),
    (lambda raw: {**raw, "eval_workers": 0}, "eval workers must be >= 1, got 0"),
    (lambda raw: {**raw, "competitor_docs": []}, "run config needs at least one competitor document"),
], ids=["unknown-section-key", "unknown-key", "string-int", "string-count", "bool-int", "string-bool",
        "string-list", "string-float", "short-vector", "missing-key", "list-section",
        "list-file", "nan-scalar", "infinite-scalar", "nan-sigma", "infinite-weight", "nan-vector",
        "huge-int-scalar", "huge-int-weight", "huge-negative-int-sigma", "negative-ga-seed", "negative-sim-seed",
        "blank-topic", "zero-queries", "zero-exemplars", "unknown-position", "unknown-judge-target",
        "zero-workers", "no-docs"])
def test_malformed_config_exits_with_validation_status_naming_the_key(tmp_path, small_config, capsys, edit, key):
    small_config.write_text(json.dumps(edit(json.loads(small_config.read_text()))))
    out_dir = tmp_path / "probe_out"
    assert run_cli(["probe", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and err.count("\n") == 1  # one line, no traceback
    assert not out_dir.exists()


def test_a_negative_seed_flag_exits_with_validation_status_before_the_run_directory(tmp_path, small_config, capsys):
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(small_config), "--seed", "-1", "--output-dir", str(out_dir)]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0, got -1" in err and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("over_a_finished_run", [False, True], ids=["fresh", "finished"])
@pytest.mark.parametrize("make, reason", [
    (lambda path: None, f"cannot read competitor document {{}}: [Errno {errno.ENOENT}] "),
    (lambda path: path.mkdir(), f"cannot read competitor document {{}}: [Errno {errno.EISDIR}] "),
    (lambda path: path.write_text(""), "competitor document {} is empty"),
    (lambda path: path.write_bytes(b"Caf\xe9 meal plans for busy weeks.\n"),
     "cannot read competitor document {}: 'utf-8' codec "),
], ids=["missing", "directory", "empty", "non-utf8"])
def test_an_unreadable_competitor_document_exits_with_validation_status_naming_it(
    tmp_path, small_config, request, capsys, make, reason, over_a_finished_run
):
    """A document is read before the run's first write: a fresh directory is not made, a finished run stays intact."""
    finished = request.getfixturevalue("run_dir") if over_a_finished_run else None
    before = run_tree(finished) if finished else {}
    good = small_config.read_text()
    raw = json.loads(good)
    bad = tmp_path / "bad.txt"
    make(bad)
    raw["competitor_docs"][2] = str(bad)
    small_config.write_text(json.dumps(raw))
    capsys.readouterr()
    for command in ("probe", "optimize"):
        out_dir = finished or tmp_path / command
        args = [command, "--config", str(small_config), "--output-dir", str(out_dir), "--overwrite"]
        assert run_cli(args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: " + reason.format(bad)) and err.count("\n") == 1
        assert run_tree(out_dir) == before
        assert finished or not out_dir.exists()
    if finished:  # the finished run is still vouched for by its manifest
        assert run_cli(["report", str(finished), "--overwrite"]) == EXIT_OK
        assert run_tree(finished) == before
    else:  # the mended run needs no --overwrite where the failed one left nothing
        small_config.write_text(good)
        assert run_cli(["probe", "--config", str(small_config), "--output-dir", str(tmp_path / "probe")]) == EXIT_OK


@pytest.mark.parametrize("over_a_finished_run", [False, True], ids=["fresh", "finished"])
@pytest.mark.parametrize("spoil, reason", [
    ("string-value", "feature profile statistics_level must be a number, got '1.5'"),
    ("no-vector", "document 6 has no embedded feature profile and no configured latent vector"),
], ids=["string-value", "no-vector"])
def test_a_competitor_document_without_a_latent_vector_exits_with_validation_status_before_any_write(
    tmp_path, small_config, request, capsys, spoil, reason, over_a_finished_run
):
    """Under the sim, each document's latent vector is found before the run's first write."""
    finished = request.getfixturevalue("run_dir") if over_a_finished_run else None
    before = run_tree(finished) if finished else {}
    raw = json.loads(small_config.read_text())
    bad = tmp_path / "bad.txt"
    if spoil == "string-value":
        text = Path(raw["competitor_docs"][0]).read_text()
        bad.write_text(text.replace('"statistics_level": 1.2,', '"statistics_level": "1.5",', 1))
        raw["competitor_docs"][0] = str(bad)
    else:  # a sixth document: no profile line, and competitor_vectors holds five
        bad.write_text("Meal plans for busy weeks, with no profile line.\n")
        raw["competitor_docs"].append(str(bad))
    small_config.write_text(json.dumps(raw))
    capsys.readouterr()
    for command in ("probe", "optimize"):
        out_dir = finished or tmp_path / command
        args = [command, "--config", str(small_config), "--output-dir", str(out_dir), "--overwrite"]
        assert run_cli(args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {reason}\n"
        assert run_tree(out_dir) == before
        assert finished or not out_dir.exists()


@pytest.mark.parametrize("spoil, message", [
    ("config-key", "error: unknown config key query_cnt\n"),
    ("cache-line", "error: response cache {cache} line 1 is corrupt: "),
    ("live-env", f"error: live backend needs {ENV_BASE_URL} and {ENV_MODEL} set in the environment\n"),
], ids=["config-key", "cache-line", "live-env"])
def test_an_input_error_over_a_finished_run_exits_with_validation_status_and_leaves_it_as_it_was(
    run_dir, small_config, tmp_path, monkeypatch, capsys, spoil, message
):
    before = run_tree(run_dir)
    cache = tmp_path / "cache" / "responses.jsonl"
    flags, overrides = [], {}
    if spoil == "config-key":
        small_config.write_text(json.dumps({**json.loads(small_config.read_text()), "query_cnt": 2}))
    elif spoil == "cache-line":
        cache.parent.mkdir()
        cache.write_text("not json\n")
        monkeypatch.setenv(ENV_CACHE_DIR, str(cache.parent))
    else:
        monkeypatch.delenv(ENV_BASE_URL, raising=False)
        flags, overrides = ["--backend", "live"], {"backend": "live"}
    capsys.readouterr()
    args = ["optimize", "--config", str(small_config), "--output-dir", str(run_dir), "--overwrite", *flags]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(message.format(cache=cache)) and err.count("\n") == 1
    assert run_tree(run_dir) == before
    if spoil != "config-key":  # the Python API raises the same error and writes nothing either
        cfg = pipeline.RunConfig.from_file(small_config, output_dir=run_dir, **overrides)
        with pytest.raises(ValidationError, match=re.escape(err[len("error: "):].strip())):
            pipeline.run_optimization(cfg)
        assert run_tree(run_dir) == before


def test_report_reexports_and_respects_overwrite(tmp_path, small_config, capsys):
    out_dir = tmp_path / "run"
    run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)])
    before = run_tree(out_dir / "report")
    assert run_cli(["report", str(out_dir)]) == EXIT_VALIDATION  # report already present
    assert run_cli(["report", str(out_dir), "--overwrite"]) == EXIT_OK
    assert run_tree(out_dir / "report") == before


def test_probe_file_matches_the_run_record_for_a_non_ascii_topic(tmp_path, small_config):
    raw = json.loads(small_config.read_text())
    raw["topic"] = "Café meal prep für Anfänger"
    small_config.write_text(json.dumps(raw))
    probe_dir, run_dir = tmp_path / "probe_out", tmp_path / "run"
    assert run_cli(["probe", "--config", str(small_config), "--output-dir", str(probe_dir)]) == EXIT_OK
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(run_dir)]) == EXIT_OK
    probe_bytes = (probe_dir / "probe.json").read_bytes()
    assert "Café meal prep für Anfänger".encode("utf-8") in probe_bytes
    assert probe_bytes == (run_dir / "probe.json").read_bytes()


@pytest.fixture()
def run_dir(tmp_path, small_config):
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_OK
    return out_dir


def test_failing_report_creates_no_report_file(run_dir, capsys):
    for p in (run_dir / "report").iterdir():
        p.unlink()
    (run_dir / "final_solutions.json").write_text("{}\n")
    assert run_cli(["report", str(run_dir)]) == EXIT_VALIDATION
    assert run_tree(run_dir / "report") == {}


def test_a_corrupt_record_beside_a_report_exits_by_its_own_error_without_overwrite(run_dir, capsys):
    (run_dir / "final_solutions.json").write_text("{}\n")
    before = run_tree(run_dir / "report")
    assert run_cli(["report", str(run_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot read record file {run_dir / 'final_solutions.json'}")
    assert run_tree(run_dir / "report") == before


@pytest.mark.parametrize("tamper", ["entry", "totals"])
def test_report_rejects_tampered_ledger_and_changes_no_report_file(run_dir, tamper, capsys):
    cost_path = run_dir / "cost.json"
    cost = json.loads(cost_path.read_text())
    if tamper == "entry":
        entry = next(iter(cost["entries"].values()))
        entry["wall_time"] += 1.0
    else:
        cost["totals"]["api_calls"] += 1
    cost_path.write_text(json.dumps(cost) + "\n")
    for p in (run_dir / "report").iterdir():
        p.write_text("stale\n")
    before = run_tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_INTEGRITY
    assert "integrity error" in capsys.readouterr().err
    assert run_tree(run_dir / "report") == before


def keep_first_lines(count):
    def cut(path):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:count]))
    return cut


@pytest.mark.parametrize("name, damage", [
    ("generations.jsonl", keep_first_lines(10)),
    ("eval_metrics.jsonl", keep_first_lines(1)),
    ("eval_metrics.jsonl", lambda path: path.unlink()),
], ids=["generations-first-10-lines", "eval-metrics-first-line", "eval-metrics-deleted"])
def test_report_rejects_a_record_file_that_differs_from_its_manifest_digest(run_dir, capsys, name, damage):
    damage(run_dir / name)
    for p in (run_dir / "report").iterdir():
        p.write_text("stale\n")
    before = run_tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert "integrity error" in err and name in err
    assert run_tree(run_dir / "report") == before


def truncate(path):
    path.write_text(path.read_text()[:40])


def drop_totals(path):
    cost = json.loads(path.read_text())
    del cost["totals"]
    path.write_text(json.dumps(cost) + "\n")


def infinite_wall_time(path):
    cost = json.loads(path.read_text())
    next(iter(cost["entries"].values()))["wall_time"] = float("inf")
    path.write_text(json.dumps(cost) + "\n")


def drop_features(path):
    finals = json.loads(path.read_text())
    del finals["max_quality"]["features"]
    path.write_text(json.dumps(finals) + "\n")


def non_numeric_visibility(path):
    finals = json.loads(path.read_text())
    finals["max_quality"]["visibility"] = "high"
    path.write_text(json.dumps(finals) + "\n")


def drop_quality(path):
    path.write_text("".join(line.replace('"quality"', '"q"', 1) + "\n"
                            for line in path.read_text().splitlines()))


@pytest.mark.parametrize("name, damage", [
    ("final_solutions.json", truncate),
    ("final_solutions.json", drop_features),
    ("final_solutions.json", non_numeric_visibility),
    ("cost.json", truncate),
    ("cost.json", drop_totals),
    ("cost.json", infinite_wall_time),
    ("pareto_front.jsonl", drop_quality),
    ("generations.jsonl", truncate),
    ("hv_trace.csv", truncate),
    ("hv_trace.csv", lambda path: path.unlink()),
])
@pytest.mark.parametrize("existing", ["none", "stale"])
def test_report_on_malformed_record_file_names_it_and_changes_no_report_file(
    run_dir, capsys, name, damage, existing
):
    damage(run_dir / name)
    for p in (run_dir / "report").iterdir():
        if existing == "none":
            p.unlink()
        else:
            p.write_text("stale\n")
    before = run_tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_VALIDATION
    assert name in capsys.readouterr().err
    assert run_tree(run_dir / "report") == before


def test_simulate_exits_with_validation_status_when_the_evaluator_returns_nan(
    tmp_path, small_config, monkeypatch, capsys
):
    monkeypatch.setattr(CandidateEvaluator, "evaluate_batch", lambda self, units: [(float("nan"), 0.0)] * len(units))
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "non-finite objectives" in err and "engine error" not in err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "non-finite objectives" in manifest["error"]


@pytest.mark.parametrize("failing, status, code", [
    (("rep1",), "degraded", EXIT_OK),
    (("rep0", "rep1"), "failed", EXIT_ENGINE),
])
def test_simulate_prints_the_run_status_and_exits_by_it(tmp_path, small_config, monkeypatch, capsys,
                                                          failing, status, code):
    complete = SimBackend.complete

    def failing_answers(self, request):
        if request.role is Role.ANSWER_GEN and request.payload["salt"] in failing:
            raise EngineError("answer backend down")
        return complete(self, request)

    monkeypatch.setattr(SimBackend, "complete", failing_answers)
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == f"run {status}: {out_dir}"
    assert "evaluations failed" in captured.err
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == status
    assert run_cli(["report", str(out_dir), "--overwrite"]) == EXIT_OK


def test_evolve_abort_from_an_internal_bug_propagates_as_itself(tmp_path, small_config, monkeypatch):
    def broken(self, units):
        raise ZeroDivisionError("internal bug")

    monkeypatch.setattr(CandidateEvaluator, "evaluate_batch", broken)
    with pytest.raises(ZeroDivisionError, match="internal bug"):
        run_cli(["simulate", "--config", str(small_config), "--output-dir", str(tmp_path / "run")])
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_a_page_that_fails_for_a_whole_slot_degrades_the_run(tmp_path, small_config, monkeypatch, capsys):
    complete, first = SimBackend.complete, {}

    def first_page_always_fails(self, request):
        if request.role is Role.PAGE_GEN and first.setdefault("prompt", request.prompt) == request.prompt:
            raise EngineError("page backend down")
        return complete(self, request)

    monkeypatch.setattr(SimBackend, "complete", first_page_always_fails)
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == f"run degraded: {out_dir}"
    metrics = [json.loads(line) for line in (out_dir / "eval_metrics.jsonl").read_text().splitlines()]
    assert [(m["slot"], m["repeat"]) for m in metrics if m["failed"] and m["generation"] == 0] == [(0, 0), (0, 1)]


@pytest.mark.parametrize("empty_replies, status, failed", [
    (1, "complete", 0),  # the empty answer is asked for again
    (EngineClient.retry_limit, "degraded", 1),  # every reply to one unit's first answer is empty
])
def test_an_empty_answer_is_asked_for_again_and_never_aborts_the_run(
    tmp_path, small_config, monkeypatch, capsys, empty_replies, status, failed
):
    small_config.write_text(json.dumps({**json.loads(small_config.read_text()), "judge_target": "answer"}))
    complete, left = SimBackend.complete, {"empty": empty_replies}

    def first_evaluation_answers_empty(self, request):
        response = complete(self, request)
        if request.role is Role.ANSWER_GEN and request.payload["salt"] != "probe" and left["empty"]:
            left["empty"] -= 1
            return dataclasses.replace(response, text=" \n")
        return response

    monkeypatch.setattr(SimBackend, "complete", first_evaluation_answers_empty)
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == f"run {status}: {out_dir}"
    metrics = [json.loads(line) for line in (out_dir / "eval_metrics.jsonl").read_text().splitlines()]
    assert [(m["generation"], m["slot"], m["repeat"]) for m in metrics if m["failed"]] == [(0, 0, 0)] * failed
    assert left["empty"] == 0


@pytest.mark.parametrize("base_url", ["http://127.0.0.1:9/v 1", "ftp//nohost"])
def test_a_malformed_live_base_url_exits_with_validation_status_before_any_request(
    tmp_path, small_config, monkeypatch, capsys, base_url
):
    def no_request(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(ChatCompletionBackend, "complete", no_request)
    monkeypatch.setenv(ENV_BASE_URL, base_url)
    monkeypatch.setenv(ENV_MODEL, "model-x")
    args = ["probe", "--config", str(small_config), "--backend", "live", "--output-dir", str(tmp_path / "probe")]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ENV_BASE_URL}: base URL {base_url!r}") and "Traceback" not in err


@pytest.mark.parametrize("command", [["simulate"], ["ablate", "--feature", "statistics_level"]], ids=["simulate", "ablate"])
@pytest.mark.parametrize("under", ["", "run"], ids=["a-file", "under-a-file"])
def test_an_output_dir_at_or_under_a_file_exits_with_validation_status_before_any_request(
    tmp_path, small_config, monkeypatch, capsys, command, under
):
    def no_request(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(SimBackend, "complete", no_request)
    (tmp_path / "file").write_text("not a directory\n")
    out_dir = tmp_path / "file" / under
    assert run_cli([*command, "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use {out_dir} as a run directory") and "Traceback" not in err


@pytest.mark.parametrize("command", [["simulate"], ["probe"]], ids=["simulate", "probe"])
@pytest.mark.parametrize("under", ["", "run"], ids=["a-dangling-link", "under-a-dangling-link"])
def test_an_output_dir_at_or_under_a_dangling_link_exits_with_validation_status_before_any_request(
    tmp_path, small_config, monkeypatch, capsys, command, under
):
    def no_request(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(SimBackend, "complete", no_request)
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    out_dir = tmp_path / "link" / under
    assert run_cli([*command, "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use {out_dir} as a run directory") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("live_via", ["flag", "config"])
def test_simulate_refuses_a_live_backend_before_the_run_directory(tmp_path, small_config, capsys, live_via):
    flags = ["--backend", "live"]
    if live_via == "config":
        small_config.write_text(json.dumps({**json.loads(small_config.read_text()), "backend": "live"}))
        flags = []
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(small_config), *flags, "--output-dir", str(out_dir)]
    assert run_cli(args) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: simulate always runs against the sim backend\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("make", [
    lambda d: (d / "responses.jsonl").mkdir(parents=True), lambda d: d.write_text("x\n"),
], ids=["cache-file-is-a-directory", "cache-dir-is-a-file"])
def test_an_unusable_response_cache_exits_with_validation_status_before_any_request(
    tmp_path, small_config, monkeypatch, capsys, make
):
    def no_request(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(SimBackend, "complete", no_request)
    cache_dir = tmp_path / "cache"
    make(cache_dir)
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache_dir))
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use {cache_dir / 'responses.jsonl'} as a response cache: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out_dir.exists()


def test_a_cached_reply_whose_text_is_not_a_string_exits_with_validation_status_before_any_request(
    tmp_path, small_config, monkeypatch, capsys
):
    cache = tmp_path / "cache" / "responses.jsonl"
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache.parent))
    args = ["simulate", "--config", str(small_config), "--output-dir", str(tmp_path / "run"), "--overwrite"]
    assert run_cli(args) == EXIT_OK
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    number = next(i for i, r in enumerate(records, start=1) if r["role"] == Role.ANSWER_GEN.value)
    records[number - 1]["response"]["text"] = 5
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()

    def no_request(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(SimBackend, "complete", no_request)
    assert run_cli(args) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: response cache {cache} line {number} is corrupt: response.text must be a string, got 5\n"
    )


@pytest.mark.parametrize("command", [["report"], ["simulate", "--overwrite"]], ids=["report", "simulate"])
def test_a_report_directory_that_is_a_file_exits_with_validation_status_and_keeps_the_record(
    run_dir, small_config, capsys, command
):
    shutil.rmtree(run_dir / "report")
    (run_dir / "report").write_text("not a directory\n")
    before = run_tree(run_dir)
    args = [str(run_dir)] if command == ["report"] else ["--config", str(small_config), "--output-dir", str(run_dir)]
    assert run_cli([*command, *args]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {run_dir / 'report' / 'metrics_table.txt'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert run_tree(run_dir) == before


def fail_theme_extraction(monkeypatch):
    """Make the sim backend fail the run's first call, its theme extraction, with an EngineError."""
    complete = SimBackend.complete

    def theme_extraction_down(self, request):
        if request.role is Role.THEME_EXTRACT:
            raise EngineError("theme extraction backend down")
        return complete(self, request)

    monkeypatch.setattr(SimBackend, "complete", theme_extraction_down)


def test_a_failed_rerun_beside_a_report_file_exits_by_its_own_error(run_dir, small_config, monkeypatch, capsys):
    shutil.rmtree(run_dir / "report")
    (run_dir / "report").write_text("not a directory\n")
    fail_theme_extraction(monkeypatch)
    args = ["simulate", "--config", str(small_config), "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_ENGINE
    assert capsys.readouterr().err == "engine error: theme extraction backend down\n"
    assert (run_dir / "report").read_text() == "not a directory\n"
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"


def test_a_failed_rerun_leaves_no_report_of_the_earlier_run(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "run"
    args = ["simulate", "--config", str(default_sim_config_path()), "--seed", "7", "--output-dir", str(out_dir)]
    assert run_cli(args) == EXIT_OK
    assert (out_dir / "report" / "solution_comparison.txt").exists()
    fail_theme_extraction(monkeypatch)
    assert run_cli(args + ["--overwrite"]) == EXIT_ENGINE
    assert not (out_dir / "report" / "solution_comparison.txt").exists()
    assert run_tree(out_dir / "report") == {}
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"


def report_files(run_dir):
    return sorted(p.name for p in (run_dir / "report").iterdir() if p.is_file())


def test_a_report_write_that_fails_part_way_leaves_no_report_file(run_dir, capsys):
    shutil.rmtree(run_dir / "report")
    (run_dir / "report" / "pareto_scatter.csv").mkdir(parents=True)
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {run_dir / 'report' / 'pareto_scatter.csv'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert report_files(run_dir) == []


@pytest.mark.parametrize("command, name", [
    (["simulate"], "cost.json"), (["probe"], "probe.json"),
], ids=["simulate-cost", "probe-probe"])
def test_an_unwritable_record_file_exits_with_validation_status(run_dir, small_config, capsys, command, name):
    (run_dir / name).unlink()
    (run_dir / name).mkdir()
    args = [*command, "--config", str(small_config), "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {run_dir / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_failed_record_write_at_the_end_of_a_run_leaves_no_report_of_the_earlier_run(
    run_dir, small_config, capsys
):
    assert len(report_files(run_dir)) == 5
    (run_dir / "manifest.json").unlink()
    (run_dir / "manifest.json").mkdir()
    args = ["simulate", "--config", str(small_config), "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_VALIDATION
    assert f"cannot write {run_dir / 'manifest.json'}: " in capsys.readouterr().err
    assert report_files(run_dir) == []


def test_a_record_rewrite_that_fails_leaves_no_manifest_of_the_earlier_run(run_dir, small_config, capsys):
    (run_dir / "cost.json").unlink()
    (run_dir / "cost.json").mkdir()
    args = ["simulate", "--config", str(small_config), "--seed", "8", "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {run_dir / 'cost.json'}: ") and err.count("\n") == 1
    assert not (run_dir / "manifest.json").exists()
    assert report_files(run_dir) == []


def test_a_run_that_fails_before_its_probe_beside_a_probe_directory_exits_by_its_own_error(
    run_dir, small_config, monkeypatch, capsys
):
    (run_dir / "probe.json").unlink()
    (run_dir / "probe.json").mkdir()
    fail_theme_extraction(monkeypatch)
    args = ["simulate", "--config", str(small_config), "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_ENGINE
    assert capsys.readouterr().err == "engine error: theme extraction backend down\n"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed" and "probe.json" not in manifest["artifacts"]


def test_a_probe_over_a_finished_run_withdraws_its_manifest_and_report(run_dir, small_config, capsys):
    args = ["probe", "--config", str(small_config), "--seed", "8", "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_OK
    assert not (run_dir / "manifest.json").exists()
    assert report_files(run_dir) == []
    capsys.readouterr()
    assert run_cli(["report", str(run_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read record file {run_dir / 'manifest.json'}") and err.count("\n") == 1


def test_a_manifest_that_cannot_be_removed_exits_with_validation_status_before_any_record_write(
    run_dir, small_config, monkeypatch, capsys
):
    before = run_tree(run_dir)
    real_unlink = Path.unlink

    def unlink(self, *args, **kwargs):
        if self.name == "manifest.json":
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", unlink)
    args = ["simulate", "--config", str(small_config), "--seed", "8", "--output-dir", str(run_dir), "--overwrite"]
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot remove {run_dir / 'manifest.json'}: ") and err.count("\n") == 1
    assert run_tree(run_dir) == before


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("appends", [3, 50], ids=["probe", "evaluation"])
def test_an_unwritable_response_cache_exits_with_validation_status(
    tmp_path, small_config, monkeypatch, capsys, workers, appends
):
    small_config.write_text(json.dumps({**json.loads(small_config.read_text()), "eval_workers": workers}))
    real_open = Path.open
    count = 0

    def open_(self, mode="r", *args, **kwargs):
        nonlocal count
        if mode == "a":
            count += 1
            if count > appends:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)
    cache = tmp_path / "cache" / "responses.jsonl"
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache.parent))
    out_dir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    reason = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(cache))
    assert err == f"error: cannot write the response cache {cache}: {reason}\n"
    assert cache.read_text().count("\n") == appends
    assert (out_dir / "probe.json").exists() == (appends == 50)
    assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"


def test_report_on_non_run_dir_fails(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path)]) == EXIT_VALIDATION


def test_usage_errors_exit_with_validation_status(capsys):
    assert run_cli(["optimize"]) == EXIT_VALIDATION  # missing --config
    assert run_cli(["nonsense"]) == EXIT_VALIDATION
    assert run_cli(["ablate", "--config", "x.json"]) == EXIT_VALIDATION  # needs --feature/--all


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    assert run_cli(["optimize", "--config", str(tmp_path / "none.json")]) == EXIT_VALIDATION


def test_unreadable_config_file_is_validation_error(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"topic": "caf\xe9"}')
    for config in (tmp_path, not_utf8):
        assert run_cli(["probe", "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {config}")


def test_optimize_policy_flag(tmp_path, small_config, capsys):
    code = run_cli(["optimize", "--config", str(small_config), "--policy", "max_quality",
                    "--output-dir", str(tmp_path / "run")])
    assert code == EXIT_OK
    assert "max_quality" in capsys.readouterr().out
