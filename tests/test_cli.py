import json
import os
from pathlib import Path

import pytest

from featgeo.cli import EXIT_INTEGRITY, EXIT_OK, EXIT_VALIDATION, run_cli
from featgeo.bundled import default_sim_config_path
from featgeo.pipeline import CandidateEvaluator


@pytest.fixture()
def small_config(tmp_path):
    """Bundled sim config shrunk for fast CLI runs."""
    raw = json.loads(default_sim_config_path().read_text())
    docs_dir = default_sim_config_path().parent / "docs"
    raw["competitor_docs"] = [str(docs_dir / f"competitor{i}.txt") for i in range(1, 6)]
    raw["ga"].update(population_size=4, generations=2, repeats_per_eval=2)
    raw["query_count"] = 2
    raw["output_dir"] = str(tmp_path / "default_out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def tree(run_dir):
    out = {}
    for root, _, files in os.walk(run_dir):
        for f in files:
            p = Path(root) / f
            out[str(p.relative_to(run_dir))] = p.read_bytes()
    return out


def test_simulate_replay_produces_identical_run_directories(tmp_path, small_config, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", str(small_config), "--seed", "7",
                    "--output-dir", str(a)]) == EXIT_OK
    assert run_cli(["simulate", "--config", str(small_config), "--seed", "7",
                    "--output-dir", str(b)]) == EXIT_OK
    assert tree(a) == tree(b)
    out = capsys.readouterr().out
    assert "run complete" in out


def test_simulate_different_seed_changes_results(tmp_path, small_config):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "--config", str(small_config), "--seed", "7", "--output-dir", str(a)])
    run_cli(["simulate", "--config", str(small_config), "--seed", "8", "--output-dir", str(b)])
    assert tree(a) != tree(b)


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
    assert (tmp_path / "out" / "baseline" / "manifest.json").exists()
    assert (tmp_path / "out" / "ablate_statistics_level" / "manifest.json").exists()


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
    (lambda raw: {**raw, "competitor_docs": [str(Path(raw["competitor_docs"][0]).parent)]},
     "competitor document is not an existing file"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "competitor_vectors": [["a"] * 13]}},
     "sim.competitor_vectors[0][0] must be a number"),
    (lambda raw: {**raw, "sim": {**raw["sim"], "competitor_vectors": [[1.0] * 12] + raw["sim"]["competitor_vectors"][1:]}},
     "sim.competitor_vectors[0]: feature vector must hold 13 values, got 12"),
    (lambda raw: {**raw, "sim": {k: v for k, v in raw["sim"].items() if k != "seed"}}, "missing config key sim.seed"),
    (lambda raw: {**raw, "ga": [1, 2]}, "config ga must be a JSON object"),
    (lambda raw: [raw], "config file must be a JSON object"),
], ids=["unknown-section-key", "unknown-key", "string-int", "string-count", "bool-int", "string-bool",
        "string-list", "directory-doc", "string-float", "short-vector", "missing-key", "list-section",
        "list-file"])
def test_malformed_config_exits_with_validation_status_naming_the_key(tmp_path, small_config, capsys, edit, key):
    small_config.write_text(json.dumps(edit(json.loads(small_config.read_text()))))
    out_dir = tmp_path / "probe_out"
    assert run_cli(["probe", "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and err.count("\n") == 1  # one line, no traceback
    assert not out_dir.exists()


def test_non_utf8_competitor_document_exits_with_validation_status_naming_it(tmp_path, small_config, capsys):
    raw = json.loads(small_config.read_text())
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"Caf\xe9 meal plans for busy weeks.\n")
    raw["competitor_docs"][2] = str(latin1)
    small_config.write_text(json.dumps(raw))
    for command in ("probe", "optimize"):
        out_dir = tmp_path / command
        assert run_cli([command, "--config", str(small_config), "--output-dir", str(out_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: competitor document {latin1} is not UTF-8 text") and err.count("\n") == 1


def test_report_reexports_and_respects_overwrite(tmp_path, small_config, capsys):
    out_dir = tmp_path / "run"
    run_cli(["simulate", "--config", str(small_config), "--output-dir", str(out_dir)])
    before = tree(out_dir / "report")
    assert run_cli(["report", str(out_dir)]) == EXIT_VALIDATION  # report already present
    assert run_cli(["report", str(out_dir), "--overwrite"]) == EXIT_OK
    assert tree(out_dir / "report") == before


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
    assert tree(run_dir / "report") == {}


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
    before = tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_INTEGRITY
    assert "integrity error" in capsys.readouterr().err
    assert tree(run_dir / "report") == before


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
    before = tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert "integrity error" in err and name in err
    assert tree(run_dir / "report") == before


def truncate(path):
    path.write_text(path.read_text()[:40])


def drop_totals(path):
    cost = json.loads(path.read_text())
    del cost["totals"]
    path.write_text(json.dumps(cost) + "\n")


def drop_features(path):
    finals = json.loads(path.read_text())
    del finals["max_quality"]["features"]
    path.write_text(json.dumps(finals) + "\n")


def drop_quality(path):
    path.write_text("".join(line.replace('"quality"', '"q"', 1) + "\n"
                            for line in path.read_text().splitlines()))


@pytest.mark.parametrize("name, damage", [
    ("final_solutions.json", truncate),
    ("final_solutions.json", drop_features),
    ("cost.json", truncate),
    ("cost.json", drop_totals),
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
    before = tree(run_dir / "report")
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_VALIDATION
    assert name in capsys.readouterr().err
    assert tree(run_dir / "report") == before


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


def test_evolve_abort_from_an_internal_bug_propagates_as_itself(tmp_path, small_config, monkeypatch):
    def broken(self, units):
        raise ZeroDivisionError("internal bug")

    monkeypatch.setattr(CandidateEvaluator, "evaluate_batch", broken)
    with pytest.raises(ZeroDivisionError, match="internal bug"):
        run_cli(["simulate", "--config", str(small_config), "--output-dir", str(tmp_path / "run")])
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


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
