"""The one strict reader: every JSON value the program reads back (the config, the response cache, cost.json,
the record files and the manifest) is refused, with its location, when its JSON type is not the declared one."""

import dataclasses
import json
import math
import shutil

import pytest

from featgeo.cli import EXIT_ENGINE, EXIT_OK, EXIT_VALIDATION, run_cli
from featgeo.engine.cache import ENV_CACHE_DIR, ResponseCache
from featgeo.engine.types import EngineResponse, Role
from featgeo.errors import EngineError
from featgeo.sim import SimBackend
from conftest import run_tree
from test_cli import write_small_config

CACHE = "cache"  # rows that corrupt the response cache; the others corrupt a run-directory file


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small finished run directory and the response cache it filled, copied by each test that edits them."""
    base = tmp_path_factory.mktemp("pristine")
    config = write_small_config(base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_CACHE_DIR, str(base / "cache"))
        assert run_cli(["simulate", "--config", str(config), "--output-dir", str(base / "run")]) == EXIT_OK
    return base


def edit_json(name, change):
    def edit(path):
        value = json.loads(path.read_text())
        change(value)
        path.write_text(json.dumps(value) + "\n")
    return name, edit


def edit_first_row(name, change):
    def edit(path):
        first, *rest = path.read_text().splitlines(keepends=True)
        row = json.loads(first)
        change(row)
        path.write_text(json.dumps(row) + "\n" + "".join(rest))
    return name, edit


def cache_field(field, value):
    return edit_first_row(CACHE, lambda record: record["response"].__setitem__(field, value))


def trace_cell(column, value):
    def edit(path):
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = value
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return "hv_trace.csv", edit


def put(key, value):
    """Set ``value`` at the dotted path ``key`` of a JSON object."""
    def change(obj):
        *parents, last = key.split(".")
        for part in parents:
            obj = obj[part]
        obj[last] = value
    return change


QUERY_GEN_ENTRY = "entries.Feature Extraction/QueryGen"

ROWS = [
    pytest.param(cache_field("prompt_tokens", "12"), "response.prompt_tokens must be an integer, got '12'",
                 id="cache-string-count"),
    pytest.param(cache_field("completion_tokens", 7.9), "response.completion_tokens must be an integer, got 7.9",
                 id="cache-fractional-count"),
    pytest.param(cache_field("usage_estimated", "false"), "response.usage_estimated must be true or false, got 'false'",
                 id="cache-string-bool"),
    pytest.param(cache_field("elapsed_seconds", math.nan), "response.elapsed_seconds must be a finite number, got nan",
                 id="cache-nan-seconds"),
    pytest.param(cache_field("text", 5), "response.text must be a string, got 5", id="cache-int-text"),
    pytest.param(edit_first_row(CACHE, put("digest", 7)), "digest must be a string, got 7", id="cache-int-digest"),
    pytest.param(edit_json("cost.json", put(f"{QUERY_GEN_ENTRY}.api_calls", "12")),
                 f"{QUERY_GEN_ENTRY}.api_calls must be an integer, got '12'", id="cost-entry-string-count"),
    pytest.param(edit_json("cost.json", put(f"{QUERY_GEN_ENTRY}.prompt_tokens", 7.9)),
                 f"{QUERY_GEN_ENTRY}.prompt_tokens must be an integer, got 7.9", id="cost-entry-fractional-count"),
    pytest.param(edit_json("cost.json", put("stages.GA Optimization.api_calls", True)),
                 "stages.GA Optimization.api_calls must be an integer, got True", id="cost-stage-bool-count"),
    pytest.param(edit_json("cost.json", put("totals.wall_time", "1.5")),
                 "totals.wall_time must be a number, got '1.5'", id="cost-totals-string-seconds"),
    pytest.param(edit_first_row("pareto_front.jsonl", put("visibility", "3.5")),
                 "line 1 visibility must be a number, got '3.5'", id="front-string-visibility"),
    pytest.param(edit_first_row("generations.jsonl", put("quality", True)),
                 "line 1 quality must be a number, got True", id="generations-bool-quality"),
    pytest.param(edit_json("final_solutions.json", put("max_quality.quality", True)),
                 "max_quality.quality must be a number, got True", id="finals-bool-quality"),
    pytest.param(edit_json("final_solutions.json", put("knee.features.statistics_level", math.nan)),
                 "knee.features.statistics_level must be a finite number, got nan", id="finals-nan-feature"),
    pytest.param(trace_cell(1, "nan"), "JSONDecodeError(", id="trace-nan-cell"),
    pytest.param(trace_cell(1, "NaN"), "line 2 hypervolume must be a finite number, got nan", id="trace-NaN-cell"),
    pytest.param(trace_cell(0, "0.0"), "line 2 generation must be an integer, got 0.0", id="trace-float-generation"),
    pytest.param(edit_json("manifest.json", lambda m: m.update(artifacts=[*map(list, m["artifacts"].items())])),
                 "artifacts must be an object, got [[", id="manifest-artifact-pairs"),
    pytest.param(edit_json("manifest.json", put("schema_version", 99)),
                 "schema_version must be one of 1, got 99", id="manifest-schema-99"),
    pytest.param(edit_json("manifest.json", put("schema_version", True)),
                 "schema_version must be an integer, got True", id="manifest-bool-schema"),
    pytest.param(edit_json("manifest.json", put("status", "done")),
                 "status must be one of 'complete', 'degraded', 'failed', got 'done'", id="manifest-unknown-status"),
    pytest.param(edit_json("manifest.json", lambda m: m["artifacts"].update({"notes.txt": "0" * 64})),
                 "artifacts key must be one of 'probe.json', 'generations.jsonl', ", id="manifest-unknown-artifact"),
    pytest.param(edit_json("manifest.json", lambda m: m["artifacts"].update({"cost.json": 5})),
                 "artifacts.cost.json must be a string, got 5", id="manifest-int-digest"),
]


@pytest.mark.parametrize("edit, message", ROWS)
def test_a_persisted_value_of_the_wrong_json_type_is_refused_with_its_location(
    pristine, tmp_path, monkeypatch, capsys, edit, message
):
    (name, change) = edit
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    run_dir, cache = tmp_path / "run", tmp_path / "cache" / "responses.jsonl"
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache.parent))
    if name == CACHE:
        change(cache)
        where = f"response cache {cache} line 1 is corrupt: "

        def no_request(self, request):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(SimBackend, "complete", no_request)
        args = ["simulate", "--config", str(tmp_path / "config.json"), "--output-dir", str(run_dir), "--overwrite"]
    else:
        change(run_dir / name)
        where = f"cannot read record file {run_dir / name}: "
        args = ["report", str(run_dir), "--overwrite"]
    before = run_tree(run_dir)
    assert run_cli(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}{message}") and err.count("\n") == 1, err
    assert run_tree(run_dir) == before


def converting_reader(data):
    """The response cache's record reader before it checked types (``EngineResponse.from_dict``), kept as the
    reference: it converted each field with ``int``, ``float`` and ``bool``."""
    if not isinstance(data["text"], str):
        raise TypeError(f"reply text is {type(data['text']).__name__}, not str")
    return EngineResponse(
        text=data["text"],
        prompt_tokens=int(data["prompt_tokens"]),
        completion_tokens=int(data["completion_tokens"]),
        usage_estimated=bool(data["usage_estimated"]),
        elapsed_seconds=float(data["elapsed_seconds"]),
    )


def test_the_cache_reader_returns_what_the_converting_reader_did_for_every_record_of_a_seed_7_run(
    tmp_path, monkeypatch, capsys
):
    cache = tmp_path / "cache" / "responses.jsonl"
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache.parent))
    assert run_cli(["simulate", "--seed", "7", "--output-dir", str(tmp_path / "run")]) == EXIT_OK
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    loaded = ResponseCache(cache)
    assert len(records) == len(loaded) > 2000
    for record in records:
        got, expected = loaded.get(record["digest"]), converting_reader(record["response"])
        assert got == expected
        assert [type(v) for v in dataclasses.astuple(got)] == [type(v) for v in dataclasses.astuple(expected)]


def test_a_run_that_failed_before_choosing_finals_has_no_report_and_says_why(tmp_path, monkeypatch, capsys):
    complete = SimBackend.complete

    def failing_queries(self, request):
        if request.role is Role.QUERY_GEN:
            raise EngineError("query backend down")
        return complete(self, request)

    monkeypatch.setattr(SimBackend, "complete", failing_queries)
    run_dir = tmp_path / "run"
    assert run_cli(["simulate", "--seed", "7", "--output-dir", str(run_dir)]) == EXIT_ENGINE
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed" and (run_dir / "final_solutions.json").read_text() == "{}\n"
    capsys.readouterr()
    assert run_cli(["report", str(run_dir), "--overwrite"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: run {run_dir} has status failed and chose no final solutions, so it has no report: "
        f"{manifest['error']}\n"
    )
    assert not (run_dir / "report").exists()
