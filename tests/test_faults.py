"""Fault injection over engine calls and run-directory writes: a run cut by a failed backend call,
by an interrupt, or by a failed write or removal, at any point leaves a run directory, a response
cache and a client that README's failure rules describe."""

import errno
import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from conftest import run_tree
from featgeo import pipeline, records
from featgeo.bundled import default_sim_config_path
from featgeo.cli import EXIT_ENGINE, EXIT_INTERRUPTED, EXIT_OK, EXIT_VALIDATION, run_cli
from featgeo.engine.cache import ResponseCache
from featgeo.engine.types import text_digest
from featgeo.errors import EngineError
from featgeo.records import file_digest
from featgeo.sim import SimBackend


def write_config(directory, workers):
    """The bundled sim config at population 4, 1 generation, 2 repeats and 2 queries, with a cache."""
    raw = json.loads(default_sim_config_path().read_text())
    docs_dir = default_sim_config_path().parent / "docs"
    raw["competitor_docs"] = [str(docs_dir / f"competitor{i}.txt") for i in range(1, 6)]
    raw["ga"].update(population_size=4, generations=1, repeats_per_eval=2)
    raw.update(query_count=2, eval_workers=workers, cache_path=str(directory / "responses.jsonl"))
    path = directory / "config.json"
    path.write_text(json.dumps(raw))
    return path


class Injector:
    """Counts the sim backend's calls and raises a fresh ``fault`` at call ``at`` (None: never).

    ``batch_ends`` holds the number of backend calls made by the time each evaluated generation's batch returned.
    """

    def __init__(self, monkeypatch, fault=None, at=None):
        self.fault, self.at = fault, at
        self.calls, self.raised, self.failed_request = 0, None, None
        self.clients, self.batch_ends = [], []
        self._lock = threading.Lock()
        complete, build_client = SimBackend.complete, pipeline.build_client
        evaluate_batch = pipeline.CandidateEvaluator.evaluate_batch

        def injecting(backend, request):
            with self._lock:
                k, self.calls = self.calls, self.calls + 1
            if k == self.at:
                self.raised, self.failed_request = self.fault(f"injected at backend call {k}"), request
                raise self.raised
            return complete(backend, request)

        def recording_build_client(cfg, catalog, docs=()):
            self.clients.append(build_client(cfg, catalog, docs))
            return self.clients[-1]

        def counting_evaluate_batch(evaluator, units):
            objectives = evaluate_batch(evaluator, units)
            self.batch_ends.append(self.calls)
            return objectives

        monkeypatch.setattr(SimBackend, "complete", injecting)
        monkeypatch.setattr(pipeline, "build_client", recording_build_client)
        monkeypatch.setattr(pipeline.CandidateEvaluator, "evaluate_batch", counting_evaluate_batch)


def cached_digests(path):
    return [json.loads(line)["digest"] for line in path.read_text().splitlines()] if path.exists() else []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault", [EngineError, RuntimeError])
def test_a_run_cut_at_any_backend_call_leaves_a_consistent_record_cache_and_client(
        tmp_path, monkeypatch, capsys, fault, workers):
    with monkeypatch.context() as patch:
        clean = Injector(patch)
        assert run_cli(["simulate", "--config", str(write_config(tmp_path, workers)),
                        "--output-dir", str(tmp_path / "clean")]) == EXIT_OK
    capsys.readouterr()
    assert clean.calls > 40
    clean_rows = (tmp_path / "clean" / "eval_metrics.jsonl").read_text().splitlines()
    generation_0_rows = sum(json.loads(row)["generation"] == 0 for row in clean_rows)
    for k in range(clean.calls):
        point = tmp_path / f"cut{k}"
        point.mkdir()
        config = write_config(point, workers)
        run_dir = point / "run"
        with monkeypatch.context() as patch:
            cut = Injector(patch, fault, k)
            if fault is EngineError:
                code = run_cli(["simulate", "--config", str(config), "--output-dir", str(run_dir)])
                assert code in (EXIT_OK, EXIT_ENGINE), k
                assert "Traceback" not in capsys.readouterr().err, k
            else:
                with pytest.raises(RuntimeError) as err:
                    run_cli(["simulate", "--config", str(config), "--output-dir", str(run_dir)])
                assert err.value is cut.raised, k
                # The aborted record keeps every evaluation that ran, in the uncut run's order.
                rows = (run_dir / "eval_metrics.jsonl").read_text().splitlines()
                assert rows == clean_rows[:len(rows)], k
                if k >= clean.batch_ends[0]:
                    assert len(rows) >= generation_0_rows, k
        assert cut.raised is not None, k

        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            for name, digest in manifest["artifacts"].items():
                assert file_digest(run_dir / name) == digest, (k, name)
            assert manifest["status"] == ("degraded" if fault is EngineError and code == EXIT_OK else "failed"), k
        else:
            assert fault is RuntimeError or code == EXIT_ENGINE, k

        cache_path = point / "responses.jsonl"
        ResponseCache(cache_path)
        (client,) = cut.clients
        failed_key = text_digest(f"{client._key_scope}\x1f{cut.failed_request.cache_key}")
        assert set(client._key_locks) <= {failed_key}, k

        stored = set(cached_digests(cache_path))
        with monkeypatch.context() as patch:
            rerun = Injector(patch)
            assert run_cli(["simulate", "--config", str(config), "--output-dir", str(point / "rerun")]) == EXIT_OK
        capsys.readouterr()
        called = cached_digests(cache_path)[len(stored):]
        assert len(called) == rerun.calls and not stored & set(called), k


@pytest.mark.parametrize("workers, every", [(1, 1), (2, 8)])
def test_an_interrupt_at_any_backend_call_exits_130_and_leaves_the_run_directory_as_it_was(
        tmp_path, monkeypatch, capsys, workers, every):
    finished = tmp_path / "finished"
    with monkeypatch.context() as patch:
        clean = Injector(patch)
        assert run_cli(["simulate", "--config", str(write_config(tmp_path, workers)),
                        "--output-dir", str(finished)]) == EXIT_OK
    capsys.readouterr()
    assert clean.calls > 40
    before, threads = run_tree(finished), threading.active_count()
    for k in range(0, clean.calls, every):
        point = tmp_path / f"cut{k}"
        point.mkdir()
        config = write_config(point, workers)
        run_dir = point / "run"
        shutil.copytree(finished, run_dir)
        with monkeypatch.context() as patch:
            cut = Injector(patch, KeyboardInterrupt, k)
            try:
                code = run_cli(["simulate", "--config", str(config), "--output-dir", str(run_dir), "--overwrite"])
            except KeyboardInterrupt:
                pytest.fail(f"the interrupt at backend call {k} escaped run_cli")
        assert cut.raised is not None, k
        assert code == EXIT_INTERRUPTED and capsys.readouterr().err == "interrupted\n", k
        # The running units finish and the queued ones are cancelled: no pool thread outlives the run.
        assert threading.active_count() == threads, k
        assert run_tree(run_dir) == before, k

        cache_path = point / "responses.jsonl"
        ResponseCache(cache_path)
        stored = set(cached_digests(cache_path))
        with monkeypatch.context() as patch:
            rerun = Injector(patch)
            assert run_cli(["simulate", "--config", str(config), "--output-dir", str(point / "rerun")]) == EXIT_OK
        capsys.readouterr()
        called = cached_digests(cache_path)[len(stored):]
        assert len(called) == rerun.calls == clean.calls - len(stored) and not stored & set(called), k


class WriteFaults:
    """Counts the calls of ``records.write_text`` and ``records.remove``, the one writer and remover of
    run-directory files, and makes the path operation inside call ``at`` (None: never) raise
    ``OSError(ENOSPC)``: a file open in ``write_text``, a file check in ``remove``. So each function's own
    mapping of the error is what runs.

    ``failed`` holds the verb and path of the error the faulted call should raise.
    """

    def __init__(self, monkeypatch, at=None):
        self.at, self.calls, self.failed = at, 0, None

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def counting(function, verb, below):
            def call(target, *rest):
                if verb == "remove":
                    target = list(target)
                k, self.calls = self.calls, self.calls + 1
                if k != self.at:
                    return function(target, *rest)
                self.failed = (verb, target[0] if verb == "remove" else target)
                with monkeypatch.context() as patch:
                    patch.setattr(Path, below, full_disk)
                    return function(target, *rest)
            return call

        monkeypatch.setattr(records, "write_text", counting(records.write_text, "write", "open"))
        monkeypatch.setattr(records, "remove", counting(records.remove, "remove", "is_file"))


@pytest.mark.parametrize("over_a_finished_run", [False, True])
def test_a_run_cut_at_any_run_directory_write_exits_with_one_line_and_leaves_no_unvouched_manifest(
        tmp_path, monkeypatch, capsys, over_a_finished_run):
    config = write_config(tmp_path, 1)
    finished = tmp_path / "finished"
    with monkeypatch.context() as patch:
        clean = WriteFaults(patch)
        assert run_cli(["simulate", "--config", str(config), "--output-dir", str(finished)]) == EXIT_OK
    capsys.readouterr()
    assert clean.calls > 10
    for k in range(clean.calls):
        run_dir = tmp_path / f"cut{k}"
        if over_a_finished_run:
            shutil.copytree(finished, run_dir)
        with monkeypatch.context() as patch:
            cut = WriteFaults(patch, k)
            code = run_cli(["simulate", "--config", str(config), "--output-dir", str(run_dir), "--overwrite"])
        verb, path = cut.failed
        assert code == EXIT_VALIDATION, k
        assert capsys.readouterr().err == f"error: cannot {verb} {path}: [Errno {errno.ENOSPC}] " \
                                          f"{os.strerror(errno.ENOSPC)}\n", k
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            for name, digest in json.loads(manifest_path.read_text())["artifacts"].items():
                assert file_digest(run_dir / name) == digest, (k, name)
        else:  # a report is built from a vouched record only
            assert not list((run_dir / "report").glob("*")), k
        ResponseCache(tmp_path / "responses.jsonl")
