"""The live transport end to end: runs over real HTTP to a loopback server that answers from the sim.

A live request carries no salt or payload, so the test backend sends each
request's cache key in a header, and the server looks the request's role and
payload up by it. The server answers the prompt it received, with the sim's
token counts as the reported usage. A seeded fault schedule can make the
server answer a request with a transient fault instead, once per request.
"""

import dataclasses
import http.server
import json
import random
import threading
from types import SimpleNamespace

import pytest

from conftest import run_tree
from test_cli import small_config  # noqa: F401 (small_config is a fixture)
import featgeo.pipeline as pipeline_module
from featgeo.cli import EXIT_OK, run_cli
from featgeo.engine.live import ChatCompletionBackend
from featgeo.engine.types import Role
from featgeo.features import catalog_default
from featgeo.pipeline import RunConfig
from featgeo.records import RECORD_FILES
from featgeo.sim import SimBackend, SimWorld

KEY_HEADER = "X-Request-Key"
FAULT_RATE = 0.1
# The transient faults, injected in turn: each one the live backend resends.
FAULTS = ("429", "503", "short body", "garbled status line", "no reply")


class KeyedBackend(ChatCompletionBackend):
    """The live backend, plus a header that names the request being sent."""

    def __init__(self, base_url, requests):
        super().__init__(base_url, "sim-model", timeout=10.0, sleep=lambda seconds: None)
        self.requests = requests  # cache key -> EngineRequest, read by the server
        self.sending = threading.local()

    def complete(self, request):
        self.requests[request.cache_key] = self.sending.request = request
        return super().complete(request)

    def _send(self, http_request):
        http_request.add_header(KEY_HEADER, self.sending.request.cache_key)
        return super()._send(http_request)


@pytest.fixture()
def loopback(monkeypatch, small_config):
    """A loopback engine answering from ``small_config``'s sim; ``--backend live`` runs reach it.

    Setting ``engine.null_content`` to a predicate makes the first request it
    accepts get ``"content": null``. Setting ``engine.schedule`` to a seeded
    ``random.Random`` draws once per request that reaches the server; a draw
    below ``FAULT_RATE`` answers with the next of ``FAULTS`` instead, unless
    the request was faulted before. ``engine.backends`` holds the live
    backends the runs built.
    """
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    sim = SimBackend(SimWorld(RunConfig.from_file(small_config).sim, catalog_default()))
    engine = SimpleNamespace(requests={}, served=0, null_content=None, nulled=[],
                             schedule=None, injected=[], faulted=set(), backends=[])
    lock = threading.Lock()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            key = self.headers[KEY_HEADER]
            request = engine.requests[key]
            response = sim.complete(dataclasses.replace(request, prompt=body["messages"][0]["content"]))
            content, fault = response.text, None
            with lock:
                engine.served += 1
                if engine.null_content and not engine.nulled and engine.null_content(request):
                    engine.nulled.append(request)
                    content = None
                if engine.schedule and engine.schedule.random() < FAULT_RATE and key not in engine.faulted:
                    fault = FAULTS[len(engine.injected) % len(FAULTS)]
                    engine.injected.append(fault)
                    engine.faulted.add(key)
            if fault == "no reply":
                return  # the server closes the connection
            if fault == "garbled status line":
                self.wfile.write(b"HTTP/1.1 garbled\r\n\r\n")
                return
            if fault in ("429", "503"):
                self.send_response(int(fault))
                if fault == "429":
                    self.send_header("Retry-After", "0")
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            reply = json.dumps({
                "choices": [{"message": {"role": "assistant", "content": content}}],
                "usage": {"prompt_tokens": response.prompt_tokens,
                          "completion_tokens": response.completion_tokens},
            }).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply[: len(reply) // 2] if fault == "short body" else reply)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    # A short poll interval, so shutdown() at teardown does not wait out the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_port}/v1"

    def from_env():
        engine.backends.append(KeyedBackend(base_url, engine.requests))
        return engine.backends[-1]

    monkeypatch.setattr(pipeline_module.ChatCompletionBackend, "from_env", from_env)
    yield engine
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _without_wall_time(value):
    if isinstance(value, dict):
        return {k: _without_wall_time(v) for k, v in value.items() if k != "wall_time"}
    return value


def _live_run_matches_sim_run(tmp_path, small_config, workers):
    """Run ``small_config`` on the sim and on the loopback engine at ``workers``; assert that only
    real wall time differs. Returns the live run's ``cost.json``."""
    sim_dir, live_dir, live_config = tmp_path / "sim", tmp_path / "live", tmp_path / "live.json"
    assert run_cli(["optimize", "--config", str(small_config), "--output-dir", str(sim_dir)]) == EXIT_OK
    live_config.write_text(json.dumps({**json.loads(small_config.read_text()), "eval_workers": workers}))
    args = ["optimize", "--config", str(live_config), "--backend", "live", "--output-dir", str(live_dir)]
    assert run_cli(args) == EXIT_OK
    sim, live = run_tree(sim_dir), run_tree(live_dir)
    assert sim.keys() == live.keys()
    # Only real wall time differs: cost.json, its digest and the report's cost table.
    assert {name for name in sim if sim[name] != live[name]} <= {
        "cost.json", "manifest.json", "report/cost_table.txt"
    }
    assert all(sim[name] == live[name] for name in RECORD_FILES if name != "cost.json")
    sim_cost, live_cost = json.loads(sim["cost.json"]), json.loads(live["cost.json"])
    assert _without_wall_time(live_cost) == _without_wall_time(sim_cost)
    sim_manifest, live_manifest = json.loads(sim["manifest.json"]), json.loads(live["manifest.json"])
    assert (sim_manifest["config"].pop("backend"), live_manifest["config"].pop("backend")) == ("sim", "live")
    del sim_manifest["artifacts"]["cost.json"], live_manifest["artifacts"]["cost.json"]
    assert live_manifest == sim_manifest
    metrics = [json.loads(line) for line in live["eval_metrics.jsonl"].decode().splitlines()]
    assert metrics and not any(m["failed"] for m in metrics)
    return live_cost


@pytest.mark.parametrize("workers", [1, 4])
def test_a_live_run_records_what_the_sim_run_records(tmp_path, small_config, loopback, workers):
    live_cost = _live_run_matches_sim_run(tmp_path, small_config, workers)
    assert live_cost["totals"]["api_calls"] == loopback.served


@pytest.mark.parametrize("workers", [1, 4])
def test_transient_faults_are_resent_and_leave_the_record_unchanged(tmp_path, small_config, loopback, workers):
    """A transient HTTP failure is resent; it never becomes a failed unit or a (0, 0) penalty."""
    loopback.schedule = random.Random(5)
    live_cost = _live_run_matches_sim_run(tmp_path, small_config, workers)
    assert set(loopback.injected) == set(FAULTS)
    assert live_cost["totals"]["api_calls"] == loopback.served - len(loopback.injected)
    [backend] = loopback.backends
    assert backend.transport_retries == len(loopback.injected)


def test_a_reply_with_null_content_fails_only_its_unit(tmp_path, small_config, loopback, capsys):
    loopback.null_content = lambda request: request.role is Role.ANSWER_GEN and request.payload["salt"] == "rep1"
    live_dir = tmp_path / "live"
    args = ["optimize", "--config", str(small_config), "--backend", "live", "--output-dir", str(live_dir)]
    assert run_cli(args) == EXIT_OK
    assert len(loopback.nulled) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"run degraded: {live_dir}"
    assert json.loads((live_dir / "manifest.json").read_text())["status"] == "degraded"
    metrics = [json.loads(line) for line in (live_dir / "eval_metrics.jsonl").read_text().splitlines()]
    # At one worker the first unit of repeat 1 is generation 0, slot 0.
    assert [(m["generation"], m["slot"], m["repeat"]) for m in metrics if m["failed"]] == [(0, 0, 1)]
