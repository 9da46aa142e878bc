import email.message
import http.client
import http.server
import io
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

from conftest import ledger_requests, ledger_sum, midpoint_vector
from featgeo.engine.cache import ResponseCache
from featgeo.engine.client import EngineClient, format_feature_definitions
from featgeo.engine.ledger import CostLedger
from featgeo.engine import client as client_module, live
from featgeo.engine.live import ChatCompletionBackend
from featgeo.engine.templates import load_template, render_prompt
from featgeo.engine.types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    Stage,
    TopicBrief,
    build_request,
    estimate_tokens,
    text_digest,
)
from featgeo.errors import EngineError, IntegrityError, ValidationError
from featgeo.features import catalog_default, render_guidelines

CATALOG = catalog_default()
BRIEF = TopicBrief(topic="meal planning", strategy_text="Promote a planning service.")
GUIDELINES = render_guidelines(midpoint_vector(CATALOG), CATALOG)


class ScriptedBackend:
    """Returns canned reply texts in order; repeats the last one when exhausted."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def complete(self, request: EngineRequest) -> EngineResponse:
        self.requests.append(request)
        text = self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]
        return EngineResponse(
            text=text,
            prompt_tokens=estimate_tokens(request.prompt),
            completion_tokens=estimate_tokens(text),
            usage_estimated=True,
            elapsed_seconds=0.01,
        )


def docs(n=5):
    return [SourceDocument(id=i + 1, text=f"Document {i + 1} body text.") for i in range(n)]


def make_client(replies, **kwargs):
    backend = ScriptedBackend(replies)
    return EngineClient(backend, CATALOG, **kwargs), backend


# -- templates ----------------------------------------------------------------


def test_all_role_templates_load_and_render_deterministically():
    for role in Role:
        assert load_template(role)
    a = render_prompt(Role.ANSWER_GEN, query="q", source_text="[1] text")
    b = render_prompt(Role.ANSWER_GEN, query="q", source_text="[1] text")
    assert a == b
    assert "q" in a and "[1] text" in a


def test_page_template_carries_brief_and_guidelines():
    prompt = render_prompt(Role.PAGE_GEN, ad_theme="THEME", guidelines="LINES")
    assert "THEME" in prompt and "LINES" in prompt


def test_render_missing_parameter_is_validation_error():
    with pytest.raises(ValidationError):
        render_prompt(Role.ANSWER_GEN, query="q")


# -- cache ---------------------------------------------------------------------


def test_cache_persist_and_replay(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    response = EngineResponse("payload", 10, 5, True, 0.5)
    cache.put("abc", Role.PAGE_GEN, response)
    assert cache.get("abc") == response
    reloaded = ResponseCache(path)
    assert reloaded.get("abc") == response
    assert len(path.read_text().splitlines()) == 1
    # append-only: second put for the same digest does not duplicate
    cache.put("abc", Role.PAGE_GEN, response)
    assert len(path.read_text().splitlines()) == 1


def test_cache_makes_its_missing_directory_once(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted_mkdir(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted_mkdir)
    path = tmp_path / "new" / "cache.jsonl"
    cache = ResponseCache(path)
    for i in range(5):
        cache.put(f"d{i}", Role.ANSWER_GEN, EngineResponse(f"reply {i}", 10, 5, True, 0.5))
    assert made == [path.parent]
    assert [r.text for r in map(ResponseCache(path).get, [f"d{i}" for i in range(5)])] == [
        f"reply {i}" for i in range(5)
    ]


def filled_cache(path, digests):
    cache = ResponseCache(path)
    for i, digest in enumerate(digests):
        cache.put(digest, Role.ANSWER_GEN, EngineResponse(f"reply {i}", 10, 5, True, 0.5))
    return path.read_bytes()


def test_cache_drops_torn_tail_and_appends_cleanly_after_it(tmp_path):
    path = tmp_path / "cache.jsonl"
    complete = filled_cache(path, ["a", "b"])
    path.write_bytes(complete + complete.splitlines(keepends=True)[0][:25])  # crash mid-append
    cache = ResponseCache(path)
    assert len(cache) == 2 and cache.get("b").text == "reply 1"
    assert path.read_bytes() == complete
    cache.put("c", Role.JUDGE, EngineResponse("late reply", 3, 2, True, 0.1))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["digest"] for r in records] == ["a", "b", "c"]
    assert ResponseCache(path).get("c").text == "late reply"


def test_cache_file_with_blank_lines_loads(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = filled_cache(path, ["a", "b"]).decode().splitlines(keepends=True)
    path.write_text("\n" + first + "  \n" + second)
    cache = ResponseCache(path)
    assert len(cache) == 2 and cache.get("a").text == "reply 0" and cache.get("b").text == "reply 1"


@pytest.mark.parametrize("bad_line", [
    '{"digest": "x", "respo', '{"digest": "x"}', "[]",
    '{"digest": "x", "response": {"text": "t", "prompt_tokens": 1e999, "completion_tokens": 1,'
    ' "usage_estimated": false, "elapsed_seconds": 0.1}}',
    '{"digest": "x", "response": {"text": 5, "prompt_tokens": 1, "completion_tokens": 1,'
    ' "usage_estimated": false, "elapsed_seconds": 0.1}}',
])
def test_cache_corruption_before_the_last_line_names_its_line(tmp_path, bad_line):
    path = tmp_path / "cache.jsonl"
    lines = filled_cache(path, ["a", "b", "c"]).decode().splitlines(keepends=True)
    lines[1] = bad_line + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValidationError, match=r"cache\.jsonl line 2 is corrupt"):
        ResponseCache(path)
    assert path.read_text() == "".join(lines)  # nothing truncated


def test_client_cache_prevents_second_live_call(tmp_path):
    cache = ResponseCache(tmp_path / "c.jsonl")
    client, backend = make_client(["the page"], cache=cache)
    first = client.generate_page(BRIEF, GUIDELINES)
    second = client.generate_page(BRIEF, GUIDELINES)
    assert first == second
    assert len(backend.requests) == 1
    assert ledger_requests(client.ledger, Role.PAGE_GEN) == 2
    assert ledger_sum(client.ledger, role=Role.PAGE_GEN).api_calls == 1


class FailsFirstCall(ScriptedBackend):
    """Holds its first call until ``release`` is set and then fails it; answers every later call."""

    def __init__(self, replies):
        super().__init__(replies)
        self.entered, self.release = threading.Event(), threading.Event()

    def complete(self, request):
        if not self.requests:
            self.requests.append(request)
            self.entered.set()
            self.release.wait(timeout=10)
            raise OSError("connection reset")
        return super().complete(request)


def test_a_failed_call_keeps_its_key_lock_and_the_next_waiter_makes_its_own_call(tmp_path):
    cache = ResponseCache(tmp_path / "c.jsonl")
    backend = FailsFirstCall(["the page"])
    client = EngineClient(backend, CATALOG, cache=cache)
    outcomes = {}

    def ask(name):
        try:
            outcomes[name] = client.generate_page(BRIEF, GUIDELINES)
        except EngineError as exc:
            outcomes[name] = exc

    first = threading.Thread(target=ask, args=("first",))
    first.start()
    assert backend.entered.wait(timeout=10)
    (held,) = client._key_locks  # the first call holds its key's lock
    waiter = threading.Thread(target=ask, args=("waiter",))
    waiter.start()
    time.sleep(0.05)  # the waiter blocks on that lock; had it come later, it would still find no reply
    backend.release.set()
    first.join(timeout=10)
    waiter.join(timeout=10)
    assert not first.is_alive() and not waiter.is_alive()
    assert isinstance(outcomes["first"], EngineError)
    assert outcomes["waiter"] == "the page"
    assert len(backend.requests) == 2  # the waiter made its own call rather than reading a hit
    assert ledger_sum(client.ledger).cache_hits == 0
    assert cache.get(held) is not None and client._key_locks == {}


def test_a_call_that_fails_alone_keeps_exactly_its_key_lock(tmp_path):
    cache = ResponseCache(tmp_path / "c.jsonl")
    backend = FailsFirstCall(["the page"])
    backend.release.set()
    client = EngineClient(backend, CATALOG, cache=cache)
    with pytest.raises(EngineError):
        client.generate_page(BRIEF, GUIDELINES)
    (held,) = client._key_locks
    assert not client._key_locks[held].locked()
    assert client.generate_page(BRIEF, GUIDELINES) == "the page"
    assert cache.get(held) is not None and client._key_locks == {}


def test_salt_forces_resampling(tmp_path):
    cache = ResponseCache(tmp_path / "c.jsonl")
    a = EngineClient(ScriptedBackend(["page"]), CATALOG, cache=cache, salt="run1")
    b = EngineClient(ScriptedBackend(["page"]), CATALOG, cache=cache, salt="run2")
    a.generate_page(BRIEF, GUIDELINES)
    b.generate_page(BRIEF, GUIDELINES)
    assert len(cache) == 2


class NamedBackend(ScriptedBackend):
    def __init__(self, replies, identity):
        super().__init__(replies)
        self.identity = identity


def test_shared_cache_replays_only_to_the_engine_and_templates_that_filled_it(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "c.jsonl")
    clients = [EngineClient(NamedBackend([f"page {name}"], name), CATALOG, cache=cache)
               for name in ("sim a", "sim b", "sim a")]
    assert [c.generate_page(BRIEF, GUIDELINES) for c in clients] == ["page sim a", "page sim b", "page sim a"]
    assert [len(c.backend.requests) for c in clients] == [1, 1, 0]
    assert len(cache) == 2
    # An edited prompt template keys afresh, also for the same engine.
    monkeypatch.setattr(client_module, "templates_digest", lambda: "edited templates")
    edited = EngineClient(NamedBackend(["page edited"], "sim a"), CATALOG, cache=cache)
    assert edited.generate_page(BRIEF, GUIDELINES) == "page edited"
    assert len(cache) == 3
    # The request itself, salt and prompt included, does not change with the scope.
    assert edited.backend.requests[0] == clients[0].backend.requests[0]


def test_live_backend_identity_is_its_url_and_model():
    a = ChatCompletionBackend("http://engine/v1/", "model-x")
    assert a.identity == ChatCompletionBackend("http://engine/v1", "model-x").identity
    assert a.identity != ChatCompletionBackend("http://engine/v1", "model-y").identity
    assert a.identity != ChatCompletionBackend("http://other/v1", "model-x").identity


@pytest.mark.parametrize("base_url", [
    "http://engine/v 1", "ftp//nohost", "ftp://engine/v1", "http:///v1", "http://engine:x/", "http://engine/\x07",
])
def test_live_backend_refuses_a_malformed_base_url(base_url):
    with pytest.raises(ValidationError, match="base URL"):
        ChatCompletionBackend(base_url, "model-x")


@pytest.mark.parametrize("unset", [live.ENV_BASE_URL, live.ENV_MODEL], ids=["base-url", "model"])
def test_live_backend_from_env_needs_the_base_url_and_the_model(monkeypatch, unset):
    monkeypatch.setenv(live.ENV_BASE_URL, "http://engine/")
    monkeypatch.setenv(live.ENV_MODEL, "model-x")
    monkeypatch.delenv(unset)
    with pytest.raises(ValidationError, match=f"live backend needs {live.ENV_BASE_URL} and {live.ENV_MODEL} set"):
        ChatCompletionBackend.from_env()


@pytest.mark.parametrize("key", ["sk-s\u00e9cret", "sk-secret\nX-Injected: 1"], ids=["non-ascii", "newline"])
def test_live_backend_refuses_an_api_key_no_http_header_can_carry_without_showing_it(monkeypatch, key):
    opener = ScriptedOpener(Reply(HELLO))
    with pytest.raises(ValidationError) as direct:
        ChatCompletionBackend("http://engine/", "model-x", api_key=key, opener=opener)
    monkeypatch.setenv(live.ENV_BASE_URL, "http://engine/")
    monkeypatch.setenv(live.ENV_MODEL, "model-x")
    monkeypatch.setenv(live.ENV_API_KEY, key)
    with pytest.raises(ValidationError) as from_env:
        ChatCompletionBackend.from_env()
    assert str(from_env.value).startswith(f"{live.ENV_API_KEY}: API key must be printable ASCII")
    for message in (str(direct.value), str(from_env.value)):
        assert key not in message and "cret" not in message
    assert opener.sent == []


def test_cache_key_is_deterministic():
    r1 = build_request(Role.JUDGE, "prompt text", salt="s")
    r2 = build_request(Role.JUDGE, "prompt text", salt="s")
    r3 = build_request(Role.JUDGE, "prompt text", salt="t")
    assert r1.cache_key == r2.cache_key != r3.cache_key


def test_the_on_disk_cache_key_is_pinned(tmp_path, monkeypatch):
    """A change to how a key is built re-keys every existing response cache, so it shows here first."""
    assert build_request(Role.JUDGE, "prompt text", salt="s").cache_key == (
        "72016657c0b06d06a438d1cb34cd45d6b8c64e18fe3bdff2324b8049cc8a10a0"
    )
    monkeypatch.setattr(client_module, "templates_digest", lambda: "templates v1")
    path = tmp_path / "c.jsonl"
    client = EngineClient(NamedBackend(["page"], "engine a"), CATALOG, cache=ResponseCache(path), salt="run")
    for _ in range(2):
        assert client._complete(Role.JUDGE, "prompt text", None, "s") == "page"
    assert len(client.backend.requests) == 1  # the hit reads the key the miss wrote
    request_key = build_request(Role.JUDGE, "prompt text", salt="run\x1fs").cache_key
    scoped_key = text_digest(f"engine a\x1ftemplates v1\x1f{request_key}")
    assert json.loads(path.read_text())["digest"] == scoped_key == (
        "5d7e4ca4ecb41fba9d0f640e40f85c6f13c373a16bb6e7554fd3e6816e690855"
    )


# -- ledger ----------------------------------------------------------------------


def response_with(prompt_tokens, completion_tokens, elapsed=0.0):
    return EngineResponse("x", prompt_tokens, completion_tokens, True, elapsed)


def test_ledger_totals_follow_stage_sums():
    ledger = CostLedger()
    ledger.record_call(Stage.FEATURE_EXTRACTION, Role.FEATURE_EXTRACT, response_with(10, 2))
    ledger.record_call(Stage.INITIAL_POPULATION, Role.PAGE_GEN, response_with(100, 20))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(50, 5))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.JUDGE, response_with(40, 4))
    totals = ledger_sum(ledger)
    assert totals.api_calls == 4
    assert totals.prompt_tokens == 200
    assert totals.completion_tokens == 31
    CostLedger.from_dict(ledger.to_dict(), "ledger: ")


def test_ledger_load_rejects_tampered_totals():
    ledger = CostLedger()
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(10, 1))
    data = ledger.to_dict()
    data["totals"]["api_calls"] = 99  # simulate corruption
    with pytest.raises(IntegrityError):
        CostLedger.from_dict(data, "ledger: ")


@pytest.mark.parametrize("block", ["GA Optimization", "totals"])
@pytest.mark.parametrize(
    "field", ["wall_time", "api_calls", "prompt_tokens", "completion_tokens", "cache_hits"]
)
def test_ledger_load_rejects_any_stage_or_total_field_off_its_entries(block, field):
    ledger = CostLedger()
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(10, 1, elapsed=0.5))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.JUDGE, response_with(4, 2), cached=True)
    data = ledger.to_dict()
    assert CostLedger.from_dict(data, "ledger: ").to_dict() == data
    stored = data["totals"] if block == "totals" else data["stages"][block]
    stored[field] += 1
    with pytest.raises(IntegrityError, match=block):
        CostLedger.from_dict(data, "ledger: ")


def test_ledger_concurrent_increments_sum_exactly():
    """Threads open the same buckets at once and book live calls and cache hits into them."""
    ledger = CostLedger()
    n_threads, per_thread = 8, 200
    roles = (Role.ANSWER_GEN, Role.JUDGE)

    def work():
        for i in range(per_thread):
            ledger.record_call(Stage.GA_OPTIMIZATION, roles[i % 2], response_with(3, 1, 0.25), cached=i % 4 < 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    each = n_threads * per_thread // 4  # live calls per role, and cache hits per role
    for role in roles:
        stats = ledger_sum(ledger, role=role)
        assert (stats.api_calls, stats.cache_hits, stats.prompt_tokens, stats.completion_tokens) == (
            each, each, 3 * each, each)
        assert stats.wall_time_us == 250_000 * each
    CostLedger.from_dict(ledger.to_dict(), "ledger: ")


def test_every_call_books_exactly_one_stage(tmp_path):
    client, _ = make_client(["reply text here"])
    client.stage = Stage.INITIAL_POPULATION
    client.generate_page(BRIEF, GUIDELINES)
    assert ledger_sum(client.ledger, Stage.INITIAL_POPULATION).api_calls == 1
    assert ledger_sum(client.ledger, Stage.GA_OPTIMIZATION).api_calls == 0
    assert ledger_sum(client.ledger, Stage.FEATURE_EXTRACTION).api_calls == 0


# -- role operations and retries ---------------------------------------------------


def test_generate_queries_contract():
    client, _ = make_client(["first query\nsecond query\nthird query"])
    queries = client.generate_queries(BRIEF, 3)
    assert len(queries) == 3
    assert len(set(queries)) == 3
    assert all(q for q in queries)
    assert client.generate_queries(BRIEF, 1) == ["first query"]


def test_generate_queries_retries_on_duplicates():
    backend = ScriptedBackend(["dup\ndup\ndup", "dup\nfresh one\nfresh two"])
    client = EngineClient(backend, CATALOG)
    queries = client.generate_queries(BRIEF, 3)
    assert queries == ["dup", "fresh one", "fresh two"]
    assert len(backend.requests) == 2


def test_generate_queries_fails_after_retry_limit():
    client, backend = make_client(["only one"])
    with pytest.raises(EngineError):
        client.generate_queries(BRIEF, 3)
    assert len(backend.requests) == client.retry_limit


def test_extract_theme_contract():
    client, _ = make_client(["A concise strategy brief."])
    brief = client.extract_theme(docs(5), "fitness")
    assert brief.topic == "fitness"
    assert brief.strategy_text == "A concise strategy brief."


def test_an_empty_theme_reply_is_asked_for_again():
    client, backend = make_client(["  ", "A concise strategy brief."])
    brief = client.extract_theme(docs(5), "fitness")
    assert brief.strategy_text == "A concise strategy brief."
    assert len(backend.requests) == 2
    assert "theme extraction" in backend.requests[1].prompt
    assert backend.requests[1].prompt.startswith(backend.requests[0].prompt)


def test_a_brief_over_the_word_limit_logs_one_warning_and_is_kept_whole(caplog):
    limit = client_module.BRIEF_WORD_LIMIT
    at_limit, over = " ".join(["word"] * limit), " ".join(["word"] * (limit + 1))
    for reply, warnings in ((at_limit, 0), (over, 1)):
        client, _ = make_client([reply])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="featgeo.engine.client"):
            assert client.extract_theme(docs(5), "fitness").strategy_text == reply
        assert [r.getMessage() for r in caplog.records] == [f"ad strategy brief exceeds {limit} words (soft limit)"] * warnings


def test_theme_prompt_states_the_real_document_count():
    client, backend = make_client(["A concise strategy brief."])
    client.extract_theme(docs(3), "fitness")
    prompt = backend.requests[0].prompt
    assert "Analyze the 3 webpage summaries" in prompt
    assert "[3] Document 3" in prompt


def test_extract_features_clamps_out_of_range_reply():
    lines = "\n".join(f"{f.key}: {5 if f.key == 'statistics_level' else f.lo}" for f in CATALOG)
    client, _ = make_client([lines])
    v = client.extract_features(docs(1)[0])
    assert v[CATALOG.index_of("statistics_level")] == 3.0


def test_extract_features_retries_then_errors():
    client, backend = make_client(["not a record at all"])
    with pytest.raises(EngineError):
        client.extract_features(docs(1)[0])
    assert len(backend.requests) == client.retry_limit


def test_extract_features_recovers_on_second_attempt():
    good = "\n".join(f"{f.key}: {(f.lo + f.hi) / 2}" for f in CATALOG)
    backend = ScriptedBackend(["garbled", good])
    client = EngineClient(backend, CATALOG)
    v = client.extract_features(docs(1)[0])
    assert v == midpoint_vector(CATALOG)


def test_parsed_roles_retry_with_the_salts_response_caches_are_keyed_on():
    client, backend = make_client(["garbled"])
    with pytest.raises(EngineError, match="feature extraction failed after 3 attempts"):
        client.extract_features(docs(1)[0])
    with pytest.raises(EngineError, match="quality judging failed after 3 attempts"):
        client.judge_quality("answer", "query", salt="s")
    client.backend.replies = ["  "]
    with pytest.raises(EngineError, match="page generation failed after 3 attempts"):
        client.generate_page(BRIEF, GUIDELINES)
    salts = ["", "attempt1", "attempt2", "s", "s|attempt1", "s|attempt2", "", "attempt1", "attempt2"]
    assert len(backend.requests) == len(salts)
    for request, salt in zip(backend.requests, salts):
        assert request.cache_key == build_request(request.role, request.prompt, salt=f"\x1f{salt}").cache_key


def test_generate_page_contract():
    client, _ = make_client(["PAGE BODY"])
    assert client.generate_page(BRIEF, GUIDELINES) == "PAGE BODY"


def test_answer_query_validates_docs():
    client, _ = make_client(["Answer [1]."])
    assert client.answer_query("what?", docs(6)) == "Answer [1]."


def judge_reply(scores):
    names = ["fluency", "usefulness", "credibility", "structure",
             "uniqueness", "attractiveness", "influence"]
    return "\n".join(f"{n}: {s}" for n, s in zip(names, scores))


def test_judge_quality_parses_seven_scores():
    client, _ = make_client([judge_reply([5, 5, 5, 5, 5, 5, 5])])
    dims = client.judge_quality("answer text", "query")
    assert dims[:4] == (5, 5, 5, 5)
    assert dims[4:] == (5, 5, 5)


def test_judge_quality_retries_on_six_scores_then_errors():
    client, backend = make_client([judge_reply([4, 4, 4, 4, 4, 4])])
    with pytest.raises(EngineError):
        client.judge_quality("answer", "query")
    assert len(backend.requests) == client.retry_limit


def test_judge_quality_retries_a_non_finite_score_and_uses_the_next_valid_reply():
    client, backend = make_client([judge_reply(["inf", 4, 4, 4, 4, 4, 4]), judge_reply([2, 3, 4, 5, 1, 2, 3])])
    dims = client.judge_quality("answer", "query")
    assert dims == (2, 3, 4, 5, 1, 2, 3)
    assert len(backend.requests) == 2


def test_judge_quality_errors_after_the_retry_limit_on_non_finite_scores():
    client, backend = make_client([judge_reply([4, 4, "1e400", 4, 4, 4, 4])])
    with pytest.raises(EngineError, match="quality judging failed after 3 attempts"):
        client.judge_quality("answer", "query")
    assert len(backend.requests) == client.retry_limit


def test_judge_quality_rounds_fractional_scores():
    client, _ = make_client([judge_reply([4.5, 3.2, 2.5, 1, 5, 4, 3])])
    dims = client.judge_quality("answer", "query")
    assert dims[:3] == (5, 3, 3)


def test_backend_connection_error_is_an_engine_error():
    class Refusing:
        def complete(self, request):
            raise ConnectionError("connection refused")

    client = EngineClient(Refusing(), CATALOG)
    with pytest.raises(EngineError, match="connection refused"):
        client.answer_query("q", docs(2))


# -- live transport ------------------------------------------------------------------


class Reply(io.BytesIO):
    """A 2xx reply as the opener hands it back: a readable context manager with a status."""

    def __init__(self, body, status=200):
        super().__init__(body if isinstance(body, bytes) else json.dumps(body).encode("utf-8"))
        self.status = status


def http_error(code, retry_after=None):
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return urllib.error.HTTPError(ENDPOINT, code, "status text", headers, io.BytesIO(b""))


class ScriptedOpener:
    """Stands in for urllib's opener: records each send and plays one scripted outcome for it."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.sent = []

    def open(self, request, timeout=None):
        self.sent.append({
            "request": request,
            "url": request.full_url,
            "method": request.get_method(),
            "headers": dict(request.header_items()),
            "json": json.loads(request.data),
            "timeout": timeout,
        })
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class TopOfRange:
    """An RNG whose uniform draw is always the top of its range, so backoff bounds show."""

    def uniform(self, lo, hi):
        return hi


ENDPOINT = "http://engine/chat/completions"
HELLO = {"choices": [{"message": {"content": "hello"}}],
         "usage": {"prompt_tokens": 12, "completion_tokens": 7}}


def live_backend(*outcomes, api_key="", rng=None):
    opener, sleeps = ScriptedOpener(*outcomes), []
    backend = ChatCompletionBackend(
        "http://engine/", "model-x", api_key=api_key, opener=opener, sleep=sleeps.append, rng=rng,
    )
    return backend, opener, sleeps


def test_live_backend_uses_reported_usage():
    backend, opener, sleeps = live_backend(Reply(HELLO), api_key="k")
    resp = backend.complete(build_request(Role.ANSWER_GEN, "prompt body"))
    assert resp.text == "hello"
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_estimated) == (12, 7, False)
    [call] = opener.sent
    assert call["url"] == ENDPOINT and call["method"] == "POST" and call["timeout"] == 120.0
    assert call["json"] == {
        "model": "model-x",
        "messages": [{"role": "user", "content": "prompt body"}],
        "temperature": 0.4,
    }
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["headers"]["Content-type"] == "application/json"
    assert sleeps == [] and backend.transport_retries == 0


def test_live_backend_estimates_missing_usage():
    backend, opener, _ = live_backend(Reply({"choices": [{"message": {"content": "abcdefgh"}}]}))
    resp = backend.complete(build_request(Role.JUDGE, "x" * 40))
    assert resp.usage_estimated
    assert resp.prompt_tokens == estimate_tokens("x" * 40) == 10
    assert resp.completion_tokens == 2
    assert "Authorization" not in opener.sent[0]["headers"]  # no key, no auth header


@pytest.mark.parametrize("content", [None, 5, ["hello"]])
@pytest.mark.parametrize("usage", [HELLO["usage"], None])
def test_live_backend_rejects_content_that_is_no_string(content, usage):
    reply = {"choices": [{"message": {"content": content}}], **({"usage": usage} if usage else {})}
    backend, opener, sleeps = live_backend(Reply(reply), Reply(HELLO))
    with pytest.raises(EngineError, match="unexpected engine response shape"):
        backend.complete(build_request(Role.ANSWER_GEN, "prompt"))
    assert len(opener.sent) == 1 and sleeps == []


@pytest.mark.parametrize("usage", [
    {"prompt_tokens": None, "completion_tokens": 7},
    {"prompt_tokens": 12, "completion_tokens": "7"},
    {"prompt_tokens": 12, "completion_tokens": True},
    {"prompt_tokens": float("nan"), "completion_tokens": 7},
    {"prompt_tokens": -5, "completion_tokens": 7},
    {"prompt_tokens": 12.5, "completion_tokens": 7},
    5,
    ["prompt_tokens", "completion_tokens"],
])
def test_live_backend_estimates_usage_that_is_null_or_no_number(usage):
    backend, _, _ = live_backend(Reply({"choices": [{"message": {"content": "abcdefgh"}}], "usage": usage}))
    resp = backend.complete(build_request(Role.JUDGE, "x" * 40))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_estimated) == (10, 2, True)


@pytest.mark.parametrize("role, temperature", [
    (Role.QUERY_GEN, 0.8), (Role.THEME_EXTRACT, 0.4), (Role.FEATURE_EXTRACT, 0.0),
    (Role.PAGE_GEN, 0.8), (Role.ANSWER_GEN, 0.4), (Role.JUDGE, 0.0),
])
def test_live_backend_sends_the_temperature_of_each_roles_tag(role, temperature):
    backend, opener, _ = live_backend(Reply(HELLO))
    backend.complete(build_request(role, "prompt"))
    assert opener.sent[0]["json"]["temperature"] == temperature


def test_live_backend_resends_the_same_request_after_a_429():
    backend, opener, sleeps = live_backend(http_error(429), Reply(HELLO))
    assert backend.complete(build_request(Role.ANSWER_GEN, "prompt")).text == "hello"
    first, second = opener.sent
    assert second["request"] is first["request"]
    assert backend.transport_retries == 1
    assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= live.BACKOFF_BASE_S


def test_live_backend_gives_up_on_a_503_streak_after_the_attempt_limit():
    streak = [http_error(503) for _ in range(live.MAX_ATTEMPTS + 1)]
    backend, opener, sleeps = live_backend(*streak, rng=TopOfRange())
    with pytest.raises(EngineError, match=f"after {live.MAX_ATTEMPTS} attempts.*503"):
        backend.complete(build_request(Role.ANSWER_GEN, "prompt"))
    assert len(opener.sent) == live.MAX_ATTEMPTS
    assert backend.transport_retries == live.MAX_ATTEMPTS - 1
    # Full jitter draws from [0, base * 2**(n-1)], capped; the RNG here draws each top.
    assert sleeps == [min(live.BACKOFF_CAP_S, live.BACKOFF_BASE_S * 2 ** n)
                      for n in range(live.MAX_ATTEMPTS - 1)]


@pytest.mark.parametrize("fault", [
    TimeoutError("timed out"),
    socket.timeout("read timed out"),
    urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
    ConnectionResetError(104, "Connection reset by peer"),
    http.client.RemoteDisconnected("Remote end closed connection without response"),
    http.client.BadStatusLine("HTTP/1.1 2O0 OK"),
    http.client.LineTooLong("header line"),
    http_error(500),
])
def test_live_backend_retries_transient_faults(fault):
    backend, opener, sleeps = live_backend(fault, Reply(HELLO))
    assert backend.complete(build_request(Role.ANSWER_GEN, "prompt")).text == "hello"
    assert len(opener.sent) == 2 and len(sleeps) == 1 and backend.transport_retries == 1


def test_live_backend_does_not_resend_an_invalid_url():
    backend, opener, sleeps = live_backend(http.client.InvalidURL("nonnumeric port: 'x'"), Reply(HELLO))
    with pytest.raises(http.client.InvalidURL):
        backend.complete(build_request(Role.ANSWER_GEN, "prompt"))
    assert len(opener.sent) == 1 and sleeps == [] and backend.transport_retries == 0


def test_live_backend_resends_after_a_reply_body_cut_short():
    class TruncatedReply(Reply):
        def read(self, *args):
            raise http.client.IncompleteRead(b'{"choices": [', 40)

    backend, opener, sleeps = live_backend(TruncatedReply(HELLO), Reply(HELLO))
    assert backend.complete(build_request(Role.ANSWER_GEN, "prompt")).text == "hello"
    assert len(opener.sent) == 2 and len(sleeps) == 1 and backend.transport_retries == 1


def test_parse_retries_re_ask_so_each_live_body_differs():
    garbled = {"choices": [{"message": {"content": "no scores here"}}]}
    backend, opener, _ = live_backend(Reply(garbled), Reply(garbled), Reply(garbled))
    client = EngineClient(backend, CATALOG)
    with pytest.raises(EngineError, match="quality judging failed after 3 attempts"):
        client.judge_quality("answer", "query", salt="rep0")
    prompts = [call["json"]["messages"][0]["content"] for call in opener.sent]
    assert len(prompts) == 3 and len(set(prompts)) == 3
    assert all(p.startswith(prompts[0]) for p in prompts)
    assert "quality judging" in prompts[1] and "attempt 2 of 3" in prompts[1]
    assert "attempt 3 of 3" in prompts[2]
    assert backend.transport_retries == 0


def test_query_re_asks_send_distinct_live_bodies():
    short = {"choices": [{"message": {"content": "only one query"}}]}
    backend, opener, _ = live_backend(Reply(short), Reply(short), Reply(short))
    client = EngineClient(backend, CATALOG)
    with pytest.raises(EngineError, match="query generation failed after 3 attempts"):
        client.generate_queries(BRIEF, 3)
    bodies = [call["request"].data for call in opener.sent]
    assert len(bodies) == 3 and len(set(bodies)) == 3
    prompts = [call["json"]["messages"][0]["content"] for call in opener.sent]
    assert all(p.startswith(prompts[0]) for p in prompts)
    assert "query generation" in prompts[1] and "attempt 2 of 3" in prompts[1]
    assert "attempt 3 of 3" in prompts[2]
    assert backend.transport_retries == 0


@pytest.mark.parametrize("retry_after, slept", [("7", 7.0), ("3600", live.BACKOFF_CAP_S)])
def test_live_backend_waits_what_retry_after_says_up_to_the_cap(retry_after, slept):
    backend, _, sleeps = live_backend(http_error(429, retry_after), Reply(HELLO))
    backend.complete(build_request(Role.ANSWER_GEN, "prompt"))
    assert sleeps == [slept]


def test_live_backend_backs_off_on_a_retry_after_that_is_no_ascii_number():
    backend, opener, sleeps = live_backend(http_error(429, "\u00b2"), Reply(HELLO), rng=TopOfRange())
    assert backend.complete(build_request(Role.ANSWER_GEN, "prompt")).text == "hello"
    assert sleeps == [live.BACKOFF_BASE_S] and len(opener.sent) == 2


@pytest.mark.parametrize("outcome, message", [
    (http_error(401), "HTTP 401"),
    (http_error(404), "HTTP 404"),
    (Reply(b"<html>busy</html>"), "HTTP 200 body is not JSON"),
    (Reply({"choices": []}), "unexpected engine response shape"),
    (urllib.error.URLError("unknown url type: htp"), "unknown url type"),
])
def test_live_backend_fails_at_once_on_faults_a_resend_cannot_mend(outcome, message):
    backend, opener, sleeps = live_backend(outcome, Reply(HELLO))
    with pytest.raises(EngineError, match=message):
        backend.complete(build_request(Role.ANSWER_GEN, "prompt"))
    assert len(opener.sent) == 1 and sleeps == [] and backend.transport_retries == 0


def test_transport_retries_stay_out_of_the_ledger():
    backend, _, _ = live_backend(http_error(503), Reply(HELLO))
    client = EngineClient(backend, CATALOG)
    client.answer_query("q", docs(2))
    assert backend.transport_retries == 1
    assert ledger_sum(client.ledger, role=Role.ANSWER_GEN).api_calls == 1


def test_transport_retry_count_loses_no_update_across_threads():
    class FirstSendFails:
        def open(self, request, timeout=None):
            if getattr(request, "sent_before", False):
                return Reply(HELLO)
            request.sent_before = True
            raise http_error(503)

    backend = ChatCompletionBackend("http://engine", "m", opener=FirstSendFails(), sleep=lambda s: None)
    requests_each, workers = 200, 8

    def send():
        for _ in range(requests_each):
            backend.complete(build_request(Role.ANSWER_GEN, "prompt"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=send) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert backend.transport_retries == requests_each * workers


def test_live_backend_talks_http_to_a_loopback_server(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    received = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            received.append((self.path, dict(self.headers), json.loads(body)))
            if len(received) == 1:
                self.send_response(503)
                self.send_header("Retry-After", "0")
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            reply = json.dumps(HELLO).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        sleeps = []
        backend = ChatCompletionBackend(
            f"http://127.0.0.1:{server.server_port}/v1", "model-x", api_key="k",
            timeout=5.0, sleep=sleeps.append,
        )
        resp = backend.complete(build_request(Role.JUDGE, "prompt body"))
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert (resp.text, resp.prompt_tokens, resp.completion_tokens) == ("hello", 12, 7)
    assert sleeps == [0.0] and backend.transport_retries == 1
    assert len(received) == 2 and received[0] == received[1]
    path, headers, body = received[1]
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert body == {"model": "model-x", "messages": [{"role": "user", "content": "prompt body"}],
                    "temperature": 0.0}


def test_live_backend_requires_configuration():
    with pytest.raises(ValidationError):
        ChatCompletionBackend("", "model")


def test_estimate_tokens_is_ceil_of_quarter_chars():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abc") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_feature_definitions_listing_covers_all_keys():
    text = format_feature_definitions(CATALOG)
    for feat in CATALOG:
        assert feat.key in text
