import json
import threading

import pytest

from conftest import midpoint_vector
from featgeo.engine.cache import ResponseCache
from featgeo.engine.client import EngineClient, format_feature_definitions
from featgeo.engine.ledger import CostLedger
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


@pytest.mark.parametrize("bad_line", ['{"digest": "x", "respo', '{"digest": "x"}', "[]"])
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
    assert client.ledger.role_requests(Role.PAGE_GEN) == 2
    assert client.ledger.role_calls(Role.PAGE_GEN) == 1


def test_salt_forces_resampling(tmp_path):
    cache = ResponseCache(tmp_path / "c.jsonl")
    a = EngineClient(ScriptedBackend(["page"]), CATALOG, cache=cache, salt="run1")
    b = EngineClient(ScriptedBackend(["page"]), CATALOG, cache=cache, salt="run2")
    a.generate_page(BRIEF, GUIDELINES)
    b.generate_page(BRIEF, GUIDELINES)
    assert len(cache) == 2


def test_cache_key_is_deterministic():
    r1 = build_request(Role.JUDGE, "prompt text", salt="s")
    r2 = build_request(Role.JUDGE, "prompt text", salt="s")
    r3 = build_request(Role.JUDGE, "prompt text", salt="t")
    assert r1.cache_key == r2.cache_key != r3.cache_key


# -- ledger ----------------------------------------------------------------------


def response_with(prompt_tokens, completion_tokens, elapsed=0.0):
    return EngineResponse("x", prompt_tokens, completion_tokens, True, elapsed)


def test_ledger_totals_follow_stage_sums():
    ledger = CostLedger()
    ledger.record_call(Stage.FEATURE_EXTRACTION, Role.FEATURE_EXTRACT, response_with(10, 2))
    ledger.record_call(Stage.INITIAL_POPULATION, Role.PAGE_GEN, response_with(100, 20))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(50, 5))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.JUDGE, response_with(40, 4))
    totals = ledger.totals()
    assert totals.api_calls == 4
    assert totals.prompt_tokens == 200
    assert totals.completion_tokens == 31
    CostLedger.from_dict(ledger.to_dict())


def stats_dict(wall_time, api_calls, prompt_tokens, completion_tokens):
    return {"wall_time": wall_time, "api_calls": api_calls,
            "prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens,
            "cache_hits": 0}


def test_ledger_report_recomputes_known_stage_numbers():
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
    report = CostLedger.from_dict(data).report()
    assert "Feature Extraction" in report
    assert "Initial Population" in report
    assert "GA Optimization" in report
    assert "366" in report
    assert "1,007,157" in report
    assert "150,467" in report
    assert "1,720.8" in report


def test_ledger_report_rejects_tampered_totals():
    ledger = CostLedger()
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(10, 1))
    data = ledger.to_dict()
    data["totals"]["api_calls"] = 99  # simulate corruption
    with pytest.raises(IntegrityError):
        CostLedger.from_dict(data).report()


@pytest.mark.parametrize("block", ["GA Optimization", "totals"])
@pytest.mark.parametrize(
    "field", ["wall_time", "api_calls", "prompt_tokens", "completion_tokens", "cache_hits"]
)
def test_ledger_load_rejects_any_stage_or_total_field_off_its_entries(block, field):
    ledger = CostLedger()
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(10, 1, elapsed=0.5))
    ledger.record_call(Stage.GA_OPTIMIZATION, Role.JUDGE, response_with(4, 2), cached=True)
    data = ledger.to_dict()
    assert CostLedger.from_dict(data).to_dict() == data
    stored = data["totals"] if block == "totals" else data["stages"][block]
    stored[field] += 1
    with pytest.raises(IntegrityError, match=block):
        CostLedger.from_dict(data)


def test_ledger_empty_report_is_all_zero():
    report = CostLedger().report()
    assert report.count("0") >= 8


def test_ledger_concurrent_increments_sum_exactly():
    ledger = CostLedger()
    n_threads, per_thread = 8, 200

    def work():
        for _ in range(per_thread):
            ledger.record_call(Stage.GA_OPTIMIZATION, Role.ANSWER_GEN, response_with(3, 1))

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    totals = ledger.totals()
    assert totals.api_calls == n_threads * per_thread
    assert totals.prompt_tokens == 3 * n_threads * per_thread
    CostLedger.from_dict(ledger.to_dict())


def test_every_call_books_exactly_one_stage(tmp_path):
    client, _ = make_client(["reply text here"])
    client.set_stage(Stage.INITIAL_POPULATION)
    client.generate_page(BRIEF, GUIDELINES)
    assert client.ledger.stage_stats(Stage.INITIAL_POPULATION).api_calls == 1
    assert client.ledger.stage_stats(Stage.GA_OPTIMIZATION).api_calls == 0
    assert client.ledger.stage_stats(Stage.FEATURE_EXTRACTION).api_calls == 0


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
    with pytest.raises(ValidationError):
        client.extract_theme(docs(4), "fitness")


def test_theme_prompt_states_the_real_document_count():
    client, backend = make_client(["A concise strategy brief."], theme_doc_count=3)
    client.extract_theme(docs(3), "fitness")
    prompt = backend.requests[0].prompt
    assert "Analyze the 3 webpage summaries" in prompt
    assert "[3] Document 3" in prompt


def test_source_document_rejects_empty_text():
    with pytest.raises(ValidationError):
        SourceDocument(id=1, text="   ")


def test_extract_features_clamps_out_of_range_reply():
    lines = "\n".join(f"{f.key}: {5 if f.key == 'statistics_level' else f.lo}" for f in CATALOG)
    client, _ = make_client([lines])
    v = client.extract_features(docs(1)[0])
    assert v[CATALOG.index_of("statistics_level")] == 3.0


def test_extract_features_retries_then_errors_with_raw_reply():
    client, backend = make_client(["not a record at all"])
    with pytest.raises(EngineError) as err:
        client.extract_features(docs(1)[0])
    assert err.value.raw_reply == "not a record at all"
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
    with pytest.raises(EngineError, match="page generation failed after 3 attempts") as err:
        client.generate_page(BRIEF, GUIDELINES)
    assert err.value.raw_reply == "  "
    salts = ["", "attempt1", "attempt2", "s", "s|attempt1", "s|attempt2", "", "attempt1", "attempt2"]
    assert len(backend.requests) == len(salts)
    for request, salt in zip(backend.requests, salts):
        assert request.cache_key == build_request(request.role, request.prompt, salt=f"\x1f{salt}").cache_key


def test_generate_page_contract():
    client, _ = make_client(["PAGE BODY"])
    assert client.generate_page(BRIEF, GUIDELINES) == "PAGE BODY"
    from featgeo.features import GuidelineBlock
    with pytest.raises(ValidationError):
        client.generate_page(BRIEF, GuidelineBlock((), ()))


def test_answer_query_validates_docs():
    client, _ = make_client(["Answer [1]."])
    assert client.answer_query("what?", docs(6)) == "Answer [1]."
    with pytest.raises(ValidationError):
        client.answer_query("what?", [])
    with pytest.raises(ValidationError):
        client.answer_query("what?", docs(7))
    duplicated = docs(2)
    duplicated[1] = SourceDocument(id=1, text="again")
    with pytest.raises(ValidationError):
        client.answer_query("what?", duplicated)


def judge_reply(scores):
    names = ["fluency", "usefulness", "credibility", "structure",
             "uniqueness", "attractiveness", "influence"]
    return "\n".join(f"{n}: {s}" for n, s in zip(names, scores))


def test_judge_quality_parses_seven_scores():
    client, _ = make_client([judge_reply([5, 5, 5, 5, 5, 5, 5])])
    dims = client.judge_quality("answer text", "query")
    assert dims.content_scores() == (5, 5, 5, 5)
    assert dims.appeal_scores() == (5, 5, 5)


def test_judge_quality_retries_on_six_scores_then_errors():
    client, backend = make_client([judge_reply([4, 4, 4, 4, 4, 4])])
    with pytest.raises(EngineError):
        client.judge_quality("answer", "query")
    assert len(backend.requests) == client.retry_limit


def test_judge_quality_rounds_fractional_scores():
    client, _ = make_client([judge_reply([4.5, 3.2, 2.5, 1, 5, 4, 3])])
    dims = client.judge_quality("answer", "query")
    assert (dims.fluency, dims.usefulness, dims.credibility) == (5, 3, 3)


def test_backend_exception_wrapped_as_engine_error():
    class Exploding:
        def complete(self, request):
            raise RuntimeError("socket closed")

    client = EngineClient(Exploding(), CATALOG)
    with pytest.raises(EngineError, match="socket closed"):
        client.answer_query("q", docs(2))


# -- live transport ------------------------------------------------------------------


class StubSession:
    def __init__(self, payload):
        self.payload = payload
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})

        class R:
            def __init__(self, payload):
                self._payload = payload

            def raise_for_status(self):
                pass

            def json(self):
                return self._payload

        return R(self.payload)


def test_live_backend_uses_reported_usage():
    session = StubSession(
        {"choices": [{"message": {"content": "hello"}}],
         "usage": {"prompt_tokens": 12, "completion_tokens": 7}}
    )
    backend = ChatCompletionBackend("http://engine", "model-x", api_key="k", session=session)
    resp = backend.complete(build_request(Role.ANSWER_GEN, "prompt body"))
    assert resp.text == "hello"
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_estimated) == (12, 7, False)
    call = session.calls[0]
    assert call["url"] == "http://engine/chat/completions"
    assert call["json"]["model"] == "model-x"
    assert call["headers"]["Authorization"] == "Bearer k"


def test_live_backend_estimates_missing_usage():
    session = StubSession({"choices": [{"message": {"content": "abcdefgh"}}]})
    backend = ChatCompletionBackend("http://engine", "m", session=session)
    resp = backend.complete(build_request(Role.JUDGE, "x" * 40))
    assert resp.usage_estimated
    assert resp.prompt_tokens == estimate_tokens("x" * 40) == 10
    assert resp.completion_tokens == 2


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
