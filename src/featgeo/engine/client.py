"""Role-typed gateway to a generative engine.

The client renders prompts from the versioned templates, routes them through a
pluggable backend, caches replies by request digest (scoped to the backend's
identity and the template set), validates and parses the replies per role
(with bounded retries), and books every interaction into the cost ledger under
the currently active pipeline stage.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from ..errors import EngineError, ValidationError
from ..features import FeatureCatalog, FeatureVector, format_feature_definitions, guidelines_text, vector_from_mapping
from ..quality import ALL_DIMENSIONS, parse_dimensions
from .cache import ResponseCache
from .ledger import CostLedger
from .templates import render_prompt, templates_digest
from .types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    Stage,
    TopicBrief,
    build_request,
    text_digest,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

BRIEF_WORD_LIMIT = 200
REASK_LINE = (
    "Your previous {what} reply could not be parsed. This is attempt {attempt} of {limit}: "
    "reply in exactly the format asked for above."
)


class EngineBackend(Protocol):
    """Anything that can answer one prompt-level engine request.

    ``identity`` names the engine behind the backend (for the sim, its config;
    for a live endpoint, URL and model), so that a shared response cache never
    replays one engine's replies to another. A backend without one, such as a
    wrapper or a test double, keys its cache entries with an empty identity.
    """

    identity: str

    def complete(self, request: EngineRequest) -> EngineResponse: ...


def format_source_documents(docs: Sequence[SourceDocument]) -> str:
    return "\n\n".join(f"[{d.id}] {d.text}" for d in docs)


def _parse_numbers(text: str, names: Iterable[str]) -> dict[str, float]:
    """Values of the ``name: number`` lines for ``names``; ValueError on a non-number."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip().lstrip("-* ").strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        fields[key.strip().lower()] = value.strip()
    return {name: float(fields[name]) for name in names if name in fields}


def _non_empty(reply: str) -> str:
    if not reply.strip():
        raise ValidationError("empty text")
    return reply


class EngineClient:
    """Gateway for the six LLM roles, with caching, retries, and cost accounting."""

    retry_limit = 3  # requests per parsed reply, the first one included

    def __init__(
        self,
        backend: EngineBackend,
        catalog: FeatureCatalog,
        *,
        cache: ResponseCache | None = None,
        salt: str = "",
    ):
        self.backend = backend
        self.catalog = catalog
        self.cache = cache
        self.ledger = CostLedger()
        self.salt = salt
        self.stage = Stage.FEATURE_EXTRACTION  # books later calls; set it only while no call is in flight
        self._key_locks: dict[str, threading.Lock] = {}  # one per cache key in flight or whose call failed
        # Folded into cache keys only: what a request sends stays as it is.
        identity = getattr(backend, "identity", "")
        self._key_scope = f"{identity}\x1f{templates_digest()}"

    # -- transport ---------------------------------------------------------

    def _complete(self, role: Role, prompt: str, payload: dict | None, salt: str) -> str:
        """Reply text for one request, from the cache when it holds the reply.

        With a cache, an identical request is single-flight: a caller whose
        request is already in flight waits for that call and then reads its
        reply as a cache hit, as it would had the calls run one after another.
        If the call fails, the next waiter makes its own call. A key's lock goes
        once its reply is cached, since later callers read that reply as a hit.
        """
        request = build_request(role, prompt, salt=f"{self.salt}\x1f{salt}", payload=payload)
        if self.cache is None:
            return self._call(request).text
        key = text_digest(f"{self._key_scope}\x1f{request.cache_key}")
        # dict.setdefault runs atomically in CPython, so every caller of one key gets one lock.
        with self._key_locks.setdefault(key, threading.Lock()):
            response = self.cache.get(key)
            if response is not None:
                self.ledger.record_call(self.stage, role, response, cached=True)
            else:
                response = self._call(request)  # on a raise the lock stays, and waiters retry one at a time
                self.cache.put(key, role, response)
            self._key_locks.pop(key, None)
        return response.text

    def _call(self, request: EngineRequest) -> EngineResponse:
        """One backend call, booked in the ledger. An OSError becomes an EngineError; any
        other exception but an EngineError is a fault of the program and propagates as itself."""
        try:
            response = self.backend.complete(request)
        except OSError as exc:
            raise EngineError(f"{request.role.value} backend call failed: {exc}") from exc
        self.ledger.record_call(self.stage, request.role, response)
        return response

    def _complete_parsed(
        self, what: str, role: Role, prompt: str, payload: dict, parse: Callable[[str], T],
        *, salt: str = "",
    ) -> T:
        """Complete until ``parse`` accepts a reply (it raises ValidationError or
        ValueError on one it rejects), at most ``retry_limit`` times. Attempt 0
        sends ``salt`` and ``prompt``; attempt n sends ``{salt}|attempt{n}`` (just
        ``attempt{n}`` without a salt) and ``prompt`` plus a line that re-asks, so
        a live engine, which sees no salt, is not sent the request that failed again."""
        for attempt in range(self.retry_limit):
            attempt_salt, attempt_prompt = salt, prompt
            if attempt:
                attempt_salt = f"{salt}|attempt{attempt}" if salt else f"attempt{attempt}"
                reask = REASK_LINE.format(what=what, attempt=attempt + 1, limit=self.retry_limit)
                attempt_prompt = f"{prompt}\n\n{reask}"
            reply = self._complete(role, attempt_prompt, payload, attempt_salt)
            try:
                return parse(reply)
            except (ValidationError, ValueError) as exc:
                logger.warning("%s reply unparseable (attempt %d): %s", what, attempt + 1, exc)
        raise EngineError(f"{what} failed after {self.retry_limit} attempts")

    # -- roles -------------------------------------------------------------

    def generate_queries(self, topic: TopicBrief, m: int) -> list[str]:
        """Produce exactly m distinct non-empty query strings for a topic; a
        re-ask adds to the distinct queries that earlier replies gave."""
        prompt = render_prompt(Role.QUERY_GEN, topic=topic.topic, strategy_text=topic.strategy_text, m=str(m))
        collected: dict[str, None] = {}  # distinct queries in the order they came

        def parse(reply: str) -> list[str]:
            for line in reply.splitlines():
                query = line.strip().lstrip("-*0123456789. ").strip()
                if query:
                    collected.setdefault(query)
            if len(collected) < m:
                raise ValidationError(f"{len(collected)} of {m} distinct queries so far")
            return list(collected)[:m]

        return self._complete_parsed("query generation", Role.QUERY_GEN, prompt, {"topic": topic, "m": m}, parse)

    def extract_theme(self, docs: Sequence[SourceDocument], topic: str) -> TopicBrief:
        """Derive an ad-strategy brief from the competitor document set."""
        prompt = render_prompt(
            Role.THEME_EXTRACT, doc_count=str(len(docs)), docs_text=format_source_documents(docs)
        )
        strategy = self._complete_parsed(
            "theme extraction", Role.THEME_EXTRACT, prompt, {"docs": list(docs), "topic": topic},
            lambda reply: _non_empty(reply).strip(),
        )
        if len(strategy.split()) > BRIEF_WORD_LIMIT:
            logger.warning("ad strategy brief exceeds %d words (soft limit)", BRIEF_WORD_LIMIT)
        return TopicBrief(topic=topic, strategy_text=strategy)

    def extract_features(self, page: SourceDocument) -> FeatureVector:
        """Rate a page along the 13 catalog features; replies are clamped into range."""
        prompt = render_prompt(
            Role.FEATURE_EXTRACT,
            feature_definitions=format_feature_definitions(self.catalog),
            page_text=page.text,
        )
        return self._complete_parsed(
            "feature extraction", Role.FEATURE_EXTRACT, prompt, {"doc": page},
            lambda reply: vector_from_mapping(_parse_numbers(reply, self.catalog.keys()), self.catalog),
        )

    def generate_page(self, brief: TopicBrief, guidelines: tuple[str, ...], salt: str = "") -> str:
        """Realize a feature configuration (as rendered guideline lines) into page text; a salt asks for a fresh one."""
        prompt = render_prompt(
            Role.PAGE_GEN, ad_theme=brief.strategy_text, guidelines=guidelines_text(guidelines, self.catalog)
        )
        return self._complete_parsed(
            "page generation", Role.PAGE_GEN, prompt, {"brief": brief, "guidelines": guidelines},
            _non_empty, salt=salt,
        )

    def answer_query(self, query: str, docs: Sequence[SourceDocument], salt: str = "") -> str:
        """Synthesize a cited answer for a query over the given sources."""
        prompt = render_prompt(
            Role.ANSWER_GEN, query=query, source_text=format_source_documents(docs)
        )
        return self._complete_parsed(
            "answer generation", Role.ANSWER_GEN, prompt, {"query": query, "docs": list(docs), "salt": salt},
            _non_empty, salt=salt,
        )

    def judge_quality(self, answer_or_page: str, query: str, salt: str = "") -> tuple[int, ...]:
        """Score a text on the seven quality dimensions (integers 1..5, ``ALL_DIMENSIONS`` order)."""
        prompt = render_prompt(Role.JUDGE, query=query, answer_text=answer_or_page)
        return self._complete_parsed(
            "quality judging", Role.JUDGE, prompt, {"text": answer_or_page, "query": query},
            lambda reply: parse_dimensions(_parse_numbers(reply, ALL_DIMENSIONS)),
            salt=salt,
        )
