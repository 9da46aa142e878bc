"""Role-typed gateway to a generative engine.

The client renders prompts from the versioned templates, routes them through a
pluggable backend, caches replies by request digest, validates and parses the
replies per role (with bounded retries), and books every interaction into the
cost ledger under the currently active pipeline stage.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from ..errors import EngineError, ValidationError
from ..features import (
    KIND_BOOLEAN, KIND_TIERED, FeatureCatalog, FeatureVector, GuidelineBlock, vector_from_mapping,
)
from ..quality import ALL_DIMENSIONS, QualityDimensions
from .cache import ResponseCache
from .ledger import CostLedger
from .templates import render_prompt
from .types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    Stage,
    TopicBrief,
    build_request,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

DEFAULT_RETRY_LIMIT = 3
DEFAULT_MAX_ANSWER_DOCS = 6
DEFAULT_THEME_DOC_COUNT = 5
BRIEF_WORD_LIMIT = 200


class EngineBackend(Protocol):
    """Anything that can answer one prompt-level engine request."""

    def complete(self, request: EngineRequest) -> EngineResponse: ...


def format_feature_definitions(catalog: FeatureCatalog) -> str:
    """Human-readable property list embedded in the feature-extraction prompt."""
    lines = []
    for feat in catalog:
        if feat.kind == KIND_BOOLEAN:
            detail = "1 if present, 0 if absent"
        elif feat.kind == KIND_TIERED:
            detail = "1 = low, 2 = medium, 3 = high"
        else:
            detail = f"density of {feat.density_label}, 0 = none, 3 = saturated"
        lines.append(f"- {feat.key} ({feat.layer}; range {feat.lo:g} to {feat.hi:g}): {detail}")
    return "\n".join(lines)


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

    def __init__(
        self,
        backend: EngineBackend,
        catalog: FeatureCatalog,
        *,
        cache: ResponseCache | None = None,
        ledger: CostLedger | None = None,
        salt: str = "",
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        max_answer_docs: int = DEFAULT_MAX_ANSWER_DOCS,
        theme_doc_count: int = DEFAULT_THEME_DOC_COUNT,
    ):
        self.backend = backend
        self.catalog = catalog
        self.cache = cache
        self.ledger = ledger if ledger is not None else CostLedger()
        self.salt = salt
        self.retry_limit = retry_limit
        self.max_answer_docs = max_answer_docs
        self.theme_doc_count = theme_doc_count
        self.stage = Stage.FEATURE_EXTRACTION
        self._key_locks: dict[str, threading.Lock] = {}  # one per cache key asked for
        self._key_locks_lock = threading.Lock()

    def set_stage(self, stage: Stage) -> None:
        """Book later calls under ``stage``; set it only while no call is in flight."""
        self.stage = stage

    # -- transport ---------------------------------------------------------

    def _complete(self, role: Role, prompt: str, payload: dict | None, salt: str) -> str:
        """Reply text for one request, from the cache when it holds the reply.

        With a cache, identical requests are single-flight: a caller whose
        request is already in flight waits for that call and then reads its
        reply as a cache hit, as it would had the calls run one after another.
        If the call fails, the next waiter makes its own call.
        """
        request = build_request(role, prompt, salt=f"{self.salt}\x1f{salt}", payload=payload)
        if self.cache is None:
            return self._call(request).text
        key = request.cache_key
        with self._key_locks_lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            hit = self.cache.get(key)
            if hit is not None:
                self.ledger.record_call(self.stage, role, hit, cached=True)
                return hit.text
            response = self._call(request)
            self.cache.put(key, role, response)
        return response.text

    def _call(self, request: EngineRequest) -> EngineResponse:
        """One backend call, booked in the ledger; any backend failure raises EngineError."""
        try:
            response = self.backend.complete(request)
        except EngineError:
            raise
        except Exception as exc:
            raise EngineError(f"{request.role.value} backend call failed: {exc}") from exc
        self.ledger.record_call(self.stage, request.role, response)
        return response

    def _complete_parsed(
        self, what: str, role: Role, prompt: str, payload: dict, parse: Callable[[str], T],
        *, salt: str = "", retry_prefix: str = "",
    ) -> T:
        """Complete until ``parse`` accepts a reply (it raises ValidationError or
        ValueError on one it rejects), at most ``retry_limit`` times. Attempt 0
        sends ``salt``; attempt n sends ``{retry_prefix}attempt{n}``."""
        reply = ""
        for attempt in range(self.retry_limit):
            attempt_salt = f"{retry_prefix}attempt{attempt}" if attempt else salt
            reply = self._complete(role, prompt, payload, attempt_salt)
            try:
                return parse(reply)
            except (ValidationError, ValueError) as exc:
                logger.warning("%s reply unparseable (attempt %d): %s", what, attempt + 1, exc)
        raise EngineError(f"{what} failed after {self.retry_limit} attempts", raw_reply=reply)

    # -- roles -------------------------------------------------------------

    def generate_queries(self, topic: TopicBrief, m: int) -> list[str]:
        """Produce exactly m distinct non-empty query strings for a topic."""
        if m < 1:
            raise ValidationError(f"query count must be >= 1, got {m}")
        prompt = render_prompt(
            Role.QUERY_GEN, topic=topic.topic, strategy_text=topic.strategy_text, m=str(m)
        )
        collected: list[str] = []
        seen: set[str] = set()
        for attempt in range(self.retry_limit):
            salt = f"attempt{attempt}" if attempt else ""
            reply = self._complete(
                Role.QUERY_GEN, prompt, {"topic": topic, "m": m, "attempt": attempt}, salt
            )
            for line in reply.splitlines():
                query = line.strip().lstrip("-*0123456789. ").strip()
                if query and query not in seen:
                    seen.add(query)
                    collected.append(query)
            if len(collected) >= m:
                return collected[:m]
            logger.warning(
                "query generation attempt %d yielded %d/%d distinct queries; retrying",
                attempt + 1, len(collected), m,
            )
        raise EngineError(
            f"could not obtain {m} distinct queries after {self.retry_limit} attempts "
            f"(got {len(collected)})"
        )

    def extract_theme(self, docs: Sequence[SourceDocument], topic: str) -> TopicBrief:
        """Derive an ad-strategy brief from the competitor document set."""
        if len(docs) != self.theme_doc_count:
            raise ValidationError(
                f"theme extraction expects exactly {self.theme_doc_count} documents, got {len(docs)}"
            )
        prompt = render_prompt(
            Role.THEME_EXTRACT, doc_count=str(len(docs)), docs_text=format_source_documents(docs)
        )
        reply = self._complete(Role.THEME_EXTRACT, prompt, {"docs": list(docs), "topic": topic}, "")
        strategy = reply.strip()
        if not strategy:
            raise EngineError("theme extraction returned an empty brief", raw_reply=reply)
        if len(strategy.split()) > BRIEF_WORD_LIMIT:
            logger.warning("ad strategy brief exceeds %d words (soft limit)", BRIEF_WORD_LIMIT)
        return TopicBrief(topic=topic, strategy_text=strategy)

    def extract_features(self, page: SourceDocument, catalog: FeatureCatalog | None = None) -> FeatureVector:
        """Rate a page along the 13 catalog features; replies are clamped into range."""
        catalog = catalog or self.catalog
        prompt = render_prompt(
            Role.FEATURE_EXTRACT,
            feature_definitions=format_feature_definitions(catalog),
            page_text=page.text,
        )
        return self._complete_parsed(
            "feature extraction", Role.FEATURE_EXTRACT, prompt, {"doc": page},
            lambda reply: vector_from_mapping(_parse_numbers(reply, catalog.keys()), catalog, lenient=True),
        )

    def generate_page(self, brief: TopicBrief, guidelines: GuidelineBlock) -> str:
        """Realize a feature configuration (as rendered guidelines) into page text."""
        if not guidelines.lines:
            raise ValidationError("guidelines must contain at least one line")
        prompt = render_prompt(
            Role.PAGE_GEN, ad_theme=brief.strategy_text, guidelines=guidelines.as_text()
        )
        return self._complete_parsed(
            "page generation", Role.PAGE_GEN, prompt, {"brief": brief, "guidelines": guidelines},
            _non_empty,
        )

    def answer_query(self, query: str, docs: Sequence[SourceDocument], salt: str = "") -> str:
        """Synthesize a cited answer for a query over the given sources."""
        if not query.strip():
            raise ValidationError("query must be non-empty")
        if not 1 <= len(docs) <= self.max_answer_docs:
            raise ValidationError(
                f"answer generation expects 1..{self.max_answer_docs} documents, got {len(docs)}"
            )
        ids = [d.id for d in docs]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"document ids must be unique, got {ids}")
        prompt = render_prompt(
            Role.ANSWER_GEN, query=query, source_text=format_source_documents(docs)
        )
        return self._complete(
            Role.ANSWER_GEN, prompt, {"query": query, "docs": list(docs), "salt": salt}, salt
        )

    def judge_quality(self, answer_or_page: str, query: str, salt: str = "") -> QualityDimensions:
        """Score a text on the seven quality dimensions (integers 1..5)."""
        if not answer_or_page.strip() or not query.strip():
            raise ValidationError("judge inputs must be non-empty")
        prompt = render_prompt(Role.JUDGE, query=query, answer_text=answer_or_page)
        return self._complete_parsed(
            "quality judging", Role.JUDGE, prompt, {"text": answer_or_page, "query": query},
            lambda reply: QualityDimensions.from_raw(_parse_numbers(reply, ALL_DIMENSIONS)),
            salt=salt, retry_prefix=f"{salt}|",
        )
