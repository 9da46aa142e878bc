"""Shared request/response and document types for generative-engine access."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping


class Role(str, Enum):
    """The six engine roles the pipeline relies on."""

    QUERY_GEN = "QueryGen"
    THEME_EXTRACT = "ThemeExtract"
    FEATURE_EXTRACT = "FeatureExtract"
    PAGE_GEN = "PageGen"
    ANSWER_GEN = "AnswerGen"
    JUDGE = "Judge"


class Stage(str, Enum):
    """Cost-accounting stages of one optimization run, declared in the order cost.json and its table list them."""

    FEATURE_EXTRACTION = "Feature Extraction"
    INITIAL_POPULATION = "Initial Population"
    GA_OPTIMIZATION = "GA Optimization"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_to_int(text: str) -> int:
    """Stable 64-bit integer digest (for seeding random streams)."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def estimate_tokens(text: str) -> int:
    """ceil(chars / 4); used when a backend reports no usage metadata."""
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class EngineRequest:
    """One prompt-level request to a generative engine.

    ``payload`` carries the structured inputs the prompt was rendered from so
    that simulated backends can act on them directly; it never participates in
    the cache key, which is a digest of (role, salt, prompt); ``EngineClient``
    scopes that digest to its backend's identity and the template set.
    """

    role: Role
    prompt: str
    cache_key: str
    payload: Mapping[str, Any] | None = field(default=None, compare=False, repr=False)


def build_request(
    role: Role, prompt: str, salt: str = "", payload: Mapping[str, Any] | None = None
) -> EngineRequest:
    cache_key = text_digest(f"{role.value}\x1f{salt}\x1f{prompt}")
    return EngineRequest(role, prompt, cache_key, payload)


@dataclass(frozen=True)
class EngineResponse:
    """Engine reply text plus usage accounting."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    usage_estimated: bool = False
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class SourceDocument:
    """One candidate source page, identified by its 1-based index."""

    id: int
    text: str


@dataclass(frozen=True)
class TopicBrief:
    """A topic label plus the ad-strategy brief generated for it."""

    topic: str
    strategy_text: str
