"""Aggregation of judge-scored quality dimensions into a scalar objective.

A judge scores seven dimensions from 1 to 5: four content dimensions and
three appeal dimensions. Scores normalize onto [0, 1], average within each
group, and blend with a configurable weight alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ValidationError
from .features import round_half_up

CONTENT_DIMENSIONS = ("fluency", "usefulness", "credibility", "structure")
APPEAL_DIMENSIONS = ("uniqueness", "attractiveness", "influence")
ALL_DIMENSIONS = CONTENT_DIMENSIONS + APPEAL_DIMENSIONS


@dataclass(frozen=True)
class QualityDimensions:
    """Seven raw judge scores, each an integer in 1..5."""

    fluency: int
    usefulness: int
    credibility: int
    structure: int
    uniqueness: int
    attractiveness: int
    influence: int

    def __post_init__(self):
        for name in ALL_DIMENSIONS:
            score = getattr(self, name)
            if not isinstance(score, int) or isinstance(score, bool) or not 1 <= score <= 5:
                raise ValidationError(f"dimension {name!r} must be an integer in [1, 5], got {score!r}")

    @classmethod
    def from_raw(cls, scores: Mapping[str, float]) -> "QualityDimensions":
        """Build from possibly fractional judge output; rounds half-up, then validates."""
        missing = [d for d in ALL_DIMENSIONS if d not in scores]
        if missing:
            raise ValidationError(f"missing quality dimensions: {', '.join(missing)}")
        extra = sorted(set(scores) - set(ALL_DIMENSIONS))
        if extra:
            raise ValidationError(f"unknown quality dimensions: {', '.join(extra)}")
        values = {d: float(scores[d]) for d in ALL_DIMENSIONS}
        for d, value in values.items():
            if not math.isfinite(value):
                raise ValidationError(f"dimension {d!r} must be a finite score, got {value!r}")
        return cls(**{d: round_half_up(value) for d, value in values.items()})

    def content_scores(self) -> tuple[int, ...]:
        return tuple(getattr(self, d) for d in CONTENT_DIMENSIONS)

    def appeal_scores(self) -> tuple[int, ...]:
        return tuple(getattr(self, d) for d in APPEAL_DIMENSIONS)


@dataclass(frozen=True)
class QualityConfig:
    """Blend weight and judge-repeat count for quality scoring."""

    alpha: float = 0.5
    repeats: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")


def _normalize(score: int) -> float:
    return (score - 1) / 4.0


def aggregate_quality(d: QualityDimensions, cfg: QualityConfig) -> float:
    """Blend normalized content and appeal means into a percent score."""
    content_part = 100.0 * sum(_normalize(s) for s in d.content_scores()) / len(CONTENT_DIMENSIONS)
    appeal_part = 100.0 * sum(_normalize(s) for s in d.appeal_scores()) / len(APPEAL_DIMENSIONS)
    return cfg.alpha * content_part + (1.0 - cfg.alpha) * appeal_part
