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


def parse_dimensions(scores: Mapping[str, float]) -> tuple[int, ...]:
    """Seven judge scores in ``ALL_DIMENSIONS`` order, from possibly fractional
    judge output: rounded half-up, each then an integer in 1..5."""
    missing = [d for d in ALL_DIMENSIONS if d not in scores]
    if missing:
        raise ValidationError(f"missing quality dimensions: {', '.join(missing)}")
    dims = []
    for d in ALL_DIMENSIONS:
        value = float(scores[d])
        if not math.isfinite(value):
            raise ValidationError(f"dimension {d!r} must be a finite score, got {value!r}")
        score = round_half_up(value)
        if not 1 <= score <= 5:
            raise ValidationError(f"dimension {d!r} must be an integer in [1, 5], got {score!r}")
        dims.append(score)
    return tuple(dims)


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


def aggregate_quality(dims: tuple[int, ...], cfg: QualityConfig) -> float:
    """Blend normalized content and appeal means of seven scores (``ALL_DIMENSIONS`` order) into a percent."""
    content_part = 100.0 * sum(_normalize(s) for s in dims[:4]) / len(CONTENT_DIMENSIONS)
    appeal_part = 100.0 * sum(_normalize(s) for s in dims[4:]) / len(APPEAL_DIMENSIONS)
    return cfg.alpha * content_part + (1.0 - cfg.alpha) * appeal_part
