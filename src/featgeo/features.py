"""The 13-feature page catalog: bounded vectors and guideline-text rendering.

Pages are described by 13 bounded real-valued properties organized in three semantic layers (Structure,
Content, Language). A vector over these features is the decision variable of the optimizer; rendering
turns it into writing directives that steer LLM page generation, and the feature definitions tell the
extraction prompt what each kind's scale means when a page is read. A vector and its key-value record
convert both ways (``feature_record``, ``vector_from_mapping``); reading or writing any text form of a
record is left to its format's owner.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, le, sub, truediv
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

logger = logging.getLogger(__name__)

LAYER_STRUCTURE = "Structure"
LAYER_CONTENT = "Content"
LAYER_LANGUAGE = "Language"
LAYERS = (LAYER_STRUCTURE, LAYER_CONTENT, LAYER_LANGUAGE)

KIND_BOOLEAN = "boolean"
KIND_TIERED = "tiered"
KIND_DENSITY = "density"
KIND_RANGES = {KIND_BOOLEAN: (0.0, 1.0), KIND_TIERED: (1.0, 3.0), KIND_DENSITY: (0.0, 3.0)}

TIER_NAMES = ("low", "medium", "high")
# Equal-width bands over [1, 3].
TIER_LOW_UPPER = 5.0 / 3.0
TIER_MEDIUM_UPPER = 7.0 / 3.0
# What a faithful writer realizes from each band's directive: the band's middle.
TIER_MIDDLES = (4.0 / 3.0, 2.0, 8.0 / 3.0)

BOOLEAN_THRESHOLD = 0.5

# Directive pair for the single boolean feature (omit, include).
INTRO_OMIT_DIRECTIVE = (
    "Do not open with an introductory summary; start directly with the main content."
)
INTRO_INCLUDE_DIRECTIVE = "Open with a brief introductory summary paragraph."


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 always rounding up."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FeatureDefinition:
    """One catalog entry: identity, layer, kind (which fixes the bounds), and rendering material."""

    key: str
    layer: str
    kind: str
    tier_directives: tuple[str, str, str] | None = None
    density_label: str | None = None

    @property
    def lo(self) -> float:
        return KIND_RANGES[self.kind][0]

    @property
    def hi(self) -> float:
        return KIND_RANGES[self.kind][1]


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered, immutable collection of the 13 feature definitions.

    The bounds are derived once, as the per-feature tuples ``lows``, ``highs``
    and ``widths``, for the per-candidate paths (clamp, normalized_values).
    So is ``realized``: per feature, a dict from each directive the renderer
    can emit to the value a faithful writer realizes from it (realized_vector).
    """

    features: tuple[FeatureDefinition, ...]

    def __post_init__(self):
        object.__setattr__(self, "lows", tuple(f.lo for f in self.features))
        object.__setattr__(self, "highs", tuple(f.hi for f in self.features))
        object.__setattr__(self, "widths", tuple(f.hi - f.lo for f in self.features))
        density_scale = KIND_RANGES[KIND_DENSITY][1]
        grids = {KIND_BOOLEAN: (0.0, 1.0), KIND_TIERED: TIER_MIDDLES,
                 KIND_DENSITY: tuple(density_scale * pct / 100.0 for pct in range(101))}
        object.__setattr__(self, "realized", tuple(
            {_directive(f, value): value for value in grids[f.kind]} for f in self.features))

    def __iter__(self):
        return iter(self.features)

    def keys(self) -> tuple[str, ...]:
        return tuple(f.key for f in self.features)

    def index_of(self, key: str) -> int:
        for i, f in enumerate(self.features):
            if f.key == key:
                return i
        raise ValidationError(f"unknown feature key {key!r}; known keys: {', '.join(self.keys())}")

    def midpoint_values(self) -> tuple[float, ...]:
        return tuple((f.lo + f.hi) / 2.0 for f in self.features)


@dataclass(frozen=True)
class FeatureVector:
    """13 real values aligned to catalog order."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 13:
            raise ValidationError(f"feature vector must hold 13 values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(map(float, self.values)))

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def _tiered(key: str, layer: str, low: str, medium: str, high: str) -> FeatureDefinition:
    return FeatureDefinition(key, layer, KIND_TIERED, tier_directives=(low, medium, high))


def _density(key: str, layer: str, label: str) -> FeatureDefinition:
    return FeatureDefinition(key, layer, KIND_DENSITY, density_label=label)


@lru_cache(maxsize=1)
def catalog_default() -> FeatureCatalog:
    """Build the canonical 13-feature catalog.

    Order is fixed and documented: indices 0-3 Structure, 4-8 Content,
    9-12 Language. All serialized artifacts use this order.
    """
    return FeatureCatalog((
        FeatureDefinition("has_intro_summary", LAYER_STRUCTURE, KIND_BOOLEAN),
        _tiered(
            "headings_level", LAYER_STRUCTURE,
            "Use minimal headings: a single title and at most one subheading.",
            "Organize the article under a handful of clear section headings.",
            "Use a rich heading hierarchy with multiple levels of subheadings throughout.",
        ),
        _density("list_density", LAYER_STRUCTURE, "bullet-point and numbered lists"),
        _tiered(
            "length_level", LAYER_STRUCTURE,
            "Keep the article short, around 300 words.",
            "Write a medium-length article of roughly 600 words.",
            "Write a long-form article of 1000 words or more, covering the topic in depth.",
        ),
        _density("statistics_level", LAYER_CONTENT, "data, statistics, and percentages"),
        _density("cite_sources_level", LAYER_CONTENT,
                 "references to authoritative sources, institutions, or reports"),
        _density("quotation_level", LAYER_CONTENT,
                 "quotations from experts or authoritative figures"),
        _density("unique_info_level", LAYER_CONTENT, "unique, differentiated information"),
        _density("technical_terms_level", LAYER_CONTENT,
                 "professional and technical terminology"),
        _density("authoritative_level", LAYER_LANGUAGE,
                 "authoritative tone and assertive phrasing"),
        _tiered(
            "easy_to_understand_level", LAYER_LANGUAGE,
            "Assume an expert reader; do not simplify explanations.",
            "Balance accessibility and precision; briefly explain specialist ideas.",
            "Use plain, simple language a general reader can follow without background knowledge.",
        ),
        _tiered(
            "fluency_level", LAYER_LANGUAGE,
            "Favor short declarative sentences; plain transitions are acceptable.",
            "Write with smooth transitions and coherent flow between sentences.",
            "Polish the prose until it reads effortlessly, with seamless transitions and varied rhythm.",
        ),
        _tiered(
            "keyword_focus_level", LAYER_LANGUAGE,
            "Mention the core keywords only where they arise naturally.",
            "Repeat the core keywords regularly across sections.",
            "Keep the core keywords prominent throughout, repeating them in headings and key sentences.",
        ),
    ))


def clamp(v: FeatureVector, c: FeatureCatalog) -> FeatureVector:
    """Project every value into its feature's [lo, hi] range. Idempotent: a
    vector already in range comes back as the same object."""
    if all(map(le, c.lows, v.values)) and all(map(le, v.values, c.highs)):
        return v  # no NaN or inf passes both comparisons
    if not all(map(math.isfinite, v.values)):
        value, feat = next((value, feat) for value, feat in zip(v.values, c) if not math.isfinite(value))
        raise ValidationError(f"non-finite value for feature {feat.key!r}: {value!r}")
    return FeatureVector(tuple(map(min, map(max, v.values, c.lows), c.highs)))


def tier_of(value: float) -> str:
    """Map a tiered-feature value in [1, 3] to its band name."""
    if value < TIER_LOW_UPPER:
        return "low"
    if value < TIER_MEDIUM_UPPER:
        return "medium"
    return "high"


def density_percent(value: float) -> int:
    """Linear map of a density value in [0, 3] to a whole percentage."""
    return round_half_up(100.0 * value / KIND_RANGES[KIND_DENSITY][1])


def _directive(feat: FeatureDefinition, value: float) -> str:
    """The writing directive for one feature's in-range value: the boolean's include/omit directive
    at threshold 0.5, a tiered feature's band directive, or a density feature's target percentage."""
    if feat.kind == KIND_BOOLEAN:
        return INTRO_INCLUDE_DIRECTIVE if value >= BOOLEAN_THRESHOLD else INTRO_OMIT_DIRECTIVE
    if feat.kind == KIND_TIERED:
        return feat.tier_directives[TIER_NAMES.index(tier_of(value))]
    return f"Target a {density_percent(value)}% density of {feat.density_label} (0% = none, 100% = saturated)."


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


def render_guidelines(v: FeatureVector, c: FeatureCatalog) -> tuple[str, ...]:
    """Render one writing directive per feature for a clamped vector, in catalog order."""
    return tuple(map(_directive, c, v.values))


def realized_vector(lines: Sequence[str], c: FeatureCatalog) -> FeatureVector:
    """The vector a faithful writer realizes from directives that ``render_guidelines`` rendered
    over ``c``: 0 or 1, a tier's band middle, or the stated percent of the density range.
    A line the renderer cannot emit raises KeyError."""
    return FeatureVector(tuple(map(getitem, c.realized, lines)))


def guidelines_text(lines: Sequence[str], c: FeatureCatalog) -> str:
    """Group rendered lines under their catalog layer headers for prompt embedding."""
    out: list[str] = []
    for layer in LAYERS:
        out.append(f"{layer}:")
        out.extend(f"- {line}" for line, feat in zip(lines, c) if feat.layer == layer)
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def vector_from_mapping(record: Mapping[str, float], c: FeatureCatalog) -> FeatureVector:
    """Build a vector from a record of numbers over exactly the 13 catalog keys; inverse of feature_record.

    Out-of-range values are clamped into range by :func:`clamp` and listed in
    one WARNING log line. Missing or unknown keys and non-finite values raise.
    """
    known = set(c.keys())
    got = set(record)
    missing = sorted(known - got)
    unknown = sorted(got - known)
    if missing:
        raise ValidationError(f"record is missing feature keys: {', '.join(missing)}")
    if unknown:
        raise ValidationError(f"record has unknown feature keys: {', '.join(unknown)}")
    vector = FeatureVector(tuple(record[feat.key] for feat in c))
    clamped = clamp(vector, c)  # a non-finite value raises here, before any warning
    violations = [f"{f.key}={v!r} outside [{f.lo}, {f.hi}]" for f, v in zip(c, vector.values) if not f.lo <= v <= f.hi]
    if violations:
        logger.warning("clamped out-of-range feature values: %s", "; ".join(violations))
    return clamped


def feature_record(values: Iterable[float], c: FeatureCatalog) -> dict[str, float]:
    """The key-value record of a vector's values, in catalog order."""
    return {feat.key: v for feat, v in zip(c, values)}


def normalized_values(v: FeatureVector, c: FeatureCatalog) -> tuple[float, ...]:
    """Each value mapped to [0, 1] within its feature range."""
    return tuple(map(truediv, map(sub, v.values, c.lows), c.widths))
