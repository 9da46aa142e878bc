"""The 13-feature page catalog: bounded vectors and guideline-text rendering.

Pages are described by 13 bounded real-valued properties organized in three
semantic layers (Structure, Content, Language). A vector over these features is
the decision variable of the optimizer; rendering turns it into qualitative
writing directives that steer LLM page generation.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import ValidationError

logger = logging.getLogger(__name__)

LAYER_STRUCTURE = "Structure"
LAYER_CONTENT = "Content"
LAYER_LANGUAGE = "Language"
LAYERS = (LAYER_STRUCTURE, LAYER_CONTENT, LAYER_LANGUAGE)

KIND_BOOLEAN = "boolean"
KIND_TIERED = "tiered"
KIND_DENSITY = "density"

TIER_NAMES = ("low", "medium", "high")
# Equal-width bands over [1, 3].
TIER_LOW_UPPER = 5.0 / 3.0
TIER_MEDIUM_UPPER = 7.0 / 3.0

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
    """One catalog entry: identity, layer, bounds, and rendering material."""

    key: str
    layer: str
    lo: float
    hi: float
    kind: str
    tier_directives: tuple[str, str, str] | None = None
    density_label: str | None = None

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValidationError(f"unknown layer {self.layer!r} for feature {self.key!r}")
        if not self.lo < self.hi:
            raise ValidationError(f"feature {self.key!r}: lo must be < hi")
        if self.lo not in (0.0, 1.0) or self.hi not in (1.0, 3.0):
            raise ValidationError(f"feature {self.key!r}: bounds must come from {{0,1}} x {{1,3}}")
        bounds = (self.lo, self.hi)
        if self.kind == KIND_BOOLEAN:
            if bounds != (0.0, 1.0):
                raise ValidationError(f"boolean feature {self.key!r} must span [0, 1]")
        elif self.kind == KIND_TIERED:
            if bounds != (1.0, 3.0):
                raise ValidationError(f"tiered feature {self.key!r} must span [1, 3]")
            if self.tier_directives is None or len(self.tier_directives) != 3:
                raise ValidationError(f"tiered feature {self.key!r} needs 3 tier directives")
        elif self.kind == KIND_DENSITY:
            if bounds != (0.0, 3.0):
                raise ValidationError(f"density feature {self.key!r} must span [0, 3]")
            if not self.density_label:
                raise ValidationError(f"density feature {self.key!r} needs a density label")
        else:
            raise ValidationError(f"unknown feature kind {self.kind!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered, immutable collection of exactly 13 feature definitions."""

    features: tuple[FeatureDefinition, ...]

    def __post_init__(self):
        if len(self.features) != 13:
            raise ValidationError(f"catalog must hold exactly 13 features, got {len(self.features)}")
        keys = [f.key for f in self.features]
        if len(set(keys)) != len(keys):
            raise ValidationError("catalog feature keys must be unique")
        layer_counts = {layer: 0 for layer in LAYERS}
        for f in self.features:
            layer_counts[f.layer] += 1
        expected = {LAYER_STRUCTURE: 4, LAYER_CONTENT: 5, LAYER_LANGUAGE: 4}
        if layer_counts != expected:
            raise ValidationError(f"catalog layer counts {layer_counts} != {expected}")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def keys(self) -> tuple[str, ...]:
        return tuple(f.key for f in self.features)

    def index_of(self, key: str) -> int:
        for i, f in enumerate(self.features):
            if f.key == key:
                return i
        raise ValidationError(f"unknown feature key {key!r}; known keys: {', '.join(self.keys())}")

    def definition(self, key: str) -> FeatureDefinition:
        return self.features[self.index_of(key)]

    def midpoint_values(self) -> tuple[float, ...]:
        return tuple((f.lo + f.hi) / 2.0 for f in self.features)


@dataclass(frozen=True)
class FeatureVector:
    """13 real values aligned to catalog order."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 13:
            raise ValidationError(f"feature vector must hold 13 values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def replace(self, index: int, value: float) -> "FeatureVector":
        vals = list(self.values)
        vals[index] = float(value)
        return FeatureVector(tuple(vals))


@dataclass(frozen=True)
class GuidelineBlock:
    """Rendered writing directives, one line per feature in catalog order."""

    lines: tuple[str, ...]
    layers: tuple[str, ...]

    def __post_init__(self):
        if len(self.lines) != len(self.layers):
            raise ValidationError("guideline lines and layers must align")
        if any(not line for line in self.lines):
            raise ValidationError("guideline lines must be non-empty")

    def as_text(self) -> str:
        """Group lines under their layer headers for prompt embedding."""
        out: list[str] = []
        for layer in LAYERS:
            out.append(f"{layer}:")
            out.extend(f"- {line}" for line, lay in zip(self.lines, self.layers) if lay == layer)
            out.append("")
        return "\n".join(out).rstrip() + "\n"


def _tiered(key: str, layer: str, low: str, medium: str, high: str) -> FeatureDefinition:
    return FeatureDefinition(key, layer, 1.0, 3.0, KIND_TIERED, tier_directives=(low, medium, high))


def _density(key: str, layer: str, label: str) -> FeatureDefinition:
    return FeatureDefinition(key, layer, 0.0, 3.0, KIND_DENSITY, density_label=label)


@lru_cache(maxsize=1)
def catalog_default() -> FeatureCatalog:
    """Build the canonical 13-feature catalog.

    Order is fixed and documented: indices 0-3 Structure, 4-8 Content,
    9-12 Language. All serialized artifacts use this order.
    """
    return FeatureCatalog((
        FeatureDefinition("has_intro_summary", LAYER_STRUCTURE, 0.0, 1.0, KIND_BOOLEAN),
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
    """Project every value into its feature's [lo, hi] range. Idempotent."""
    clamped = []
    for value, feat in zip(v.values, c):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value for feature {feat.key!r}: {value!r}")
        clamped.append(min(max(value, feat.lo), feat.hi))
    return FeatureVector(tuple(clamped))


def tier_of(value: float) -> str:
    """Map a tiered-feature value in [1, 3] to its band name."""
    if value < TIER_LOW_UPPER:
        return "low"
    if value < TIER_MEDIUM_UPPER:
        return "medium"
    return "high"


def density_percent(value: float) -> int:
    """Linear map of a density value in [0, 3] to a whole percentage."""
    return round_half_up(100.0 * value / 3.0)


def _density_line(feat: FeatureDefinition, value: float) -> str:
    pct = density_percent(value)
    return f"Target a {pct}% density of {feat.density_label} (0% = none, 100% = saturated)."


def render_guidelines(v: FeatureVector, c: FeatureCatalog) -> GuidelineBlock:
    """Render one writing directive per feature for a clamped vector.

    Boolean features include/omit their directive at threshold 0.5, tiered
    features emit the directive of their band, and density features state a
    target density percentage.
    """
    lines: list[str] = []
    layers: list[str] = []
    for value, feat in zip(v.values, c):
        if feat.kind == KIND_BOOLEAN:
            line = INTRO_INCLUDE_DIRECTIVE if value >= BOOLEAN_THRESHOLD else INTRO_OMIT_DIRECTIVE
        elif feat.kind == KIND_TIERED:
            line = feat.tier_directives[TIER_NAMES.index(tier_of(value))]
        else:
            line = _density_line(feat, value)
        lines.append(line)
        layers.append(feat.layer)
    return GuidelineBlock(tuple(lines), tuple(layers))


def vector_from_mapping(
    record: Mapping[str, float], c: FeatureCatalog, lenient: bool = False
) -> FeatureVector:
    """Build a vector from a key-value record over exactly the 13 catalog keys.

    Out-of-range values raise unless ``lenient``, in which case they are
    clamped into range by :func:`clamp` and listed in one WARNING log line.
    Missing or unknown keys always raise.
    """
    known = set(c.keys())
    got = set(record)
    missing = sorted(known - got)
    unknown = sorted(got - known)
    if missing:
        raise ValidationError(f"record is missing feature keys: {', '.join(missing)}")
    if unknown:
        raise ValidationError(f"record has unknown feature keys: {', '.join(unknown)}")
    values = []
    violations = []
    for feat in c:
        raw = record[feat.key]
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ValidationError(f"feature {feat.key!r} has non-numeric value {raw!r}")
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value for feature {feat.key!r}: {value!r}")
        if not feat.lo <= value <= feat.hi:
            violations.append(f"{feat.key}={value!r} outside [{feat.lo}, {feat.hi}]")
        values.append(value)
    if violations:
        if not lenient:
            raise ValidationError("out-of-range feature values: " + "; ".join(violations))
        logger.warning("clamped out-of-range feature values: %s", "; ".join(violations))
    return clamp(FeatureVector(tuple(values)), c)


def encode_vector(v: FeatureVector, c: FeatureCatalog) -> str:
    """Serialize a vector as a single-line JSON record in canonical key order."""
    return json.dumps({feat.key: value for feat, value in zip(c, v.values)})


def decode_vector(text: str, c: FeatureCatalog, lenient: bool = False) -> FeatureVector:
    """Parse a key-value JSON record back into a vector; inverse of encode_vector."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"vector record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError("vector record must be a JSON object")
    return vector_from_mapping(record, c, lenient=lenient)


def normalized_values(v: FeatureVector, c: FeatureCatalog) -> tuple[float, ...]:
    """Each value mapped to [0, 1] within its feature range."""
    return tuple((value - f.lo) / f.width for value, f in zip(v.values, c))
