"""Deterministic simulated generative engine for offline end-to-end runs.

The simulator assigns every source page a latent feature vector and scores it
with a logistic-linear citation propensity; quality follows a linear term with
a subtracted propensity coupling, so visibility and quality trade off by
construction. Randomness enters only the per-sentence citation draw inside
answers, via streams seeded from (world seed, query, documents, salt), which
makes every output a pure function of its inputs. A brute-force grid oracle
exposes the exact Pareto front for comparison against the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .features import (
    FeatureCatalog,
    FeatureVector,
    GuidelineBlock,
    INTRO_INCLUDE_DIRECTIVE,
    KIND_BOOLEAN,
    KIND_TIERED,
    catalog_default,
    clamp,
    decode_vector,
    encode_vector,
    normalized_values,
)
from .optimizer import Individual, ParetoFront
from .quality import ALL_DIMENSIONS, QualityConfig, QualityDimensions, aggregate_quality
from .engine.types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    digest_to_int,
    estimate_tokens,
)

# Marker line that carries a page's latent feature record through the sim loop.
PROFILE_MARKER = "feature-profile:"

# Per-sentence citation softmax sharpness; small values make high-propensity
# sources dominate the draw.
SOFTMAX_TEMPERATURE = 0.1

# Staggered quantization offsets, one per quality dimension in canonical order.
_DIMENSION_OFFSETS = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)

# Tier band representatives used when reconstructing a vector from guidelines.
_TIER_VALUES = (4.0 / 3.0, 2.0, 8.0 / 3.0)

_FILLER_VOCAB = (
    "routine plan balance energy focus progress habit fuel recovery strength "
    "guidance budget timing variety portion mindset schedule quality choice "
    "detail research method benefit option level support result practice goal"
).split()

_QUERY_PATTERNS = (
    "How do I get started with {topic} {aspect}?",
    "What is the best approach to {aspect} for {topic}?",
    "Why does {aspect} matter in {topic}?",
    "Compare popular options for {topic} {aspect}.",
    "Common mistakes with {aspect} in {topic}?",
    "Is {aspect} worth it for {topic} beginners?",
)

_QUERY_ASPECTS = (
    "planning", "budgeting", "scheduling", "equipment", "tracking", "nutrition",
    "recovery", "motivation", "routines", "portions", "timing", "variety",
    "supplements", "progress", "measurement", "consistency", "meal prep",
    "shopping", "storage", "flavor", "protein", "hydration", "snacks", "habits",
)

_BRAND_FIRST = ("Peak", "Nova", "True", "Prime", "Ever")
_BRAND_SECOND = ("Path", "Forge", "Nest", "Line", "Craft")


@dataclass(frozen=True)
class SimConfig:
    """Ground-truth parameters of a simulated engine world."""

    seed: int
    visibility_weights: tuple[float, ...]
    visibility_bias: float
    quality_weights: tuple[float, ...]
    tradeoff_strength: float
    competitor_vectors: tuple[FeatureVector, ...] = ()
    noise_scale: float = 0.0

    def __post_init__(self):
        # Scalars are stored as floats, as the manifest's config snapshot has always recorded them.
        for name in ("visibility_bias", "tradeoff_strength", "noise_scale"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("visibility_weights", "quality_weights"):
            weights = getattr(self, name)
            if len(weights) != 13:
                raise ValidationError(f"{name} must hold 13 entries, got {len(weights)}")
            if not all(math.isfinite(w) for w in weights):
                raise ValidationError(f"{name} must be finite")
        if not math.isfinite(self.visibility_bias):
            raise ValidationError("visibility bias must be finite")
        if self.tradeoff_strength < 0:
            raise ValidationError(f"tradeoff strength must be >= 0, got {self.tradeoff_strength}")
        if self.noise_scale < 0:
            raise ValidationError(f"noise scale must be >= 0, got {self.noise_scale}")


class SimWorld:
    """A simulation config bound to a feature catalog, with derived source state.

    Each distinct document text is decoded once: ``_profiles`` maps a text to
    its embedded profile and that profile's propensity. Entries are pure
    functions of the text, so threads that fill the same key concurrently
    store equal values, and the map is bounded by the texts that carry a
    profile: the run's pages and competitor documents.
    """

    def __init__(self, config: SimConfig, catalog: FeatureCatalog | None = None):
        self.config = config
        self.catalog = catalog or catalog_default()
        self._vis_weights = np.asarray(config.visibility_weights, dtype=float)
        self._qual_weights = np.asarray(config.quality_weights, dtype=float)
        self.competitor_propensities = tuple(
            sim_propensity(v, self) for v in config.competitor_vectors
        )
        self._profiles: dict[str, tuple[FeatureVector, float] | None] = {}

    def profile_of(self, text: str) -> tuple[FeatureVector, float] | None:
        """A text's embedded profile and its propensity, or None without one."""
        if PROFILE_MARKER not in text:
            return None
        if text not in self._profiles:
            profile = extract_profile(text, self.catalog)
            self._profiles[text] = None if profile is None else (profile, sim_propensity(profile, self))
        return self._profiles[text]

    def source_state(self, doc: SourceDocument) -> tuple[FeatureVector, float]:
        """A document's latent vector and propensity, from its profile or its id."""
        entry = self.profile_of(doc.text)
        if entry is not None:
            return entry
        if 1 <= doc.id <= len(self.config.competitor_vectors):
            return self.config.competitor_vectors[doc.id - 1], self.competitor_propensities[doc.id - 1]
        raise ValidationError(
            f"document {doc.id} has no embedded feature profile and no configured latent vector"
        )

    def latent_for(self, doc: SourceDocument) -> FeatureVector:
        """Recover a document's latent vector from its embedded record or its id."""
        return self.source_state(doc)[0]


def extract_profile(text: str, catalog: FeatureCatalog) -> FeatureVector | None:
    """Parse the first embedded feature record line out of a page, if any."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(PROFILE_MARKER):
            return decode_vector(stripped[len(PROFILE_MARKER):].strip(), catalog, lenient=True)
    return None


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def sim_propensity(x: FeatureVector, w: SimWorld) -> float:
    """Citation propensity in (0, 1): logistic of a linear score over range-normalized features."""
    x_norm = np.asarray(normalized_values(x, w.catalog))
    return float(_logistic(x_norm @ w._vis_weights + w.config.visibility_bias))


def sim_quality_base(x: FeatureVector, w: SimWorld) -> float:
    """Continuous quality term before quantization: linear score minus the propensity coupling."""
    x_norm = np.asarray(normalized_values(x, w.catalog))
    return float(x_norm @ w._qual_weights - w.config.tradeoff_strength * sim_propensity(x, w))


def _dims_from_base(base) -> np.ndarray:
    """Affine map of the quality base onto seven integer dimensions in [1, 5]."""
    v = 3.0 + 2.0 * np.asarray(base, dtype=float)
    staggered = v[..., None] + np.asarray(_DIMENSION_OFFSETS)
    return np.clip(np.floor(staggered + 0.5), 1, 5).astype(int)


def sim_quality_dims(x: FeatureVector, w: SimWorld) -> QualityDimensions:
    """Deterministic judge ground truth for a page with latent vector x."""
    dims = _dims_from_base(sim_quality_base(x, w))
    return QualityDimensions(**{name: int(s) for name, s in zip(ALL_DIMENSIONS, dims)})


def _docs_digest(docs: Sequence[SourceDocument]) -> str:
    return "|".join(f"{d.id}:{d.text}" for d in docs)


def _stream(w: SimWorld, *parts: str) -> np.random.Generator:
    entropy = (w.config.seed,) + tuple(digest_to_int(p) for p in parts)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def sim_answer(
    query: str, docs: Sequence[SourceDocument], w: SimWorld, salt: str = ""
) -> str:
    """Generate a cited answer: K sentences, each citing one softmax-drawn source.

    K depends only on the query; the citation stream is seeded by
    (seed, query, documents, salt), so replays are exact.
    """
    if not docs:
        raise ValidationError("sim answer needs at least one document")
    propensities = np.array([w.source_state(d)[1] for d in docs])
    k_sentences = 4 + digest_to_int(query) % 7
    rng = _stream(w, query, _docs_digest(docs), salt)
    if w.config.noise_scale > 0:
        propensities = propensities + rng.normal(0.0, w.config.noise_scale, size=len(docs))
    logits = propensities / SOFTMAX_TEMPERATURE
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    # rng.choice(len(docs), p=weights) draws one uniform and bisects this cdf;
    # doing so directly skips choice's validation of p on every sentence.
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    sentences = []
    for _ in range(k_sentences):
        n_words = int(rng.integers(6, 15))
        words = [
            _FILLER_VOCAB[int(i)] for i in rng.integers(0, len(_FILLER_VOCAB), size=n_words)
        ]
        cited = docs[int(cdf.searchsorted(rng.random(), side="right"))].id
        sentences.append(f"{words[0].capitalize()} {' '.join(words[1:])} [{cited}].")
    return " ".join(sentences)


# -- brute-force oracle --------------------------------------------------------

BRUTE_FORCE_BUDGET = 10**6


def _evaluate_grid(
    matrix: np.ndarray, w: SimWorld, quality_cfg: QualityConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact objectives (visibility %, quality %) for rows of feature values."""
    lo = np.array([f.lo for f in w.catalog])
    width = np.array([f.width for f in w.catalog])
    x_norm = (matrix - lo) / width
    prop = _logistic(x_norm @ w._vis_weights + w.config.visibility_bias)
    base = x_norm @ w._qual_weights - w.config.tradeoff_strength * prop
    dims = _dims_from_base(base)
    normalized = (dims - 1) / 4.0
    content = 100.0 * normalized[:, :4].mean(axis=1)
    appeal = 100.0 * normalized[:, 4:].mean(axis=1)
    quality = quality_cfg.alpha * content + (1.0 - quality_cfg.alpha) * appeal
    return 100.0 * prop, quality


def brute_force_pareto(
    grid_levels: int,
    active_features: Sequence[str],
    w: SimWorld,
    quality_cfg: QualityConfig | None = None,
) -> ParetoFront:
    """Exact Pareto front over a grid of the active features.

    Inactive features sit at their range midpoints. Every grid point is
    evaluated in closed form (no citation noise), and the non-dominated set is
    found by a sort-and-sweep; exact objective ties collapse to the first point.
    """
    if grid_levels < 2:
        raise ValidationError(f"grid levels must be >= 2, got {grid_levels}")
    if not active_features:
        raise ValidationError("need at least one active feature")
    quality_cfg = quality_cfg or QualityConfig()
    indices = [w.catalog.index_of(key) for key in active_features]
    if len(set(indices)) != len(indices):
        raise ValidationError("active features must be distinct")
    total = grid_levels ** len(indices)
    if total > BRUTE_FORCE_BUDGET:
        raise BudgetError(
            f"grid of {total} points exceeds the {BRUTE_FORCE_BUDGET} evaluation budget"
        )

    matrix = np.tile(np.array(w.catalog.midpoint_values()), (total, 1))
    axes = [
        np.linspace(w.catalog.features[i].lo, w.catalog.features[i].hi, grid_levels)
        for i in indices
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    for column, grid in zip(indices, mesh):
        matrix[:, column] = grid.reshape(-1)

    vis, qual = _evaluate_grid(matrix, w, quality_cfg)
    order = np.lexsort((-qual, -vis))
    members: list[Individual] = []
    best_quality = -np.inf
    for idx in order:
        if qual[idx] > best_quality:
            best_quality = qual[idx]
            members.append(
                Individual(
                    x=FeatureVector(tuple(matrix[idx])),
                    objectives=(float(vis[idx]), float(qual[idx])),
                )
            )
    return ParetoFront(tuple(members))


def direct_evaluator(w: SimWorld, quality_cfg: QualityConfig | None = None):
    """Closed-form (visibility %, quality %) evaluator over the sim ground truth."""
    quality_cfg = quality_cfg or QualityConfig()

    def evaluate(x: FeatureVector, key=None) -> tuple[float, float]:
        score = aggregate_quality(sim_quality_dims(x, w), quality_cfg)
        return 100.0 * sim_propensity(x, w), score.value

    return evaluate


# -- guideline-to-vector realization model -------------------------------------


def reconstruct_from_guidelines(block: GuidelineBlock, catalog: FeatureCatalog) -> FeatureVector:
    """Invert rendered guidelines into the vector a faithful writer would realize.

    Density percentages invert almost exactly; tiered directives map to their
    band representative; the boolean maps to 0 or 1.
    """
    if len(block.lines) != len(catalog):
        raise ValidationError("guideline block does not match the catalog size")
    values = []
    for line, feat in zip(block.lines, catalog):
        if feat.kind == KIND_BOOLEAN:
            values.append(1.0 if line == INTRO_INCLUDE_DIRECTIVE else 0.0)
        elif feat.kind == KIND_TIERED:
            try:
                values.append(_TIER_VALUES[feat.tier_directives.index(line)])
            except ValueError:
                raise ValidationError(f"unrecognized tier directive for {feat.key!r}: {line!r}")
        else:
            pct = _parse_percent(line)
            if pct is None:
                raise ValidationError(f"no density percentage in directive for {feat.key!r}: {line!r}")
            values.append(3.0 * pct / 100.0)
    return clamp(FeatureVector(tuple(values)), catalog)


def _parse_percent(line: str) -> int | None:
    for token in line.split():
        if token.endswith("%") and token[:-1].isdigit():
            return int(token[:-1])
    return None


# -- engine backend -------------------------------------------------------------


class SimBackend:
    """Implements all six engine roles deterministically on top of a SimWorld."""

    def __init__(self, world: SimWorld):
        self.world = world
        self.catalog = world.catalog

    def complete(self, request: EngineRequest) -> EngineResponse:
        if request.payload is None:
            raise ValidationError(f"sim backend needs a structured payload for {request.role.value}")
        handler = {
            Role.QUERY_GEN: self._queries,
            Role.THEME_EXTRACT: self._theme,
            Role.FEATURE_EXTRACT: self._features,
            Role.PAGE_GEN: self._page,
            Role.ANSWER_GEN: self._answer,
            Role.JUDGE: self._judge,
        }[request.role]
        text = handler(request)
        prompt_tokens = estimate_tokens(request.prompt)
        completion_tokens = estimate_tokens(text)
        # Simulated wall time is a pure function of usage, keeping runs replayable.
        elapsed = (prompt_tokens + completion_tokens) / 5000.0
        return EngineResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            usage_estimated=True,
            elapsed_seconds=elapsed,
        )

    def _queries(self, request: EngineRequest) -> str:
        brief = request.payload["topic"]
        m = int(request.payload["m"])
        attempt = int(request.payload.get("attempt", 0))
        rng = _stream(self.world, "queries", brief.topic, brief.strategy_text, str(attempt))
        combos = [
            (pattern, aspect) for pattern in _QUERY_PATTERNS for aspect in _QUERY_ASPECTS
        ]
        order = rng.permutation(len(combos))
        lines = []
        for rank in range(m):
            pattern, aspect = combos[int(order[rank % len(combos)])]
            suffix = "" if rank < len(combos) else f" (v{rank // len(combos)})"
            lines.append(pattern.format(topic=brief.topic, aspect=aspect) + suffix)
        return "\n".join(lines)

    def _theme(self, request: EngineRequest) -> str:
        docs = request.payload["docs"]
        topic = request.payload["topic"]
        digest = digest_to_int(_docs_digest(docs))
        brand = _BRAND_FIRST[digest % 5] + _BRAND_SECOND[(digest // 5) % 5]
        return (
            f"Advertising direction: position {brand} as the practical companion for {topic}. "
            f"Product: {brand}, a subscription service with curated plans and weekly expert tips. "
            f"Key selling points: saves planning time, adapts to individual goals, backed by "
            f"specialist reviews. Persuasive angle: real progress comes from a system, not "
            f"willpower, and {brand} provides that system."
        )

    def _features(self, request: EngineRequest) -> str:
        doc = request.payload["doc"]
        latent = self.world.latent_for(doc)
        return "\n".join(f"{feat.key}: {value!r}" for feat, value in zip(self.catalog, latent.values))

    def _page(self, request: EngineRequest) -> str:
        brief = request.payload["brief"]
        guidelines: GuidelineBlock = request.payload["guidelines"]
        realized = reconstruct_from_guidelines(guidelines, self.catalog)
        record = encode_vector(realized, self.catalog)
        brand = brief.strategy_text.split("position ", 1)[-1].split(" ", 1)[0].rstrip(",.")
        length_value = realized.values[self.catalog.index_of("length_level")]
        paragraphs = 2 + int(length_value)
        body = []
        for p in range(paragraphs):
            body.append(
                f"{brand} helps with {brief.topic}: paragraph {p + 1} explains why {brand} "
                f"fits your routine and what results to expect. Act now and get started today."
            )
        return "\n\n".join(
            [f"Sponsored insights on {brief.topic} from {brand}.", f"{PROFILE_MARKER} {record}"]
            + body
        )

    def _answer(self, request: EngineRequest) -> str:
        query = request.payload["query"]
        docs = request.payload["docs"]
        salt = request.payload.get("salt", "")
        return sim_answer(query, docs, self.world, salt=salt)

    def _judge(self, request: EngineRequest) -> str:
        text = request.payload["text"]
        embedded = self.world.profile_of(text)
        if embedded is not None:
            dims = sim_quality_dims(embedded[0], self.world)
            scores = {name: getattr(dims, name) for name in ALL_DIMENSIONS}
        else:
            scores = self._judge_text_heuristic(text)
        return "\n".join(f"{name}: {scores[name]}" for name in ALL_DIMENSIONS)

    @staticmethod
    def _judge_text_heuristic(text: str) -> dict[str, int]:
        """Deterministic fallback for texts without an embedded feature record."""
        words = len(text.split())
        sentence_marks = max(1, sum(text.count(ch) for ch in ".!?"))
        avg_words = words / sentence_marks
        clip = lambda s: int(max(1, min(5, s)))
        return {
            "fluency": clip(5 - avg_words // 14),
            "usefulness": clip(2 + words // 120),
            "credibility": clip(2 + text.count("[") // 4),
            "structure": clip(2 + text.count("\n") // 4),
            "uniqueness": 3,
            "attractiveness": clip(2 + words // 90),
            "influence": clip(2 + words // 150),
        }
