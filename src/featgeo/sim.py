"""Deterministic simulated generative engine for offline end-to-end runs.

The simulator assigns every source page a latent feature vector and scores it
with a logistic-linear citation propensity; quality follows a linear term with
a subtracted propensity coupling, so visibility and quality trade off by
construction. Randomness enters only the per-sentence citation draw inside
answers, via streams seeded from (world seed, query, documents, salt), which
makes every output a pure function of its inputs. A brute-force grid oracle
exposes the exact Pareto front for comparison against the optimizer.

Only this module writes (``profile_line``) and reads (``extract_profile``) the
``feature-profile:`` line of a page or document; each value on it must be a JSON number.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .draws import Draws
from .errors import ValidationError
from .features import (
    FeatureCatalog,
    FeatureVector,
    catalog_default,
    clamp,  # unread here: perfbench's tracing patches sim.clamp
    feature_record,
    normalized_values,
    realized_vector,
    vector_from_mapping,
)
from .optimizer import Individual, ParetoFront
from .quality import ALL_DIMENSIONS, QualityConfig, aggregate_quality
from .schema import expect
from .engine.types import (
    EngineRequest,
    EngineResponse,
    Role,
    SourceDocument,
    digest_to_int,
    estimate_tokens,
    text_digest,
)

# Marker line that carries a page's latent feature record through the sim loop.
PROFILE_MARKER = "feature-profile:"

# Per-sentence citation softmax sharpness; small values make high-propensity
# sources dominate the draw.
SOFTMAX_TEMPERATURE = 0.1

# Staggered quantization offsets, one per quality dimension in canonical order.
_DIMENSION_OFFSETS = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)

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
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValidationError(f"sim seed must be >= 0, got {self.seed}")
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
        if not 0 <= self.tradeoff_strength < math.inf:
            raise ValidationError(f"tradeoff strength must be finite and >= 0, got {self.tradeoff_strength}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValidationError(f"noise scale must be finite and >= 0, got {self.noise_scale}")


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


def profile_line(v: FeatureVector, catalog: FeatureCatalog) -> str:
    """The marker, then the vector as a one-line JSON object in catalog key order."""
    return f"{PROFILE_MARKER} {json.dumps(feature_record(v.values, catalog))}"


def extract_profile(text: str, catalog: FeatureCatalog) -> FeatureVector | None:
    """The vector on a text's first profile line, if any: a JSON object of numbers over the catalog keys."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(PROFILE_MARKER):
            try:
                record = expect(json.loads(stripped[len(PROFILE_MARKER):].strip()), dict, "feature profile")
            except json.JSONDecodeError as exc:
                raise ValidationError(f"feature profile is not valid JSON: {exc}") from exc
            values = {key: expect(value, float, f"feature profile {key}") for key, value in record.items()}
            return vector_from_mapping(values, catalog)
    return None


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _propensity_and_base(x: FeatureVector, w: SimWorld) -> tuple[float, float]:
    """Citation propensity and continuous quality base (linear score minus the propensity
    coupling) of x, from one normalization. The dot products stay numpy's: a Python sum adds in another order."""
    x_norm = np.asarray(normalized_values(x, w.catalog))
    propensity = float(_logistic(x_norm @ w._vis_weights + w.config.visibility_bias))
    return propensity, float(x_norm @ w._qual_weights - w.config.tradeoff_strength * propensity)


def sim_propensity(x: FeatureVector, w: SimWorld) -> float:
    """Citation propensity in (0, 1): logistic of a linear score over range-normalized features."""
    return _propensity_and_base(x, w)[0]


def _dim_ints(base: float) -> tuple[int, ...]:
    """Affine map of the quality base onto seven integer dimensions in [1, 5], one per staggered
    offset, in float arithmetic; clipping before the floor keeps the integers."""
    v = 3.0 + 2.0 * base
    return tuple([math.floor(min(max(v + o + 0.5, 1.0), 5.0)) for o in _DIMENSION_OFFSETS])


def sim_quality_dims(x: FeatureVector, w: SimWorld) -> tuple[int, ...]:
    """Deterministic judge ground truth for a page with latent vector x, in ``ALL_DIMENSIONS`` order."""
    return _dim_ints(_propensity_and_base(x, w)[1])


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

    # Lengths and words are rng.integers(6, 15) and rng.integers(0, len(_FILLER_VOCAB), size=n_words).
    draws = Draws(rng)
    sentences = []
    for _ in range(k_sentences):
        n_words = 6 + draws.below(9)
        words = [_FILLER_VOCAB[draws.below(len(_FILLER_VOCAB))] for _ in range(n_words)]
        cited = docs[int(cdf.searchsorted(rng.random(), side="right"))].id
        sentences.append(f"{words[0].capitalize()} {' '.join(words[1:])} [{cited}].")
    return " ".join(sentences)


# -- brute-force oracle --------------------------------------------------------

BRUTE_FORCE_BUDGET = 10**5  # grid points, each one scalar direct_evaluator call


def brute_force_pareto(grid_levels: int, active_features: Sequence[str], w: SimWorld) -> ParetoFront:
    """Exact Pareto front over a grid of the active features.

    Inactive features sit at their range midpoints. Every grid point is scored
    by ``direct_evaluator``, the closed form (no citation noise) that ``evolve``
    sees, and the non-dominated set is found by a sort-and-sweep; exact
    objective ties collapse to the first point.
    """
    if grid_levels < 2:
        raise ValidationError(f"grid levels must be >= 2, got {grid_levels}")
    if not active_features:
        raise ValidationError("need at least one active feature")
    indices = [w.catalog.index_of(key) for key in active_features]
    if len(set(indices)) != len(indices):
        raise ValidationError("active features must be distinct")
    total = grid_levels ** len(indices)
    if total > BRUTE_FORCE_BUDGET:
        raise ValidationError(f"grid of {total} points exceeds the {BRUTE_FORCE_BUDGET} evaluation budget")

    evaluate, midpoints = direct_evaluator(w), w.catalog.midpoint_values()

    def vector(point: tuple[float, ...]) -> FeatureVector:
        active = dict(zip(indices, point))
        return FeatureVector(tuple(active.get(i, mid) for i, mid in enumerate(midpoints)))

    axes = [np.linspace(w.catalog.features[i].lo, w.catalog.features[i].hi, grid_levels).tolist() for i in indices]
    scored = [(evaluate(vector(point)), point) for point in itertools.product(*axes)]

    members: list[Individual] = []
    best_quality = -math.inf
    # A stable sort, so an exact objective tie keeps the first grid point.
    for (vis, qual), point in sorted(scored, key=lambda s: (-s[0][0], -s[0][1])):
        if qual > best_quality:
            best_quality = qual
            members.append(Individual(x=vector(point), objectives=(vis, qual)))
    return ParetoFront(tuple(members))


def direct_evaluator(w: SimWorld):
    """Closed-form (visibility %, quality %) evaluator over the sim ground truth.

    Quality depends on x only through its seven integer dimensions. They
    step up one at a time as the base grows (4 steps each, at staggered
    offsets), so at most 29 distinct tuples exist. Each evaluator keeps its
    own table from a tuple to its quality percent: every distinct tuple is
    blended by ``aggregate_quality`` once, and then looked up.
    """
    quality_cfg = QualityConfig()
    quality_of: dict[tuple[int, ...], float] = {}

    def evaluate(x: FeatureVector, key=None) -> tuple[float, float]:
        propensity, base = _propensity_and_base(x, w)
        dims = _dim_ints(base)
        quality = quality_of.get(dims)
        if quality is None:
            quality = quality_of[dims] = aggregate_quality(dims, quality_cfg)
        return 100.0 * propensity, quality

    return evaluate


# -- engine backend -------------------------------------------------------------


class SimBackend:
    """Implements all six engine roles deterministically on top of a SimWorld."""

    def __init__(self, world: SimWorld):
        self.world = world
        config = json.dumps(dataclasses.asdict(world.config), sort_keys=True)
        self.identity = f"sim {text_digest(config)}"

    def complete(self, request: EngineRequest) -> EngineResponse:
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
        # One stream per brief ("0" keeps pinned runs' queries); a reply always holds m distinct queries.
        rng = _stream(self.world, "queries", brief.topic, brief.strategy_text, "0")
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
        latent, _ = self.world.source_state(doc)
        return "\n".join(f"{feat.key}: {value!r}" for feat, value in zip(self.world.catalog, latent.values))

    def _page(self, request: EngineRequest) -> str:
        brief = request.payload["brief"]
        catalog = self.world.catalog
        realized = realized_vector(request.payload["guidelines"], catalog)
        brand = brief.strategy_text.split("position ", 1)[-1].split(" ", 1)[0].rstrip(",.")
        length_value = realized.values[catalog.index_of("length_level")]
        paragraphs = 2 + int(length_value)
        body = []
        for p in range(paragraphs):
            body.append(
                f"{brand} helps with {brief.topic}: paragraph {p + 1} explains why {brand} "
                f"fits your routine and what results to expect. Act now and get started today."
            )
        return "\n\n".join(
            [f"Sponsored insights on {brief.topic} from {brand}.", profile_line(realized, catalog)]
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
            scores = dict(zip(ALL_DIMENSIONS, sim_quality_dims(embedded[0], self.world)))
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
