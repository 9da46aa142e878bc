"""NSGA-II over the bounded 13-feature box, maximizing (visibility, quality).

Implements the non-dominated sorting and crowding distance of Deb et al.
(2002), with the sort done by Jensen's (2003) two-objective sweep, plus
exemplar-seeded initialization, per-feature uniform crossover, Gaussian
mutation, binary tournament parent selection, and (mu+lambda) environmental
selection. Convergence is tracked as the hypervolume of a cumulative archive
of non-dominated solutions.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import FeatGeoError, ValidationError
from .features import FeatureCatalog, FeatureVector, clamp

logger = logging.getLogger(__name__)

EvalKey = tuple[int, int, int]  # (generation, slot, repeat); generation 0 = initial population
Evaluator = Callable[[FeatureVector, EvalKey], tuple[float, float]]
EvalUnit = tuple[FeatureVector, EvalKey]


@dataclass
class Individual:
    """One candidate configuration plus its averaged objectives and sort metadata."""

    x: FeatureVector
    objectives: tuple[float, float] | None = None  # (visibility %, quality %)
    rank: int | None = None
    crowding: float = 0.0
    key: tuple[int, int] | None = None  # (generation, slot) of realization

    def dominates(self, other: "Individual") -> bool:
        """At least as good in both objectives and strictly better in one (the sort's test oracle)."""
        a, b = self.objectives, other.objectives
        return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


@dataclass(frozen=True)
class GAConfig:
    """NSGA-II hyperparameters."""

    population_size: int = 8
    generations: int = 8
    mutation_prob: float = 0.5
    mutation_sigma: float = 0.2
    repeats_per_eval: int = 5
    crossover_prob: float = 0.9
    tournament_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValidationError(f"population size must be even and >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ValidationError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValidationError(f"mutation probability must lie in [0, 1], got {self.mutation_prob}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValidationError(f"crossover probability must lie in [0, 1], got {self.crossover_prob}")
        if self.mutation_sigma <= 0.0:
            raise ValidationError(f"mutation sigma must be > 0, got {self.mutation_sigma}")
        if self.repeats_per_eval < 1:
            raise ValidationError(f"repeats per evaluation must be >= 1, got {self.repeats_per_eval}")
        if self.tournament_size < 2:
            raise ValidationError(f"tournament size must be >= 2, got {self.tournament_size}")


@dataclass(frozen=True)
class ParetoFront:
    """Mutually non-dominated individuals, sorted by visibility descending."""

    members: tuple[Individual, ...]

    def __post_init__(self):
        if len(_fronts([ind.objectives for ind in self.members])) > 1:
            raise ValidationError("pareto front members must be mutually non-dominated")
        ordered = tuple(
            sorted(self.members, key=lambda ind: (-ind.objectives[0], -ind.objectives[1]))
        )
        object.__setattr__(self, "members", ordered)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def objective_pairs(self) -> list[tuple[float, float]]:
        return [ind.objectives for ind in self.members]


@dataclass(frozen=True)
class HypervolumeTrace:
    """Per-generation hypervolume of the archive front (normalized to [0, 1])."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for gen, hv in self.entries:
            if not 0.0 <= hv <= 1.0:
                raise ValidationError(f"hypervolume {hv} at generation {gen} outside [0, 1]")

    def values(self) -> list[float]:
        return [hv for _, hv in self.entries]


@dataclass(frozen=True)
class GenerationRecord:
    """Snapshot of one individual in the post-selection population of a generation."""

    generation: int
    slot: int
    values: tuple[float, ...]
    visibility: float
    quality: float
    rank: int
    crowding: float


@dataclass(frozen=True)
class EvolveResult:
    front: ParetoFront
    trace: HypervolumeTrace
    log: tuple[GenerationRecord, ...]
    evaluations: int


class OptimizerAbort(FeatGeoError):
    """Evaluator failure; carries whatever log/trace existed at abort time."""

    def __init__(self, message: str, partial_log: tuple, partial_trace: tuple, cause: Exception):
        super().__init__(message)
        self.partial_log = partial_log
        self.partial_trace = partial_trace
        self.cause = cause


# -- sorting and diversity ---------------------------------------------------


def _fronts(points: Sequence[tuple[float, float]]) -> list[list[int]]:
    """Non-dominated fronts of (visibility, quality) pairs, as ascending input positions.

    Jensen's two-objective sweep (IEEE TEC 2003): visit the points by
    (visibility, quality) descending and put each on the first front whose
    last member does not dominate it. A front's last member only gains
    quality, so the last members' (-quality, -visibility) keys stay sorted
    and bisect finds that front. Equal points never dominate each other.
    """
    fronts: list[list[int]] = []
    lasts: list[tuple[float, float]] = []
    for i in sorted(range(len(points)), key=points.__getitem__, reverse=True):
        vis, qual = points[i]
        key = (-qual, -vis)
        k = bisect_left(lasts, key)  # lasts[:k] dominate the point
        if k == len(fronts):
            fronts.append([i])
            lasts.append(key)
        else:
            fronts[k].append(i)
            lasts[k] = key
    return [sorted(front) for front in fronts]


def non_dominated_sort(pop: Sequence[Individual]) -> list[list[Individual]]:
    """Non-dominated fronts in population order; writes front indices back onto individuals."""
    for ind in pop:
        if ind.objectives is None:
            raise ValidationError("cannot sort unevaluated individuals")
    fronts = _fronts([ind.objectives for ind in pop])
    for rank, front in enumerate(fronts):
        for i in front:
            pop[i].rank = rank
    return [[pop[i] for i in front] for front in fronts]


def crowding_distance(front: Sequence[Individual]) -> list[float]:
    """Crowding distances, written back; boundary points per objective get infinity."""
    if not front:
        raise ValidationError("crowding distance needs a non-empty front")
    n = len(front)
    distances = [0.0] * n
    for obj in range(2):
        order = sorted(range(n), key=lambda i: front[i].objectives[obj])
        lo = front[order[0]].objectives[obj]
        hi = front[order[-1]].objectives[obj]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0.0:
            continue  # zero-width objective contributes nothing to interior points
        for pos in range(1, n - 1):
            i = order[pos]
            if distances[i] == float("inf"):
                continue
            gap = front[order[pos + 1]].objectives[obj] - front[order[pos - 1]].objectives[obj]
            distances[i] += gap / span
    for ind, d in zip(front, distances):
        ind.crowding = d
    return distances


def pareto_front_of(pop: Sequence[Individual]) -> ParetoFront:
    """Non-dominated subset of a population as a ParetoFront; ranks are left alone."""
    fronts = _fronts([ind.objectives for ind in pop])
    return ParetoFront(tuple(pop[i] for i in fronts[0]) if fronts else ())


# -- variation ---------------------------------------------------------------


def _apply_frozen(values: list[float], frozen: Mapping[int, float] | None) -> list[float]:
    if frozen:
        for idx, value in frozen.items():
            values[idx] = value
    return values


def seed_population(
    exemplar_vectors: Sequence[FeatureVector],
    cfg: GAConfig,
    catalog: FeatureCatalog,
    rng: np.random.Generator,
    frozen: Mapping[int, float] | None = None,
) -> list[Individual]:
    """Initial population seeded from exemplar configurations.

    Exemplars are included unperturbed while the population has room; the rest
    are built by per-feature uniform picks across exemplars, then Gaussian
    perturbation and clamping.
    """
    if not exemplar_vectors:
        raise ValidationError("population seeding needs at least one exemplar vector")
    pop: list[Individual] = []
    for x in exemplar_vectors[: cfg.population_size]:
        values = _apply_frozen(list(clamp(x, catalog).values), frozen)
        pop.append(Individual(x=FeatureVector(tuple(values))))
    while len(pop) < cfg.population_size:
        picks = rng.integers(0, len(exemplar_vectors), size=13)
        values = [exemplar_vectors[p][i] for i, p in enumerate(picks)]
        child = gaussian_mutate(FeatureVector(tuple(values)), cfg, catalog, rng, frozen=frozen)
        pop.append(Individual(x=child))
    return pop


def uniform_crossover(
    a: FeatureVector, b: FeatureVector, cfg: GAConfig, rng: np.random.Generator,
    frozen: Mapping[int, float] | None = None,
) -> tuple[FeatureVector, FeatureVector]:
    """Per-feature uniform crossover; preserves the multiset of values per feature."""
    if rng.random() >= cfg.crossover_prob:
        return a, b
    left, right = list(a.values), list(b.values)
    for i in range(13):
        if frozen and i in frozen:
            continue
        if rng.random() < 0.5:
            left[i], right[i] = right[i], left[i]
    return FeatureVector(tuple(left)), FeatureVector(tuple(right))


def gaussian_mutate(
    x: FeatureVector, cfg: GAConfig, catalog: FeatureCatalog, rng: np.random.Generator,
    frozen: Mapping[int, float] | None = None,
) -> FeatureVector:
    """Independent per-feature Gaussian perturbation on the raw scale, then clamp."""
    values = list(x.values)
    for i in range(13):
        if frozen and i in frozen:
            continue
        if rng.random() < cfg.mutation_prob:
            values[i] += rng.normal(0.0, cfg.mutation_sigma)
    values = _apply_frozen(values, frozen)
    return clamp(FeatureVector(tuple(values)), catalog)


# -- selection ----------------------------------------------------------------


def _better(a: Individual, b: Individual) -> Individual:
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a


def _tournament(pop: Sequence[Individual], cfg: GAConfig, rng: np.random.Generator) -> Individual:
    picks = rng.choice(len(pop), size=min(cfg.tournament_size, len(pop)), replace=False)
    best = pop[int(picks[0])]
    for idx in picks[1:]:
        best = _better(best, pop[int(idx)])
    return best


def _environmental_selection(pop: list[Individual], n: int) -> list[Individual]:
    fronts = non_dominated_sort(pop)
    selected: list[Individual] = []
    for front in fronts:
        crowding_distance(front)
        if len(selected) + len(front) <= n:
            selected.extend(front)
        else:
            remaining = n - len(selected)
            ordered = sorted(front, key=lambda ind: -ind.crowding)
            selected.extend(ordered[:remaining])
            break
    return selected


# -- hypervolume ---------------------------------------------------------------


def hypervolume(front: ParetoFront | Sequence[tuple[float, float]]) -> float:
    """Exact dominated area of a percent-scale front after /100 normalization.

    Reference point (0, 0); sorts by visibility descending and accumulates
    rectangles of strictly improving quality.
    """
    pairs = front.objective_pairs() if isinstance(front, ParetoFront) else list(front)
    if not pairs:
        return 0.0
    points = sorted(((v / 100.0, q / 100.0) for v, q in pairs), key=lambda p: (-p[0], -p[1]))
    area = 0.0
    best_quality = 0.0
    for vis, qual in points:
        if qual > best_quality:
            area += vis * (qual - best_quality)
            best_quality = qual
    return area


# -- final-solution policies ----------------------------------------------------

POLICIES = ("max_visibility", "max_quality", "knee")


def select_final(front: ParetoFront, policy: str) -> Individual:
    """Pick one front member: highest visibility, highest quality, or best sum."""
    if not front.members:
        raise ValidationError("cannot select from an empty pareto front")
    if policy == "max_visibility":
        return max(front.members, key=lambda ind: (ind.objectives[0], ind.objectives[1]))
    if policy == "max_quality":
        return max(front.members, key=lambda ind: (ind.objectives[1], ind.objectives[0]))
    if policy == "knee":
        return max(front.members, key=lambda ind: (ind.objectives[0] + ind.objectives[1], ind.objectives[0]))
    raise ValidationError(f"unknown selection policy {policy!r}; choose from {POLICIES}")


# -- main loop -------------------------------------------------------------------


def _rng_for(seed: int, generation: int, unit: int) -> np.random.Generator:
    # Split streams per (generation, unit) so evaluation order can never
    # perturb the variation sequence.
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, generation, unit)))


def _evaluate_generation(
    individuals: Sequence[Individual], cfg: GAConfig, evaluator: Evaluator, generation: int
) -> int:
    """Score every (slot, repeat) unit of a generation; returns the number of units.

    An evaluator with ``evaluate_batch`` gets all units in one call, in key
    order, and returns their objectives in that order; any other evaluator is
    called once per unit. Each individual gets the mean over its repeats.
    """
    repeats = cfg.repeats_per_eval
    units = [(ind.x, (generation, slot, rep)) for slot, ind in enumerate(individuals) for rep in range(repeats)]
    batch = getattr(evaluator, "evaluate_batch", None)
    results = batch(units) if batch is not None else [evaluator(x, key) for x, key in units]
    for slot, ind in enumerate(individuals):
        vis_sum = 0.0
        qual_sum = 0.0
        for vis, qual in results[slot * repeats:(slot + 1) * repeats]:
            if not (math.isfinite(vis) and math.isfinite(qual)):
                raise ValidationError(
                    f"evaluator returned non-finite objectives ({vis}, {qual}) "
                    f"at generation {generation}, slot {slot}"
                )
            vis_sum += vis
            qual_sum += qual
        ind.objectives = (vis_sum / repeats, qual_sum / repeats)
        ind.key = (generation, slot)
    return len(units)


def _log_population(pop: Sequence[Individual], generation: int) -> list[GenerationRecord]:
    return [
        GenerationRecord(
            generation=generation,
            slot=slot,
            values=ind.x.values,
            visibility=ind.objectives[0],
            quality=ind.objectives[1],
            rank=ind.rank if ind.rank is not None else 0,
            crowding=ind.crowding,
        )
        for slot, ind in enumerate(pop)
    ]


def evolve(
    cfg: GAConfig,
    evaluator: Evaluator,
    seed_vectors: Sequence[FeatureVector],
    catalog: FeatureCatalog,
    frozen_features: Mapping[int, float] | None = None,
) -> EvolveResult:
    """Run the (mu+lambda) NSGA-II loop.

    Each generation's individuals are scored ``repeats_per_eval`` times each,
    keyed by (generation, slot, repeat), and the results averaged (see
    ``_evaluate_generation``). The returned front is the non-dominated set
    over every individual ever evaluated; the trace holds that archive's
    hypervolume after initialization and after each generation.
    """
    log: list[GenerationRecord] = []
    trace: list[tuple[int, float]] = []
    archive = ParetoFront(())
    evaluations = 0

    def record(generation: int, evaluated: Sequence[Individual]) -> None:
        nonlocal archive
        archive = pareto_front_of(archive.members + tuple(evaluated))
        trace.append((generation, hypervolume(archive)))

    try:
        init_rng = _rng_for(cfg.seed, 0, 0)
        population = seed_population(seed_vectors, cfg, catalog, init_rng, frozen=frozen_features)
        evaluations += _evaluate_generation(population, cfg, evaluator, 0)
        for front in non_dominated_sort(population):
            crowding_distance(front)
        record(0, population)
        log.extend(_log_population(population, 0))

        for generation in range(1, cfg.generations + 1):
            offspring: list[Individual] = []
            for pair in range(cfg.population_size // 2):
                rng = _rng_for(cfg.seed, generation, pair)
                parent_a = _tournament(population, cfg, rng)
                parent_b = _tournament(population, cfg, rng)
                child_a, child_b = uniform_crossover(
                    parent_a.x, parent_b.x, cfg, rng, frozen=frozen_features
                )
                for child in (child_a, child_b):
                    mutated = gaussian_mutate(child, cfg, catalog, rng, frozen=frozen_features)
                    offspring.append(Individual(x=mutated))
            evaluations += _evaluate_generation(offspring, cfg, evaluator, generation)
            population = _environmental_selection(population + offspring, cfg.population_size)
            record(generation, offspring)
            log.extend(_log_population(population, generation))
    except Exception as exc:
        raise OptimizerAbort(
            f"evaluator failed during evolution: {exc}", tuple(log), tuple(trace), exc
        ) from exc

    return EvolveResult(archive, HypervolumeTrace(tuple(trace)), tuple(log), evaluations)
