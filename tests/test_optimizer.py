import numpy as np
import pytest

from conftest import load_example_solutions, midpoint_vector
from featgeo.errors import ValidationError
from featgeo.features import FeatureVector, catalog_default, vector_from_mapping
from featgeo.optimizer import (
    GAConfig,
    HypervolumeTrace,
    Individual,
    OptimizerAbort,
    ParetoFront,
    crowding_distance,
    evolve,
    gaussian_mutate,
    hypervolume,
    non_dominated_sort,
    pareto_front_of,
    seed_population,
    select_final,
    uniform_crossover,
)

CATALOG = catalog_default()


def ind(vis, qual):
    return Individual(x=midpoint_vector(CATALOG), objectives=(vis, qual))


def brute_force_fronts(pop):
    """Peel non-dominated layers by exhaustive pairwise dominance."""
    remaining = list(pop)
    fronts = []
    while remaining:
        layer = [
            a for a in remaining
            if not any(b.dominates(a) for b in remaining if b is not a)
        ]
        fronts.append({id(a) for a in layer})
        remaining = [a for a in remaining if id(a) not in fronts[-1]]
    return fronts


# -- non-dominated sort ------------------------------------------------------------


def test_sort_incomparable_pair_shares_front_zero():
    pop = [ind(10, 80), ind(20, 70)]
    fronts = non_dominated_sort(pop)
    assert len(fronts) == 1
    assert {i.rank for i in pop} == {0}


def test_sort_strict_dominance_creates_two_fronts():
    a, b = ind(10, 80), ind(20, 90)
    fronts = non_dominated_sort([a, b])
    assert [len(f) for f in fronts] == [1, 1]
    assert b.rank == 0 and a.rank == 1


def test_sort_equal_objectives_do_not_dominate():
    a, b = ind(10, 10), ind(10, 10)
    fronts = non_dominated_sort([a, b])
    assert len(fronts) == 1


def random_objectives(rng, n, grid):
    """Uniform percents, or a grid x grid integer lattice where ties and clones abound."""
    if grid:
        return rng.integers(0, grid, size=(n, 2)).astype(float)
    return rng.uniform(0, 100, size=(n, 2))


def test_sort_matches_brute_force_on_random_populations():
    rng = np.random.default_rng(20)
    for trial in range(120):
        n = int(rng.integers(1, 65))
        grid = 6 if trial >= 60 else 0
        pop = [ind(float(v), float(q)) for v, q in random_objectives(rng, n, grid)]
        fronts = non_dominated_sort(pop)
        assert [{id(i) for i in front} for front in fronts] == brute_force_fronts(pop)
        where = {id(i): pos for pos, i in enumerate(pop)}
        for rank, front in enumerate(fronts):
            positions = [where[id(i)] for i in front]
            assert positions == sorted(positions)  # population order
            assert {i.rank for i in front} == {rank}


def test_sort_partitions_population():
    rng = np.random.default_rng(21)
    pop = [ind(float(v), float(q)) for v, q in rng.uniform(0, 100, size=(40, 2))]
    fronts = non_dominated_sort(pop)
    seen = [i for front in fronts for i in front]
    assert len(seen) == len(pop)
    assert {id(i) for i in seen} == {id(i) for i in pop}


def test_sort_rejects_unevaluated():
    with pytest.raises(ValidationError):
        non_dominated_sort([Individual(x=midpoint_vector(CATALOG))])


# -- crowding distance ---------------------------------------------------------------


def test_crowding_singleton_and_pair_get_infinity():
    front = [ind(50, 50)]
    assert crowding_distance(front) == [float("inf")]
    front = [ind(40, 60), ind(60, 40)]
    assert crowding_distance(front) == [float("inf"), float("inf")]


def test_crowding_three_even_points_interior_is_two():
    front = [ind(0, 100), ind(50, 50), ind(100, 0)]
    distances = crowding_distance(front)
    assert distances[0] == distances[2] == float("inf")
    assert distances[1] == pytest.approx(2.0, abs=1e-12)
    assert front[1].crowding == pytest.approx(2.0)


def test_crowding_zero_width_objective_contributes_nothing():
    front = [ind(0, 50), ind(50, 50), ind(100, 50)]
    distances = crowding_distance(front)
    assert distances[1] == pytest.approx(1.0, abs=1e-12)


def test_crowding_rejects_empty_front():
    with pytest.raises(ValidationError):
        crowding_distance([])


# -- variation -------------------------------------------------------------------------


def cfg_with(**kwargs):
    base = dict(population_size=8, generations=2, mutation_prob=0.5, mutation_sigma=0.2,
                repeats_per_eval=1, crossover_prob=0.9, tournament_size=2, seed=0)
    base.update(kwargs)
    return GAConfig(**base)


def test_seed_population_single_exemplar_no_mutation_copies():
    rng = np.random.default_rng(0)
    exemplar = midpoint_vector(CATALOG)
    pop = seed_population([exemplar], cfg_with(mutation_prob=0.0), CATALOG, rng)
    assert len(pop) == 8
    assert all(i.x == exemplar for i in pop)


def test_seed_population_recombines_per_feature():
    rng = np.random.default_rng(1)
    a = midpoint_vector(CATALOG)
    b = a.replace(3, 2.9)
    pop = seed_population([a, b], cfg_with(mutation_prob=0.0, population_size=24), CATALOG, rng)
    assert pop[0].x == a and pop[1].x == b  # exemplars kept unperturbed
    for child in pop[2:]:
        assert child.x[3] in (a[3], b[3])
        assert child.x.values[:3] == a.values[:3]


def test_seed_population_respects_bounds():
    rng = np.random.default_rng(2)
    exemplar = FeatureVector(tuple(f.hi for f in CATALOG))
    pop = seed_population([exemplar], cfg_with(mutation_sigma=1.5), CATALOG, rng)
    for i in pop:
        for value, feat in zip(i.x.values, CATALOG):
            assert feat.lo <= value <= feat.hi


def test_seed_population_requires_exemplars():
    with pytest.raises(ValidationError):
        seed_population([], cfg_with(), CATALOG, np.random.default_rng(0))


def test_crossover_identical_parents_fixed_point():
    rng = np.random.default_rng(3)
    x = midpoint_vector(CATALOG)
    a, b = uniform_crossover(x, x, cfg_with(), rng)
    assert a == x and b == x


def test_crossover_disabled_returns_parents():
    rng = np.random.default_rng(4)
    a = midpoint_vector(CATALOG)
    b = a.replace(0, 1.0).replace(5, 2.5)
    c, d = uniform_crossover(a, b, cfg_with(crossover_prob=0.0), rng)
    assert (c, d) == (a, b)


def test_crossover_preserves_multiset_per_feature():
    rng = np.random.default_rng(5)
    a = FeatureVector(tuple(f.lo for f in CATALOG))
    b = FeatureVector(tuple(f.hi for f in CATALOG))
    for _ in range(50):
        c, d = uniform_crossover(a, b, cfg_with(crossover_prob=1.0), rng)
        for i in range(13):
            assert sorted((c[i], d[i])) == sorted((a[i], b[i]))


def test_mutation_disabled_is_identity():
    rng = np.random.default_rng(6)
    x = midpoint_vector(CATALOG)
    assert gaussian_mutate(x, cfg_with(mutation_prob=0.0), CATALOG, rng) == x


def test_mutation_rate_and_bounds():
    rng = np.random.default_rng(7)
    cfg = cfg_with(mutation_prob=0.5)
    x = midpoint_vector(CATALOG)
    trials = 2000
    changed = 0
    for _ in range(trials):
        y = gaussian_mutate(x, cfg, CATALOG, rng)
        changed += sum(1 for a, b in zip(x.values, y.values) if a != b)
        for value, feat in zip(y.values, CATALOG):
            assert feat.lo <= value <= feat.hi
    rate = changed / (trials * 13)
    assert 0.45 <= rate <= 0.55


def test_mutation_respects_frozen_features():
    rng = np.random.default_rng(8)
    x = midpoint_vector(CATALOG)
    frozen = {4: 0.0}
    for _ in range(50):
        y = gaussian_mutate(x, cfg_with(mutation_prob=1.0), CATALOG, rng, frozen=frozen)
        assert y[4] == 0.0


# -- hypervolume -------------------------------------------------------------------------


def test_hypervolume_hand_values():
    assert hypervolume([(50.0, 50.0)]) == pytest.approx(0.25, abs=1e-12)
    assert hypervolume([(100.0, 0.0), (0.0, 100.0)]) == pytest.approx(0.0, abs=1e-12)
    assert hypervolume([(80.0, 40.0), (40.0, 80.0)]) == pytest.approx(0.48, abs=1e-12)
    assert hypervolume([]) == 0.0


def test_hypervolume_monte_carlo_agreement():
    rng = np.random.default_rng(9)
    for _ in range(5):
        k = int(rng.integers(1, 20))
        points = rng.uniform(5, 95, size=(k, 2))
        front = [tuple(p) for p in points]
        exact = hypervolume(front)
        samples = rng.uniform(0, 1, size=(200_000, 2))
        norm = points / 100.0
        dominated = np.zeros(len(samples), dtype=bool)
        for v, q in norm:
            dominated |= (samples[:, 0] <= v) & (samples[:, 1] <= q)
        assert exact == pytest.approx(dominated.mean(), abs=0.005)


def test_pareto_front_validates_mutual_nondominance():
    with pytest.raises(ValidationError):
        ParetoFront((ind(10, 10), ind(20, 20)))
    # Equal-objective clones are mutually non-dominated; a tie on one objective is not.
    clones = ParetoFront((ind(10, 10), ind(20, 5), ind(10, 10), ind(20, 5)))
    assert [i.objectives for i in clones] == [(20, 5), (20, 5), (10, 10), (10, 10)]
    for dominated in (ind(10, 9), ind(9, 10), ind(20, 4)):
        with pytest.raises(ValidationError):
            ParetoFront((ind(10, 10), ind(10, 10), ind(20, 5), dominated))


def test_pareto_front_of_keeps_clones_in_population_order_and_leaves_ranks():
    rng = np.random.default_rng(22)
    for grid in (0, 4):
        pop = [ind(float(v), float(q)) for v, q in random_objectives(rng, 40, grid)]
        for i in pop:
            i.rank = 7
        front = pareto_front_of(pop)
        assert {id(i) for i in front} == brute_force_fronts(pop)[0]
        assert {i.rank for i in pop} == {7}
    a, b, c = ind(10, 10), ind(10, 10), ind(5, 5)
    assert [id(i) for i in pareto_front_of([c, b, a])] == [id(b), id(a)]


def test_pareto_front_sorted_by_visibility_descending():
    front = pareto_front_of([ind(10, 80), ind(20, 70), ind(5, 60)])
    assert [i.objectives for i in front] == [(20, 70), (10, 80)]


# -- final selection ----------------------------------------------------------------------


def front_from_examples():
    solutions = load_example_solutions()
    members = []
    for name in ("solution_a", "solution_b"):
        entry = solutions[name]
        members.append(
            Individual(
                x=vector_from_mapping(entry["features"], CATALOG),
                objectives=(entry["visibility"], entry["quality"]),
            )
        )
    return ParetoFront(tuple(members))


def test_select_final_policies_pick_extremes():
    front = front_from_examples()
    assert select_final(front, "max_visibility").objectives == (23.7, 87.8)
    assert select_final(front, "max_quality").objectives == (8.4, 92.7)
    knee = select_final(front, "knee")
    assert knee.objectives == (23.7, 87.8)  # 111.5 > 101.1


def test_select_final_singleton_any_policy():
    front = ParetoFront((ind(30, 30),))
    for policy in ("max_visibility", "max_quality", "knee"):
        assert select_final(front, policy).objectives == (30, 30)


def test_select_final_rejects_empty_and_unknown():
    with pytest.raises(ValidationError):
        select_final(ParetoFront(()), "max_visibility")
    with pytest.raises(ValidationError):
        select_final(front_from_examples(), "median")


# -- evolve ------------------------------------------------------------------------------


def constant_evaluator(x, key):
    return (40.0, 60.0)


def test_evolve_constant_landscape_flat_trace():
    result = evolve(cfg_with(generations=5), constant_evaluator, [midpoint_vector(CATALOG)], CATALOG)
    values = result.trace.values()
    assert len(values) == 6
    assert all(v == pytest.approx(0.24, abs=1e-12) for v in values)
    # equal objectives never dominate each other, so everything stays on the front
    assert all(i.objectives == (40.0, 60.0) for i in result.front)


class RecordingEvaluator:
    def __init__(self, world_fn):
        self.keys = []
        self.world_fn = world_fn

    def __call__(self, x, key):
        self.keys.append(key)
        return self.world_fn(x)


def sphere_landscape(x):
    # visibility favors high statistics, quality favors low statistics
    stats = x[4] / 3.0
    return (100 * stats, 100 * (1 - stats))


def test_evolve_calls_evaluator_once_per_candidate_and_repeat():
    cfg = cfg_with(population_size=6, generations=3, repeats_per_eval=2)
    evaluator = RecordingEvaluator(sphere_landscape)
    result = evolve(cfg, evaluator, [midpoint_vector(CATALOG)], CATALOG)
    candidates = {(g, s) for g, s, _ in evaluator.keys}
    assert len(candidates) == 6 * (3 + 1)
    assert len(evaluator.keys) == 6 * 4 * 2
    assert result.evaluations == 6 * 4 * 2
    for g, s in candidates:
        reps = sorted(r for gg, ss, r in evaluator.keys if (gg, ss) == (g, s))
        assert reps == [0, 1]


class BatchRecordingEvaluator(RecordingEvaluator):
    def __init__(self, world_fn):
        super().__init__(world_fn)
        self.batches = []

    def evaluate_batch(self, units):
        self.batches.append([key for _, key in units])
        return [self(x, key) for x, key in units]


def test_evolve_hands_a_batch_evaluator_each_generation_in_one_call():
    cfg = cfg_with(population_size=6, generations=3, repeats_per_eval=2)
    scalar, batched = RecordingEvaluator(sphere_landscape), BatchRecordingEvaluator(sphere_landscape)
    a = evolve(cfg, scalar, [midpoint_vector(CATALOG)], CATALOG)
    b = evolve(cfg, batched, [midpoint_vector(CATALOG)], CATALOG)
    assert batched.batches == [[(g, s, r) for s in range(6) for r in range(2)] for g in range(4)]
    assert scalar.keys == batched.keys  # the scalar evaluator sees the same units in the same order
    assert (a.log, a.trace, a.evaluations) == (b.log, b.trace, b.evaluations)


def test_evolve_rejects_non_finite_objectives_naming_generation_and_slot():
    def evaluator(x, key):
        return (float("nan"), 1.0) if key == (1, 2, 1) else sphere_landscape(x)

    cfg = cfg_with(population_size=4, generations=2, repeats_per_eval=2)
    with pytest.raises(OptimizerAbort) as err:
        evolve(cfg, evaluator, [midpoint_vector(CATALOG)], CATALOG)
    assert isinstance(err.value.cause, ValidationError)
    assert "non-finite objectives (nan, 1.0) at generation 1, slot 2" in str(err.value)
    assert len(err.value.partial_trace) == 1


def test_evolve_archive_trace_is_monotone():
    for seed in range(5):
        cfg = cfg_with(population_size=8, generations=10, seed=seed)
        result = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)], CATALOG)
        values = result.trace.values()
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_evolve_is_deterministic():
    cfg = cfg_with(population_size=8, generations=4, seed=42)
    a = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)], CATALOG)
    b = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)], CATALOG)
    assert [i.x.values for i in a.front] == [i.x.values for i in b.front]
    assert a.trace == b.trace
    assert a.log == b.log


def test_evolve_every_vector_within_bounds():
    cfg = cfg_with(population_size=8, generations=6, mutation_sigma=1.0)
    result = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)], CATALOG)
    for record in result.log:
        for value, feat in zip(record.values, CATALOG):
            assert feat.lo <= value <= feat.hi


def test_evolve_honors_frozen_features():
    cfg = cfg_with(population_size=6, generations=4)
    frozen = {4: 0.0}
    result = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)],
                    CATALOG, frozen_features=frozen)
    for record in result.log:
        assert record.values[4] == 0.0
    for member in result.front:
        assert member.x[4] == 0.0


def test_evolve_wraps_evaluator_failures_with_partial_state():
    calls = {"n": 0}

    def flaky(x, key):
        calls["n"] += 1
        if calls["n"] > 10:
            raise RuntimeError("backend down")
        return (50.0, 50.0)

    with pytest.raises(OptimizerAbort) as err:
        evolve(cfg_with(population_size=8, generations=3), flaky, [midpoint_vector(CATALOG)], CATALOG)
    assert isinstance(err.value.cause, RuntimeError)
    assert len(err.value.partial_trace) >= 1


def test_ga_config_validation():
    with pytest.raises(ValidationError):
        GAConfig(population_size=7)
    with pytest.raises(ValidationError):
        GAConfig(population_size=0)
    with pytest.raises(ValidationError):
        GAConfig(generations=0)
    with pytest.raises(ValidationError):
        GAConfig(mutation_prob=1.2)
    with pytest.raises(ValidationError):
        GAConfig(mutation_sigma=0.0)
    with pytest.raises(ValidationError):
        GAConfig(repeats_per_eval=0)


def test_trace_values_must_be_normalized():
    with pytest.raises(ValidationError):
        HypervolumeTrace(((0, 1.5),))
