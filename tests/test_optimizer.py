import numpy as np
import pytest

from conftest import dominates, load_example_solutions, midpoint_vector, with_value
from featgeo import optimizer
from featgeo.draws import Draws, pcg64_streams
from featgeo.errors import FeatGeoError, ValidationError
from featgeo.features import FeatureVector, catalog_default, vector_from_mapping
from featgeo.sim import _FILLER_VOCAB
from featgeo.optimizer import (
    GAConfig,
    HypervolumeTrace,
    Individual,
    ParetoFront,
    _tournament,
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
            if not any(dominates(b, a) for b in remaining if b is not a)
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


def test_crowding_equal_points_keep_infinite_ends_and_a_zero_interior():
    front = [ind(50, 50), ind(50, 50), ind(50, 50)]
    assert crowding_distance(front) == [float("inf"), 0.0, float("inf")]


def test_crowding_zero_width_objective_contributes_nothing():
    front = [ind(0, 50), ind(50, 50), ind(100, 50)]
    distances = crowding_distance(front)
    assert distances[1] == pytest.approx(1.0, abs=1e-12)


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
    b = with_value(a, 3, 2.9)
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
    b = with_value(with_value(a, 0, 1.0), 5, 2.5)
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


def reference_crossover(a, b, cfg, rng, frozen=None):
    """The per-index loop of scalar draws that uniform_crossover must match draw for draw."""
    if rng.random() >= cfg.crossover_prob:
        return a, b
    left, right = list(a.values), list(b.values)
    for i in range(13):
        if frozen and i in frozen:
            continue
        if rng.random() < 0.5:
            left[i], right[i] = right[i], left[i]
    return FeatureVector(tuple(left)), FeatureVector(tuple(right))


def reference_mutate(x, cfg, rng, frozen=None):
    """The per-index loop with rng.normal that gaussian_mutate must match bit for bit."""
    values = list(x.values)
    for i in range(13):
        if frozen and i in frozen:
            continue
        if rng.random() < cfg.mutation_prob:
            values[i] += rng.normal(0.0, cfg.mutation_sigma)
    for i, value in (frozen or {}).items():
        values[i] = value
    return FeatureVector(tuple(min(max(v, f.lo), f.hi) for v, f in zip(values, CATALOG)))


@pytest.mark.parametrize("frozen", [None, {}, {4: 0.0, 11: 1.0}, dict(enumerate(CATALOG.lows))])
def test_variation_matches_the_scalar_loop_draw_for_draw(frozen):
    source = np.random.default_rng(10)
    vectors = [FeatureVector(tuple(source.uniform(f.lo - 0.5, f.hi + 0.5) for f in CATALOG)) for _ in range(40)]
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    cfg = cfg_with(mutation_prob=0.5, crossover_prob=0.9)
    for a, b in zip(vectors, vectors[1:]):
        assert uniform_crossover(a, b, cfg, rng, frozen) == reference_crossover(a, b, cfg, ref, frozen)
        assert gaussian_mutate(a, cfg, CATALOG, rng, frozen) == reference_mutate(a, cfg, ref, frozen)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 7, 2005])
@pytest.mark.parametrize("sigma", [0.2, 0.05, 1.7])
def test_scaled_standard_normal_equals_normal_bit_for_bit(seed, sigma):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2000):
        assert (sigma * a.standard_normal()).hex() == b.normal(0.0, sigma).hex()


@pytest.mark.parametrize("k", [0, 1, 12, 13])
def test_a_vector_of_uniform_draws_equals_as_many_scalar_draws(k):
    a, b = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(200):
        assert a.random(k).tolist() == [b.random() for _ in range(k)]
    assert a.random() == b.random()


# -- variation streams ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1])
@pytest.mark.parametrize("generations", [1, 2, 70])
@pytest.mark.parametrize("pairs", [1, 32, 64])
def test_pcg64_streams_equal_seed_sequence_seeding(seed, generations, pairs):
    # 70 generations of 64 pairs are 4,481 streams, past one 4,096-row block; a seed of 4 words
    # (2**96 + 1) makes 6 words of entropy, more than SeedSequence's pool of 4.
    keys = [(0, 0)] + [(g, u) for g in range(1, generations + 1) for u in range(pairs)]
    expected = [np.random.PCG64(np.random.SeedSequence(entropy=(seed, *key))).state for key in keys]
    assert list(pcg64_streams(seed, generations, pairs)) == expected


@pytest.mark.parametrize("buffered", [False, True])
def test_a_stream_set_in_place_draws_as_a_freshly_seeded_generator(buffered):
    rng = np.random.default_rng(np.random.PCG64(0))
    for seed, generations, pairs in [(7003, 3, 32), (2**96 + 1, 2, 3)]:
        keys = [(0, 0)] + [(g, u) for g in range(1, generations + 1) for u in range(pairs)]
        for key, state in zip(keys, pcg64_streams(seed, generations, pairs)):
            while buffered and not rng.bit_generator.state["has_uint32"]:
                rng.integers(0, 5)  # a numpy 32-bit draw keeps its raw output's other half in the generator
            rng.bit_generator.state = state
            ref = np.random.default_rng(np.random.SeedSequence(entropy=(seed, *key)))
            assert rng.integers(0, 5) == ref.integers(0, 5)
            assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
            assert rng.random() == ref.random()
            assert rng.standard_normal() == ref.standard_normal()
            draws, ref_draws, sizes = Draws(rng), Draws(ref), (2, 9, 64, 2**31 + 1)
            assert [draws.below(n) for n in sizes] == [ref_draws.below(n) for n in sizes]


# -- tournament draws ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 9, len(_FILLER_VOCAB), 63, 64, 2**31 + 1, 2**32])
def test_draws_below_equals_rng_integers(n):
    # 2**31 + 1 rejects about half of its 32-bit words.
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = Draws(rng)
        assert [draws.below(n) for _ in range(101)] == [int(ref.integers(0, n)) for _ in range(101)]
        assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 9, 64, 2**31 + 1, 2**32])
def test_draws_below_interleaved_with_64_bit_draws_keeps_the_stream(n):
    steps = np.random.default_rng(n).integers(3, size=400).tolist()
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = Draws(rng)
    for step in steps:
        if step == 0:
            assert draws.below(n) == int(ref.integers(0, n))
        elif step == 1:
            assert rng.random() == ref.random()
        else:
            assert rng.standard_normal() == ref.standard_normal()
    assert rng.random() == ref.random()


class RecordingPopulation(list):
    """A population that logs every index read: a tournament reads each of its picks once, in order."""

    def __init__(self, members):
        super().__init__(members)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def _better(a, b):
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a


def reference_winner(pop, picks):
    best = pop[picks[0]]
    for idx in picks[1:]:
        best = _better(best, pop[idx])
    return best


def reference_tournament(pop, cfg, rng, draws):
    """The rng.choice tournament that _tournament must match: its picks, folded by pairwise wins."""
    return reference_winner(pop, rng.choice(len(pop), size=min(cfg.tournament_size, len(pop)), replace=False).tolist())


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4, 64, 1000, 10_000, 10_001) for k in (2, 3, 5, 201) if k <= n])
def test_tournament_picks_equal_rng_choice_without_replacement(n, k):
    cfg = cfg_with(tournament_size=k)
    for seed in range(3):
        source = np.random.default_rng(seed)
        pop = RecordingPopulation(
            Individual(x=midpoint_vector(CATALOG), rank=int(rank), crowding=float(crowding))
            for rank, crowding in zip(source.integers(3, size=n), source.integers(3, size=n))
        )
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = Draws(rng)  # shared, as by a pair's two tournaments in evolve; a third checks an odd count
        for _ in range(3):
            pop.reads.clear()
            winner = _tournament(pop, cfg, rng, draws)
            picks = ref.choice(n, k, replace=False).tolist()
            assert pop.reads == picks
            assert winner is reference_winner(list(pop), picks)
        assert rng.random() == ref.random()


def mixed_landscape(x):
    return (sum(x.values[:8]), sum(x.values[5:]) - 2.0 * x[4])


@pytest.mark.parametrize("population_size, tournament_size", [(8, 3), (8, 5), (2, 2), (2, 5)])
def test_evolve_equals_the_rng_choice_tournament(monkeypatch, population_size, tournament_size):
    # The pinned digests all run binary tournaments; these shapes draw more picks,
    # or none at Floyd's first step (population 2).
    cfg = cfg_with(population_size=population_size, generations=6, tournament_size=tournament_size, seed=3)
    exemplars = [midpoint_vector(CATALOG), FeatureVector(CATALOG.lows), FeatureVector(CATALOG.highs)]

    def run():
        return evolve(cfg, lambda x, key: mixed_landscape(x), exemplars, CATALOG)

    ours = run()
    monkeypatch.setattr(optimizer, "_tournament", reference_tournament)
    ref = run()
    assert (ours.front, ours.trace, ours.log) == (ref.front, ref.trace, ref.log)


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
    results = []
    with pytest.raises(ValidationError) as err:
        evolve(cfg, evaluator, [midpoint_vector(CATALOG)], CATALOG, on_generation=results.append)
    assert "non-finite objectives (nan, 1.0) at generation 1, slot 2" in str(err.value)
    assert len(results[-1].trace.entries) == 1


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


def test_evolve_raises_evaluator_failures_as_themselves_after_handing_over_partial_state():
    calls = {"n": 0}

    def flaky(x, key):
        calls["n"] += 1
        if calls["n"] > 10:
            raise RuntimeError("backend down")
        return (50.0, 50.0)

    results = []
    with pytest.raises(RuntimeError, match="backend down"):
        evolve(cfg_with(population_size=8, generations=3), flaky, [midpoint_vector(CATALOG)], CATALOG,
               on_generation=results.append)
    assert len(results[-1].trace.entries) >= 1


def test_an_internal_bug_in_an_evaluator_leaves_evolve_as_itself_not_as_a_featgeo_error():
    def buggy(x, key):
        return (1 / 0, 0.0) if key[0] == 1 else sphere_landscape(x)

    with pytest.raises(ZeroDivisionError) as err:
        evolve(cfg_with(population_size=4, generations=2), buggy, [midpoint_vector(CATALOG)], CATALOG)
    assert not isinstance(err.value, FeatGeoError)


def test_on_generation_gets_the_result_after_each_generation_and_the_last_is_returned():
    cfg = cfg_with(population_size=6, generations=4, repeats_per_eval=2)
    results = []
    final = evolve(cfg, lambda x, k: sphere_landscape(x), [midpoint_vector(CATALOG)], CATALOG,
                   on_generation=results.append)
    assert len(results) == cfg.generations + 1
    assert results[-1] == final
    for generation, result in enumerate(results):
        assert [gen for gen, _ in result.trace.entries] == list(range(generation + 1))
        assert len(result.log) == (generation + 1) * cfg.population_size
        assert result.evaluations == (generation + 1) * cfg.population_size * cfg.repeats_per_eval


def test_ga_config_validation():
    with pytest.raises(ValidationError):
        GAConfig(population_size=7)
    with pytest.raises(ValidationError):
        GAConfig(population_size=0)
    with pytest.raises(ValidationError):
        GAConfig(generations=0)
    # An index of 2**32 would take a second SeedSequence entropy word, which pcg64_streams does not give it.
    GAConfig(generations=2**32 - 1, population_size=2**33 - 2)
    with pytest.raises(ValidationError, match="generations must lie in"):
        GAConfig(generations=2**32)
    with pytest.raises(ValidationError, match="population size must be even"):
        GAConfig(population_size=2**33)
    with pytest.raises(ValidationError):
        GAConfig(mutation_prob=1.2)
    with pytest.raises(ValidationError):
        GAConfig(mutation_sigma=0.0)
    with pytest.raises(ValidationError):
        GAConfig(repeats_per_eval=0)
    with pytest.raises(ValidationError, match="GA seed must be >= 0, got -1"):
        GAConfig(seed=-1)
    with pytest.raises(ValidationError, match=r"crossover probability must lie in \[0, 1\], got 1.5"):
        GAConfig(crossover_prob=1.5)
    with pytest.raises(ValidationError, match="tournament size must be >= 2, got 1"):
        GAConfig(tournament_size=1)


def test_trace_values_must_be_normalized():
    with pytest.raises(ValidationError):
        HypervolumeTrace(((0, 1.5),))
