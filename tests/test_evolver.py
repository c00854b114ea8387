"""NSGA-II internals and the generational loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import ConfigError, Unevaluated
from subnetsearch.evolver import (
    EvolverConfig,
    Individual,
    crowding_distance,
    evolve,
    non_dominated_sort,
    select_best,
)
from subnetsearch.objectives import (
    IncrementalFront2D,
    ObjectiveSpec,
    ObjectiveVector,
    default_reference,
    pareto_front,
)
from subnetsearch.space import Genotype, enumerate_genotypes, sample_uniform

MIN2 = (ObjectiveSpec("f1", "minimize"), ObjectiveSpec("f2", "minimize"))


def ind(genes, values):
    return Individual(Genotype(genes), ObjectiveVector(values, MIN2))


def brute_rank(pop):
    """O(n^3) repeated peeling with a direct dominance oracle."""

    def dom(a, b):
        av = a.objectives.canonical_min
        bv = b.objectives.canonical_min
        return all(x <= y for x, y in zip(av, bv)) and av != bv

    remaining = list(range(len(pop)))
    ranks = {}
    rank = 0
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dom(pop[j], pop[i]) for j in remaining if j != i)
        ]
        for i in front:
            ranks[i] = rank
        remaining = [i for i in remaining if i not in front]
        rank += 1
    return ranks


# ---------------------------------------------------------------------------
# non_dominated_sort
# ---------------------------------------------------------------------------


def test_nds_single_front_when_mutually_nondominated():
    pop = [ind((i,), (float(i), float(9 - i))) for i in range(10)]
    fronts = non_dominated_sort(pop)
    assert fronts == [list(range(10))]


def test_nds_chain_gives_singleton_fronts():
    pop = [ind((0,), (1.0, 1.0)), ind((1,), (2.0, 2.0)), ind((2,), (3.0, 3.0))]
    assert non_dominated_sort(pop) == [[0], [1], [2]]


def test_nds_requires_evaluation():
    with pytest.raises(Unevaluated):
        non_dominated_sort([Individual(Genotype((0,)))])


def test_nds_matches_brute_force_ranks():
    rng = np.random.default_rng(17)
    pop = [ind((i,), tuple(rng.uniform(0, 1, 2))) for i in range(200)]
    fronts = non_dominated_sort(pop)
    want = brute_rank(pop)
    got = {}
    for rank, front in enumerate(fronts):
        for i in front:
            got[i] = rank
    assert got == want
    assert sorted(i for f in fronts for i in f) == list(range(200))


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_nds_matches_brute_force_on_tied_grids(m, data):
    # A 5^m grid forces ties in single coordinates and exact duplicates;
    # m = 3 exercises the counting path, m = 2 the sweep.
    values = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=40))
    specs = tuple(ObjectiveSpec(f"f{k}", "minimize") for k in range(m))
    pop = [
        Individual(Genotype((i,)), ObjectiveVector(v, specs))
        for i, v in enumerate(values)
    ]
    fronts = non_dominated_sort(pop)
    assert {i: rank for rank, f in enumerate(fronts) for i in f} == brute_rank(pop)
    assert sorted(i for f in fronts for i in f) == list(range(len(pop)))
    assert all(f == sorted(f) for f in fronts)


# ---------------------------------------------------------------------------
# crowding_distance
# ---------------------------------------------------------------------------


def test_crowding_small_fronts_all_infinite():
    assert crowding_distance([ind((0,), (1.0, 2.0))]) == [math.inf]
    two = [ind((0,), (1.0, 2.0)), ind((1,), (2.0, 1.0))]
    assert crowding_distance(two) == [math.inf, math.inf]


def test_crowding_three_collinear_equally_spaced():
    front = [ind((0,), (0.0, 1.0)), ind((1,), (0.5, 0.5)), ind((2,), (1.0, 0.0))]
    dist = crowding_distance(front)
    assert dist[0] == math.inf and dist[2] == math.inf
    # per objective: (above - below) / span = 1.0; summed over 2 objectives
    assert dist[1] == pytest.approx(2.0)


def test_crowding_direct_formula_interior_point():
    front = [
        ind((0,), (0.0, 1.0)),
        ind((1,), (0.2, 0.7)),
        ind((2,), (0.6, 0.4)),
        ind((3,), (1.0, 0.0)),
    ]
    dist = crowding_distance(front)
    # point 1: f1 neighbors 0.0/0.6 span 1.0 -> 0.6; f2 neighbors 1.0/0.4 span 1.0 -> 0.6
    assert dist[1] == pytest.approx(1.2)
    assert dist[2] == pytest.approx((1.0 - 0.2) / 1.0 + (0.7 - 0.0) / 1.0)


def test_crowding_permutation_invariant():
    rng = np.random.default_rng(23)
    front = [ind((i,), tuple(rng.uniform(0, 1, 2))) for i in range(30)]
    base = crowding_distance(front)
    perm = rng.permutation(30)
    shuffled = [front[i] for i in perm]
    redone = crowding_distance(shuffled)
    for new_pos, old_pos in enumerate(perm):
        assert redone[new_pos] == base[old_pos]


def test_crowding_zero_range_objective_contributes_zero():
    front = [ind((i,), (float(i), 5.0)) for i in range(4)]
    dist = crowding_distance(front)
    assert dist[0] == math.inf and dist[3] == math.inf
    assert dist[1] == pytest.approx((2.0 - 0.0) / 3.0)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def rank_sum_evaluate(space):
    """Single-objective-ish toy: minimize the sum of ordinal gene ranks of
    active genes (second objective constant)."""

    def evaluate(genotypes):
        out = []
        for g in genotypes:
            mask = space.active_mask(g)
            total = sum(
                space.value_rank(pos, v)
                for pos, (v, act) in enumerate(zip(g.genes, mask))
                if act
            )
            out.append(ObjectiveVector((float(total), 0.0), MIN2))
        return out

    return evaluate


def two_objective_evaluate(space):
    """Conflicting objectives: sum of ranks vs sum of reversed ranks."""

    def evaluate(genotypes):
        out = []
        for g in genotypes:
            ranks = [space.value_rank(pos, v) for pos, v in enumerate(g.genes)]
            f1 = float(sum(ranks))
            f2 = float(
                sum(len(space.allowed[p]) - 1 - r for p, r in enumerate(ranks))
            )
            out.append(ObjectiveVector((f1, f2), MIN2))
        return out

    return evaluate


def test_config_defaults_match_convention():
    cfg = EvolverConfig(population_size=40, generations=5)
    assert cfg.crossover_rate == 0.9
    assert cfg.resolved_mutation_rate == pytest.approx(1 / 40)
    assert cfg.resolved_retry_budget == 400


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolverConfig(population_size=0, generations=1)
    with pytest.raises(ConfigError):
        EvolverConfig(population_size=10, generations=1, crossover_rate=1.5)
    with pytest.raises(ConfigError):
        EvolverConfig(population_size=10, generations=1, mutation_rate=0.0)


def test_evolve_finds_global_optimum_on_toy_problem(toy_space):
    """Exhaustive-enumeration oracle for the convex rank-sum problem."""
    evaluate = rank_sum_evaluate(toy_space)
    best_true = min(
        evaluate([g])[0].values[0] for g in enumerate_genotypes(toy_space)
    )
    cfg = EvolverConfig(population_size=20, generations=30, seed=3)
    trace = evolve(toy_space, cfg, evaluate)
    best_found = min(i.objectives.values[0] for i in trace.final_population)
    assert best_found == best_true


def test_evolve_zero_generations_front_is_initial_front(tiny_space):
    evaluate = two_objective_evaluate(tiny_space)
    cfg = EvolverConfig(population_size=10, generations=0, seed=1)
    trace = evolve(tiny_space, cfg, evaluate)
    assert len(trace.populations) == 1
    front_from_trace = pareto_front(trace.evaluations)
    init_genes = {i.genotype.genes for i in trace.populations[0]}
    assert {r.genotype.genes for r in front_from_trace} <= init_genes


def test_evolve_deterministic(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    cfg = EvolverConfig(population_size=16, generations=12, seed=99)
    t1 = evolve(toy_space, cfg, evaluate)
    t2 = evolve(toy_space, cfg, evaluate)
    assert [(e.gen, e.genotype.genes, e.objectives_raw.values) for e in t1.evaluations] == [
        (e.gen, e.genotype.genes, e.objectives_raw.values) for e in t2.evaluations
    ]
    assert [[i.genotype.genes for i in pop] for pop in t1.populations] == [
        [i.genotype.genes for i in pop] for pop in t2.populations
    ]


def test_evolve_seed_changes_trace(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    t1 = evolve(toy_space, EvolverConfig(16, 12, seed=1), evaluate)
    t2 = evolve(toy_space, EvolverConfig(16, 12, seed=2), evaluate)
    assert [e.genotype.genes for e in t1.evaluations] != [
        e.genotype.genes for e in t2.evaluations
    ]


def test_evaluation_log_has_no_duplicates(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(20, 25, seed=5), evaluate)
    genes = [e.genotype.genes for e in trace.evaluations]
    assert len(genes) == len(set(genes))


def test_children_are_canonical(toy_space):
    from subnetsearch.space import is_canonical

    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(15, 10, seed=8), evaluate)
    assert all(is_canonical(e.genotype, toy_space) for e in trace.evaluations)


def test_duplicate_exhaustion_flagged_on_tiny_space(tiny_space):
    # 36 genotypes total; a 20x10 run must exhaust the space and accept dupes
    evaluate = two_objective_evaluate(tiny_space)
    trace = evolve(tiny_space, EvolverConfig(20, 10, seed=2), evaluate)
    genes = [e.genotype.genes for e in trace.evaluations]
    assert len(genes) == len(set(genes))  # log still unique
    assert trace.duplicate_accepts > 0  # but duplicates were admitted with a flag
    assert len(genes) <= 36


def test_elitism_cumulative_front_hv_non_decreasing(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(12, 20, seed=4), evaluate)
    gen0 = [e for e in trace.evaluations if e.gen == 0]
    ref = default_reference([e.objectives_raw for e in gen0])
    front = IncrementalFront2D(ref)
    hv = 0.0
    for e in trace.evaluations:
        front.insert(e.objectives_raw.canonical_min)
        new = front.hypervolume()
        assert new >= hv - 1e-12
        hv = new


def test_warm_start_beats_random_init_at_gen_zero(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    # near-optimal seeds from a long-run front
    long = evolve(toy_space, EvolverConfig(20, 30, seed=7), evaluate)
    seeds = [r.genotype for r in pareto_front(long.evaluations)]

    cfg = EvolverConfig(population_size=12, generations=0, seed=11)
    warm = evolve(toy_space, cfg, evaluate, warm_start=seeds)
    cold = evolve(toy_space, cfg, evaluate)

    def gen0_hv(trace, ref):
        front = IncrementalFront2D(ref)
        for e in trace.evaluations:
            front.insert(e.objectives_raw.canonical_min)
        return front.hypervolume()

    ref = default_reference(
        [e.objectives_raw for e in cold.evaluations]
        + [e.objectives_raw for e in warm.evaluations]
    )
    assert gen0_hv(warm, ref) >= gen0_hv(cold, ref)
    assert warm.warm_start_size > 0


def test_warm_start_truncates_oversized_seed_list(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    seeds = sample_uniform(toy_space, 30, seed=1)
    cfg = EvolverConfig(population_size=10, generations=1, seed=0)
    trace = evolve(toy_space, cfg, evaluate, warm_start=seeds)
    assert len(trace.populations[0]) == 10
    # every distinct seed was evaluated before truncation
    seed_keys = {g.genes for g in seeds}
    gen0 = {e.genotype.genes for e in trace.evaluations if e.gen == 0}
    assert seed_keys <= gen0


def test_warm_start_repairs_invalid_entries(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    bad = Genotype((9,) * toy_space.genome_length)
    cfg = EvolverConfig(population_size=6, generations=1, seed=0)
    trace = evolve(toy_space, cfg, evaluate, warm_start=[bad])
    from subnetsearch.space import is_canonical

    assert all(is_canonical(i.genotype, toy_space) for i in trace.populations[0])


def test_select_best_excludes_and_backfills():
    pop = [ind((i,), (float(i), float(10 - i))) for i in range(10)]
    chosen = select_best(pop, 3, exclude={(0,), (1,)})
    assert len(chosen) == 3
    assert all(c.genotype.genes not in {(0,), (1,)} for c in chosen)
