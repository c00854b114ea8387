"""NSGA-II internals and the generational loop."""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import ConfigError, ObjectiveMismatch
from subnetsearch.evolver import (
    CROSSOVER_RATE,
    EvolverConfig,
    Slots,
    _admit,
    _crowding,
    _cut_points,
    _offspring,
    _other_rank,
    _ranked,
    _row_hasher,
    _variation_tables,
    evolve,
    non_dominated_sort,
    select_best,
)
from subnetsearch.objectives import (
    EvaluationRecord,
    IncrementalFront2D,
    ObjectiveSpec,
    ObjectiveVector,
    default_reference,
    front_ranks,
    pareto_front,
)
from subnetsearch.space import (
    Genotype,
    SearchSpace,
    enumerate_genotypes,
    get_preset,
    inactive_genes,
    rank_genes,
    rank_matrix,
    repaired_ranks,
    sample_uniform,
)
from subnetsearch.util import genes_bytes, stable_hash64, subseed

from conftest import (
    DIGEST_MOVED,
    ORACLE_SPACES,
    active_mask_loop,
    in_reduced_form_loop,
    raw_genotypes,
    reductions,
)

MIN2 = (ObjectiveSpec("f1", "minimize"), ObjectiveSpec("f2", "minimize"))


def genotypes_of(ranks, space):
    """The Genotypes of rank rows of `space`."""
    return [Genotype(genes) for genes in rank_genes(ranks, space)]


def tiebreak_hash(salt):
    """The salted tie-break hash of a gene tuple by its definition,
    `stable_hash64` of its `genes_bytes` and the salt: the oracle of
    `_row_hasher`."""
    return lambda genes: stable_hash64(genes_bytes(genes), salt)


def population_records(trace):
    """The evaluation records of each generation's population of a trace."""
    evaluations = trace.evaluations
    return [[evaluations[i] for i in ids.tolist()] for ids in trace.population_ids]


def ind(genes, values, specs=MIN2):
    return EvaluationRecord(
        Genotype(genes), ObjectiveVector(values, specs), "", 0
    )


def slots_of(pop, salt=0):
    """The array form of records whose genes are small ranks: each slot's
    genes as its rank row, the salted tie-break hash, and the index of the
    genotype's first slot as its id."""
    genes = [rec.genotype.genes for rec in pop]
    length, m = (len(genes[0]), len(pop[0].objectives_raw.values)) if pop else (1, 2)
    ranks = np.array(genes, dtype=np.uint8).reshape(len(pop), length)
    values = np.array([rec.objectives_raw.canonical_min for rec in pop]).reshape(len(pop), m)
    first = {}
    return Slots(
        ranks, values,
        np.array([tiebreak_hash(salt)(g) for g in genes], dtype=np.uint64),
        np.array([first.setdefault(g, i) for i, g in enumerate(genes)], dtype=np.intp),
    )


def crowding(front):
    """Crowding of records taken as one front, by the array form."""
    s = slots_of(front)
    return _crowding(s.values, np.zeros(len(s), dtype=np.intp), s.ranks).tolist()


def brute_rank(pop):
    """O(n^3) repeated peeling with a direct dominance oracle."""

    def dom(a, b):
        av = a.objectives_raw.canonical_min
        bv = b.objectives_raw.canonical_min
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
    fronts = non_dominated_sort(slots_of(pop))
    assert fronts == [list(range(10))]


def test_nds_chain_gives_singleton_fronts():
    pop = [ind((0,), (1.0, 1.0)), ind((1,), (2.0, 2.0)), ind((2,), (3.0, 3.0))]
    assert non_dominated_sort(slots_of(pop)) == [[0], [1], [2]]


def test_nds_matches_brute_force_ranks():
    rng = np.random.default_rng(17)
    pop = [ind((i,), tuple(rng.uniform(0, 1, 2))) for i in range(200)]
    fronts = non_dominated_sort(slots_of(pop))
    want = brute_rank(pop)
    got = {}
    for rank, front in enumerate(fronts):
        for i in front:
            got[i] = rank
    assert got == want
    assert sorted(i for f in fronts for i in f) == list(range(200))


@pytest.mark.parametrize("m", [2])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_nds_matches_brute_force_on_tied_grids(m, data):
    # A 5^m grid forces ties in single coordinates and exact duplicates.
    values = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=40))
    specs = tuple(ObjectiveSpec(f"f{k}", "minimize") for k in range(m))
    pop = [ind((i,), v, specs) for i, v in enumerate(values)]
    fronts = non_dominated_sort(slots_of(pop))
    assert {i: rank for rank, f in enumerate(fronts) for i in f} == brute_rank(pop)
    assert sorted(i for f in fronts for i in f) == list(range(len(pop)))
    assert all(f == sorted(f) for f in fronts)


def ranks_by_peeling(points):
    """Front ranks by repeated peeling with a dominance matrix: the oracle
    for `front_ranks`. Equal points (-0.0 equals 0.0) dominate neither way."""
    pts = np.asarray(points, dtype=float)
    dominated_by = (
        (pts[None, :, :] <= pts[:, None, :]).all(axis=2)
        & (pts[None, :, :] < pts[:, None, :]).any(axis=2)
    )  # [i, j]: point j dominates point i
    rank = np.full(len(pts), -1)
    k = 0
    while (rank < 0).any():
        left = rank < 0
        rank[left & ~(dominated_by & left[None, :]).any(axis=1)] = k
        k += 1
    return rank.tolist()


# a coarse grid with -0.0 beside 0.0: ties in each coordinate, exact
# duplicates and points equal but for the sign of a zero
GRID = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


@settings(max_examples=150, deadline=None, database=None)
@given(points=st.lists(st.tuples(GRID, GRID), min_size=1, max_size=150))
def test_front_ranks_match_peeling_on_tied_grids(points):
    rank = front_ranks(np.array(points))
    assert rank.tolist() == ranks_by_peeling(points)
    n = len(points)
    slots = Slots(np.zeros((n, 1), np.uint8), np.array(points), np.zeros(n, np.uint64),
                  np.arange(n))
    assert non_dominated_sort(slots) == [
        [i for i, r in enumerate(rank.tolist()) if r == k] for k in range(rank.max() + 1)
    ]


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_crowding_matches_per_front_loop_on_tied_grids(data):
    # Several fronts on a signed-zero grid; the overall extremes of each
    # objective (extremes of their fronts) are repeated, once as the same
    # genotype in another slot and once as another genotype.
    n = data.draw(st.integers(1, 40))
    values = data.draw(st.lists(st.tuples(GRID, GRID), min_size=n, max_size=n))
    genes = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               min_size=n, max_size=n))
    pop = [ind(g, v) for g, v in zip(genes, values)]
    for k in range(2):
        edge = min(range(n), key=lambda i: (values[i][k], values[i][1 - k]))
        pop += [pop[edge], ind((3, k), values[edge])]
    slots = slots_of(pop)
    rank = front_ranks(slots.values)
    got = _crowding(slots.values, rank, slots.ranks).tolist()
    want = [None] * len(pop)
    for front_idx in brute_fronts(pop):
        for i, c in zip(front_idx, crowding_loop([pop[i] for i in front_idx])):
            want[i] = c
    assert got == want


# ---------------------------------------------------------------------------
# crowding distance
# ---------------------------------------------------------------------------


def test_crowding_small_fronts_all_infinite():
    assert crowding([ind((0,), (1.0, 2.0))]) == [math.inf]
    two = [ind((0,), (1.0, 2.0)), ind((1,), (2.0, 1.0))]
    assert crowding(two) == [math.inf, math.inf]


def test_crowding_three_collinear_equally_spaced():
    front = [ind((0,), (0.0, 1.0)), ind((1,), (0.5, 0.5)), ind((2,), (1.0, 0.0))]
    dist = crowding(front)
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
    dist = crowding(front)
    # point 1: f1 neighbors 0.0/0.6 span 1.0 -> 0.6; f2 neighbors 1.0/0.4 span 1.0 -> 0.6
    assert dist[1] == pytest.approx(1.2)
    assert dist[2] == pytest.approx((1.0 - 0.2) / 1.0 + (0.7 - 0.0) / 1.0)


def test_crowding_permutation_invariant():
    rng = np.random.default_rng(23)
    front = [ind((i,), tuple(rng.uniform(0, 1, 2))) for i in range(30)]
    base = crowding(front)
    perm = rng.permutation(30)
    shuffled = [front[i] for i in perm]
    redone = crowding(shuffled)
    for new_pos, old_pos in enumerate(perm):
        assert redone[new_pos] == base[old_pos]


def test_crowding_zero_range_objective_contributes_zero():
    front = [ind((i,), (float(i), 5.0)) for i in range(4)]
    dist = crowding(front)
    assert dist[0] == math.inf and dist[3] == math.inf
    assert dist[1] == pytest.approx((2.0 - 0.0) / 3.0)


def crowding_loop(front):
    """The per-objective loop oracle for the crowding of one front."""
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    m = len(front[0].objectives_raw.canonical_min)
    dist = [0.0] * n
    for k in range(m):
        vals = [rec.objectives_raw.canonical_min[k] for rec in front]
        vmin, vmax = min(vals), max(vals)
        span = vmax - vmin
        if span == 0.0:
            continue
        order = sorted(range(n), key=lambda i: (vals[i], front[i].genotype.genes))
        for pos, i in enumerate(order):
            if vals[i] == vmin or vals[i] == vmax:
                dist[i] = math.inf
            elif dist[i] != math.inf:
                above = vals[order[pos + 1]]
                below = vals[order[pos - 1]]
                dist[i] += (above - below) / span
    return dist


def slot_keys_loop(pop, tiebreak):
    """The per-front loop oracle for the slot keys of `_ranked`: per slot,
    (front rank, -crowding, tie-break hash), lower is better."""
    keys = [None] * len(pop)
    for rank, front_idx in enumerate(brute_fronts(pop)):
        crowd = crowding_loop([pop[i] for i in front_idx])
        for i, c in zip(front_idx, crowd):
            keys[i] = (rank, -c, tiebreak(pop[i].genotype.genes))
    return keys


def brute_fronts(pop):
    """The fronts of `brute_rank`, best first, as sorted index lists."""
    ranks = brute_rank(pop)
    return [sorted(i for i in ranks if ranks[i] == r) for r in range(len(set(ranks.values())))]


def slot_keys(slots):
    """Per slot, its key from `_ranked`."""
    rank, crowd, _ = _ranked(slots)
    return list(zip(rank.tolist(), (-crowd).tolist(), slots.hashes.tolist()))


def assert_same_slots(slots, records):
    """`slots` hold the genotypes and objectives of `records`, in order."""
    assert slots.ranks.tolist() == [list(r.genotype.genes) for r in records]
    assert slots.values.tolist() == [list(r.objectives_raw.canonical_min) for r in records]


def select_best_loop(pop, k, exclude, tiebreak):
    """The sorted-keys oracle for `select_best`."""
    keys = slot_keys_loop(pop, tiebreak)
    chosen, seen = [], set(exclude)
    for i in sorted(range(len(pop)), key=keys.__getitem__):
        if pop[i].genotype.genes not in seen:
            seen.add(pop[i].genotype.genes)
            chosen.append((keys[i], pop[i]))
            if len(chosen) == k:
                break
    return chosen


@pytest.mark.parametrize("m", [2])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_vectorized_slot_keys_match_loop_oracles_on_tied_grids(m, data):
    # Objectives on a 4^m grid and genotypes over a 3^2 alphabet force ties
    # in value, in genotype and in both; twins put one record in two slots.
    n = data.draw(st.integers(0, 30))
    values = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                                min_size=n, max_size=n))
    genes = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               min_size=n, max_size=n))
    specs = tuple(ObjectiveSpec(f"f{k}", "minimize") for k in range(m))
    pop = [ind(g, tuple(map(float, v)), specs) for g, v in zip(genes, values)]
    twins = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=5)) if n else []
    pop += [pop[i] for i in twins]
    salt = data.draw(st.integers(0, 3))
    tiebreak = tiebreak_hash(salt)
    slots = slots_of(pop, salt)

    assert crowding(pop) == crowding_loop(pop)
    keys = slot_keys(slots)
    assert keys == slot_keys_loop(pop, tiebreak)
    assert all(type(c) is float for _, c, _ in keys)
    k = data.draw(st.integers(1, max(len(pop), 1)))
    exclude = set(data.draw(st.lists(st.sampled_from(genes), max_size=3))) if n else set()
    excluded_ids = [i for i, rec in enumerate(pop) if rec.genotype.genes in exclude]
    got = select_best(slots, k, exclude=excluded_ids)
    want = select_best_loop(pop, k, exclude, tiebreak)
    assert_same_slots(got, [rec for _, rec in want])


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def rank_sum_evaluate(space):
    """Single-objective-ish toy: minimize the sum of ordinal gene ranks of
    active genes (second objective constant)."""

    def evaluate(rows):
        out = []
        for genes in rank_genes(rows, space):
            mask = active_mask_loop(Genotype(genes), space)
            total = sum(
                space.value_rank(pos, v)
                for pos, (v, act) in enumerate(zip(genes, mask))
                if act
            )
            out.append((float(total), 0.0))
        return np.array(out)

    return evaluate


def two_objective_evaluate(space):
    """Conflicting objectives: sum of ranks vs sum of reversed ranks."""

    def evaluate(rows):
        out = []
        for ranks in rows.tolist():
            f1 = float(sum(ranks))
            f2 = float(
                sum(len(space.allowed[p]) - 1 - r for p, r in enumerate(ranks))
            )
            out.append((f1, f2))
        return np.array(out)

    return evaluate


def test_config_defaults_match_convention(toy_space):
    """Crossover rate 0.9 per pair, and per-gene mutation rate 1 / population
    size at every position with more than one active rank."""
    cfg = EvolverConfig(population_size=40, generations=5)
    assert CROSSOVER_RATE == 0.9
    rates = _variation_tables(toy_space, cfg, np.uint8)[1]
    assert rates.tolist() == [1 / 40] * toy_space.genome_length


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolverConfig(population_size=0, generations=1)
    with pytest.raises(ConfigError):
        EvolverConfig(population_size=10, generations=-1)


def test_evolve_finds_global_optimum_on_toy_problem(toy_space):
    """Exhaustive-enumeration oracle for the convex rank-sum problem."""
    evaluate = rank_sum_evaluate(toy_space)
    best_true = evaluate(
        rank_matrix(list(enumerate_genotypes(toy_space)), toy_space)
    )[:, 0].min()
    cfg = EvolverConfig(population_size=20, generations=30, seed=3)
    trace = evolve(toy_space, cfg, evaluate, MIN2)
    best_found = min(r.objectives_raw.values[0] for r in population_records(trace)[-1])
    assert best_found == best_true


def test_evolve_zero_generations_front_is_initial_front(tiny_space):
    evaluate = two_objective_evaluate(tiny_space)
    cfg = EvolverConfig(population_size=10, generations=0, seed=1)
    trace = evolve(tiny_space, cfg, evaluate, MIN2)
    assert len(population_records(trace)) == 1
    front_from_trace = pareto_front(trace.evaluations)
    init_genes = {i.genotype.genes for i in population_records(trace)[0]}
    assert {r.genotype.genes for r in front_from_trace} <= init_genes


def test_evolve_deterministic(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    cfg = EvolverConfig(population_size=16, generations=12, seed=99)
    t1 = evolve(toy_space, cfg, evaluate, MIN2)
    t2 = evolve(toy_space, cfg, evaluate, MIN2)
    assert [(e.gen, e.genotype.genes, e.objectives_raw.values) for e in t1.evaluations] == [
        (e.gen, e.genotype.genes, e.objectives_raw.values) for e in t2.evaluations
    ]
    assert [[i.genotype.genes for i in pop] for pop in population_records(t1)] == [
        [i.genotype.genes for i in pop] for pop in population_records(t2)
    ]


def test_evolve_seed_changes_trace(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    t1 = evolve(toy_space, EvolverConfig(16, 12, seed=1), evaluate, MIN2)
    t2 = evolve(toy_space, EvolverConfig(16, 12, seed=2), evaluate, MIN2)
    assert [e.genotype.genes for e in t1.evaluations] != [
        e.genotype.genes for e in t2.evaluations
    ]


def test_evaluation_log_has_no_duplicates(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(20, 25, seed=5), evaluate, MIN2)
    genes = [e.genotype.genes for e in trace.evaluations]
    assert len(genes) == len(set(genes))


def test_children_are_canonical(toy_space):
    from subnetsearch.space import is_canonical

    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(15, 10, seed=8), evaluate, MIN2)
    assert all(is_canonical(e.genotype, toy_space) for e in trace.evaluations)


def test_duplicate_exhaustion_flagged_on_tiny_space(tiny_space):
    # 36 genotypes total; a 20x10 run must exhaust the space and accept dupes
    evaluate = two_objective_evaluate(tiny_space)
    trace = evolve(tiny_space, EvolverConfig(20, 10, seed=2), evaluate, MIN2)
    genes = [e.genotype.genes for e in trace.evaluations]
    assert len(genes) == len(set(genes))  # log still unique
    assert trace.duplicate_accepts > 0  # but duplicates were admitted with a flag
    assert len(genes) <= 36


# Trajectories recorded with the exact, integer-valued two_objective_evaluate;
# no predictor or BLAS call is involved, so they hold on every platform. An
# evaluation is gen:genes:f1:f2 with the genes as digits (every gene value in
# these spaces is one digit); a population is its genotypes in slot order.
TOY_EVALUATIONS = """
0:2556427743:12:6 0:2534315333:4:14 0:2736415363:9:9 0:1533317333:3:15
0:2556415333:7:11 0:2356327746:12:6 1:1536317343:6:12 1:2573315363:7:11
1:2736327746:13:5 1:2756315363:9:9 1:2736417343:9:9 1:2556425334:9:9
2:1534317343:5:13 2:2534415333:5:13 2:1533315333:2:16 2:2533425744:9:9
2:2334313363:4:14 2:2554315333:5:13 3:2534315343:5:13 3:1736325743:9:9
3:1736327746:12:6 3:1536327743:9:9 3:2733315333:4:14 3:2533615333:5:13
"""
TOY_POPULATIONS = [
    (
        "2556427743 2356327746 1533317333 2736415363 2556415333 2534315333"
    ),
    (
        "2736327746 1533317333 2534315333 1536317343 2756315363 2556425334"
    ),
    (
        "1533315333 2736327746 1536317343 2756315363 2533425744 1533317333"
    ),
    (
        "1533315333 2736327746 1736327746 1536317343 2756315363 1536327743"
    ),
]
TINY_EVALUATIONS = """
0:110100:1:5 0:211110:4:2 0:201100:2:4 0:201201:4:2 0:100200:1:5 0:200211:4:2
0:110210:3:3 0:100210:2:4 0:110200:2:4 0:100201:2:4 0:201211:5:1 0:211200:4:2
0:110201:3:3 0:110110:2:4 0:100110:1:5 0:200210:3:3 0:100100:0:6 0:200100:1:5
0:110211:4:2 0:100211:3:3 1:200110:2:4 1:210200:3:3 1:200200:2:4 1:210210:4:2
1:200201:3:3 1:211100:3:3 1:211210:5:1 1:210211:5:1 1:201110:3:3 1:211201:5:1
1:211211:6:0 1:201200:3:3 1:210100:2:4 1:201210:4:2 1:210110:3:3 2:210201:4:2
"""
TINY_POPULATIONS = [
    (
        "201211 100100 100211 100110 211200 110211 200100 201100 100201 200210 110100 "
        "100200 110201 211110 100210 110110 200211 110200 110210 201201"
    ),
    (
        "211211 100100 100211 210100 100110 211200 110211 200100 201211 211210 100201 "
        "211100 210211 110100 100200 210210 200201 110201 211110 100210"
    ),
    (
        "211211 100100 100211 210100 100110 211200 110211 200100 201211 211210 100201 "
        "211100 210211 210201 110100 100200 210210 200201 110201 211110"
    ),
]
TINY40_EVALUATIONS = """
0:110100:1:5 0:211110:4:2 0:201100:2:4 0:201201:4:2 0:100200:1:5 0:200211:4:2
0:110210:3:3 0:100210:2:4 0:110200:2:4 0:100201:2:4 0:201211:5:1 0:211200:4:2
0:110201:3:3 0:110110:2:4 0:100110:1:5 0:200210:3:3 0:100100:0:6 0:200100:1:5
0:110211:4:2 0:100211:3:3 0:200200:2:4 0:211100:3:3 0:210210:4:2 0:210100:2:4
0:210201:4:2 0:200110:2:4 0:211211:6:0 0:211201:5:1 0:201110:3:3 0:201210:4:2
0:210200:3:3 0:210110:3:3 0:211210:5:1 0:210211:5:1 0:201200:3:3 0:200201:3:3
"""
TINY40_POPULATIONS = [
    (
        "211211 100100 100211 210100 100110 211200 110211 200100 201211 211210 100201 "
        "211100 210211 210201 110100 100200 210210 200201 110201 211110 211110 211200 "
        "100210 201210 211201 200200 201100 110110 200211 110200 210200 200110 110210 "
        "201201 210110 201110 201110 200210 200210 201200"
    ),
    (
        "211211 100100 100211 210100 100110 211200 110211 200100 201211 211210 100201 "
        "211100 210211 210201 110100 100200 210210 200201 110201 211110 100210 201210 "
        "211201 200200 201100 110110 200211 110200 210200 200110 110210 201201 210110 "
        "201110 200210 201200"
    ),
]


def _digits(genes):
    return "".join(str(g) for g in genes)


def _parse_evaluations(text):
    rows = (word.split(":") for word in text.split())
    return [(int(g), genes, float(f1), float(f2)) for g, genes, f1, f2 in rows]


@pytest.mark.parametrize(
    "space_name, cfg, evaluations, populations, duplicate_accepts",
    [
        ("toy_space", EvolverConfig(6, 3, seed=5), TOY_EVALUATIONS,
         TOY_POPULATIONS, 0),
        ("tiny_space", EvolverConfig(20, 10, seed=2), TINY_EVALUATIONS,
         TINY_POPULATIONS[:2] + TINY_POPULATIONS[2:] * 9, 184),
        # 40 slots for 36 genotypes: the initial population holds some
        # genotypes twice.
        ("tiny_space", EvolverConfig(40, 3, seed=2), TINY40_EVALUATIONS,
         TINY40_POPULATIONS[:1] + TINY40_POPULATIONS[1:] * 3, 124),
    ],
    ids=["toy", "tiny", "tiny-oversized-population"],
)
def test_evolve_trajectory_is_pinned(request, space_name, cfg, evaluations,
                                     populations, duplicate_accepts):
    space = request.getfixturevalue(space_name)
    trace = evolve(space, cfg, two_objective_evaluate(space), MIN2)
    assert [
        (e.gen, _digits(e.genotype.genes), *e.objectives_raw.values)
        for e in trace.evaluations
    ] == _parse_evaluations(evaluations)
    assert [
        " ".join(_digits(r.genotype.genes) for r in pop) for pop in population_records(trace)
    ] == populations
    assert trace.duplicate_accepts == duplicate_accepts


EVALUATIONS_SHA256 = "a8cba1d1ae5b9bebe788a5869589deb14608eada61aa681da60e9dee6b63cea3"
POPULATIONS_SHA256 = "70e445cb0f88d584682acfd500ad8d2a00b043bd4ef7ada45c1ad8a0d4d1385c"


def tied_sums_evaluate(rows):
    """Integer sums of rank over two overlapping parts of the genome, one
    minimized and one maximized: exact, free of BLAS, with many ties."""
    rows = rows.astype(np.int64)
    return np.column_stack([rows[:, :25].sum(axis=1), (2 - rows[:, 20:]).sum(axis=1)]) * 1.0


def test_benchmark_scale_trajectory_is_pinned():
    # The benchmark's inner-search scale (mobilenetv3-like, pop 50, 40
    # generations); 472 distinct objective vectors among 2050 evaluations.
    # Digests recorded with the list-based generation step this one replaced.
    trace = evolve(get_preset("mobilenetv3-like"), EvolverConfig(50, 40, seed=19),
                   tied_sums_evaluate, MIN2)
    evaluations = "\n".join(
        f"{e.gen}:{_digits(e.genotype.genes)}:{e.objectives_raw.values}" for e in trace.evaluations
    )
    populations = "\n".join(
        " ".join(_digits(r.genotype.genes) for r in pop) for pop in population_records(trace)
    )
    assert (len(trace.evaluations), trace.duplicate_accepts) == (2050, 0)
    assert hashlib.sha256(evaluations.encode()).hexdigest() == EVALUATIONS_SHA256, DIGEST_MOVED
    assert hashlib.sha256(populations.encode()).hexdigest() == POPULATIONS_SHA256, DIGEST_MOVED


def test_population_members_are_the_trace_records(tiny_space):
    trace = evolve(tiny_space, EvolverConfig(20, 4, seed=2),
                   two_objective_evaluate(tiny_space), MIN2)
    assert [e.sequence_number for e in trace.evaluations] == list(
        range(len(trace.evaluations))
    )
    by_genes = {e.genotype.genes: e for e in trace.evaluations}
    for pop in population_records(trace):
        assert all(r is by_genes[r.genotype.genes] for r in pop)


def test_elitism_cumulative_front_hv_non_decreasing(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(12, 20, seed=4), evaluate, MIN2)
    gen0 = [e for e in trace.evaluations if e.gen == 0]
    ref = default_reference([e.objectives_raw.canonical_min for e in gen0])
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
    long = evolve(toy_space, EvolverConfig(20, 30, seed=7), evaluate, MIN2)
    seeds = [r.genotype for r in pareto_front(long.evaluations)]

    cfg = EvolverConfig(population_size=12, generations=0, seed=11)
    warm = evolve(toy_space, cfg, evaluate, MIN2, warm_start=repaired_ranks(seeds, toy_space))
    cold = evolve(toy_space, cfg, evaluate, MIN2)

    def gen0_hv(trace, ref):
        front = IncrementalFront2D(ref)
        for e in trace.evaluations:
            front.insert(e.objectives_raw.canonical_min)
        return front.hypervolume()

    ref = default_reference(
        [e.objectives_raw.canonical_min for e in cold.evaluations]
        + [e.objectives_raw.canonical_min for e in warm.evaluations]
    )
    assert gen0_hv(warm, ref) >= gen0_hv(cold, ref)
    repaired = set(rank_genes(repaired_ranks(seeds, toy_space), toy_space))
    assert repaired and repaired <= {e.genotype.genes for e in warm.evaluations if e.gen == 0}


def test_warm_start_truncates_oversized_seed_list(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    seeds = sample_uniform(toy_space, 30, seed=1)
    cfg = EvolverConfig(population_size=10, generations=1, seed=0)
    trace = evolve(toy_space, cfg, evaluate, MIN2, warm_start=rank_matrix(seeds, toy_space))
    assert len(population_records(trace)[0]) == 10
    # every distinct seed was evaluated before truncation
    seed_keys = {g.genes for g in seeds}
    gen0 = {e.genotype.genes for e in trace.evaluations if e.gen == 0}
    assert seed_keys <= gen0


def test_warm_start_repairs_invalid_entries(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    bad = Genotype((9,) * toy_space.genome_length)
    cfg = EvolverConfig(population_size=6, generations=1, seed=0)
    trace = evolve(toy_space, cfg, evaluate, MIN2, warm_start=repaired_ranks([bad], toy_space))
    from subnetsearch.space import is_canonical

    assert all(is_canonical(i.genotype, toy_space) for i in population_records(trace)[0])
    repaired = rank_genes(repaired_ranks([bad], toy_space), toy_space)[0]
    assert repaired in {i.genotype.genes for i in population_records(trace)[0]}


def test_warm_start_rows_count_once(toy_space):
    """A repeated warm-start row seeds one slot: the trace equals the trace
    of the rows without repeats."""
    evaluate = two_objective_evaluate(toy_space)
    rows = rank_matrix(sample_uniform(toy_space, 8, seed=4), toy_space)
    cfg = EvolverConfig(population_size=10, generations=2, seed=1)
    once = evolve(toy_space, cfg, evaluate, MIN2, warm_start=rows)
    twice = evolve(toy_space, cfg, evaluate, MIN2, warm_start=np.concatenate([rows, rows[::-1]]))
    assert np.array_equal(once.table.ranks, twice.table.ranks)
    assert [p.tolist() for p in once.population_ids] == [p.tolist() for p in twice.population_ids]


def test_tiebreak_hash_is_the_salted_stable_hash(oracle_spaces):
    for name in ("toy", "mobilenetv3-like", "transformer-like"):
        space = oracle_spaces[name]
        genotypes = sample_uniform(space, 20, seed=5)
        ranks = rank_matrix(genotypes, space)
        for salt in (0, 7, -3, 2**63 + 5):
            hashes = _row_hasher(space, salt)(ranks).tolist()
            assert hashes == [tiebreak_hash(salt)(g.genes) for g in genotypes]


def test_slot_keys_belong_to_slots_not_genotypes():
    twin = ind((1,), (1.0, 1.0))
    pop = [ind((0,), (0.0, 3.0)), twin, twin, ind((3,), (3.0, 0.0))]
    keys = slot_keys(slots_of(pop))
    assert [k[0] for k in keys] == [0, 0, 0, 0]
    assert [-k[1] for k in keys] == [math.inf, pytest.approx(2 / 3),
                                     pytest.approx(4 / 3), math.inf]
    assert keys[1][2] == keys[2][2] == tiebreak_hash(0)((1,))


def test_select_best_excludes_and_backfills():
    pop = [ind((i,), (float(i), float(10 - i))) for i in range(10)]
    chosen = select_best(slots_of(pop), 3, exclude=[0, 1])
    assert len(chosen) == 3
    assert not set(chosen.ranks.ravel().tolist()) & {0, 1}


def select_best_by_unique(pop, k, exclude):
    """`select_best` by masks over the key order: drop excluded ids with
    np.isin, keep each id's first slot with np.unique, restore key order."""
    order = _ranked(pop)[2]
    if len(exclude):
        order = order[~np.isin(pop.ids[order], exclude)]
    first = np.unique(pop.ids[order], return_index=True)[1]
    return pop.take(order[np.sort(first)[:k]])


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_select_best_walk_matches_unique_formula(data):
    # Slots sharing an id share their rank row, objectives and hash; hashes
    # from a small range tie too.
    n = data.draw(st.integers(1, 60))
    ids = np.array(data.draw(st.lists(st.integers(0, n // 2), min_size=n, max_size=n)))
    m = int(ids.max()) + 1
    values = np.array(data.draw(st.lists(st.tuples(GRID, GRID), min_size=m, max_size=m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ranks = rng.integers(0, 3, size=(m, 4)).astype(np.uint8)
    hashes = rng.integers(0, 4, size=m).astype(np.uint64)
    pop = Slots(ranks[ids], values[ids], hashes[ids], ids)
    k = data.draw(st.integers(1, n))
    exclude = data.draw(st.lists(st.integers(0, n // 2 + 1), max_size=4))
    for excluded in (exclude, np.array(exclude, dtype=np.intp)):
        got, want = select_best(pop, k, exclude=excluded), select_best_by_unique(pop, k, excluded)
        for a, b in zip((got.ranks, got.values, got.hashes, got.ids),
                        (want.ranks, want.values, want.hashes, want.ids)):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_select_best_on_untied_fronts_matches_the_full_ranking(data):
    # A staircase of distinct float points plus points it dominates: the
    # first front has no equal rows, so whenever it fills the k slots
    # select_best takes its crowding from the front's (x, y) order. Hashes
    # from a small range tie, so slot order decides too.
    coords = st.floats(-100, 100, allow_nan=False)
    f = data.draw(st.integers(1, 30))
    xs = sorted(data.draw(st.lists(coords, min_size=f, max_size=f, unique=True)))
    ys = sorted(data.draw(st.lists(coords, min_size=f, max_size=f, unique=True)), reverse=True)
    extra = data.draw(st.lists(st.tuples(st.integers(0, f - 1), st.floats(0.5, 50),
                                         st.floats(0.5, 50)), max_size=20))
    points = list(zip(xs, ys)) + [(xs[i] + dx, ys[i] + dy) for i, dx, dy in extra]
    order = data.draw(st.permutations(range(len(points))))
    values = np.array([points[i] for i in order])
    n = len(values)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    pop = Slots(rng.integers(0, 3, size=(n, 4)).astype(np.uint8), values,
                rng.integers(0, 4, size=n).astype(np.uint64), np.arange(n))
    k = data.draw(st.integers(1, f))
    exclude = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    got, want = select_best(pop, k, exclude=exclude), select_best_by_unique(pop, k, exclude)
    assert got.ids.tolist() == want.ids.tolist()
    assert got.values.tobytes() == want.values.tobytes()


def test_ids_of_finds_evaluated_genotypes_by_row(toy_space):
    evaluate = two_objective_evaluate(toy_space)
    trace = evolve(toy_space, EvolverConfig(10, 3, seed=3), evaluate, MIN2)
    evaluated = [e.genotype for e in trace.evaluations]
    others = [g for g in sample_uniform(toy_space, 40, 9) if g not in set(evaluated)]
    asked = evaluated[5::3] + others + evaluated[:2]
    assert trace.ids_of(rank_matrix(asked, toy_space)).tolist() == sorted(
        {i for i, g in enumerate(evaluated) if g in set(asked)}
    )


# ---------------------------------------------------------------------------
# Batched variation: exhaustive oracles over the draw domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
def test_cut_points_cover_every_pair_equally_often(length):
    a, b = _cut_points(np.arange((length + 1) * length), length)
    assert (a < b).all() and a.min() >= 0 and b.max() <= length
    counts = Counter(zip(a.tolist(), b.tolist()))
    every_pair = {(i, j) for i in range(length + 1) for j in range(i + 1, length + 1)}
    assert set(counts) == every_pair
    assert set(counts.values()) == {2}


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_other_rank_gives_each_other_rank_once(k):
    draws = np.arange(k - 1)
    for rank in range(k):
        got = _other_rank(np.full(k - 1, rank), draws).tolist()
        assert sorted(got) == [r for r in range(k) if r != rank]


def admit_sequential(candidates, known, need, budget):
    """The child-by-child duplicate rule: the oracle for `_admit`."""
    taken, fresh, accepted = [], {}, 0
    for genes in candidates:
        if len(taken) == need:
            break
        is_dup = genes in known or genes in fresh
        if is_dup and budget > 0:
            budget -= 1
            continue
        if is_dup:
            accepted += 1
        else:
            fresh[genes] = None
        taken.append(genes)
    return taken, list(fresh), accepted


@pytest.mark.parametrize("budget", [0, 3, 100])
@pytest.mark.parametrize("batch", [1, 2, 5, 64])
def test_batched_duplicate_rule_matches_sequential_rule(budget, batch):
    # a scripted stream of children over 6 genotypes, 2 of them known
    stream = [(g,) for g in [0, 1, 2, 2, 3, 0, 4, 4, 4, 5, 1, 3, 2, 5, 5, 0] * 4]
    known = {(0,): 0, (1,): 1}
    need = 12
    want = admit_sequential(stream, known, need, budget)
    taken, fresh, accepted, left = [], {}, 0, budget
    for start in range(0, len(stream), batch):
        if len(taken) == need:
            break  # the rest of the stream is never drawn
        chunk = stream[start:start + batch]
        idx, left, dups = _admit(chunk, known, fresh, need - len(taken), left)
        taken += [chunk[i] for i in idx]
        accepted += dups
    assert (taken, list(fresh), accepted) == want
    assert (accepted > 0) == (budget != 100)  # budgets 0 and 3 run out


def test_slots_select_matches_loop_oracle(toy_space):
    # The array path (rank rows, row-hashed ties, ids) ranks a pool as the
    # sorted-keys oracle does, twins and value ties included.
    rng = np.random.default_rng(5)
    counts = [len(vals) for vals in toy_space.allowed]
    ranks = rng.integers(0, counts, size=(40, toy_space.genome_length)).astype(np.uint8)
    ranks[inactive_genes(ranks, toy_space)] = 0
    ranks = np.concatenate([ranks, ranks[:6]])  # twins
    genes = rank_genes(ranks, toy_space)
    values = rng.integers(0, 4, size=(len(genes), 2)).astype(float)
    pop = [ind(g, tuple(v)) for g, v in zip(genes, values)]
    salt = 11
    hashes = _row_hasher(toy_space, salt)(ranks)
    assert hashes.tolist() == [tiebreak_hash(salt)(g) for g in genes]
    first = {}
    slots = Slots(ranks, values, hashes,
                  np.array([first.setdefault(g, i) for i, g in enumerate(genes)]))
    for k in (1, 10, 40, 46):
        got = select_best(slots, k)
        want = [rec for _, rec in select_best_loop(pop, k, set(), tiebreak_hash(salt))]
        assert rank_genes(got.ranks, toy_space) == [r.genotype.genes for r in want]
        assert got.values.tolist() == [list(r.objectives_raw.canonical_min) for r in want]


def test_trace_table_is_aligned_with_evaluations(toy_space):
    trace = evolve(toy_space, EvolverConfig(10, 4, seed=3),
                   two_objective_evaluate(toy_space), MIN2)
    table = trace.table
    assert table.ids.tolist() == [e.sequence_number for e in trace.evaluations]
    genes = [e.genotype.genes for e in trace.evaluations]
    assert rank_genes(table.ranks, toy_space) == genes
    assert table.values.tolist() == [list(e.objectives_raw.canonical_min)
                                     for e in trace.evaluations]
    salt = subseed(3, "tiebreak")
    assert table.hashes.tolist() == [tiebreak_hash(salt)(e.genotype.genes)
                                     for e in trace.evaluations]
    final = trace.table.take(trace.population_ids[-1])
    assert trace.records(final) == population_records(trace)[-1]


def nan_in_last_row(values):
    values = values.copy()
    values[-1, 1] = math.nan
    return values


@pytest.mark.parametrize("corrupt, error", [
    (lambda values: values[:-1], ConfigError),
    (lambda values: values[:, :1], ObjectiveMismatch),
    (nan_in_last_row, ObjectiveMismatch),
], ids=["one-row-too-few", "one-column-too-few", "nan"])
def test_evaluate_batch_guards(toy_space, corrupt, error):
    """Each batch of objectives is checked once at the evaluate boundary:
    its row count, its column count and that every value is finite."""
    evaluate = two_objective_evaluate(toy_space)
    with pytest.raises(error):
        evolve(toy_space, EvolverConfig(6, 2), lambda rows: corrupt(evaluate(rows)), MIN2)


def test_evolve_rejects_a_space_without_genes():
    with pytest.raises(ConfigError, match="no genes"):
        evolve(SearchSpace("empty", (), ()), EvolverConfig(4, 1),
               lambda rows: np.zeros((len(rows), 2)), MIN2)


# ---------------------------------------------------------------------------
# reduced spaces
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_reduced_space_draws_keep_active_genes_allowed(oracle_spaces, name, data):
    """Sampling, warm-start repair and the evolver's draws, crossover and
    mutation give canonical genotypes of the parent whose active genes all
    take allowed values."""
    space = oracle_spaces[name]
    reduction = data.draw(reductions(space))
    reduced = dataclasses.replace(space, reduction=reduction)
    seed = data.draw(st.integers(0, 2**16))
    warm = data.draw(st.lists(raw_genotypes(space), max_size=6))
    cfg = EvolverConfig(3, 10, seed=seed)  # mutation rate 1/3
    trace = evolve(reduced, cfg, two_objective_evaluate(space), MIN2,
                   warm_start=repaired_ranks(warm, reduced))
    for gs in (sample_uniform(reduced, 20, seed),
               genotypes_of(repaired_ranks(warm, reduced), reduced),
               genotypes_of(trace.table.ranks, reduced)):
        assert all(in_reduced_form_loop(g, space, reduction) for g in gs)


@pytest.mark.parametrize("name", ["toy", "mobilenetv3-like", "transformer-like"])
def test_a_reduction_allowing_every_value_draws_as_no_reduction(oracle_spaces, name):
    space = oracle_spaces[name]
    full = dataclasses.replace(space, reduction=space.allowed)
    assert sample_uniform(full, 50, 3) == sample_uniform(space, 50, 3)
    warm = sample_uniform(space, 10, 4)
    assert np.array_equal(repaired_ranks(warm, full), repaired_ranks(warm, space))
    cfg = EvolverConfig(5, 14, seed=5)  # mutation rate 0.2
    a, b = (evolve(s, cfg, two_objective_evaluate(space), MIN2,
                   warm_start=repaired_ranks(warm, s)) for s in (full, space))
    assert np.array_equal(a.table.ranks, b.table.ranks)
    assert a.population_ids[-1].tolist() == b.population_ids[-1].tolist()


def deep_reduced_toy(toy_space):
    """The toy space at full depth everywhere (so every gene is active), with
    reductions that drop a parameter's first, middle and last values."""
    cut = dict(enumerate(toy_space.allowed))
    cut.update({0: (2,), 5: (2,), 1: (5, 7), 3: (3, 6), 7: (3, 5), 9: (4,)})
    return dataclasses.replace(toy_space, reduction=tuple(cut.values()))


def test_reduced_draws_reach_every_allowed_value(toy_space):
    """Uniform draws, in sampling and in the evolver's initial population,
    pick among the allowed values: each of them turns up, and no other."""
    reduced = deep_reduced_toy(toy_space)
    trace = evolve(reduced, EvolverConfig(60, 0, seed=2), two_objective_evaluate(toy_space), MIN2)
    for gs in (sample_uniform(reduced, 200, 1), genotypes_of(trace.table.ranks, reduced)):
        seen = [sorted({g.genes[pos] for g in gs}) for pos in range(toy_space.genome_length)]
        assert seen == [list(vals) for vals in reduced.reduction]


def test_reduced_mutation_draws_another_allowed_value(toy_space):
    """With every gene hit, a mutated gene takes an allowed value other than
    its parent's, each of them in turn; a gene with one allowed value stays.
    Population 1 gives mutation rate 1, and the parents are identical, so
    crossover changes nothing."""
    reduced = deep_reduced_toy(toy_space)
    parent = rank_matrix([Genotype(tuple(vals[-1] for vals in reduced.reduction))], reduced)
    parents = Slots(np.repeat(parent, 4, axis=0).astype(np.uint8), np.zeros((4, 2)),
                    np.zeros(4, dtype=np.uint64), np.arange(4))
    tables = _variation_tables(reduced, EvolverConfig(1, 1), np.uint8)
    kids = _offspring(np.random.default_rng(0), parents, tables, pairs=100)
    genes = rank_genes(kids, reduced)
    for pos, vals in enumerate(reduced.reduction):
        others = [v for v in vals if v != vals[-1]] or [vals[-1]]
        assert sorted({g[pos] for g in genes}) == others


def repair_loop(g, space):
    """Gene by gene: snap to the nearest value an active gene may take (ties
    to the smaller), then give every inactive gene its parameter's first
    value; the oracle for `repaired_ranks`."""
    snapped = Genotype(tuple(min(keep, key=lambda a: (abs(a - v), a))
                             for v, keep in zip(g.genes, space.active_values)))
    return Genotype(tuple(v if active else vals[0] for v, vals, active in zip(
        snapped.genes, space.allowed, active_mask_loop(snapped, space))))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_repaired_ranks_matches_gene_loop_on_reduced_spaces(oracle_spaces, name, data):
    """Genes far outside the space (beyond int64 too), repeats, and
    reductions that cut values at either end and in the middle."""
    space = oracle_spaces[name]
    reduced = dataclasses.replace(space, reduction=data.draw(reductions(space)))
    far = st.one_of(st.integers(-3, 10), st.sampled_from([-(2**70), -(10**12), 10**12, 2**70]))
    gs = data.draw(st.lists(st.one_of(
        raw_genotypes(space),
        st.tuples(*[far] * space.genome_length).map(Genotype),
    ), min_size=1, max_size=8))
    gs += data.draw(st.lists(st.sampled_from(gs), max_size=4))
    for s in (space, reduced):
        assert genotypes_of(repaired_ranks(gs, s), s) == list(
            dict.fromkeys(repair_loop(g, s) for g in gs))
