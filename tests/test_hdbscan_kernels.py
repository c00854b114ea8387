"""Oracle tests for the two O(n^2) HDBSCAN kernels: core distances and the
Prim minimum spanning tree of the mutual-reachability graph, and the integer
grid that makes them exact. The kernels work on squared distances, in float32
or float64 as the grid's bound allows; the references work on distances, in
float64."""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from subnetsearch import popdb
from subnetsearch.popdb import (
    _condense,
    _core_distances,
    _grid,
    _mst_prim,
    _single_linkage,
    hdbscan,
    history_features,
)
from subnetsearch.evalmgr import SyntheticSurfaceEvaluator
from subnetsearch.space import Genotype, canonicalize, get_preset, rank_matrix, sample_uniform

# ---------------------------------------------------------------------------
# References: the straightforward kernels, kept as oracles
# ---------------------------------------------------------------------------


def reference_core_distances(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to the min_samples-th nearest neighbor, self included."""
    n = X.shape[0]
    k = min(min_samples, n)
    sq = np.einsum("ij,ij->i", X, X)
    core = np.empty(n)
    chunk = max(1, int(5_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        rows = X[start : start + chunk]
        d2 = sq[start : start + chunk, None] + sq[None, :] - 2.0 * (rows @ X.T)
        np.maximum(d2, 0.0, out=d2)
        core[start : start + chunk] = np.sqrt(
            np.partition(d2, k - 1, axis=1)[:, k - 1]
        )
    return core


def reference_mst_prim(X: np.ndarray, core: np.ndarray):
    """MST of the complete mutual-reachability graph; O(n^2) time, O(n) memory."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=int)
    current = 0
    in_tree[0] = True
    edges = []
    for _ in range(n - 1):
        d2 = sq + sq[current] - 2.0 * (X @ X[current])
        np.maximum(d2, 0.0, out=d2)
        mr = np.maximum(np.maximum(np.sqrt(d2), core), core[current])
        improved = (~in_tree) & (mr < best)
        best[improved] = mr[improved]
        parent[improved] = current
        nxt = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges.append((float(best[nxt]), int(parent[nxt]), nxt))
        in_tree[nxt] = True
        current = nxt
    return edges


def brute_sq_distances(X: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def tied_grid(seed: int, n: int, dim: int) -> np.ndarray:
    """Points on {0, 0.5, 1}^dim: every distance is exact and ties abound."""
    rng = np.random.default_rng(seed)
    X = rng.choice([0.0, 0.5, 1.0], size=(n, dim))
    dup = rng.random(n) < 0.2  # repeated rows as well
    X[dup] = X[rng.integers(0, n, size=int(dup.sum()))]
    return X


def dyadic_grid(seed: int, n: int, dim: int, step: float) -> np.ndarray:
    """Points on step * {-8, ..., 8}^dim with repeated rows: every squared
    distance, norm and gram partial sum is an exact float32."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-8, 9, size=(n, dim)) * step
    dup = rng.random(n) < 0.2
    X[dup] = X[rng.integers(0, n, size=int(dup.sum()))]
    return X


def distinct_lattice(seed: int, n: int, dim: int) -> np.ndarray:
    """Distinct points on a 1e-3 lattice in [0, 1]^dim; coordinates are not
    dyadic, but no two points are closer than 1e-3."""
    rng = np.random.default_rng(seed)
    X = np.unique(rng.integers(0, 1001, size=(n, dim)), axis=0) / 1000.0
    return X[rng.permutation(len(X))]


def cases(max_n: int):
    """(seed, n, dim, min_samples)"""
    return st.tuples(
        st.integers(0, 2**32 - 1), st.integers(2, max_n), st.integers(1, 5), st.integers(1, 12)
    )


# ---------------------------------------------------------------------------
# _core_distances
# ---------------------------------------------------------------------------


def kth_sorted_sq(X: np.ndarray, min_samples: int) -> np.ndarray:
    k = min(min_samples, X.shape[0])
    return np.sort(brute_sq_distances(X), axis=1)[:, k - 1]


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases(300))
def test_core_distances_exact_on_tied_grids(case):
    seed, n, dim, min_samples = case
    X = tied_grid(seed, n, dim)
    assert np.array_equal(
        np.sqrt(_core_distances(X, min_samples)), np.sqrt(kth_sorted_sq(X, min_samples))
    )


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases(300))
def test_core_distances_exact_on_gridded_continuous_data(case):
    # continuous points on the grid: integers far past float32's bound, whose
    # float64 products are exact in any order of summation
    seed, n, dim, min_samples = case
    X = _grid(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, dim)))
    assert X.dtype == np.float64
    assert np.array_equal(_core_distances(X, min_samples), kth_sorted_sq(X, min_samples))


def test_core_distances_exact_across_row_chunks():
    # 1,500 rows take two chunks of the 2**21-entry buffer: 1,398 rows and 102
    X = tied_grid(7, 1500, 3)
    for min_samples in (1, 2, 10, 1500, 2000):
        assert np.array_equal(
            np.sqrt(_core_distances(X, min_samples)), np.sqrt(kth_sorted_sq(X, min_samples))
        )


@settings(max_examples=100, deadline=None, database=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_kth_by_integer_bit_order_equals_float_partition(dtype, data):
    # non-negative rows with zeros, subnormals, repeats and ties: the k-th
    # entry selected through a same-width integer view is np.partition's
    width = 32 if dtype == np.float32 else 64
    pool = data.draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.sampled_from([1.0, 0.25, 2.0**-140 if width == 32 else 5e-324]),
                st.floats(min_value=0.0, max_value=2.0**100, width=width),
            ),
            min_size=1,
            max_size=6,
        )
    )
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols)
    )
    a = np.array([pool[i] for i in picks], dtype=dtype).reshape(rows, cols) + dtype(0.0)
    k = data.draw(st.integers(1, cols))
    expected = np.partition(a, k - 1, axis=1)[:, k - 1]
    b = a.copy()
    b.view(np.int32 if width == 32 else np.int64).partition(k - 1, axis=1)
    assert np.array_equal(b[:, k - 1], expected)
    assert not np.signbit(b[:, k - 1]).any()


def duplicate_rows(seed: int, n: int, dim: int) -> np.ndarray:
    """Continuous rows, each repeated, plus zero rows."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n // 3, dim))
    X = np.vstack([X, X, np.zeros((n - 2 * len(X), dim))])
    return X[rng.permutation(n)]


def near_duplicates(seed: int) -> np.ndarray:
    """Continuous rows and copies moved by about 1e-9, where an inexact
    sq_i + sq_j - 2 x_i . x_j would cancel to below zero."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(100, 6))
    X = np.vstack([base, base + rng.normal(0.0, 1e-9, size=base.shape)])
    return X[rng.permutation(len(X))]


def test_no_core_distance_or_weight_is_negative_zero_on_duplicate_rows():
    for dtype, X in (
        (np.float32, tied_grid(4, 300, 3).astype(np.float32)),
        (np.float32, np.zeros((70, 2), dtype=np.float32)),
        (np.float64, _grid(duplicate_rows(5, 300, 4))),
        (np.float64, _grid(duplicate_rows(6, 130, 45))),
        (np.float64, _grid(near_duplicates(8))),
    ):
        for min_samples in (1, 2, 5):
            core_sq = _core_distances(X, min_samples)
            assert core_sq.dtype == dtype
            assert not np.signbit(core_sq).any()
            if min_samples == 2:
                assert (core_sq == 0).sum() >= len(X) // 2  # the duplicates
            assert not np.signbit(_mst_prim(X, core_sq)[0]).any()


def test_float64_kernels_equal_references_on_integer_grids():
    # integers up to 2^20 in 4-D, past float32's bound, with rows one unit
    # from another and repeated rows: every float64 product is an integer
    # below 2^53, so the kernels equal the references bit for bit
    rng = np.random.default_rng(8)
    base = rng.integers(0, 2**20 + 1, size=(150, 4)).astype(float)
    X = np.vstack([base, base + rng.integers(-1, 2, size=base.shape), base[:30]])
    X = X[rng.permutation(len(X))]
    assert _grid(X).dtype == np.float64
    for min_samples in (1, 2, 3, 10):
        core_sq = _core_distances(X, min_samples)
        assert np.array_equal(core_sq, kth_sorted_sq(X, min_samples))
        core = reference_core_distances(X, min_samples)
        assert np.array_equal(np.sqrt(core_sq), core)
        assert prim_edges(X, core_sq) == reference_mst_prim(X, core)


def test_float32_grid_at_the_dtype_bound_equals_float64_references():
    # d = 4, a half step and max|2X| = 1023: 4 * d * 1023^2 is the largest
    # bound below 2^24, and the corners (+-511.5, ...) reach it in the
    # fused product's partial sums
    rng = np.random.default_rng(9)
    X = rng.integers(-1023, 1024, size=(300, 4)) / 2.0
    X[:40] = rng.choice([-511.5, 511.5], size=(40, 4))
    X[40:60] = X[:20]
    X = X[rng.permutation(len(X))]
    assert 4 * 4 * np.abs(2 * X).max() ** 2 < 2**24  # 2X is integral
    X32 = X.astype(np.float32)
    for min_samples in (1, 2, 10):
        core_sq = _core_distances(X32, min_samples)
        assert np.array_equal(core_sq.astype(float), kth_sorted_sq(X, min_samples))
        core = reference_core_distances(X, min_samples)
        assert np.array_equal(np.sqrt(core_sq.astype(float)), core)
        assert prim_edges(X32, core_sq) == reference_mst_prim(X, core)


# ---------------------------------------------------------------------------
# _mst_prim
# ---------------------------------------------------------------------------


def prim_edges(X: np.ndarray, core_sq: np.ndarray):
    """`_mst_prim`'s edges as the references give them: (weight, parent,
    child) tuples in the order the children join."""
    return list(zip(*(column.tolist() for column in _mst_prim(X, core_sq))))


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases(300))
def test_mst_prim_matches_reference_on_tied_grids(case):
    seed, n, dim, min_samples = case
    X = tied_grid(seed, n, dim)
    core_sq = _core_distances(X, min_samples)
    assert prim_edges(X, core_sq) == reference_mst_prim(X, np.sqrt(core_sq))


def test_mst_prim_matches_reference_on_large_tied_grids():
    # long enough for many compactions of the settled points
    for seed, dim in ((1, 2), (2, 4), (3, 8)):
        X = tied_grid(seed, 1500, dim)
        core_sq = _core_distances(X, 10)
        assert prim_edges(X, core_sq) == reference_mst_prim(X, np.sqrt(core_sq))


@settings(max_examples=40, deadline=None, database=None)
@given(case=cases(200))
def test_mst_prim_weights_match_scipy_on_continuous_data(case):
    # the lattice on the grid; every spanning tree of least weight has the
    # same multiset of weights, whichever way its ties break
    seed, n, dim, min_samples = case
    X = _grid(distinct_lattice(seed, n, dim))
    n = len(X)
    core_sq = _core_distances(X, min_samples)
    edges = prim_edges(X, core_sq)
    core = np.sqrt(core_sq)
    assert sorted(child for _w, _p, child in edges) == list(range(1, n))
    mr = np.maximum(np.sqrt(brute_sq_distances(X)), np.maximum.outer(core, core))
    np.fill_diagonal(mr, 0.0)  # distinct points: every other entry is > 0
    oracle = np.sort(minimum_spanning_tree(mr.astype(float)).data)
    weights = np.sort([w for w, _p, _c in edges])
    assert len(oracle) == n - 1
    assert np.array_equal(weights, oracle)


def assert_prim_matches_reference(X: np.ndarray, min_samples: int):
    core_sq = _core_distances(X, min_samples)
    core = np.sqrt(core_sq.astype(float))
    assert prim_edges(X, core_sq) == reference_mst_prim(X.astype(float), core)


def test_mst_prim_on_identical_points():
    # every point settles at the first step, so after the first compaction
    # every pick comes from the settled list and the open points run out
    for n in (2, 64, 65, 127, 128, 129, 200, 257):
        assert_prim_matches_reference(np.ones((n, 3), dtype=np.float32), 5)


def test_mst_prim_on_two_points_and_min_samples_of_at_least_n():
    for X in (np.array([[0.0, 0.5], [1.0, 0.0]]), tied_grid(5, 120, 2)):
        for min_samples in (1, len(X), len(X) + 7):
            assert_prim_matches_reference(X.astype(np.float32), min_samples)


def test_mst_prim_ties_between_settled_and_open_points_go_to_the_lower_index():
    # On a shuffled 20 x 20 unit lattice with min_samples 2 every core
    # distance is 1, so a point settles once a lattice neighbour joins the
    # tree. Points settled before a compaction wait in the settled list,
    # later ones among the open points, all at best 1: the list's tail and
    # the open points' argmin tie, with the lower index on either side.
    lattice = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)), -1).reshape(-1, 2)
    for seed in range(3):
        X = lattice[np.random.default_rng(seed).permutation(len(lattice))]
        assert_prim_matches_reference(X.astype(np.float32), 2)


def test_mst_prim_matches_reference_across_merges_into_a_non_empty_settled_list(
    monkeypatch,
):
    # On a shuffled 50 x 50 unit lattice with min_samples 2 the tree's whole
    # frontier is settled at best 1, so most compactions merge newly settled
    # points into a list that still holds earlier ones. A spy on the merge
    # counts the entries each merge carries over from the previous one: the
    # merge sorts the settled points' places in the (core, index) order, the
    # only np.sort of the kernel.
    carried, merged = [], [[]]

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sort(self, a, *args, **kw):
            out = np.sort(a, *args, **kw)
            carried.append(len(set(a.tolist()) & set(merged[-1])))
            merged.append(out.tolist())
            return out

    monkeypatch.setattr(popdb, "np", SpyNumpy())
    lattice = np.stack(np.meshgrid(np.arange(50.0), np.arange(50.0)), -1).reshape(-1, 2)
    X = lattice[np.random.default_rng(4).permutation(len(lattice))]
    assert_prim_matches_reference(X.astype(np.float32), 2)
    assert sum(c > 0 for c in carried) >= 10


# ---------------------------------------------------------------------------
# Single linkage and condensation: the array passes against the loops
# ---------------------------------------------------------------------------


def reference_single_linkage(edges, n: int):
    """Union-find over the (weight, parent, child) edges, ascending and
    stable: merges[k] = (left, right, distance, size) creates node n + k."""
    order = sorted(range(len(edges)), key=lambda i: edges[i][0])
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    merges = []
    for k, idx in enumerate(order):
        w, u, v = edges[idx]
        ru, rv = find(u), find(v)
        parent[ru] = parent[rv] = n + k
        size[n + k] = size[ru] + size[rv]
        merges.append((ru, rv, w, size[n + k]))
    return merges


def reference_condense(merges, n: int, min_cluster_size: int):
    """The condensed tree walked top-down from the root, breadth first:
    (parent, stability, fall) as `_condense` returns them, with stability
    summed entry by entry in the walk's order."""
    node = {n + k: m for k, m in enumerate(merges)}

    def size_of(x: int) -> int:
        return 1 if x < n else node[x][3]

    def leaves(x: int):
        return [x] if x < n else leaves(node[x][0]) + leaves(node[x][1])

    parent, birth, stability, fall = [-1], [0.0], [0.0], [None] * n
    todo = deque([(2 * n - 2, 0)])
    while todo:
        x, cid = todo.popleft()
        while True:
            l, r, dist, _size = node[x]
            lam = math.inf if dist <= 0 else 1.0 / dist
            big = [c for c in (l, r) if size_of(c) >= min_cluster_size]
            if len(big) == 2:
                for child in (l, r):
                    stability[cid] += (lam - birth[cid]) * size_of(child)
                    todo.append((child, len(parent)))
                    parent.append(cid)
                    birth.append(lam)
                    stability.append(0.0)
                break
            for child in (l, r):
                if child not in big:
                    for p in leaves(child):
                        stability[cid] += lam - birth[cid]
                        fall[p] = cid
            if not big:
                break
            x = big[0]
    return parent, stability, fall


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases(400), min_cluster_size=st.integers(2, 30))
def test_linkage_and_condensation_equal_the_loops_on_tied_grids(case, min_cluster_size):
    seed, n, dim, min_samples = case
    X = tied_grid(seed, max(n, min_cluster_size), dim)
    n = len(X)
    edges = _mst_prim(X, _core_distances(X, min_samples))
    merges = _single_linkage(edges, n)
    expected = reference_single_linkage(list(zip(*(c.tolist() for c in edges))), n)
    assert list(zip(*(c.tolist() for c in merges))) == expected
    parent, stability, fall = _condense(merges, n, min_cluster_size)
    ref_parent, ref_stability, ref_fall = reference_condense(expected, n, min_cluster_size)
    assert (parent, fall.tolist()) == (ref_parent, ref_fall)
    assert np.array_equal(stability, ref_stability, equal_nan=True)


def tie_line(m: int) -> np.ndarray:
    """Points on a line with an exact excess-of-mass tie at min_samples 1:
    groups A and B of m points at spacing 1, 2 apart, then 2m points at
    spacing 2, then a group D of m points 4 further on. The cluster of A, B
    and the 2m points is born at lambda 1/4 and loses the 2m points, then A
    and B, at 1/2: a stability of m. A and B lose every point at 1, a
    stability of m / 2 each, so the parent's stability equals its children's
    sum and claims them."""
    a = np.arange(m)
    b = a + m + 1
    extra = b[-1] + 2 * np.arange(1, 2 * m + 1)
    return np.concatenate([a, b, extra, extra[-1] + 4 + a]).astype(float)[:, None]


def test_condensation_equals_the_loops_where_mass_ties():
    # the tie line in order and shuffled, and repeated rows of a tied grid,
    # whose clusters are born at lambda = inf and have stabilities of nan
    shuffled = tie_line(6)[np.random.default_rng(5).permutation(30)]
    ties = 0
    for X, min_samples, min_cluster_size in (
        (tie_line(6), 1, 5),
        (shuffled, 1, 5),
        (np.repeat(tied_grid(13, 150, 2), 4, axis=0), 3, 6),
        (tied_grid(12, 600, 3), 8, 20),
    ):
        n = len(X)
        edges = _mst_prim(X, _core_distances(X, min_samples))
        merges = _single_linkage(edges, n)
        parent, stability, fall = _condense(merges, n, min_cluster_size)
        expected = reference_single_linkage(list(zip(*(c.tolist() for c in edges))), n)
        ref_parent, ref_stability, ref_fall = reference_condense(expected, n, min_cluster_size)
        assert (parent, fall.tolist()) == (ref_parent, ref_fall)
        assert np.array_equal(stability, ref_stability, equal_nan=True)
        subtree = [0.0] * len(parent)  # excess of mass, as hdbscan selects
        for c in range(len(parent) - 1, 0, -1):
            kids = [subtree[k] for k, p in enumerate(parent) if p == c]
            ties += bool(kids) and stability[c] == sum(kids)
            subtree[c] = stability[c] if stability[c] >= sum(kids) else sum(kids)
    assert ties == 2
    for X in (tie_line(6), shuffled):
        labels = hdbscan(X, min_cluster_size=5, min_samples=1).labels
        assert labels == tuple(np.where(X[:, 0] > 38, 1, 0).tolist())


# ---------------------------------------------------------------------------
# The grid: exact in either dtype, float32 where it fits
# ---------------------------------------------------------------------------


def scaled_by_a_power_of_two(G: np.ndarray, X: np.ndarray) -> bool:
    """G is X translated by its column minima and scaled by some 2^k."""
    Y = X - X.min(axis=0)
    if not Y.any():
        return not G.any()
    mantissa, k = np.frexp(G.max() / Y.max())
    return mantissa == 0.5 and np.array_equal(G, np.ldexp(Y, k - 1))


def test_grid_keeps_dyadic_points_and_picks_float32_exactly_where_the_bound_allows():
    rng = np.random.default_rng(3)
    for X in (
        np.zeros((4, 3)),
        rng.integers(0, 3, size=(50, 45)) / 2.0,
        dyadic_grid(3, 60, 5, 0.125),
        np.array([[0.0], [2.0**100]]),  # squares past float32's range
        np.array([[0.0], [2.0**-100]]),  # below its normal range
    ):
        G = _grid(X)
        assert G.dtype == np.float32 and scaled_by_a_power_of_two(G, X)
    # d = 4 with an odd coordinate: 4 * d * max^2 must stay below 2^24
    under = np.zeros((3, 4))
    under[0, 3], under[1, 0] = 1.0, 1023.0
    assert _grid(under).dtype == np.float32  # 16 * 1023^2 < 2^24
    past = under.copy()
    past[1, 0] = 1024.0  # 4 * 4 * 1024^2 = 2^24
    assert _grid(past).dtype == np.float64 and np.array_equal(_grid(past), past)
    past[1, 0], past[2, 1] = 1023.0, -1.0  # translated, column 1 spans 0..2
    assert _grid(past).dtype == np.float32
    past[2, 1] = -2.0**20
    assert _grid(past).dtype == np.float64 and scaled_by_a_power_of_two(_grid(past), past)


def test_grid_rounds_continuous_points_at_about_2_to_the_minus_20_of_their_range():
    X = np.random.default_rng(4).uniform(-3.0, 5.0, size=(200, 7))
    G = _grid(X)
    Y = X - X.min(axis=0)
    assert G.dtype == np.float64 and 4 * 7 * G.max() ** 2 < 2**53
    assert np.abs(G / G.max() - Y / Y.max()).max() <= 2.0**-20


def test_grid_translation_keeps_the_spread_of_offset_points():
    D = dyadic_grid(5, 80, 3, 0.25)
    assert np.array_equal(_grid(D + 1e6), _grid(D))
    L = distinct_lattice(6, 300, 3)
    assert len(np.unique(_grid(L + 1e6), axis=0)) == len(L)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_grid_is_integral_and_exact_and_emits_no_negative_zero(data):
    # any finite points, with zeros of both signs, subnormals and repeats:
    # non-negative integers without a common factor 2, in the dtype the bound
    # picks, whose squared distances the kernels give bit for bit
    rows, cols = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 5))
    pool = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1, max_size=8,
    ))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=rows * cols, max_size=rows * cols))
    X = np.array([pool[i] for i in picks], dtype=float).reshape(rows, cols)
    G = _grid(X)
    top = float(G.max(initial=0.0))
    assert G.shape == X.shape and not np.signbit(G).any()
    assert np.array_equal(G, np.rint(G)) and 4 * cols * top**2 < 2**53
    assert G.dtype == (np.float32 if 4 * cols * top**2 < 2**24 else np.float64)
    assert not G.any() or np.bitwise_or.reduce(G.astype(np.int64), axis=None) % 2 == 1
    for k in (1, 2):
        core_sq = _core_distances(G, k)
        assert not np.signbit(core_sq).any()
        assert np.array_equal(core_sq, kth_sorted_sq(G, k))


def test_grid_of_preset_histories():
    # the ordinal features of parameters with two or three values are
    # dyadic: the grid keeps them up to a power of two, in float32;
    # transformer-like's six-value depths (steps of 1/5) and objectives are
    # rounded, in float64
    for name, with_objectives, dtype in (
        ("mobilenetv3-like", False, np.float32),
        ("resnet50-like", False, np.float32),
        ("transformer-like", False, np.float64),
        ("mobilenetv3-like", True, np.float64),
    ):
        space = get_preset(name)
        ranks = rank_matrix(sample_uniform(space, 200, 5), space)
        objectives = np.random.default_rng(5).uniform(size=(200, 2)) if with_objectives else None
        feats, _ = history_features(ranks, space, objectives=objectives)
        G = _grid(feats)
        assert G.dtype == dtype, name
        assert scaled_by_a_power_of_two(G, feats) == (dtype == np.float32), name


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases(300), step=st.sampled_from([1.0, 0.5, 0.25, 0.125]))
def test_float32_kernels_equal_references_on_dyadic_grids(case, step):
    seed, n, dim, min_samples = case
    X = dyadic_grid(seed, n, dim, step)
    assert _grid(X).dtype == np.float32
    X32 = X.astype(np.float32)
    core_sq = _core_distances(X32, min_samples)
    assert core_sq.dtype == np.float32
    core = reference_core_distances(X, min_samples)
    assert np.array_equal(np.sqrt(core_sq.astype(float)), core)
    assert prim_edges(X32, core_sq) == reference_mst_prim(X, core)


# ---------------------------------------------------------------------------
# hdbscan end to end
# ---------------------------------------------------------------------------


def clustered_history(space, n: int, seed: int):
    """Three clusters of gene-flipped copies of random centres, 10% noise."""
    rng = np.random.default_rng(seed)
    centres = sample_uniform(space, 3, seed)
    noise = iter(sample_uniform(space, n, seed + 1))
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            out.append(next(noise))
            continue
        genes = list(centres[int(rng.integers(3))].genes)
        for pos in np.flatnonzero(rng.random(space.genome_length) < 0.05):
            vals = space.allowed[pos]
            genes[pos] = vals[int(rng.integers(len(vals)))]
        out.append(canonicalize(Genotype(tuple(genes)), space))
    return out


def assert_hdbscan_matches_references(monkeypatch, feats, min_cluster_size: int):
    """hdbscan gives the labels it gives when it runs the
    references, which get float64 input whatever kernel dtype it chose."""
    labeling = hdbscan(feats, min_cluster_size=min_cluster_size, min_samples=10)
    monkeypatch.setattr(
        popdb, "_core_distances", lambda X, k: reference_core_distances(X.astype(float), k)
    )
    monkeypatch.setattr(
        popdb,
        "_mst_prim",
        lambda X, core: tuple(map(np.array, zip(*reference_mst_prim(X.astype(float), core)))),
    )
    reference = hdbscan(feats, min_cluster_size=min_cluster_size, min_samples=10)
    assert labeling.n_clusters >= 2
    assert labeling.labels == reference.labels


def test_hdbscan_matches_reference_pipeline(monkeypatch):
    space = get_preset("mobilenetv3-like")
    feats, _ = history_features(rank_matrix(clustered_history(space, 2000, 11), space), space)
    assert_hdbscan_matches_references(monkeypatch, feats, 50)


def test_hdbscan_matches_reference_pipeline_on_float64_features(monkeypatch):
    space = get_preset("transformer-like")
    feats, _ = history_features(rank_matrix(clustered_history(space, 1500, 5), space), space)
    X = _grid(feats)
    assert X.dtype == np.float64
    core_sq = _core_distances(X, 10)
    core = reference_core_distances(X, 10)
    assert np.array_equal(np.sqrt(core_sq), core)
    assert prim_edges(X, core_sq) == reference_mst_prim(X, core)
    assert_hdbscan_matches_references(monkeypatch, feats, 30)


def test_hdbscan_does_not_depend_on_the_buffer_or_the_compaction_interval(monkeypatch):
    # float64 grids, as popdb clusters transformer-like histories and
    # histories with --include-objectives: other chunk and block sizes
    # change which products give which rows, and nothing else
    transformer = get_preset("transformer-like")
    feats, _ = history_features(
        rank_matrix(clustered_history(transformer, 1500, 5), transformer), transformer
    )
    mbv3 = get_preset("mobilenetv3-like")
    history = clustered_history(mbv3, 1500, 11)
    surface = SyntheticSurfaceEvaluator(mbv3, "clx-like")
    objectives = np.array([vec.values for vec in surface.evaluate(history)])
    joint, _ = history_features(rank_matrix(history, mbv3), mbv3, objectives=objectives)

    def run(X):
        G = _grid(X)
        assert G.dtype == np.float64
        core_sq = _core_distances(G, 10)
        edges = [c.tolist() for c in _mst_prim(G, core_sq)]
        return core_sq.tolist(), edges, hdbscan(X, min_cluster_size=30, min_samples=10).labels

    before = [run(feats), run(joint)]
    assert all(len(set(labels)) > 2 for *_kernels, labels in before)
    monkeypatch.setattr(popdb, "_CORE_BUFFER", 2**12)  # 2 rows a chunk
    monkeypatch.setattr(popdb, "_COMPACT_EVERY", 16)
    assert [run(feats), run(joint)] == before
