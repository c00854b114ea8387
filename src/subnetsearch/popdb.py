"""Unsupervised search-space reduction from search history.

Pipeline: cluster explored genotypes with density-based clustering (outliers
become noise), compute per-position value frequencies over non-noise points
counting only active genes, exclude values whose frequency falls below a
threshold, and reduce the space to the values kept at each position.

The clustering is an exact HDBSCAN (Campello, Moulavi & Sander, 2013):
mutual-reachability distances from k-nearest core distances, a Prim minimum
spanning tree, condensation of the single-linkage hierarchy at
min_cluster_size, and excess-of-mass cluster selection (the root is never
selected). Euclidean metric throughout. Time is O(n^2). Working memory is
O(n) plus one row-chunk buffer of _CORE_BUFFER entries for the core distances
and, for Prim, one shrinking transposed copy of the open points and up to
_COMPACT_EVERY rows of distances to them. Prim stops updating a point once
its best edge equals its own core distance, since no mutual-reachability
distance to it can be smaller, and merges such settled points into a list
sorted in descending (best, index) order, whose tail is the next settled
point to join the tree. After the kernels, a union-find merges the sorted
edges; pointer doubling over the dendrogram's arrays then finds each point's
condensed cluster, and only the excess-of-mass selection walks the condensed
clusters one by one.

Both O(n^2) kernels work on squared distances, from row-chunk and
point-subset matrix products: mutual reachability is compared as
max(d^2, core_i^2, core_j^2), and only an emitted edge weight takes a square
root, which is monotone. They run on `_grid`'s integer points, on which every
partial sum is an exact integer in the dtype it picks: float32, in half the
memory, for the ordinal features of every preset but transformer-like, else
float64. So no
chunking or BLAS summation order can change a result, and the grid's one
power-of-two scale changes no label. Dyadic features (parameters with two,
three or five values) lie on the grid exactly; other coordinates
(transformer-like's six-value depths, objectives) are rounded to it, by at
most 2^-22 of the largest column range for up to 64 features.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyClusterSet
from .space import SearchSpace, encode_matrix, inactive_genes

# ---------------------------------------------------------------------------
# HDBSCAN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterLabeling:
    labels: tuple[int, ...]  # -1 = noise, >= 0 = cluster id

    @property
    def n_clusters(self) -> int:
        return len(set(self.labels) - {-1})


# entries of the core-distance buffer; steps between Prim's compactions
_CORE_BUFFER = 2**21
_COMPACT_EVERY = 128


def _grid(X: np.ndarray) -> np.ndarray:
    """The points on an integer grid on which both kernels are exact: each
    column translated by its minimum, all scaled by one power of two and
    rounded to integers y with 4 * d * max(y)^2 < 2^53, then divided by the
    largest power of two that divides them all; in float32 where
    4 * d * max(y)^2 < 2^24, else float64. Every squared distance, norm and
    gram partial sum, in any order, is then an integer of magnitude at most
    4 * d * max(y)^2, exact in that dtype.
    """
    d = X.shape[1]
    Y = X - X.min(axis=0)
    top = float(Y.max(initial=0.0))
    if not math.isfinite(top):
        raise ConfigError("a feature's range exceeds the float64 range")
    if top > 0.0:
        # top * 2^s < 2^e, and 4 * d * (2^e)^2 <= 2^52
        e = 25 - math.ceil(math.log2(d) / 2)
        np.rint(np.ldexp(Y, e - math.frexp(top)[1], out=Y), out=Y)
    Y = Y.astype(np.int64)  # +0 for every zero, -0.0 included
    low = int(np.bitwise_or.reduce(Y, axis=None))
    Y >>= (low & -low).bit_length() - 1 if low else 0
    top = int(Y.max(initial=0))
    return Y.astype(np.float32 if 4 * d * top * top < 2**24 else np.float64)


def _core_distances(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Squared distance to the min_samples-th nearest neighbor, self
    included, in the dtype of X.

    Each row chunk [x_i, 1, sq_i] is multiplied by the augmented operand
    [-2 X^T; sq; 1], which gives d^2_ij = sq_i + sq_j - 2 x_i . x_j in one
    product, into one preallocated buffer of _CORE_BUFFER entries. BLAS
    packs the whole (d + 2) x n operand once per product, so tall chunks
    pay: on a 10,000 x 45 history (209 rows a chunk, 2 vCPUs) the pass took
    0.135 s against 0.19-0.20 s with 2**19 entries, and 2**22 gained little
    more. The k-th smallest entry of each row is then selected by
    partitioning the same buffer viewed as signed integers of the same
    width: for IEEE floats that are non-negative and not -0.0, the order of
    the bit patterns is the order of the values.

    On `_grid`'s points each entry is d^2_ij exactly, so never negative.
    Nor is it -0.0: the terms sq_i and sq_j are +0.0 or positive, and an
    exact cancellation rounds to +0.0.
    """
    n = X.shape[0]
    k = min(min_samples, n)
    sq = np.einsum("ij,ij->i", X, X)
    ones = np.ones(n, dtype=X.dtype)
    rows = np.column_stack([X, ones, sq])
    operand = np.vstack([-2.0 * X.T, sq, ones])
    core = np.empty(n, dtype=X.dtype)
    chunk = max(1, min(n, _CORE_BUFFER // max(n, 1)))
    buf = np.empty((chunk, n), dtype=X.dtype)
    bits = buf.view(f"i{buf.itemsize}")
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        part = buf[: stop - start]
        np.matmul(rows[start:stop], operand, out=part)
        bits[: stop - start].partition(k - 1, axis=1)
        core[start:stop] = part[:, k - 1]
    return core


def _mst_prim(X: np.ndarray, core: np.ndarray):
    """MST of the complete mutual-reachability graph in O(n^2) time, from
    the squared core distances `core`, in the dtype of X. Returns the edges
    as arrays (weights, parents, children), in the order the children join.

    The kernel compares squared mutual-reachability distances
    max(d^2, core_i, core_j). An edge's weight is the correctly rounded
    square root of that value, which equals max(sqrt(d^2), sqrt(core_i),
    sqrt(core_j)) bit for bit, since such a square root is monotone.

    Prim from point 0; the next point is the one with the lowest `best`,
    the lower index on a tie, and a point's parent changes only on a strict
    improvement. Because a mutual-reachability distance is never below
    either endpoint's core distance, a point whose `best` equals its own
    core distance is settled: it can never improve again. The open points
    are kept transposed, with their squared norms and ones as extra rows,
    so one product with the current point's row [-2 x_c, 1, sq_c] gives
    sq_a - 2 x_a . x_c + sq_c for all of them. Of the points where
    max(d^2, core_a) < best_a, those whose `best` also lies above the
    current point's core distance c improve, to max(d^2, core_a, c): the
    full-length test max(d^2, core_a, c) < best_a, with one pass fewer.
    Every _COMPACT_EVERY steps the open points are compacted in order: tree
    members leave, and settled points join the settled list, whose tail is
    the next settled point. A settled point's `best` is its core distance, so the
    list is an index array in descending (core, index) order, merged by one
    integer sort of the points' places in that order. Each step then takes
    the lower of that tail and the open points' argmin; tree members among
    the open points carry best = core = inf until the compaction.

    The settled list only shrinks from its tail between compactions, so the
    settled points that can become current before the next one are its
    last entries. When a settled point becomes current, one product gives
    its row and those of the list's tail up to the compaction, and later
    steps take their rows from it. Compacting every 128 steps rather than 64
    halves the compactions and makes those products taller (BLAS packs the
    (d + 2) x m operand once per product): on a 10,000-point history and 2
    vCPUs Prim took 0.14-0.19 s against 0.16-0.20 s. The next point is the
    lowest (best, index) over both lists whenever the compaction runs, and
    every product is exact, so the interval leaves the tree unchanged.
    """
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    ones = np.ones(n, dtype=X.dtype)
    steps = np.column_stack([-2.0 * X, ones, sq])
    cores = core.tolist()
    parent = np.full(n, -1, dtype=int)
    act = np.arange(1, n)
    opened = np.vstack([X[act].T, sq[act], ones[act]])
    corea = core[act]
    besta = np.full(len(act), np.inf, dtype=X.dtype)
    by_core = np.argsort(core, kind="stable")  # the (core, index) order
    rank = np.empty(n, dtype=np.intp)
    rank[by_core] = np.arange(n)
    sidx, top = act[:0], 0  # settled: sidx[:top], descending (core, index)
    ahead = None  # rows of sidx[lo:top] and of current, until the compaction
    current, popped = 0, False
    weights, joined = [], []
    for step in range(n - 1):
        if popped:
            if ahead is None or top < lo:  # never a row from before the block
                lo = max(0, top - _COMPACT_EVERY + 1 + step % _COMPACT_EVERY)
                ahead = steps[np.append(sidx[lo:top], current)] @ opened
            mr = ahead[top - lo]
        else:
            mr = steps[current] @ opened
        np.maximum(mr, corea, out=mr)
        improved = (mr < besta).nonzero()[0]
        if improved.size:
            cc = cores[current]
            improved = improved[besta[improved] > cc]
            besta[improved] = np.maximum(mr[improved], cc)
            parent[act[improved]] = current
        pos = int(besta.argmin()) if besta.size else -1
        popped = top > 0 and (
            pos < 0 or (cores[sidx[top - 1]], sidx[top - 1]) < (besta[pos], act[pos])
        )
        if popped:
            top -= 1
            current = sidx[top]
            weight = cores[current]
        else:
            weight, current = besta[pos], act[pos]
            besta[pos] = corea[pos] = np.inf
        weights.append(weight)
        joined.append(current)
        if step % _COMPACT_EVERY == _COMPACT_EVERY - 1:  # tree members leave, settled join
            done = besta == corea
            fresh = act[done & (besta != np.inf)]
            sidx = by_core[np.sort(rank[np.concatenate([sidx[:top], fresh])])[::-1]]
            top = len(sidx)
            alive = ~done
            act, corea, besta = act[alive], corea[alive], besta[alive]
            opened = opened[:, alive]
            ahead = None
    children = np.array(joined, dtype=np.intp)
    return np.sqrt(np.array(weights, dtype=float)), parent[children], children


def _single_linkage(edges, n: int):
    """Merge MST edges (weights, parents, children) ascending, the earlier
    edge first on a tie, into a dendrogram.

    Returns arrays (left, right, distance, size): merge k joins the nodes
    left[k] and right[k] into node n + k; node ids < n are points.
    """
    weights, us, vs = edges
    order = np.argsort(weights, kind="stable")
    left, right = us[order].tolist(), vs[order].tolist()
    root = list(range(2 * n - 1))
    size = [1] * n
    for k in range(n - 1):
        u, v = left[k], right[k]
        while root[u] != u:  # path halving
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        left[k], right[k] = u, v
        root[u] = root[v] = n + k
        size.append(size[u] + size[v])
    return np.array(left), np.array(right), weights[order], np.array(size[n:])


def _roots(up: np.ndarray) -> np.ndarray:
    """Each node's end of its chain of `up` pointers, by pointer doubling."""
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return up
        up = nxt


def _condense(merges, n: int, min_cluster_size: int):
    """Condense the dendrogram: children smaller than min_cluster_size fall
    out as points; larger splits spawn new condensed clusters, numbered
    breadth first, left child first, from the root's 0.

    Returns (parent, stability, fall): per condensed cluster the number of
    its parent (-1 for the root) and its stability, the sum over member
    departures of (lambda - birth lambda) * size added top-down and left
    child first, as the walk down the dendrogram adds them; per point, the
    cluster it falls out of.
    """
    left, right, dist, size = merges
    nodes = np.arange(2 * n - 1)
    big = np.concatenate([np.zeros(n, dtype=bool), size >= min_cluster_size])
    up = nodes.copy()  # each node's parent; the root's is itself
    up[left], up[right] = nodes[n:], nodes[n:]
    lam = np.divide(1.0, dist, out=np.full(n - 1, np.inf), where=dist > 0)
    split = (big[left] & big[right]).nonzero()[0]  # both children spawn clusters
    low = _roots(np.where(big, nodes, up))[:n] - n  # the merge each point falls out at
    first = np.concatenate([left[split], right[split]])
    starts = up.copy()
    starts[first] = first
    starts = _roots(starts)  # the node each node's condensed cluster begins at
    ends = dict(zip(starts[n + split].tolist(), split.tolist()))
    begin, parent, birth = [2 * n - 2], [-1], [0.0]
    for c, node in enumerate(begin):  # visits what the loop appends: breadth first
        k = ends.get(node)
        if k is not None:
            begin += [int(left[k]), int(right[k])]
            parent += [c, c]
            birth += [float(lam[k])] * 2
    number = np.empty(2 * n - 1, dtype=np.intp)
    number[begin] = np.arange(len(begin))
    fall = number[starts[:n]]
    at = np.concatenate([low, split, split])
    owner = np.concatenate([fall, np.tile(number[starts[n + split]], 2)])
    mass = np.concatenate([np.ones(n), size[left[split] - n], size[right[split] - n]])
    with np.errstate(invalid="ignore"):  # inf - inf where a cluster is born at 0
        terms = (lam[at] - np.array(birth)[owner]) * mass
    seq = np.argsort(-at, kind="stable")
    stability = np.bincount(owner[seq], weights=terms[seq], minlength=len(begin))
    return parent, stability.tolist(), fall


def hdbscan(points, min_cluster_size: int, min_samples: int) -> ClusterLabeling:
    """Cluster points, labeling sparse ones as noise (-1)."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ConfigError("points must be a 2-D matrix")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ConfigError(f"point {int(np.argmin(finite))} has a non-finite feature")
    if min_cluster_size < 2:
        raise ConfigError("min_cluster_size must be >= 2")
    if min_samples < 1:
        raise ConfigError("min_samples must be >= 1")
    n = X.shape[0]
    if n < min_cluster_size:
        return ClusterLabeling(labels=(-1,) * n)

    X = _grid(X)
    core = _core_distances(X, min_samples)
    merges = _single_linkage(_mst_prim(X, core), n)
    parent, stability, fall = _condense(merges, n, min_cluster_size)

    # excess of mass, bottom-up; the root never claims its subtree
    count = len(parent)
    claimed, child_sum = [False] * count, [0.0] * count
    for c in range(count - 1, 0, -1):
        claimed[c] = stability[c] >= child_sum[c]
        child_sum[parent[c]] += stability[c] if claimed[c] else child_sum[c]
    # the selected clusters are the topmost claimed ones, labeled in order;
    # a point takes the label of the selected cluster it falls out in or under
    label, covered, selected = [-1] * count, [False] * count, 0
    for c in range(1, count):
        p = parent[c]
        covered[c] = covered[p] or claimed[p]
        if claimed[c] and not covered[c]:
            label[c], selected = selected, selected + 1
        else:
            label[c] = label[p]
    return ClusterLabeling(labels=tuple(np.array(label)[fall].tolist()))


# ---------------------------------------------------------------------------
# Frequencies and the reduced space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyTable:
    """Per genome position: relative frequency of each allowed value among
    active genes of non-noise points, plus the observation count."""

    frequencies: tuple[tuple[float, ...], ...]
    observations: tuple[int, ...]


def elastic_frequencies(
    labeling: ClusterLabeling, ranks: np.ndarray, space: SearchSpace
) -> FrequencyTable:
    """Count the active genes of the non-noise rows of a rank matrix,
    canonical or not."""
    if len(labeling.labels) != len(ranks):
        raise ConfigError(f"{len(labeling.labels)} labels for {len(ranks)} rank rows")
    ranks = ranks[np.asarray(labeling.labels, dtype=int) >= 0]
    if not len(ranks):
        raise EmptyClusterSet("all points labeled noise; no frequencies to compute")
    starts = space._one_hot_offsets  # each position's first count
    counts = np.bincount(
        (ranks + starts)[~inactive_genes(ranks, space)], minlength=len(space._flat_values)
    )
    totals = np.add.reduceat(counts, starts)
    shares = (counts / np.maximum(totals, 1).repeat(np.diff(starts, append=len(counts)))).tolist()
    freqs = (tuple(shares[a:a + len(vals)]) for a, vals in zip(starts.tolist(), space.allowed))
    return FrequencyTable(frequencies=tuple(freqs), observations=tuple(totals.tolist()))


def build_constraints(
    freqs: FrequencyTable, threshold: float, space: SearchSpace
) -> tuple[tuple[int, ...], ...]:
    """The allowed values per genome position: those of the space's
    `active_values` (so a reduced space only narrows) with frequency at least
    `threshold`, in order; a position that would end up empty keeps its single
    highest-frequency value instead, and one never observed active keeps all."""
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError("threshold must be in [0, 1]")
    if len(freqs.frequencies) != space.genome_length:
        raise ConfigError("frequency table does not match space genome length")
    allowed = []
    for vals, ranks, f, seen in zip(space.active_values, space.rank_of_value,
                                    freqs.frequencies, freqs.observations):
        freq = [f[ranks[v]] for v in vals]
        keep = tuple(v for v, fr in zip(vals, freq) if fr >= threshold) if seen else vals
        allowed.append(keep or (vals[int(np.argmax(freq))],))
    return tuple(allowed)


def constrain_space(s: SearchSpace, allowed) -> SearchSpace:
    """The space `s` reduced to the given values per genome position, each a
    non-empty subset of the parameter's values there (ConfigError if not)."""
    return dataclasses.replace(s, reduction=allowed)


# ---------------------------------------------------------------------------
# History featurization
# ---------------------------------------------------------------------------


def history_features(
    ranks: np.ndarray,
    space: SearchSpace,
    objectives: np.ndarray | None = None,
    max_points: int = 20_000,
    seed: int = 0,
):
    """Encode search history for clustering: ordinal-normalized rank rows,
    optionally augmented with min-max normalized coordinates of the
    canonical-min objective matrix `objectives` (one row per rank row).

    Histories larger than max_points are uniformly subsampled to keep the
    O(n^2) spanning-tree stage tractable. Returns (features, kept_indices).
    """
    if max_points < 1:
        raise ConfigError(f"max_points must be >= 1, got {max_points}")
    n = len(ranks)
    idx = np.arange(n)
    if n > max_points:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=max_points, replace=False))
    feats = encode_matrix(ranks[idx], space, "ordinal_normalized")
    if objectives is not None:
        obj = objectives[idx]
        lo = obj.min(axis=0)
        span = obj.max(axis=0) - lo
        span[span == 0] = 1.0
        feats = np.hstack([feats, (obj - lo) / span])
    return feats, idx
