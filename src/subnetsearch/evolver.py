"""NSGA-II over rank rows with canonical-duplicate prevention.

The generational loop follows the classic recipe (binary tournament on
rank/crowding, two-point crossover, per-gene mutation, elitist truncation)
with one twist: a child is put in canonical form (`space.canonical_form`) as
soon as it is drawn, and a child whose canonical row was already evaluated
anywhere in the run is rejected and retried, so configurations differing only
in inactive genes are never measured twice.

A genotype is a row of value ranks from start to finish: the evaluate
function takes an (n, L) rank matrix and returns an (n, m) matrix of raw
objectives, the vectorized problem contract of pymoo (Blank & Deb 2020). Each
evaluated genotype's rank row, objectives and tie-break hash are stored at
its id (evaluation order) in arrays sized for the run; populations are
`Slots` gathered from them. A pool is ordered by front rank
(`objectives.front_ranks`), crowding and tie-break hash, and `select_best`
keeps the first slot of each id in one walk of that order. A generation is
made in rounds of p pairs, one pair per child still needed; a round draws (1)
a (2p, 2) block of slot indices, the slot earlier in key order winning each
tournament, (2) p crossover uniforms and p cut-point draws (`_cut_points`),
(3) a (2p, L) block of mutation uniforms and one draw per hit gene
(`_other_rank`); `_admit` examines the children in order and leftovers are
discarded. The initial population draws one (n, L) block of uniform ranks per
round, one row per empty slot. Every draw picks among the ranks an active
gene may take, mapped by `SearchSpace.active_ranks` (the identity without a
reduction). This draw order is part of the trajectory version that a
run's config.json names (`driver.TRAJECTORY`): a replay within one version
is exact, and a file of another version, such as one written when the
evolver drew child by child, is refused.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ObjectiveMismatch
from .objectives import (
    EvaluationRecord,
    FrontColumns,
    ObjectiveSpec,
    ObjectiveVector,
    canonical_matrix,
    first_front,
    front_by_x,
    front_ranks,
)
from .space import (
    Genotype,
    SearchSpace,
    canonical_form,
    canonicalize,  # noqa: F401  (a trace site of perfbench/runner.py)
    gene_matrix,
    rank_genes,
)
from .util import subseed

# (n, L) canonical rank rows -> (n, m) raw objectives, aligned with the rows
EvaluateFn = Callable[[np.ndarray], np.ndarray]


CROSSOVER_RATE = 0.9  # per pair; the per-gene mutation rate is 1 / population_size


@dataclass(frozen=True)
class EvolverConfig:
    population_size: int
    generations: int
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")


def _row_keys(ranks: np.ndarray) -> np.ndarray:
    """Per rank row, its big-endian bytes: keys that sort and compare as the
    rows' genotypes do (rank order is value order)."""
    rows = np.ascontiguousarray(ranks, dtype=ranks.dtype.newbyteorder(">"))
    return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


@dataclass(frozen=True)
class Slots:
    """Population slots as aligned arrays: the rank row of each slot's
    genotype, its canonical-min objectives, its tie-break hash and an id
    that two slots share iff they hold the same genotype."""

    ranks: np.ndarray
    values: np.ndarray
    hashes: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, idx: np.ndarray) -> Slots:
        return Slots(self.ranks.take(idx, axis=0), self.values.take(idx, axis=0),
                     self.hashes[idx], self.ids[idx])


@dataclass(frozen=True)
class SearchTrace:
    """One `evolve` call. `table` holds every evaluation in order, its ids
    the evaluation order, and `gens` the generation of each; the population
    after each generation is a row of `population_ids` into the table.
    Records are made only on demand, for what leaves the engine."""

    space: SearchSpace
    specs: tuple[ObjectiveSpec, ...]
    table: Slots
    gens: list[int]
    population_ids: list[np.ndarray]
    duplicate_accepts: int

    def records(self, slots: Slots) -> list[EvaluationRecord]:
        """The evaluation records of slots of this trace."""
        genes = rank_genes(slots.ranks, self.space)
        raw = canonical_matrix(slots.values, self.specs).tolist()  # maximizers negated back
        return [
            EvaluationRecord(
                Genotype(g), ObjectiveVector(v, self.specs), "", i, self.gens[i]
            )
            for g, v, i in zip(genes, raw, slots.ids.tolist())
        ]

    @functools.cached_property
    def evaluations(self) -> list[EvaluationRecord]:
        return self.records(self.table)

    def front(self) -> FrontColumns:
        """The table's first non-dominated front as columns, in evaluation
        order; builds no record."""
        members = self.table.take(first_front(self.table.values))
        raw = canonical_matrix(members.values, self.specs)  # maximizers negated back
        return FrontColumns(gene_matrix(members.ranks, self.space), raw)

    def ids_of(self, ranks: np.ndarray) -> np.ndarray:
        """The table ids of those rank rows (of this trace's space) that
        this trace evaluated, ascending."""
        wanted = set(_row_keys(ranks.astype(self.table.ranks.dtype)).tolist())
        return np.flatnonzero([key in wanted for key in _row_keys(self.table.ranks).tolist()])


# ---------------------------------------------------------------------------
# Sorting primitives
# ---------------------------------------------------------------------------


def _row_hasher(space: SearchSpace, salt: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from rank rows of `space` to the uint64 salted tie-break
    hashes of their genotypes: `util.stable_hash64` of the genes' `genes_bytes`
    and the salt. One gather from a table of each (position, rank)'s
    text padded with NULs writes the hashed bytes of every row: "value," at
    every position but the last, whose "value\n" ends the row."""
    ends = [b","] * (space.genome_length - 1) + [b"\n"]
    texts = [b"%d%s" % (v, end) for vals, end in zip(space.allowed, ends) for v in vals]
    offsets = np.cumsum([0] + [len(vals) for vals in space.allowed[:-1]])
    width = max(map(len, texts))
    table = np.array([list(t.ljust(width, b"\0")) for t in texts], dtype=np.uint8)
    tail = b"\x1f" + salt.to_bytes(16, "little", signed=True) + b"\x1f"
    blank = hashlib.blake2b(digest_size=8)  # copying it is cheaper than a new one

    def hashes(rows: np.ndarray) -> np.ndarray:
        data = table.take(rows + offsets, axis=0).tobytes()
        digests = []
        for text in data.replace(b"\0", b"").split(b"\n")[:-1]:
            h = blank.copy()
            h.update(text)
            h.update(tail)
            digests.append(h.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8")

    return hashes


def non_dominated_sort(pop: Slots) -> list[list[int]]:
    """Non-dominated sort of `Slots`: the fronts best first, each a sorted
    list of slot indices (those of each `front_ranks` rank); slots with equal
    objectives never dominate each other, so they share one."""
    rank = front_ranks(pop.values)
    return [np.flatnonzero(rank == k).tolist() for k in range(rank.max(initial=-1) + 1)]


def _crowding(values: np.ndarray, front: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its front.

    `values` is (n, m) canonical-min objectives, `front` each point's front
    rank and `ranks` the points' rank rows, whose genotype order
    (`_row_keys`) breaks ties in value: it is sorted on only for an objective
    with such a tie, since long keys compare slowly. Per objective (a row of
    (m, n) arrays), one lexsort orders every front; points at a front's
    extremes get +inf, interior points add (next - previous) / span, and an
    objective without range in a front adds nothing there. Fronts of one or
    two points are all +inf."""
    n, m = values.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    order, v = np.empty((m, n), dtype=np.intp), np.empty((m, n))
    # fronts occupy the same contiguous runs of every objective's order
    in_order = np.sort(front)
    same_front = in_order[1:] == in_order[:-1]
    for k, col in enumerate(values.T):
        order[k] = np.lexsort((col, front))
        v[k] = col[order[k]]
        if (same_front & (v[k, 1:] == v[k, :-1])).any():
            order[k] = np.lexsort((_row_keys(ranks), col, front))
            v[k] = col[order[k]]
    first = np.searchsorted(in_order, in_order)
    last = np.searchsorted(in_order, in_order, side="right") - 1
    lo, hi = v.take(first, axis=1), v.take(last, axis=1)
    span = hi - lo
    gap = np.full((m, n), math.inf)  # the two ends are front extremes
    np.subtract(v[:, 2:], v[:, :-2], out=gap[:, 1:-1])
    # the quotient may divide across fronts or by a zero span at a front's
    # extremes (and its points equal to them), where it is masked
    with np.errstate(all="ignore"):
        step = np.where((v == lo) | (v == hi), math.inf, gap / span)
    step[span <= 0] = 0.0
    step[:, last - first < 2] = math.inf
    for k in range(m):
        dist[order[k]] += step[k]
    return dist


def _ranked(slots: Slots):
    """Every slot's front rank and crowding distance, and the slot indices
    in key order (front rank, -crowding, tie-break hash; ties keep slot
    order). A genotype held in two slots may get two crowding distances."""
    rank = front_ranks(slots.values)
    crowd = _crowding(slots.values, rank, slots.ranks)
    return rank, crowd, np.lexsort((slots.hashes, -crowd, rank))


def select_best(pop: Slots, k: int, exclude: Sequence[int] | np.ndarray = ()) -> Slots:
    """The top-k slots of `pop` by non-dominated sort + crowding, in key
    order: slots whose ids are in `exclude` and all but the first slot of
    each id are skipped, and later fronts backfill; the keys rank the whole
    of `pop`. A first front with k ids not excluded fills the k slots, and
    then only its keys are made; a 2-D front without equal rows has x rising
    and y falling in (x, y) order, so its crowding comes from that order."""
    seen, values = set(np.asarray(exclude).tolist()), pop.values
    by_x, tied = front_by_x(values) if values.shape[1] == 2 else (first_front(values), True)
    front = np.sort(by_x)
    if len(set(pop.ids[front].tolist()) - seen) < k:
        order = _ranked(pop)[2]
    elif not tied:  # `_crowding`'s sums, in the same order; ties go by slot
        x, y = values.take(by_x, axis=0).T
        crowd = np.full(len(by_x), math.inf)
        crowd[1:-1] = (x[2:] - x[:-2]) / (x[-1] - x[0]) + (y[:-2] - y[2:]) / (y[0] - y[-1])
        order = by_x[np.lexsort((by_x, pop.hashes[by_x], -crowd))]
    else:
        crowd = _crowding(values[front], np.zeros(len(front), np.intp), pop.ranks[front])
        order = front[np.lexsort((pop.hashes[front], -crowd))]
    ids = pop.ids[order].tolist()
    if not seen and len(set(ids)) == len(ids):  # every slot is kept
        return pop.take(order[:k])
    # the first slot of each id not seen yet; `seen.add` returns None
    keep = [slot for slot, i in zip(order.tolist(), ids) if not (i in seen or seen.add(i))]
    return pop.take(np.array(keep[:k], dtype=np.intp))


# ---------------------------------------------------------------------------
# Variation
# ---------------------------------------------------------------------------


def _cut_points(u: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut points a < b in 0..length of draws `u` in [0, (length + 1)
    length): every unordered pair comes from exactly two draws."""
    a, b = np.divmod(u, length)
    b += b >= a
    return np.minimum(a, b), np.maximum(a, b)


def _other_rank(rank: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A rank other than `rank` of draws `u` in [0, k - 1) for k ranks:
    every other rank comes from exactly one draw."""
    return u + (u >= rank)


def _variation_tables(space: SearchSpace, cfg: EvolverConfig, dtype):
    """The constants of one search's `_offspring` calls: a table whose row c
    marks the positions before cut point c; per position, the mutation rate
    1 / population_size (0 where an active gene has one rank) and the count
    of other active ranks; and the space's `active_ranks` table (in `dtype`,
    the rank rows') and slot, flattened, with their row width w: (p, r) is
    at p * w + r."""
    counts, table, slot = space.active_ranks
    at = np.arange(space.genome_length)
    rates = np.where(counts > 1, 1.0 / cfg.population_size, 0.0)
    before = at < np.arange(len(at) + 1)[:, None]
    return before, rates, counts - 1, table.shape[1], table.astype(dtype).ravel(), slot.ravel()


def _offspring(rng, parents: Slots, tables, pairs: int) -> np.ndarray:
    """The rank rows of 2 * `pairs` children of `parents` (in key order),
    those of one pair adjacent, drawn as the module docstring says with the
    constants `tables` (`_variation_tables`)."""
    n, length = parents.ranks.shape
    before, rates, others, width, table, slot = tables
    duels = rng.integers(n, size=(2 * pairs, 2))
    family = parents.ranks.take(np.minimum(duels[:, 0], duels[:, 1]), axis=0).reshape(pairs, 2, -1)
    cross = rng.random(pairs) < CROSSOVER_RATE
    if length >= 2:
        lo, hi = _cut_points(rng.integers((length + 1) * length, size=pairs), length)
        # swap the pair's genes in [lo, hi), or none without crossover
        inside = before.take(np.where(cross, hi, lo), axis=0) > before.take(lo, axis=0)
        diff = (family[:, 0] ^ family[:, 1]) * inside
        family[:, 0] ^= diff
        family[:, 1] ^= diff
    kids = family.reshape(2 * pairs, length)
    hit = np.flatnonzero(rng.random(kids.shape) < rates)
    col = hit % length
    genes, at = kids.reshape(-1), col * width
    other = _other_rank(slot[at + genes[hit]], rng.integers(others[col]))
    genes[hit] = table[at + other]
    return kids


def _admit(candidates, known, fresh: dict, need: int, budget: int):
    """The duplicate rule over candidate children, examined in order until
    `need` are taken: a child in `known` or `fresh` costs one unit of
    `budget` and is dropped while any is left, else it is taken as an
    accepted duplicate; any other child is taken and added to `fresh`.
    Returns (indices taken, budget left, duplicates accepted)."""
    taken: list[int] = []
    accepted = 0
    for i, genes in enumerate(candidates):
        if len(taken) == need:
            break
        if genes in known or genes in fresh:
            if budget > 0:
                budget -= 1
                continue
            accepted += 1
        else:
            fresh[genes] = None
        taken.append(i)
    return taken, budget, accepted


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def evolve(
    space: SearchSpace,
    cfg: EvolverConfig,
    evaluate: EvaluateFn,
    specs: Sequence[ObjectiveSpec],
    warm_start: np.ndarray | None = None,
) -> SearchTrace:
    """Run the generational loop; deterministic for a fixed config and a
    deterministic evaluate function.

    `warm_start` holds canonical rank rows of `space` that seed the initial
    population, a repeated row counting once (genotypes from outside go
    through `space.repaired_ranks` first).

    `evaluate` receives an (n, L) matrix of distinct canonical rank rows,
    none evaluated before in this run, and returns an (n, m) matrix of raw
    objectives in the order of `specs`; it may evaluate the batch in
    parallel internally. A batch of the wrong row count is a ConfigError;
    one of the wrong column count or with a non-finite value is an
    ObjectiveMismatch.
    """
    if space.genome_length == 0:
        raise ConfigError(f"space {space.name!r} has no genes to evolve")
    specs = tuple(specs)
    rng = np.random.default_rng(subseed(cfg.seed, "evolver"))
    tie_hashes = _row_hasher(space, subseed(cfg.seed, "tiebreak"))
    sign = np.array([1.0 if s.direction == "minimize" else -1.0 for s in specs])
    pop_size, length = cfg.population_size, space.genome_length
    dtype = np.min_scalar_type(max(map(len, space.allowed)) - 1)
    tables = _variation_tables(space, cfg, dtype)
    counts, table, _ = space.active_ranks
    table, at = table.astype(dtype), np.arange(length)
    row_bytes = np.dtype((np.void, length * dtype.itemsize))
    warm = np.reshape(() if warm_start is None else warm_start, (-1, length)).astype(dtype)
    # At each id: rank row, canonical-min objectives, tie-break hash and gen
    # (a generation evaluates at most pop_size); `known` maps row bytes to ids.
    most = max(pop_size, len(warm)) + cfg.generations * pop_size
    ranks, mins = np.empty((most, length), dtype), np.empty((most, len(specs)))
    ties = np.empty(most, np.uint64)
    gens: list[int] = []
    known: dict[bytes, int] = {}
    population_ids: list[np.ndarray] = []
    duplicate_accepts = 0

    def run_evaluations(gen: int, fresh: list[bytes]) -> None:
        rows = np.frombuffer(b"".join(fresh), dtype=dtype).reshape(len(fresh), length)
        values = np.asarray(evaluate(rows), dtype=float)
        if values.shape[:1] != rows.shape[:1]:
            raise ConfigError(
                f"evaluate returned objectives of shape {values.shape} for "
                f"{len(rows)} genotypes"
            )
        if values.shape[1:] != sign.shape:
            raise ObjectiveMismatch(
                f"evaluate returned objectives of shape {values.shape} for "
                f"{len(specs)} objective specs"
            )
        if not np.isfinite(values).all():
            bad = values[np.argmin(np.isfinite(values).all(axis=1))]
            raise ObjectiveMismatch(f"non-finite objective value in {bad}")
        done = slice(len(gens), len(gens) + len(rows))
        known.update(zip(fresh, range(done.start, done.stop)))
        ranks[done], mins[done], ties[done] = rows, values * sign, tie_hashes(rows)
        gens.extend([gen] * len(rows))

    def breed(gen: int, draw, keys: list[bytes]) -> np.ndarray:
        """The ids of the seed `keys` (distinct row bytes, none evaluated
        yet; the list grows) and of children of rounds of `draw(need)`, taken
        under the duplicate rule until there are pop_size; the fresh
        genotypes among them are evaluated as generation `gen`."""
        nonlocal duplicate_accepts
        fresh, budget = dict.fromkeys(keys), 10 * pop_size
        while len(keys) < pop_size:
            need = pop_size - len(keys)
            kid_keys = canonical_form(draw(need), space).view(row_bytes).ravel().tolist()
            taken, budget, accepted = _admit(kid_keys, known, fresh, need, budget)
            duplicate_accepts += accepted
            keys += [kid_keys[i] for i in taken]
        if fresh:
            run_evaluations(gen, list(fresh))
        return np.fromiter(map(known.__getitem__, keys), np.intp, len(keys))

    def slots(ids: np.ndarray) -> Slots:
        return Slots(ranks.take(ids, axis=0), mins.take(ids, axis=0), ties[ids], ids)

    members = slots(breed(
        0, lambda need: table[at, rng.integers(0, counts, size=(need, length), dtype=dtype)],
        list(dict.fromkeys(warm.view(row_bytes).ravel().tolist())),
    ))
    if len(members) > pop_size:
        parents = select_best(members, pop_size)
    else:
        parents = members.take(_ranked(members)[2])
    population_ids.append(parents.ids)
    for gen in range(1, cfg.generations + 1):
        draw = functools.partial(_offspring, rng, parents, tables)
        pool = slots(np.concatenate([parents.ids, breed(gen, draw, [])]))
        parents = select_best(pool, pop_size)
        population_ids.append(parents.ids)

    n = len(gens)
    table = Slots(ranks[:n], mins[:n], ties[:n], np.arange(n))
    return SearchTrace(space, specs, table, gens, population_ids, duplicate_accepts)
