"""NSGA-II over integer genotypes with canonical-duplicate prevention.

The generational loop follows the classic recipe (binary tournament on
rank/crowding, two-point crossover, per-gene mutation, elitist truncation)
with one twist: children are canonicalized before anything else, and a child
whose canonical form was already evaluated anywhere in the run is rejected and
retried, so configurations differing only in inactive genes are never measured
twice.

Populations are `Slots`: genotypes as rows of value ranks, with objectives
and tie-break hashes beside them. A generation is made in rounds of p pairs,
one pair per child still needed; a round draws (1) a (2p, 2) block of slot
indices, the slot earlier in key order winning each tournament, (2) p
crossover uniforms and p cut-point draws (`_cut_points`), (3) a (2p, L) block
of mutation uniforms and one draw per hit gene (`_other_rank`). Inactive
genes are reset to rank 0, and `_admit` examines the children in order;
leftovers are discarded. The initial population draws one (n, L) block of
uniform ranks per round, one row per empty slot. This draw order fixes
trajectories: a log written by a version that drew child by child does not
replay byte-identically under this one, while a replay within one version
is exact.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, Unevaluated
from .objectives import EvaluationRecord, ObjectiveVector, nondominated_fronts
from .space import (
    Genotype,
    SearchSpace,
    canonicalize,  # noqa: F401  (a trace site of perfbench/runner.py)
    inactive_genes,
    rank_genes,
    rank_matrix,
    repair_unique,
)
from .util import genes_bytes, stable_hash64, subseed

EvaluateFn = Callable[[Sequence[Genotype]], Sequence[ObjectiveVector]]
TiebreakFn = Callable[[tuple[int, ...]], int]
# A population slot's NSGA-II key, lower is better:
# (front rank, -crowding distance, tie-break hash of the genotype).
SlotKey = tuple[int, float, int]


@dataclass(frozen=True)
class EvolverConfig:
    population_size: int
    generations: int
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # None -> 1 / population_size
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if not (0.0 <= self.crossover_rate <= 1.0):
            raise ConfigError("crossover_rate must be in [0, 1]")
        rate = self.resolved_mutation_rate
        if not (0.0 < rate <= 1.0):
            raise ConfigError("mutation_rate must be in (0, 1]")

    @property
    def resolved_mutation_rate(self) -> float:
        if self.mutation_rate is None:
            return 1.0 / self.population_size
        return self.mutation_rate


@dataclass(frozen=True)
class Slots:
    """Population slots as aligned arrays: each slot's record, the rank row
    of its genotype, its canonical-min objectives, its tie-break hash and an
    id that two slots share iff they hold the same genotype. Slots of records
    of no space (`select_best` on records) have no rank rows and are never
    joined or taken."""

    records: list[EvaluationRecord]
    ranks: np.ndarray | None
    values: np.ndarray
    hashes: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def __add__(self, other: Slots) -> Slots:
        join = np.concatenate
        return Slots(
            self.records + other.records, join([self.ranks, other.ranks]),
            join([self.values, other.values]), join([self.hashes, other.hashes]),
            join([self.ids, other.ids]),
        )

    def take(self, idx: np.ndarray) -> Slots:
        return Slots(
            [self.records[i] for i in idx.tolist()], self.ranks[idx],
            self.values[idx], self.hashes[idx], self.ids[idx],
        )

    def gene_order(self) -> np.ndarray:
        """Per slot, a key that sorts the slots by genotype: for rank rows,
        their big-endian bytes (rank order is value order)."""
        if self.ranks is None:
            return _genotype_order(self.records)
        rows = np.ascontiguousarray(self.ranks, dtype=self.ranks.dtype.newbyteorder(">"))
        return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


@dataclass
class SearchTrace:
    """Every evaluation of one `evolve` call, in order, and the population
    after each generation; both hold the same frozen records. `table` holds
    every evaluation as `Slots`, aligned with `evaluations`."""

    populations: list[list[EvaluationRecord]] = field(default_factory=list)
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    duplicate_accepts: int = 0
    table: Slots | None = None

    @property
    def final_population(self) -> list[EvaluationRecord]:
        return self.populations[-1]

    def slots(self, records: Sequence[EvaluationRecord]) -> Slots:
        """The slots of records of this trace."""
        ids = np.array([rec.sequence_number for rec in records], dtype=np.intp)
        return self.table.take(ids)


# ---------------------------------------------------------------------------
# Sorting primitives
# ---------------------------------------------------------------------------


def tiebreak_hash(salt: int) -> TiebreakFn:
    """Salted tie-break hash of a gene tuple: `stable_hash64` of its
    `genes_bytes` and the salt."""
    return lambda genes: stable_hash64(genes_bytes(genes), salt)


def _row_hasher(space: SearchSpace, salt: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from rank rows of `space` to the uint64 `tiebreak_hash(salt)`
    of their genotypes. One gather from a table of each (position, rank)'s
    text "value," padded with NULs writes the hashed bytes of every row."""
    texts = [f"{v},".encode("ascii") for vals in space.allowed for v in vals]
    offsets = np.cumsum([0] + [len(vals) for vals in space.allowed[:-1]])
    width = max(map(len, texts))
    table = np.array([list(t.ljust(width, b"\0")) for t in texts], dtype=np.uint8)
    step = width * space.genome_length
    tail = b"\x1f" + salt.to_bytes(16, "little", signed=True) + b"\x1f"

    def hashes(rows: np.ndarray) -> np.ndarray:
        data = np.take(table, rows + offsets, axis=0).tobytes()
        # one row's text: its genes' padded pieces, NULs and last comma dropped
        row_texts = (
            data[i:i + step].replace(b"\0", b"")[:-1] for i in range(0, len(data), step)
        )
        digests = b"".join(
            hashlib.blake2b(t + tail, digest_size=8).digest() for t in row_texts
        )
        return np.frombuffer(digests, dtype="<u8")

    return hashes


def _require_evaluated(pop: Sequence[EvaluationRecord]) -> None:
    for rec in pop:
        if rec.objectives_raw is None:
            raise Unevaluated(f"record {rec.genotype.genes} has no objectives")


def non_dominated_sort(pop: Sequence[EvaluationRecord] | Slots) -> list[list[int]]:
    """Non-dominated sort of records or `Slots`; returns fronts best first
    as sorted index lists.

    Records with equal objective vectors share a front. Costs O(n log n)
    for two objectives and O(m n^2) otherwise (see `nondominated_fronts`).
    """
    if isinstance(pop, Slots):
        return nondominated_fronts(pop.values.tolist())
    _require_evaluated(pop)
    return nondominated_fronts([rec.objectives_raw.canonical_min for rec in pop])


def _objective_matrix(pop: Sequence[EvaluationRecord]) -> np.ndarray:
    """(n, m) canonical-min objectives of evaluated records."""
    m = len(pop[0].objectives_raw.values) if pop else 0
    return np.array(
        [rec.objectives_raw.canonical_min for rec in pop], dtype=float
    ).reshape(len(pop), m)


def _genotype_order(pop: Sequence[EvaluationRecord]) -> np.ndarray:
    """Each slot's position when the slots are stably sorted by genotype."""
    genes = [rec.genotype.genes for rec in pop]
    order = sorted(range(len(pop)), key=genes.__getitem__)
    pos = np.empty(len(pop), dtype=np.intp)
    pos[order] = np.arange(len(pop))
    return pos


def _crowding(values: np.ndarray, front: np.ndarray, gene_pos: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its front.

    `values` is (n, m) canonical-min objectives, `front` each point's front
    rank and `gene_pos` a key in genotype order (`Slots.gene_order`), which
    breaks ties in value.
    Per objective, one lexsort orders every front; points at a front's
    extremes get +inf, interior points add (next - previous) / span, and an
    objective without range in a front adds nothing there. Fronts of one or
    two points are all +inf.
    """
    n = len(front)
    dist = np.zeros(n)
    if n == 0:
        return dist
    # fronts occupy contiguous runs of every objective's sort order
    sizes = np.bincount(front)
    in_order = np.sort(front)
    first = (np.cumsum(sizes) - sizes)[in_order]
    last = first + sizes[in_order] - 1
    at = np.arange(n)
    interior = (at > first) & (at < last)
    nxt, prv = np.minimum(at + 1, n - 1), np.maximum(at - 1, 0)
    for k in range(values.shape[1]):
        order = np.lexsort((gene_pos, values[:, k], front))
        v = values[order, k]
        lo, hi = v[first], v[last]
        span = hi - lo
        varies = span > 0
        step = np.zeros(n)
        inner = interior & varies
        step[inner] = (v[nxt] - v[prv])[inner] / span[inner]
        step[varies & ((v == lo) | (v == hi))] = math.inf
        dist[order] += step
    dist[sizes[front] <= 2] = math.inf
    return dist


def crowding_distance(front: Sequence[EvaluationRecord]) -> list[float]:
    """Per-record crowding; extremes of any varying objective get +inf.

    Zero-range objectives contribute nothing. Ties are broken by genotype so
    the result is invariant under permutation of the input.
    """
    _require_evaluated(front)
    n = len(front)
    return _crowding(
        _objective_matrix(front), np.zeros(n, dtype=np.intp), _genotype_order(front)
    ).tolist()


def _record_slots(pop: list[EvaluationRecord], tiebreak: TiebreakFn) -> Slots:
    _require_evaluated(pop)
    first: dict[tuple[int, ...], int] = {}
    ids = [first.setdefault(rec.genotype.genes, i) for i, rec in enumerate(pop)]
    hashes = [tiebreak(rec.genotype.genes) for rec in pop]
    return Slots(
        pop,
        None,
        _objective_matrix(pop),
        np.array(hashes, dtype=np.uint64),
        np.array(ids, dtype=np.intp),
    )


def _ranked(slots: Slots):
    """Every slot's front rank and crowding distance, and the slot indices
    in key order (ties keep slot order)."""
    fronts = non_dominated_sort(slots)
    rank = np.zeros(len(slots), dtype=np.intp)
    at = list(itertools.chain.from_iterable(fronts))
    rank[at] = np.repeat(np.arange(len(fronts)), list(map(len, fronts)))
    crowd = _crowding(slots.values, rank, slots.gene_order())
    return rank, crowd, np.lexsort((slots.hashes, -crowd, rank))


def slot_keys(pop: Sequence[EvaluationRecord], tiebreak: TiebreakFn) -> list[SlotKey]:
    """The key of every slot of `pop`, aligned with it. A genotype held in
    two slots may get two crowding distances, hence two keys."""
    slots = _record_slots(list(pop), tiebreak)
    rank, crowd, _ = _ranked(slots)
    return list(zip(rank.tolist(), (-crowd).tolist(), slots.hashes.tolist()))


def select_best(
    pop: Sequence[EvaluationRecord] | Slots,
    k: int,
    exclude: set[tuple[int, ...]] | frozenset = frozenset(),
    tiebreak: TiebreakFn | None = None,
):
    """Top-k slots by non-dominated sort + crowding, skipping excluded
    genotypes and duplicates, backfilling from later fronts; the keys rank
    the whole of `pop`. Given `Slots`, returns the chosen `Slots` in key
    order. Given records, returns (key, record) pairs in key order, with
    `tiebreak` defaulting to the salt-0 hash."""
    if isinstance(pop, Slots):
        slots = pop
    else:
        slots = _record_slots(list(pop), tiebreak or tiebreak_hash(0))
    rank, crowd, order = _ranked(slots)
    if exclude:
        records = slots.records
        keep = [records[i].genotype.genes not in exclude for i in order.tolist()]
        order = order[np.array(keep, dtype=bool)]
    first = np.unique(slots.ids[order], return_index=True)[1]
    chosen = order[np.sort(first)[:k]]
    if slots is pop:
        return slots.take(chosen)
    keys = zip(
        rank[chosen].tolist(), (-crowd[chosen]).tolist(), slots.hashes[chosen].tolist()
    )
    return [(key, slots.records[i]) for key, i in zip(keys, chosen.tolist())]


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


def _offspring(rng, parents: Slots, counts: np.ndarray, cfg: EvolverConfig,
               pairs: int) -> np.ndarray:
    """The rank rows of 2 * `pairs` children of `parents` (in key order),
    those of one pair adjacent, drawn as the module docstring says;
    `counts` is each position's number of allowed values."""
    n, length = parents.ranks.shape
    duels = rng.integers(n, size=(2 * pairs, 2))
    family = parents.ranks[np.minimum(duels[:, 0], duels[:, 1])].reshape(pairs, 2, -1)
    cross = rng.random(pairs) < cfg.crossover_rate
    if length >= 2:
        lo, hi = _cut_points(rng.integers((length + 1) * length, size=pairs), length)
        at = np.arange(length)
        swap = (at >= lo[:, None]) & (at < np.where(cross, hi, lo)[:, None])
        family = np.where(swap[:, None, :], family[:, ::-1], family)
    kids = family.reshape(2 * pairs, length)
    rates = np.where(counts > 1, cfg.resolved_mutation_rate, 0.0)
    row, col = np.divmod(np.flatnonzero(rng.random(kids.shape) < rates), length)
    kids[row, col] = _other_rank(kids[row, col], rng.integers(counts[col] - 1))
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
    warm_start: Sequence[Genotype] | None = None,
    source: str = "validation",
) -> SearchTrace:
    """Run the generational loop; deterministic for a fixed config and a
    deterministic evaluate function.

    The evaluate callable receives a batch of canonical genotypes and must
    return objective vectors aligned with its input; it may evaluate the batch
    in parallel internally.
    """
    if space.genome_length == 0:
        raise ConfigError(f"space {space.name!r} has no genes to evolve")
    rng = np.random.default_rng(subseed(cfg.seed, "evolver"))
    tie_hashes = _row_hasher(space, subseed(cfg.seed, "tiebreak"))
    pop_size, length = cfg.population_size, space.genome_length
    counts = np.array([len(vals) for vals in space.allowed])
    dtype = np.min_scalar_type(counts.max() - 1)
    row_bytes = np.dtype((np.void, length * dtype.itemsize))
    trace = SearchTrace()
    # Per evaluated genotype, by sequence number: its rank row, canonical-min
    # objectives and tie-break hash; `known` maps rank-row bytes to it.
    rows_seen: list[np.ndarray] = []
    mins: list[list[float]] = []
    ties: list[int] = []
    known: dict[bytes, int] = {}

    def run_evaluations(gen: int, fresh: list[bytes]) -> None:
        rows = np.frombuffer(b"".join(fresh), dtype=dtype).reshape(len(fresh), length)
        genotypes = list(map(Genotype.of_ints, rank_genes(rows, space)))
        vectors = list(evaluate(genotypes))
        if len(vectors) != len(genotypes):
            raise ConfigError(
                f"evaluate returned {len(vectors)} vectors for "
                f"{len(genotypes)} genotypes"
            )
        start = len(trace.evaluations)
        known.update(zip(fresh, itertools.count(start)))
        trace.evaluations += map(
            EvaluationRecord, genotypes, vectors, itertools.repeat(source),
            itertools.repeat(""), itertools.count(start), itertools.repeat(gen),
        )
        sign = [1.0 if s.direction == "minimize" else -1.0 for s in vectors[0].specs]
        mins.extend((np.array([v.values for v in vectors]) * sign).tolist())
        ties.extend(tie_hashes(rows).tolist())
        rows_seen.append(rows)

    def breed(gen: int, draw, seeds: np.ndarray) -> Slots:
        """Slots of the `seeds` (distinct rank rows, none evaluated yet) and
        of children of rounds of `draw(need)`, taken under the duplicate rule
        until there are pop_size; the fresh genotypes among them are
        evaluated as generation `gen`."""
        keys = np.ascontiguousarray(seeds).view(row_bytes).ravel().tolist()
        fresh, rows, budget = dict.fromkeys(keys), [seeds], 10 * pop_size
        while len(keys) < pop_size:
            need = pop_size - len(keys)
            kids = draw(need)
            kids[inactive_genes(kids, space)] = 0
            kid_keys = kids.view(row_bytes).ravel().tolist()
            taken, budget, accepted = _admit(kid_keys, known, fresh, need, budget)
            trace.duplicate_accepts += accepted
            keys += [kid_keys[i] for i in taken]
            rows.append(kids[taken])
        if fresh:
            run_evaluations(gen, list(fresh))
        ids = list(map(known.__getitem__, keys))
        return Slots(
            list(map(trace.evaluations.__getitem__, ids)),
            np.concatenate(rows),
            np.array(list(map(mins.__getitem__, ids))),
            np.array(list(map(ties.__getitem__, ids)), dtype=np.uint64),
            np.array(ids, dtype=np.intp),
        )

    warm = rank_matrix(repair_unique(warm_start or (), space), space).astype(dtype)
    members = breed(
        0, lambda need: rng.integers(0, counts, size=(need, length), dtype=dtype), warm
    )
    if len(members) > pop_size:
        parents = select_best(members, pop_size)
    else:
        parents = members.take(_ranked(members)[2])
    trace.populations.append(parents.records)
    for gen in range(1, cfg.generations + 1):
        draw = functools.partial(_offspring, rng, parents, counts, cfg)
        parents = select_best(parents + breed(gen, draw, warm[:0]), pop_size)
        trace.populations.append(parents.records)

    trace.table = Slots(
        trace.evaluations,
        np.concatenate(rows_seen),
        np.array(mins),
        np.array(ties, dtype=np.uint64),
        np.arange(len(mins)),
    )
    return trace
