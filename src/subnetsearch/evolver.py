"""NSGA-II over rank rows with canonical-duplicate prevention.

The generational loop follows the classic recipe (binary tournament on
rank/crowding, two-point crossover, per-gene mutation, elitist truncation)
with one twist: a child is put in canonical form (`space.canonical_form`) as
soon as it is drawn, and a child whose canonical row was already evaluated
anywhere in the run is rejected and retried, so configurations differing only
in inactive genes are never measured twice.

A genotype is a row of value ranks from start to finish: the evaluate
function takes an (n, L) rank matrix and returns an (n, m) matrix of raw
objectives, the vectorized problem contract of pymoo (Blank & Deb 2020).
Populations are `Slots`: rank rows with objectives and tie-break hashes
beside them. A generation is made in rounds of p pairs, one pair per child
still needed; a round draws (1) a (2p, 2) block of slot indices, the slot
earlier in key order winning each tournament, (2) p crossover uniforms and p
cut-point draws (`_cut_points`), (3) a (2p, L) block of mutation uniforms and
one draw per hit gene (`_other_rank`); `_admit` examines the children in
order and leftovers are discarded. The initial population draws one (n, L)
block of uniform ranks per round, one row per empty slot. Every draw picks
among the ranks an active gene may take, mapped by `SearchSpace.active_ranks`
(the identity without a reduction). This draw order fixes trajectories: a
log written by a version that drew child by child does not replay
byte-identically under this one, while a replay within one version is exact.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ObjectiveMismatch
from .objectives import (
    EvaluationRecord,
    ObjectiveSpec,
    ObjectiveVector,
    first_front,
    nondominated_fronts,
)
from .space import (
    Genotype,
    SearchSpace,
    canonical_form,
    canonicalize,  # noqa: F401  (a trace site of perfbench/runner.py)
    rank_genes,
    rank_matrix,
    repair_unique,
)
from .util import genes_bytes, stable_hash64, subseed

# (n, L) canonical rank rows -> (n, m) raw objectives, aligned with the rows
EvaluateFn = Callable[[np.ndarray], np.ndarray]


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

    def __add__(self, other: Slots) -> Slots:
        join = np.concatenate
        return Slots(
            join([self.ranks, other.ranks]), join([self.values, other.values]),
            join([self.hashes, other.hashes]), join([self.ids, other.ids]),
        )

    def take(self, idx: np.ndarray) -> Slots:
        return Slots(self.ranks[idx], self.values[idx], self.hashes[idx], self.ids[idx])


@dataclass(frozen=True)
class SearchTrace:
    """One `evolve` call. `table` holds every evaluation in order, its ids
    the evaluation order, and `gens` the generation of each; the population
    after each generation is a row of `population_ids` into the table.
    Records are made only on demand, for what leaves the engine."""

    space: SearchSpace
    specs: tuple[ObjectiveSpec, ...]
    source: str
    table: Slots
    gens: list[int]
    population_ids: list[np.ndarray]
    duplicate_accepts: int

    def genotypes(self, slots: Slots) -> list[Genotype]:
        """The genotypes of slots of this trace."""
        return list(map(Genotype.of_ints, rank_genes(slots.ranks, self.space)))

    def records(self, slots: Slots) -> list[EvaluationRecord]:
        """The evaluation records of slots of this trace."""
        sign = [1.0 if s.direction == "minimize" else -1.0 for s in self.specs]
        raw = (slots.values * sign).tolist()
        return [
            EvaluationRecord(g, ObjectiveVector(v, self.specs), self.source, "", i, self.gens[i])
            for g, v, i in zip(self.genotypes(slots), raw, slots.ids.tolist())
        ]

    @functools.cached_property
    def evaluations(self) -> list[EvaluationRecord]:
        return self.records(self.table)

    @property
    def populations(self) -> list[list[EvaluationRecord]]:
        evaluations = self.evaluations
        return [[evaluations[i] for i in ids.tolist()] for ids in self.population_ids]

    @property
    def final_population(self) -> list[EvaluationRecord]:
        return self.populations[-1]

    def front(self) -> list[EvaluationRecord]:
        """The records of the table's first non-dominated front, in
        evaluation order."""
        return self.records(self.table.take(first_front(self.table.values)))

    def ids_of(self, genotypes) -> np.ndarray:
        """The table ids of those of `genotypes` (of this trace's space)
        that this trace evaluated, ascending."""
        rows = rank_matrix(genotypes, self.space).astype(self.table.ranks.dtype)
        return np.flatnonzero(np.isin(_row_keys(self.table.ranks), _row_keys(rows)))


# ---------------------------------------------------------------------------
# Sorting primitives
# ---------------------------------------------------------------------------


def tiebreak_hash(salt: int) -> Callable[[tuple[int, ...]], int]:
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


def non_dominated_sort(pop: Slots) -> list[list[int]]:
    """Non-dominated sort of `Slots`; returns fronts best first as sorted
    index lists.

    Slots with equal objective vectors share a front. Costs O(n log n) for
    two objectives and O(m n^2) otherwise (see `nondominated_fronts`).
    """
    return nondominated_fronts(pop.values.tolist())


def _crowding(values: np.ndarray, front: np.ndarray, gene_pos: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its front.

    `values` is (n, m) canonical-min objectives, `front` each point's front
    rank and `gene_pos` a key in genotype order (`_row_keys`), which
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


def _ranked(slots: Slots):
    """Every slot's front rank and crowding distance, and the slot indices
    in key order (front rank, -crowding, tie-break hash; ties keep slot
    order). A genotype held in two slots may get two crowding distances."""
    fronts = non_dominated_sort(slots)
    rank = np.zeros(len(slots), dtype=np.intp)
    at = list(itertools.chain.from_iterable(fronts))
    rank[at] = np.repeat(np.arange(len(fronts)), list(map(len, fronts)))
    crowd = _crowding(slots.values, rank, _row_keys(slots.ranks))
    return rank, crowd, np.lexsort((slots.hashes, -crowd, rank))


def select_best(pop: Slots, k: int, exclude: Sequence[int] | np.ndarray = ()) -> Slots:
    """The top-k slots of `pop` by non-dominated sort + crowding, in key
    order: slots whose ids are in `exclude` and all but the first slot of
    each id are skipped, and later fronts backfill; the keys rank the whole
    of `pop`."""
    order = _ranked(pop)[2]
    if len(exclude):
        order = order[~np.isin(pop.ids[order], exclude)]
    first = np.unique(pop.ids[order], return_index=True)[1]
    return pop.take(order[np.sort(first)[:k]])


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


def _offspring(rng, parents: Slots, active_ranks, cfg: EvolverConfig,
               pairs: int) -> np.ndarray:
    """The rank rows of 2 * `pairs` children of `parents` (in key order),
    those of one pair adjacent, drawn as the module docstring says;
    `active_ranks` is the space's, with the table in the rows' dtype."""
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
    counts, table, slot = active_ranks
    rates = np.where(counts > 1, cfg.resolved_mutation_rate, 0.0)
    row, col = np.divmod(np.flatnonzero(rng.random(kids.shape) < rates), length)
    other = _other_rank(slot[col, kids[row, col]], rng.integers(counts[col] - 1))
    kids[row, col] = table[col, other]
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
    warm_start: Sequence[Genotype] | None = None,
    source: str = "validation",
) -> SearchTrace:
    """Run the generational loop; deterministic for a fixed config and a
    deterministic evaluate function.

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
    counts, table, slot = space.active_ranks
    table, at = table.astype(dtype), np.arange(length)
    row_bytes = np.dtype((np.void, length * dtype.itemsize))
    # Per evaluated genotype, by evaluation order: its rank row, canonical-min
    # objectives, tie-break hash and generation; `known` maps rank-row bytes
    # to that order.
    rows_seen: list[np.ndarray] = []
    mins: list[list[float]] = []
    ties: list[int] = []
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
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ObjectiveMismatch(f"non-finite objective value in {values[np.argmin(finite)]}")
        known.update(zip(fresh, itertools.count(len(mins))))
        mins.extend((values * sign).tolist())
        ties.extend(tie_hashes(rows).tolist())
        gens.extend([gen] * len(rows))
        rows_seen.append(rows)

    def breed(gen: int, draw, seeds: np.ndarray) -> Slots:
        """Slots of the `seeds` (distinct rank rows, none evaluated yet) and
        of children of rounds of `draw(need)`, taken under the duplicate rule
        until there are pop_size; the fresh genotypes among them are
        evaluated as generation `gen`."""
        nonlocal duplicate_accepts
        keys = np.ascontiguousarray(seeds).view(row_bytes).ravel().tolist()
        fresh, rows, budget = dict.fromkeys(keys), [seeds], 10 * pop_size
        while len(keys) < pop_size:
            need = pop_size - len(keys)
            kids = canonical_form(draw(need), space)
            kid_keys = kids.view(row_bytes).ravel().tolist()
            taken, budget, accepted = _admit(kid_keys, known, fresh, need, budget)
            duplicate_accepts += accepted
            keys += [kid_keys[i] for i in taken]
            rows.append(kids[taken])
        if fresh:
            run_evaluations(gen, list(fresh))
        ids = list(map(known.__getitem__, keys))
        return Slots(
            np.concatenate(rows),
            np.array(list(map(mins.__getitem__, ids))),
            np.array(list(map(ties.__getitem__, ids)), dtype=np.uint64),
            np.array(ids, dtype=np.intp),
        )

    warm = rank_matrix(repair_unique(warm_start or (), space), space).astype(dtype)
    members = breed(
        0, lambda need: table[at, rng.integers(0, counts, size=(need, length), dtype=dtype)], warm
    )
    if len(members) > pop_size:
        parents = select_best(members, pop_size)
    else:
        parents = members.take(_ranked(members)[2])
    population_ids.append(parents.ids)
    for gen in range(1, cfg.generations + 1):
        draw = functools.partial(_offspring, rng, parents, (counts, table, slot), cfg)
        parents = select_best(parents + breed(gen, draw, warm[:0]), pop_size)
        population_ids.append(parents.ids)

    table = Slots(
        np.concatenate(rows_seen),
        np.array(mins),
        np.array(ties, dtype=np.uint64),
        np.arange(len(mins)),
    )
    return SearchTrace(
        space, specs, source, table, gens, population_ids, duplicate_accepts
    )
