"""NSGA-II over integer genotypes with canonical-duplicate prevention.

The generational loop follows the classic recipe (binary tournament on
rank/crowding, two-point crossover, per-gene mutation, elitist truncation)
with one twist: children are canonicalized before anything else, and a child
whose canonical form was already evaluated anywhere in the run is rejected and
retried, so configurations differing only in inactive genes are never measured
twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, Unevaluated
from .objectives import EvaluationRecord, ObjectiveVector, nondominated_fronts
from .space import Genotype, SearchSpace, canonicalize, repair_unique
from .util import IntText, genes_bytes, stable_hash64, subseed

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


@dataclass
class SearchTrace:
    """Every evaluation of one `evolve` call, in order, and the population
    after each generation; both hold the same frozen records."""

    populations: list[list[EvaluationRecord]] = field(default_factory=list)
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    duplicate_accepts: int = 0

    @property
    def final_population(self) -> list[EvaluationRecord]:
        return self.populations[-1]


# ---------------------------------------------------------------------------
# Sorting primitives
# ---------------------------------------------------------------------------


def tiebreak_hash(salt: int) -> TiebreakFn:
    """Salted tie-break hash of a gene tuple, memoized for as long as the
    returned function lives."""
    salt_bytes = salt.to_bytes(16, "little", signed=True)  # as stable_hash64 does
    text = IntText().__getitem__
    return functools.cache(
        lambda genes: stable_hash64(genes_bytes(genes, text), salt_bytes)
    )


def _require_evaluated(pop: Sequence[EvaluationRecord]) -> None:
    for rec in pop:
        if rec.objectives_raw is None:
            raise Unevaluated(f"record {rec.genotype.genes} has no objectives")


def non_dominated_sort(pop: Sequence[EvaluationRecord]) -> list[list[int]]:
    """Non-dominated sort; returns fronts best first as sorted index lists.

    Records with equal objective vectors share a front. Costs O(n log n)
    for two objectives and O(m n^2) otherwise (see `nondominated_fronts`).
    """
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
    rank and `gene_pos` its `_genotype_order`, which breaks ties in value.
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


def _ranked_slots(pop: Sequence[EvaluationRecord], tiebreak: TiebreakFn):
    """Every slot's key, aligned with `pop`, and the slot indices in key
    order (ties keep slot order)."""
    rank = [0] * len(pop)
    for r, idx in enumerate(non_dominated_sort(pop)):
        for i in idx:
            rank[i] = r
    rank = np.array(rank, dtype=np.intp)
    crowd = _crowding(_objective_matrix(pop), rank, _genotype_order(pop))
    hashes = np.array([tiebreak(rec.genotype.genes) for rec in pop], dtype=np.uint64)
    order = np.lexsort((hashes, -crowd, rank)).tolist()
    return list(zip(rank.tolist(), (-crowd).tolist(), hashes.tolist())), order


def slot_keys(pop: Sequence[EvaluationRecord], tiebreak: TiebreakFn) -> list[SlotKey]:
    """The key of every slot of `pop`, aligned with it. A genotype held in
    two slots may get two crowding distances, hence two keys."""
    return _ranked_slots(pop, tiebreak)[0]


def select_best(
    pop: Sequence[EvaluationRecord],
    k: int,
    exclude: set[tuple[int, ...]] | frozenset = frozenset(),
    tiebreak: TiebreakFn | None = None,
) -> list[tuple[SlotKey, EvaluationRecord]]:
    """Top-k (key, record) pairs by non-dominated sort + crowding, skipping
    excluded genotypes and duplicates, backfilling from later fronts. The
    keys rank the whole of `pop`; `tiebreak` defaults to the salt-0 hash."""
    pop = list(pop)
    keys, order = _ranked_slots(pop, tiebreak or tiebreak_hash(0))
    chosen: list[tuple[SlotKey, EvaluationRecord]] = []
    seen: set[tuple[int, ...]] = set(exclude)
    for i in order:
        genes = pop[i].genotype.genes
        if genes in seen:
            continue
        seen.add(genes)
        chosen.append((keys[i], pop[i]))
        if len(chosen) == k:
            break
    return chosen


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------


def _tournament(rng, ranked: Sequence[tuple[SlotKey, EvaluationRecord]]):
    a = ranked[int(rng.integers(len(ranked)))]
    b = ranked[int(rng.integers(len(ranked)))]
    return (a if a[0] <= b[0] else b)[1]


def _two_point_crossover(rng, g1: Genotype, g2: Genotype):
    length = len(g1.genes)
    if length < 2:
        return g1.genes, g2.genes
    a, b = sorted(rng.choice(length + 1, size=2, replace=False).tolist())
    c1 = g1.genes[:a] + g2.genes[a:b] + g1.genes[b:]
    c2 = g2.genes[:a] + g1.genes[a:b] + g2.genes[b:]
    return c1, c2


def _mutate(rng, genes: tuple[int, ...], space: SearchSpace, rate: float):
    hits = (rng.random(len(genes)) < rate).nonzero()[0].tolist()
    if not hits:
        return genes
    out = list(genes)
    for pos in hits:
        vals = space.allowed[pos]
        if len(vals) < 2:
            continue
        r = space.rank_of_value[pos][out[pos]]
        alt = int(rng.integers(len(vals) - 1))
        if alt >= r:
            alt += 1  # always a *different* value
        out[pos] = vals[alt]
    return tuple(out)


def _random_genotype(rng, space: SearchSpace) -> Genotype:
    genes = tuple(
        vals[int(rng.integers(len(vals)))] for vals in space.allowed
    )
    return canonicalize(Genotype(genes), space)


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
    rng = np.random.default_rng(subseed(cfg.seed, "evolver"))
    tiebreak = tiebreak_hash(subseed(cfg.seed, "tiebreak"))
    pop_size = cfg.population_size
    mutation_rate = cfg.resolved_mutation_rate
    retry_budget = 10 * pop_size

    trace = SearchTrace()
    known: dict[tuple[int, ...], EvaluationRecord] = {}

    def run_evaluations(gen: int, genotypes: list[Genotype]) -> None:
        if not genotypes:
            return
        vectors = list(evaluate(genotypes))
        if len(vectors) != len(genotypes):
            raise ConfigError(
                f"evaluate returned {len(vectors)} vectors for "
                f"{len(genotypes)} genotypes"
            )
        for g, v in zip(genotypes, vectors):
            rec = EvaluationRecord(
                g, v, source, evaluator_id="",
                sequence_number=len(trace.evaluations), gen=gen,
            )
            known[g.genes] = rec
            trace.evaluations.append(rec)

    # -- initial population --------------------------------------------------
    init = repair_unique(warm_start or (), space)
    init_keys = {g.genes for g in init}
    budget = retry_budget
    while len(init) < pop_size:
        g = _random_genotype(rng, space)
        if g.genes in init_keys:
            budget -= 1
            if budget < 0:
                trace.duplicate_accepts += 1
                init.append(g)  # space too small to fill uniquely
            continue
        init_keys.add(g.genes)
        init.append(g)

    unique_init = list(dict.fromkeys(g.genes for g in init))
    run_evaluations(0, [Genotype(genes) for genes in unique_init])
    members = [known[g.genes] for g in init]
    if len(members) > pop_size:
        ranked = select_best(members, pop_size, tiebreak=tiebreak)
    else:
        ranked = list(zip(slot_keys(members, tiebreak), members))
    trace.populations.append([rec for _, rec in ranked])

    # -- generations -----------------------------------------------------------
    # Children of valid parents are valid by construction: their inactive
    # genes are reset through the space's table without re-validation, and
    # only fresh ones become Genotypes, without re-conversion.
    for gen in range(1, cfg.generations + 1):
        children: list[tuple[int, ...]] = []
        pending: dict[tuple[int, ...], None] = {}
        budget = retry_budget
        while len(children) < pop_size:
            p1 = _tournament(rng, ranked)
            p2 = _tournament(rng, ranked)
            if rng.random() < cfg.crossover_rate:
                c1, c2 = _two_point_crossover(rng, p1.genotype, p2.genotype)
            else:
                c1, c2 = p1.genotype.genes, p2.genotype.genes
            for genes in (c1, c2):
                if len(children) >= pop_size:
                    break
                child = space.reset_inactive(_mutate(rng, genes, space, mutation_rate))
                is_dup = child in known or child in pending
                if is_dup and budget > 0:
                    budget -= 1
                    continue
                if is_dup:
                    trace.duplicate_accepts += 1
                else:
                    pending[child] = None
                children.append(child)
        run_evaluations(gen, [Genotype.of_ints(genes) for genes in pending])
        pool = trace.populations[-1] + [known[genes] for genes in children]
        ranked = select_best(pool, pop_size, tiebreak=tiebreak)
        trace.populations.append([rec for _, rec in ranked])

    return trace
