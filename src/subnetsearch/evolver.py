"""NSGA-II over integer genotypes with canonical-duplicate prevention.

The generational loop follows the classic recipe (binary tournament on
rank/crowding, two-point crossover, per-gene mutation, elitist truncation)
with one twist: children are canonicalized before anything else, and a child
whose canonical form was already evaluated anywhere in the run is rejected and
retried, so configurations differing only in inactive genes are never measured
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, Unevaluated
from .objectives import ObjectiveVector, nondominated_fronts
from .space import Genotype, SearchSpace, canonicalize, repair_unique
from .util import genes_bytes, stable_hash64, subseed

EvaluateFn = Callable[[Sequence[Genotype]], Sequence[ObjectiveVector]]


@dataclass
class Individual:
    genotype: Genotype
    objectives: ObjectiveVector | None = None
    rank: int | None = None
    crowding: float = 0.0


@dataclass(frozen=True)
class EvolverConfig:
    population_size: int
    generations: int
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # None -> 1 / population_size
    seed: int = 0
    duplicate_retry_budget: int | None = None  # None -> 10 * population_size

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
        if self.resolved_retry_budget < 1:
            raise ConfigError("duplicate retry budget must be positive")

    @property
    def resolved_mutation_rate(self) -> float:
        if self.mutation_rate is None:
            return 1.0 / self.population_size
        return self.mutation_rate

    @property
    def resolved_retry_budget(self) -> int:
        if self.duplicate_retry_budget is None:
            return 10 * self.population_size
        return self.duplicate_retry_budget


@dataclass
class TraceEvaluation:
    gen: int
    genotype: Genotype
    objectives_raw: ObjectiveVector
    source: str


@dataclass
class SearchTrace:
    space_name: str
    populations: list[list[Individual]] = field(default_factory=list)
    evaluations: list[TraceEvaluation] = field(default_factory=list)
    duplicate_accepts: int = 0
    warm_start_size: int = 0

    @property
    def final_population(self) -> list[Individual]:
        return self.populations[-1]

    def evaluated_genotypes(self) -> set[tuple[int, ...]]:
        return {e.genotype.genes for e in self.evaluations}


# ---------------------------------------------------------------------------
# Sorting primitives
# ---------------------------------------------------------------------------


def _require_evaluated(pop: Sequence[Individual]) -> None:
    for ind in pop:
        if ind.objectives is None:
            raise Unevaluated(f"individual {ind.genotype.genes} has no objectives")


def non_dominated_sort(pop: Sequence[Individual]) -> list[list[int]]:
    """Non-dominated sort; returns fronts best first as sorted index lists.

    Individuals with equal objective vectors share a front. Costs O(n log n)
    for two objectives and O(m n^2) otherwise (see `nondominated_fronts`).
    """
    _require_evaluated(pop)
    return nondominated_fronts([ind.objectives.canonical_min for ind in pop])


def crowding_distance(front: Sequence[Individual]) -> list[float]:
    """Per-individual crowding; extremes of any varying objective get +inf.

    Zero-range objectives contribute nothing. Ties are broken by genotype so
    the result is invariant under permutation of the input.
    """
    _require_evaluated(front)
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    m = len(front[0].objectives.canonical_min)
    dist = [0.0] * n
    for k in range(m):
        vals = [ind.objectives.canonical_min[k] for ind in front]
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


def _quality_order(pop: Sequence[Individual], salt: int) -> list[Individual]:
    """Total order by (front rank asc, crowding desc, genotype hash); also
    stamps rank and crowding onto the individuals."""
    fronts = non_dominated_sort(pop)
    ordered: list[Individual] = []
    for rank, front_idx in enumerate(fronts):
        members = [pop[i] for i in front_idx]
        crowd = crowding_distance(members)
        for ind, c in zip(members, crowd):
            ind.rank = rank
            ind.crowding = c
        members.sort(
            key=lambda ind: (
                -ind.crowding,
                stable_hash64(genes_bytes(ind.genotype.genes), salt),
            )
        )
        ordered.extend(members)
    return ordered


def select_best(
    pop: Sequence[Individual],
    k: int,
    exclude: set[tuple[int, ...]] | frozenset = frozenset(),
    salt: int = 0,
) -> list[Individual]:
    """Top-k by non-dominated sort + crowding, skipping excluded genotypes and
    duplicates, backfilling from later fronts."""
    chosen: list[Individual] = []
    seen: set[tuple[int, ...]] = set(exclude)
    for ind in _quality_order(list(pop), salt):
        if ind.genotype.genes in seen:
            continue
        seen.add(ind.genotype.genes)
        chosen.append(ind)
        if len(chosen) == k:
            break
    return chosen


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------


def _tournament(rng, pop: Sequence[Individual], salt: int) -> Individual:
    a = pop[int(rng.integers(len(pop)))]
    b = pop[int(rng.integers(len(pop)))]
    ka = (a.rank, -a.crowding, stable_hash64(genes_bytes(a.genotype.genes), salt))
    kb = (b.rank, -b.crowding, stable_hash64(genes_bytes(b.genotype.genes), salt))
    return a if ka <= kb else b


def _two_point_crossover(rng, g1: Genotype, g2: Genotype):
    length = len(g1.genes)
    if length < 2:
        return g1.genes, g2.genes
    a, b = sorted(int(c) for c in rng.choice(length + 1, size=2, replace=False))
    c1 = g1.genes[:a] + g2.genes[a:b] + g1.genes[b:]
    c2 = g2.genes[:a] + g1.genes[a:b] + g2.genes[b:]
    return c1, c2


def _mutate(rng, genes: tuple[int, ...], space: SearchSpace, rate: float):
    out = list(genes)
    draws = rng.random(len(out))
    for pos in np.nonzero(draws < rate)[0]:
        vals = space.allowed[pos]
        if len(vals) < 2:
            continue
        r = space.value_rank(int(pos), out[pos])
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
    salt = subseed(cfg.seed, "tiebreak")
    pop_size = cfg.population_size
    mutation_rate = cfg.resolved_mutation_rate
    retry_budget = cfg.resolved_retry_budget

    trace = SearchTrace(space_name=space.name)
    known: dict[tuple[int, ...], ObjectiveVector] = {}

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
            known[g.genes] = v
            trace.evaluations.append(TraceEvaluation(gen, g, v, source))

    def snapshot(pop: list[Individual]) -> list[Individual]:
        return [replace(ind) for ind in pop]

    # -- initial population --------------------------------------------------
    init = repair_unique(warm_start or (), space)
    init_keys = {g.genes for g in init}
    trace.warm_start_size = len(init)
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
    population = [Individual(Genotype(k), known[k]) for k in (g.genes for g in init)]
    if len(population) > pop_size:
        population = select_best(population, pop_size, salt=salt)
    else:
        _quality_order(population, salt)  # stamp rank/crowding
    trace.populations.append(snapshot(population))

    # -- generations -----------------------------------------------------------
    for gen in range(1, cfg.generations + 1):
        children: list[Genotype] = []
        pending: set[tuple[int, ...]] = set()
        budget = retry_budget
        while len(children) < pop_size:
            p1 = _tournament(rng, population, salt)
            p2 = _tournament(rng, population, salt)
            if rng.random() < cfg.crossover_rate:
                c1, c2 = _two_point_crossover(rng, p1.genotype, p2.genotype)
            else:
                c1, c2 = p1.genotype.genes, p2.genotype.genes
            for genes in (c1, c2):
                if len(children) >= pop_size:
                    break
                mutated = _mutate(rng, genes, space, mutation_rate)
                child = canonicalize(Genotype(mutated), space)
                is_dup = child.genes in known or child.genes in pending
                if is_dup and budget > 0:
                    budget -= 1
                    continue
                if is_dup:
                    trace.duplicate_accepts += 1
                else:
                    pending.add(child.genes)
                children.append(child)
        fresh = [g for g in children if g.genes in pending]
        fresh = [Genotype(k) for k in dict.fromkeys(g.genes for g in fresh)]
        run_evaluations(gen, fresh)
        offspring = [Individual(g, known[g.genes]) for g in children]
        population = select_best(population + offspring, pop_size, salt=salt)
        trace.populations.append(snapshot(population))

    return trace
