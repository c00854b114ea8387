"""Objective vectors, Pareto fronts, 2-D hypervolume, CSV export.

All comparisons happen in canonical minimization space: maximize objectives
are negated once, at vector construction, and never again downstream.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyInput, ObjectiveMismatch, ReferenceViolation
from .space import Genotype, genotype_ids

DIRECTIONS = ("minimize", "maximize")


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    direction: str
    unit: str = ""

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(
                f"objective {self.name}: direction must be one of {DIRECTIONS}"
            )


def check_unique_names(specs) -> None:
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"objective names must be unique, got {names}")


def check_two_objectives(specs, where: str = "") -> None:
    """Raise ConfigError, its message after `where`, unless there are two
    specs: fronts and hypervolume take exactly two objectives."""
    if len(specs) != 2:
        raise ConfigError(f"{where}fronts and hypervolume take exactly two objectives, "
                          f"got {len(specs)}: {[s.name for s in specs]}")


@dataclass(frozen=True)
class ObjectiveVector:
    """Raw objective values plus their specs; canonical_min negates maximizers."""

    values: tuple[float, ...]
    specs: tuple[ObjectiveSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "specs", tuple(self.specs))
        if len(self.values) != len(self.specs):
            raise ObjectiveMismatch(
                f"{len(self.values)} values for {len(self.specs)} objective specs"
            )
        if not all(map(math.isfinite, self.values)):
            raise ObjectiveMismatch(f"non-finite objective value in {self.values}")

    @cached_property
    def canonical_min(self) -> tuple[float, ...]:
        return tuple(
            v if s.direction == "minimize" else -v
            for v, s in zip(self.values, self.specs)
        )


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated genotype, built from a log's row or an evolver trace's
    when it leaves the engine; a failed measurement has `error` set and no
    objectives. A log's records share its one evaluator id; a trace's have
    none ("")."""

    genotype: Genotype
    objectives_raw: ObjectiveVector | None
    evaluator_id: str
    sequence_number: int
    gen: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class FrontColumns:
    """A Pareto front as columns, members in first-seen order: their gene
    rows ((n, L) ints) and raw objective rows ((n, m) floats)."""

    genes: np.ndarray
    raw: np.ndarray

    def __len__(self) -> int:
        return len(self.raw)


def front_ranks(points) -> np.ndarray:
    """Each 2-D canonical-min point's non-dominated front rank, 0 for the best.

    An O(n log n) sweep (Kung, Luccio & Preparata 1975; Jensen 2003): in
    (x, y) order each front's last member has its smallest y, so it
    dominates a later point iff its [y, x] is smaller, and those keys rise
    with the rank; a bisection over them finds the first front that does not
    dominate a point. When no two points share a y, y alone is that key. One
    sort gives the order: a row viewed as the complex number x + iy, which
    numpy orders lexicographically; equal points take one rank in any order.
    Two objectives are the only count a search takes (`check_two_objectives`)."""
    pts = np.ascontiguousarray(points, dtype=float)
    n = len(pts)
    rank = np.zeros(n, dtype=np.intp)
    if not n:
        return rank
    order = np.argsort(pts.view(complex).ravel())
    keys = pts[order, 1].tolist()
    if len(set(keys)) < n:
        keys = pts.take(order, axis=0)[:, ::-1].tolist()
    lasts: list = []
    ranks = []
    bisect_left = bisect.bisect_left
    for key in keys:
        k = bisect_left(lasts, key)
        if k == len(lasts):
            lasts.append(key)
        else:
            lasts[k] = key
        ranks.append(k)
    rank[order] = ranks
    return rank


def first_front(points) -> np.ndarray:
    """Ascending indices of the 2-D canonical-min rows that no row
    dominates, by `front_by_x`; equal rows share the front."""
    return np.sort(front_by_x(points)[0])


def front_by_x(points) -> tuple[np.ndarray, bool]:
    """The indices of the 2-D canonical-min rows that no row dominates, in
    (x, y) order, and whether two of them are equal. One sort: in (x, y)
    order a row is on the front iff its y is below every earlier y, or it
    equals the row before it and that row is."""
    pts = np.ascontiguousarray(points, dtype=float)
    xy = pts.view(complex).ravel()  # x + iy, in (x, y) order when sorted; see `front_ranks`
    order = np.argsort(xy)
    xy, below = xy[order], np.ones(len(pts), dtype=bool)
    below[1:] = xy.imag[1:] < np.minimum.accumulate(xy.imag)[:-1]
    repeat = np.zeros(len(pts), dtype=bool)
    repeat[1:] = xy[1:] == xy[:-1]
    if not repeat.any():
        return order[below], False
    below = below[np.maximum.accumulate(np.where(repeat, 0, np.arange(len(pts))))]
    return order[below], bool(repeat[below].any())  # a repeat's run starts on the front too


def canonical_matrix(raw, specs) -> np.ndarray:
    """Rows of raw objective values in canonical-min form: the columns of
    maximized objectives negated, bit for bit as `canonical_min` does."""
    signs = [1.0 if s.direction == "minimize" else -1.0 for s in specs]
    return np.asarray(raw, dtype=float) * signs


def pareto_front(records) -> list[EvaluationRecord]:
    """Extract the non-dominated subset of evaluation records.

    Records sharing a canonical genotype are collapsed to the earliest one, so
    fronts are deterministic even when the same configuration was measured in
    several batches. Distinct genotypes with equal objective vectors are all
    kept. Members come back in first-seen order (see `first_front`).
    """
    records = list(records)
    if not records:
        raise EmptyInput("pareto_front requires at least one record")
    specs = records[0].objectives_raw.specs
    deduped = {}
    for rec in records:
        if rec.objectives_raw.specs != specs:
            raise ObjectiveMismatch("records mix different objective spec lists")
        deduped.setdefault(rec.genotype.genes, rec)
    recs = list(deduped.values())
    first = first_front([r.objectives_raw.canonical_min for r in recs])
    return [recs[i] for i in first]


def validated_front(store) -> FrontColumns:
    """The front of a `ResultStore`'s `validation_columns` by the rules of
    `pareto_front`, built without a record."""
    _, genes, raw, _ = store.validation_columns()
    if not len(raw):
        raise EmptyInput("a front needs at least one validation record")
    members = first_front(canonical_matrix(raw, store.specs))
    return FrontColumns(genes[members], raw[members])


# ---------------------------------------------------------------------------
# Hypervolume (two objectives)
# ---------------------------------------------------------------------------


def dominated_area(points, reference) -> float:
    """Area dominated by 2-D canonical-min points relative to `reference`.

    Sorts on the first coordinate and sums disjoint horizontal strips; points
    must be strictly better than the reference in both coordinates.
    """
    ref_x, ref_y = float(reference[0]), float(reference[1])
    pts = []
    for p in points:
        x, y = float(p[0]), float(p[1])
        if x >= ref_x or y >= ref_y:
            raise ReferenceViolation(
                f"point ({x}, {y}) not strictly inside reference ({ref_x}, {ref_y})"
            )
        pts.append((x, y))
    area = 0.0
    prev_y = ref_y
    for x, y in sorted(pts):
        if y < prev_y:
            area += (ref_x - x) * (prev_y - y)
            prev_y = y
    return area


def default_reference(points) -> tuple[float, ...]:
    """Frozen hypervolume reference for canonical-min points (rows): worst
    observed value per objective, padded 5% toward the worse side so observed
    points stay strictly inside the box.
    """
    pts = np.asarray(points, dtype=float)
    if not len(pts):
        raise EmptyInput("need at least one vector to place a reference point")
    return tuple(
        worst + 0.05 * max(abs(worst), worst - best, 1e-9)
        for worst, best in zip(pts.max(axis=0).tolist(), pts.min(axis=0).tolist())
    )


class IncrementalFront2D:
    """Maintains a 2-D Pareto front under point insertion, for HV traces.

    Points at or outside the reference box are dropped (counted, not raised):
    cumulative traces freeze their reference early, and later exploration may
    legally produce points worse than it. The running strip sums of
    `dominated_area` are kept in x order and redone from an insertion's
    position on, with the same additions in the same order: `hypervolume` is
    O(1) and equals `dominated_area` of the front bit for bit.
    """

    def __init__(self, reference):
        self.reference = (float(reference[0]), float(reference[1]))
        self._points: list[tuple[float, float]] = []  # sorted by x asc, y desc
        self._areas: list[float] = []  # _areas[i]: strip sum of _points[: i + 1]
        self.seen = 0  # points offered to `insert`, clamped ones included
        self.clamped = 0

    def insert(self, point) -> bool:
        """Insert a canonical-min point; returns True if the front changed."""
        x, y = float(point[0]), float(point[1])
        ref_x, ref_y = self.reference
        self.seen += 1
        if x >= ref_x or y >= ref_y:
            self.clamped += 1
            return False
        pts = self._points
        # dominated (or duplicated) by the rightmost point with x' <= x?
        j = bisect.bisect_right(pts, (x, float("inf")))
        if j > 0 and pts[j - 1][1] <= y:
            return False
        # remove points dominated by the new one (x' >= x and y' >= y)
        i = bisect.bisect_left(pts, (x, y))
        k = i
        while k < len(pts) and pts[k][1] >= y:
            k += 1
        pts[i:k] = [(x, y)]
        areas = self._areas
        del areas[i:]
        area, prev_y = (areas[-1], pts[i - 1][1]) if i else (0.0, ref_y)
        for px, py in pts[i:]:
            area += (ref_x - px) * (prev_y - py)
            areas.append(area)
            prev_y = py
        return True

    def hypervolume(self) -> float:
        return self._areas[-1] if self._areas else 0.0


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def front_to_csv(front: FrontColumns, specs, path: str | Path) -> None:
    """Columns: genotype_id, per-objective raw values, per-objective canonical
    values; a row per member, written in one pass over the columns with the
    csv module's \\r\\n line ends (ids and float reprs need no quoting).
    A negated value's repr is its repr with the sign toggled."""
    if not len(front):
        raise EmptyInput("cannot export an empty front")
    header = (
        ["genotype_id"]
        + [f"{s.name}_raw" for s in specs]
        + [f"{s.name}_canonical" for s in specs]
    )
    flip = [s.direction == "maximize" for s in specs]
    lines = []
    for gid, raw in zip(genotype_ids(front.genes.tolist()), front.raw.tolist()):
        texts = list(map(repr, raw))
        canonical = [(t[1:] if t[0] == "-" else "-" + t) if f else t for t, f in zip(texts, flip)]
        lines.append(",".join([gid, *texts, *canonical]) + "\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(lines))


def hv_trace_to_csv(trace, path: str | Path, append: bool = False) -> None:
    """Columns: evaluation_count, hypervolume; written in one write, with the
    csv module's \\r\\n line ends. With `append` the rows go to the end of
    the file, without the header, so a trace can be written batch by batch."""
    rows = "".join(f"{count},{hv!r}\r\n" for count, hv in trace)
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        fh.write(rows if append else "evaluation_count,hypervolume\r\n" + rows)
