"""Objective vectors, Pareto extraction, 2-D hypervolume, CSV export."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import ConfigError, EmptyInput, ObjectiveMismatch, ReferenceViolation
from subnetsearch.objectives import (
    DIRECTIONS,
    EvaluationRecord,
    FrontColumns,
    IncrementalFront2D,
    ObjectiveSpec,
    ObjectiveVector,
    default_reference,
    dominated_area,
    front_to_csv,
    hv_trace_to_csv,
    pareto_front,
)
from subnetsearch.space import Genotype

MIN2 = (ObjectiveSpec("f1", "minimize"), ObjectiveSpec("f2", "minimize"))
MIXED = (ObjectiveSpec("acc", "maximize"), ObjectiveSpec("lat", "minimize"))


def rec(genes, values, specs=MIN2, seq=0):
    return EvaluationRecord(
        Genotype(genes), ObjectiveVector(values, specs), "", seq
    )


def vec(*values, specs=MIN2):
    return ObjectiveVector(values, specs)


def brute_dominates(a, b):
    av, bv = a.canonical_min, b.canonical_min
    return all(x <= y for x, y in zip(av, bv)) and av != bv


def brute_front(records):
    out = []
    for r in records:
        if not any(
            brute_dominates(o.objectives_raw, r.objectives_raw)
            for o in records
            if o is not r
        ):
            out.append(r)
    return out


def mc_hypervolume(points, reference, n_samples, seed):
    """Monte Carlo estimate of the dominated area plus its standard error."""
    rng = np.random.default_rng(seed)
    ref = np.asarray(reference)
    pts = np.asarray(points)
    lo = pts.min(axis=0)
    box = np.prod(ref - lo)
    samples = rng.uniform(lo, ref, size=(n_samples, 2))
    dominated = np.zeros(n_samples, dtype=bool)
    for p in pts:
        dominated |= (samples >= p).all(axis=1)
    p_hat = dominated.mean()
    sigma = math.sqrt(p_hat * (1 - p_hat) / n_samples) * box
    return p_hat * box, sigma


# ---------------------------------------------------------------------------
# ObjectiveVector
# ---------------------------------------------------------------------------


def test_canonical_min_negates_maximizers():
    v = vec(0.8, 120.0, specs=MIXED)
    assert v.canonical_min == (-0.8, 120.0)


def test_vector_rejects_non_finite():
    with pytest.raises(ObjectiveMismatch):
        vec(float("nan"), 1.0)
    with pytest.raises(ObjectiveMismatch):
        vec(float("inf"), 1.0)


def test_vector_rejects_arity_mismatch():
    with pytest.raises(ObjectiveMismatch):
        ObjectiveVector((1.0,), MIN2)


def test_spec_requires_unique_direction():
    with pytest.raises(ConfigError):
        ObjectiveSpec("x", "upwards")


# ---------------------------------------------------------------------------
# pareto_front
# ---------------------------------------------------------------------------


def test_front_single_point():
    front = pareto_front([rec((0,), (1.0, 1.0))])
    assert len(front) == 1


def test_front_simple_example():
    recs = [
        rec((0,), (1.0, 3.0)),
        rec((1,), (2.0, 2.0)),
        rec((2,), (3.0, 1.0)),
        rec((3,), (3.0, 3.0)),
    ]
    front = pareto_front(recs)
    assert [r.genotype.genes for r in front] == [(0,), (1,), (2,)]


def test_front_empty_input():
    with pytest.raises(EmptyInput):
        pareto_front([])


def test_front_matches_quadratic_oracle():
    rng = np.random.default_rng(42)
    recs = [
        rec((i,), tuple(rng.uniform(0, 1, 2))) for i in range(500)
    ]
    got = {r.genotype.genes for r in pareto_front(recs)}
    want = {r.genotype.genes for r in brute_front(recs)}
    assert got == want


@pytest.mark.parametrize("m", [2])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_front_matches_oracle_with_repeats_and_mixed_directions(m, data):
    directions = data.draw(st.tuples(*[st.sampled_from(DIRECTIONS)] * m))
    specs = tuple(ObjectiveSpec(f"f{k}", d) for k, d in enumerate(directions))
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.tuples(*[st.integers(0, 4)] * m)),
            min_size=1,
            max_size=40,
        )
    )
    recs = [rec((g,), values, specs, seq=i) for i, (g, values) in enumerate(rows)]
    earliest = {}
    for r in recs:
        earliest.setdefault(r.genotype.genes, r)
    assert list(pareto_front(recs)) == brute_front(list(earliest.values()))


def test_front_dedupes_same_genotype_keeps_earliest():
    first = rec((0,), (1.0, 1.0))
    later = rec((0,), (1.0, 1.0), seq=1)
    front = pareto_front([first, later, rec((1,), (0.5, 2.0))])
    assert first in front
    assert later not in front


def test_front_keeps_distinct_genotypes_with_tied_vectors():
    recs = [rec((0,), (1.0, 1.0)), rec((1,), (1.0, 1.0))]
    assert len(pareto_front(recs)) == 2


def test_front_idempotent():
    rng = np.random.default_rng(3)
    recs = [rec((i,), tuple(rng.uniform(0, 1, 2))) for i in range(100)]
    once = pareto_front(recs)
    twice = pareto_front(list(once))
    assert {r.genotype.genes for r in once} == {r.genotype.genes for r in twice}


# ---------------------------------------------------------------------------
# hypervolume
# ---------------------------------------------------------------------------


def test_hv_single_point_rectangle():
    eps = 1e-3
    area = dominated_area([(1 - eps, 1 - eps)], (1.0, 1.0))
    assert area == pytest.approx(eps * eps)
    assert dominated_area([(0.5, 0.5)], (1.0, 1.0)) == 0.25


def test_hv_three_point_staircase():
    pts = [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]
    assert dominated_area(pts, (1.0, 1.0)) == pytest.approx(0.375)


def test_hv_dominated_point_changes_nothing():
    pts = [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]
    with_dominated = pts + [(0.6, 0.6)]
    assert dominated_area(with_dominated, (1.0, 1.0)) == pytest.approx(
        dominated_area(pts, (1.0, 1.0))
    )


def test_hv_reference_violation():
    with pytest.raises(ReferenceViolation):
        dominated_area([(1.0, 0.5)], (1.0, 1.0))
    with pytest.raises(ReferenceViolation):
        dominated_area([(1.5, 0.5)], (1.0, 1.0))


def test_hv_matches_monte_carlo_on_random_fronts():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        pts = [tuple(p) for p in rng.uniform(0.0, 0.9, size=(8, 2))]
        exact = dominated_area(pts, (1.0, 1.0))
        mc, sigma = mc_hypervolume(pts, (1.0, 1.0), 200_000, seed=trial)
        assert abs(exact - mc) <= 3 * sigma + 1e-12


def test_hv_monotone_under_insertion():
    rng = np.random.default_rng(5)
    front = IncrementalFront2D((1.0, 1.0))
    hv = 0.0
    for _ in range(1000):
        front.insert(tuple(rng.uniform(0, 1, 2) * 0.999))
        new_hv = front.hypervolume()
        assert new_hv >= hv - 1e-12
        hv = new_hv


def test_incremental_front_matches_batch():
    rng = np.random.default_rng(9)
    pts = [tuple(p) for p in rng.uniform(0.0, 0.99, size=(300, 2))]
    front = IncrementalFront2D((1.0, 1.0))
    for p in pts:
        front.insert(p)
    # batch: filter non-dominated then strip-sum
    recs = [rec((i,), p) for i, p in enumerate(pts)]
    batch_pts = [r.objectives_raw.canonical_min for r in pareto_front(recs)]
    assert front.hypervolume() == pytest.approx(dominated_area(batch_pts, (1.0, 1.0)))


# Coordinates on and around the box of reference (1, 1): grid values repeat,
# so points are duplicated or share an x or a y; 1.0 lies on the box and
# 1.25 outside it.
BOX_COORDS = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25]),
    st.floats(-1.0, 1.5, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(BOX_COORDS, BOX_COORDS), max_size=60))
def test_incremental_hypervolume_equals_dominated_area_after_every_insert(points):
    ref = (1.0, 1.0)
    front = IncrementalFront2D(ref)
    inside = []
    for p in points:
        front.insert(p)
        if p[0] < ref[0] and p[1] < ref[1]:
            inside.append(p)
        assert front.hypervolume() == dominated_area(inside, ref)
    assert front.clamped == len(points) - len(inside)


def test_default_reference_pads_toward_worse():
    vectors = [vec(0.7, 100.0, specs=MIXED), vec(0.5, 40.0, specs=MIXED)]
    ref = default_reference([v.canonical_min for v in vectors])
    # canonical worst: (-0.5, 100.0); pad must be strictly worse than both
    assert ref[0] > -0.5
    assert ref[1] > 100.0
    for v in vectors:
        assert v.canonical_min[0] < ref[0] and v.canonical_min[1] < ref[1]


def test_front_csv_schema(tmp_path):
    front = FrontColumns(np.array([[0, 1], [1, 1]]), np.array([[0.8, 10.0], [0.6, 5.0]]))
    path = tmp_path / "front.csv"
    front_to_csv(front, MIXED, path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"genotype_id,acc_raw,lat_raw,acc_canonical,lat_canonical"
    assert lines[1].split(b",")[1:] == [b"0.8", b"10.0", b"-0.8", b"10.0"]
    assert len(lines) == 2 + len(front) and lines[-1] == b""
    with pytest.raises(EmptyInput):
        front_to_csv(FrontColumns(np.zeros((0, 2), int), np.zeros((0, 2))), MIXED, path)


def test_hv_trace_csv_equals_the_csv_module_output(tmp_path):
    # signed zeros, repeated values, subnormal and large values
    third = 0.1 + 0.2
    trace = [(1, 0.0), (2, -0.0), (3, third), (4, third), (5, 0.1 + 0.2),
             (6, 5e-324), (7, 5e-324), (8, 1.2345678901234567e300)]
    hv_trace_to_csv(trace, tmp_path / "hv_trace.csv")
    with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation_count", "hypervolume"])
        writer.writerows([count, repr(hv)] for count, hv in trace)
    assert (tmp_path / "hv_trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
