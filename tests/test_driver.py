"""The search loop under both tactics, and hypervolume traces."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.driver import (
    ConcurrentNasConfig,
    FullSearchConfig,
    PredictorConfig,
    hypervolume_trace,
    make_validation_evaluate,
    search,
)
from subnetsearch.errors import ConfigError, EmptyInput
from subnetsearch.evalmgr import (
    EvaluationFailure,
    ResultStore,
    SyntheticSurfaceEvaluator,
    evaluate_batch,
)
from subnetsearch import evalmgr
from subnetsearch.evolver import SearchTrace, Slots
from subnetsearch.objectives import (
    IncrementalFront2D,
    ObjectiveSpec,
    ObjectiveVector,
    canonical_matrix,
    default_reference,
    dominated_area,
    first_front,
    front_to_csv,
    pareto_front,
    validated_front,
)
from subnetsearch.space import (
    Genotype,
    enumerate_genotypes,
    genotype_ids,
    rank_genes,
    rank_matrix,
    sample_uniform,
)

from conftest import DIGEST_MOVED, gene_rows, validation_records


def front_genes(front):
    """The gene tuples of a front's members (`FrontColumns`)."""
    return [tuple(genes) for genes in front.genes.tolist()]


def same_front(front, records):
    """The columns of `front` hold the genotypes and raw objectives of
    `records`, in order."""
    return front_genes(front) == [r.genotype.genes for r in records] and (
        front.raw.tolist() == [list(r.objectives_raw.values) for r in records]
    )


def true_front_genes(space, surface):
    gs = list(enumerate_genotypes(space))
    records = [
        type("R", (), {"genotype": g, "objectives_raw": vec})()
        for g, vec in zip(gs, surface.evaluate(gs))
    ]
    return {r.genotype.genes for r in pareto_front(records)}


@pytest.fixture(scope="module")
def toy_setup(toy_space):
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    return toy_space, surface


@pytest.fixture(scope="module")
def flat_toy_setup(toy_space):
    """Noiseless toy surface without latency interaction terms, so per-gene
    additive predictors can represent it well."""
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    surface.interactions = ()
    return toy_space, surface


# ---------------------------------------------------------------------------
# full search
# ---------------------------------------------------------------------------


def test_full_search_recovers_most_of_true_front(flat_toy_setup):
    space, surface = flat_toy_setup
    truth = true_front_genes(space, surface)
    report = search(
        space,
        surface.specs,
        surface,
        FullSearchConfig(
            population_size=30,
            generations=60,
            n_train=300,
            predictor=PredictorConfig(family="ridge", encoding="one_hot", ridge_lambda=1e-6),
            seed=0,
        ),
    )
    found = set(front_genes(report.validated_front))
    recovered = len(truth & found) / len(truth)
    assert recovered >= 0.9
    assert report.predicted_front is not None
    assert report.validation_count >= 300


def test_full_search_exhaustive_training_recovers_exact_front(toy_space):
    """Linear-in-one-hot objectives trained on the whole space: the ridge fit
    is exact, so the predicted front equals the true front."""
    import numpy as np

    from conftest import CallableEvaluator
    from subnetsearch.objectives import ObjectiveSpec, ObjectiveVector
    from subnetsearch.space import canonical_ranks, encode_matrix

    specs = (
        ObjectiveSpec("quality", "maximize"),
        ObjectiveSpec("cost", "minimize"),
    )
    rng = np.random.default_rng(0)
    from subnetsearch.space import feature_dim

    d = feature_dim(toy_space, "one_hot")
    w_q, w_c = rng.uniform(0, 1, d), rng.uniform(0, 1, d)

    def measure(g):
        x = encode_matrix(canonical_ranks([g], toy_space)[0], toy_space, "one_hot")[0]
        return ObjectiveVector((float(w_q @ x), float(w_c @ x)), specs)

    all_genotypes = list(enumerate_genotypes(toy_space))

    class R:
        def __init__(self, g):
            self.genotype = g
            self.objectives_raw = measure(g)

    truth = {r.genotype.genes for r in pareto_front([R(g) for g in all_genotypes])}

    evaluator = CallableEvaluator(measure, evaluator_id="linear")
    report = search(
        toy_space,
        specs,
        evaluator,
        FullSearchConfig(
            population_size=40,
            generations=120,
            n_train=len(all_genotypes),
            predictor=PredictorConfig(family="ridge", encoding="one_hot", ridge_lambda=1e-9),
            seed=1,
        ),
    )
    predicted = set(front_genes(report.predicted_front))
    assert truth <= predicted  # every true front member is predicted optimal
    validated = set(front_genes(report.validated_front))
    assert truth <= validated


def test_full_search_zero_generations_front_equals_sample_front(toy_setup):
    space, surface = toy_setup
    report = search(
        space,
        surface.specs,
        surface,
        FullSearchConfig(
            population_size=10,
            generations=0,
            n_train=120,
            predictor=PredictorConfig(family="ridge"),
            seed=1,
        ),
    )
    # with zero generations the predictor search sees only its initial
    # population; every validated-front member must come from the training
    # sample or that population's validation
    sample_front = pareto_front(validation_records(report.store))
    assert set(front_genes(report.validated_front)) == {
        r.genotype.genes for r in sample_front
    }


def test_full_search_validation_only_mode(toy_setup):
    space, surface = toy_setup
    report = search(
        space,
        surface.specs,
        surface,
        FullSearchConfig(
            population_size=15,
            generations=10,
            n_train=0,
            predictor=PredictorConfig(family="none"),
            seed=2,
        ),
    )
    assert report.predicted_front is None
    assert report.validation_count > 15
    assert len(report.hv_trace) == report.validation_count


def test_full_search_warns_below_100_train(toy_setup):
    space, surface = toy_setup
    with pytest.warns(UserWarning, match="n_train"):
        search(
            space,
            surface.specs,
            surface,
            FullSearchConfig(
                population_size=8,
                generations=2,
                n_train=50,
                predictor=PredictorConfig(family="ridge"),
                seed=3,
            ),
        )


# ---------------------------------------------------------------------------
# concurrent search
# ---------------------------------------------------------------------------


def test_concurrent_bookkeeping_invariants(toy_setup):
    space, surface = toy_setup
    c, iters = 20, 3
    report = search(
        space,
        surface.specs,
        surface,
        ConcurrentNasConfig(
            population_size=c,
            iterations=iters,
            inner_generations=30,
            predictor=PredictorConfig(encoding="ordinal_normalized", ridge_lambda=0.1),
            seed=4,
        ),
    )
    # iteration i logs its population of c genotypes, in order, as gen i
    recs = validation_records(report.store)
    assert [r.gen for r in recs] == [i for i in range(iters) for _ in range(c)]
    assert report.validation_count == c * iters
    # and no genotype is validated twice
    assert len({r.genotype.genes for r in recs}) == len(recs)


def test_concurrent_i2_front_subset_of_predictor_outputs(toy_setup):
    space, surface = toy_setup
    report = search(
        space,
        surface.specs,
        surface,
        ConcurrentNasConfig(
            population_size=15, iterations=2, inner_generations=20, seed=5
        ),
    )
    # the predicted front is a non-dominated set of distinct genotypes
    front = report.predicted_front
    assert len(front) and len(set(front_genes(front))) == len(front)
    assert len(first_front(canonical_matrix(front.raw, surface.specs))) == len(front)


def test_concurrent_deduplicates_promotions(toy_setup):
    space, surface = toy_setup
    report = search(
        space,
        surface.specs,
        surface,
        ConcurrentNasConfig(
            population_size=12, iterations=3, inner_generations=25, seed=6
        ),
    )
    recs = validation_records(report.store)
    genes = [r.genotype.genes for r in recs]
    assert len(genes) == len(set(genes))  # no genotype validated twice


def test_concurrent_warm_start_from_other_preset(toy_setup):
    space, surface = toy_setup
    other = SyntheticSurfaceEvaluator(space, "v100-like")
    source = search(
        space,
        other.specs,
        other,
        FullSearchConfig(
            population_size=15,
            generations=15,
            n_train=0,
            predictor=PredictorConfig(family="none"),
            seed=8,
        ),
    )
    seeds = tuple(map(Genotype, front_genes(source.validated_front)))
    report = search(
        space,
        surface.specs,
        surface,
        ConcurrentNasConfig(
            population_size=10,
            iterations=1,
            inner_generations=5,
            warm_start=seeds,
            seed=9,
        ),
    )
    warm_keys = {g.genes for g in seeds}
    first_pop = {r.genotype.genes for r in validation_records(report.store) if r.gen == 0}
    assert first_pop & warm_keys  # warm-start members were validated first


def test_concurrent_config_validation():
    with pytest.raises(ConfigError):
        ConcurrentNasConfig(population_size=0)
    with pytest.raises(ConfigError):
        ConcurrentNasConfig(iterations=0)


# ---------------------------------------------------------------------------
# hypervolume trace
# ---------------------------------------------------------------------------


def test_hv_trace_single_record(toy_setup):
    space, surface = toy_setup
    store = ResultStore(surface.specs, space=space)
    g = sample_uniform(space, 1, 0)[0]
    vec = surface.evaluate([g])[0]
    store.append_batch([g.genes], [vec], "e1")
    ref = (vec.canonical_min[0] + 1.0, vec.canonical_min[1] + 10.0)
    trace = hypervolume_trace(store, ref)
    assert len(trace) == 1
    assert trace[0] == (1, pytest.approx(1.0 * 10.0))


def test_hv_trace_non_decreasing_and_matches_recompute(toy_setup):
    space, surface = toy_setup
    store = ResultStore(surface.specs, space=space)
    gs = sample_uniform(space, 120, seed=10)
    evaluate_batch(gene_rows(gs), surface, store)
    recs = validation_records(store)
    from subnetsearch.objectives import default_reference

    ref = default_reference([r.objectives_raw.canonical_min for r in recs[:30]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = hypervolume_trace(store, ref)
    assert [k for k, _ in trace] == list(range(1, len(recs) + 1))
    prev = 0.0
    for _, hv in trace:
        assert hv >= prev - 1e-12
        prev = hv
    # naive recomputation oracle at each k
    for k, hv in trace:
        pts = []
        front = IncrementalFront2D(ref)
        for r in recs[:k]:
            front.insert(r.objectives_raw.canonical_min)
        assert hv == pytest.approx(front.hypervolume())


def test_hv_trace_requires_records(toy_setup):
    space, surface = toy_setup
    with pytest.raises(EmptyInput):
        hypervolume_trace(ResultStore(surface.specs, space=space), (1.0, 1.0))


def test_hv_trace_clamps_with_warning(toy_setup):
    space, surface = toy_setup
    store = ResultStore(surface.specs, space=space)
    from subnetsearch.evalmgr import evaluate_batch

    gs = sample_uniform(space, 40, seed=11)
    evaluate_batch(gene_rows(gs), surface, store)
    recs = validation_records(store)
    # reference tighter than some records -> those are clamped out, warned
    best = min(r.objectives_raw.canonical_min[0] for r in recs)
    worst_lat = max(r.objectives_raw.canonical_min[1] for r in recs)
    tight_ref = (best + 1e-6, worst_lat + 1.0)
    with pytest.warns(UserWarning, match="clamped"):
        trace = hypervolume_trace(store, tight_ref)
    assert trace[-1][1] >= 0.0


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------


def test_report_export_artifacts(tmp_path, toy_setup):
    space, surface = toy_setup
    report = search(
        space,
        surface.specs,
        surface,
        ConcurrentNasConfig(
            population_size=10, iterations=2, inner_generations=10, seed=12,
            space="toy", evaluator="synthetic:clx-like",
        ),
    )
    out = report.export(tmp_path / "run")
    for name in ("front.csv", "hv_trace.csv", "evals.jsonl", "config.json"):
        assert (out / name).exists(), name
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["tactic"] == "concurrent"
    assert cfg["hv_reference"] is not None
    assert (cfg["space"], cfg["evaluator"]) == ("toy", "synthetic:clx-like")
    # evals.jsonl replays into the same number of validation records
    replayed = ResultStore.load(out / "evals.jsonl", space=space)
    assert len(validation_records(replayed)) == report.validation_count


def test_oracle_predictors_match_validation_search(toy_setup):
    """With predictors replaced by the true surface, the inner search behaves
    like a warm-started full validation search on the same seed."""
    space, surface = toy_setup
    import subnetsearch.driver as drv

    orig = drv.make_predictor_evaluate

    def oracle(space_, specs_, models, pcfg, **kw):
        def evaluate(ranks):
            gs = list(map(Genotype, rank_genes(ranks, space_)))
            return [vec.values for vec in surface.evaluate(gs)]

        return evaluate

    drv.make_predictor_evaluate = oracle
    try:
        report = search(
            space,
            surface.specs,
            surface,
            ConcurrentNasConfig(
                population_size=12, iterations=2, inner_generations=40, seed=13
            ),
        )
    finally:
        drv.make_predictor_evaluate = orig
    # the predicted front under an oracle matches true objective values
    front = report.predicted_front
    truth = surface.evaluate(list(map(Genotype, front_genes(front))))
    for raw, vec in zip(front.raw.tolist(), truth):
        assert raw == pytest.approx(vec.values)


def counted_search(monkeypatch, space, surface, cfg):
    """`search` under `cfg` with its evaluator batches, predictor fits and
    inner searches counted: the report and the three counts."""
    import subnetsearch.driver as drv

    counts = dict.fromkeys(("evaluate_batch", "_train_models", "evolve"), 0)

    def counting(name):
        orig = getattr(drv, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return orig(*args, **kw)

        return wrapper

    for name in counts:
        monkeypatch.setattr(drv, name, counting(name))
    report = search(space, surface.specs, surface, cfg)
    return report, tuple(counts.values())


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_concurrent_run_ends_at_its_last_batch(toy_setup, monkeypatch, iterations):
    """k batches, with a fit and an inner search only between two of them."""
    space, surface = toy_setup
    cfg = ConcurrentNasConfig(population_size=8, iterations=iterations,
                              inner_generations=6, seed=9)
    report, counts = counted_search(monkeypatch, space, surface, cfg)
    assert counts == (iterations, iterations - 1, iterations - 1)
    assert report.validation_count == 8 * iterations
    assert set(report.phase_seconds) == {"validate", "train_predictors", "search"}
    if iterations == 1:
        assert report.phase_seconds["train_predictors"] == 0.0
        assert report.phase_seconds["search"] == 0.0
        assert report.predicted_front is None
    else:
        assert len(report.predicted_front)


def test_full_run_validates_the_front_of_its_one_search(toy_setup, monkeypatch):
    space, surface = toy_setup
    cfg = FullSearchConfig(population_size=8, generations=4, n_train=100, seed=9)
    report, counts = counted_search(monkeypatch, space, surface, cfg)
    assert counts == (2, 1, 1)
    assert len(report.predicted_front)


def test_hv_trace_equals_full_recompute_exactly(toy_setup):
    # The trace recomputes the area only when the front changes; every
    # value must equal a fresh strip sum over the same front, bit for bit.
    space, surface = toy_setup
    store = ResultStore(surface.specs, space=space)
    from subnetsearch.evalmgr import evaluate_batch
    from subnetsearch.objectives import default_reference, dominated_area

    gs = sample_uniform(space, 150, seed=12)
    evaluate_batch(gene_rows(gs), surface, store)
    recs = validation_records(store)
    ref = default_reference([r.objectives_raw.canonical_min for r in recs[:20]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = hypervolume_trace(store, ref)
    front = IncrementalFront2D(ref)
    for (k, hv), rec in zip(trace, recs):
        front.insert(rec.objectives_raw.canonical_min)
        assert hv == (dominated_area(front._points, ref) if front._points else 0.0)
    assert front.clamped > 0


# ---------------------------------------------------------------------------
# columnar end of run: HV trace, HV reference and validated front
# ---------------------------------------------------------------------------


def mixed_log(space, surface):
    """A log with a failure row and a later batch that measures the failed
    genotype, with objectives that dominate every other record, and a new
    one."""
    store = ResultStore(surface.specs, space=space)
    gs = list(dict.fromkeys(sample_uniform(space, 60, seed=21)))
    evaluate_batch(gene_rows(gs[:50]), surface, store)
    store.append_batch([gs[50].genes], [EvaluationFailure("crashed")], surface.evaluator_id)
    recs = validation_records(store)
    top1 = max(r.objectives_raw.values[0] for r in recs) + 1.0  # specs: top1, latency_ms
    latency = min(r.objectives_raw.values[1] for r in recs) / 2
    store.append_batch(
        gene_rows([gs[50], gs[51]]),
        [ObjectiveVector((top1, latency), surface.specs),
         surface.evaluate([gs[51]])[0]],
        surface.evaluator_id,
    )
    return store


def test_mixed_log_measures_a_failed_genotype_again(toy_setup):
    space, surface = toy_setup
    store = mixed_log(space, surface)
    failed = [r.genotype for r in store.records if not r.ok]
    recs = validation_records(store)
    assert len(failed) == 1 and recs[-2].genotype == failed[0]
    assert len({r.genotype for r in recs}) == len(recs) == 52


def test_column_front_and_reference_equal_the_record_forms(toy_setup, tmp_path, monkeypatch):
    space, surface = toy_setup
    store = mixed_log(space, surface)
    recs = validation_records(store)
    expected = list(pareto_front(recs))
    assert same_front(validated_front(store), expected)
    assert default_reference(
        canonical_matrix(store.validation_columns()[2], store.specs)
    ) == default_reference([r.objectives_raw.canonical_min for r in recs])
    # a loaded log gives the same front and builds no record for it
    store.dump(tmp_path / "evals.jsonl")
    loaded = ResultStore.load(tmp_path / "evals.jsonl", space=space)
    monkeypatch.setattr(evalmgr, "EvaluationRecord", None)  # building one would raise
    assert same_front(validated_front(loaded), expected)


def record_front_to_csv(front, path):
    """The record path that wrote front.csv and predicted_front.csv before
    both were written from columns, kept as the oracle of `front_to_csv`:
    a `pareto_front` of records, one csv row per record."""
    rows = list(front)
    specs = rows[0].objectives_raw.specs
    header = (
        ["genotype_id"]
        + [f"{s.name}_raw" for s in specs]
        + [f"{s.name}_canonical" for s in specs]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec, gid in zip(rows, genotype_ids(rec.genotype.genes for rec in rows)):
            vec = rec.objectives_raw
            writer.writerow(
                [gid] + [repr(v) for v in vec.values] + [repr(v) for v in vec.canonical_min]
            )


# Objective values on a grid with signed zeros, so that distinct genotypes
# share objective vectors, mixed with arbitrary finite floats.
FRONT_VALUES = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.25]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def objective_specs(draw):
    """Two objectives, each maximized or minimized; the names need csv
    quoting."""
    return tuple(ObjectiveSpec(f'f{k},"{k}"', draw(st.sampled_from(["minimize", "maximize"])))
                 for k in range(2))


@pytest.fixture(scope="module")
def toy_genotypes(toy_space):
    return list(enumerate_genotypes(toy_space))


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_column_fronts_write_the_record_path_bytes(toy_space, toy_genotypes, tmp_path_factory,
                                                   data):
    """front.csv from a store's columns and predicted_front.csv from a trace
    table equal `record_front_to_csv(pareto_front(records))` byte for byte:
    with failures in the log, distinct genotypes with equal objective
    vectors, maximized and minimized objectives, signed zeros and one-row
    fronts."""
    specs = data.draw(objective_specs())
    m = len(specs)
    pool = toy_genotypes
    n = data.draw(st.integers(1, 24))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n,
                               unique=True))
    gs = [pool[i] for i in picks]
    values = data.draw(st.lists(st.tuples(*[FRONT_VALUES] * m), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # a row that dominates every other one
        values[data.draw(st.integers(0, n - 1))] = tuple(
            -1e300 if s.direction == "minimize" else 1e300 for s in specs
        )
    out = tmp_path_factory.mktemp("fronts")

    # a trace table of distinct genotypes, as `evolve` makes one
    sign = np.array([1.0 if s.direction == "minimize" else -1.0 for s in specs])
    ranks = rank_matrix(gs, toy_space).astype(np.uint8)
    table = Slots(ranks, np.array(values) * sign, np.zeros(n, np.uint64), np.arange(n))
    trace = SearchTrace(toy_space, specs, table, [0] * n, [np.arange(n)], 0)
    front_to_csv(trace.front(), specs, out / "predicted_front.csv")
    record_front_to_csv(pareto_front(trace.evaluations), out / "oracle_predicted.csv")
    assert (out / "predicted_front.csv").read_bytes() == (out / "oracle_predicted.csv").read_bytes()

    # a log of two batches with failures between them: of a measured
    # genotype, and of one that the second batch measures
    store = ResultStore(specs, space=toy_space)
    k = data.draw(st.integers(1, n))
    store.append_batch(gene_rows(gs[:k]), [ObjectiveVector(v, specs) for v in values[:k]], "a")
    store.append_batch([gs[0].genes, gs[-1].genes], [EvaluationFailure("crashed")] * 2, "a")
    store.append_batch(gene_rows(gs[k:]), [ObjectiveVector(v, specs) for v in values[k:]], "a")
    front_to_csv(validated_front(store), specs, out / "front.csv")
    record_front_to_csv(pareto_front(validation_records(store)), out / "oracle.csv")
    assert (out / "front.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def test_hv_trace_equals_dominated_area_of_every_prefix(toy_setup):
    space, surface = toy_setup
    store = mixed_log(space, surface)
    recs = validation_records(store)
    ref = default_reference([r.objectives_raw.canonical_min for r in recs[:3]])
    with pytest.warns(UserWarning, match="clamped"):
        trace = hypervolume_trace(store, ref)
    assert [k for k, _ in trace] == list(range(1, len(recs) + 1))
    points = [r.objectives_raw.canonical_min for r in recs]
    for k, hv in trace:
        inside = [p for p in points[:k] if p[0] < ref[0] and p[1] < ref[1]]
        assert hv == dominated_area(inside, ref)


@pytest.mark.parametrize("tactic", ["concurrent", "full-ridge", "full-none"])
def test_run_reference_and_front_equal_the_record_forms(toy_setup, tactic):
    space, surface = toy_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if tactic == "concurrent":
            report = search(
                space, surface.specs, surface,
                ConcurrentNasConfig(population_size=10, iterations=3,
                                    inner_generations=10, seed=4),
            )
        else:
            family = tactic.partition("-")[2]
            report = search(
                space, surface.specs, surface,
                FullSearchConfig(population_size=10, generations=5, n_train=30, seed=4,
                                 predictor=PredictorConfig(family=family)),
            )
    recs = validation_records(report.store)
    first = recs if tactic == "full-none" else [r for r in recs if r.gen == 0]
    assert report.hv_reference == default_reference(
        [r.objectives_raw.canonical_min for r in first]
    )
    assert same_front(report.validated_front, pareto_front(recs))


# ---------------------------------------------------------------------------
# pinned trajectories
# ---------------------------------------------------------------------------

# sha256 of (evals.jsonl, predicted_front.csv, front.csv, hv_trace.csv) per
# run. The first two were recorded when each tactic was still its own
# function, the last two while both fronts were still written from records,
# and the concurrent runs' predicted fronts once the search after their last
# batch was gone; None where no predicted front exists.
TACTIC_SHA256 = {
    "full-ridge-warm": (
        "b17ad058260a702a714191f8d6f3c83ad238a9200a37c00a03d31d311587c28a",
        "9ee4668158fe8d66d36238e44da4bf345e21379a173e081b123dd446355fb44a",
        "2dab9d9905a53df70648f68c410331237a8fac3e6a2b3b21bbd0cebea0a8684c",
        "15c26dc0a026e82dce679d689cbc1763c4d7d9cd25ec3e13a6c5ece41d722477",
    ),
    "full-none": (
        "5d47c9b9ca3bef7dac3f89549d225554c8cd68833601b651baffc767ff1409a2",
        None,
        "6c4e54ade29652c59af43a9d4de69ae4c5a7bc1164b148cf33d5694ec6cdb997",
        "f204c055085affc7e4150c1900c5809ad1de5b96fc1386b7d6378d220a2818c8",
    ),
    "concurrent-ridge": (
        "df809c74c967cebdb288873734b2bf86bedb9dc6b5983883d62c65a3dfd97474",
        "e7f1841f1b5d9b394ebc5e4ce791f1622e67f91068c8db98e02cdf5e026cbdf9",
        "de15d49107fbe76137490583810624c4fa419a3901cc1f6e7132e69cdc7ed986",
        "fd4205c43c13895fd0a05046d3ce4216894594e294971d3de9c99e18ec920575",
    ),
    "concurrent-svr-warm": (
        "e464b6d7b4a3f79abda5f6b4eda0f8d21ecb596eddd955769858b45399542d13",
        "97630d21aba3dea6ede59eb60b3c37e4d972e9d3da2f39f6c4e11078ab719d68",
        "8b8dfae5a6ea86429d1871c15d3b26de00abacd8f7cd69c373175d58bc54f3e4",
        "4e90eea33e588c5bd5452be319f85e2fb2457320e6dfa1d26d4b0db964943352",
    ),
}


def pinned_run(space, surface, name):
    warm = tuple(sample_uniform(space, 16, seed=20))
    if name == "full-ridge-warm":
        cfg = FullSearchConfig(population_size=12, generations=15, n_train=100,
                               warm_start=warm, seed=21)
    elif name == "full-none":
        cfg = FullSearchConfig(population_size=10, generations=6, seed=22,
                               predictor=PredictorConfig(family="none"))
    elif name == "concurrent-ridge":
        cfg = ConcurrentNasConfig(population_size=10, iterations=3, inner_generations=15,
                                  seed=23)
    else:
        cfg = ConcurrentNasConfig(population_size=10, iterations=2, inner_generations=10,
                                  predictor=PredictorConfig(family="svr"), warm_start=warm,
                                  seed=24)
    return search(space, surface.specs, surface, cfg)


@pytest.mark.parametrize("name", list(TACTIC_SHA256))
def test_tactic_trajectories_are_pinned(toy_setup, tmp_path, name):
    space, surface = toy_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp warning of some runs
        out = pinned_run(space, surface, name).export(tmp_path)
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        for path in (out / f for f in ("evals.jsonl", "predicted_front.csv", "front.csv",
                                        "hv_trace.csv"))
    )
    assert got == TACTIC_SHA256[name], DIGEST_MOVED
