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
    check_objectives,
    hypervolume_trace,
    make_validation_evaluate,
    search,
)
from subnetsearch.errors import ConfigError, SubnetSearchError
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

from conftest import DIGEST_MOVED, gene_rows, raises_exactly, validation_records


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


def test_checks_accept_the_settings_of_a_run_that_fits_nothing(toy_setup):
    """A full search of family "none" takes an override to "none", and a
    concurrent run of one batch takes SVR on one row: neither fits."""
    _, surface = toy_setup
    top1 = surface.specs[0].name
    check_objectives(FullSearchConfig(predictor=PredictorConfig(
        family="none", families={top1: "none"})), surface.specs)
    check_objectives(ConcurrentNasConfig(population_size=1, iterations=1,
                                         predictor=PredictorConfig(family="svr")), surface.specs)


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
    with raises_exactly(SubnetSearchError, "^no validation records$"):
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
# batch was gone; None where no predicted front exists. All four were taken
# again at trajectory version 3 (the row-hash tie-break).
TACTIC_SHA256 = {
    "full-ridge-warm": (
        "67b28f9e9dc26e77e615863e291b8606003a708657594e246973c2e9563647d9",
        "9310eb195f211ac6b6798d568f769c9e184ba873754d4efd92a57a9210c25b1a",
        "c880101f66c2f7a20f203fd1263105ef64d1bde4b5a8d684d5f9f0c73fd1abe7",
        "9165449e2cbe9460ef51056b75e9ab9ca28e8b951b930a069745e6a2c74e1b8d",
    ),
    "full-none": (
        "1b0f4feb0ae8b0bcb92351aba0c193983c255c8229380ebfb2f546bb515fea61",
        None,
        "6f096b52f1a3beab2cb4edca8a68abec5defbb7604cbd9d5347ea6ef8db272c3",
        "6c675adf158b1c970bfb8b947f8b4c7c48251e5f8be498de900d6c0daff44eb1",
    ),
    "concurrent-ridge": (
        "ddff43dc8af5938c0a04c009f8ff4c592a594f81ed3f63ab3ad6cc156a692d5f",
        "2c9215fcda8a4d1d7a33aba38c9e35b961e0db4ccb23ff353b4c895ad3dbcf8e",
        "0d4f5e00c1aabd36eced2ed5b3c086a5b681ba7db37bdd2bde77f32a05aee34a",
        "043d57fc509440e94daa1a4b1d028f037e4b32819be9f3edeee0c404cd5e8210",
    ),
    "concurrent-svr-warm": (
        "cc55fc228217e8eb35930ff1826d9162b3d282adda147651afecae3f44b3e5df",
        "976260c5c9b4c3475b763189cd3675b739abab37196dc4efbf7b2f229401e9f7",
        "68abeb154c531717ee25c585fd3fd1e96b58828fab665d40772c767cff596a1b",
        "7562b04117324ce65139a1d10ee730b834e6491bf169184f6e11bfd6f3a06891",
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
