"""Evaluation manager: caching, persistence, synthetic surfaces, training data."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import (
    ConfigError,
    EvaluatorError,
    InvalidGenotype,
    SubnetSearchError,
)
from subnetsearch import evalmgr
from subnetsearch.evalmgr import (
    ACCURACY_MAX,
    ACCURACY_SPAN,
    LATENCY_BASE,
    NO_GEN,
    EvaluationFailure,
    ResultStore,
    SyntheticSurfaceEvaluator,
    TableEvaluator,
    evaluate_batch,
    training_rows,
)
from subnetsearch.objectives import ObjectiveSpec, ObjectiveVector
from subnetsearch.predict import fit_ridge
from subnetsearch.space import (
    Genotype,
    canonical_ranks,
    canonicalize,
    encode_matrix,
    enumerate_genotypes,
    get_preset,
    sample_uniform,
)
from subnetsearch.util import subseed

from conftest import (
    CallableEvaluator,
    active_mask_loop,
    gene_rows,
    raises_exactly,
    row_hash_loop,
    validation_records,
)

MIN2 = (ObjectiveSpec("f1", "minimize"), ObjectiveSpec("f2", "minimize"))


def constant_evaluator(values=(1.0, 2.0), specs=MIN2, evaluator_id="const"):
    return CallableEvaluator(
        lambda g: ObjectiveVector(values, specs), evaluator_id=evaluator_id
    )


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


def test_store_appends_and_indexes(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    assert store.evaluator_id is None
    g = sample_uniform(toy_space, 1, 0)[0]
    assert store.append_batch([g.genes], [ObjectiveVector((1.0, 2.0), MIN2)], "e1") is None
    assert [r.sequence_number for r in store.records] == [0]
    assert store.evaluator_id == "e1"  # the first record fixes the log's evaluator
    # cached: no dispatch
    raw, _ = evaluate_batch(gene_rows([g]), constant_evaluator((5.0, 6.0), evaluator_id="e1"),
                            store)
    assert raw.tolist() == [[1.0, 2.0]] and len(store.records) == 1


def test_store_rejects_duplicate_validation(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    g = sample_uniform(toy_space, 1, 0)[0]
    store.append_batch(gene_rows([g]), [ObjectiveVector((1.0, 2.0), MIN2)], "e1")
    with pytest.raises(ConfigError):
        store.append_batch(gene_rows([g]), [ObjectiveVector((1.0, 2.0), MIN2)], "e1")
    # a log holds one run: another evaluator's measurement is refused, even of
    # a genotype the log has not measured
    for genes in (g.genes, sample_uniform(toy_space, 2, 1)[1].genes):
        with pytest.raises(ConfigError, match="a log holds one run"):
            store.append_batch([genes], [ObjectiveVector((1.0, 3.0), MIN2)], "e2")
    assert len(store.records) == 1 and store.evaluator_id == "e1"


def test_batch_refuses_another_evaluator_before_dispatch(tmp_path, toy_space):
    """A batch of another evaluator than the log's raises before that
    evaluator is called, in the store that wrote the log and in its load."""
    path = tmp_path / "evals.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = sample_uniform(toy_space, 3, 2)
    evaluate_batch(gene_rows(gs[:1]), constant_evaluator(evaluator_id="e1"), store)
    store.close()

    def never(g):
        raise AssertionError("dispatched to the other evaluator")

    for log in (store, ResultStore.load(path, space=toy_space)):
        with pytest.raises(ConfigError, match="evaluator 'e2' cannot add to the log of "
                                              "evaluator 'e1': a log holds one run"):
            evaluate_batch(gene_rows(gs), CallableEvaluator(never, "e2"), log)
        assert len(log.records) == 1


def test_store_replay_round_trip(tmp_path, toy_space):
    path = tmp_path / "evals.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = sample_uniform(toy_space, 5, 1)
    outs = [ObjectiveVector((float(i), 1.0), MIN2) for i in range(len(gs))]
    store.append_batch(gene_rows(gs), outs, "e1", gen=0)
    store.append_batch(gene_rows([gs[0]]), [EvaluationFailure("exploded")], "e1", gen=1)
    store.close()

    replayed = ResultStore.load(path, space=toy_space)
    assert len(replayed.records) == len(store.records)
    for a, b in zip(store.records, replayed.records):
        assert a.genotype.genes == b.genotype.genes
        assert a.sequence_number == b.sequence_number
        assert a.error == b.error
        if a.ok:
            assert a.objectives_raw.values == b.objectives_raw.values
    # the replayed cache answers every genotype as the store that wrote it
    ev = constant_evaluator(evaluator_id="e1")
    assert evaluate_batch(gene_rows(gs), ev, replayed)[0].tolist() == evaluate_batch(
        gene_rows(gs), ev, store)[0].tolist() == [[float(i), 1.0] for i in range(len(gs))]
    assert len(replayed.records) == len(store.records)  # nothing was dispatched


def mixed_log(path, toy_space):
    """A streamed log with a failure, a null gen and gene values the space
    forbids, one of them beyond 32 bits; returns its store."""
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = sample_uniform(toy_space, 4, 4)
    outside = Genotype((-1, 2**40) + gs[3].genes[2:])
    store.append_batch([gs[0].genes], [ObjectiveVector((1.5, -0.0), MIN2)], "e1", gen=0)
    store.append_batch(gene_rows([gs[2]]), [ObjectiveVector((2.5, 1e-300), MIN2)], "e1")
    store.append_batch(
        gene_rows([gs[1], gs[1]]),
        [EvaluationFailure("exploded"), ObjectiveVector((0.1, 0.2), MIN2)], "e1", gen=1,
    )
    store.append_batch([outside.genes], [ObjectiveVector((3.0, 4.0), MIN2)], "e1", gen=2)
    store.close()
    return store


def record_fields(rec):
    values = rec.objectives_raw.values if rec.ok else None
    return (rec.genotype.genes, values, rec.evaluator_id, rec.sequence_number, rec.gen,
            rec.error)


def test_store_load_keeps_every_column_and_dumps_the_same_bytes(tmp_path, toy_space):
    path = tmp_path / "evals.jsonl"
    store = mixed_log(path, toy_space)
    # the compact form the store writes, and the same documents with spaces
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("".join(
        json.dumps(json.loads(line)) + "\n" for line in path.read_text().splitlines()
    ))
    for log in (path, spaced):
        replayed = ResultStore.load(log, space=toy_space)
        assert list(map(record_fields, replayed.records)) == list(
            map(record_fields, store.records)
        )
        copy = tmp_path / "copy.jsonl"
        replayed.dump(copy)
        assert copy.read_bytes() == path.read_bytes()
        assert replayed.evaluator_id == "e1"
        seqs, genes, raw, gens = replayed.validation_columns()
        assert seqs.tolist() == [0, 1, 3, 4]
        assert gens.tolist() == [0, NO_GEN, 1, 2]
        assert genes[3].tolist()[:2] == [-1, 2**40]
        assert raw.tolist() == [[1.5, -0.0], [2.5, 1e-300], [0.1, 0.2], [3.0, 4.0]]
        raw, _ = evaluate_batch(gene_rows([store.records[3].genotype]),
                                constant_evaluator(evaluator_id="e1"), replayed)
        assert raw.tolist() == [[0.1, 0.2]] and len(replayed.records) == 5


def test_spaceless_load_keeps_the_space_name_and_dumps_the_same_bytes(tmp_path, toy_space):
    """A load without a space, as `analyze` makes, keeps the header's space
    name, so its dump is the streamed log byte for byte."""
    path = tmp_path / "evals.jsonl"
    mixed_log(path, toy_space)
    replayed = ResultStore.load(path)
    assert replayed.space is None and replayed.space_name == toy_space.name
    copy = tmp_path / "copy.jsonl"
    replayed.dump(copy)
    assert copy.read_bytes() == path.read_bytes()


def bad_log_lines(path, toy_space):
    """Header, two records, a blank line and a third record: the third
    record is on line 5."""
    store = ResultStore(MIN2, space=toy_space, path=path)
    for i, g in enumerate(sample_uniform(toy_space, 3, 6)):
        store.append_batch([g.genes], [ObjectiveVector((float(i), 1.0), MIN2)], "e1", gen=i)
    store.close()
    lines = path.read_text().splitlines(keepends=True)
    return lines[:3] + ["\n"] + lines[3:]


GENE_FAULT = r"gene values \[.*\] are not all integers within int64"


@pytest.mark.parametrize("edit, message", [
    (lambda doc, first: doc.update(gen="2"), "gen must be an integer or null"),
    (lambda doc, first: doc["genotype"].__setitem__(0, "x"), GENE_FAULT),
    (lambda doc, first: doc["genotype"].__setitem__(0, 2**70), GENE_FAULT),
    (lambda doc, first: doc["genotype"].__setitem__(0, 3.5), GENE_FAULT),
    (lambda doc, first: doc["genotype"].__setitem__(0, True), GENE_FAULT),
    (lambda doc, first: doc["genotype"].__setitem__(0, "3"), GENE_FAULT),
    (lambda doc, first: doc["genotype"].pop(), "genotype has 9 genes"),
    (lambda doc, first: doc["objectives_raw"].update(f2=math.inf), "non-finite objective"),
    (lambda doc, first: doc["objectives_raw"].update(f2="0.5"), "non-finite objective"),
    (lambda doc, first: doc["objectives_raw"].update(f2=True), "non-finite objective"),
    (lambda doc, first: doc.pop("evaluator_id"), "malformed record: KeyError"),
    (lambda doc, first: doc.update(type="evaluation"), "unknown record type"),
    (lambda doc, first: doc.update(genotype=first["genotype"]), "duplicate validation record"),
    (lambda doc, first: doc.update(seq=0), "seq 0 is not the record's position 2"),
    (lambda doc, first: doc.update(seq=2.0), "seq 2.0 is not the record's position 2"),
    (lambda doc, first: doc.pop("seq"), "malformed record: KeyError"),
    (lambda doc, first: doc.update(source="predicted"), "source 'predicted' is not 'validation'"),
    (lambda doc, first: doc.update(evaluator_id="e2"),
     "evaluator 'e2' cannot add to the log of evaluator 'e1': a log holds one run"),
    (lambda doc, first: doc.update(type="failure", error=None),
     "error must be a string, got None"),
], ids=["gen", "gene", "huge_gene", "float_gene", "bool_gene", "string_gene", "length",
        "non_finite", "string_objective", "bool_objective", "missing_field", "type",
        "duplicate", "seq", "float_seq", "missing_seq", "source", "evaluator", "error"])
def test_store_load_names_the_line_of_a_bad_record(tmp_path, toy_space, edit, message):
    """Each fault names its line; genes and objectives are JSON numbers as
    written, never coerced (a gene 3.5, true or "3" is not 3)."""
    path = tmp_path / "evals.jsonl"
    lines = bad_log_lines(path, toy_space)
    doc = json.loads(lines[4])
    edit(doc, json.loads(lines[1]))
    lines[4] = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"^{path}:5: {message}"):
        ResultStore.load(path, space=toy_space)


FAULTS = {
    "gene": (lambda doc, first: doc["genotype"].__setitem__(0, "x"), GENE_FAULT),
    "float_gene": (lambda doc, first: doc["genotype"].__setitem__(0, 3.0), GENE_FAULT),
    "bool_gene": (lambda doc, first: doc["genotype"].__setitem__(0, False), GENE_FAULT),
    "torn": (None, "malformed JSON"),
    "non_finite": (
        lambda doc, first: doc["objectives_raw"].update(f2=math.inf), "non-finite objective"),
    "duplicate": (
        lambda doc, first: doc.update(genotype=first["genotype"]), "duplicate validation record"),
}


@pytest.mark.parametrize("block", [2, 256])
@pytest.mark.parametrize("early, late", [
    (a, b) for a in FAULTS for b in FAULTS if a != b
])
def test_store_load_names_the_first_of_two_faulty_lines(
    tmp_path, toy_space, monkeypatch, early, late, block
):
    """Faults that the block writer finds (a gene that is not an integer, a
    duplicate) are still reported before a fault on a later line of the same
    block, and after one on an earlier line."""
    monkeypatch.setattr(evalmgr, "_BLOCK", block)
    path = tmp_path / "evals.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    for i, g in enumerate(sample_uniform(toy_space, 6, 6)):
        store.append_batch([g.genes], [ObjectiveVector((float(i), 1.0), MIN2)], "e1", gen=i)
    store.close()
    lines = path.read_text().splitlines(keepends=True)
    for lineno, kind in ((4, early), (6, late)):
        edit = FAULTS[kind][0]
        if edit is None:
            lines[lineno - 1] = lines[lineno - 1][:20] + "\n"
        else:
            doc = json.loads(lines[lineno - 1])
            edit(doc, json.loads(lines[1]))
            lines[lineno - 1] = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"^{path}:4: {FAULTS[early][1]}"):
        ResultStore.load(path, space=toy_space)


@pytest.mark.parametrize("evaluator_id", [None, 7, ["e1"]])
def test_store_load_refuses_an_evaluator_id_that_is_not_a_string(tmp_path, toy_space,
                                                                 evaluator_id):
    path = tmp_path / "evals.jsonl"
    lines = bad_log_lines(path, toy_space)
    doc = json.loads(lines[1])
    doc["evaluator_id"] = evaluator_id
    lines[1] = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"^{path}:2: evaluator_id .* is not a string$"):
        ResultStore.load(path, space=toy_space)


def test_store_load_refuses_a_seq_that_is_not_the_position(tmp_path, toy_space):
    """A log whose records all carry one seq fails at the first record whose
    seq is not its position, rather than loading with new numbers."""
    path = tmp_path / "evals.jsonl"
    lines = bad_log_lines(path, toy_space)
    lines = [lines[0]] + [
        line if not line.strip() else json.dumps({**json.loads(line), "seq": 7}) + "\n"
        for line in lines[1:]
    ]
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=f"^{path}:2: seq 7 is not the record's position 0"):
        ResultStore.load(path, space=toy_space)


def test_loaded_log_dispatches_none_of_its_genotypes(tmp_path, toy_space):
    """`load` builds the validation index as its duplicate check: a loaded
    log answers each of its own genotypes from the cache, and only its
    failed genotype is dispatched again."""
    path = tmp_path / "evals.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = list(enumerate_genotypes(toy_space))[:300]
    outs = [ObjectiveVector((float(i), 1.0), MIN2) for i in range(len(gs))]
    outs[5] = EvaluationFailure("exploded")
    store.append_batch(gene_rows(gs), outs, "e1", gen=0)
    store.close()
    loaded = ResultStore.load(path, space=toy_space)
    assert loaded._index == store._index
    dispatched = []
    ev = CallableEvaluator(lambda g: dispatched.append(g) or outs[0], "e1")
    raw, errors = evaluate_batch(gene_rows(gs), ev, loaded)
    assert dispatched == [gs[5]] and errors == []
    assert raw[:, 0].tolist() == [0.0 if i == 5 else float(i) for i in range(len(gs))]


@pytest.mark.parametrize("with_space", [True, False])
def test_loaded_log_continues_as_the_run_that_wrote_it(tmp_path, toy_space, with_space):
    """Replay, then continue: a log of 300 records (two blocks of the writer)
    that is loaded, with or without its space, and then given further
    batches through `evaluate_batch` dumps the bytes of one store that
    appended every batch. The later batches repeat cached genotypes and a
    failed one, which is measured again."""
    gs = list(enumerate_genotypes(toy_space))[:600]
    position = {g: i for i, g in enumerate(gs)}

    def fn(g):
        if position[g] % 97 == 0:
            raise RuntimeError(f"no measurement of genotype {position[g]}")
        return ObjectiveVector((float(position[g]), 1.0 / (1 + position[g])), MIN2)

    batches = [gs[:300], gs[300:450] + gs[:10], gs[450:]]
    whole = ResultStore(MIN2, space=toy_space, path=tmp_path / "whole.jsonl")
    first = ResultStore(MIN2, space=toy_space, path=tmp_path / "first.jsonl")
    for gen, batch in enumerate(batches):
        evaluate_batch(gene_rows(batch), CallableEvaluator(fn, "e1"), whole, gen)
    evaluate_batch(gene_rows(batches[0]), CallableEvaluator(fn, "e1"), first, 0)
    whole.close()
    first.close()
    resumed = ResultStore.load(tmp_path / "first.jsonl", space=toy_space if with_space else None)
    for gen, batch in enumerate(batches[1:], 1):
        evaluate_batch(gene_rows(batch), CallableEvaluator(fn, "e1"), resumed, gen)
    resumed.dump(tmp_path / "resumed.jsonl")
    assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
    assert len(resumed.records) == 600 + 1  # genotype 0 failed twice


def test_spaceless_load_measures_genotypes_against_the_first_record(tmp_path, toy_space):
    path = tmp_path / "evals.jsonl"
    lines = bad_log_lines(path, toy_space)
    doc = json.loads(lines[4])
    doc["genotype"].pop()
    lines[4] = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    message = "genotype has 9 genes, the log's genotypes have 10"
    with pytest.raises(ConfigError, match=f"^{path}:5: {message}"):
        ResultStore.load(path)


def test_store_dump_equals_streamed_log(tmp_path, toy_space):
    """Batches that mix successes and failures stream the bytes `dump`
    writes, and each batch's lines are on disk when its append returns."""
    path = tmp_path / "a.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = sample_uniform(toy_space, 6, 2)
    batches = [
        (gs[:3], [ObjectiveVector((0.0, 0.0), MIN2), EvaluationFailure('say "boom"\n'),
                  ObjectiveVector((2.0, -0.0), MIN2)], 0),
        ([gs[1], *gs[3:]], [ObjectiveVector((1.0, 1e-300), MIN2), EvaluationFailure("x"),
                            ObjectiveVector((3.5, 4.25), MIN2), EvaluationFailure("y")], None),
    ]
    dumped = tmp_path / "b.jsonl"
    lines = 1
    for genotypes, outs, gen in batches:
        store.append_batch(gene_rows(genotypes), outs, "e1", gen=gen)
        lines += len(outs)
        on_disk = path.read_bytes()
        assert on_disk.count(b"\n") == lines
        store.dump(dumped)
        assert on_disk == dumped.read_bytes()
    store.close()
    assert path.read_bytes() == dumped.read_bytes()
    assert [r.ok for r in ResultStore.load(path, space=toy_space).records] == [
        True, False, True, True, False, True, False]


TEXT = st.text(st.characters(), max_size=6)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(TEXT, min_size=1, max_size=3, unique=True),
    evaluator_id=TEXT,
    records=st.lists(
        st.tuples(st.lists(st.integers(-2**63 + 1, 2**63 - 1), min_size=3, max_size=3),
                  st.one_of(TEXT, st.none()), FLOATS),
        max_size=16, unique_by=lambda record: tuple(record[0]),
    ),
    batches=st.lists(st.tuples(st.integers(1, 4), st.one_of(
        st.none(), st.integers(-2**63 + 1, 2**63 - 1))), max_size=4),
)
def test_store_lines_are_json_dumps_of_each_record(tmp_path_factory, names, evaluator_id,
                                                   records, batches):
    """The formatted log lines equal `json.dumps` of each record's document,
    for any strings, integers in int64 range and finite floats."""
    specs = tuple(ObjectiveSpec(name, "minimize") for name in names)
    store = ResultStore(specs)
    expected = [{"type": "run", "space": "", "objectives": [
        {"name": s.name, "direction": s.direction, "unit": s.unit} for s in specs]}]
    for size, gen in batches:
        rows, records = records[:size], records[size:]
        genotypes, outs = [], []
        for genes, error, value in rows:
            doc = {"type": "eval" if error is None else "failure", "seq": len(expected) - 1,
                   "gen": gen, "genotype": genes}
            if error is None:
                values = tuple(value + k for k in range(len(specs)))
                outs.append(ObjectiveVector(values, specs))
                doc.update(objectives_raw=dict(zip(names, values)), source="validation")
            else:
                outs.append(EvaluationFailure(error))
                doc.update(error=error)
            doc.update(evaluator_id=evaluator_id)
            expected.append(doc)
            genotypes.append(Genotype(tuple(genes)))
        store.append_batch(gene_rows(genotypes), outs, evaluator_id, gen=gen)
    path = tmp_path_factory.mktemp("log") / "evals.jsonl"
    store.dump(path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        json.dumps(doc, separators=(",", ":")) for doc in expected]


def test_store_rejects_a_faulty_batch_whole(tmp_path, toy_space):
    path = tmp_path / "evals.jsonl"
    store = ResultStore(MIN2, space=toy_space, path=path)
    gs = sample_uniform(toy_space, 3, 8)
    ok = ObjectiveVector((1.0, 2.0), MIN2)
    store.append_batch(gene_rows(gs[:1]), [ok], "e1")
    # a genotype twice in the batch, or already cached, or of another length
    for batch, error in (
        ([gs[1], gs[1]], ConfigError),
        ([gs[2], gs[0]], ConfigError),
        ([gs[2], Genotype(gs[2].genes[:-1])], InvalidGenotype),
    ):
        with pytest.raises(error):
            store.append_batch([g.genes for g in batch], [ok, ok], "e1")
    with raises_exactly(EvaluatorError, "^1 evaluator outputs for 2 genotypes$"):
        store.append_batch(gene_rows(gs[1:]), [ok], "e1")
    # a failure and a success of one genotype are not duplicates
    store.append_batch(gene_rows([gs[1], gs[1]]), [EvaluationFailure("x"), ok], "e1")
    with pytest.raises(ConfigError, match="a log holds one run"):  # another evaluator's
        store.append_batch(gene_rows(gs[2:]), [ok], "e2")
    assert [r.sequence_number for r in store.records] == [0, 1, 2]
    assert store.validation_columns()[0].tolist() == [0, 2]
    store.close()
    assert len(path.read_text().splitlines()) == 4
    with pytest.raises(ValueError, match="closed"):
        store.append_batch(gene_rows(gs[2:]), [ok], "e1")


def test_store_concurrent_appends_keep_total_order(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    gs = list(enumerate_genotypes(toy_space))[:64]

    def worker(chunk):
        for g in chunk:
            store.append_batch(gene_rows([g]), [ObjectiveVector((0.0, 0.0), MIN2)], "e1")

    threads = [threading.Thread(target=worker, args=(gs[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [r.sequence_number for r in store.records]
    assert seqs == list(range(64))


# ---------------------------------------------------------------------------
# evaluate_batch
# ---------------------------------------------------------------------------


def test_batch_caches_within_and_across_batches(toy_space):
    calls = []

    def fn(g):
        calls.append(g.genes)
        return ObjectiveVector((1.0, 2.0), MIN2)

    ev = CallableEvaluator(fn, evaluator_id="count")
    store = ResultStore(MIN2, space=toy_space)
    g = sample_uniform(toy_space, 1, 0)[0]
    raw, errors = evaluate_batch(gene_rows([g, g]), ev, store)
    assert len(calls) == 1 and len(store.records) == 1
    assert raw.tolist() == [[1.0, 2.0]] * 2 and errors == []
    raw2, _ = evaluate_batch(gene_rows([g]), ev, store)
    assert len(calls) == 1 and len(store.records) == 1  # cache hit, no dispatch
    assert raw2.tolist() == [[1.0, 2.0]]


def test_batch_preserves_input_order(toy_space):
    ev = CallableEvaluator(
        lambda g: ObjectiveVector((float(sum(g.genes)), 0.0), MIN2), evaluator_id="sum"
    )
    store = ResultStore(MIN2, space=toy_space)
    gs = sample_uniform(toy_space, 10, 4)
    raw, _ = evaluate_batch(gene_rows(gs), ev, store)
    assert raw[:, 0].tolist() == [float(sum(g.genes)) for g in gs]
    assert [r.genotype for r in store.records] == gs


def test_batch_empty_returns_empty(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    raw, errors = evaluate_batch(np.zeros((0, toy_space.genome_length), np.int64),
                                 constant_evaluator(), store)
    assert raw.shape == (0, 2) and errors == [] and not store.records


def test_batch_rejects_non_canonical(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    g = sample_uniform(toy_space, 1, 0)[0]
    genes = list(g.genes)
    # force an inactive slot away from its canonical value
    b = toy_space.blocks[0]
    genes[b.depth_gene_index] = 1
    last_slot = b.governed_gene_indices[-1]
    genes[last_slot] = toy_space.allowed[last_slot][-1]
    bad = Genotype(tuple(genes))
    if canonicalize(bad, toy_space).genes != bad.genes:
        with raises_exactly(SubnetSearchError, "is not canonical$"):
            evaluate_batch(gene_rows([bad]), constant_evaluator(), store)


def test_batch_failures_flagged_not_cached(toy_space):
    attempts = {"n": 0}

    def fn(g):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("flaky")
        return ObjectiveVector((1.0, 1.0), MIN2)

    ev = CallableEvaluator(fn, evaluator_id="flaky")
    store = ResultStore(MIN2, space=toy_space)
    g = sample_uniform(toy_space, 1, 0)[0]
    raw, errors = evaluate_batch(gene_rows([g]), ev, store)
    assert np.isnan(raw).all() and len(errors) == 1 and "flaky" in errors[0]
    assert not store.validation_columns()[0].size  # failures are not cached
    raw, errors = evaluate_batch(gene_rows([g]), ev, store)  # retry succeeds
    assert raw.tolist() == [[1.0, 1.0]] and errors == [] and attempts["n"] == 2


def test_batch_mixed_failure_keeps_successes(toy_space):
    def fn(g):
        if g.genes[0] == 1:
            raise RuntimeError("no depth-1 allowed")
        return ObjectiveVector((1.0, 1.0), MIN2)

    ev = CallableEvaluator(fn, evaluator_id="picky")
    store = ResultStore(MIN2, space=toy_space)
    gs = list({g.genes: g for g in sample_uniform(toy_space, 30, 7)}.values())
    raw, errors = evaluate_batch(gene_rows(gs), ev, store)
    failed = np.isnan(raw).all(axis=1)
    assert failed.any() and not failed.all() and np.isfinite(raw[~failed]).all()
    assert failed.tolist() == [g.genes[0] == 1 for g in gs]
    assert errors == ["no depth-1 allowed"] * int(failed.sum())
    assert len(validation_records(store)) == int((~failed).sum())


# ---------------------------------------------------------------------------
# synthetic surfaces
# ---------------------------------------------------------------------------


def score(ev, genotypes):
    """The objective tuples `ev` gives a batch of genotypes."""
    return [v.values for v in ev.evaluate(genotypes)]


def test_surface_pure_and_deterministic(toy_space):
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like", noise_scale=0.01)
    g = sample_uniform(toy_space, 1, 0)[0]
    first = score(surface, [g])
    for _ in range(200):
        assert score(surface, [g]) == first


def test_surface_closed_form_at_all_minimum_genotype(toy_space):
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    g_min = Genotype(tuple(vals[0] for vals in toy_space.allowed))
    g_min = canonicalize(g_min, toy_space)
    (vec,) = surface.evaluate([g_min])
    # all ordinal features are zero: accuracy = max - span, latency = base +
    # sum of costs over active genes + interactions among active pairs
    assert vec.values[0] == pytest.approx(ACCURACY_MAX - ACCURACY_SPAN)
    mask = active_mask_loop(g_min, toy_space)
    lat = LATENCY_BASE + sum(
        c for c, m in zip(surface.costs, mask) if m
    )
    lat += sum(w for p, q, w in surface.interactions if mask[p] and mask[q])
    assert vec.values[1] == pytest.approx(lat)


def synthetic_evaluate_loop(g, surface):
    """The gene-by-gene oracle of `SyntheticSurfaceEvaluator.evaluate`:
    ordinal features and the activity mask one gene at a time, and each
    objective a plain Python sum in position order; the noise of each
    objective is the top 53 bits of the Python loop of `row_hash` over the
    genes, under the objective's sub-seed, over 2**53, minus 0.5."""
    space = surface.space
    feats = [
        space.value_rank(pos, v) / max(len(vals) - 1, 1)
        for pos, (v, vals) in enumerate(zip(g.genes, space.allowed))
    ]
    total = 0.0
    for w, f in zip(surface.weights.tolist(), feats):
        total += w * f
    acc = ACCURACY_MAX - ACCURACY_SPAN * math.exp(-total / surface.temperature)
    mask = active_mask_loop(g, space)
    lat = LATENCY_BASE
    for pos, active in enumerate(mask):
        if active:
            lat += float(surface.costs[pos]) * (1.0 + feats[pos])
    for p, q, w in surface.interactions:
        if mask[p] and mask[q]:
            lat += w * (1.0 + feats[p]) * (1.0 + feats[q])
    if surface.noise_scale > 0:
        acc += noise_loop(g.genes, surface.noise_seed, "top1") * surface.noise_scale
        lat += noise_loop(g.genes, surface.noise_seed, "latency_ms") * surface.noise_scale
    return (acc, lat)


def noise_loop(genes, noise_seed, name):
    return (row_hash_loop(genes, subseed(noise_seed, name)) >> 11) / 2**53 - 0.5


@pytest.mark.parametrize("preset", ["clx-like", "v100-like"])
@pytest.mark.parametrize(
    "space_name", ["toy", "mobilenetv3-like", "resnet50-like", "transformer-like"]
)
def test_surface_matches_per_gene_loop_oracle(toy_space, space_name, preset):
    """Both objectives have the oracle's bits, for every genotype of the toy
    space and for 300 uniform rows of each preset space, scored as one batch."""
    if space_name == "toy":
        space, gs = toy_space, list(enumerate_genotypes(toy_space))
    else:
        space = get_preset(space_name)
        gs = sample_uniform(space, 300, seed=17)
    for noise_scale in (0.0, 0.05):
        surface = SyntheticSurfaceEvaluator(space, preset, noise_scale=noise_scale, noise_seed=3)
        assert score(surface, gs) == [synthetic_evaluate_loop(g, surface) for g in gs]


@pytest.mark.parametrize("space_name", ["mobilenetv3-like", "transformer-like"])
def test_surface_values_do_not_depend_on_the_batch(space_name):
    """A batch's values are those of each of its rows scored alone, and
    those of the batch reversed."""
    space = get_preset(space_name)
    gs = sample_uniform(space, 100, seed=5)
    surface = SyntheticSurfaceEvaluator(space, "v100-like", noise_scale=0.05, noise_seed=1)
    batch = score(surface, gs)
    assert batch == [score(surface, [g])[0] for g in gs]
    assert batch == score(surface, gs[::-1])[::-1]


def test_surface_latency_monotone_in_depth(toy_space):
    """Exhaustive: raising any depth gene never lowers latency."""
    gs = list(enumerate_genotypes(toy_space))
    latency = {g.genes: values[1] for g, values in zip(gs, score(
        SyntheticSurfaceEvaluator(toy_space, "clx-like"), gs))}
    for g in gs:
        base = latency[g.genes]
        for b in toy_space.blocks:
            vals = toy_space.allowed[b.depth_gene_index]
            cur = g.genes[b.depth_gene_index]
            for v in vals:
                if v <= cur:
                    continue
                genes = list(g.genes)
                genes[b.depth_gene_index] = v
                deeper = canonicalize(Genotype(tuple(genes)), toy_space)
                assert latency[deeper.genes] >= base - 1e-12


def test_surface_presets_differ_in_latency_only(toy_space):
    clx = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    v100 = SyntheticSurfaceEvaluator(toy_space, "v100-like")
    g = sample_uniform(toy_space, 1, 1)[0]
    (a,) = score(clx, [g])
    (b,) = score(v100, [g])
    assert a[0] == b[0]  # quality is hardware-independent
    assert a[1] != b[1]


def test_surface_rejects_non_canonical(toy_space):
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    g = sample_uniform(toy_space, 1, 0)[0]
    genes = list(g.genes)
    b = toy_space.blocks[0]
    genes[b.depth_gene_index] = 1
    slot = b.governed_gene_indices[-1]
    genes[slot] = toy_space.allowed[slot][-1]
    bad = Genotype(tuple(genes))
    if canonicalize(bad, toy_space).genes != bad.genes:
        with raises_exactly(SubnetSearchError, "is not canonical$"):
            surface.evaluate([bad])


def test_surface_unknown_preset(toy_space):
    with pytest.raises(ConfigError):
        SyntheticSurfaceEvaluator(toy_space, "tpu-like")


# ---------------------------------------------------------------------------
# table evaluator
# ---------------------------------------------------------------------------


def test_table_evaluator_lookup_and_missing(tmp_path, tiny_space):
    gs = sample_uniform(tiny_space, 3, 0)
    doc = {
        "objectives": [
            {"name": "top1", "direction": "maximize", "unit": ""},
            {"name": "latency_ms", "direction": "minimize", "unit": "ms"},
        ],
        "entries": [
            {"genes": list(g.genes), "objectives": {"top1": 0.5 + i / 10, "latency_ms": 10.0 + i}}
            for i, g in enumerate(gs[:2])
        ],
    }
    path = tmp_path / "lut.json"
    path.write_text(json.dumps(doc))
    ev = TableEvaluator(path)
    outs = ev.evaluate(gs)
    assert outs[0].values == (0.5, 10.0)
    assert isinstance(outs[2], EvaluationFailure)


# ---------------------------------------------------------------------------
# training_rows
# ---------------------------------------------------------------------------


def test_training_set_skips_failures(toy_space):
    store = ResultStore(MIN2, space=toy_space)
    gs = sample_uniform(toy_space, 5, 6)
    store.append_batch(
        gene_rows(gs[:3]), [ObjectiveVector((float(i), 0.0), MIN2) for i in range(3)], "e1"
    )
    store.append_batch(gene_rows(gs[3:]), [EvaluationFailure("exploded")] * 2, "e1")
    X, raw = training_rows(store, "one_hot")
    assert X.shape[0] == 3
    assert raw[:, 0].tolist() == [0.0, 1.0, 2.0]
    ranks = canonical_ranks(gs[:3], toy_space)[0]
    assert np.allclose(X, encode_matrix(ranks, toy_space, "one_hot"))


def training_set_by_records(store, objective, scheme):
    """Features and one objective's targets from validation records: the
    oracle for the columnar training rows."""
    recs = validation_records(store)
    ranks = canonical_ranks([r.genotype for r in recs], store.space)[0]
    k = [s.name for s in store.specs].index(objective)
    y = np.array([r.objectives_raw.values[k] for r in recs])
    return encode_matrix(ranks, store.space, scheme), y


def test_training_rows_match_records(toy_space):
    """A log with a failure, a genotype measured after it failed, and
    distinct genotypes with equal objectives: the same rows, targets and
    ridge coefficients (fitted on a contiguous target column, as the search
    loop fits them), bit for bit, as from the records."""
    store = ResultStore(MIN2, space=toy_space)
    gs = sample_uniform(toy_space, 8, 11)
    vec = [ObjectiveVector((0.1 * i, 1.0 / (i + 1)), MIN2) for i in range(8)]
    store.append_batch(gene_rows(gs[:3]), vec[:2] + [EvaluationFailure("exploded")], "e1")
    store.append_batch(gene_rows(gs[3:7]), vec[3:7], "e1", gen=1)
    store.append_batch(gene_rows([gs[2], gs[7]]), [vec[2], vec[3]], "e1", gen=2)
    for scheme in ("one_hot", "ordinal_normalized"):
        X, raw = training_rows(store, scheme)
        for k, spec in enumerate(MIN2):
            want_X, want_y = training_set_by_records(store, spec.name, scheme)
            y = np.ascontiguousarray(raw[:, k])
            assert X.tobytes() == want_X.tobytes()
            assert y.tolist() == want_y.tolist()
            got, want = fit_ridge(X, y, 1.0), fit_ridge(want_X, want_y, 1.0)
            assert (got.weights.tobytes(), got.bias) == (want.weights.tobytes(), want.bias)


def test_training_rows_need_records_and_a_space(toy_space):
    with raises_exactly(SubnetSearchError, "^no validation records to train from$"):
        training_rows(ResultStore(MIN2, space=toy_space), "one_hot")
    with pytest.raises(ConfigError, match="no search space"):
        training_rows(ResultStore(MIN2), "one_hot")
