"""External-evaluator wire protocol conformance against a scripted double."""

import json
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from subnetsearch.errors import EvaluatorError
from subnetsearch.evalmgr import (
    EvaluationFailure,
    ExternalEvaluator,
    ResultStore,
    evaluate_batch,
)
from subnetsearch.objectives import ObjectiveSpec
from subnetsearch.space import Genotype, sample_uniform

from conftest import gene_rows, raises_exactly

DOUBLE = Path(__file__).parent / "doubles" / "scripted_evaluator.py"
SPECS = (
    ObjectiveSpec("top1", "maximize", "fraction"),
    ObjectiveSpec("latency_ms", "minimize", "ms"),
)


def make_evaluator(mode, record_path=None, timeout=10.0):
    cmd = [sys.executable, str(DOUBLE), mode]
    if record_path is not None:
        cmd.append(f"record={record_path}")
    return ExternalEvaluator(cmd, SPECS, space_name="toy", timeout=timeout)


def test_handshake_and_fixed_results(toy_space):
    gs = sample_uniform(toy_space, 3, 0)
    with closing(make_evaluator("echo")) as ev:
        outs = ev.evaluate(gs)
    assert all(out.values == (1.0, 2.0) for out in outs)


def test_request_and_handshake_bytes_match_documented_format(tmp_path, toy_space):
    """Byte-level conformance of hello/eval/bye lines."""
    record = tmp_path / "wire.log"
    g = Genotype(tuple(vals[0] for vals in toy_space.allowed))
    from subnetsearch.space import canonicalize

    g = canonicalize(g, toy_space)
    with closing(make_evaluator("echo", record_path=record)) as ev:
        ev.evaluate([g])
    lines = record.read_bytes().splitlines()
    genes_json = json.dumps(list(g.genes), separators=(",", ":")).encode()
    assert lines[0] == (
        b'{"type":"hello","objectives":["top1","latency_ms"],"space":"toy"}'
    )
    assert lines[1] == b'{"type":"eval","id":1,"genes":' + genes_json + b"}"
    assert lines[2] == b'{"type":"bye"}'


def test_out_of_order_responses_reassociated(toy_space):
    gs = sample_uniform(toy_space, 6, 1)  # answered in pairwise-reversed order
    with closing(make_evaluator("shuffle")) as ev:
        outs = ev.evaluate(gs)
    for g, out in zip(gs, outs):
        assert out.values[0] == float(sum(g.genes))  # matched by id, not order
        assert out.values[1] == float(sum(g.genes) + 1)


def test_per_item_errors_flagged(toy_space):
    gs = sample_uniform(toy_space, 4, 2)
    with closing(make_evaluator("error-even")) as ev:
        outs = ev.evaluate(gs)  # ids 1..4 -> 2 and 4 fail
    failures = [o for o in outs if isinstance(o, EvaluationFailure)]
    assert len(failures) == 2
    assert all("boom" in f.message for f in failures)


def test_crash_mid_batch_fails_remaining_persists_rest(toy_space):
    gs = sample_uniform(toy_space, 6, 3)
    store = ResultStore(SPECS, space=toy_space)
    ev = make_evaluator("crash-after=2")
    raw, errors = evaluate_batch(gene_rows(gs), ev, store)
    failed = np.isnan(raw).all(axis=1)
    assert failed.tolist() == [False] * 2 + [True] * 4
    assert len(errors) == 4 and all("exited" in e for e in errors)
    assert len(store.validation_columns()[0]) == 2  # completed ones persisted


def _released(proc) -> bool:
    return proc.stdin.closed and proc.stdout.closed and proc.returncode is not None


def test_close_releases_pipes_and_reaps_child(toy_space):
    ev = make_evaluator("echo")
    ev.evaluate(sample_uniform(toy_space, 1, 0))
    proc = ev._proc
    ev.close()
    assert _released(proc)
    assert proc.returncode == 0


def test_close_kills_and_reaps_a_child_that_outstays_bye(toy_space, monkeypatch):
    ev = make_evaluator("echo")
    ev.start()
    proc = ev._proc
    real_wait = proc.wait

    def wait(timeout=None):
        if timeout is not None:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        return real_wait()

    monkeypatch.setattr(proc, "wait", wait)
    ev.close()
    assert _released(proc)


def test_crash_mid_batch_releases_the_dead_child(toy_space):
    ev = make_evaluator("crash-after=1")
    ev.start()
    proc = ev._proc
    outs = ev.evaluate(sample_uniform(toy_space, 3, 3))
    assert isinstance(outs[-1], EvaluationFailure)
    assert _released(proc)


@pytest.fixture
def children(monkeypatch):
    """The evaluator children started during a test, in order."""
    started = []

    class Popen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Popen)
    return started


def test_bad_handshake_raises_protocol_error(toy_space, children):
    ev = make_evaluator("bad-handshake")
    with raises_exactly(EvaluatorError, "^expected ready, got 'nope'$"):
        ev.start()
    assert _released(children[0])  # the failed start reaped it


def test_no_handshake_process_exit(toy_space, children):
    ev = make_evaluator("no-handshake")
    with raises_exactly(EvaluatorError, "^evaluator exited before handshake$"):
        ev.start()
    assert _released(children[0])


def test_handshake_timeout_reaps_the_child(children):
    ev = make_evaluator("mute", timeout=0.5)
    with raises_exactly(EvaluatorError, "^no evaluator response within 0.5 s$"):
        ev.start()
    assert _released(children[0])
    assert children[0].returncode == 0  # it read the bye


def test_malformed_response_raises_evaluator_error(toy_space):
    gs = sample_uniform(toy_space, 2, 4)
    ev = make_evaluator("malformed")
    with raises_exactly(EvaluatorError, "^malformed response: Expecting value: line 1"):
        ev.evaluate(gs)
    ev.close()


WRONG_SHAPES = {  # a reply line -> its error message
    "[1]": "^malformed response: not a JSON object$",
    '{"type":"result","id":1,"objectives":"top1 latency_ms"}':
        "^result objectives are not a JSON object$",
}


@pytest.mark.parametrize("line", list(WRONG_SHAPES))
def test_response_of_the_wrong_shape_raises_protocol_error(toy_space, line):
    ev = make_evaluator(f"reply={line}")
    with raises_exactly(EvaluatorError, WRONG_SHAPES[line]):
        ev.evaluate(sample_uniform(toy_space, 1, 4))
    ev.close()


def test_timeout_raises_evaluation_timeout(toy_space):
    gs = sample_uniform(toy_space, 2, 5)
    ev = make_evaluator("stall", timeout=0.5)
    with raises_exactly(EvaluatorError, "^no evaluator response within 0.5 s$"):
        ev.evaluate(gs)
    ev.close()


def test_missing_objective_name_raises_evaluator_error(toy_space):
    gs = sample_uniform(toy_space, 1, 6)
    ev = make_evaluator("omit-last")
    with raises_exactly(EvaluatorError, r"^response missing objectives \['latency_ms'\]$"):
        ev.evaluate(gs)
    ev.close()


def test_evaluate_batch_over_external_evaluator(toy_space):
    gs = sample_uniform(toy_space, 4, 7)
    store = ResultStore(SPECS, space=toy_space)
    with closing(make_evaluator("genes-sum")) as ev:
        raw, errors = evaluate_batch(gene_rows(gs), ev, store)
        # cache hit: second batch with same genotypes sends nothing new
        raw2, _ = evaluate_batch(gene_rows(gs), ev, store)
    assert errors == [] and np.isfinite(raw).all()
    assert raw2.tolist() == raw.tolist() and len(store.records) == len(gs)
