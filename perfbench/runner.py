"""Runs one `subnetsearch` CLI command in this process and records where its
time went, from outside the program.

    python3 perfbench/runner.py <src dir> <report.json> <plain|trace> <cli args...>

Both modes time the evaluator at its `evaluate` boundary (busy intervals,
genotypes dispatched, failures, repeats) and note when the first call into
engine work happens. `trace` mode also wraps the public functions of every
layer where their callers look them up and records a span per call: name,
parent, start and end on the monotonic clock that the parent process shares.
Spans stay in memory; the report holds their per-layer totals.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

clock = time.monotonic

# (module whose global is replaced, attribute, span name). Every module that
# looks a function up by name gets its own entry, so internal calls are seen.
FUNCTION_SITES = [
    ("cli", "main", "cli.main"),
    ("cli", "concurrent_search", "driver.search"),
    ("cli", "full_search", "driver.search"),
    ("driver", "pareto_front", "objectives.pareto_front"),
    ("cli", "pareto_front", "objectives.pareto_front"),
    ("driver", "hypervolume_trace", "driver.hypervolume_trace"),
    ("driver", "select_best", "evolver.select_best"),
    ("evolver", "select_best", "evolver.select_best"),
    ("evolver", "non_dominated_sort", "evolver.non_dominated_sort"),
    ("driver", "evolve", "evolver.evolve"),
    ("evolver", "canonicalize", "space.canonicalize"),
    ("space", "canonicalize", "space.canonicalize"),
    ("evalmgr", "is_canonical", "space.is_canonical"),
    ("space", "is_canonical", "space.is_canonical"),
    ("driver", "encode_matrix", "space.encode_matrix"),
    ("evalmgr", "encode_matrix", "space.encode_matrix"),
    ("driver", "fit_ridge", "predict.fit_ridge"),
    ("driver", "predict", "predict.predict"),
    ("driver", "evaluate_batch", "evalmgr.evaluate_batch"),
    ("cli", "evaluate_batch", "evalmgr.evaluate_batch"),
    ("cli", "history_features", "popdb.history_features"),
    ("cli", "hdbscan", "popdb.hdbscan"),
    ("cli", "elastic_frequencies", "popdb.elastic_frequencies"),
    ("cli", "build_constraints", "popdb.build_constraints"),
    ("cli", "constrain_space", "popdb.constrain_space"),
]

# (module, class, method, span name); methods are replaced on the class.
METHOD_SITES = [
    ("evalmgr", "ResultStore", "dump", "evalmgr.store_dump"),
    ("driver", "SearchReport", "export", "driver.export"),
]

EVALUATOR_CLASSES = ("SyntheticSurfaceEvaluator", "ExternalEvaluator")


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# What each span counts, from its arguments and result.
COUNTERS = {
    "objectives.pareto_front": lambda a, k, r: {"records": _size(a[0])},
    "evolver.select_best": lambda a, k, r: {"pool": _size(a[0])},
    "space.encode_matrix": lambda a, k, r: {"rows": _size(a[0])},
    "predict.predict": lambda a, k, r: {"rows": int(r.shape[0])},
    "evalmgr.evaluate_batch": lambda a, k, r: {"genotypes": _size(a[0])},
    "evalmgr.store_dump": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "evalmgr.store_load": lambda a, k, r: {"records": len(r.records)},
    "popdb.hdbscan": lambda a, k, r: {
        "points": len(r.labels),
        "clusters": r.n_clusters,
        "noise": sum(1 for label in r.labels if label < 0),
    },
    "evolver.evolve": lambda a, k, r: {
        "generated": a[1].generations * a[1].population_size,
        "fresh": sum(1 for e in r.evaluations if e.gen >= 1),
        "duplicate_accepts": r.duplicate_accepts,
    },
    "driver.search": lambda a, k, r: {"phased_s": sum(r.phase_seconds.values())},
}


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.entry_t: float | None = None
        self.inputs_t: float | None = None  # last measurement in hand
        self.handshake_s = 0.0
        self.external: list = []  # started external evaluators
        self.batches: list[tuple[float, float, int]] = []
        self.dispatched: set[tuple[str, tuple[int, ...]]] = set()
        self.redispatched = 0
        self.failed = 0
        # span: [name, parent index, start, end, counters]
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[2] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = clock()
            self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[4] = counter(args, kwargs, result)
        return result

    def timed(self, name, fn, args, kwargs):
        """A span when tracing, a plain call otherwise."""
        if self.tracing:
            return self.call(name, fn, args, kwargs)
        return fn(*args, **kwargs)

    def entered(self) -> None:
        if self.entry_t is None:
            self.entry_t = clock()

    # -- wrappers --------------------------------------------------------------

    def span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def entry_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.entered()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def evaluator_wrapper(self, fn, failure_type):
        def evaluate(ev, genotypes):
            t0 = clock()
            outs = self.timed("evalmgr.evaluator", fn, (ev, genotypes), {})
            self.inputs_t = clock()
            self.batches.append((t0, self.inputs_t, len(genotypes)))
            for g, out in zip(genotypes, outs):
                key = (ev.evaluator_id, g.genes)
                if key in self.dispatched:
                    self.redispatched += 1
                self.dispatched.add(key)
                if isinstance(out, failure_type):
                    self.failed += 1
            return outs

        evaluate.__wrapped__ = fn
        return evaluate

    def start_wrapper(self, fn):
        def start(ev):
            if ev not in self.external:
                self.external.append(ev)
            t0 = clock()
            try:
                return fn(ev)
            finally:
                self.handshake_s += clock() - t0

        start.__wrapped__ = fn
        return start

    # -- report -----------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, seconds, self seconds, summed and maximum
        counters."""
        child_s = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _parent, t0, t1, counters) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[i]
            for key, value in (counters or {}).items():
                agg[key] = agg.get(key, 0) + value
                agg["max_" + key] = max(agg.get("max_" + key, 0), value)
        return out

    def top_spans(self) -> list:
        """Spans directly under cli.main or under the search call, which
        together tile the command's run."""
        roots = {
            i for i, s in enumerate(self.spans) if s[0] in ("cli.main", "driver.search")
        }
        return [
            [s[0], s[2], s[3]]
            for s in self.spans
            if s[1] in roots and s[0] != "driver.search"
        ]


def _module(package: str, name: str):
    # import_module, not attribute access: the package re-exports a function
    # named `predict` that shadows the submodule of the same name
    return importlib.import_module(f"{package}.{name}")


def _replace(module, attr: str, make):
    original = getattr(module, attr, None)
    if not callable(original):
        raise SystemExit(
            f"perfbench: {module.__name__}.{attr} is missing; update the trace sites"
        )
    setattr(module, attr, make(original))


def install(rec: Recorder, package: str) -> None:
    evalmgr = _module(package, "evalmgr")
    failure_type = evalmgr.EvaluationFailure
    for cls_name in EVALUATOR_CLASSES:
        cls = getattr(evalmgr, cls_name)
        _replace(cls, "evaluate", lambda fn: rec.evaluator_wrapper(fn, failure_type))
    _replace(evalmgr.ExternalEvaluator, "start", rec.start_wrapper)

    if rec.tracing:
        for mod_name, attr, name in FUNCTION_SITES:
            _replace(_module(package, mod_name), attr,
                     lambda fn, name=name: rec.span_wrapper(name, fn))
        for mod_name, cls_name, method, name in METHOD_SITES:
            cls = getattr(_module(package, mod_name), cls_name)
            _replace(cls, method, lambda fn, name=name: rec.span_wrapper(name, fn))

    # entry into engine work: the search tactic, or the history load for popdb
    cli = _module(package, "cli")
    for attr in ("concurrent_search", "full_search"):
        _replace(cli, attr, rec.entry_wrapper)
    load = evalmgr.ResultStore.load  # bound to the class

    def load_history(cls, *args, **kwargs):
        rec.entered()
        store = rec.timed("evalmgr.store_load", load, args, kwargs)
        rec.inputs_t = clock()
        return store

    evalmgr.ResultStore.load = classmethod(load_history)


def main() -> int:
    src, report_path, mode, *argv = sys.argv[1:]
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    cli = importlib.import_module("subnetsearch.cli")
    if src_dir not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: subnetsearch imported from {cli.__file__}, not {src_dir}",
              file=sys.stderr)
        return 3
    rec = Recorder(tracing=mode == "trace")
    install(rec, "subnetsearch")
    rc = cli.main(argv)
    end_t = clock()
    # the CLI leaves external evaluators running; stop them and wait
    for ev in rec.external:
        ev.close()
    report = {
        "rc": rc,
        "entry_t": rec.entry_t,
        "inputs_t": rec.inputs_t,
        "end_t": end_t,
        "handshake_s": rec.handshake_s,
        "batches": rec.batches,
        "dispatched": len(rec.dispatched),
        "redispatched": rec.redispatched,
        "failed": rec.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec.tracing:
        report["layers"] = rec.layer_totals()
        report["top_spans"] = rec.top_spans()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
