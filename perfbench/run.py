"""Benchmark of the subnetsearch engine: wall time, set-up time, engine
overhead per validation, tail time, memory and front quality, on three
workloads run through the CLI as a user would.

    python3 perfbench/run.py --workload concurrent-mbv3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from ./src.
Every command runs in its own process (perfbench/runner.py). A run cycles
through sub-seeds derived from --seed until --seconds have passed and, when
untraced, every sub-seed has run and the first one twice; timings are medians over all
commands, quality figures medians over the distinct sub-seeds. Every output
is checked; see perfbench/README.md for the metric definitions.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
Exit code 1 if a check failed, 2 if the engine sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from history import clustered_genotypes, write_history  # noqa: E402
from surface import (  # noqa: E402
    ClxSurface,
    Layout,
    canonical_min,
    hypervolume,
    oracle_front,
    stable_hash64,
)

clock = time.monotonic

POP = 50
CONCURRENT_ITERS = 5
CONCURRENT_INNER_GENS = 40
VALIDATE_GENS = 40
HISTORY_RECORDS = 10_000
POPDB_THRESHOLD = "0.05"
TOY_HISTORY_RECORDS = 1_500
HV_BUDGETS = (100, 250)
COMMAND_TIMEOUT_S = 150

WORKLOADS = {
    # kind, distinct sub-seeds per run
    "concurrent-mbv3": ("concurrent", 3),
    "validate-external": ("validate", 3),
    "popdb-history": ("popdb", 2),
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("engine_ms_per_validation", "ms"),
    ("tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hv_at_100", "hv"),
    ("hv_at_250", "hv"),
    ("hv_final", "hv"),
    ("toy_front_recall", "fraction"),
]


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def genotype_id(genes) -> str:
    return format(stable_hash64(b",".join(str(g).encode("ascii") for g in genes)), "016x")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# One CLI command
# ---------------------------------------------------------------------------


class Bench:
    """One benchmark run: its scratch directory, the space files the CLI is
    given, the commands made so far and the digest of each sub-seed's output."""

    def __init__(self, work: Path):
        self.work = work
        self.commands = 0
        self.failed = 0
        self.digests: dict[tuple, str] = {}
        from subnetsearch.space import build_space, get_preset, save_space

        mbv3 = get_preset("mobilenetv3-like")
        self.mbv3_file = work / "mobilenetv3-like.json"
        save_space(mbv3, self.mbv3_file)
        # the 8,100-genotype toy space of the test suite
        toy = build_space(
            "toy",
            [
                ("blk0", (1, 2), 2, [("kernel", (3, 5, 7)), ("expand", (3, 4, 6))]),
                ("blk1", (1, 2), 2, [("kernel", (3, 5, 7)), ("expand", (3, 4, 6))]),
            ],
        )
        self.spaces = {"mobilenetv3-like": mbv3, "toy": toy}
        self.toy_file = work / "toy.json"
        save_space(toy, self.toy_file)
        self.layouts = {
            "mobilenetv3-like": Layout(json.loads(self.mbv3_file.read_text())),
            "toy": Layout(json.loads(self.toy_file.read_text())),
        }
        with open(HERE / "hv_reference.json", encoding="utf-8") as fh:
            self.references = json.load(fh)

    def external(self, space_file: Path) -> list[str]:
        command = shlex.join([sys.executable, str(HERE / "evaluator.py"), str(space_file)])
        return [
            "--evaluator", f"external:{command}",
            "--objective", "top1:max", "--objective", "latency_ms:min",
        ]

    def launch(self, argv: list[str], traced: bool = False) -> dict:
        """Run one CLI command in a fresh process; returns the runner's report
        with the parent-side timings added."""
        self.commands += 1
        report_path = self.work / f"report-{self.commands}.json"
        mode = "trace" if traced else "plain"
        cmd = [sys.executable, str(HERE / "runner.py"), str(SRC), str(report_path), mode]
        t0 = clock()
        proc = subprocess.run(
            cmd + argv, cwd=self.work, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        if proc.returncode != 0 or not report_path.exists():
            self.failed += 1
            raise CheckFailed(
                f"runner exited {proc.returncode} for {' '.join(argv)}\n{proc.stderr}"
            )
        rep = json.loads(report_path.read_text())
        if rep["rc"] != 0 or rep["failed"]:
            self.failed += 1
        check(rep["rc"] == 0, f"exit code {rep['rc']} for {' '.join(argv)}\n{proc.stderr}")
        check(rep["failed"] == 0, f"{rep['failed']} failed evaluations")
        check(rep["redispatched"] == 0, f"{rep['redispatched']} genotypes dispatched twice")
        busy = sum(b - a for a, b, _ in rep["batches"]) - rep["handshake_s"]
        rep["stdout"] = proc.stdout
        rep["wall_s"] = rep["end_t"] - t0
        rep["setup_s"] = rep["entry_t"] - t0 + rep["handshake_s"]
        rep["busy_s"] = busy
        rep["tail_s"] = rep["end_t"] - rep["inputs_t"]
        rep["gaps"] = [
            nxt[0] - prev[1] for prev, nxt in zip(rep["batches"], rep["batches"][1:])
        ]
        if traced:
            window = (rep["inputs_t"], rep["end_t"])
            covered = sum(
                max(0.0, min(t1, window[1]) - max(t0, window[0]))
                for _name, t0, t1 in rep["top_spans"]
            )
            rep["tail_unspanned_s"] = rep["tail_s"] - covered
        return rep

    def remember_digest(self, key: tuple, path: Path) -> None:
        digest = sha256(path)
        first = self.digests.setdefault(key, digest)
        check(first == digest, f"{path.name} differs between two runs of {key}")

    # -- run artifacts ------------------------------------------------------------

    def read_log(self, path: Path):
        """(header, records) of an evaluation log, parsed by the benchmark."""
        lines = [json.loads(line) for line in path.read_text().splitlines() if line]
        return lines[0], lines[1:]

    def check_replay(self, path: Path) -> None:
        """ResultStore.load replays the log to the same records and bytes."""
        from subnetsearch.evalmgr import ResultStore

        header, docs = self.read_log(path)
        store = ResultStore.load(path, space=self.spaces[header["space"]])
        check(len(store.records) == len(docs), f"{path}: replay lost records")
        for rec, doc in zip(store.records, docs):
            same = (
                list(rec.genotype.genes) == doc["genotype"]
                and rec.sequence_number == doc["seq"]
                and rec.gen == doc.get("gen")
                and rec.evaluator_id == doc["evaluator_id"]
                and (
                    rec.objectives_raw is None
                    or list(rec.objectives_raw.values)
                    == [doc["objectives_raw"][s.name] for s in store.specs]
                )
            )
            check(same, f"{path}: record {doc['seq']} replays differently")
        copy = self.work / "replay.jsonl"
        store.dump(copy)
        check(copy.read_bytes() == path.read_bytes(), f"{path}: replay dump differs")

    def check_search_run(self, rep: dict, out: Path, key: tuple) -> list:
        """Checks a search's artifacts; returns its validation records as
        (genes, top1, latency) in log order."""
        evals = out / "evals.jsonl"
        _header, docs = self.read_log(evals)
        check(
            len(docs) == rep["dispatched"],
            f"{len(docs)} log records for {rep['dispatched']} dispatched genotypes",
        )
        recs = [
            (tuple(d["genotype"]), d["objectives_raw"]["top1"], d["objectives_raw"]["latency_ms"])
            for d in docs
            if d["type"] == "eval" and d["source"] == "validation"
        ]
        with open(out / "front.csv", newline="", encoding="utf-8") as fh:
            exported = [
                (row["genotype_id"], float(row["top1_raw"]), float(row["latency_ms_raw"]))
                for row in csv.DictReader(fh)
            ]
        expected = [(genotype_id(g), a, b) for g, a, b in oracle_front(recs)]
        check(exported == expected, f"{out}/front.csv differs from the oracle front")
        self.check_replay(evals)
        self.remember_digest(key, evals)
        return recs

    # -- quality -----------------------------------------------------------------

    def hv_figures(self, space: str, points) -> dict:
        """Hypervolume of the first N log records, for each budget, and of
        all of them, against the frozen reference. A None point is a record
        the run's output does not keep."""
        ref = self.references[f"{space}/clx-like"]["reference"]

        def hv(pts):
            return hypervolume([p for p in pts if p is not None], ref)

        out = {f"hv_at_{budget}": hv(points[:budget])[0] for budget in HV_BUDGETS}
        out["hv_final"], out["hv_outside"] = hv(points)
        return out

    def toy_front(self) -> list[tuple[int, ...]]:
        from subnetsearch.space import enumerate_genotypes

        surface = ClxSurface(self.layouts["toy"])
        recs = [
            (g.genes, *surface.evaluate(g.genes))
            for g in enumerate_genotypes(self.spaces["toy"])
        ]
        check(len(recs) == 8100, f"toy space has {len(recs)} genotypes, not 8100")
        return [r[0] for r in oracle_front(recs)]


# ---------------------------------------------------------------------------
# Workloads: each rep() runs one command and returns its figures
# ---------------------------------------------------------------------------


def concurrent_argv(space: str, seed: int, out: Path, evaluator: list[str]) -> list[str]:
    return [
        "search", "concurrent", "--space", space, *evaluator,
        "--pop", str(POP), "--iters", str(CONCURRENT_ITERS),
        "--inner-gens", str(CONCURRENT_INNER_GENS),
        "--predictor", "ridge", "--encoding", "one_hot",
        "--seed", str(seed), "--out", str(out),
    ]


def validate_argv(space: str, seed: int, out: Path, evaluator: list[str]) -> list[str]:
    return [
        "search", "full", "--predictor", "none", "--space", space, *evaluator,
        "--pop", str(POP), "--gens", str(VALIDATE_GENS),
        "--seed", str(seed), "--out", str(out),
    ]


def search_rep(bench: Bench, kind: str, seed: int, traced: bool) -> dict:
    out = bench.work / f"run-{bench.commands + 1}"
    if kind == "concurrent":
        argv = concurrent_argv("mobilenetv3-like", seed, out, ["--evaluator", "synthetic:clx-like"])
    else:
        argv = validate_argv(str(bench.mbv3_file), seed, out, bench.external(bench.mbv3_file))
    rep = bench.launch(argv, traced)
    recs = bench.check_search_run(rep, out, (kind, seed))
    rep["validations"] = len(recs)
    rep.update(bench.hv_figures("mobilenetv3-like", [canonical_min(a, b) for _, a, b in recs]))
    shutil.rmtree(out)
    return rep


def admitted(layout: Layout, allowed, genes) -> bool:
    """Whether a configuration lies in the reduced space: every active gene
    takes an allowed value."""
    mask = layout.active_mask(genes)
    return all(not m or v in allowed[p] for p, (m, v) in enumerate(zip(mask, genes)))


def cardinality(doc: dict, allowed) -> int:
    """Distinct canonical genotypes of a space document with per-position
    allowed values."""
    total = 1
    consumed = set()
    for b in doc["blocks"]:
        governed = b["governed_genes"]
        ppl = len(governed) // b["max_layers"]
        layer = [
            math.prod(len(allowed[p]) for p in governed[k * ppl:(k + 1) * ppl])
            for k in range(b["max_layers"])
        ]
        total *= sum(math.prod(layer[:d]) for d in allowed[b["depth_gene"]])
        consumed.update([b["depth_gene"], *governed])
    for pos in range(len(allowed)):
        if pos not in consumed:
            total *= len(allowed[pos])
    return total


def run_popdb(bench: Bench, space_file: Path, history: Path, key: tuple, traced: bool):
    """Runs popdb on a history; returns (report, allowed sets)."""
    constraints = bench.work / f"constraints-{bench.commands + 1}.json"
    argv = [
        "popdb", "--history", str(history), "--space", str(space_file),
        "--threshold", POPDB_THRESHOLD, "--out", str(constraints),
    ]
    rep = bench.launch(argv, traced)
    doc = json.loads(space_file.read_text())
    layout = Layout(doc)
    allowed = [tuple(v) for v in json.loads(constraints.read_text())["allowed"]]
    check(len(allowed) == layout.length, "constraints cover the wrong genome length")
    for pos, vals in enumerate(allowed):
        check(vals and set(vals) <= set(layout.allowed[pos]), f"bad allowed set at {pos}")
    full = cardinality(doc, layout.allowed)
    reduced = cardinality(doc, allowed)
    check(
        f"|reduced space|:  {reduced:.4e}" in rep["stdout"]
        and f"|original space|: {full:.4e}" in rep["stdout"],
        "popdb printed space sizes that differ from the oracle",
    )
    rep["log10_reduction"] = math.log10(full / reduced)
    bench.remember_digest(key, constraints)
    constraints.unlink()
    return rep, allowed


def popdb_rep(bench: Bench, seed: int, traced: bool) -> dict:
    history = bench.work / f"history-{seed}.jsonl"
    if not history.exists():
        layout = bench.layouts["mobilenetv3-like"]
        write_history(history, layout, clustered_genotypes(layout, seed, HISTORY_RECORDS))
        bench.check_replay(history)
    rep, allowed = run_popdb(bench, bench.mbv3_file, history, ("popdb", seed), traced)
    layout = bench.layouts["mobilenetv3-like"]
    _header, docs = bench.read_log(history)
    rep["validations"] = len(docs)
    points = [
        canonical_min(d["objectives_raw"]["top1"], d["objectives_raw"]["latency_ms"])
        if admitted(layout, allowed, d["genotype"]) else None
        for d in docs
    ]
    rep.update(bench.hv_figures("mobilenetv3-like", points))
    return rep


def rep_for(bench: Bench, kind: str, seed: int, traced: bool) -> dict:
    if kind == "popdb":
        return popdb_rep(bench, seed, traced)
    return search_rep(bench, kind, seed, traced)


def toy_front_recall(bench: Bench, kind: str, seed: int) -> float:
    """Share of the toy space's exact front that the workload's tactic keeps:
    the searches validate it, PopDB's reduced space admits it."""
    front = bench.toy_front()
    if kind == "popdb":
        layout = bench.layouts["toy"]
        centres = [front[(seed + k) % len(front)] for k in range(3)]
        genotypes = clustered_genotypes(
            layout, seed, TOY_HISTORY_RECORDS, flip_rate=0.15, centres=centres
        )
        history = bench.work / "history-toy.jsonl"
        write_history(history, layout, genotypes)
        _rep, allowed = run_popdb(bench, bench.toy_file, history, ("toy", seed), False)
        kept = [g for g in front if admitted(layout, allowed, g)]
        return len(kept) / len(front)
    out = bench.work / "toy-run"
    make_argv = concurrent_argv if kind == "concurrent" else validate_argv
    rep = bench.launch(make_argv(str(bench.toy_file), seed, out, bench.external(bench.toy_file)))
    recs = bench.check_search_run(rep, out, ("toy", kind, seed))
    validated = {r[0] for r in recs}
    shutil.rmtree(out)
    return sum(1 for g in front if g in validated) / len(front)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], quality: list[dict], recall: float) -> dict:
    def engine_ms(r):
        return (r["wall_s"] - r["busy_s"]) / r["validations"] * 1000.0

    samples = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "engine_ms_per_validation": [engine_ms(r) for r in reps],
        "tail_s": [r["tail_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "hv_at_100": [q["hv_at_100"] for q in quality],
        "hv_at_250": [q["hv_at_250"] for q in quality],
        "hv_final": [q["hv_final"] for q in quality],
        "toy_front_recall": [recall],
    }
    return {name: (median(samples[name]), unit, len(samples[name])) for name, unit in END_TO_END}


def not_gated(bench: Bench, kind: str, reps: list[dict], quality: list[dict]) -> dict:
    """Figures printed beside the end-to-end metrics but kept out of the
    result, because they are 0 or undefined on some workloads."""
    out = {"failed_frac": (bench.failed / bench.commands, "fraction", bench.commands)}
    if kind == "popdb":
        out["log10_reduction"] = (
            median([q["log10_reduction"] for q in quality]), "log10", len(quality))
    else:
        out["iter_gap_s"] = (median([median(r["gaps"]) for r in reps]), "s", len(reps))
    return out


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer figures of each traced command, median over commands."""
    rows = []
    for plain, traced in pairs:
        layers = traced["layers"]

        def get(name, key="s"):
            return layers.get(name, {}).get(key, 0)

        search_s = get("driver.search")
        generated = get("evolver.evolve", "generated")
        requested = get("evalmgr.evaluate_batch", "genotypes")
        points = get("popdb.hdbscan", "points")
        row = {
            "objectives.pareto_front.calls": (get("objectives.pareto_front", "calls"), "count"),
            "objectives.pareto_front.records": (get("objectives.pareto_front", "records"), "count"),
            "objectives.pareto_front.max_records": (
                get("objectives.pareto_front", "max_records"), "count"),
            "objectives.pareto_front.s": (get("objectives.pareto_front"), "s"),
            "objectives.hv_outside": (traced["hv_outside"], "count"),
            "evolver.select_best.calls": (get("evolver.select_best", "calls"), "count"),
            "evolver.select_best.max_pool": (get("evolver.select_best", "max_pool"), "count"),
            "evolver.select_best.s": (get("evolver.select_best"), "s"),
            "evolver.non_dominated_sort.s": (get("evolver.non_dominated_sort"), "s"),
            "evolver.evolve.calls": (get("evolver.evolve", "calls"), "count"),
            "evolver.evolve.s": (get("evolver.evolve"), "s"),
            "evolver.evolve.self_s": (get("evolver.evolve", "self_s"), "s"),
            "evolver.fresh_ratio": (
                get("evolver.evolve", "fresh") / generated if generated else 0.0, "fraction"),
            "evolver.duplicate_accepts": (get("evolver.evolve", "duplicate_accepts"), "count"),
            "space.canonicalize.calls": (get("space.canonicalize", "calls"), "count"),
            "space.canonicalize.s": (get("space.canonicalize"), "s"),
            "space.encode_matrix.calls": (get("space.encode_matrix", "calls"), "count"),
            "space.encode_matrix.rows": (get("space.encode_matrix", "rows"), "count"),
            "space.encode_matrix.s": (get("space.encode_matrix"), "s"),
            "space.is_canonical.calls": (get("space.is_canonical", "calls"), "count"),
            "space.is_canonical.s": (get("space.is_canonical"), "s"),
            "predict.fit_ridge.calls": (get("predict.fit_ridge", "calls"), "count"),
            "predict.fit_ridge.s": (get("predict.fit_ridge"), "s"),
            "predict.predict.calls": (get("predict.predict", "calls"), "count"),
            "predict.predict.rows": (get("predict.predict", "rows"), "count"),
            "predict.predict.s": (get("predict.predict"), "s"),
            "evalmgr.evaluate_batch.calls": (get("evalmgr.evaluate_batch", "calls"), "count"),
            "evalmgr.evaluate_batch.genotypes": (requested, "count"),
            "evalmgr.evaluate_batch.s": (get("evalmgr.evaluate_batch"), "s"),
            "evalmgr.evaluate_batch.self_s": (get("evalmgr.evaluate_batch", "self_s"), "s"),
            "evalmgr.evaluator.calls": (len(traced["batches"]), "count"),
            "evalmgr.evaluator.genotypes": (traced["dispatched"], "count"),
            "evalmgr.evaluator.busy_s": (traced["busy_s"], "s"),
            "evalmgr.handshake_s": (traced["handshake_s"], "s"),
            "evalmgr.idle_gap_s": (median(plain["gaps"]), "s"),
            "evalmgr.cache_hit_ratio": (
                1.0 - traced["dispatched"] / requested if requested else 0.0, "fraction"),
            "evalmgr.failed": (traced["failed"], "count"),
            "evalmgr.redispatched": (traced["redispatched"], "count"),
            "evalmgr.store_dump.s": (get("evalmgr.store_dump"), "s"),
            "evalmgr.store_dump.bytes": (get("evalmgr.store_dump", "bytes"), "B"),
            "evalmgr.store_load.records": (get("evalmgr.store_load", "records"), "count"),
            "evalmgr.store_load.s": (get("evalmgr.store_load"), "s"),
            "popdb.history_features.s": (get("popdb.history_features"), "s"),
            "popdb.hdbscan.s": (get("popdb.hdbscan"), "s"),
            "popdb.elastic_frequencies.s": (get("popdb.elastic_frequencies"), "s"),
            "popdb.build_constraints.s": (get("popdb.build_constraints"), "s"),
            "popdb.constrain_space.s": (get("popdb.constrain_space"), "s"),
            "popdb.hdbscan.points": (points, "count"),
            "popdb.clusters": (get("popdb.hdbscan", "clusters"), "count"),
            "popdb.noise_frac": (
                get("popdb.hdbscan", "noise") / points if points else 0.0, "fraction"),
            "popdb.log10_reduction": (traced.get("log10_reduction", 0.0), "log10"),
            "driver.export.s": (get("driver.export"), "s"),
            "driver.hypervolume_trace.s": (get("driver.hypervolume_trace"), "s"),
            "driver.unphased_frac": (
                1.0 - get("driver.search", "phased_s") / search_s if search_s else 0.0,
                "fraction"),
            "cli.main.self_s": (get("cli.main", "self_s"), "s"),
            "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
            "trace.tail_s": (traced["tail_s"], "s"),
            "trace.tail_unspanned_s": (traced["tail_unspanned_s"], "s"),
        }
        rows.append(row)
    return {
        name: (median([r[name][0] for r in rows]), unit, len(rows))
        for name, (_v, unit) in rows[0].items()
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(bench: Bench, kind: str, seeds: list[int], seconds: float, traced: bool):
    """Cycle through the sub-seeds until `seconds` have passed and the first
    sub-seed has run twice. Returns (reps, first rep of each sub-seed, pairs)."""
    reps, pairs = [], []
    first: dict[int, dict] = {}
    start = clock()
    k = 0
    # plain runs repeat one sub-seed to check determinism; a traced run
    # repeats the sub-seed of the plain run it is paired with
    minimum = 1 if traced else len(seeds) + 1
    while k < minimum or clock() - start < seconds:
        seed = seeds[k % len(seeds)]
        modes = [False, True] if traced else [False]
        if k % 2:
            modes.reverse()  # alternate which command of a pair runs first
        runs = {mode: rep_for(bench, kind, seed, mode) for mode in modes}
        reps.append(runs[False])
        first.setdefault(seed, runs[False])
        if traced:
            pairs.append((runs[False], runs[True]))
        k += 1
    return reps, list(first.values()), pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subnetsearch" / "cli.py").is_file():
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subnetsearch

    if SRC not in Path(subnetsearch.__file__).resolve().parents:
        print(f"perfbench: subnetsearch comes from {subnetsearch.__file__}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    kind, n_seeds = WORKLOADS[args.workload]
    seeds = [args.seed * 100 + k for k in range(n_seeds)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work)
    try:
        # the toy command runs first: the first command after a pause runs
        # 15-20% slower on a shared host, and this one is not timed
        recall = toy_front_recall(bench, kind, args.seed)
        reps, quality, pairs = measure(bench, kind, seeds, args.seconds, bool(args.trace))
        if args.trace:
            metrics, extra = per_layer(pairs), {}
        else:
            metrics = end_to_end(reps, quality, recall)
            extra = not_gated(bench, kind, reps, quality)
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.commands,
                          "failed": max(bench.failed, 1), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    for name, (value, unit, n) in [*metrics.items(), *extra.items()]:
        note = "  (not gated)" if name in extra else ""
        print(f"{name:40s} {value:16.6f} {unit:10s} n={n}{note}")
    result = {
        "correct": True,
        "attempted": bench.commands,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
