"""Command-line entry point: batch searches, PopDB, predictor benchmarks,
analytics export, and space inspection.

Exit codes: 0 success, 2 configuration error, 3 evaluator error, 4 internal
error. The fully resolved configuration is persisted with every run so a run
directory can be reproduced exactly via --config, under the trajectory
version that wrote it.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

from .driver import (
    TRAJECTORY,
    ConcurrentNasConfig,
    FullSearchConfig,
    PredictorConfig,
    SearchReport,
    check_objectives,
    config_from_doc,
    config_to_doc,
    fit_objective_predictor,
    search,
    write_config,
)
from .errors import (
    ConfigError,
    EmptyClusterSet,
    EvaluatorError,
    InvalidGenotype,
    SubnetSearchError,
)
from .evalmgr import (
    NO_GEN,
    ExternalEvaluator,
    ResultStore,
    SyntheticSurfaceEvaluator,
    TableEvaluator,
    evaluate_batch,
)
from .objectives import (
    ObjectiveSpec,
    canonical_matrix,
    check_two_objectives,
    pareto_front,  # noqa: F401  (a trace site of perfbench/runner.py)
    validated_front,
)
from .popdb import (
    build_constraints,
    constrain_space,
    elastic_frequencies,
    hdbscan,
    history_features,
)
from .predict import run_prediction_trials
from .space import (
    Genotype,
    cardinality,
    encode_matrix,
    gene_matrix,
    genotype_ids,
    rank_matrix,
    repaired_ranks,
    resolve_space,
    sample_unique,
    save_space,
    space_from_dict,
    space_to_dict,
)
from .util import SEED_RANGE, check_rules, read_json

OUTPUT_DIR_ENV = "SUBNETSEARCH_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATOR = 3
EXIT_INTERNAL = 4

# One search function under two names: perfbench/runner.py wraps each name,
# as the entry into engine work, and `_cmd_search` calls through them.
full_search = concurrent_search = search


# ---------------------------------------------------------------------------
# Shared option parsing
# ---------------------------------------------------------------------------


def _parse_objective(text: str) -> ObjectiveSpec:
    parts = text.split(":")
    if len(parts) < 2:
        raise ConfigError(
            f"--objective {text!r}: expected name:direction[:unit]"
        )
    name, direction = parts[0], parts[1]
    direction = {"max": "maximize", "min": "minimize"}.get(direction, direction)
    unit = parts[2] if len(parts) > 2 else ""
    return ObjectiveSpec(name, direction, unit)


def _build_evaluator(spec_str: str, space, declared_specs, timeout, noise_scale, noise_seed):
    """Returns (evaluator, objective specs) from an evaluator spec string:
    synthetic:<preset>, table:<path>, or external:<command>."""
    if not 0 < timeout < math.inf:
        raise ConfigError(f"--timeout must be finite and > 0, got {timeout}")
    kind, _, rest = spec_str.partition(":")
    if kind == "synthetic":
        ev = SyntheticSurfaceEvaluator(space, rest or "clx-like", noise_scale, noise_seed)
        return ev, ev.specs
    if kind == "table":
        if not rest:
            raise ConfigError("table evaluator needs a file path: table:<path>")
        ev = TableEvaluator(rest)
        return ev, ev.specs
    if kind == "external":
        if not rest:
            raise ConfigError("external evaluator needs a command: external:<cmd>")
        ev = ExternalEvaluator(
            rest,
            declared_specs,
            space_name=space.name,
            timeout=timeout,
        )
        return ev, tuple(declared_specs)
    raise ConfigError(
        f"unknown evaluator {spec_str!r}; use synthetic:<preset>, table:<path> "
        "or external:<command>"
    )


def _resolve_out_dir(out: str | None, tactic: str, seed: int) -> Path:
    if out:
        return Path(out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    base = Path(env) if env else Path("runs")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return base / f"{tactic}-seed{seed}-{stamp}"


def _load_config(path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _warm_start_from(path: str, space) -> tuple[Genotype, ...]:
    """The validated front of the log at `path`."""
    p = Path(path)
    store = ResultStore.load(p, space=space)
    check_two_objectives(store.specs, f"{p}: ")
    if not len(store.validation_columns()[0]):
        raise ConfigError(f"warm-start log {p} has no validation records")
    return tuple(map(Genotype, validated_front(store).genes.tolist()))


def _out_file(path: Path) -> Path:
    """`path` as a command's output file, checked before the command's work:
    its directory is made, and a directory at `path` itself is refused."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise ConfigError(f"{path}: Is a directory")
    return path


def _given(args, names) -> dict:
    """The flags among `names` (argparse dests) that were given."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _print_summary(report: SearchReport, outdir: Path, elapsed: float) -> None:
    print(f"tactic:           {report.tactic}")
    print(f"validations:      {report.validation_count}")
    print(f"front size:       {len(report.validated_front)}")
    print(f"final hypervolume: {report.final_hypervolume()}")
    print(f"elapsed:          {elapsed:.2f} s")
    print(f"artifacts:        {outdir}")
    for w in report.warnings[:5]:
        print(f"warning: {w}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _cmd_search(args) -> int:
    """Both tactics: --config values first, then every flag given."""
    cls = FullSearchConfig if args.tactic == "full" else ConcurrentNasConfig
    cfg = config_from_doc(cls, _load_config(args.config), args.config) if args.config else cls()
    flags = _given(args, (f.name for f in fields(cls)))
    if args.objective:
        flags["objectives"] = tuple(map(_parse_objective, args.objective))
    predictor = _given(args, ("family", "encoding", "ridge_lambda"))
    families = dict(cfg.predictor.families)
    for item in args.predictor_for or []:
        name, _, fam = item.partition(":")
        if not fam:
            raise ConfigError(f"--predictor-for {item!r}: expected objective:family")
        families[name] = fam
    cfg = replace(cfg, **flags, predictor=replace(cfg.predictor, **predictor, families=families))
    if cfg.space_doc and not args.space:
        try:
            space = space_from_dict(cfg.space_doc)
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: space_doc: {exc}") from exc
    elif cfg.space:
        space = resolve_space(cfg.space)
    else:
        raise ConfigError("missing --space (preset name or space file)")
    if not cfg.evaluator:
        raise ConfigError("missing --evaluator")
    evaluator, specs = _build_evaluator(
        cfg.evaluator, space, cfg.objectives, args.timeout, cfg.noise_scale, cfg.noise_seed
    )
    if args.warm_start_log:
        cfg = replace(cfg, warm_start=_warm_start_from(args.warm_start_log, space))
    try:  # a config's warm start of another genome length
        repaired_ranks(cfg.warm_start or (), space)
    except InvalidGenotype as exc:
        raise ConfigError(f"{args.config}: warm_start: {exc}") from exc
    cfg = replace(cfg, space=cfg.space or space.name, space_doc=space_to_dict(space))
    check_objectives(cfg, specs)
    run_search = full_search if args.tactic == "full" else concurrent_search
    outdir = _resolve_out_dir(args.out, args.tactic, cfg.seed)
    t0 = time.perf_counter()
    # every check above precedes the run directory, made here. A run already
    # there is replaced whole: a directory at one of its five file names is
    # refused before any is touched, then its files go, config.json is written
    # with a null reference, and the log streams in from the first batch
    old = [_out_file(outdir / name) for name in ("evals.jsonl", "config.json", "front.csv",
                                                 "hv_trace.csv", "predicted_front.csv")]
    for path in old[1:]:  # the log is truncated by its store
        path.unlink(missing_ok=True)
    write_config(config_to_doc(cfg, specs, None, evaluator), outdir / "config.json")
    store = ResultStore(specs, space=space, path=outdir / "evals.jsonl")
    try:
        report = run_search(space, specs, evaluator, cfg, store=store)
        report.export(outdir)
    finally:
        store.close()
    _print_summary(report, outdir, time.perf_counter() - t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# popdb
# ---------------------------------------------------------------------------


def _cmd_popdb(args) -> int:
    check_rules(  # before the log load and the O(n^2) clustering
        args,
        ("threshold", 0 <= args.threshold <= 1, "in [0, 1]"),
        ("min_cluster_size", args.min_cluster_size >= 2, ">= 2"),
        ("min_samples", args.min_samples >= 1, ">= 1"),
        ("max_points", args.max_points >= 1, ">= 1"),
        ("seed", args.seed >= 0, ">= 0"),
    )
    history_path = Path(args.history)
    space = resolve_space(args.space)
    out = _out_file(Path(args.out) if args.out else history_path.parent / "constraints.json")
    store = ResultStore.load(history_path, space=space)
    seqs, genes, raw, _ = store.validation_columns()
    if not len(seqs):
        raise ConfigError(f"{history_path}: no validation records to cluster")
    try:
        ranks = rank_matrix(genes, space)
    except InvalidGenotype as exc:  # a gene value the space forbids
        line = ResultStore.record_line(history_path, int(seqs[exc.row]))
        raise ConfigError(f"{history_path}:{line}: {exc}") from exc
    objectives = canonical_matrix(raw, store.specs) if args.include_objectives else None
    feats, idx = history_features(
        ranks,
        space,
        objectives=objectives,
        max_points=args.max_points,
        seed=args.seed,
    )
    labeling = hdbscan(feats, args.min_cluster_size, args.min_samples)
    try:
        freqs = elastic_frequencies(labeling, ranks[idx], space)
    except EmptyClusterSet as exc:  # too sparse a history for these settings
        raise ConfigError(
            f"{history_path}: all {len(idx)} points labeled noise with "
            f"--min-cluster-size {args.min_cluster_size} "
            f"--min-samples {args.min_samples}; no frequencies to compute"
        ) from exc
    reduced = constrain_space(space, build_constraints(freqs, args.threshold, space))
    save_space(reduced, out, history=str(history_path), threshold=args.threshold)
    print(f"points clustered: {len(idx)}")
    print(f"clusters found:   {labeling.n_clusters}")
    noise = labeling.labels.count(-1)
    print(f"noise points:     {noise} ({noise / len(idx):.1%})")
    print(f"|original space|: {cardinality(space):.4e}")
    print(f"|reduced space|:  {cardinality(reduced):.4e}")
    print(f"space document:   {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict bench
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi, step = (int(p) for p in text.split(":"))
            sizes = list(range(lo, hi + 1, step))
        else:
            sizes = [int(p) for p in text.split(",")]
    except ValueError:  # not integers, not three parts, or a zero step
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ConfigError(
            f"--train-sizes {text!r}: expected lo:hi:step or a comma-separated "
            "list, giving sizes >= 1"
        )
    return sizes


def _cmd_predict_bench(args) -> int:
    import statistics  # here, off every other command's start-up
    check_rules(  # before any evaluation
        args,
        ("--test-size", args.test_size >= 2, ">= 2"),
        ("--trials", args.trials >= 1, ">= 1"),
        ("--seed", args.seed in SEED_RANGE, "in [-2**127, 2**127)"),
        ("--noise-seed", args.noise_seed in SEED_RANGE, "in [-2**127, 2**127)"),
        ("--noise-scale", 0 <= args.noise_scale < math.inf, "finite and >= 0"),
    )
    space = resolve_space(args.space)
    declared = tuple(_parse_objective(o) for o in args.objective_spec or [])
    evaluator, specs = _build_evaluator(
        args.evaluator, space, declared, args.timeout, args.noise_scale, args.noise_seed
    )
    if args.objective not in {s.name for s in specs}:
        raise ConfigError(
            f"objective {args.objective!r} not provided by evaluator "
            f"({[s.name for s in specs]})"
        )
    sizes = _parse_sizes(args.train_sizes)
    pcfg = PredictorConfig(**_given(args, ("family", "encoding", "ridge_lambda")))
    if pcfg.family_for(args.objective) == "svr" and min(sizes) < 2:
        raise ConfigError("fit_svr needs at least 2 samples")  # before any evaluation
    out = _out_file(Path(args.out)) if args.out else None
    needed = args.test_size + max(sizes)
    pool = sample_unique(space, needed, args.seed, "bench-pool")
    if len(pool) < needed:
        raise ConfigError(
            f"space too small for bench: need {needed} distinct genotypes"
        )
    store = ResultStore(specs, space=space)
    raw, errors = evaluate_batch(gene_matrix(pool, space), evaluator, store)
    if errors:
        raise EvaluatorError(f"{len(errors)} bench evaluations failed: {errors[0]}")
    X = encode_matrix(pool, space, pcfg.encoding)
    y = raw[:, [s.name for s in specs].index(args.objective)]
    results = run_prediction_trials(
        X,
        y,
        lambda Xt, yt: fit_objective_predictor(pcfg, Xt, yt, args.objective),
        sizes,
        test_size=args.test_size,
        trials=args.trials,
        seed=args.seed,
    )
    rows = {}
    for r in results:
        rows.setdefault(r.train_size, []).append(r)
    print("train_size  mape_mean  mape_std  tau_mean")
    out_rows = []
    for size in sorted(rows):
        mapes = [r.mape for r in rows[size]]
        taus = [r.kendall for r in rows[size]]
        mape_mean = statistics.fmean(mapes)
        mape_std = statistics.pstdev(mapes) if len(mapes) > 1 else 0.0
        tau_mean = statistics.fmean(taus)
        print(f"{size:10d}  {mape_mean:9.4f}  {mape_std:8.4f}  {tau_mean:8.4f}")
        out_rows.append([size, mape_mean, mape_std, tau_mean])
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["train_size", "mape_mean", "mape_std", "tau_mean"])
            writer.writerows(out_rows)
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _require_artifact(run_dir: Path, name: str) -> Path:
    path = run_dir / name
    if not path.exists():
        raise ConfigError(f"missing artifact file: {path}")
    return path


def _cmd_analyze(args) -> int:
    import statistics  # here, off every other command's start-up
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"not a report directory: {run_dir}")
    cfg = _load_config(_require_artifact(run_dir, "config.json"))
    evals_path = _require_artifact(run_dir, "evals.jsonl")
    trace_path = _require_artifact(run_dir, "hv_trace.csv")
    store = ResultStore.load(evals_path)
    check_two_objectives(store.specs, f"{evals_path}: ")
    _, genes, raw, gens = store.validation_columns()
    if not len(raw):
        raise ConfigError(f"{evals_path}: no validation records")
    specs = store.specs
    columns = raw.T.tolist()  # each objective's values
    # a latency l is normalized as (l - l_min) / l_max over its column
    bounds = {
        k: (min(columns[k]), max(columns[k]))
        for k, s in enumerate(specs) if "latency" in s.name.lower()
    }
    for k, (_, l_max) in bounds.items():
        if l_max == 0:
            raise ConfigError(f"{evals_path}: objective {specs[k].name!r} has largest "
                              "value 0, so (l - l_min) / l_max is undefined")
    outdir = Path(args.out) if args.out else run_dir / "analysis"
    outdir.mkdir(parents=True, exist_ok=True)

    front = validated_front(store)
    with open(outdir / "normalized_front.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["genotype_id"] + [f"{s.name}_raw" for s in specs] + [
            f"{specs[k].name}_normalized" for k in bounds
        ]
        writer.writerow(header)
        for gid, values in zip(genotype_ids(front.genes.tolist()), front.raw.tolist()):
            normalized = [(values[k] - l_min) / l_max for k, (l_min, l_max) in bounds.items()]
            writer.writerow([gid, *map(repr, values), *map(repr, normalized)])

    by_gen: dict[int, list[int]] = {}  # a null gen is written as gen 0
    for row, gen in enumerate(gens.tolist()):
        by_gen.setdefault(0 if gen == NO_GEN else gen, []).append(row)
    ids, gene_rows, values = genotype_ids(genes.tolist()), genes.tolist(), raw.tolist()

    pop_dir = outdir / "populations"
    pop_dir.mkdir(exist_ok=True)
    for gen, rows in sorted(by_gen.items()):
        with open(pop_dir / f"gen_{gen:04d}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["genotype_id"] + [s.name for s in specs] + ["genes"])
            for row in rows:
                writer.writerow([ids[row], *map(repr, values[row]),
                                 " ".join(map(str, gene_rows[row]))])

    lines = [
        f"run: {run_dir}",
        f"tactic: {cfg.get('tactic', 'unknown')}",
        f"validation records: {len(raw)}",
        f"front size: {len(front)}",
    ]
    for s, col in zip(specs, columns):
        lines.append(
            f"{s.name}: min={min(col):.6g} mean={statistics.fmean(col):.6g} "
            f"max={max(col):.6g} ({s.direction})"
        )
    trace = trace_path.read_text("utf-8").splitlines()  # a header, then count,hv rows
    try:
        hv = float(trace[-1].split(",")[1])
    except (IndexError, ValueError):
        raise ConfigError(f"{trace_path}:{len(trace)}: not count,hypervolume") from None
    lines.append(f"final hypervolume: {hv:.6g}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"analysis written to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# space info
# ---------------------------------------------------------------------------


def _cmd_space_info(args) -> int:
    space = resolve_space(args.space)
    size = cardinality(space)
    print(f"space:         {space.name}")
    print(f"genome length: {space.genome_length}")
    print(f"cardinality:   {size:.4e} ({size})")
    print(f"blocks:        {len(space.blocks)}")
    print("layout:")
    pos = 0
    for p in space.params:
        span = (
            f"[{pos}]" if p.position_count == 1 else f"[{pos}..{pos + p.position_count - 1}]"
        )
        print(f"  {span:>10} {p.name:<28} {p.role:<12} values={list(p.allowed_values)}")
        pos += p.position_count
    if space.reduction is not None:
        print("reduced positions:")
        for pos, (keep, vals) in enumerate(zip(space.reduction, space.allowed)):
            if keep != vals:
                print(f"  {f'[{pos}]':>10} {space.param_at(pos).name:<28} allowed={list(keep)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnetsearch",
        description="Pareto search over sub-network configurations of super-networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Run flags default to None and their dests are config.json keys, so a
    # flag given with --config overrides the config's value; the front of
    # the --warm-start log replaces the config's warm_start.
    def add_run_options(p, concurrent: bool):
        p.add_argument("--space", help="space preset name or JSON file")
        p.add_argument("--evaluator", help="synthetic:<preset> | table:<path> | external:<cmd>")
        p.add_argument("--objective", action="append",
                       help="name:direction[:unit]; an external evaluator needs exactly two")
        p.add_argument("--pop", dest="population_size", type=int, help="population size")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help=f"artifacts directory (or ${OUTPUT_DIR_ENV})")
        p.add_argument("--config", help="replay a persisted config.json of trajectory "
                       f"version {TRAJECTORY}; a file of another version is refused")
        p.add_argument("--warm-start", dest="warm_start_log",
                       help="evals.jsonl whose front seeds the search")
        p.add_argument("--predictor", dest="family", choices=["ridge", "svr", "none"])
        p.add_argument("--predictor-for", action="append",
                       help="objective:family per-objective override")
        p.add_argument("--encoding", choices=["one_hot", "ordinal_normalized"],
                       help="predictor feature encoding")
        p.add_argument("--ridge-lambda", type=float)
        p.add_argument("--noise-scale", type=float)
        p.add_argument("--noise-seed", type=int)
        p.add_argument("--timeout", type=float, default=600.0,
                       help="external evaluator response timeout (s)")
        if concurrent:
            p.add_argument("--iters", dest="iterations", type=int,
                           help="validation batches, with an inner search between two")
            p.add_argument("--inner-gens", dest="inner_generations", type=int,
                           help="generations of each inner search")
        else:
            p.add_argument("--gens", dest="generations", type=int, help="generations")
            p.add_argument("--train", dest="n_train", type=int,
                           help="predictor training sample size")
        p.set_defaults(func=_cmd_search)

    search = sub.add_parser("search", help="run a search tactic")
    search_sub = search.add_subparsers(dest="tactic", required=True)
    add_run_options(
        search_sub.add_parser("full", help="predictors up front, then search"),
        concurrent=False,
    )
    add_run_options(
        search_sub.add_parser("concurrent", help="iterative predictor-in-the-loop search"),
        concurrent=True,
    )

    p_popdb = sub.add_parser("popdb", help="reduce a space from search history")
    p_popdb.add_argument("--history", required=True, help="evals.jsonl of a prior run")
    p_popdb.add_argument("--space", required=True)
    p_popdb.add_argument("--threshold", type=float, default=0.01)
    p_popdb.add_argument("--min-cluster-size", type=int, default=50)
    p_popdb.add_argument("--min-samples", type=int, default=10)
    p_popdb.add_argument("--max-points", type=int, default=20000)
    p_popdb.add_argument("--include-objectives", action="store_true",
                         help="cluster in joint genotype+objective space")
    p_popdb.add_argument("--seed", type=int, default=0)
    p_popdb.add_argument("--out", help="reduced space document path")
    p_popdb.set_defaults(func=_cmd_popdb)

    predict_p = sub.add_parser("predict", help="predictor tools")
    predict_sub = predict_p.add_subparsers(dest="predict_cmd", required=True)
    p_bench = predict_sub.add_parser("bench", help="train-size sweep with repeated trials")
    p_bench.add_argument("--space", required=True)
    p_bench.add_argument("--evaluator", required=True)
    p_bench.add_argument("--objective", required=True, help="objective to predict")
    p_bench.add_argument("--objective-spec", action="append",
                         help="name:direction[:unit] for external evaluators")
    p_bench.add_argument("--predictor", dest="family", choices=["ridge", "svr"],
                         default="ridge")
    p_bench.add_argument("--encoding", choices=["one_hot", "ordinal_normalized"],
                         default=None)
    p_bench.add_argument("--ridge-lambda", type=float, default=None)
    p_bench.add_argument("--train-sizes", default="100:1000:100")
    p_bench.add_argument("--test-size", type=int, default=500)
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--noise-scale", type=float, default=0.0)
    p_bench.add_argument("--noise-seed", type=int, default=0)
    p_bench.add_argument("--timeout", type=float, default=600.0)
    p_bench.add_argument("--out", help="CSV output path")
    p_bench.set_defaults(func=_cmd_predict_bench)

    p_an = sub.add_parser("analyze", help="plot-ready exports from a run directory")
    p_an.add_argument("run_dir")
    p_an.add_argument("--out", help="analysis output directory")
    p_an.set_defaults(func=_cmd_analyze)

    space_p = sub.add_parser("space", help="search-space tools")
    space_sub = space_p.add_subparsers(dest="space_cmd", required=True)
    p_info = space_sub.add_parser("info", help="cardinality and genome layout")
    p_info.add_argument("--space", required=True)
    p_info.set_defaults(func=_cmd_space_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the engine's warnings (UserWarnings) reach the user as one line without a
    # source location; others are shown as before; settings come back after
    with warnings.catch_warnings():
        show = warnings.showwarning

        def one_line(message, category, *args, **kwargs):
            if not issubclass(category, UserWarning):
                return show(message, category, *args, **kwargs)
            print(f"warning: {message}", file=sys.stderr)
        warnings.showwarning = one_line
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except EvaluatorError as exc:
            print(f"evaluator error: {exc}", file=sys.stderr)
            return EXIT_EVALUATOR
        except SubnetSearchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except Exception as exc:  # noqa: BLE001 - top-level exit-code mapping
            if isinstance(exc, OSError) and exc.filename is not None:  # a path not openable
                print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
                return EXIT_CONFIG
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
