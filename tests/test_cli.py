"""Command-line interface: artifacts, determinism, reruns, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import subnetsearch
from subnetsearch.cli import build_parser, main
from subnetsearch.driver import (
    TRAJECTORY,
    ConcurrentNasConfig,
    FullSearchConfig,
    PredictorConfig,
)
from subnetsearch.errors import (
    ConfigError,
    EmptyClusterSet,
    EvaluatorError,
    InvalidGenotype,
    SubnetSearchError,
)
from subnetsearch.space import canonicalize, save_space, space_from_dict, space_to_dict

from conftest import DIGEST_MOVED, gene_rows, validation_records

DOUBLE = Path(__file__).parent / "doubles" / "scripted_evaluator.py"


@pytest.fixture()
def toy_space_file(tmp_path, toy_space):
    path = tmp_path / "toy_space.json"
    save_space(toy_space, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def drop_trajectory(run_dir):
    """Make `run_dir` a run of an older version: its config.json without
    `trajectory`."""
    config = Path(run_dir, "config.json")
    doc = json.loads(config.read_text())
    del doc["trajectory"]
    config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_search_concurrent_writes_artifacts(tmp_path, toy_space_file, capsys):
    out = tmp_path / "run1"
    code = run_cli(
        "search", "concurrent",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--pop", "10", "--iters", "2", "--inner-gens", "10",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    for name in ("front.csv", "hv_trace.csv", "evals.jsonl", "config.json"):
        assert (out / name).exists(), name
    summary = capsys.readouterr().out
    assert "validations" in summary and "hypervolume" in summary
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["tactic"] == "concurrent"
    assert cfg["seed"] == 7


def test_search_determinism_byte_identical_logs(tmp_path, toy_space_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "search", "concurrent",
            "--space", toy_space_file,
            "--evaluator", "synthetic:clx-like",
            "--pop", "8", "--iters", "2", "--inner-gens", "8",
            "--seed", "3", "--out", str(out),
        ) == 0
        outs.append((out / "evals.jsonl").read_bytes())
    assert outs[0] == outs[1]


RUN_SIZES = {
    "concurrent": ("--pop", "8", "--iters", "2", "--inner-gens", "8"),
    "full": ("--pop", "8", "--gens", "4", "--train", "40"),
}


@pytest.fixture(scope="module")
def toy_table_file(tmp_path_factory, toy_space):
    """Every canonical toy genotype with its v100-like surface objectives."""
    from subnetsearch.evalmgr import SyntheticSurfaceEvaluator
    from subnetsearch.space import enumerate_genotypes

    surface = SyntheticSurfaceEvaluator(toy_space, "v100-like")
    gs = list(enumerate_genotypes(toy_space))
    doc = {
        "objectives": [dataclasses.asdict(s) for s in surface.specs],
        "entries": [
            {
                "genes": list(g.genes),
                "objectives": dict(zip([s.name for s in surface.specs], vec.values)),
            }
            for g, vec in zip(gs, surface.evaluate(gs))
        ],
    }
    path = tmp_path_factory.mktemp("table") / "toy_table.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("tactic", ["concurrent", "full"])
@pytest.mark.parametrize("mode", ["noise", "table", "external", "warm-start"])
def test_rerun_from_persisted_config(tmp_path, toy_space, toy_space_file,
                                     toy_table_file, mode, tactic):
    if mode == "noise":
        run_args = ["--evaluator", "synthetic:clx-like",
                    "--noise-scale", "0.05", "--noise-seed", "3"]
    elif mode == "table":
        run_args = ["--evaluator", f"table:{toy_table_file}"]
    elif mode == "external":
        run_args = ["--evaluator", f"external:{sys.executable} {DOUBLE} genes-sum",
                    "--objective", "top1:maximize",
                    "--objective", "latency_ms:minimize:ms"]
    else:
        history = tmp_path / "history.jsonl"
        write_toy_history(history, toy_space)
        run_args = ["--evaluator", "synthetic:clx-like", "--warm-start", str(history)]
    first = tmp_path / "first"
    assert run_cli(
        "search", tactic, "--space", toy_space_file, *run_args,
        *RUN_SIZES[tactic], "--seed", "11", "--out", str(first),
    ) == 0
    second = tmp_path / "second"
    assert run_cli(
        "search", tactic, "--config", str(first / "config.json"), "--out", str(second),
    ) == 0
    for name in ("evals.jsonl", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_space_flag_overrides_config_space(tmp_path, toy_space_file, tiny_space):
    first = tmp_path / "first"
    assert run_cli(
        "search", "concurrent", "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like", *RUN_SIZES["concurrent"],
        "--out", str(first),
    ) == 0
    tiny_file = tmp_path / "tiny_space.json"
    save_space(tiny_space, tiny_file)
    second = tmp_path / "second"
    assert run_cli(
        "search", "concurrent", "--config", str(first / "config.json"),
        "--space", str(tiny_file), "--out", str(second),
    ) == 0
    cfg = json.loads((second / "config.json").read_text())
    assert cfg["space"] == str(tiny_file)
    assert cfg["space_doc"] == space_to_dict(tiny_space)
    from subnetsearch.evalmgr import ResultStore

    recs = validation_records(ResultStore.load(second / "evals.jsonl"))
    assert {len(r.genotype.genes) for r in recs} == {tiny_space.genome_length}


# sha256 of the config.json and evals.jsonl of each run, recorded while cli
# still added the space, evaluator, noise and declared objectives to the
# tactic's fields itself; every file is named relative to the run's working
# directory, so no digest holds an absolute path. The config.json digests were
# taken again when crossover_rate, mutation_rate and the four svr_* settings
# left the file, again when it gained `trajectory`, and again when the
# trajectory version became 2; the evals.jsonl digests did not change. Both
# were taken again at trajectory version 3, when the evolver's tie-break and
# the surface noise became `util.row_hash`.
CONFIG_SHA256 = {
    "concurrent-noise": (
        "b0dd2e9b5a561de07d254c9ab4ed703fdaefc71624d2fee7548455446f2e7ec2",
        "6dcb36c234b19c4f956a7ce8e9fc0e1c123a11207e9a02991ab1228feda97f50",
    ),
    "concurrent-table": (
        "7102565d2e430321c74945d5947d1913c1934d1f7db699e7f321346a471fa146",
        "f23ac087132f3457834ae7aa21d4b79dae22d90330d5062d77a568d9fcd5b2f9",
    ),
    "concurrent-warm-start": (
        "78981b6c8cfca482151799fdd2e335b1da4106b85eb78592e08d4153c126e2f4",
        "ebf979111c4b4db79ad6cb5628100f736cfecd87e14b8426881b410be83fdcf8",
    ),
    "concurrent-other-space": (
        "778e17059079df48a64f683c36dbf8a44430bcbfa18e75d49f337c83a643fb79",
        "034045f02ed68f587d48c8638ae83dc195c6b29a251dda1705e5570fd1d9a07b",
    ),
    "full-noise": (
        "1126f4d49d4e1527ab69cf367a0d27a3f20e5e6f1a5d2d3400a614eb4f5d992c",
        "eb63187ef96ef08f257a983f29f99925f79608f17712028e8766b589b07e657f",
    ),
    "full-table": (
        "0cb2a8aeeff6aca3ff714f51c388984050268fab8a179482cbae9710a12021c6",
        "a8a333fdccaa56a6b1283a32df656e7258ff89289afbd4145dab373e1aa2bed6",
    ),
    "full-warm-start": (
        "eab5e03c9cb7e10043df48b61e85d2ff4397a0af9cb2a9997ea1791980982ee3",
        "d03f1984e5165a98c92b1c6c05a99cb86f244614a3774090b6cfa26d7978c1fc",
    ),
    "full-other-space": (
        "e256859df3ce7d15ea1d1e20e4e8c7cfb8870f08fd07648feee8b5c619914492",
        "59eb503e5eec509aad2e764296d69a5c7d410ea4ba7aa98b53df2c8922344387",
    ),
}


@pytest.mark.parametrize("name", list(CONFIG_SHA256))
def test_persisted_config_and_log_are_pinned(tmp_path, toy_space, tiny_space,
                                             toy_table_file, monkeypatch, name):
    """The runs of `test_rerun_from_persisted_config` whose command holds no
    interpreter path, plus a replay onto another space file: each run and
    its replay from config.json write the pinned bytes."""
    tactic, _, mode = name.partition("-")
    monkeypatch.chdir(tmp_path)
    save_space(toy_space, "toy_space.json")
    run_args = ["--space", "toy_space.json", "--evaluator", "synthetic:clx-like"]
    if mode == "noise":
        run_args += ["--noise-scale", "0.05", "--noise-seed", "3"]
    elif mode == "table":
        shutil.copyfile(toy_table_file, "toy_table.json")
        run_args[3] = "table:toy_table.json"
    elif mode == "warm-start":
        write_toy_history(tmp_path / "history.jsonl", toy_space)
        run_args += ["--warm-start", "history.jsonl"]
    assert run_cli("search", tactic, *run_args, *RUN_SIZES[tactic], "--seed", "11",
                   "--out", "first") == 0
    replay = ["--config", "first/config.json"]
    if mode == "other-space":
        save_space(tiny_space, "tiny_space.json")
        replay += ["--space", "tiny_space.json"]
    assert run_cli("search", tactic, *replay, "--out", "second") == 0
    runs = ("second",) if mode == "other-space" else ("first", "second")
    for run in runs:
        got = tuple(hashlib.sha256(Path(run, f).read_bytes()).hexdigest()
                    for f in ("config.json", "evals.jsonl"))
        assert got == CONFIG_SHA256[name], f"{run}: {DIGEST_MOVED}"


# sha256 of the evals.jsonl of a validation-only full search on a preset
# space, the first pin whose top1 sums run over more genes than the toy
# space's: the synthetic surface adds them up in position order, and no BLAS
# call lies on this run's path, so the bytes hold on any host and thread count.
# Taken again at trajectory version 3 (the row-hash tie-break).
PRESET_EVALS_SHA256 = "1f6ba79384d230005443d9bedbdd52a968b67d296d1df2db7ec1eddd0b4ec653"


def test_preset_space_log_is_pinned(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "search", "full", "--space", "mobilenetv3-like", "--evaluator", "synthetic:clx-like",
        "--predictor", "none", "--pop", "20", "--gens", "10", "--seed", "11", "--out", str(out),
    ) == 0
    got = hashlib.sha256((out / "evals.jsonl").read_bytes()).hexdigest()
    assert got == PRESET_EVALS_SHA256, DIGEST_MOVED


@pytest.mark.parametrize(
    "tactic, flag", [("concurrent", "--pop"), ("concurrent", "--iters"), ("full", "--pop")]
)
def test_zero_run_size_is_config_error(tmp_path, toy_space_file, tactic, flag):
    out = tmp_path / "run"
    code = run_cli(
        "search", tactic, "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like", *RUN_SIZES[tactic], flag, "0",
        "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


EXTERNAL_GENES_SUM = ["--evaluator", f"external:{sys.executable} {DOUBLE} genes-sum",
                      "--objective", "top1:maximize", "--objective", "latency_ms:minimize"]

# A file that carries a removed setting predates trajectory versions: its
# replay reports its version, not the key.
OLDER_FILE = f"{{config}}: trajectory version none, not {TRAJECTORY}: "


@pytest.mark.parametrize("tactic, flags, doc, message", [
    ("full", ["--train", "0"], None, "n_train must be >= 1"),
    ("concurrent", ["--predictor", "none"], None,
     "objective 'top1' is predicted with predictor family 'none'"),
    ("concurrent", ["--predictor-for", "top1:none"], None,
     "objective 'top1' is predicted with predictor family 'none'"),
    ("concurrent", [], {"validation_only_objectives": ["latency_ms"]}, OLDER_FILE),
    ("concurrent", [], {"inner_population": 20}, OLDER_FILE),
    ("full", [*EXTERNAL_GENES_SUM[:2], "--objective", "top1:maximize",
              "--objective", "top1:minimize"], None, "objective names must be unique"),
    ("concurrent", [*EXTERNAL_GENES_SUM[:2]], None,
     "fronts and hypervolume take exactly two objectives, got 0: []"),
    ("concurrent", [*EXTERNAL_GENES_SUM[:2], "--objective", "top1:maximize"], None,
     "fronts and hypervolume take exactly two objectives, got 1: ['top1']"),
    ("full", [*EXTERNAL_GENES_SUM, "--objective", "params:minimize"], None,
     "fronts and hypervolume take exactly two objectives, got 3: "
     "['top1', 'latency_ms', 'params']"),
    ("concurrent", ["--ridge-lambda", "-1"], None,
     "ridge_lambda must be finite and >= 0, got -1.0"),
    ("concurrent", ["--ridge-lambda", "inf"], None,
     "ridge_lambda must be finite and >= 0, got inf"),
    ("concurrent", [], {"crossover_rate": 0.8}, OLDER_FILE),
    ("concurrent", [], {"mutation_rate": 0.3}, OLDER_FILE),
    ("full", [], {"duplicate_retry_budget": 5}, OLDER_FILE),
    ("concurrent", [], {"predictor": {"svr_c": -1}}, OLDER_FILE),
    ("concurrent", [], {"predictor": {"svr_epsilon": 0.5}}, OLDER_FILE),
    ("concurrent", [], {"predictor": {"svr_kernel": "linear"}}, OLDER_FILE),
    ("concurrent", [], {"predictor": {"svr_gamma": 2}}, OLDER_FILE),
    ("concurrent", [], {"trajectory": TRAJECTORY, "predictor": {"encoding": "binary"}},
     "{config}: unknown encoding 'binary'"),
    ("concurrent", [], {"trajectory": TRAJECTORY, "predictor": {"families": [1]}},
     "{config}: families must be dict, got [1]"),
    ("concurrent", ["--predictor-for", "latency:svr"], None,
     "predictor families name 'latency', which is not an objective of this run: "
     "['top1', 'latency_ms']"),
    ("full", [], {"trajectory": TRAJECTORY, "predictor": {"families": {"latency": "svr"}}},
     "predictor families name 'latency', which is not an objective of this run"),
    ("full", [*EXTERNAL_GENES_SUM, "--timeout", "-1"], None,
     "--timeout must be finite and > 0, got -1.0"),
    ("full", [*EXTERNAL_GENES_SUM, "--timeout", "inf"], None,
     "--timeout must be finite and > 0, got inf"),
    ("concurrent", ["--noise-scale", "inf"], None,
     "noise_scale must be finite and >= 0, got inf"),
    ("concurrent", ["--noise-scale", "nan"], None,
     "noise_scale must be finite and >= 0, got nan"),
    ("full", ["--noise-scale", "-1"], None, "noise_scale must be finite and >= 0, got -1.0"),
    ("full", ["--seed", str(10**39)], None,
     f"seed must be in [-2**127, 2**127), got {10**39}"),
    ("concurrent", ["--noise-seed", str(10**39)], None,
     f"noise_seed must be in [-2**127, 2**127), got {10**39}"),
    ("full", [], {"trajectory": TRAJECTORY, "warm_start": [[1, 3]]},
     "{config}: warm_start: cannot repair genotype of length 2 for genome length 10"),
    ("concurrent", ["--ridge-lambda", "0"], None,
     "ridge_lambda must be > 0 for ridge on one_hot features, whose centered columns sum to 0 "
     "per position, got 0.0"),
    ("full", ["--predictor", "svr", "--predictor-for", "latency_ms:ridge", "--ridge-lambda", "0"],
     None, "ridge_lambda must be > 0 for ridge on one_hot features"),
    ("concurrent", ["--pop", "1", "--predictor", "svr"], None,
     "objective 'top1' is predicted with predictor family 'svr', which needs at least 2 "
     "training rows; the first fit has 1"),
    ("full", ["--train", "1", "--predictor-for", "latency_ms:svr"], None,
     "objective 'latency_ms' is predicted with predictor family 'svr', which needs at least 2 "
     "training rows; the first fit has 1"),
    ("full", ["--predictor", "none", "--predictor-for", "top1:ridge"], None,
     "predictor families give 'top1' family 'ridge', but a full search of predictor family "
     "'none' fits no predictor"),
], ids=["n-train", "predictor-none", "objective-predictor-none", "validation-only",
        "inner-population", "duplicate-objective", "external-without-objectives",
        "one-objective", "three-objectives",
        "ridge-lambda", "ridge-lambda-inf",
        "crossover-rate", "mutation-rate", "duplicate-retry-budget", "svr-c",
        "svr-epsilon", "svr-kernel", "svr-gamma", "encoding", "families",
        "predictor-for-unknown-objective", "families-unknown-objective", "timeout",
        "timeout-inf", "noise-scale-inf", "noise-scale-nan", "noise-scale-negative",
        "seed-beyond-hash", "noise-seed-beyond-hash", "warm-start-length",
        "ridge-lambda-zero-one-hot", "ridge-lambda-zero-for-one-objective",
        "svr-one-row-concurrent", "svr-one-row-full", "predictor-for-unused-under-none"])
def test_search_config_error_precedes_the_run_directory(tmp_path, toy_space_file, capsys,
                                                        tactic, flags, doc, message):
    # `doc`: a replayed config.json; without `trajectory`, an older version's
    config = tmp_path / "config.json"
    if doc:
        config.write_text(json.dumps(doc))
        flags = ["--config", str(config)]
    out = tmp_path / "run"
    code = run_cli(
        "search", tactic, "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        *RUN_SIZES[tactic], *flags, "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == 2, err
    assert not out.exists()
    assert f"config error: {message.format(config=config)}" in err


THREE_SPECS = [{"name": name, "direction": "minimize", "unit": ""}
               for name in ("top1", "latency_ms", "params")]


@pytest.mark.parametrize("source", ["table", "config"])
def test_search_of_three_objectives_from_a_file_is_config_error(tmp_path, toy_space_file,
                                                               capsys, source):
    """Three objectives declared by a `table:` file, or by a replayed
    config.json's `objectives` for its external evaluator: the search names
    the count before the run directory exists or the evaluator is started."""
    spoken = tmp_path / "spoken.jsonl"  # the evaluator's record of each line it reads
    if source == "table":
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"objectives": THREE_SPECS, "entries": []}))
        flags = ["--space", toy_space_file, "--evaluator", f"table:{table}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "trajectory": TRAJECTORY, "space": toy_space_file, "objectives": THREE_SPECS,
            "evaluator": f"external:{sys.executable} {DOUBLE} genes-sum record={spoken}",
        }))
        flags = ["--config", str(config)]
    out = tmp_path / "run"
    assert run_cli("search", "concurrent", *flags, *RUN_SIZES["concurrent"],
                   "--out", str(out)) == 2
    assert ("config error: fronts and hypervolume take exactly two objectives, got 3: "
            "['top1', 'latency_ms', 'params']") in capsys.readouterr().err
    assert not out.exists()
    assert not spoken.exists()


@pytest.mark.parametrize("command", ["analyze", "warm-start"])
def test_log_of_three_objectives_is_config_error(tmp_path, toy_space, toy_space_file,
                                                 capsys, command):
    """A log whose header declares three objectives has no front to analyze
    or warm-start from: the command names the log and the count, and makes
    no analysis or run directory."""
    run_dir = tmp_path / "source"
    run_dir.mkdir()
    log = run_dir / "evals.jsonl"
    write_toy_history(log, toy_space, objectives=3)
    if command == "analyze":
        (run_dir / "config.json").write_text("{}")
        (run_dir / "hv_trace.csv").write_text("evaluation_count,hypervolume\r\n")
        out = run_dir / "analysis"
        code = run_cli("analyze", str(run_dir))
    else:
        out = tmp_path / "run"
        code = run_cli(
            "search", "concurrent", "--space", toy_space_file, "--evaluator",
            "synthetic:clx-like", "--warm-start", str(log), *RUN_SIZES["concurrent"],
            "--out", str(out),
        )
    assert code == 2
    assert (f"config error: {log}: fronts and hypervolume take exactly two objectives, "
            "got 3: ['f1', 'f2', 'f3']") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tactic", ["concurrent", "full"])
def test_every_config_key_has_a_flag(tactic):
    """Each key a tactic's config.json sets is the dest of a `search` flag,
    or is set by the flag named here: no setting is one that only a
    hand-edited file could change."""
    dests = set(vars(build_parser().parse_args(["search", tactic])))
    cls = FullSearchConfig if tactic == "full" else ConcurrentNasConfig
    keys = {f.name for f in dataclasses.fields(cls) if f.name != "predictor"}
    keys |= {f.name for f in dataclasses.fields(PredictorConfig)}
    by_other_flag = {"warm_start": "warm_start_log", "space_doc": "space",
                     "objectives": "objective", "families": "predictor_for"}
    assert {by_other_flag.get(k, k) for k in keys} <= dests


@pytest.mark.parametrize("version", [None, TRAJECTORY + 1, 0, True, "1", 1.0],
                         ids=["missing", "next", "zero", "true", "string", "float"])
def test_config_of_another_trajectory_version_is_config_error(tmp_path, toy_space_file,
                                                              capsys, version):
    """A run's own config.json with its `trajectory` removed (None here) or
    set to anything but the int TRAJECTORY: the replay names the file and
    both versions, and makes no run directory."""
    first = tmp_path / "first"
    assert run_cli(
        "search", "concurrent", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        *RUN_SIZES["concurrent"], "--out", str(first),
    ) == 0
    doc = json.loads((first / "config.json").read_text())
    assert doc.pop("trajectory") == TRAJECTORY
    if version is not None:
        doc["trajectory"] = version
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "replayed"
    assert run_cli("search", "concurrent", "--config", str(config), "--out", str(out)) == 2
    found = "none" if version is None else repr(version)
    assert (f"config error: {config}: trajectory version {found}, not {TRAJECTORY}: "
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("tactic, key, section, message", [
    ("concurrent", "inner_generation", None,
     "unknown key 'inner_generation' for the concurrent tactic"),
    ("concurrent", "generations", None, "unknown key 'generations' for the concurrent tactic"),
    ("full", "iterations", None, "unknown key 'iterations' for the full tactic"),
    ("full", "svr_cc", "predictor", "unknown key 'svr_cc' under predictor for the full tactic"),
], ids=["misspelled", "other-tactic", "other-tactic-full", "misspelled-predictor"])
def test_config_with_an_unknown_key_is_config_error(tmp_path, toy_space_file, capsys,
                                                     tactic, key, section, message):
    """A run's own config.json with one key added that no version wrote
    there: the replay names the key and the file, and makes no run
    directory."""
    first = tmp_path / "first"
    assert run_cli(
        "search", tactic, "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        *RUN_SIZES[tactic], "--out", str(first),
    ) == 0
    doc = json.loads((first / "config.json").read_text())
    (doc[section] if section else doc)[key] = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "replayed"
    assert run_cli("search", tactic, "--config", str(config), "--out", str(out)) == 2
    assert f"config error: {config}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tactic", ["concurrent", "full"])
@pytest.mark.parametrize(
    "doc",
    [[1, 2], {"population_size": "8"}, {"predictor": "ridge"},
     {"predictor": {"ridge_lambda": "x"}}, {"objectives": 5},
     {"objectives": [{"name": "top1"}]}, {"warm_start": [1, 2]},
     {"evaluator": 5}, {"noise_scale": "abc"}, {"space": 5}, {"seed": True},
     {"noise_seed": "x"}, {"warm_start": [[1, True, 3]]},
     {"space_doc": {"name": "x"}, "evaluator": "synthetic:clx-like"}],
    ids=["not-an-object", "mistyped-field", "mistyped-predictor",
         "mistyped-predictor-field", "mistyped-objectives",
         "incomplete-objective", "mistyped-warm-start", "mistyped-evaluator",
         "mistyped-noise-scale", "mistyped-space", "bool-seed", "mistyped-noise-seed",
         "bool-gene", "malformed-space-doc"],
)
def test_malformed_config_is_config_error(tmp_path, toy_space_file, capsys,
                                          tactic, doc):
    if isinstance(doc, dict):  # the version check comes first
        doc = {"trajectory": TRAJECTORY, **doc}
    config = tmp_path / "bad_config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    # a flag would override the config's evaluator or space document
    evaluator = [] if "evaluator" in doc else ["--evaluator", "synthetic:clx-like"]
    space = [] if "space_doc" in doc else ["--space", toy_space_file]
    code = run_cli(
        "search", tactic, *space,
        *evaluator, "--config", str(config),
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(config) in err and "trajectory version" not in err
    if "space_doc" in doc:
        assert f"config error: {config}: space_doc: malformed search-space document" in err
    assert not out.exists()


def test_warm_start_of_another_genome_length_is_config_error(tmp_path, toy_space,
                                                              capsys):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)  # 10 genes; mobilenetv3-like has 45
    code = run_cli(
        "search", "concurrent", "--space", "mobilenetv3-like",
        "--evaluator", "synthetic:clx-like", "--warm-start", str(history),
        *RUN_SIZES["concurrent"], "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert f"{history}:2:" in capsys.readouterr().err


def test_search_full_and_warm_start(tmp_path, toy_space_file):
    source = tmp_path / "source"
    assert run_cli(
        "search", "full",
        "--space", toy_space_file,
        "--evaluator", "synthetic:v100-like",
        "--pop", "10", "--gens", "5", "--train", "120",
        "--seed", "1", "--out", str(source),
    ) == 0
    drop_trajectory(source)  # a log seeds a search whatever version wrote it
    warm = tmp_path / "warm"
    assert run_cli(
        "search", "full",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--pop", "10", "--gens", "5", "--train", "120",
        "--seed", "1", "--warm-start", str(source / "evals.jsonl"),
        "--out", str(warm),
    ) == 0
    cfg = json.loads((warm / "config.json").read_text())
    assert cfg["warm_start"]  # seeds recorded for reproducibility


def test_tactic_mismatch_in_config_is_config_error(tmp_path, toy_space_file):
    run_dir = tmp_path / "run"
    assert run_cli(
        "search", "concurrent",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--pop", "8", "--iters", "1", "--inner-gens", "5",
        "--seed", "0", "--out", str(run_dir),
    ) == 0
    code = run_cli("search", "full", "--config", str(run_dir / "config.json"))
    assert code == 2


def test_missing_space_is_config_error(capsys):
    assert run_cli("search", "full", "--evaluator", "synthetic:clx-like") == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_evaluator_is_config_error(toy_space_file):
    assert run_cli(
        "search", "full", "--space", toy_space_file, "--evaluator", "quantum:magic"
    ) == 2


def test_evaluator_handshake_failure_exit_code(tmp_path, toy_space_file):
    cmd = f"{sys.executable} {DOUBLE} bad-handshake"
    code = run_cli(
        "search", "concurrent",
        "--space", toy_space_file,
        "--evaluator", f"external:{cmd}",
        "--objective", "top1:maximize",
        "--objective", "latency_ms:minimize:ms",
        "--pop", "4", "--iters", "1", "--inner-gens", "2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_evaluator_command_that_cannot_start_exit_code(tmp_path, toy_space_file, capsys):
    """A command that cannot be started is a handshake failure, not an
    internal error."""
    missing = tmp_path / "no-such-evaluator"
    code = run_cli(
        "search", "concurrent", "--space", toy_space_file, "--evaluator", f"external:{missing}",
        "--objective", "top1:maximize", "--objective", "latency_ms:minimize:ms",
        *RUN_SIZES["concurrent"], "--out", str(tmp_path / "x"),
    )
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"evaluator error: cannot start evaluator '{missing}': No such file or directory\n"


def test_external_evaluator_end_to_end(tmp_path, toy_space_file):
    out = tmp_path / "ext"
    cmd = f"{sys.executable} {DOUBLE} genes-sum"
    code = run_cli(
        "search", "concurrent",
        "--space", toy_space_file,
        "--evaluator", f"external:{cmd}",
        "--objective", "top1:maximize",
        "--objective", "latency_ms:minimize:ms",
        "--pop", "6", "--iters", "1", "--inner-gens", "4",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert (out / "evals.jsonl").exists()


def cli_process(*argv, **popen_kw):
    """The CLI run in a child process, with this checkout's package."""
    src = str(Path(subnetsearch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "subnetsearch.cli", *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath), **popen_kw,
    )


EXTERNAL_FULL = (
    "search", "full", "--predictor", "none",
    "--objective", "top1:maximize", "--objective", "latency_ms:minimize:ms",
    "--pop", "8", "--gens", "4", "--seed", "5",
)


def test_evaluator_result_missing_an_objective_exit_code(tmp_path, toy_space_file, capsys):
    cmd = f"{sys.executable} {DOUBLE} omit-last"
    code = run_cli(
        *EXTERNAL_FULL, "--space", toy_space_file, "--evaluator", f"external:{cmd}",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator error:") and "latency_ms" in err


@pytest.mark.parametrize("value", ['"fast"', "null", "NaN", "true"])
def test_evaluator_objective_not_a_finite_number_exit_code(tmp_path, toy_space_file,
                                                           capsys, value):
    """A result whose objective value is not a finite JSON number exits 3,
    and the results of the batch that arrived before it are logged."""
    out, wire = tmp_path / "x", tmp_path / "wire.log"
    cmd = f"{sys.executable} {DOUBLE} 'bad-value-after=3:{value}' record={wire}"
    code = run_cli(
        *EXTERNAL_FULL, "--space", toy_space_file, "--evaluator", f"external:{cmd}",
        "--out", str(out),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator error:") and "not all finite numbers" in err
    requests = [json.loads(line) for line in wire.read_text().splitlines()[1:4]]
    from subnetsearch.evalmgr import ResultStore

    recs = ResultStore.load(out / "evals.jsonl").records
    assert [r.genotype.genes for r in recs] == [tuple(r["genes"]) for r in requests]


EXIT_CODES = [  # a raised class, its exit code and its stderr prefix
    (ConfigError, 2, "config error: "),
    (EvaluatorError, 3, "evaluator error: "),
    (SubnetSearchError, 4, "error: "),
    (InvalidGenotype, 4, "error: "),
    (EmptyClusterSet, 4, "error: "),
    (RuntimeError, 4, "internal error: RuntimeError: "),
]


@pytest.mark.parametrize("error, code, prefix", EXIT_CODES,
                         ids=[error.__name__ for error, _, _ in EXIT_CODES])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code, prefix):
    """The exit-code map: 2 for a bad setting, 3 for an evaluator's fault,
    4 for any other engine fault and for a Python bug."""
    from subnetsearch import cli

    def fail(args):
        raise error("records mix different objective spec lists")

    monkeypatch.setattr(cli, "_cmd_space_info", fail)
    assert run_cli("space", "info", "--space", "mobilenetv3-like") == code
    assert capsys.readouterr().err == f"{prefix}records mix different objective spec lists\n"


RANK_DEFICIENT = "centered feature matrix is rank-deficient at lambda=0; use lambda>0"


def test_search_ridge_on_a_rank_deficient_batch_is_config_error(tmp_path, toy_space_file,
                                                                capsys):
    """Ridge at lambda 0 on six ordinal rows of ten genes: the fit after the
    first batch names the objective and exits 2."""
    code = run_cli(
        "search", "concurrent", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        *RUN_SIZES["concurrent"], "--pop", "6", "--encoding", "ordinal_normalized",
        "--ridge-lambda", "0", "--out", str(tmp_path / "run"),
    )
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"config error: predictor training failed for objective 'top1': {RANK_DEFICIENT}\n"


def test_predict_bench_ridge_on_a_rank_deficient_sample_is_config_error(toy_space_file, capsys):
    code = run_cli(
        "predict", "bench", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        "--objective", "top1", "--encoding", "ordinal_normalized", "--ridge-lambda", "0",
        "--train-sizes", "6", "--test-size", "20", "--trials", "1",
    )
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"config error: {RANK_DEFICIENT}\n"


@pytest.mark.parametrize("sizes", ["1", "1,50", "1:5:2"])
def test_predict_bench_svr_below_two_training_rows_evaluates_nothing(
        toy_space_file, capsys, monkeypatch, sizes):
    """An SVR training size below 2 exits 2 before the pool is evaluated."""
    import subnetsearch.cli as cli_mod

    def evaluate_batch(*args, **kwargs):
        pytest.fail("predict bench evaluated its pool")

    monkeypatch.setattr(cli_mod, "evaluate_batch", evaluate_batch)
    code = run_cli(
        "predict", "bench", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        "--objective", "top1", "--predictor", "svr", "--train-sizes", sizes,
        "--test-size", "10", "--trials", "1",
    )
    assert code == 2
    assert capsys.readouterr().err == "config error: fit_svr needs at least 2 samples\n"


def test_search_svr_fit_that_hits_its_iteration_cap_is_an_engine_error(
        tmp_path, toy_space_file, capsys, monkeypatch):
    import subnetsearch.driver as drv
    from subnetsearch.predict import fit_svr

    monkeypatch.setattr(drv, "fit_svr", lambda X, y, tol: fit_svr(X, y, tol=tol, max_iter=3))
    code = run_cli(
        "search", "concurrent", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        *RUN_SIZES["concurrent"], "--predictor", "svr", "--out", str(tmp_path / "run"),
    )
    err = capsys.readouterr().err
    assert code == 4, err
    assert err == ("error: predictor training failed for objective 'top1': SVR did not reach "
                   "KKT tolerance 0.001 in 3 iterations\n")


def test_interrupted_batch_keeps_the_answered_results(tmp_path, toy_space_file):
    """A batch cut short by a timeout exits 3, and the log keeps exactly the
    genotypes the evaluator answered."""
    out, wire = tmp_path / "run", tmp_path / "wire.log"
    cmd = f"{sys.executable} {DOUBLE} stall-after=3 record={wire}"
    proc = cli_process(
        *EXTERNAL_FULL, "--space", toy_space_file, "--evaluator", f"external:{cmd}",
        "--timeout", "2", "--out", str(out), stderr=subprocess.PIPE, text=True,
    )
    assert proc.wait(timeout=60) == 3
    assert "no evaluator response" in proc.stderr.read()
    proc.stderr.close()
    requests = [json.loads(line) for line in wire.read_text().splitlines()[1:4]]
    from subnetsearch.evalmgr import ResultStore

    recs = ResultStore.load(out / "evals.jsonl").records
    assert [r.genotype.genes for r in recs] == [tuple(r["genes"]) for r in requests]
    assert all(r.ok and r.gen == 0 for r in recs)


KILLED_RUNS = {
    "full-none": EXTERNAL_FULL,
    "concurrent": (
        "search", "concurrent",
        "--objective", "top1:maximize", "--objective", "latency_ms:minimize:ms",
        "--pop", "8", "--iters", "4", "--inner-gens", "5", "--seed", "5",
    ),
}


@pytest.mark.parametrize("run", list(KILLED_RUNS))
def test_killed_run_keeps_every_completed_batch(tmp_path, toy_space, toy_space_file, run):
    """SIGKILL while a batch is outstanding: the log holds the batches before
    it, replays without error, and equals the start of an uninterrupted
    run's log. The run's config.json is there, and replayed with an
    evaluator that answers it writes the uninterrupted run's log; a
    concurrent run's hv_trace.csv has a row per logged validation, as the
    uninterrupted run's begins, and a full --predictor none run, whose
    reference spans every validation, has none yet."""
    from subnetsearch.evalmgr import ResultStore

    argv = (*KILLED_RUNS[run], "--space", toy_space_file)
    whole = tmp_path / "whole"
    genes_sum = f"external:{sys.executable} {DOUBLE} genes-sum"
    assert cli_process(
        *argv, "--evaluator", genes_sum, "--out", str(whole), stdout=subprocess.DEVNULL,
    ).wait(timeout=60) == 0
    whole_recs = ResultStore.load(whole / "evals.jsonl", space=toy_space).records
    kept = [r.gen for r in whole_recs].index(2)  # the records of batches 0 and 1

    killed, wire = tmp_path / "killed", tmp_path / "wire.log"
    log = killed / "evals.jsonl"
    cmd = f"{sys.executable} {DOUBLE} stall-after={kept + 1} record={wire}"
    proc = cli_process(
        *argv, "--evaluator", f"external:{cmd}", "--out", str(killed),
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        # the hello and every request of batches 0 and 1, then one of batch 2:
        # batch 1 is logged and traced, and batch 2 is outstanding
        while not wire.exists() or wire.read_bytes().count(b"\n") < kept + 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):  # gone if it exited early
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its evaluator child
        proc.wait()
    replayed = ResultStore.load(log, space=toy_space).records
    fields = lambda r: (r.genotype.genes, r.objectives_raw, r.gen, r.sequence_number,
                        r.evaluator_id, r.error)
    assert list(map(fields, replayed)) == list(map(fields, whole_recs[:kept]))
    assert (whole / "evals.jsonl").read_bytes().startswith(log.read_bytes())
    if run == "concurrent":
        trace = (whole / "hv_trace.csv").read_bytes().splitlines(keepends=True)
        assert (killed / "hv_trace.csv").read_bytes() == b"".join(trace[:1 + kept])
    else:
        assert not (killed / "hv_trace.csv").exists()
    replay = tmp_path / "replay"
    assert cli_process(
        "search", argv[1], "--config", str(killed / "config.json"), "--evaluator", genes_sum,
        "--out", str(replay), stdout=subprocess.DEVNULL,
    ).wait(timeout=60) == 0
    assert (replay / "evals.jsonl").read_bytes() == (whole / "evals.jsonl").read_bytes()


class SnapshotEvaluator:
    """Evaluator double: scores as `inner` does, and copies the run
    directory to `copy` when it is asked for its batch number `batch`
    (counted from 0), before scoring it."""

    def __init__(self, inner, run_dir, batch, copy):
        self.inner, self.run_dir, self.batch, self.copy = inner, run_dir, batch, copy
        self.evaluator_id = inner.evaluator_id
        self.calls = 0

    def evaluate(self, genotypes):
        if self.calls == self.batch:
            shutil.copytree(self.run_dir, self.copy)
        self.calls += 1
        return self.inner.evaluate(genotypes)


ARTIFACTS = ("config.json", "evals.jsonl", "front.csv", "hv_trace.csv", "predicted_front.csv")


@pytest.mark.parametrize("tactic, sizes, last, traced", [
    ("concurrent", ("--pop", "10", "--iters", "5", "--inner-gens", "10"), 4, 1 + 4 * 10),
    ("full", ("--pop", "10", "--gens", "10", "--train", "30"), 1, 1 + 30),
])
def test_streamed_artifacts_are_final_before_the_last_batch(
    tmp_path, toy_space, toy_space_file, monkeypatch, tactic, sizes, last, traced,
):
    """When the last batch is asked for, config.json and predicted_front.csv
    already hold their final bytes and hv_trace.csv a row per validation
    before that batch; the same config run in memory and exported writes
    the streamed run's five files byte for byte."""
    from subnetsearch import cli
    from subnetsearch.driver import config_from_doc, search
    from subnetsearch.evalmgr import SyntheticSurfaceEvaluator

    run, copy = tmp_path / "run", tmp_path / "before-last-batch"
    build = cli._build_evaluator

    def snapshotting(*args, **kwargs):
        evaluator, specs = build(*args, **kwargs)
        return SnapshotEvaluator(evaluator, run, last, copy), specs

    monkeypatch.setattr(cli, "_build_evaluator", snapshotting)
    assert run_cli("search", tactic, "--space", toy_space_file, "--evaluator",
                   "synthetic:clx-like", *sizes, "--seed", "9", "--out", str(run)) == 0
    for name in ("config.json", "predicted_front.csv"):
        assert (copy / name).read_bytes() == (run / name).read_bytes(), name
    trace = (run / "hv_trace.csv").read_bytes().splitlines(keepends=True)
    assert len(trace) > traced
    assert (copy / "hv_trace.csv").read_bytes() == b"".join(trace[:traced])
    assert not (copy / "front.csv").exists()

    cls = FullSearchConfig if tactic == "full" else ConcurrentNasConfig
    cfg = config_from_doc(cls, json.loads((run / "config.json").read_text()), "config.json")
    surface = SyntheticSurfaceEvaluator(toy_space, "clx-like")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp and small n_train warnings
        memory = search(toy_space, surface.specs, surface, cfg).export(tmp_path / "memory")
    for name in ARTIFACTS:
        assert (memory / name).read_bytes() == (run / name).read_bytes(), name


def test_rerun_into_a_run_directory_replaces_every_artifact(tmp_path, toy_space_file):
    """A run into the directory of another writes the files a run into a
    new directory writes, and no other: no predicted_front.csv of the
    earlier run is left beside them. A rerun that fails partway leaves none
    of the earlier run's files either."""
    run = ("search", "concurrent", "--space", toy_space_file)
    first = (*run, "--evaluator", "synthetic:clx-like",
             "--pop", "20", "--iters", "3", "--inner-gens", "5", "--seed", "7")
    x, fresh = tmp_path / "x", tmp_path / "fresh"
    assert run_cli(*first, "--out", str(x)) == 0
    assert (x / "predicted_front.csv").exists()
    second = (*run, "--evaluator", "synthetic:clx-like", "--pop", "20", "--iters", "1",
              "--seed", "8")
    assert run_cli(*second, "--out", str(x)) == 0
    assert run_cli(*second, "--out", str(fresh)) == 0
    assert sorted(p.name for p in x.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        assert (x / path.name).read_bytes() == path.read_bytes(), path.name

    assert run_cli(*first, "--out", str(x)) == 0
    bad = f"external:{sys.executable} {DOUBLE} bad-value-after=25:null"
    failing = (*run, "--evaluator", bad, "--objective", "top1:maximize",
               "--objective", "latency_ms:minimize", "--pop", "20", "--iters", "3",
               "--seed", "8")
    assert run_cli(*failing, "--out", str(x)) == 3
    assert sorted(p.name for p in x.iterdir()) == ["config.json", "evals.jsonl",
                                                   "hv_trace.csv"]
    assert json.loads((x / "config.json").read_text())["seed"] == 8
    assert len((x / "hv_trace.csv").read_text().splitlines()) == 1 + 20


@pytest.mark.parametrize("name", ARTIFACTS)
def test_rerun_into_a_run_directory_with_a_directory_at_an_artifact_exits_2(
    tmp_path, toy_space_file, capsys, name,
):
    """A directory at one of the five file names exits 2 naming it, before
    the earlier run's files are touched or any genotype is evaluated."""
    x = tmp_path / "x"
    run = ("search", "concurrent", "--space", toy_space_file, "--evaluator",
           "synthetic:clx-like", *RUN_SIZES["concurrent"], "--out", str(x))
    assert run_cli(*run, "--seed", "1") == 0
    (x / name).unlink()
    (x / name).mkdir()
    before = {p.name: p.read_bytes() for p in x.iterdir() if p.is_file()}
    capsys.readouterr()
    assert run_cli(*run, "--seed", "2") == 2
    assert capsys.readouterr().err == f"config error: {x / name}: Is a directory\n"
    assert {p.name: p.read_bytes() for p in x.iterdir() if p.is_file()} == before


def test_warm_start_from_the_run_directory_it_replaces(tmp_path, toy_space_file):
    """`--warm-start x/evals.jsonl --out x` reads the old log before the
    new run's log replaces it."""
    run = ("search", "concurrent", "--space", toy_space_file, *RUN_SIZES["concurrent"])
    x = tmp_path / "x"
    assert run_cli(*run, "--evaluator", "synthetic:v100-like", "--out", str(x)) == 0
    old = tmp_path / "old.jsonl"
    shutil.copyfile(x / "evals.jsonl", old)
    ref = tmp_path / "ref"
    warm = ("--evaluator", "synthetic:clx-like", "--warm-start")
    assert run_cli(*run, *warm, str(old), "--out", str(ref)) == 0
    assert run_cli(*run, *warm, str(x / "evals.jsonl"), "--out", str(x)) == 0
    assert json.loads((x / "config.json").read_text())["warm_start"]
    for name in ("evals.jsonl", "config.json"):
        assert (x / name).read_bytes() == (ref / name).read_bytes(), name


def test_popdb_command_threshold_rule(tmp_path, toy_space_file):
    run_dir = tmp_path / "history"
    assert run_cli(
        "search", "full",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--predictor", "none",
        "--pop", "20", "--gens", "30",
        "--seed", "5", "--out", str(run_dir),
    ) == 0
    constraints_path = tmp_path / "constraints.json"
    code = run_cli(
        "popdb",
        "--history", str(run_dir / "evals.jsonl"),
        "--space", toy_space_file,
        "--threshold", "0.01",
        "--min-cluster-size", "20", "--min-samples", "5",
        "--out", str(constraints_path),
    )
    assert code == 0
    doc = json.loads(constraints_path.read_text())
    # recompute frequencies from the history and check the threshold rule
    from subnetsearch.evalmgr import ResultStore
    from subnetsearch.popdb import (
        build_constraints,
        elastic_frequencies,
        hdbscan,
        history_features,
    )
    from subnetsearch.space import load_space, rank_matrix

    space = load_space(toy_space_file)
    store = ResultStore.load(run_dir / "evals.jsonl", space=space)
    ranks = rank_matrix(store.validation_columns()[1], space)
    feats, idx = history_features(ranks, space)
    labeling = hdbscan(feats, 20, 5)
    table = elastic_frequencies(labeling, ranks[idx], space)
    expected = build_constraints(table, 0.01, space)
    assert tuple(tuple(v) for v in doc["allowed"]) == expected


def test_popdb_space_document_closes_the_search_loop(tmp_path, toy_space, toy_space_file,
                                                      capsys):
    """History, then popdb, then a search on the reduced space it writes,
    through the CLI alone; `space info` reads the same document. The reduced
    run logs canonical genotypes of the full space, scored on its surface,
    and warm starts cross between the two spaces either way."""
    from subnetsearch.evalmgr import ResultStore, SyntheticSurfaceEvaluator
    from subnetsearch.space import canonical_ranks, cardinality

    history, doc_path = tmp_path / "history", tmp_path / "doc.json"
    assert run_cli(
        "search", "full", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        "--predictor", "none", "--pop", "20", "--gens", "30", "--seed", "5",
        "--out", str(history),
    ) == 0
    assert run_cli(
        "popdb", "--history", str(history / "evals.jsonl"), "--space", toy_space_file,
        "--threshold", "0.2", "--min-cluster-size", "20", "--min-samples", "5",
        "--out", str(doc_path),
    ) == 0
    doc = json.loads(doc_path.read_text())
    assert doc["history"] == str(history / "evals.jsonl") and doc["threshold"] == 0.2
    # the parent's document plus the values kept per position
    assert {k: doc[k] for k in ("name", "params", "blocks")} == space_to_dict(toy_space)
    reduced = space_from_dict(doc)
    assert [list(vals) for vals in reduced.reduction] == doc["allowed"]
    assert cardinality(reduced) < 8100  # some value was excluded
    run, replay = tmp_path / "run", tmp_path / "replay"
    assert run_cli(
        "search", "concurrent", "--space", str(doc_path), "--evaluator", "synthetic:clx-like",
        "--pop", "20", "--iters", "2", "--inner-gens", "8", "--seed", "3", "--out", str(run),
    ) == 0
    assert run_cli("search", "concurrent", "--config", str(run / "config.json"),
                   "--out", str(replay)) == 0
    for name in ("evals.jsonl", "config.json"):
        assert (run / name).read_bytes() == (replay / name).read_bytes(), name
    store = ResultStore.load(run / "evals.jsonl")
    recs = store.records
    assert len(recs) == 40 and store.space_name == "toy"
    # canonical in the full space, every active gene allowed, full-surface objectives
    inactive = canonical_ranks([r.genotype for r in recs], toy_space)[1]
    scored = SyntheticSurfaceEvaluator(toy_space, "clx-like").evaluate([r.genotype for r in recs])
    for r, off, vec in zip(recs, inactive, scored):
        assert all(o or v in vals for v, vals, o in zip(r.genotype.genes, doc["allowed"], off))
        assert r.objectives_raw.values == vec.values
    for space, warm in ((toy_space_file, run), (str(doc_path), history)):
        assert run_cli(
            "search", "concurrent", "--space", space, "--evaluator", "synthetic:clx-like",
            "--pop", "10", "--iters", "1", "--inner-gens", "4", "--seed", "4",
            "--warm-start", str(warm / "evals.jsonl"), "--out", str(tmp_path / "warm"),
        ) == 0
    for r in ResultStore.load(tmp_path / "warm" / "evals.jsonl", space=reduced).records:
        assert canonicalize(r.genotype, reduced) == r.genotype
    capsys.readouterr()
    assert run_cli("space", "info", "--space", str(doc_path)) == 0
    assert f"cardinality:   {cardinality(reduced):.4e}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["popdb", "predict bench"])
def test_out_in_a_new_directory_is_created(tmp_path, toy_space, toy_space_file, command):
    out = tmp_path / "new" / "dir" / "out"
    if command == "popdb":
        history = tmp_path / "evals.jsonl"
        write_toy_history(history, toy_space, n=200)
        argv = ("popdb", "--history", str(history), "--space", toy_space_file,
                "--min-cluster-size", "5", "--min-samples", "3")
    else:
        argv = ("predict", "bench", "--space", toy_space_file,
                "--evaluator", "synthetic:clx-like", "--objective", "top1",
                "--train-sizes", "20", "--test-size", "20", "--trials", "1")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.is_file()


@pytest.mark.parametrize("max_points", ["0", "-1"])
def test_popdb_max_points_below_one_is_config_error(tmp_path, toy_space, toy_space_file,
                                                    capsys, max_points):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)
    code = run_cli(
        "popdb", "--history", str(history), "--space", toy_space_file,
        "--max-points", max_points, "--out", str(tmp_path / "doc.json"),
    )
    assert code == 2
    assert f"max_points must be >= 1, got {max_points}" in capsys.readouterr().err
    assert not (tmp_path / "doc.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--threshold", "1.5", "threshold must be in [0, 1], got 1.5"),
    ("--threshold", "nan", "threshold must be in [0, 1], got nan"),
    ("--min-cluster-size", "1", "min_cluster_size must be >= 2, got 1"),
    ("--min-samples", "0", "min_samples must be >= 1, got 0"),
    ("--max-points", "0", "max_points must be >= 1, got 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_popdb_flags_are_checked_before_the_history_loads(tmp_path, toy_space_file,
                                                          monkeypatch, capsys,
                                                          flag, value, message):
    from subnetsearch import cli

    def load(*args, **kwargs):
        raise AssertionError("the history was loaded")

    monkeypatch.setattr(cli.ResultStore, "load", load)
    code = run_cli(
        "popdb", "--history", str(tmp_path / "evals.jsonl"), "--space", toy_space_file,
        "--max-points", "5", flag, value, "--out", str(tmp_path / "doc.json"),
    )
    assert code == 2
    assert f"config error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "doc.json").exists()


def write_toy_history(path, toy_space, n=60, objectives=2):
    from subnetsearch.evalmgr import ResultStore
    from subnetsearch.objectives import ObjectiveSpec, ObjectiveVector
    from subnetsearch.space import sample_uniform

    specs = tuple(ObjectiveSpec(f"f{k}", "minimize") for k in range(1, objectives + 1))
    store = ResultStore(specs, space=toy_space, path=path)
    genotypes = list(dict.fromkeys(sample_uniform(toy_space, 2 * n, 3)))[:n]
    outs = [ObjectiveVector((float(i), float(n - i), float(i % 7))[:objectives], specs)
            for i in range(len(genotypes))]
    store.append_batch(gene_rows(genotypes), outs, "e1")
    store.close()


def tear_line(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    return len(lines)


def drop_objectives(lines):
    doc = json.loads(lines[5])
    del doc["objectives_raw"]
    lines[5] = json.dumps(doc) + "\n"
    return 6


def unknown_record_type(lines):
    doc = json.loads(lines[3])
    doc["type"] = "evaluation"
    lines[3] = json.dumps(doc) + "\n"
    return 4


def duplicate_validation(lines):
    doc = json.loads(lines[1])  # record 0 again, at record 3's position
    doc["seq"] = 3
    lines[4] = json.dumps(doc) + "\n"
    return 5


def edit_record(line: int, message: str, **fields):
    """A corruption that sets `fields` in the record on `line`, which `load`
    reports with `message`."""
    def corrupt(lines):
        doc = json.loads(lines[line - 1])
        doc.update(fields)
        lines[line - 1] = json.dumps(doc) + "\n"
        return line

    corrupt.__name__ = "_".join(f"{k}={v}" for k, v in fields.items())
    corrupt.message = message
    return corrupt


# records that a log of one run cannot hold: another evaluator's, one of
# another source, an evaluator id that is not a string, and a repeated seq
ONE_RUN_FAULTS = [
    edit_record(5, "evaluator 'synthetic:v100-like' cannot add to the log of evaluator 'e1'",
                evaluator_id="synthetic:v100-like"),
    edit_record(4, "source 'predicted' is not 'validation'", source="predicted"),
    edit_record(2, "evaluator_id 7 is not a string", evaluator_id=7),
    edit_record(3, "seq 0 is not the record's position 1", seq=0),
]


@pytest.mark.parametrize(
    "corrupt",
    [tear_line, drop_objectives, unknown_record_type, duplicate_validation, *ONE_RUN_FAULTS],
)
def test_popdb_malformed_history_is_config_error(tmp_path, toy_space, toy_space_file,
                                                 capsys, corrupt):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)
    lines = history.read_text().splitlines(keepends=True)
    lineno = corrupt(lines)
    history.write_text("".join(lines))
    code = run_cli(
        "popdb", "--history", str(history), "--space", toy_space_file,
        "--out", str(tmp_path / "constraints.json"),
    )
    assert code == 2
    assert f"{history}:{lineno}:" in capsys.readouterr().err
    assert not (tmp_path / "constraints.json").exists()


@pytest.mark.parametrize("corrupt", ONE_RUN_FAULTS)
def test_warm_start_from_a_log_of_more_than_one_run_is_config_error(
        tmp_path, toy_space, toy_space_file, capsys, corrupt):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)
    lines = history.read_text().splitlines(keepends=True)
    lineno = corrupt(lines)
    history.write_text("".join(lines))
    code = run_cli(
        "search", "concurrent", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        "--warm-start", str(history), *RUN_SIZES["concurrent"], "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert f"config error: {history}:{lineno}: {corrupt.message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_popdb_history_with_a_forbidden_gene_value_is_config_error(
        tmp_path, toy_space, toy_space_file, capsys):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)
    lines = history.read_text().splitlines(keepends=True)
    doc = json.loads(lines[6])
    doc["genotype"][1] = 9  # kernel allows {3, 5, 7}
    lines[6] = json.dumps(doc) + "\n"
    lines.insert(3, "\n")  # blank lines do not count as records
    history.write_text("".join(lines))
    code = run_cli(
        "popdb", "--history", str(history), "--space", toy_space_file,
        "--out", str(tmp_path / "constraints.json"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{history}:8:" in err and "value 9 not allowed at position 1" in err
    assert not (tmp_path / "constraints.json").exists()


def test_popdb_history_of_another_genome_length_is_config_error(tmp_path, toy_space,
                                                                 capsys):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)  # 10 genes; mobilenetv3-like has 45
    code = run_cli(
        "popdb", "--history", str(history), "--space", "mobilenetv3-like",
        "--out", str(tmp_path / "constraints.json"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{history}:2:" in err and "10 genes" in err


def test_analyze_outputs(tmp_path, toy_space_file):
    run_dir = tmp_path / "run"
    assert run_cli(
        "search", "concurrent",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--pop", "10", "--iters", "2", "--inner-gens", "8",
        "--seed", "9", "--out", str(run_dir),
    ) == 0
    before = sorted(p.name for p in run_dir.iterdir())
    assert run_cli("analyze", str(run_dir)) == 0
    after = sorted(p.name for p in run_dir.iterdir() if p.name != "analysis")
    assert before == after  # original artifacts untouched
    analysis = run_dir / "analysis"
    assert (analysis / "normalized_front.csv").exists()
    assert (analysis / "summary.txt").exists()
    assert list((analysis / "populations").glob("gen_*.csv"))

    # normalized column obeys (l - l_min) / l_max with the run's observed bounds
    from subnetsearch.evalmgr import ResultStore

    store = ResultStore.load(run_dir / "evals.jsonl")
    k = [s.name for s in store.specs].index("latency_ms")
    lats = [r.objectives_raw.values[k] for r in validation_records(store)]
    l_min, l_max = min(lats), max(lats)
    with open(analysis / "normalized_front.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        raw = float(row["latency_ms_raw"])
        assert float(row["latency_ms_normalized"]) == pytest.approx(
            (raw - l_min) / l_max
        )


def run_with_latencies(tmp_path, toy_space_file, latency):
    """A small validation-only run whose log's latency_ms values are replaced
    by `latency(seq, value)`, as an outside evaluator could have measured
    them; returns the run directory and the new latencies."""
    run_dir = tmp_path / "run"
    assert run_cli(
        "search", "full", "--space", toy_space_file, "--evaluator", "synthetic:clx-like",
        "--predictor", "none", "--pop", "8", "--gens", "3", "--seed", "5",
        "--out", str(run_dir),
    ) == 0
    log = run_dir / "evals.jsonl"
    header, *docs = map(json.loads, log.read_text().splitlines())
    for doc in docs:
        raw = doc["objectives_raw"]
        raw["latency_ms"] = latency(doc["seq"], raw["latency_ms"])
    log.write_text("".join(json.dumps(d, separators=(",", ":")) + "\n"
                           for d in [header, *docs]))
    return run_dir, [d["objectives_raw"]["latency_ms"] for d in docs]


def test_analyze_normalizes_zero_and_negative_latencies(tmp_path, toy_space_file):
    """(l - l_min) / l_max needs only l_max != 0: a measured latency of 0.0 or
    below is normalized like any other, with the same float operations."""
    run_dir, lats = run_with_latencies(
        tmp_path, toy_space_file, lambda seq, v: {0: 0.0, 1: -1.5}.get(seq, v)
    )
    assert run_cli("analyze", str(run_dir)) == 0
    l_min, l_max = min(lats), max(lats)
    with open(run_dir / "analysis" / "normalized_front.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"0.0", "-1.5"} <= {row["latency_ms_raw"] for row in rows}
    for row in rows:
        l = float(row["latency_ms_raw"])
        assert row["latency_ms_normalized"] == repr((l - l_min) / l_max)


def test_analyze_refuses_a_latency_column_whose_largest_value_is_0(tmp_path, toy_space_file,
                                                                    capsys):
    run_dir, _ = run_with_latencies(
        tmp_path, toy_space_file, lambda seq, v: 0.0 if seq == 3 else -v
    )
    capsys.readouterr()
    assert run_cli("analyze", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {run_dir / 'evals.jsonl'}: objective 'latency_ms' ")
    assert not (run_dir / "analysis").exists()


# sha256 of every file `analyze` writes, per run, recorded while `analyze`
# still read its rows from records, and taken again at trajectory version 3
# (the row-hash tie-break)
ANALYZE_SHA256 = {
    "concurrent": {
        "normalized_front.csv": "ef0f1d65c945a819d51c000412cb5acd018ff4a0721c9e6f7ad83c6116d2245b",
        "populations/gen_0000.csv": "ba1d8e4cc652381f217ec8150628503cc4eda252ae7f629d867e4533c74a7f34",
        "populations/gen_0001.csv": "fdcadae93b1ba73bcfcbd704b85bb1f4be85eaacc82770e122fbc9ea0bd7fb56",
        "populations/gen_0002.csv": "2b3edd9e4a7403dd3f265b2d25ff9149e434c0563b0a9c3c2884a0a8f1affcc0",
        "summary.txt": "6d198daca6244243dae1d8bbbfe1274d0710340e3aa1c5c22d5d8945d7dbc03a",
    },
    "full-none": {
        "normalized_front.csv": "aa1dedc325854722231990e526be3c7044431de95577fd0a1d8cc34ea274be1d",
        "populations/gen_0000.csv": "656e7fd10fc436dcf8ea4df2d1a733c40290195ef63fdbcaf06c78aee189c8b6",
        "populations/gen_0001.csv": "62e6fe37ed136b6a1d118a5536e15683996950a69e98f7073e183e6fcb80d6c4",
        "populations/gen_0002.csv": "32cd6e766c4d8f39e18d677bc28ec7ae87ac552d9454a848ae4d3258e51a51cd",
        "populations/gen_0003.csv": "41476243148e9dac47386f0c44a2bf5eb1ae726fb8cd006d5e969557a2e8fb7e",
        "populations/gen_0004.csv": "6beaa43db439d8cf683c71846f99b5261b28a230ecf6e6fe98f182c7c9ebb833",
        "populations/gen_0005.csv": "2a9cdacddf17e2d14ca19c312d757bbf3c789a5b0e5c7b3aadd87583efe444e7",
        "summary.txt": "5346afe19cb8554b9012e107e068bffc0369412d15baff1a6d9930fc9cc43974",
    },
}


@pytest.mark.parametrize("name", list(ANALYZE_SHA256))
def test_analyze_outputs_are_pinned(tmp_path, toy_space_file, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # summary.txt names the run directory as given
    flags = {
        "concurrent": ("concurrent", "--pop", "10", "--iters", "3", "--inner-gens", "8",
                       "--seed", "9"),
        "full-none": ("full", "--predictor", "none", "--pop", "8", "--gens", "5",
                      "--seed", "5"),
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp warning of some runs
        assert run_cli(
            "search", flags[0], "--space", toy_space_file,
            "--evaluator", "synthetic:clx-like", *flags[1:], "--out", "run",
        ) == 0
        drop_trajectory("run")  # analyze reads a run of any version
        assert run_cli("analyze", "run") == 0
    analysis = Path("run") / "analysis"
    got = {
        str(path.relative_to(analysis)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(analysis.rglob("*")) if path.is_file()
    }
    assert got == ANALYZE_SHA256[name], DIGEST_MOVED


def test_analyze_missing_artifact_diagnostic(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("analyze", str(empty)) == 2
    err = capsys.readouterr().err
    assert "config.json" in err


TORN = '{"objectives": [\n  {"name": "top1",'


@pytest.mark.parametrize(
    "argv, content",
    [
        (["search", "concurrent", "--space", "{doc}",
          "--evaluator", "synthetic:clx-like", "--out", "{out}"], TORN),
        (["space", "info", "--space", "{doc}"], TORN),
        (["search", "full", "--space", "{space}", "--evaluator", "table:{doc}",
          "--out", "{out}"], TORN),
        (["analyze", "{run}"], TORN),
        (["analyze", "{run}"], "[1, 2]"),
        (["search", "concurrent", "--space", "{doc}",
          "--evaluator", "synthetic:clx-like", "--out", "{out}"], b"\xff\xfe{}"),
    ],
    ids=["torn-space", "torn-space-info", "torn-table", "torn-run-config",
         "run-config-not-an-object", "space-not-utf8"],
)
def test_malformed_input_document_is_config_error(tmp_path, toy_space_file, capsys,
                                                  argv, content):
    run = tmp_path / "run"
    if argv[0] == "analyze":
        assert run_cli(
            "search", "concurrent", "--space", toy_space_file,
            "--evaluator", "synthetic:clx-like",
            "--pop", "6", "--iters", "1", "--inner-gens", "2", "--out", str(run),
        ) == 0
        capsys.readouterr()
        doc = run / "config.json"
    else:
        doc = tmp_path / "input.json"
    if isinstance(content, bytes):
        doc.write_bytes(content)
    else:
        doc.write_text(content)
    out = tmp_path / "out"
    argv = [a.format(doc=doc, run=run, space=toy_space_file, out=out) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert str(doc) in err
    if content is TORN:
        assert f"{doc}:2: invalid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["popdb", "predict bench", "search", "analyze"])
def test_out_that_cannot_be_opened_is_config_error(tmp_path, toy_space, toy_space_file,
                                                   monkeypatch, capsys, command):
    """An --out path that is a directory where a file is written, or a file
    where a directory is made, exits 2 naming it; popdb and predict bench
    find it before they load the history or evaluate, and nothing prints."""
    from subnetsearch import cli

    run, history = tmp_path / "run", tmp_path / "evals.jsonl"
    if command in ("search", "analyze"):
        out = tmp_path / "a-file"
        out.write_text("")
    else:
        out = tmp_path / "a-directory"
        out.mkdir()
    argv = {
        "popdb": ("popdb", "--history", str(history), "--space", toy_space_file,
                  "--min-cluster-size", "5", "--min-samples", "3"),
        "predict bench": ("predict", "bench", "--space", toy_space_file,
                          "--evaluator", "synthetic:clx-like", "--objective", "top1",
                          "--train-sizes", "20", "--test-size", "20", "--trials", "1"),
        "search": ("search", "concurrent", "--space", toy_space_file,
                   "--evaluator", "synthetic:clx-like", *RUN_SIZES["concurrent"]),
        "analyze": ("analyze", str(run)),
    }[command]
    write_toy_history(history, toy_space, n=200)
    assert run_cli("search", "concurrent", "--space", toy_space_file, "--evaluator",
                   "synthetic:clx-like", *RUN_SIZES["concurrent"], "--out", str(run)) == 0
    capsys.readouterr()

    def work(*args, **kwargs):
        raise AssertionError("the work began before --out was checked")

    if command in ("popdb", "predict bench"):
        monkeypatch.setattr(cli.ResultStore, "load", work)
        monkeypatch.setattr(cli, "evaluate_batch", work)
    code = run_cli(*argv, "--out", str(out))
    printed, err = capsys.readouterr()
    assert code == 2, err
    assert err.startswith(f"config error: {out}: ")
    assert printed == ""


@pytest.mark.parametrize("command", ["popdb", "warm start"])
def test_missing_log_is_config_error(tmp_path, toy_space_file, capsys, command):
    """A log path that does not exist, or is a directory, exits 2 naming it."""
    for log in (tmp_path / "no-such-log.jsonl", tmp_path):
        argv = {
            "popdb": ("popdb", "--history", str(log), "--space", toy_space_file),
            "warm start": ("search", "concurrent", "--space", toy_space_file, "--evaluator",
                           "synthetic:clx-like", "--warm-start", str(log),
                           *RUN_SIZES["concurrent"]),
        }[command]
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: {log}: ")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit", [
    lambda doc: doc["params"][1].update(allowed_values=[0.5, 1, 2.9]),
    lambda doc: doc["params"][1].update(allowed_values=[True, 5]),
    lambda doc: doc["params"][1].update(allowed_values=[3, "5"]),
    lambda doc: doc["blocks"][0].update(max_layers=2.7),
    lambda doc: doc["params"][0].update(position_count=1.0),
], ids=["float-values", "bool-value", "string-value", "float-max-layers", "float-count"])
def test_space_file_numbers_are_checked_not_coerced(tmp_path, toy_space, capsys, edit):
    doc = space_to_dict(toy_space)
    edit(doc)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    assert run_cli("space", "info", "--space", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: malformed search-space document: ")
    assert "is not an integer" in err


@pytest.mark.parametrize("genes, top1", [
    ([1.9, "2"], 0.5), ([True, 3, 3, 3, 3, 1, 3, 3, 3, 3], 0.5),
    ([1, 3, 3, 3, 3, 1, 3, 3, 3, 3], "0.5"), ([1, 3, 3, 3, 3, 1, 3, 3, 3, 3], True),
], ids=["float-and-string-genes", "bool-gene", "string-objective", "bool-objective"])
def test_table_file_numbers_are_checked_not_coerced(tmp_path, toy_space_file, capsys,
                                                    genes, top1):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "objectives": [{"name": "top1", "direction": "maximize"},
                       {"name": "latency_ms", "direction": "minimize"}],
        "entries": [{"genes": genes, "objectives": {"top1": top1, "latency_ms": 2.0}}],
    }))
    out = tmp_path / "run"
    code = run_cli("search", "full", "--space", toy_space_file, "--evaluator", f"table:{table}",
                   *RUN_SIZES["full"], "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: malformed table file {table}: ")
    assert not out.exists()


@pytest.mark.parametrize("encoding, code", [("one_hot", 2), ("ordinal_normalized", 0)])
def test_predict_bench_ridge_lambda_zero(toy_space_file, capsys, encoding, code):
    """λ = 0 cannot fit one-hot features and exits 2 before any evaluation
    (the evaluator would exit 3 at its handshake); ordinal features fit."""
    evaluator = {2: f"external:{sys.executable} {DOUBLE} no-handshake",
                 0: "synthetic:clx-like"}[code]
    assert run_cli(
        "predict", "bench", "--space", toy_space_file, "--evaluator", evaluator,
        "--objective-spec", "top1:maximize", "--objective", "top1", "--ridge-lambda", "0",
        "--encoding", encoding, "--train-sizes", "100", "--test-size", "50", "--trials", "1",
    ) == code, capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["a,b", "100:50:10", "0,10", "10:100:0"])
def test_predict_bench_bad_train_sizes_is_config_error(toy_space_file, capsys, sizes):
    code = run_cli(
        "predict", "bench", "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like", "--objective", "top1",
        "--train-sizes", sizes, "--test-size", "100", "--trials", "1",
    )
    assert code == 2
    assert "--train-sizes" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-1"), ("--test-size", "0"), ("--test-size", "1"),
    ("--seed", str(10**39)), ("--noise-seed", str(10**39)), ("--noise-seed", str(-(2**127) - 1)),
    ("--noise-scale", "nan"), ("--noise-scale", "-1"), ("--noise-scale", "inf"),
])
def test_predict_bench_bad_sizes_are_config_errors(toy_space_file, capsys, flag, value):
    """Each size, seed and noise flag is checked before any evaluation,
    naming the flag."""
    argv = {"--train-sizes": "20", "--test-size": "20", "--trials": "1", flag: value}
    code = run_cli(
        "predict", "bench", "--space", toy_space_file,
        "--evaluator", f"external:{sys.executable} {DOUBLE} no-handshake",
        "--objective-spec", "top1:maximize", "--objective", "top1",
        *(text for item in argv.items() for text in item),
    )
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {flag} must be" in err


def test_space_info_and_constraints(tmp_path, toy_space_file, capsys):
    assert run_cli("space", "info", "--space", toy_space_file) == 0
    out = capsys.readouterr().out
    assert "8100" in out
    assert "genome length: 10" in out
    assert "reduced positions" not in out


def test_space_info_on_a_reduced_document(tmp_path, toy_space, capsys):
    """The parent's layout, a cardinality that honours the reduction, and the
    allowed values of every reduced position."""
    from subnetsearch.popdb import constrain_space
    from subnetsearch.space import cardinality

    allowed = list(toy_space.allowed)
    allowed[0] = (2,)  # blk0 always two layers deep
    allowed[1] = (5, 7)  # blk0's layer-0 kernel loses 3
    reduced = constrain_space(toy_space, allowed)
    save_space(reduced, tmp_path / "reduced.json")
    assert run_cli("space", "info", "--space", str(tmp_path / "reduced.json")) == 0
    out = capsys.readouterr().out
    assert "space:         toy\n" in out
    assert f"cardinality:   {cardinality(reduced):.4e} ({6 * 9 * 90})" in out
    assert "[1..2] blk0_kernel" in out and "values=[3, 5, 7]" in out
    reduced_lines = out.split("reduced positions:\n")[1].splitlines()
    assert [line.split() for line in reduced_lines] == [
        ["[0]", "blk0_depth", "allowed=[2]"],
        ["[1]", "blk0_kernel", "allowed=[5,", "7]"],
    ]


def test_popdb_history_of_noise_only_is_config_error(tmp_path, toy_space, toy_space_file,
                                                    capsys):
    history = tmp_path / "evals.jsonl"
    write_toy_history(history, toy_space)  # 60 records
    code = run_cli(
        "popdb", "--history", str(history), "--space", toy_space_file,
        "--min-cluster-size", "61", "--min-samples", "3",
        "--out", str(tmp_path / "constraints.json"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(history) in err and "all 60 points labeled noise" in err
    assert "--min-cluster-size 61 --min-samples 3" in err
    assert not (tmp_path / "constraints.json").exists()


def test_space_info_preset(capsys):
    assert run_cli("space", "info", "--space", "mobilenetv3-like") == 0
    assert "2.1759e+19" in capsys.readouterr().out


def test_predict_bench_runs(tmp_path, toy_space_file, capsys):
    out_csv = tmp_path / "bench.csv"
    code = run_cli(
        "predict", "bench",
        "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like",
        "--objective", "top1",
        "--train-sizes", "50,100",
        "--test-size", "100", "--trials", "2",
        "--out", str(out_csv),
    )
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "train_size,mape_mean,mape_std,tau_mean"
    assert len(rows) == 3


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(subnetsearch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, subnetsearch.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_engine_import_after_numpy_loads_no_subprocess_queue_shlex_or_statistics():
    # the external evaluator and two commands import them where they use
    # them, off the start-up of every command
    src = str(Path(subnetsearch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy\n"
         "before = set(sys.modules)\n"
         "import subnetsearch.cli\n"
         "print(*sorted(set(sys.modules) - before))"],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        check=True,
    ).stdout
    added = set(out.split())
    assert "subnetsearch.cli" in added
    assert not {"subprocess", "queue", "shlex", "statistics"} & added


def test_predict_bench_loads_no_scipy(toy_space_file):
    src = str(Path(subnetsearch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["predict", "bench", "--space", toy_space_file, "--evaluator",
            "synthetic:clx-like", "--objective", "top1", "--train-sizes", "20,40",
            "--test-size", "30", "--trials", "2"]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from subnetsearch.cli import main\n"
         f"assert main({argv!r}) == 0\n"
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["search", "concurrent", "--pop", "50", "--iters", "2", "--inner-gens", "5"],
    ["search", "full", "--predictor", "none", "--pop", "50", "--gens", "5"],
], ids=["concurrent", "full-validation-only"])
def test_search_loads_no_numpy_ma(tmp_path, toy_space_file, argv):
    # numpy.ma costs a search ~14 ms to import; np.unique's hash path (as
    # np.isin calls it) is what imports it
    src = str(Path(subnetsearch.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv += ["--space", toy_space_file, "--evaluator", "synthetic:clx-like",
             "--seed", "3", "--out", str(tmp_path / "run")]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from subnetsearch.cli import main\n"
         f"assert main({argv!r}) == 0\n"
         "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_engine_warning_is_one_line_without_its_source(tmp_path, toy_space_file, capsys):
    shown = warnings.showwarning
    code = run_cli(
        "search", "concurrent", "--space", toy_space_file,
        "--evaluator", "synthetic:clx-like", "--pop", "10", "--iters", "2",
        "--inner-gens", "10", "--seed", "4", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: 1 evaluations fell outside the hypervolume reference box "
        "and were clamped out of the front\n"
    )
    assert "driver.py:" not in err
    assert warnings.showwarning is shown
