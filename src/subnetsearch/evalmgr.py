"""Evaluation manager: evaluator dispatch, result caching, and persistence.

Evaluators are duck-typed: an `evaluator_id` string plus an
`evaluate(genotypes) -> list[ObjectiveVector | EvaluationFailure]` method.
An evaluator interrupted mid-batch may raise an `EvaluatorError`, whose
`completed` is {batch index: output} of the results that did arrive;
`evaluate_batch` logs those before the error propagates. A log is one
run: the validations of one evaluator, cached per canonical genotype in an
append-only store whose JSON-lines log replays to the identical index.

`SyntheticSurfaceEvaluator` is the one synthetic evaluator, bit-exact on any
host; it takes `Genotype`s, whose `genes` perfbench/runner.py's wrapper reads.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, EvaluatorError, InvalidGenotype, SubnetSearchError
from .objectives import (
    EvaluationRecord,
    ObjectiveSpec,
    ObjectiveVector,
    check_unique_names,
)
from .space import (
    Genotype,
    SearchSpace,
    _row_bytes,
    canonical_ranks,
    encode_matrix,
    gene_matrix,
    is_canonical,  # noqa: F401  (a trace site of perfbench/runner.py)
)
from .util import GeneText, is_json_finite, is_json_int64, read_json, row_hash, subseed


@dataclass(frozen=True)
class EvaluationFailure:
    """Per-genotype evaluation failure returned by evaluators."""

    message: str


NO_GEN = -(2**63)  # a null gen, in the gen column
_BLOCK = 256  # rows per block of whole-log passes, which bounds their temporaries


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps's output, built once
_DECODE = json.JSONDecoder().raw_decode


def _int64_rows(rows, length: int) -> np.ndarray | None:
    """The int64 matrix of gene rows of `length` values, or None when a value
    is not an integer within int64 (a bool or a float is not one)."""
    if isinstance(rows, np.ndarray):
        return rows.astype(np.int64, copy=False).reshape(len(rows), length)
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        with suppress(OverflowError):
            flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * length)
            return flat.reshape(len(rows), length)
    return None


def _columns(rows: int, length: int, objectives: int) -> np.ndarray:
    """Uninitialized columns of `rows` records of `length` genes and
    `objectives` objective values."""
    return np.empty(rows, np.dtype([
        ("genes", np.int64, (length,)),
        ("objectives", np.float64, (objectives,)),
        ("gen", np.int64),
        ("failed", np.bool_),
    ], align=True))


def _room(cols: np.ndarray, rows: int) -> np.ndarray:
    """`cols`, or a copy at least twice as long when it has fewer than
    `rows` rows."""
    if rows <= len(cols):
        return cols
    grown = np.empty(max(rows, 2 * len(cols), 64), cols.dtype)
    grown[: len(cols)] = cols
    return grown


class ResultStore:
    """One run's append-only evaluation log with a validation cache, held as
    columns.

    A log holds one evaluator's validations and failures: its first record
    fixes `evaluator_id`, and a record of another is refused. Row i holds the
    record with sequence number i: its gene values as logged (a warm start
    may load values from outside the space), its raw objective values (NaN
    for a failure) and its gen; a failure's message is kept beside the
    columns. `EvaluationRecord`s are built from rows only when `records`
    asks for them, and are not kept. Every record enters through one block
    writer, `_append`, whether `append_batch` brings it or `load` replays it.

    Appends are serialized under a lock; sequence numbers define the total
    order. When `path` is given the store streams: the file starts with a
    header line carrying the objective specs, so that it replays without
    outside context, and every block is written to it as one JSON line per
    record and flushed, with the same bytes `dump` writes.
    """

    def __init__(
        self,
        specs: Sequence[ObjectiveSpec],
        space: SearchSpace | None = None,
        path: str | Path | None = None,
    ):
        check_unique_names(specs)
        self.specs = tuple(specs)
        self.space = space
        # the header's space name; a spaceless load keeps the one it read
        self.space_name = space.name if space is not None else ""
        self._n = 0
        self._cols = _columns(0, space.genome_length if space is not None else 0, len(self.specs))
        self._errors: dict[int, str] = {}
        self.evaluator_id: str | None = None  # fixed by the first record
        self._gene_text = GeneText()
        self._index: dict[bytes, int] = {}  # gene-row bytes -> row of each success
        self._lock = threading.Lock()
        self.path = None if path is None else Path(path)
        self._fh = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
            self._fh.write(self._header_line())
            self._fh.flush()

    # -- writing -----------------------------------------------------------

    def append_batch(
        self,
        genes,
        outputs: Sequence[ObjectiveVector | EvaluationFailure],
        evaluator_id: str,
        gen: int | None = None,
    ) -> None:
        """Append one batch of evaluator outputs, successes and failures, in
        order, for the gene rows `genes`, through the store's one write path
        `_append`; a single record is a batch of one."""
        if len(outputs) != len(genes):
            raise EvaluatorError(
                f"{len(outputs)} evaluator outputs for {len(genes)} genotypes"
            )
        errors = {
            r: out.message for r, out in enumerate(outputs) if isinstance(out, EvaluationFailure)
        }
        nan_row = (math.nan,) * len(self.specs)
        raw = [nan_row if r in errors else out.values for r, out in enumerate(outputs)]
        self._append(genes, raw, errors, NO_GEN if gen is None else gen, evaluator_id)

    def _append(self, genes, raw, errors: dict[int, str], gens, evaluator_id: str) -> None:
        """Append a block of k records, the one write path of a run's batches
        and of `load`: k gene rows (an int64 matrix or lists of ints), k
        objective rows, flat or not (NaN for a failure), the failures'
        {row: message} and the gens (`NO_GEN` for null), or one gen for all.

        The block is checked whole before anything is appended; a fault
        carries as `row` the first faulty row. Another evaluator than the
        log's (row 0), a gene that is not an integer within int64, or a
        validation of a genotype cached or earlier in the block is a
        ConfigError; a row of another length than the log's (a spaceless
        log's first block sets it) an InvalidGenotype. Failures are never
        cached. A streaming store writes and flushes the block's lines."""
        if not len(genes):
            return
        with self._lock:
            if self.path is not None and self._fh is None:
                raise ValueError(f"append to the closed result log {self.path}")
            i, k, width = self._n, len(genes), self._cols.dtype["genes"].shape[0]
            self._check_evaluator(evaluator_id)
            length = len(genes[0]) if self.space is None and not i else width
            # each check looks only at the rows before the last fault found
            stop = next((r for r, g in enumerate(genes) if len(g) != length), k)
            fault = InvalidGenotype(
                f"genotype has {len(genes[stop])} genes, the log's genotypes have {length}", stop
            ) if stop < k else None
            matrix = _int64_rows(genes[:stop], length)
            if matrix is None:
                stop = next(r for r, g in enumerate(genes) if not all(map(is_json_int64, g)))
                fault = ConfigError(
                    f"gene values {list(genes[stop])} are not all integers within int64", stop
                )
                matrix = _int64_rows(genes[:stop], length)
            failed = np.isin(np.arange(stop), list(errors))
            measured = np.flatnonzero(~failed)
            keys = _row_bytes(matrix[measured])
            if len(set(keys)) < len(keys) or not self._index.keys().isdisjoint(keys):
                seen: set[bytes] = set()  # the first key cached or seen before
                row = next(r for r, key in zip(measured.tolist(), keys)
                           if key in self._index or key in seen or seen.add(key))
                fault = ConfigError(
                    f"duplicate validation record for genotype {tuple(matrix[row].tolist())}", row
                )
            if fault is not None:
                raise fault
            if length != width:  # a spaceless log's first block
                self._cols = _columns(0, length, len(self.specs))
            self._cols = _room(self._cols, i + k)
            block = self._cols[i : i + k]
            block["genes"], block["gen"], block["failed"] = matrix, gens, failed
            block["objectives"] = np.reshape(raw, (k, len(self.specs)))
            self._errors.update((i + row, message) for row, message in errors.items())
            self._index.update(zip(keys, (measured + i).tolist()))
            self.evaluator_id, self._n = evaluator_id, i + k
            if self._fh is not None:
                self._fh.writelines(self._lines(i, i + k))
                self._fh.flush()

    def _check_evaluator(self, evaluator_id: str) -> None:
        if self.evaluator_id not in (None, evaluator_id):
            raise ConfigError(
                f"evaluator {evaluator_id!r} cannot add to the log of evaluator "
                f"{self.evaluator_id!r}: a log holds one run", 0  # every row of a block
            )

    def _lines(self, start: int, stop: int) -> list[str]:
        """The log lines of the rows from `start` to `stop`; the caller holds
        the lock. Each is the `json.dumps(doc, separators=(",", ":"))` of the
        record's document, made by formatting: ints print as json prints
        them, strings go through json's encoder, and an eval record's
        objective values are finite (ObjectiveVector and `load` reject
        others), so their repr is json's."""
        def quoted(value: str) -> str:
            return _ENCODER.encode(value).replace("%", "%%")

        objectives = ",".join(quoted(s.name) + ":%r" for s in self.specs)
        evaluator = quoted(self.evaluator_id)
        eval_format = (
            '{"type":"eval","seq":%d,"gen":%s,"genotype":[%s],'
            f'"objectives_raw":{{{objectives}}},"source":"validation",'
            f'"evaluator_id":{evaluator}}}\n'
        )
        failure_format = (
            '{"type":"failure","seq":%d,"gen":%s,"genotype":[%s],'
            f'"error":%s,"evaluator_id":{evaluator}}}\n'
        )
        text = self._gene_text
        cols = self._cols[start:stop]
        genes = [",".join(map(text.__getitem__, row)) for row in cols["genes"].tolist()]
        gens = ["null" if gen == NO_GEN else gen for gen in cols["gen"].tolist()]
        return [
            failure_format % (seq, gen, g, _ENCODER.encode(self._errors[seq]))
            if failed
            else eval_format % (seq, gen, g, *values)
            for seq, g, values, gen, failed in zip(
                range(start, stop),
                genes,
                cols["objectives"].tolist(),
                gens,
                cols["failed"].tolist(),
            )
        ]

    def _header_line(self) -> str:
        return _ENCODER.encode({
            "type": "run",
            "space": self.space_name,
            "objectives": [
                {"name": s.name, "direction": s.direction, "unit": s.unit}
                for s in self.specs
            ],
        }) + "\n"

    def dump(self, path: str | Path) -> None:
        """Write the full log (header plus every record) to a new file."""
        with self._lock, open(path, "w", encoding="utf-8") as fh:
            fh.write(self._header_line())
            for start in range(0, self._n, _BLOCK):
                fh.writelines(self._lines(start, min(start + _BLOCK, self._n)))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> list[EvaluationRecord]:
        """Every record in sequence order, built anew on each call."""
        with self._lock:
            out = []
            for start in range(0, self._n, _BLOCK):
                cols = self._cols[start : min(start + _BLOCK, self._n)]
                out += [
                    EvaluationRecord(
                        Genotype(genes),
                        None if seq in self._errors else ObjectiveVector(values, self.specs),
                        self.evaluator_id, seq, None if gen == NO_GEN else gen,
                        self._errors.get(seq),
                    )
                    for seq, genes, values, gen in zip(
                        range(start, start + len(cols)), cols["genes"].tolist(),
                        cols["objectives"].tolist(), cols["gen"].tolist(),
                    )
                ]
            return out

    def validation_columns(self):
        """(sequence numbers, gene-value matrix, raw-objective matrix, gens,
        `NO_GEN` for a null gen) of the successful validation records, in
        sequence order; builds no record."""
        with self._lock:
            cols = self._cols[: self._n]
            rows = np.flatnonzero(~cols["failed"])
            return rows, cols["genes"][rows], cols["objectives"][rows], cols["gen"][rows]

    @staticmethod
    def record_line(path: str | Path, sequence_number: int) -> int:
        """The line of a persisted log that holds record `sequence_number`:
        records follow the header line, blank lines aside."""
        with open(path, encoding="utf-8") as fh:
            nonblank = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
            for seq, lineno in enumerate(nonblank, -1):
                if seq == sequence_number:
                    return lineno
        raise ConfigError(f"{path}: no record {sequence_number}")

    @classmethod
    def load(cls, path: str | Path, space: SearchSpace | None = None) -> "ResultStore":
        """Replay a persisted log: each line is parsed and checked, and the
        records go to `_append`, a run's write path, a block at a time.

        The first faulty line raises ConfigError naming `path:line`. The
        parse finds a torn line, a missing or mistyped field (an evaluator
        id or failure error that is not a string, an objective that is not a
        finite JSON number), an unknown record type, a `seq` other than the
        record's position or a source other than "validation"; the writer
        what `append_batch` refuses: another evaluator than the first
        record's, a genotype of the wrong length (against `space`, else the
        first record), a gene that is not a JSON integer within int64, or a
        second validation of a genotype. Genes are not checked against
        `space`."""
        store = fault = None
        evaluator_id, lineno = "", 0  # the block's evaluator: a string, so the first is checked
        # the block read since the last flush, with its lines; values are flat
        genes, values, gens, lines = [], [], [], []
        errors: dict[int, str] = {}

        def flush() -> None:
            """Append the block; a writer's fault moves `lineno` to its row's."""
            nonlocal lineno
            if not lines:
                return
            try:
                store._append(genes, values, errors, gens, evaluator_id)
            except (ConfigError, InvalidGenotype) as exc:
                lineno = lines[exc.row]
                raise
            finally:
                for pending in (genes, values, gens, lines, errors):
                    pending.clear()

        try:
            try:
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        line = line.strip()
                        if not line:
                            continue
                        doc, end = _DECODE(line)  # json.loads, less its whitespace scans
                        if end < len(line):
                            raise json.JSONDecodeError("Extra data", line, end)
                        if store is None:
                            if doc.get("type") != "run":
                                raise ConfigError("missing run header line")
                            specs = tuple(
                                ObjectiveSpec(o["name"], o["direction"], o.get("unit", ""))
                                for o in doc["objectives"]
                            )
                            store = cls(specs, space=space)
                            if space is None:
                                store.space_name = doc.get("space", "")
                            names = [s.name for s in specs]
                            nan_row = [math.nan] * len(names)
                            continue
                        g, kind, eid = doc["genotype"], doc["type"], doc["evaluator_id"]
                        if kind == "eval":
                            raw, error = doc["objectives_raw"], None
                            row = [raw[name] for name in names]
                            if not all(map(is_json_finite, row)):
                                raise ConfigError(f"non-finite objective value in {tuple(row)}: "
                                                  "each must be a finite JSON number")
                            if doc["source"] != "validation":
                                raise ConfigError(
                                    f"source {doc['source']!r} is not 'validation': "
                                    "a log holds one run's validations"
                                )
                        elif kind == "failure":
                            row, error = nan_row, doc["error"]
                            if not isinstance(error, str):
                                raise ConfigError(f"error must be a string, got {error!r}")
                        else:
                            raise ConfigError(f"unknown record type {kind!r}")
                        seq, n = doc["seq"], store._n + len(lines)
                        if type(seq) is not int or seq != n:
                            raise ConfigError(f"seq {seq!r} is not the record's position {n}")
                        if type(g) is not list:
                            raise ConfigError(f"genotype must be a list, got {g!r}")
                        gen = doc.get("gen")
                        if gen is None:
                            gen = NO_GEN
                        elif type(gen) is not int or not NO_GEN < gen < 2**63:
                            raise ConfigError(f"gen must be an integer or null, got {gen!r}")
                        if eid != evaluator_id:  # a block holds one evaluator
                            if type(eid) is not str:
                                raise ConfigError(f"evaluator_id {eid!r} is not a string")
                            flush()
                            evaluator_id = eid
                        if error is not None:
                            errors[len(lines)] = error
                        genes.append(g)
                        values.extend(row)
                        gens.append(gen)
                        lines.append(lineno)
                        if len(lines) == _BLOCK:
                            flush()
            finally:
                flush()  # the records read before a faulty line precede it
        except json.JSONDecodeError as exc:
            fault = ConfigError(f"{path}:{lineno}: malformed JSON: {exc.msg}")
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            fault = ConfigError(
                f"{path}:{lineno}: malformed record: {type(exc).__name__}: {exc}"
            )
        except (ConfigError, InvalidGenotype) as exc:
            fault = ConfigError(f"{path}:{lineno}: {exc}")
        if store is None or fault is not None:
            raise fault or ConfigError(f"{path}: missing run header line")
        return store


# ---------------------------------------------------------------------------
# Batch evaluation with caching
# ---------------------------------------------------------------------------


def evaluate_batch(genes, evaluator, store: ResultStore, gen: int | None = None):
    """Evaluate the rows of an (n, L) gene-value matrix, the store's row
    form. Returns the (n, m) raw-objective matrix aligned with the rows, NaN
    in a failed row, and the failed rows' messages in row order.

    An evaluator other than the store's is a ConfigError raised before any
    dispatch. Cache hits (same canonical genotype) perform no dispatch;
    every other genotype goes to the evaluator once, as a `Genotype`, and
    the dispatched ones are appended to the store as one batch. Failures
    are logged but not cached, so a later batch may retry them. When the
    evaluator raises, the outputs it carries as `completed` are appended
    before the error propagates.
    """
    if store.space is not None:
        canonical_ranks(genes, store.space)  # raises on the first bad one
    genes = np.asarray(genes, dtype=np.int64)
    evaluator_id = evaluator.evaluator_id
    raw = np.full((len(genes), len(store.specs)), math.nan)
    with store._lock:
        store._check_evaluator(evaluator_id)
        keys = _row_bytes(genes)
        hits = list(map(store._index.get, keys))
        found = [row for row, hit in enumerate(hits) if hit is not None]
        raw[found] = store._cols["objectives"][[hits[row] for row in found]]
    first: dict[bytes, int] = {}  # the first row of each genotype to dispatch
    for row, (key, hit) in enumerate(zip(keys, hits)):
        if hit is None:
            first.setdefault(key, row)
    missing = genes[list(first.values())]
    try:
        outs = evaluator.evaluate([Genotype(g) for g in missing.tolist()]) if first else []
    except SubnetSearchError as exc:
        done = sorted(getattr(exc, "completed", {}).items())
        store.append_batch(
            missing[[j for j, _ in done]], [out for _, out in done], evaluator_id, gen
        )
        raise
    store.append_batch(missing, outs, evaluator_id, gen)
    out_of, errors = dict(zip(first, outs)), []
    for row, key in enumerate(keys):
        out = out_of.get(key)
        if isinstance(out, EvaluationFailure):
            errors.append(out.message)
        elif out is not None:
            raw[row] = out.values
    return raw, errors


def training_rows(store: ResultStore, scheme: str):
    """(X, raw): encoded features and the raw objective matrix (columns in
    spec order) of the store's `validation_columns`."""
    if store.space is None:
        raise ConfigError("store has no search space attached")
    _, genes, raw, _ = store.validation_columns()
    if not len(raw):
        raise SubnetSearchError("no validation records to train from")
    ranks = canonical_ranks(genes, store.space)[0]
    return encode_matrix(ranks, store.space, scheme), raw


# ---------------------------------------------------------------------------
# Synthetic surfaces
# ---------------------------------------------------------------------------


SURFACE_PRESETS = ("clx-like", "v100-like")
SYNTHETIC_SPECS = (
    ObjectiveSpec("top1", "maximize", "fraction"),
    ObjectiveSpec("latency_ms", "minimize", "ms"),
)
ACCURACY_MAX, ACCURACY_SPAN, LATENCY_BASE = 0.85, 0.45, 10.0


class SyntheticSurfaceEvaluator:
    """Deterministic desk-scale stand-in for measured objectives, on a named
    preset: quality is shared across presets while latency cost vectors
    differ, so Pareto-optimal genotypes differ between presets.

    Quality saturates with a weighted sum of ordinal gene ranks; cost sums
    per-gene contributions over *active* genes plus pairwise interaction
    terms, so deeper and wider configurations are slower. Optional noise, per
    objective, is the gene row's `util.row_hash` under a sub-seed of
    noise_seed, as a uniform in [-0.5, 0.5) times noise_scale. `evaluate`
    scores a batch of canonical `Genotype`s at once, adding both objectives
    up column by column in position order with elementwise operations: every
    value is the sequential sum's, whatever the batch, host or BLAS thread
    count.
    """

    def __init__(self, space: SearchSpace, preset: str = "clx-like",
                 noise_scale: float = 0.0, noise_seed: int = 0):
        if preset not in SURFACE_PRESETS:
            raise ConfigError(f"unknown surface preset {preset!r}; available: {SURFACE_PRESETS}")
        length = space.genome_length
        # quality weights are hardware-independent; cost vectors are per preset and
        # log-dispersed so random rank allocations sit far from the Pareto front
        acc_rng = np.random.default_rng(subseed(101, "accuracy", space.name))
        self.weights = acc_rng.uniform(0.5, 2.0, length)
        lat_rng = np.random.default_rng(subseed(202, "latency", preset, space.name))
        self.costs = np.exp(lat_rng.uniform(math.log(0.5), math.log(12.0), length))
        self.interactions = []
        for _ in range(min(10, length * (length - 1) // 2)):
            i, j = sorted(int(v) for v in lat_rng.choice(length, size=2, replace=False))
            self.interactions.append((i, j, float(lat_rng.uniform(0.02, 0.2))))
        self.temperature = 1.5 * float(self.weights.sum())
        self.space, self.specs = space, SYNTHETIC_SPECS
        self.noise_scale, self.noise_seed = noise_scale, noise_seed
        self.evaluator_id = f"synthetic:{preset}"

    def evaluate(self, genotypes):
        ranks, inactive = canonical_ranks(genotypes, self.space)
        feats, active = encode_matrix(ranks, self.space, "ordinal_normalized"), ~inactive
        score, lat = np.zeros(len(feats)), np.full(len(feats), LATENCY_BASE)
        for pos in range(self.space.genome_length):
            score += self.weights[pos] * feats[:, pos]
            lat += np.where(active[:, pos], self.costs[pos] * (1.0 + feats[:, pos]), 0.0)
        for p, q, w in self.interactions:
            term = w * (1.0 + feats[:, p]) * (1.0 + feats[:, q])
            lat += np.where(active[:, p] & active[:, q], term, 0.0)
        top1 = ACCURACY_MAX - ACCURACY_SPAN * np.array(
            [math.exp(-s / self.temperature) for s in score.tolist()])
        if self.noise_scale > 0:
            genes = gene_matrix(ranks, self.space)
            for col, spec in zip((top1, lat), self.specs):
                bits = row_hash(genes, subseed(self.noise_seed, spec.name)) >> 11
                col += (bits * 2.0**-53 - 0.5) * self.noise_scale
        return [ObjectiveVector(v, self.specs) for v in zip(top1.tolist(), lat.tolist())]


class TableEvaluator:
    """Static lookup-table evaluator reading a genotype -> objectives file."""

    def __init__(self, path: str | Path):
        doc = read_json(path)
        try:
            self.specs = tuple(
                ObjectiveSpec(o["name"], o["direction"], o.get("unit", ""))
                for o in doc["objectives"]
            )
            self._table = {}
            for entry in doc["entries"]:  # JSON numbers as written, never coerced
                genes, values = entry["genes"], [entry["objectives"][s.name] for s in self.specs]
                if not all(map(is_json_int64, genes)) or not all(map(is_json_finite, values)):
                    raise ValueError(f"entry {entry}: genes must be integers within int64 "
                                     "and objectives finite numbers")
                self._table[tuple(genes)] = ObjectiveVector(values, self.specs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed table file {path}: {exc}") from exc
        self.evaluator_id = f"table:{Path(path).name}"

    def evaluate(self, genotypes):
        return [
            self._table.get(g.genes) or EvaluationFailure(f"genotype {list(g.genes)} not in table")
            for g in genotypes
        ]


# ---------------------------------------------------------------------------
# External evaluator wire protocol
# ---------------------------------------------------------------------------

_EOF = object()


class ExternalEvaluator:
    """Spawns an evaluator command and speaks newline-delimited JSON over its
    stdin/stdout.

    Handshake:  -> {"type":"hello","objectives":[...],"space":"<name>"}
                <- {"type":"ready"}
    Request:    -> {"type":"eval","id":<int>,"genes":[<ints>]}
    Response:   <- {"type":"result","id":<int>,"objectives":{"<name>":<float>,...}}
                <- {"type":"error","id":<int>,"message":"..."}
    Shutdown:   -> {"type":"bye"}

    Responses may arrive out of order; they are re-associated by id. A crash
    mid-batch fails the outstanding genotypes and leaves completed ones intact.
    A timeout, a protocol fault, a result missing an objective or one whose
    objective value is not a finite JSON number (a bool is not one)
    interrupts the batch: the error carries the outputs that arrived as
    `completed`.
    """

    def __init__(
        self,
        command: str | Sequence[str],
        specs: Sequence[ObjectiveSpec],
        space_name: str = "",
        timeout: float = 600.0,
    ):
        import queue  # imported by this class alone, off every command's start-up
        import shlex
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.specs = tuple(specs)
        self.space_name = space_name
        self.timeout = timeout
        self.evaluator_id = f"external:{Path(self.command[0]).name}"
        self._proc: subprocess.Popen | None = None
        self._pump_thread: threading.Thread | None = None
        self._lines: queue.Queue = queue.Queue()
        self._next_id = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._proc is not None:
            return
        import subprocess
        try:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
            )
        except OSError as exc:  # a handshake failure: no evaluator to greet
            raise EvaluatorError(
                f"cannot start evaluator {self.command[0]!r}: {exc.strerror}"
            ) from exc
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()
        try:
            self._send({"type": "hello", "objectives": [s.name for s in self.specs],
                        "space": self.space_name})
            msg = self._read(self.timeout)
            if msg is _EOF:
                raise EvaluatorError("evaluator exited before handshake")
            if msg.get("type") != "ready":
                raise EvaluatorError(f"expected ready, got {msg.get('type')!r}")
        except (EvaluatorError, OSError):
            self.close()  # a failed handshake leaves no child and no open pipe
            raise

    def _pump(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(_EOF)

    def close(self) -> None:
        """Say bye, reap the child (killed if it has not exited within 5 s),
        let the reader thread drain, and close both pipes. The next
        `evaluate` starts a new child."""
        import subprocess
        proc = self._proc
        if proc is None:
            return
        try:
            self._send({"type": "bye"})
        except (BrokenPipeError, OSError, ValueError):
            pass
        self._proc = None
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._pump_thread.join(timeout=5)
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # unflushed bytes for a child that is gone

    # -- messaging ------------------------------------------------------------

    def _send(self, obj: dict) -> None:
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._proc.stdin.flush()

    def _read(self, timeout: float):
        import queue
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise EvaluatorError(
                f"no evaluator response within {timeout} s"
            ) from None
        if line is _EOF:
            return _EOF
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EvaluatorError(f"malformed response: {exc}")
        if not isinstance(msg, dict):
            raise EvaluatorError("malformed response: not a JSON object")
        return msg

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, genotypes: Sequence[Genotype]):
        self.start()
        ids: dict[int, int] = {}
        outs: list = [None] * len(genotypes)
        crashed = False
        for idx, g in enumerate(genotypes):
            if crashed:
                outs[idx] = EvaluationFailure("evaluator process exited")
                continue
            self._next_id += 1
            ids[self._next_id] = idx
            try:
                self._send({"type": "eval", "id": self._next_id, "genes": list(g.genes)})
            except (BrokenPipeError, OSError, ValueError):
                del ids[self._next_id]
                outs[idx] = EvaluationFailure("evaluator process exited")
                crashed = True
        try:
            while ids:
                msg = self._read(self.timeout)
                if msg is _EOF:
                    for idx in ids.values():
                        outs[idx] = EvaluationFailure("evaluator process exited mid-batch")
                    self.close()
                    break
                mtype = msg.get("type")
                if mtype not in ("result", "error"):
                    raise EvaluatorError(f"unexpected message type {mtype!r}")
                mid = msg.get("id")
                if mid not in ids:
                    raise EvaluatorError(f"unknown response id {mid!r}")
                idx = ids.pop(mid)
                if mtype == "error":
                    outs[idx] = EvaluationFailure(str(msg.get("message", "evaluator error")))
                    continue
                objs = msg.get("objectives", {})
                if not isinstance(objs, dict):
                    raise EvaluatorError("result objectives are not a JSON object")
                missing = [s.name for s in self.specs if s.name not in objs]
                if missing:
                    raise EvaluatorError(f"response missing objectives {missing}")
                values = [objs[s.name] for s in self.specs]
                if not all(map(is_json_finite, values)):
                    raise EvaluatorError(
                        f"objective values {values} are not all finite numbers"
                    )
                outs[idx] = ObjectiveVector(tuple(map(float, values)), self.specs)
        except EvaluatorError as exc:
            exc.completed = {idx: out for idx, out in enumerate(outs) if out is not None}
            raise
        return outs
