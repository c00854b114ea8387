"""Evaluation manager: evaluator dispatch, result caching, and persistence.

Evaluators are duck-typed: an `evaluator_id` string plus an
`evaluate(genotypes) -> list[ObjectiveVector | EvaluationFailure]` method.
An evaluator interrupted mid-batch may raise a `SubnetSearchError` with a
`completed` attribute, {batch index: output} of the results that did arrive;
`evaluate_batch` logs those before the error propagates. Validation results
are cached per (canonical genotype, evaluator) in an append-only store whose
JSON-lines log replays to the identical index.
"""

from __future__ import annotations

import json
import math
import queue
import shlex
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    EvaluationFailed,
    EvaluationTimeout,
    InvalidGenotype,
    MissingObjective,
    ObjectiveMismatch,
    ProtocolError,
    SubnetSearchError,
)
from .objectives import (
    EvaluationRecord,
    ObjectiveSpec,
    ObjectiveVector,
    check_unique_names,
)
from .space import (
    Genotype,
    SearchSpace,
    canonical_ranks,
    encode_matrix,
    is_canonical,  # noqa: F401  (a trace site of perfbench/runner.py)
)
from .util import GeneText, pseudo_noise, read_json, subseed

SOURCE_VALIDATION = "validation"


@dataclass(frozen=True)
class EvaluationFailure:
    """Per-genotype evaluation failure returned by evaluators."""

    message: str


_NO_GEN = -(2**63)  # a null gen, in the gen column
_BLOCK = 256  # rows per block of whole-log passes, which bounds their temporaries


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps's output, built once


def _first_repeat(genes: np.ndarray, rows: np.ndarray, tags: list) -> int | None:
    """The first of `rows` whose row of `genes`, with its tag, equals that
    of an earlier one."""
    width = genes.shape[1] * genes.itemsize
    seen = set()
    for start in range(0, len(rows), _BLOCK):
        blob = genes[rows[start : start + _BLOCK]].tobytes()
        for i, tag in enumerate(tags[start : start + _BLOCK], start):
            key = (blob[(i - start) * width : (i - start + 1) * width], tag)
            if key in seen:
                return int(rows[i])
            seen.add(key)
    return None


def _columns(rows: int, length: int, objectives: int) -> np.ndarray:
    """Uninitialized columns of `rows` records of `length` genes and
    `objectives` objective values."""
    return np.empty(rows, np.dtype([
        ("genes", np.int64, (length,)),
        ("objectives", np.float64, (objectives,)),
        ("gen", np.int64),
        ("source", np.int32),
        ("evaluator", np.int32),
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
    """Append-only evaluation log with a validation cache, held as columns.

    Row i holds the record with sequence number i: its gene values as logged
    (a warm start may load values from outside the space), its raw objective
    values (NaN for a failure), its gen, and codes of its source and
    evaluator id; a failure's message is kept beside the columns.
    `EvaluationRecord`s are built from rows only when `records`, `lookup` or
    `validation_records` asks for them, and kept.

    Concurrent appends are serialized under a lock; sequence numbers define
    the total order. When `path` is given the store streams: the file starts
    with a header line carrying the objective specs, so that it replays
    without outside context, and every appended batch is written to it as
    one JSON line per record and flushed, with the same bytes `dump` writes.
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
        self._sources: dict[str, int] = {}  # value -> code, in code order
        self._evaluators: dict[str, int] = {}
        self._recs: list[EvaluationRecord | None] = []
        self._gene_text = GeneText()
        # (genes, evaluator id) -> row of each successful validation; built
        # on first use after a load
        self._index: dict[tuple[tuple[int, ...], str], int] | None = {}
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
        genotypes: Sequence[Genotype],
        outputs: Sequence[ObjectiveVector | EvaluationFailure],
        evaluator_id: str,
        gen: int | None = None,
        source: str = SOURCE_VALIDATION,
    ) -> list[EvaluationRecord]:
        """Append one batch of evaluator outputs, successes and failures, in
        order, and return their records; a single record is a batch of one.

        The batch is checked whole before anything is appended: a genotype of
        another length than the log's is an InvalidGenotype, and a successful
        validation of a genotype already cached under `evaluator_id`, or
        twice in the batch, a ConfigError. Its rows go into the columns in
        one block. Successful validations are cached; failures are logged but
        never cached. A streaming store writes the batch's lines at once and
        flushes them before returning.
        """
        if len(outputs) != len(genotypes):
            raise EvaluationFailed(
                f"{len(outputs)} evaluator outputs for {len(genotypes)} genotypes"
            )
        if not genotypes:
            return []
        genes = [g.genes for g in genotypes]
        failed = [isinstance(out, EvaluationFailure) for out in outputs]
        with self._lock:
            if self.path is not None and self._fh is None:
                raise ValueError(f"append to the closed result log {self.path}")
            i, k = self._n, len(genes)
            length = self._cols.dtype["genes"].shape[0]
            if self.space is None and not i:
                length = len(genes[0])  # a spaceless log's first batch
            if set(map(len, genes)) != {length}:
                bad = next(g for g in genes if len(g) != length)
                raise InvalidGenotype(
                    f"genotype has {len(bad)} genes, the log's genotypes have {length}"
                )
            index = self._validation_index() if source == SOURCE_VALIDATION else None
            if index is not None:
                measured = [g for g, bad in zip(genes, failed) if not bad]
                keys = [(g, evaluator_id) for g in measured]
                if len(set(measured)) < len(measured) or not index.keys().isdisjoint(keys):
                    seen = set()
                    for g, key in zip(measured, keys):
                        if key in index or key in seen:
                            raise ConfigError(
                                "duplicate validation record for genotype "
                                f"{g} under evaluator {evaluator_id!r}"
                            )
                        seen.add(key)
            if length != self._cols.dtype["genes"].shape[0]:
                self._cols = _columns(0, length, len(self.specs))
            self._cols = _room(self._cols, i + k)
            nan_row = (math.nan,) * len(self.specs)
            block = self._cols[i : i + k]
            block["genes"] = genes
            block["objectives"] = [
                nan_row if bad else out.values for out, bad in zip(outputs, failed)
            ]
            block["gen"] = _NO_GEN if gen is None else gen
            block["source"] = self._sources.setdefault(source, len(self._sources))
            block["evaluator"] = self._evaluators.setdefault(
                evaluator_id, len(self._evaluators)
            )
            block["failed"] = failed
            recs = [
                EvaluationRecord(g, None, source, evaluator_id, seq, gen, out.message)
                if bad else EvaluationRecord(g, out, source, evaluator_id, seq, gen)
                for seq, g, out, bad in zip(range(i, i + k), genotypes, outputs, failed)
            ]
            if any(failed):
                self._errors.update((r.sequence_number, r.error) for r in recs if not r.ok)
            self._recs.extend(recs)
            if index is not None:
                index.update(zip(keys, (r.sequence_number for r in recs if r.ok)))
            self._n = i + k
            if self._fh is not None:
                self._fh.writelines(self._lines(i, i + k))
                self._fh.flush()
            return recs

    def _rows(self, rows: np.ndarray):
        """(sequence number, genes, objective values, gen, source, evaluator
        id, error) of the rows with these sequence numbers, as Python
        values."""
        sources, evaluators = list(self._sources), list(self._evaluators)
        cols = self._cols[rows]
        seqs = rows.tolist()
        return zip(
            seqs,
            cols["genes"].tolist(),
            cols["objectives"].tolist(),
            [None if g == _NO_GEN else g for g in cols["gen"].tolist()],
            [sources[c] for c in cols["source"].tolist()],
            [evaluators[c] for c in cols["evaluator"].tolist()],
            [self._errors.get(i) for i in seqs],
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
        eval_format = (
            '{"type":"eval","seq":%d,"gen":%s,"genotype":[%s],'
            f'"objectives_raw":{{{objectives}}},"source":%s,"evaluator_id":%s}}\n'
        )
        failure_format = (
            '{"type":"failure","seq":%d,"gen":%s,"genotype":[%s],'
            '"error":%s,"evaluator_id":%s}\n'
        )
        sources = list(map(_ENCODER.encode, self._sources))
        evaluators = list(map(_ENCODER.encode, self._evaluators))
        text = self._gene_text
        cols = self._cols[start:stop]
        genes = [",".join(map(text.__getitem__, row)) for row in cols["genes"].tolist()]
        gens = ["null" if gen == _NO_GEN else gen for gen in cols["gen"].tolist()]
        return [
            failure_format % (seq, gen, g, _ENCODER.encode(self._errors[seq]), evaluators[e])
            if failed
            else eval_format % (seq, gen, g, *values, sources[source], evaluators[e])
            for seq, g, values, gen, source, e, failed in zip(
                range(start, stop),
                genes,
                cols["objectives"].tolist(),
                gens,
                cols["source"].tolist(),
                cols["evaluator"].tolist(),
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

    def _records_of(self, rows) -> list[EvaluationRecord]:
        """The records of rows (sequence numbers), building those not built
        yet; the caller holds the lock."""
        missing = [i for i in rows if self._recs[i] is None]
        for start in range(0, len(missing), _BLOCK):
            block = self._rows(np.array(missing[start : start + _BLOCK]))
            for seq, genes, values, gen, source, evaluator_id, error in block:
                self._recs[seq] = EvaluationRecord(
                    genotype=Genotype.of_ints(tuple(genes)),
                    objectives_raw=(
                        None if error is not None else ObjectiveVector(tuple(values), self.specs)
                    ),
                    source=source,
                    evaluator_id=evaluator_id,
                    sequence_number=seq,
                    gen=gen,
                    error=error,
                )
        return [self._recs[i] for i in rows]

    def _validation_rows(self, evaluator_id: str | None) -> np.ndarray:
        cols = self._cols[: self._n]
        ok = ~cols["failed"] & (cols["source"] == self._sources.get(SOURCE_VALIDATION, -1))
        if evaluator_id is not None:
            ok &= cols["evaluator"] == self._evaluators.get(evaluator_id, -1)
        return np.flatnonzero(ok)

    def _validation_index(self) -> dict:
        if self._index is None:
            rows = self._validation_rows(None)
            evaluators = list(self._evaluators)
            cols = self._cols[rows]
            self._index = {
                (tuple(genes), evaluators[code]): seq
                for genes, code, seq in zip(
                    cols["genes"].tolist(), cols["evaluator"].tolist(), rows.tolist()
                )
            }
        return self._index

    @property
    def records(self) -> list[EvaluationRecord]:
        with self._lock:
            return self._records_of(range(self._n))

    @property
    def evaluator_ids(self) -> tuple[str, ...]:
        """The evaluator ids in the log, in the order first logged."""
        with self._lock:
            return tuple(self._evaluators)

    def lookup(self, genotype: Genotype, evaluator_id: str) -> EvaluationRecord | None:
        return self.cached([genotype], evaluator_id).get(genotype.genes)

    def cached(
        self, genotypes: Sequence[Genotype], evaluator_id: str
    ) -> dict[tuple[int, ...], EvaluationRecord]:
        """{genes: record} of the successful validations of these genotypes
        under `evaluator_id`, looked up under one lock."""
        with self._lock:
            index = self._validation_index()
            seqs = {g.genes: index.get((g.genes, evaluator_id)) for g in genotypes}
            hits = {genes: seq for genes, seq in seqs.items() if seq is not None}
            return dict(zip(hits, self._records_of(list(hits.values()))))

    def validation_records(self, evaluator_id: str | None = None) -> list[EvaluationRecord]:
        """Successful validation records in sequence order."""
        with self._lock:
            return self._records_of(self._validation_rows(evaluator_id).tolist())

    def validation_columns(self, evaluator_id: str | None = None):
        """(sequence numbers, gene-value matrix, raw-objective matrix) of the
        successful validation records, in sequence order; builds no record."""
        with self._lock:
            rows = self._validation_rows(evaluator_id)
            cols = self._cols[: self._n]
            return rows, cols["genes"][rows], cols["objectives"][rows]

    @staticmethod
    def record_line(path: str | Path, sequence_number: int) -> int:
        """The line of a persisted log that holds the record with this
        sequence number: records follow the header line, blank lines
        aside."""
        with open(path, encoding="utf-8") as fh:
            nonblank = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
            for seq, lineno in enumerate(nonblank, -1):
                if seq == sequence_number:
                    return lineno
        raise ConfigError(f"{path}: no record {sequence_number}")

    @classmethod
    def load(cls, path: str | Path, space: SearchSpace | None = None) -> "ResultStore":
        """Replay a persisted log: each line is parsed with `json.loads` and
        its values go into the columns a block of records at a time; no
        record is built.

        The first faulty line raises ConfigError naming `path:line`: a torn
        or malformed line, a missing or mistyped field, an unknown record
        type, a non-finite objective, a genotype of the wrong length (against
        `space`, else against the first record) or a second validation record
        of a genotype under one evaluator. Gene values are not checked
        against `space`.
        """
        store = cols = fault = None
        lineno = n = 0
        # the records read since the last flush into the columns, with their
        # lines; genes and values are kept flat, so that no list of a record
        # outlives its line (a block of such lists makes the cyclic garbage
        # collector run full passes)
        genes, values, gens, sources, evaluators, lines = [], [], [], [], [], []
        errors: dict[int, str] = {}
        source_codes: dict[str, int] = {}
        evaluator_codes: dict[str, int] = {}

        def flush() -> None:
            """Move the pending records into the columns. Where numpy cannot
            read a genotype as int64 values, the records before it are moved
            and the error is raised with `lineno` set to its line."""
            nonlocal n, cols, lineno
            if not gens:
                return
            cols = _room(cols, n + len(gens))
            block = cols[n : n + len(gens)]
            try:
                block["genes"] = np.array(genes, dtype=np.int64).reshape(len(gens), length)
            except (TypeError, ValueError, OverflowError):
                for k in range(len(gens)):
                    try:
                        np.array(genes[k * length : (k + 1) * length], dtype=np.int64)
                    except (TypeError, ValueError, OverflowError):
                        lineno = lines[k]
                        del genes[k * length :], values[k * len(names) :]
                        del gens[k:], sources[k:], evaluators[k:]
                        flush()
                        raise
            block["objectives"] = np.reshape(values, (len(gens), len(names)))
            block["gen"] = gens
            block["source"] = sources
            block["evaluator"] = evaluators
            block["failed"] = False
            n += len(gens)
            for column in (genes, values, gens, sources, evaluators, lines):
                column.clear()

        try:
            try:
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        if not line.strip():
                            continue
                        doc = json.loads(line)
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
                            length = space.genome_length if space is not None else None
                            continue
                        g, kind, error = doc["genotype"], doc["type"], None
                        if kind == "eval":
                            raw = doc["objectives_raw"]
                            row = [float(raw[name]) for name in names]
                            if not all(map(math.isfinite, row)):
                                raise ConfigError(f"non-finite objective value in {tuple(row)}")
                            source = doc["source"]
                        elif kind == "failure":
                            row, source, error = nan_row, SOURCE_VALIDATION, doc["error"]
                        else:
                            raise ConfigError(f"unknown record type {kind!r}")
                        if length is None:
                            length = len(g)
                        if len(g) != length:
                            raise InvalidGenotype(
                                f"genotype has {len(g)} genes, "
                                + (f"space {space.name!r}" if space is not None
                                   else "the first record")
                                + f" has {length}"
                            )
                        gen = doc.get("gen")
                        if gen is None:
                            gen = _NO_GEN
                        elif type(gen) is not int or not _NO_GEN < gen < 2**63:
                            raise ConfigError(f"gen must be an integer or null, got {gen!r}")
                        evaluator = evaluator_codes.setdefault(
                            doc["evaluator_id"], len(evaluator_codes)
                        )
                        if kind == "failure":
                            errors[n + len(gens)] = error
                        genes.extend(g)
                        values.extend(row)
                        gens.append(gen)
                        sources.append(source_codes.setdefault(source, len(source_codes)))
                        evaluators.append(evaluator)
                        lines.append(lineno)
                        if cols is None:
                            cols = _columns(0, length, len(names))
                        if len(gens) == _BLOCK:
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
        if store is None:
            raise fault or ConfigError(f"{path}: missing run header line")
        cols = store._cols if cols is None else cols[:n]
        cols["failed"][[i for i in errors if i < n]] = True
        rows = np.flatnonzero(
            ~cols["failed"] & (cols["source"] == source_codes.get(SOURCE_VALIDATION, -1))
        )
        i = _first_repeat(cols["genes"], rows, cols["evaluator"][rows].tolist())
        if i is not None:  # its line precedes a fault's
            raise ConfigError(
                f"{path}:{cls.record_line(path, i)}: duplicate validation record for "
                f"genotype {tuple(cols['genes'][i].tolist())} under evaluator "
                f"{list(evaluator_codes)[cols['evaluator'][i]]!r}"
            )
        if fault is not None:
            raise fault
        store._cols, store._n, store._recs = cols, n, [None] * n
        store._errors, store._sources, store._evaluators = errors, source_codes, evaluator_codes
        store._index = None
        return store


# ---------------------------------------------------------------------------
# Batch evaluation with caching
# ---------------------------------------------------------------------------


def evaluate_batch(
    genotypes: Sequence[Genotype],
    evaluator,
    store: ResultStore,
    gen: int | None = None,
) -> list[EvaluationRecord]:
    """Evaluate a batch, returning records aligned with the input.

    Cache hits (same canonical genotype and evaluator) perform no dispatch;
    the dispatched genotypes are appended to the store as one batch.
    Failures are logged and returned with `error` set; they are not cached, so
    a later batch may retry them. When the evaluator raises, the outputs it
    carries as `completed` are appended before the error propagates.
    """
    if store.space is not None:
        canonical_ranks(genotypes, store.space)  # raises on the first bad one
    results = store.cached(genotypes, evaluator.evaluator_id)
    queued: dict[tuple[int, ...], Genotype] = {}
    for g in genotypes:
        if g.genes not in results:
            queued.setdefault(g.genes, g)
    missing = list(queued.values())
    if missing:
        try:
            outs = evaluator.evaluate(missing)
        except SubnetSearchError as exc:
            done = sorted(getattr(exc, "completed", {}).items())
            store.append_batch(
                [missing[j] for j, _ in done], [out for _, out in done],
                evaluator.evaluator_id, gen,
            )
            raise
        recs = store.append_batch(missing, outs, evaluator.evaluator_id, gen)
        results.update(zip(queued, recs))
    return [results[g.genes] for g in genotypes]


def training_rows(store: ResultStore, scheme: str, evaluator_id: str | None = None):
    """(X, raw): encoded features and the raw objective matrix (columns in
    spec order) of the successful validation records, read from the store's
    columns in sequence order. A genotype logged under more than one
    evaluator id keeps its first row."""
    if store.space is None:
        raise ConfigError("store has no search space attached")
    seqs, genes, raw = store.validation_columns(evaluator_id)
    if not len(seqs):
        raise EmptyInput("no validation records to train from")
    if len(store.evaluator_ids) > 1:  # else no genotype is logged twice
        rows = np.sort(np.unique(genes, axis=0, return_index=True)[1])
        genes, raw = genes[rows], raw[rows]
    ranks = canonical_ranks(genes, store.space)[0]
    return encode_matrix(ranks, store.space, scheme), raw


# ---------------------------------------------------------------------------
# Synthetic surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticSurface:
    """Deterministic desk-scale stand-in for measured objectives.

    Quality saturates with a weighted sum of ordinal gene ranks; cost sums
    per-gene contributions over *active* genes plus pairwise interaction
    terms, so deeper and wider configurations are slower. Optional noise is a
    pure function of (genotype, noise_seed).
    """

    name: str
    space: SearchSpace
    specs: tuple[ObjectiveSpec, ...]
    accuracy_weights: np.ndarray
    accuracy_max: float
    accuracy_span: float
    temperature: float
    latency_base: float
    latency_costs: np.ndarray
    latency_interactions: tuple[tuple[int, int, float], ...]
    noise_seed: int = 0
    noise_scale: float = 0.0


def synthetic_evaluate(g: Genotype, surface: SyntheticSurface) -> ObjectiveVector:
    space = surface.space
    ranks, inactive = canonical_ranks([g], space)
    feats = encode_matrix(ranks, space, "ordinal_normalized")[0]
    acc = surface.accuracy_max - surface.accuracy_span * math.exp(
        -float(surface.accuracy_weights @ feats) / surface.temperature
    )
    active = ~inactive[0]
    lat = surface.latency_base
    for pos in np.flatnonzero(active):
        lat += surface.latency_costs[pos] * (1.0 + feats[pos])
    for p, q_pos, w in surface.latency_interactions:
        if active[p] and active[q_pos]:
            lat += w * (1.0 + feats[p]) * (1.0 + feats[q_pos])
    if surface.noise_scale > 0:
        acc += pseudo_noise(g.genes, surface.noise_seed, surface.specs[0].name) * surface.noise_scale
        lat += pseudo_noise(g.genes, surface.noise_seed, surface.specs[1].name) * surface.noise_scale
    return ObjectiveVector((acc, float(lat)), surface.specs)


SURFACE_PRESETS = ("clx-like", "v100-like")


def make_surface(
    space: SearchSpace,
    preset: str = "clx-like",
    noise_scale: float = 0.0,
    noise_seed: int = 0,
) -> SyntheticSurface:
    """Named surface presets; quality is shared across presets while latency
    cost vectors differ, so Pareto-optimal genotypes differ between presets."""
    if preset not in SURFACE_PRESETS:
        raise ConfigError(
            f"unknown surface preset {preset!r}; available: {SURFACE_PRESETS}"
        )
    length = space.genome_length
    # quality weights are hardware-independent; cost vectors are per preset and
    # log-dispersed so random rank allocations sit far from the Pareto front
    acc_rng = np.random.default_rng(subseed(101, "accuracy", space.name))
    weights = acc_rng.uniform(0.5, 2.0, length)
    lat_rng = np.random.default_rng(subseed(202, "latency", preset, space.name))
    costs = np.exp(lat_rng.uniform(math.log(0.5), math.log(12.0), length))
    n_pairs = min(10, length * (length - 1) // 2)
    interactions = []
    for _ in range(n_pairs):
        i, j = sorted(int(v) for v in lat_rng.choice(length, size=2, replace=False))
        interactions.append((i, j, float(lat_rng.uniform(0.02, 0.2))))
    specs = (
        ObjectiveSpec("top1", "maximize", "fraction"),
        ObjectiveSpec("latency_ms", "minimize", "ms"),
    )
    return SyntheticSurface(
        name=preset,
        space=space,
        specs=specs,
        accuracy_weights=weights,
        accuracy_max=0.85,
        accuracy_span=0.45,
        temperature=1.5 * float(weights.sum()),
        latency_base=10.0,
        latency_costs=costs,
        latency_interactions=tuple(interactions),
        noise_seed=noise_seed,
        noise_scale=noise_scale,
    )


class SyntheticSurfaceEvaluator:
    def __init__(self, surface: SyntheticSurface, evaluator_id: str | None = None):
        self.surface = surface
        self.evaluator_id = evaluator_id or f"synthetic:{surface.name}"

    def evaluate(self, genotypes):
        return [synthetic_evaluate(g, self.surface) for g in genotypes]


class TableEvaluator:
    """Static lookup-table evaluator reading a genotype -> objectives file."""

    def __init__(self, path: str | Path, evaluator_id: str | None = None):
        doc = read_json(path)
        try:
            self.specs = tuple(
                ObjectiveSpec(o["name"], o["direction"], o.get("unit", ""))
                for o in doc["objectives"]
            )
            self._table = {}
            for entry in doc["entries"]:
                genes = tuple(int(v) for v in entry["genes"])
                values = tuple(
                    float(entry["objectives"][s.name]) for s in self.specs
                )
                self._table[genes] = ObjectiveVector(values, self.specs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed table file {path}: {exc}") from exc
        self.evaluator_id = evaluator_id or f"table:{Path(path).name}"

    def evaluate(self, genotypes):
        out = []
        for g in genotypes:
            vec = self._table.get(g.genes)
            if vec is None:
                out.append(EvaluationFailure(f"genotype {list(g.genes)} not in table"))
            else:
                out.append(vec)
        return out


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
        evaluator_id: str | None = None,
    ):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.specs = tuple(specs)
        self.space_name = space_name
        self.timeout = timeout
        self.evaluator_id = evaluator_id or f"external:{Path(self.command[0]).name}"
        self._proc: subprocess.Popen | None = None
        self._pump_thread: threading.Thread | None = None
        self._lines: queue.Queue = queue.Queue()
        self._next_id = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._proc is not None:
            return
        self._proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()
        self._send({"type": "hello", "objectives": [s.name for s in self.specs],
                    "space": self.space_name})
        msg = self._read(self.timeout)
        if msg is _EOF:
            raise ProtocolError("evaluator exited before handshake")
        if msg.get("type") != "ready":
            raise ProtocolError(
                f"expected ready, got {msg.get('type')!r}", payload=json.dumps(msg)
            )

    def _pump(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(_EOF)

    def close(self) -> None:
        """Say bye, reap the child (killed if it has not exited within 5 s),
        let the reader thread drain, and close both pipes. The next
        `evaluate` starts a new child."""
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

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- messaging ------------------------------------------------------------

    def _send(self, obj: dict) -> None:
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._proc.stdin.flush()

    def _read(self, timeout: float):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise EvaluationTimeout(
                f"no evaluator response within {timeout} s"
            ) from None
        if line is _EOF:
            return _EOF
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed response: {exc}", payload=line)
        if not isinstance(msg, dict):
            raise ProtocolError("malformed response: not a JSON object", payload=line)
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
                    raise ProtocolError(
                        f"unexpected message type {mtype!r}", payload=json.dumps(msg)
                    )
                mid = msg.get("id")
                if mid not in ids:
                    raise ProtocolError(
                        f"unknown response id {mid!r}", payload=json.dumps(msg)
                    )
                idx = ids.pop(mid)
                if mtype == "error":
                    outs[idx] = EvaluationFailure(str(msg.get("message", "evaluator error")))
                    continue
                objs = msg.get("objectives", {})
                if not isinstance(objs, dict):
                    raise ProtocolError(
                        "result objectives are not a JSON object", payload=json.dumps(msg)
                    )
                missing = [s.name for s in self.specs if s.name not in objs]
                if missing:
                    raise MissingObjective(
                        f"response missing objectives {missing}", payload=json.dumps(msg)
                    )
                values = [objs[s.name] for s in self.specs]
                if not all(
                    type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values
                ):
                    raise ProtocolError(
                        f"objective values {values} are not all finite numbers",
                        payload=json.dumps(msg),
                    )
                outs[idx] = ObjectiveVector(tuple(map(float, values)), self.specs)
        except (EvaluationTimeout, ProtocolError, ObjectiveMismatch) as exc:
            exc.completed = {idx: out for idx, out in enumerate(outs) if out is not None}
            raise
        return outs
