"""Evaluation manager: evaluator dispatch, result caching, and persistence.

Evaluators are duck-typed: an `evaluator_id` string plus an
`evaluate(genotypes) -> list[ObjectiveVector | EvaluationFailure]` method.
Validation results are cached per (canonical genotype, evaluator) in an
append-only store whose JSON-lines log replays to the identical index.
"""

from __future__ import annotations

import json
import math
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    EvaluationTimeout,
    InvalidGenotype,
    ObjectiveMismatch,
    ProtocolError,
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
from .util import pseudo_noise, read_json, subseed

SOURCE_VALIDATION = "validation"


@dataclass(frozen=True)
class EvaluationFailure:
    """Per-genotype evaluation failure returned by evaluators."""

    message: str


class ResultStore:
    """Append-only evaluation log with a validation cache.

    Concurrent appends are serialized under a lock; sequence numbers define
    the total order. When `path` is given every record is written as one JSON
    line, preceded by a header line carrying the objective specs so the file
    replays without outside context.
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
        self._records: list[EvaluationRecord] = []
        self._index: dict[tuple[tuple[int, ...], str], EvaluationRecord] = {}
        self._lock = threading.Lock()
        self._fh = None
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8")
            self._fh.write(
                json.dumps(self._header_doc(), separators=(",", ":")) + "\n"
            )
            self._fh.flush()

    # -- writing -----------------------------------------------------------

    def append(
        self,
        genotype: Genotype,
        objectives_raw: ObjectiveVector,
        source: str,
        evaluator_id: str,
        gen: int | None = None,
    ) -> EvaluationRecord:
        with self._lock:
            key = (genotype.genes, evaluator_id)
            if source == SOURCE_VALIDATION and key in self._index:
                raise ConfigError(
                    "duplicate validation record for genotype "
                    f"{genotype.genes} under evaluator {evaluator_id!r}"
                )
            rec = EvaluationRecord(
                genotype=genotype,
                objectives_raw=objectives_raw,
                source=source,
                evaluator_id=evaluator_id,
                sequence_number=len(self._records),
                gen=gen,
            )
            self._records.append(rec)
            if source == SOURCE_VALIDATION:
                self._index[key] = rec
            self._write(rec)
            return rec

    def append_failure(
        self,
        genotype: Genotype,
        message: str,
        evaluator_id: str,
        gen: int | None = None,
    ) -> EvaluationRecord:
        with self._lock:
            rec = EvaluationRecord(
                genotype=genotype,
                objectives_raw=None,
                source=SOURCE_VALIDATION,
                evaluator_id=evaluator_id,
                sequence_number=len(self._records),
                gen=gen,
                error=message,
            )
            self._records.append(rec)  # logged but never indexed/cached
            self._write(rec)
            return rec

    def _doc_for(self, rec: EvaluationRecord) -> dict:
        if rec.error is not None:
            return {
                "type": "failure",
                "seq": rec.sequence_number,
                "gen": rec.gen,
                "genotype": list(rec.genotype.genes),
                "error": rec.error,
                "evaluator_id": rec.evaluator_id,
            }
        return {
            "type": "eval",
            "seq": rec.sequence_number,
            "gen": rec.gen,
            "genotype": list(rec.genotype.genes),
            "objectives_raw": {
                s.name: v for s, v in zip(self.specs, rec.objectives_raw.values)
            },
            "source": rec.source,
            "evaluator_id": rec.evaluator_id,
        }

    def _header_doc(self) -> dict:
        return {
            "type": "run",
            "space": self.space.name if self.space is not None else "",
            "objectives": [
                {"name": s.name, "direction": s.direction, "unit": s.unit}
                for s in self.specs
            ],
        }

    def _write(self, rec: EvaluationRecord) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(self._doc_for(rec), separators=(",", ":")) + "\n")
        self._fh.flush()

    def dump(self, path: str | Path) -> None:
        """Write the full log (header plus every record) to a new file."""
        with self._lock, open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._header_doc(), separators=(",", ":")) + "\n")
            for rec in self._records:
                fh.write(json.dumps(self._doc_for(rec), separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> list[EvaluationRecord]:
        with self._lock:
            return list(self._records)

    def lookup(self, genotype: Genotype, evaluator_id: str) -> EvaluationRecord | None:
        with self._lock:
            return self._index.get((genotype.genes, evaluator_id))

    def validation_records(self, evaluator_id: str | None = None) -> list[EvaluationRecord]:
        """Successful validation records in sequence order."""
        with self._lock:
            return [
                r
                for r in self._records
                if r.source == SOURCE_VALIDATION
                and r.ok
                and (evaluator_id is None or r.evaluator_id == evaluator_id)
            ]

    @classmethod
    def load(cls, path: str | Path, space: SearchSpace | None = None) -> "ResultStore":
        """Replay a persisted log into an in-memory store.

        A torn or malformed line, a record without its fields, an unknown
        record type, or (when `space` is given) a genotype of the wrong
        length raises ConfigError naming `path:line`.
        """
        store = None
        lineno = 0
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
                    else:
                        store._replay(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: malformed record: {type(exc).__name__}: {exc}"
            ) from exc
        except (ConfigError, InvalidGenotype, ObjectiveMismatch) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if store is None:
            raise ConfigError(f"{path}: missing run header line")
        return store

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

    def _replay(self, doc: dict) -> None:
        g = Genotype(tuple(doc["genotype"]))
        if self.space is not None and len(g.genes) != self.space.genome_length:
            raise InvalidGenotype(
                f"genotype has {len(g.genes)} genes, space {self.space.name!r} "
                f"has {self.space.genome_length}"
            )
        kind = doc["type"]
        if kind == "failure":
            self.append_failure(g, doc["error"], doc["evaluator_id"], doc.get("gen"))
        elif kind == "eval":
            vec = ObjectiveVector(
                tuple(doc["objectives_raw"][s.name] for s in self.specs), self.specs
            )
            self.append(g, vec, doc["source"], doc["evaluator_id"], doc.get("gen"))
        else:
            raise ConfigError(f"unknown record type {kind!r}")


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

    Cache hits (same canonical genotype and evaluator) perform no dispatch.
    Failures are logged and returned with `error` set; they are not cached, so
    a later batch may retry them.
    """
    if store.space is not None:
        canonical_ranks(genotypes, store.space)  # raises on the first bad one
    results: dict[tuple[int, ...], EvaluationRecord] = {}
    missing: list[Genotype] = []
    queued: set[tuple[int, ...]] = set()
    for g in genotypes:
        if g.genes in results or g.genes in queued:
            continue
        cached = store.lookup(g, evaluator.evaluator_id)
        if cached is not None:
            results[g.genes] = cached
        else:
            queued.add(g.genes)
            missing.append(g)
    if missing:
        outs = evaluator.evaluate(missing)
        for g, out in zip(missing, outs):
            if isinstance(out, EvaluationFailure):
                rec = store.append_failure(g, out.message, evaluator.evaluator_id, gen)
            else:
                rec = store.append(
                    g, out, SOURCE_VALIDATION, evaluator.evaluator_id, gen
                )
            results[g.genes] = rec
    return [results[g.genes] for g in genotypes]


def training_set(
    store: ResultStore,
    objective: str,
    scheme: str,
    evaluator_id: str | None = None,
):
    """Encoded features and raw targets from validation records.

    Records are deduplicated by canonical genotype (first evaluation wins) and
    ordered by sequence number.
    """
    if objective not in {s.name for s in store.specs}:
        raise ObjectiveMismatch(f"store has no objective named {objective!r}")
    if store.space is None:
        raise ConfigError("store has no search space attached")
    recs = store.validation_records(evaluator_id)
    if not recs:
        raise EmptyInput("no validation records to train from")
    seen: set[tuple[int, ...]] = set()
    deduped = []
    for r in recs:
        if r.genotype.genes in seen:
            continue
        seen.add(r.genotype.genes)
        deduped.append(r)
    ranks = canonical_ranks([r.genotype for r in deduped], store.space)[0]
    X = encode_matrix(ranks, store.space, scheme)
    y = np.array([r.objectives_raw.value_of(objective) for r in deduped])
    return X, y


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


class CallableEvaluator:
    """Wraps a genotype -> ObjectiveVector function; exceptions become
    per-genotype failures."""

    def __init__(self, fn, evaluator_id: str = "callable"):
        self.fn = fn
        self.evaluator_id = evaluator_id

    def evaluate(self, genotypes):
        out = []
        for g in genotypes:
            try:
                out.append(self.fn(g))
            except Exception as exc:  # noqa: BLE001 - contract: flag, continue
                out.append(EvaluationFailure(str(exc)))
        return out


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
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed response: {exc}", payload=line)

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
                raise ProtocolError(f"unknown response id {mid!r}", payload=json.dumps(msg))
            idx = ids.pop(mid)
            if mtype == "error":
                outs[idx] = EvaluationFailure(str(msg.get("message", "evaluator error")))
                continue
            objs = msg.get("objectives", {})
            missing = [s.name for s in self.specs if s.name not in objs]
            if missing:
                raise ObjectiveMismatch(
                    f"response missing objectives {missing}: {json.dumps(msg)}"
                )
            outs[idx] = ObjectiveVector(
                tuple(float(objs[s.name]) for s in self.specs), self.specs
            )
        return outs
