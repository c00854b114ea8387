"""Seed derivation, stable hashing, JSON input and value checks, setting checks.

All randomness in a run flows from a single seed through named sub-seeds so
that independent phases (sampling, evolution, noise) stay decoupled and
reproducible. A sub-seed is a `blake2b` digest, made a handful of times per
run; every per-genotype draw (the evolver's tie-break, the synthetic
surfaces' noise) is one `row_hash` of a whole matrix under a sub-seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError


# the seeds `stable_hash64` can take: it packs an int into 16 signed bytes
SEED_RANGE = range(-(2**127), 2**127)


def check_rules(obj, *rules) -> None:
    """Raise a ConfigError for the first (name, holds, rule) of `rules` that
    does not hold, naming it and its value: an attribute of `obj`, or a flag
    such as --noise-seed for the attribute noise_seed."""
    for name, ok, rule in rules:
        if not ok:
            value = getattr(obj, name.lstrip("-").replace("-", "_"))
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


def stable_hash64(*parts: bytes | str | int) -> int:
    """64-bit hash of the given parts, stable across processes and runs."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes(16, "little", signed=True)
        elif isinstance(part, str):
            part = part.encode("utf-8")
        h.update(part)
        h.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return int.from_bytes(h.digest(), "little")


def subseed(seed: int, *labels: str | int) -> int:
    """Derive a named sub-seed from a run seed; stable across processes."""
    return stable_hash64(seed, *labels)


class GeneText(dict):
    """int -> its decimal text, made on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014), in place
    on a uint64 array."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


@functools.lru_cache(maxsize=64)
def _weights(seed: int, length: int) -> np.ndarray:
    """`row_hash`'s weights: SplitMix64's first `length` outputs from state
    `seed` mod 2**64, made odd; made once per seed and row length."""
    steps = np.arange(1, length + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    weights = _mix64(steps + seed % 2**64) | 1
    weights.flags.writeable = False
    return weights


def row_hash(rows, seed: int) -> np.ndarray:
    """The uint64 hash of each row of an integer matrix under `seed`: the
    dot product of (row + 1) with `_weights`, wrapping mod 2**64, then
    SplitMix64's finalizer. Only integer arithmetic, which numpy does
    without BLAS, so the hash is the same on every host, and a row hashes
    alike in any integer dtype (a negative value as its two's complement).
    Rows that collide only need some fixed order."""
    rows = np.asarray(rows)
    return _mix64((rows.astype(np.uint64) + 1) @ _weights(seed, rows.shape[1]))


def is_json_int64(value) -> bool:
    """Whether a JSON value is an integer within int64, not a bool."""
    return type(value) is int and -(2**63) <= value < 2**63


def is_json_finite(value) -> bool:
    """Whether a JSON value is a finite number, not a bool."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def read_json(path: str | Path):
    """The JSON document in file `path`; an unreadable file, text that is not
    UTF-8 or invalid JSON is a ConfigError naming the path (and, for invalid
    JSON, the line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
