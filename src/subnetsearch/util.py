"""Seed derivation, stable hashing, JSON input and value checks, setting checks.

All randomness in a run flows from a single seed through named sub-seeds so
that independent phases (sampling, evolution, noise) stay decoupled and
reproducible.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Iterable
from pathlib import Path

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


def genes_bytes(genes: Iterable[int]) -> bytes:
    """Compact byte serialization of a gene vector for hashing: the decimal
    genes joined by commas."""
    return ",".join(map(str, genes)).encode("ascii")


class GeneText(dict):
    """int -> its decimal text, made on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def pseudo_noise(genes: Iterable[int], noise_seed: int, label: str = "") -> float:
    """Deterministic zero-mean uniform noise in [-0.5, 0.5) keyed by genotype."""
    u = stable_hash64(genes_bytes(genes), noise_seed, label)
    return u / 2.0**64 - 0.5


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
