"""The benchmark's own model of a search space and the clx-like surface.

Nothing here imports the program: the external evaluator, the history
generator and the correctness oracles must give the same answers on every
version of the engine they measure.

A layout is read from a search-space document (the JSON format the CLI
accepts with --space <file>). The surface mirrors the `synthetic:clx-like`
preset operation for operation, so its values match the in-process evaluator
to the last bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

OBJECTIVES = (
    {"name": "top1", "direction": "maximize", "unit": "fraction"},
    {"name": "latency_ms", "direction": "minimize", "unit": "ms"},
)


def stable_hash64(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes(16, "little", signed=True)
        elif isinstance(part, str):
            part = part.encode("utf-8")
        h.update(part)
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def subseed(seed: int, *labels) -> int:
    return stable_hash64(seed, *labels)


class Layout:
    """Allowed values per position and the block activity rule of a space."""

    def __init__(self, doc: dict):
        self.name = doc["name"]
        allowed = []
        for p in doc["params"]:
            allowed.extend([tuple(p["allowed_values"])] * int(p["position_count"]))
        self.allowed = tuple(allowed)
        self.length = len(allowed)
        self.rank = tuple({v: r for r, v in enumerate(vals)} for vals in allowed)
        # (position, depth gene, layer slot) for every governed position
        self.governed = []
        for b in doc.get("blocks", []):
            ppl = len(b["governed_genes"]) // int(b["max_layers"])
            for slot, pos in enumerate(b["governed_genes"]):
                self.governed.append((pos, b["depth_gene"], slot // ppl))

    def active_mask(self, genes) -> list[bool]:
        mask = [True] * self.length
        for pos, depth_gene, layer in self.governed:
            if layer >= genes[depth_gene]:
                mask[pos] = False
        return mask

    def canonicalize(self, genes) -> tuple[int, ...]:
        out = list(genes)
        for pos, depth_gene, layer in self.governed:
            if layer >= out[depth_gene]:
                out[pos] = self.allowed[pos][0]
        return tuple(out)

    def ordinal(self, genes) -> np.ndarray:
        feats = np.empty(self.length)
        for pos, value in enumerate(genes):
            k = len(self.allowed[pos])
            feats[pos] = 0.0 if k == 1 else self.rank[pos][value] / (k - 1)
        return feats

    def sample(self, rng, n: int) -> list[tuple[int, ...]]:
        """n canonical genotypes, each gene uniform before canonicalization."""
        counts = np.array([len(vals) for vals in self.allowed])
        ranks = rng.integers(0, counts, size=(n, self.length))
        return [
            self.canonicalize(tuple(self.allowed[p][r] for p, r in enumerate(row)))
            for row in ranks
        ]


class ClxSurface:
    """Accuracy saturates with weighted gene ranks; latency sums per-gene
    costs over active genes plus pairwise interactions (the clx-like preset)."""

    def __init__(self, layout: Layout, preset: str = "clx-like"):
        self.layout = layout
        length = layout.length
        acc_rng = np.random.default_rng(subseed(101, "accuracy", layout.name))
        self.weights = acc_rng.uniform(0.5, 2.0, length)
        lat_rng = np.random.default_rng(subseed(202, "latency", preset, layout.name))
        self.costs = np.exp(lat_rng.uniform(math.log(0.5), math.log(12.0), length))
        self.interactions = []
        for _ in range(min(10, length * (length - 1) // 2)):
            i, j = sorted(int(v) for v in lat_rng.choice(length, size=2, replace=False))
            self.interactions.append((i, j, float(lat_rng.uniform(0.02, 0.2))))
        self.temperature = 1.5 * float(self.weights.sum())

    def evaluate(self, genes) -> tuple[float, float]:
        """(top1, latency_ms) of a canonical genotype."""
        feats = self.layout.ordinal(genes)
        acc = 0.85 - 0.45 * math.exp(-float(self.weights @ feats) / self.temperature)
        mask = self.layout.active_mask(genes)
        lat = 10.0
        for pos, active in enumerate(mask):
            if active:
                lat += self.costs[pos] * (1.0 + feats[pos])
        for p, q, w in self.interactions:
            if mask[p] and mask[q]:
                lat += w * (1.0 + feats[p]) * (1.0 + feats[q])
        return acc, float(lat)


def canonical_min(top1: float, latency: float) -> tuple[float, float]:
    return (-top1, latency)


def front_indices(points) -> list[int]:
    """Indices of the non-dominated 2-D canonical-min points, in input order.

    A point is dropped only when another is no worse in both coordinates and
    better in one, so equal points are all kept. O(n log n) sweep; callers
    collapse repeated genotypes before calling.
    """
    order = sorted(range(len(points)), key=lambda i: points[i])
    keep = []
    best_y = math.inf  # lowest y among points with strictly smaller x
    k = 0
    while k < len(order):
        x = points[order[k]][0]
        group = []
        while k < len(order) and points[order[k]][0] == x:
            group.append(order[k])
            k += 1
        y_min = points[group[0]][1]
        if y_min < best_y:
            keep.extend(i for i in group if points[i][1] == y_min)
            best_y = y_min
    return sorted(keep)


def oracle_front(records) -> list:
    """Front of (genes, top1, latency) records: earliest record per genotype,
    ties between distinct genotypes kept, first-seen order."""
    first = {}
    for rec in records:
        first.setdefault(tuple(rec[0]), rec)
    recs = list(first.values())
    keep = front_indices([canonical_min(r[1], r[2]) for r in recs])
    return [recs[i] for i in keep]


def hypervolume(points, reference) -> tuple[float, int]:
    """Strip-sum area dominated by 2-D canonical-min points inside the
    reference box; returns (area, points outside the box)."""
    rx, ry = reference
    inside = [(x, y) for x, y in points if x < rx and y < ry]
    area = 0.0
    prev_y = ry
    for x, y in sorted(inside):
        if y < prev_y:
            area += (rx - x) * (prev_y - y)
            prev_y = y
    return area, len(points) - len(inside)
