"""Clustered search histories in the evaluation-log format (evals.jsonl).

A history imitates what several converged searches leave behind: a few dense
clusters of configurations around good centres plus uniform noise. It is
made from the seed by the benchmark's own code, so its bytes do not depend on
the engine version under test.
"""

from __future__ import annotations

import json

import numpy as np

from surface import OBJECTIVES, ClxSurface, Layout, oracle_front, subseed


def clustered_genotypes(
    layout: Layout,
    seed: int,
    n: int,
    clusters: int = 3,
    flip_rate: float = 0.04,
    noise_frac: float = 0.1,
    centres=None,
) -> list[tuple[int, ...]]:
    """n distinct canonical genotypes; each is either uniform noise or a
    cluster centre with every gene redrawn with probability flip_rate.
    Unless given, the centres are spread along the front of a uniform sample,
    where converged searches leave their histories."""
    rng = np.random.default_rng(subseed(seed, "history", layout.name))
    if centres is None:
        centres = front_centres(layout, rng, clusters)
    clusters = len(centres)
    counts = np.array([len(vals) for vals in layout.allowed])
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < n:
        if rng.random() < noise_frac:
            genes = layout.sample(rng, 1)[0]
        else:
            row = list(centres[int(rng.integers(clusters))])
            redraw = rng.random(layout.length) < flip_rate
            ranks = rng.integers(0, counts)
            for pos in np.nonzero(redraw)[0]:
                row[pos] = layout.allowed[pos][ranks[pos]]
            genes = layout.canonicalize(row)
        if genes not in seen:
            seen.add(genes)
            out.append(genes)
    return out


def front_centres(layout: Layout, rng, k: int, sample: int = 1000):
    """k genotypes evenly spaced along the front of a uniform sample."""
    surface = ClxSurface(layout)
    recs = [(g, *surface.evaluate(g)) for g in layout.sample(rng, sample)]
    front = sorted(oracle_front(recs), key=lambda r: r[2])
    return [front[(2 * i + 1) * len(front) // (2 * k)][0] for i in range(k)]


def write_history(path, layout: Layout, genotypes, batch: int = 50) -> None:
    """Write genotypes with their clx-like objectives as a validation log."""
    surface = ClxSurface(layout)
    header = {"type": "run", "space": layout.name, "objectives": list(OBJECTIVES)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for seq, genes in enumerate(genotypes):
            top1, latency = surface.evaluate(genes)
            doc = {
                "type": "eval",
                "seq": seq,
                "gen": seq // batch,
                "genotype": list(genes),
                "objectives_raw": {"top1": top1, "latency_ms": latency},
                "source": "validation",
                "evaluator_id": "synthetic:clx-like",
            }
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
