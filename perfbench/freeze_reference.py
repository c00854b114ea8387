"""Freezes the hypervolume reference point of each (space, surface) pair.

    python3 perfbench/freeze_reference.py > perfbench/hv_reference.json

The reference is the worst canonical-minimisation value of each objective
over a large uniform sample drawn with a fixed seed, independent of any
workload seed, so hypervolumes compare across runs, tactics and versions.
Run from the root of a source checkout (the space layout comes from ./src).
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from surface import ClxSurface, Layout, canonical_min  # noqa: E402

SAMPLE_SEED = 20220225
SAMPLE_SIZE = 200_000


def main() -> int:
    from subnetsearch.space import get_preset, space_to_dict

    out = {}
    for space in ("mobilenetv3-like",):
        layout = Layout(space_to_dict(get_preset(space)))
        surface = ClxSurface(layout)
        rng = np.random.default_rng(SAMPLE_SEED)
        points = [canonical_min(*surface.evaluate(g)) for g in layout.sample(rng, SAMPLE_SIZE)]
        out[f"{space}/clx-like"] = {
            "reference": [max(p[0] for p in points), max(p[1] for p in points)],
            "sample_seed": SAMPLE_SEED,
            "sample_size": SAMPLE_SIZE,
        }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
