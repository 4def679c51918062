"""Write atlas_d4_reference.json: the certificates of a seeded subset of the
0.2-step d = 4 atlas (atlas_d4.json), certified in one process, stores
empty at the start, in grid order.

Each point is stored with its slot values, its certificate kind, repr of
its value and its provenance. Run from the repository root:

    PYTHONPATH=src python tests/data/make_atlas_reference.py
"""
import itertools
import json
from pathlib import Path

import numpy as np

from madcap.capacity import certify_capacity
from madcap.cli import _instantiate, _parse_sweep_spec
from madcap.errors import MadcapError

DATA = Path(__file__).resolve().parent
SEED = 20261020
POINTS = 300


def atlas_points():
    """(coords, TransitionMatrix) for every valid atlas point, in grid
    order: the sweep's points that are channels."""
    spec = json.loads((DATA / "atlas_d4.json").read_text())
    dim, decays, names, ranges, _, _ = _parse_sweep_spec(spec)
    points = []
    for coords in itertools.product(*ranges):
        try:
            points.append((coords, _instantiate(dim, decays, names, coords)))
        except MadcapError:
            continue
    return points


def main():
    points = atlas_points()
    picks = np.sort(np.random.default_rng(SEED).choice(
        len(points), size=POINTS, replace=False))
    rows = []
    for k in picks:
        coords, tm = points[k]
        cert = certify_capacity(tm)
        rows.append({"coords": list(coords), "kind": cert.kind,
                     "value": repr(cert.value),
                     "provenance": cert.provenance})
    payload = {"spec": "atlas_d4.json", "atlas_points": len(points),
               "seed": SEED, "points": rows}
    (DATA / "atlas_d4_reference.json").write_text(
        json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
