"""Write atlas_d4_reference.json: the certificates of a seeded subset of the
0.2-step d = 4 atlas (atlas_d4.json), certified in one process, stores
empty at the start, in grid order.

Each point is stored with its slot values, its certificate kind, repr of
its value and its provenance. Run from the repository root:

    PYTHONPATH=src python tests/data/make_atlas_reference.py [--diff]

With --diff nothing is written: each row whose kind, repr(value) or
provenance differs from the committed reference is printed as one JSON
line [coords, old, new], old and new being [kind, value, provenance],
followed by a count and the largest value move.
"""
import argparse
import itertools
import json
from pathlib import Path

import numpy as np

from madcap.capacity import certify_capacity
from madcap.cli import _instantiate, _parse_sweep_spec
from madcap.errors import MadcapError

DATA = Path(__file__).resolve().parent
REFERENCE = DATA / "atlas_d4_reference.json"
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


def reference_payload():
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
    return {"spec": "atlas_d4.json", "atlas_points": len(points),
            "seed": SEED, "points": rows}


def print_diff(old_rows, new_rows):
    def fields(row):
        return [row["kind"], row["value"], row["provenance"]]

    if [r["coords"] for r in old_rows] != [r["coords"] for r in new_rows]:
        raise SystemExit("the committed reference holds other points")
    moved, worst = 0, 0.0
    for old, new in zip(old_rows, new_rows):
        if fields(old) != fields(new):
            moved += 1
            worst = max(worst, abs(float(new["value"]) - float(old["value"])))
            print(json.dumps([new["coords"], fields(old), fields(new)]))
    print(f"{moved} of {len(new_rows)} rows differ; "
          f"largest value move {worst:.3g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the rows that differ from the committed "
                             "reference and write nothing")
    args = parser.parse_args()
    payload = reference_payload()
    if args.diff:
        committed = json.loads(REFERENCE.read_text())
        print_diff(committed["points"], payload["points"])
    else:
        REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
