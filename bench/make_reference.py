"""Regenerate the sweep-d3 reference data from the current sources.

Usage (from the repository root): python3 bench/make_reference.py

Runs every sweep unit once through ``madcap sweep`` in a fresh process and
writes
  data/sweep_d3_reference.csv  the CLI's rows for all 726 lattice points;
  data/sweep_d3_units.csv      each unit's point count and wall time, from
                               which run.py forms its cost strata.
The committed files were made on the seed commit, so the sweep-d3 gate
checks later versions against the seed's answers; rerun this only on purpose.
"""
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


# One sweep at a time, so the unit costs are not inflated by a second sweep
# on the same cores; about twelve minutes on 2 cores.
JOBS = 1


def main():
    units = workloads.all_sweep_units()

    def one(unit):
        job = {"workload": "sweep-d3", "unit": list(unit), "trace": 0,
               "make_reference": True, "name": f"reference-{unit}"}
        res = run.run_worker(job, time.monotonic() + 600)
        if res["exit_code"] != 0:
            raise run.BenchError(f"sweep failed for unit {unit}")
        return unit, res

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        done = list(pool.map(one, units))
    rows = {}
    for _, res in done:
        rows.update(res["rows"])
    workloads.DATA_DIR.mkdir(exist_ok=True)
    with open(workloads.REFERENCE_CSV, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["g10", "g20", "g21", "degradable", "antidegradable",
                      "min_eig", "cert_kind", "cert_value"])
        for key in sorted(rows, key=lambda k: tuple(map(float, k.split(",")))):
            out.writerow(key.split(",") + rows[key])
    with open(workloads.UNITS_CSV, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["offset", "g20", "g21", "points", "wall_s"])
        for unit, res in done:
            out.writerow(list(unit) + [res["attempted"],
                                       f"{res['busy_s']:.4f}"])
    print(f"wrote {len(rows)} reference rows and {len(done)} units",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
