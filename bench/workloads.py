"""Benchmark workloads: seeded inputs, one round of work, correctness gates.

A *round* is the work one fresh worker process does (see ``worker.py``), so
the certificate cache and every lazily built table start cold in each round,
as they do for a user who runs one command.  Everything here calls madcap
only through its public entry points; nothing under ``src/`` is changed.

Workloads (see NOTES.md for why each was chosen):

* ``sweep-d3``: one ``madcap sweep`` command per round over one *unit* of
  the d = 3 lattice (gamma10, gamma20, gamma21) in steps of 0.1.  A unit is a
  line along gamma10 with step 0.3 at fixed (gamma20, gamma21).  Rows are
  checked against ``data/sweep_d3_reference.csv``, made on the seed commit.
* ``quadrant``: serial ``certify_capacity`` calls on Latin transversals of the
  25 x 25 unit-capacity quadrant of the worked 4-level example.
* ``extension-grid``: two-extension witnesses for antidegradable d = 4 points
  on the k/20 grid, picked with the exact integer criterion.
"""
import csv
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_CSV = DATA_DIR / "sweep_d3_reference.csv"
UNITS_CSV = DATA_DIR / "sweep_d3_units.csv"

WORKLOADS = ("sweep-d3", "quadrant", "extension-grid")

TOL_BORDER = 1e-6      # CLI default, used for the sweep value gate
TOL_MARGINAL = 1e-10   # two-extension marginals vs the Choi state
TOL_PSD = 1e-9         # PSD tolerance of the two-extension
PERTURBATION = 1e-3    # added to reference values by --perturb-reference

# Round sizes: (normal, smoke).  A normal round takes a few seconds on the
# seed commit (2 cores), so a 30 s run holds several fresh-process rounds.
QUADRANT_POINTS = (75, 4)        # 3 Latin transversals of 25 points
EXTENSION_POINTS = (4000, 40)

# extension-grid fails on its known float-boundary points, so its runs do a
# fixed number of rounds, one per EXTENSION_ROUND_S of --seconds (a round's
# wall time on the seed commit, 2 cores): then a seed attempts the same
# points, and fails the same ones, however fast the machine runs.
EXTENSION_ROUND_S = 3.0

QUADRANT_N = 25
QUADRANT_STEP = 0.02
EXT_STEPS = 20
EXT_DIM = 4

# Seed-stream tags, so the workloads draw independent streams from one seed.
_TAG = {"sweep-d3": 1, "quadrant": 2, "extension-grid": 3}

# name: (dim, decays, expected certificate kind, expected value or None)
ANCHORS = {
    # The d = 3 LowerBound point of ROADMAP item 1 (2374 is_degradable calls
    # on the seed commit).
    "lowerbound_d3": (3, {(1, 0): 0.25, (2, 1): 0.3, (2, 0): 0.2},
                      "LowerBound", None),
    # The README channel.
    "readme_d4": (4, {(1, 0): 0.7, (3, 2): 0.35, (3, 0): 0.35},
                  "ExactByRegionExtension", 1.0),
}


def rng_for(workload: str, seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAG[workload], rnd])


# ---------------------------------------------------------------------------
# sweep-d3

def all_sweep_units():
    """Every unit (offset, gamma20, gamma21) in tenths; offset in 0..2 picks
    gamma10 in {offset, offset + 3, ...} tenths."""
    return [(o, b, c) for b in range(11) for c in range(11 - b)
            for o in range(3)]


def sweep_spec(unit) -> dict:
    o, b, c = unit

    def fixed(t):
        return {"min": t / 10, "max": t / 10, "step": 0.1}

    return {"dim": 3,
            "decays": [{"from": 1, "to": 0, "p": "g10"},
                       {"from": 2, "to": 0, "p": "g20"},
                       {"from": 2, "to": 1, "p": "g21"}],
            "slots": {"g10": {"min": o / 10, "max": 1.0, "step": 0.3},
                      "g20": fixed(b), "g21": fixed(c)},
            "analyses": ["classify", "capacity"]}


def unit_keys(unit):
    """CSV coordinate keys of a unit's grid points, as the CLI formats them."""
    o, b, c = unit
    return [(f"{round(a / 10, 12):.12g}", f"{b / 10:.12g}", f"{c / 10:.12g}")
            for a in range(o, 11, 3)]


def read_sweep_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {tuple(r[:3]): r[3:] for r in reader}


def sweep_row_ok(got, want, perturb: bool) -> bool:
    """degradable, antidegradable and cert_kind identical; cert_value within
    tol_border.  ``min_eig`` (got[2]) is informational only."""
    if got is None or want is None:
        return False
    if got[0] != want[0] or got[1] != want[1] or got[3] != want[3]:
        return False
    if got[4] == "" or want[4] == "":
        return got[4] == want[4]
    ref = float(want[4]) + (PERTURBATION if perturb else 0.0)
    return abs(float(got[4]) - ref) <= TOL_BORDER


def run_sweep_round(job, tracer):
    from madcap import cli

    unit = tuple(job["unit"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"sweep-{os.getpid()}"
    spec_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
    spec_path.write_text(json.dumps(sweep_spec(unit)))
    reference = (None if job.get("make_reference")
                 else read_sweep_csv(REFERENCE_CSV))
    yield "ready"
    t0, c0 = time.perf_counter(), time.process_time()
    code = cli.main(["sweep", str(spec_path), "--out", str(csv_path)])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    rows = read_sweep_csv(csv_path) if code == 0 else {}
    for path in (spec_path, csv_path):
        if path.exists():
            path.unlink()
    keys = unit_keys(unit)
    failed = [list(k) for k in keys if reference is not None
              and not sweep_row_ok(rows.get(k), reference.get(k),
                                   job.get("perturb", False))]
    if code != 0:
        failed = [list(k) for k in keys]
    yield {"unit": list(unit), "attempted": len(keys), "failed": failed,
           "known_failed": [],
           "busy_s": wall, "point_ms": [1e3 * wall / len(keys)],
           "cpu_s": cpu, "exit_code": code,
           "rows": {",".join(k): v for k, v in rows.items()}
           if job.get("make_reference") else None}


# ---------------------------------------------------------------------------
# quadrant

def quadrant_points(seed: int, rnd: int, n: int):
    """``n`` points (i, j) of the 25 x 25 quadrant, in seeded order, taken
    from Latin transversals: when ``n`` is a multiple of 25 every g11 row and
    every g33 column appears equally often."""
    rng = rng_for("quadrant", seed, rnd)
    sigma = rng.permutation(QUADRANT_N)
    tau = rng.permutation(QUADRANT_N)
    count = -(-n // QUADRANT_N)
    symbols = set(rng.choice(QUADRANT_N, size=count, replace=False).tolist())
    pts = [(i + 1, j + 1) for i in range(QUADRANT_N) for j in range(QUADRANT_N)
           if (sigma[i] + tau[j]) % QUADRANT_N in symbols]
    order = rng.permutation(len(pts))
    return [pts[k] for k in order[:n]]


def example_decays(gamma10, gamma32, gamma30):
    """Decays of the worked 4-level example channel."""
    return {k: v for k, v in {(1, 0): gamma10, (3, 2): gamma32,
                              (3, 0): gamma30}.items() if v > 0}


def run_quadrant_round(job, tracer):
    from madcap.capacity import certify_capacity
    from madcap.channel import TransitionMatrix
    from madcap.errors import MadcapError

    pts = quadrant_points(job["seed"], job["round"],
                          QUADRANT_POINTS[job["smoke"]])
    expected = 1.0 + (PERTURBATION if job.get("perturb") else 0.0)
    yield "ready"
    point_ms, failed = [], []
    for i, j in pts:
        g11 = round(QUADRANT_STEP * i, 10)
        g33 = round(QUADRANT_STEP * j, 10)
        tracer.set_point(f"{i}:{j}")
        t0 = time.perf_counter()
        try:
            tm = TransitionMatrix(4, example_decays(1 - g11, (1 - g33) / 2,
                                                    (1 - g33) / 2))
            cert = certify_capacity(tm)
        except (MadcapError, np.linalg.LinAlgError):
            cert = None
        point_ms.append(1e3 * (time.perf_counter() - t0))
        if cert is None or not cert.exact or abs(cert.value - expected) > 1e-6:
            failed.append([i, j])
    yield {"attempted": len(pts), "failed": failed, "known_failed": [],
           "busy_s": sum(point_ms) / 1e3, "point_ms": point_ms}


# ---------------------------------------------------------------------------
# extension-grid

def admissible_int_rows(width: int):
    """Integer decay rows (k_0..k_{width-1}) with sum <= EXT_STEPS."""
    return np.array([c for c in itertools.product(range(EXT_STEPS + 1),
                                                  repeat=width)
                     if sum(c) <= EXT_STEPS], dtype=int)


def antidegradable_int_rows(width: int):
    """Exact criterion on the k/20 grid: k_j0 >= k_jj = 20 - sum(row)."""
    rows = admissible_int_rows(width)
    return rows[rows[:, 0] >= EXT_STEPS - rows.sum(axis=1)]


def extension_points(seed: int, rnd: int, n: int):
    """``n`` uniform samples of the antidegradable d = 4 grid points.  The set
    is a product of per-level row sets, so each level is drawn on its own."""
    rng = rng_for("extension-grid", seed, rnd)
    levels = [antidegradable_int_rows(w) for w in range(1, EXT_DIM)]
    picks = [lv[rng.integers(0, len(lv), size=n)] for lv in levels]
    return [tuple(tuple(int(x) for x in p[k]) for p in picks)
            for k in range(n)]


def run_extension_round(job, tracer):
    from madcap import linalg, structure
    from madcap.channel import TransitionMatrix
    from madcap.errors import MadcapError

    pts = extension_points(job["seed"], job["round"],
                           EXTENSION_POINTS[job["smoke"]])
    dims = [EXT_DIM] * 3
    shift = PERTURBATION if job.get("perturb") else 0.0
    yield "ready"
    point_ms, failed, known = [], [], []
    for k, rows in enumerate(pts):
        decays = {(j + 1, i): row[i] / EXT_STEPS
                  for j, row in enumerate(rows) for i in range(j + 1)
                  if row[i] > 0}
        tracer.set_point(str(k))
        t0 = time.perf_counter()
        tm = TransitionMatrix(EXT_DIM, decays)
        try:
            tau = structure.build_two_extension(tm).tau
            choi = structure.mad_choi_state(tm)
            tr_b2 = linalg.partial_trace(tau, dims, [0, 1])
            tr_b1 = linalg.partial_trace(tau, dims, [0, 2])
            psd = linalg.is_psd(tau, TOL_PSD)
        except (MadcapError, np.linalg.LinAlgError):
            point_ms.append(1e3 * (time.perf_counter() - t0))
            # A point the exact integer criterion accepts but the library's
            # float test rejects is the known float-boundary defect.
            (known if not structure.is_antidegradable(tm) else failed).append(
                [list(r) for r in rows])
            continue
        point_ms.append(1e3 * (time.perf_counter() - t0))
        ref = choi.copy()
        ref[0, 0] += shift
        if not (psd and np.max(np.abs(tr_b2 - ref)) <= TOL_MARGINAL
                and np.max(np.abs(tr_b1 - ref)) <= TOL_MARGINAL):
            failed.append([list(r) for r in rows])
    yield {"attempted": len(pts), "failed": failed + known,
           "known_failed": known, "busy_s": sum(point_ms) / 1e3,
           "point_ms": point_ms}


# ---------------------------------------------------------------------------
# anchors (traced runs only)

def run_anchor_round(job, tracer):
    from madcap.capacity import certify_capacity
    from madcap.channel import TransitionMatrix

    dim, decays, kind, value = ANCHORS[job["anchor"]]
    yield "ready"
    tracer.set_point(job["anchor"])
    t0 = time.perf_counter()
    cert = certify_capacity(TransitionMatrix(dim, decays))
    wall = time.perf_counter() - t0
    ok = cert.kind == kind and (value is None
                                or abs(cert.value - value) <= TOL_BORDER)
    yield {"attempted": 1, "failed": [] if ok else [job["anchor"]],
           "known_failed": [], "busy_s": wall, "point_ms": [1e3 * wall]}


ROUNDS = {"sweep-d3": run_sweep_round, "quadrant": run_quadrant_round,
          "extension-grid": run_extension_round, "anchor": run_anchor_round}
