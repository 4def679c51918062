"""madcap benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep-d3,quadrant,extension-grid} \
        --seed N --seconds S --trace {0,1} [--smoke] [--perturb-reference]

Every round runs in a fresh worker process (``worker.py``), so caches start
cold as they do for a user running one command.  With ``--trace 0`` it
runs cycles of seeded rounds until ``--seconds`` have passed and
reports the end-to-end metrics; ``extension-grid`` instead runs a fixed
number of rounds set by ``--seconds``, so its failed points repeat for a
seed.  With ``--trace 1`` it runs the first cycle
once untraced and once traced, plus two fixed anchor channels traced, and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it starting with ``#`` record the environment and a summary.
``--smoke`` runs one tiny round; ``--perturb-reference`` shifts every
reference value so the correctness gates must fire (used by
``test_bench.py``).
"""
import argparse
import csv
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RUN_LIMIT_S = 170.0

# Workers run BLAS single-threaded.  madcap's matrices are 64x64 at most, and
# a second BLAS thread mostly waits for the other core: on a shared 2-vCPU
# machine it made extension-grid rounds swing between 1200 and 2900 points/s
# with the neighbours' load, against 2200-2500 points/s single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_ENV = dict(os.environ, **{k: "1" for k in THREAD_VARS})

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s",
                    "point_p50_ms": "ms", "point_p90_ms": "ms",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}

# (metric, unit, span name, field); field is calls, calls_per_point or self_s.
LAYER_METRICS = [
    ("capacity.certify_capacity.calls_per_point", "calls/point",
     "capacity.certify_capacity", "calls_per_point"),
    ("capacity.certify_capacity.self_s", "s",
     "capacity.certify_capacity", "self_s"),
    ("capacity.max_diagonal_coherent_info.calls", "count",
     "capacity.max_diagonal_coherent_info", "calls"),
    ("capacity.max_diagonal_coherent_info.self_s", "s",
     "capacity.max_diagonal_coherent_info", "self_s"),
    ("structure.is_degradable.calls_per_point", "calls/point",
     "structure.is_degradable", "calls_per_point"),
    ("structure.is_degradable.self_s", "s",
     "structure.is_degradable", "self_s"),
    ("structure.monotonicity_certificate.calls", "count",
     "structure.monotonicity_certificate", "calls"),
    ("structure.build_two_extension.self_s", "s",
     "structure.build_two_extension", "self_s"),
    ("structure.mad_choi_state.self_s", "s",
     "structure.mad_choi_state", "self_s"),
    ("maps.LinearMap.choi.calls", "count", "maps.LinearMap.choi", "calls"),
    ("maps.LinearMap.choi.self_s", "s", "maps.LinearMap.choi", "self_s"),
    ("inverse.mad_inverse.self_s", "s", "inverse.mad_inverse", "self_s"),
    ("complementary.complementary_map.self_s", "s",
     "complementary.complementary_map", "self_s"),
    ("channel.TransitionMatrix.calls", "count",
     "channel.TransitionMatrix", "calls"),
    ("channel.TransitionMatrix.self_s", "s",
     "channel.TransitionMatrix", "self_s"),
    ("linalg.eigvalsh.calls", "count", "linalg.eigvalsh", "calls"),
    ("linalg.eigvalsh.self_s", "s", "linalg.eigvalsh", "self_s"),
    ("linalg.partial_trace.self_s", "s", "linalg.partial_trace", "self_s"),
    ("linalg.is_psd.self_s", "s", "linalg.is_psd", "self_s"),
]


class BenchError(RuntimeError):
    pass


def run_worker(job, deadline):
    """Run one round in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    job = dict(job, spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                              capture_output=True, text=True, cwd=ROOT,
                              env=WORKER_ENV, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round timed out: {job['name']}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"round {job['name']} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# schedule

# sweep-d3 strata: bands of seconds per point that a 4-point unit took on the
# seed commit (data/sweep_d3_units.csv, 2 cores).  Unit costs span three
# orders of magnitude; one unit from each band per cycle gives every run the
# same mix of cheap and expensive sweeps.  The bands are narrow clusters of
# unit costs that together hold all five certificate kinds, and there is an
# odd number of them, so the median sweep falls inside the middle band rather
# than in a gap between two bands.  Units outside the bands, and the 3-point
# units, are not used.
SWEEP_BANDS = ((0.015, 0.06), (0.65, 0.75), (1.25, 1.47))


def sweep_strata():
    strata = [[] for _ in SWEEP_BANDS]
    with open(workloads.UNITS_CSV, newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["points"]) != 4:
                continue
            per_point = float(row["wall_s"]) / 4
            for units, (lo, hi) in zip(strata, SWEEP_BANDS):
                if lo <= per_point < hi:
                    units.append((int(row["offset"]), int(row["g20"]),
                                  int(row["g21"])))
    return strata


def make_cycles(args):
    """Jobs grouped in cycles; a run stops only at the end of a cycle.

    sweep-d3: cycle c sweeps one unit of every stratum, visiting each
    stratum's units in a seeded order.  quadrant and extension-grid: one
    round per cycle, each with its own seeded inputs; extension-grid gets
    exactly the cycles its run does.
    """
    base = {"workload": args.workload, "seed": args.seed,
            "smoke": int(args.smoke), "perturb": args.perturb_reference,
            "trace": 0}
    if args.workload != "sweep-d3":
        count = 10000
        if args.smoke:
            count = 1
        elif args.workload == "extension-grid":
            count = max(1, round(args.seconds / workloads.EXTENSION_ROUND_S))
        return [[dict(base, round=c, name=f"{args.workload}-r{c}")]
                for c in range(count)]
    rng = random.Random(f"sweep-d3:{args.seed}")
    strata = sweep_strata()
    if args.smoke:
        return [[dict(base, round=0, unit=list(rng.choice(strata[0])),
                      name="sweep-d3-r0")]]
    orders = [rng.sample(units, len(units)) for units in strata]
    cycles = []
    for c in range(min(map(len, orders))):
        cycles.append([dict(base, round=c * len(orders) + k,
                            unit=list(order[c]),
                            name=f"sweep-d3-r{c * len(orders) + k}")
                       for k, order in enumerate(orders)])
    return cycles


# ---------------------------------------------------------------------------
# metrics

def quantile(values, k):
    """k-th decile (1..9) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[k - 1]


def tally(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failed"]) for r in results)
    known = sum(len(r["known_failed"]) for r in results)
    return attempted, failed, known


def end_to_end(cycles):
    """Metrics of a run; ``cycles`` holds each cycle's round results.  The
    rate is the median over cycles, so one disturbed cycle does not move it."""
    results = [r for cycle in cycles for r in cycle]
    attempted, failed, _ = tally(results)
    rates = []
    for cycle in cycles:
        done, bad, _ = tally(cycle)
        rates.append((done - bad) / sum(r["busy_s"] for r in cycle))
    point_ms = [x for r in results for x in r["point_ms"]]
    return {"setup_s": statistics.median(r["setup_s"] for r in results),
            "points_per_s": statistics.median(rates),
            "point_p50_ms": quantile(point_ms, 5),
            "point_p90_ms": quantile(point_ms, 9),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(r["rss_mb"] for r in results)}


def merge_layers(results):
    merged = {}
    for res in results:
        for span, agg in res["layers"].items():
            into = merged.setdefault(span, {"calls": 0, "self_s": 0.0,
                                            "incl_s": 0.0})
            for key in into:
                into[key] += agg[key]
    return merged


def per_layer(plain, traced, anchors):
    """Per-layer metrics of the traced rounds; ``plain`` are the same rounds
    untraced."""
    layers = merge_layers(traced)
    points = sum(r["attempted"] for r in traced)
    out = {}
    for metric, unit, span, field in LAYER_METRICS:
        agg = layers.get(span, {"calls": 0, "self_s": 0.0})
        value = (agg["calls"] / points if field == "calls_per_point"
                 else agg[field])
        out[metric] = (value, unit)
    plain_busy = sum(r["busy_s"] for r in plain)
    out["cli.sweep.cpu_per_wall"] = (
        sum(r.get("cpu_s", 0.0) for r in plain) / plain_busy, "ratio")
    out["trace.points"] = (points, "count")
    out["trace.spans"] = (sum(r["spans"] for r in traced), "count")
    out["trace.overhead"] = (
        sum(r["busy_s"] for r in traced) / plain_busy - 1.0, "ratio")
    for name, res in anchors.items():
        deg = res["layers"].get("structure.is_degradable", {"calls": 0})
        out[f"anchor.{name}.is_degradable.calls"] = (deg["calls"], "count")
        out[f"anchor.{name}.wall_s"] = (res["busy_s"], "s")
    readme = anchors["readme_d4"]["layers"]
    for span, label in (("maps.LinearMap.choi", "choi"),
                        ("structure.is_degradable", "is_degradable"),
                        ("capacity.max_diagonal_coherent_info",
                         "max_diagonal_coherent_info")):
        agg = readme.get(span)
        mean = 1e3 * agg["incl_s"] / agg["calls"] if agg else 0.0
        out[f"anchor.readme_d4.{label}_mean_ms"] = (mean, "ms")
    return out


# ---------------------------------------------------------------------------
# environment

def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "madcap"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}: "
                    f"{blas.get('openblas configuration', '')}".strip(),
            "thread_env": {k: WORKER_ENV[k] for k in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--perturb-reference", action="store_true")
    return p.parse_args(argv)


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    cycles = make_cycles(args)
    if args.trace:
        plain = [run_worker(job, deadline) for job in cycles[0]]
        traced = [run_worker(dict(job, trace=1, name=job["name"] + "-traced"),
                             deadline) for job in cycles[0]]
        anchors = {name: run_worker(
            {"workload": "anchor", "anchor": name, "trace": 1,
             "name": f"{args.workload}-anchor-{name}"}, deadline)
            for name in workloads.ANCHORS}
        results = plain + traced + list(anchors.values())
        metrics = per_layer(plain, traced, anchors)
    else:
        done, start = [], time.monotonic()
        for cycle in cycles:
            done.append([run_worker(job, deadline) for job in cycle])
            if (args.workload != "extension-grid"
                    and time.monotonic() - start >= args.seconds):
                break
        results = [r for cycle in done for r in cycle]
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(done).items()}
    attempted, failed, known = tally(results)
    return {"correct": failed == known,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}, results, known


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "madcap" / "__init__.py").is_file():
        print(f"error: madcap sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        env = environment(args.seed)
        summary, results, known = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed_points = [p for r in results for p in r["failed"]]
    workloads.OUT_DIR.mkdir(exist_ok=True)
    rounds = [{k: r.get(k) for k in ("unit", "attempted", "busy_s",
                                      "steal_share", "setup_s")}
              for r in results]
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "rounds": rounds, "failed_points": failed_points,
              "result": summary}
    (workloads.OUT_DIR / f"result-{args.workload}-seed{args.seed}"
               f"-trace{args.trace}.json").write_text(json.dumps(record))
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed {args.seed}: {summary['attempted']} "
          f"points in {len(results)} rounds, {summary['failed']} failed "
          f"({known} known float-boundary points), {env['nproc']} cores")
    if failed_points:
        print("# failed points: " + json.dumps(failed_points[:20])
              + (" ..." if len(failed_points) > 20 else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
