"""One benchmark round in a fresh process.

Usage: python3 bench/worker.py '<job JSON>'

The job names the workload, seed, round and whether to trace; ``spawn`` is
the CLOCK_MONOTONIC time at which the parent started this process, so the
reported ``setup_s`` runs from process start until madcap is imported and the
round's inputs are built.  The result is one JSON line on stdout.

Program times exclude host steal time: on a shared virtual machine the
hypervisor takes the CPUs away for stretches of up to a third of the wall
time, which would otherwise read as a slower program.
"""
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_times():
    """(busy, steal) seconds summed over all CPUs since boot, from
    /proc/stat; (0, 0) where it does not exist."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, _, _, irq, softirq, steal = fields
    return (user + nice + system + irq + softirq) / tick, steal / tick


def steal_share(before, after, wall):
    """Share of this process's time the host stole.  A CPU accrues steal
    only while it wants to run, so the stolen seconds are divided by the
    number of CPUs that were busy."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    if wall <= 0 or steal <= 0:
        return 0.0
    busy_cpus = max(1.0, (busy + steal) / wall)
    return min(0.5, steal / busy_cpus / wall)


def main(argv):
    job = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import madcap  # noqa: F401  (import time is part of set-up)
    import tracing
    import workloads

    tracer = tracing.Tracer() if job["trace"] else tracing.NullTracer()
    if job["trace"]:
        tracer.install()
    steps = workloads.ROUNDS[job["workload"]](job, tracer)
    next(steps)
    setup_s = time.monotonic() - job["spawn"]
    before, t0 = cpu_times(), time.monotonic()
    result = next(steps)
    share = steal_share(before, cpu_times(), time.monotonic() - t0)
    result["steal_share"] = share
    result["busy_s"] *= 1.0 - share
    result["point_ms"] = [x * (1.0 - share) for x in result["point_ms"]]
    result["setup_s"] = setup_s
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["rss_mb"] = rusage.ru_maxrss / 1024
    if job["trace"]:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.spans)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"trace-{job['name']}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
