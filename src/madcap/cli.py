"""Command-line front end: analyze | sweep | mad3 | selftest.

Exit codes: 0 success, 1 numeric failure or an unwritable --out, 2
malformed input, set only by main and by cmd_analyze's numeric failures.
Sweeps certify one grid point after another in lexicographic grid order.
One command is one process, and the certificates, diagonal maxima and
decay-line records that the capacity module remembers for the process are
what later points of a sweep reuse. A sweep spec is malformed if a number
in it is not a finite JSON number, a level is fractional, or
TransitionMatrix refuses the channel all its points share. The
monotonicity analysis writes one monotonicity_certificate pair per point,
``mono|left:<status>|right:<status>`` and the right map's lambda_min.
Diagnostics (sweep progress, conditioning warnings) are
log records of the ``madcap`` loggers, printed to stderr while a command runs.
"""
import argparse
import itertools
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .capacity import (_MAX_ITERATIONS, adc_capacity, certify_capacity,
                       mad3_acge_verification)
from .channel import TransitionMatrix, _json_number
from .errors import MadcapError
from .structure import is_degradable, monotonicity_certificate

_DEG_CODE = {"yes": "1", "no": "0", "boundary": "boundary", "unknown": "unknown"}
_ANALYSES = ("classify", "capacity", "monotonicity")
# At most this many sweep points, counted before the grid is built; the
# 0.2-step d = 4 atlas has 6^6 = 46 656.
_MAX_SWEEP_POINTS = 1_000_000

# Named, not __name__: run as ``python -m madcap.cli`` this module is
# __main__, outside the "madcap" logger that main() prints to stderr.
logger = logging.getLogger("madcap.cli")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MadcapError(f"cannot read {path}: {exc}") from exc


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_analyze(args) -> int:
    tm = TransitionMatrix.from_json(json.dumps(_load_json(args.channel)))
    try:
        res = is_degradable(tm, args.tol_psd)
        cert = certify_capacity(tm, tol_border=args.tol_border,
                                tol_psd=args.tol_psd)
    except (MadcapError, np.linalg.LinAlgError) as exc:
        return _fail(f"numeric failure: {exc}", 1)
    report = {
        "dim": tm.dim,
        "classification": {
            "degradable": res.degradable,
            "antidegradable": res.antidegradable,
            "min_choi_eig": res.min_choi_eig,
        },
        "certificate": {
            "kind": cert.kind,
            "value": cert.value,
            "provenance": cert.provenance,
        },
    }
    text = json.dumps(report, indent=2)
    if args.out:
        _atomic_write(args.out, text + "\n")
    else:
        print(text)
    return 0


def _parse_sweep_spec(payload):
    """(dim, decays, slot names, ranges, analyses, monotonicity), each decay
    as (from, to, p), p a float or a slot name; MadcapError if malformed."""
    dim = _spec_number(payload, "dim", "sweep", whole=True)
    try:
        slots = payload.get("slots", {})
        decays = payload["decays"]
        analyses = payload.get("analyses", ["classify"])
        mono = payload.get("monotonicity")
    except (KeyError, TypeError, ValueError) as exc:
        raise MadcapError(f"malformed sweep spec: {exc}") from exc
    if not isinstance(slots, dict) or not isinstance(decays, list):
        raise MadcapError("malformed sweep spec: slots must be an object "
                          "and decays a list")
    if (not isinstance(analyses, list)
            or not all(isinstance(a, str) for a in analyses)):
        raise MadcapError("malformed sweep spec: analyses must be a list of "
                          "strings")
    unknown = [a for a in analyses if a not in _ANALYSES]
    if unknown:
        raise MadcapError(f"malformed sweep spec: unknown analyses {unknown}, "
                          f"expected some of {list(_ANALYSES)}")
    if "capacity" in analyses and "monotonicity" in analyses:
        raise MadcapError("malformed sweep spec: capacity and monotonicity "
                          "both fill cert_kind and cert_value; ask for one")
    slot_names, spans, size = sorted(slots), [], 1.0
    for name in slot_names:
        lo, hi, step = (_spec_number(slots[name], key, f"slot {name!r}")
                        for key in ("min", "max", "step"))
        if step <= 0.0:
            raise MadcapError(f"malformed sweep spec: slot {name!r} needs "
                              f"step > 0, got {step}")
        # np.arange's length, in floats so that it cannot overflow
        count = max(0.0, float(np.ceil((hi + 1e-12 - lo) / step)))
        size *= count
        if max(count, size) > _MAX_SWEEP_POINTS:
            raise MadcapError(f"malformed sweep spec: more than "
                              f"{_MAX_SWEEP_POINTS} grid points")
        spans.append((lo, hi + 1e-12, step))
    ranges = [[round(float(v), 12) for v in np.arange(*s)] for s in spans]
    levels = []
    for entry in decays:
        j, i = (_spec_number(entry, key, "decay", whole=True)
                for key in ("from", "to"))
        p = entry.get("p")
        if not isinstance(p, str):
            p = _spec_number(entry, "p", "decay")
        elif p not in slots:
            raise MadcapError(f"malformed sweep spec: decay p {p!r} names "
                              f"no slot")
        levels.append((j, i, p))
    if "monotonicity" in analyses:
        if not isinstance(mono, dict) or not mono:
            raise MadcapError("malformed sweep spec: the monotonicity analysis "
                              "needs a non-empty monotonicity object")
        if ("epsilon" in mono
                and _spec_number(mono, "epsilon", "monotonicity") <= 0.0):
            raise MadcapError(f"malformed sweep spec: monotonicity needs "
                              f"epsilon > 0, got {mono['epsilon']}")
        j, i = (_spec_number(mono, key, "monotonicity", whole=True)
                for key in ("from", "to"))
        mono = {**mono, "from": j, "to": i}
    # slot decays at 0: the channel every grid point shares
    shared = {(j, i): 0.0 if isinstance(p, str) else p for j, i, p in levels}
    if len(shared) < len(levels):
        raise MadcapError("malformed sweep spec: a decay is listed twice")
    try:
        TransitionMatrix(dim, shared)
        if "monotonicity" in analyses:
            TransitionMatrix(dim, {(mono["from"], mono["to"]): 0.0})
    except MadcapError as exc:
        raise MadcapError(f"malformed sweep spec: {exc}") from exc
    return dim, levels, slot_names, ranges, analyses, mono


def _spec_number(item, key: str, what: str, whole: bool = False):
    """item[key] read by channel._json_number (a fractional level is
    malformed, never truncated), or MadcapError naming ``what``."""
    try:
        return _json_number(item[key], whole)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MadcapError(f"malformed sweep spec: {what} needs a finite "
                          f"{'whole' if whole else 'numeric'} {key!r}") from exc


def _instantiate(dim, decays, slot_names, coords):
    env = dict(zip(slot_names, coords))
    return TransitionMatrix(dim, {(j, i): env[p] if isinstance(p, str) else p
                                  for j, i, p in decays})


def _sweep_point(task):
    dim, decays, slot_names, coords, analyses, mono, tol_psd, tol_border = task
    try:
        tm = _instantiate(dim, decays, slot_names, coords)
    except MadcapError as exc:
        return None, f"skipped: {exc}"
    res = is_degradable(tm, tol_psd)
    row = [_fmt(c) for c in coords]
    row.append(_DEG_CODE[res.degradable])
    row.append("1" if res.antidegradable else "0")
    row.append(_fmt(res.min_choi_eig))
    kind, value = "", ""
    if "capacity" in analyses:
        cert = certify_capacity(tm, tol_border=tol_border, tol_psd=tol_psd)
        kind, value = cert.kind, _fmt(cert.value)
    elif "monotonicity" in analyses:
        j, i = int(mono["from"]), int(mono["to"])
        eps = float(mono.get("epsilon", 0.01))
        eps = min(eps, float(tm.gamma[j, j]))
        if eps <= 0.0:
            kind = "mono:skipped"
        else:
            bigger = tm.with_decay(j, i, float(tm.gamma[j, i]) + eps)
            try:
                left, right = monotonicity_certificate(tm, bigger, tol_psd)
                kind = f"mono|left:{left.status}|right:{right.status}"
                value = _fmt(right.min_eig)
            except MadcapError:
                kind = "mono|left:error|right:error"
    row.extend([kind, value])
    return row, None


def cmd_sweep(args) -> int:
    dim, decays, slot_names, ranges, analyses, mono = _parse_sweep_spec(
        _load_json(args.spec))
    total = math.prod(len(r) for r in ranges)
    lines = [",".join(slot_names + ["degradable", "antidegradable", "min_eig",
                                    "cert_kind", "cert_value"])]
    skipped = []
    for idx, coords in enumerate(itertools.product(*ranges), start=1):
        row, reason = _sweep_point((dim, decays, slot_names, coords, analyses,
                                    mono, args.tol_psd, args.tol_border))
        if row is None:
            skipped.append(f"{coords}: {reason}")
        else:
            lines.append(",".join(row))
        if idx % 500 == 0:
            logger.info("progress: %d/%d", idx, total)
    for line in skipped:
        print(line, file=sys.stderr)
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows ({len(skipped)} skipped) to {args.out}",
          file=sys.stderr)
    return 0


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file next to ``path``, then rename it
    to ``path``. An OSError names ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".madcap-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def cmd_mad3(args) -> int:
    report = mad3_acge_verification(args.gamma10, grid_step=args.grid_step,
                                    iterations=args.iterations,
                                    tol_psd=args.tol_psd)
    lines = ["n,k,analytic_bound,mismatches"]
    for step in report["steps"]:
        for kc in step["k_checks"]:
            lines.append(",".join([
                str(step["n"]), _fmt(kc["k"]), _fmt(kc["analytic_bound"]),
                str(kc["mismatches"])]))
    if args.out:
        _atomic_write(args.out, "\n".join(lines) + "\n")
    summary = {
        "gamma10": report["gamma10"],
        "certificate_value": report["certificate_value"],
        "certified_omega_max": report["certified_omega_max"],
        "crosscheck_matches": report["crosscheck"]["matches"],
        "total_mismatches": sum(kc["mismatches"] for s in report["steps"]
                                for kc in s["k_checks"]),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_selftest(args) -> int:
    from .channel import channel_map, random_transition_matrix
    from .inverse import mad_inverse
    from .structure import connecting_choi, connecting_eigenvalues

    rng = np.random.default_rng(args.seed)
    checks = []
    checks.append(("adc_capacity(0) == 1", abs(adc_capacity(0.0) - 1.0) < 1e-7))
    checks.append(("adc_capacity(0.5) == 0", adc_capacity(0.5) == 0.0))
    flips = [is_degradable(TransitionMatrix(2, {(1, 0): g})).degradable
             for g in (0.25, 0.75)]
    checks.append(("d=2 degradable flips at 1/2", flips == ["yes", "no"]))
    tm = random_transition_matrix(3, rng)
    while min(tm.gamma[k, k] for k in range(1, 3)) < 0.2:
        tm = random_transition_matrix(3, rng)
    chain = channel_map(tm).then(mad_inverse(tm))
    probe = np.zeros((3, 3), dtype=complex)
    probe[0, 1] = probe[1, 2] = probe[2, 2] = 1.0
    checks.append(("mad_inverse round trip",
                   bool(np.max(np.abs(chain(probe) - probe)) < 1e-10)))
    c = connecting_choi(0.5, 0.6, 1.25)
    eig = np.sort(np.linalg.eigvalsh((c + c.conj().T) / 2))[-3:]
    ana = np.sort(connecting_eigenvalues(0.5, 0.6, 1.25))
    checks.append(("connecting Choi eigenvalues",
                   bool(np.max(np.abs(eig - ana)) < 1e-9)))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    return 0 if ok else 1


def _bounded(kind, low, strict: bool = False):
    """An argparse type: a finite ``kind`` at least ``low`` (above it if
    ``strict``), so that a bad value exits 2 like other malformed input."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if (value is None or not math.isfinite(value) or value < low
                or (strict and value == low)):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} {'>' if strict else '>='} "
                f"{low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madcap",
        description="Multi-level amplitude damping channel toolkit")
    parser.add_argument("--tol-psd", type=_bounded(float, 0.0), default=1e-9,
                        help="relative PSD tolerance of every Choi test, "
                        "floored at 1e-12")
    parser.add_argument("--tol-border", type=_bounded(float, 0.0),
                        default=1e-6,
                        help="capacity-equality tolerance at region borders")
    parser.add_argument("--grid-step", type=_bounded(float, 0.0, strict=True),
                        default=0.05)
    parser.add_argument("--seed", type=_bounded(int, 0), default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify and certify one channel")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="grid sweep from a sweep-spec JSON, "
                       f"at most {_MAX_SWEEP_POINTS} points")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mad3", help="3-level connecting-channel verification")
    p.add_argument("--gamma10", type=float, required=True)
    p.add_argument("--iterations", type=_bounded(int, 0), default=3,
                   help=f"connecting-channel steps, at most {_MAX_ITERATIONS}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mad3)

    p = sub.add_parser("selftest", help="quick built-in checks")
    p.set_defaults(func=cmd_selftest)
    return parser


@contextmanager
def _diagnostics_to_stderr():
    """Print the package's log records (sweep progress, conditioning
    warnings) to stderr as bare messages while a command runs."""
    log = logging.getLogger("madcap")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _diagnostics_to_stderr():
        try:
            return args.func(args)
        except MadcapError as exc:
            return _fail(str(exc), 2)
        except OSError as exc:
            return _fail(str(exc), 1)
        except np.linalg.LinAlgError as exc:
            return _fail(f"numeric failure: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
