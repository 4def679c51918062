"""Span tracing of madcap's layers, installed from outside the package.

Each layer's public function is replaced, under the name its callers look
up, by a wrapper that records a span: (id, parent id, name, start, end,
point id, self time).  Self time is the span's duration minus the time of
its child spans, which run in the same thread and nest inside it.  Spans
stay in memory and are written out once, at the end of the round.
"""
import functools
import itertools
import sys
import threading
import time


def _layer_table():
    import numpy
    from madcap import (capacity, channel, cli, complementary, inverse,
                        linalg, maps, structure)

    return [
        # (span name, object holding the attribute, attribute,
        #  point id from the call's arguments)
        ("cli.sweep", cli, "cmd_sweep", None),
        ("cli.sweep_point", cli, "_sweep_point",
         lambda args: ":".join(f"{c:g}" for c in args[0][3])),
        ("capacity.certify_capacity", capacity, "certify_capacity", None),
        ("capacity.max_diagonal_coherent_info", capacity,
         "max_diagonal_coherent_info", None),
        ("structure.is_degradable", structure, "is_degradable", None),
        ("structure.monotonicity_certificate", structure,
         "monotonicity_certificate", None),
        ("structure.build_two_extension", structure, "build_two_extension",
         None),
        ("structure.mad_choi_state", structure, "mad_choi_state", None),
        ("maps.LinearMap.choi", maps.LinearMap, "choi", None),
        ("inverse.mad_inverse", inverse, "mad_inverse", None),
        ("complementary.complementary_map", complementary,
         "complementary_map", None),
        ("channel.TransitionMatrix", channel.TransitionMatrix, "__init__",
         None),
        ("linalg.eigvalsh", numpy.linalg, "eigvalsh", None),
        ("linalg.partial_trace", linalg, "partial_trace", None),
        ("linalg.is_psd", linalg, "is_psd", None),
    ]


class NullTracer:
    """Stand-in for untraced rounds."""

    def set_point(self, point):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_point(self, point):
        self._local.point = point

    def _wrap(self, name, fn, point_of):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if point_of is not None:
                local.point = point_of(args)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append((frame[0], parent[0] if parent else 0, name,
                              t0, t1, getattr(local, "point", None),
                              t1 - t0 - frame[1]))
        return wrapper

    def install(self):
        """Wrap every layer, rebinding each madcap module that imported the
        original under the same name, so internal calls are traced too."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "madcap" or n.startswith("madcap.")]
        for name, owner, attr, point_of in _layer_table():
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, point_of)
            setattr(owner, attr, wrapped)
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds of the
        outermost calls (recursive calls are not counted twice)."""
        out = {}
        by_id = {s[0]: s for s in self.spans}
        for sid, parent, name, t0, t1, _, self_s in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "incl_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            p = by_id.get(parent)
            while p is not None and p[2] != name:
                p = by_id.get(p[1])
            if p is None:
                agg["incl_s"] += t1 - t0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,point,self\n")
            for sid, parent, name, t0, t1, point, self_s in self.spans:
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},"
                         f"{point if point is not None else ''},"
                         f"{self_s:.9f}\n")
