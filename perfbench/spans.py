"""In-memory span tracer that wraps pinlab's public functions from outside.

The tracer rebinds each traced name in every ``pinlab`` module namespace
that holds it (``harness`` and ``varmax`` import functions by name, and
calls inside a module resolve through that module's globals).  Class
constructors are traced through ``__init__`` and class methods through a
new ``classmethod``, never by replacing the class, because callers test
``isinstance``.  Spans opened on a pool thread with nothing open on that
thread attach to the active ``run_experiment`` span, since
``ThreadPoolExecutor`` does not copy context into its threads.

No profiler hook (cProfile, ``sys.setprofile``) is used: it would charge
a cost to every Python call, including the harness I/O being measured.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
import sys
import threading
import time

import numpy as np

#: (module, attribute path) of every traced callable; the metric name is
#: "<module>.<attribute path>".  Every public function that the workloads
#: reach through the harness is listed, plus the harness entry point.
TRACED = (
    ("disorder", "draw_base"),
    ("disorder", "couple"),
    ("geometry", "PinnedSet"),
    ("geometry", "hausdorff"),
    ("geometry", "set_entropy"),
    ("varmax", "solve_dp"),
    ("varmax", "beta_critical"),
    ("renewal", "build_law"),
    ("renewal", "tilt"),
    ("renewal", "renewal_function"),
    ("renewal", "subexp_diagnostics"),
    ("gibbs", "forward_table"),
    ("gibbs", "exact_sample"),
    ("gibbs", "concentration_probability"),
    ("subordinator", "growth_check"),
    ("subordinator", "edge_process"),
    ("subordinator", "edge_jump_times"),
    ("subordinator", "band_process"),
    ("polymer", "PolymerEnvironment.sample"),
    ("polymer", "polymer_beta_critical"),
    ("polymer", "tent_entropy"),
    ("polymer", "binary_entropy_rate"),
    ("streams", "substream"),
    ("harness", "run_experiment"),
)

MODULES = tuple(dict.fromkeys(mod for mod, _ in TRACED))
REQUEST = "harness.run_experiment"

#: Functions that reach 1000 calls on some workload get latency percentiles.
PERCENTILE_MIN_CALLS = 1000
PERCENTILE_FUNCS = (
    "geometry.PinnedSet",
    "geometry.hausdorff",
    "gibbs.exact_sample",
    "subordinator.edge_process",
    "polymer.tent_entropy",
    "polymer.binary_entropy_rate",
)


class Tracer:
    """Records one span per traced call; spans stay in memory until dumped.

    A span row is (function index, start, end, thread CPU, CPU of children on
    the same thread, wall of children on the same thread, span id, parent id,
    request id, parent-on-another-thread flag).
    """

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED]
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request = None  # frame of the active run_experiment span

    def install(self) -> None:
        """Wrap every callable in TRACED; raises if one no longer exists."""
        pinlab_mods = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "pinlab" or n.startswith("pinlab."))]
        for idx, (mod, attr) in enumerate(TRACED):
            owner = sys.modules[f"pinlab.{mod}"]
            head, _, tail = attr.partition(".")
            target = getattr(owner, head)
            if tail:  # a class method: rebind on the class
                raw = target.__dict__[tail]
                if not isinstance(raw, classmethod):
                    raise TypeError(f"{mod}.{attr} is not a classmethod")
                setattr(target, tail, classmethod(self._wrap(idx, raw.__func__)))
            elif isinstance(target, type):  # a constructor: wrap __init__
                target.__init__ = self._wrap(idx, target.__init__)
            else:
                wrapped = self._wrap(idx, target)
                for m in pinlab_mods:
                    for key, val in list(vars(m).items()):
                        if val is target:
                            setattr(m, key, wrapped)

    def _wrap(self, idx: int, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter
        tcpu = time.thread_time
        tracer = self
        is_request = self.names[idx] == REQUEST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._request
            span_id = next(ids)
            if is_request:
                req = span_id
            else:
                req = parent[3] if parent is not None else 0
            frame = [span_id, 0.0, 0.0, req]
            stack.append(frame)
            if is_request:
                saved = tracer._request
                tracer._request = frame
            t0 = perf()
            c0 = tcpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = tcpu()
                t1 = perf()
                stack.pop()
                if is_request:
                    tracer._request = saved
                if stack:
                    stack[-1][1] += t1 - t0
                    stack[-1][2] += c1 - c0
                spans.append((idx, t0, t1, c1 - c0, frame[2], frame[1], span_id,
                              parent[0] if parent is not None else 0, req,
                              parent is not None and not stack))

        return traced

    def dump(self, path: str) -> None:
        """Write all spans as gzip'd CSV, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,thread_cpu_s,span,parent,request\n")
            for s in self.spans:
                fh.write(f"{self.names[s[0]]},{s[1] - origin:.9f},{s[2] - origin:.9f},"
                         f"{s[3]:.9f},{s[6]},{s[7]},{s[8]}\n")

    def layer_metrics(self) -> dict:
        """Per-function calls/self/wait/percentiles, module roll-ups, pool use."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 10
        fn = np.asarray(cols[0], dtype=np.int64)
        t0 = np.asarray(cols[1], dtype=float)
        t1 = np.asarray(cols[2], dtype=float)
        cpu = np.asarray(cols[3], dtype=float)
        child_cpu = np.asarray(cols[4], dtype=float)
        child_wall = np.asarray(cols[5], dtype=float)
        span = np.asarray(cols[6], dtype=np.int64)
        parent = np.asarray(cols[7], dtype=np.int64)
        cross = np.asarray(cols[9], dtype=bool)
        dur = t1 - t0
        self_wall = dur - child_wall
        # A parent with children on other threads: subtract the union of all
        # its direct children's intervals instead (they may overlap).
        row_of = {int(s): i for i, s in enumerate(span)}
        for pid in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == pid)
            self_wall[row_of[int(pid)]] = dur[row_of[int(pid)]] - _union(t0[kids], t1[kids])
        self_cpu = cpu - child_cpu

        out = {}
        for idx, name in enumerate(self.names):
            sel = fn == idx
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.self_s"] = float(self_wall[sel].sum())
            out[f"{name}.wait_s"] = float((self_wall[sel] - self_cpu[sel]).sum())
            if name in PERCENTILE_FUNCS:
                us = dur[sel] * 1e6
                big = us.size >= PERCENTILE_MIN_CALLS
                out[f"{name}.p50_us"] = float(np.percentile(us, 50)) if big else 0.0
                out[f"{name}.p99_us"] = float(np.percentile(us, 99)) if big else 0.0
        for mod in MODULES:
            for kind in ("self_s", "wait_s"):
                out[f"{mod}.{kind}"] = sum(out[f"{n}.{kind}"] for n in self.names
                                           if n.startswith(mod + "."))
        req = fn == self.names.index(REQUEST)
        kernel = np.isin(parent, span[req])
        req_wall = float(dur[req].sum())
        out["harness.busy_workers"] = float(dur[kernel].sum()) / req_wall if req_wall else 0.0
        return out


def _union(lo: np.ndarray, hi: np.ndarray) -> float:
    """Total length covered by the intervals [lo_i, hi_i]."""
    total, end = 0.0, -math.inf
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if b > end:
            total += b - max(a, end)
            end = b
    return total
