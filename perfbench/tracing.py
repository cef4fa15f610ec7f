"""Timing wrappers for the traced pass.

``Tracer.install`` replaces every public function, and every public method
of every public class, defined in the traced bgflight modules by a wrapper
that records a span: name, start, end and the enclosing span of the same
thread.  Names imported into another traced module (``kinetic.g_auto``) are
replaced by the same wrapper, so no call path escapes the trace.  Nothing in
the library changes; ``uninstall`` restores the originals.

A span's self time is its duration minus the time its child spans cover.
Spans opened in pool threads (``--threads 2``) have no parent in their own
thread; they count as children of the span open in the main thread, and the
union of their intervals is what the parent loses from its self time.

A few spans also feed counters through hooks that look at the arguments and
results, e.g. the graph size of a G evaluation or whether ``sigma_tot`` had
to compute (cold) or answered from its cache (no child spans).  All times
are multiplied by the current job's machine-speed factor (see ``run.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "kinetic", "gmatrix", "scattering", "lattice",
           "partitions", "paths")

# sample_lb_chain scans this many directions for its rejection bound above
# Born order 1, once per new speed (kinetic._direction_bound)
BOUND_SCAN_POINTS = 513


class Frame:
    __slots__ = ("name", "start", "dur", "self_s", "child", "nchild",
                 "foreign", "info")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.nchild = 0
        self.foreign = None
        self.info = None


def _union_length(intervals):
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span recorder.  ``stats[kind][name] = [calls, total_s, self_s]`` and
    ``counts[kind]`` hold the hook counters, both keyed by the job kind set
    with ``begin``."""

    def __init__(self):
        self.stats = defaultdict(dict)
        self.counts = defaultdict(Counter)
        self.active = False
        self.kind = None
        self.scale = 1.0
        self.series = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._saved = []
        self._wrappers = {}

    # -- job boundaries -----------------------------------------------------

    def begin(self, kind, scale):
        self.kind, self.scale, self.series = kind, scale, None
        self.active = True

    def end(self):
        self.active = False
        self.series = None

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"bgflight.{name}")
                for name in MODULES}
        traced = {m.__name__: short for short, m in mods.items()}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in traced:
                    self._replace(mod, attr, obj, traced[obj.__module__])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._replace(obj, meth, fn, short)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._wrappers.clear()

    def _replace(self, owner, attr, fn, short):
        if inspect.isgeneratorfunction(fn):
            return  # a span would close before the caller iterates
        if fn not in self._wrappers:
            self._wrappers[fn] = self._wrap(fn, f"{short}.{fn.__name__}")
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrappers[fn])

    def _wrap(self, fn, name):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            token = before(tracer, args, kwargs) if before else None
            frame = Frame(name)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end, stack)
            if after:
                after(tracer, token, args, kwargs, result, frame,
                      stack[-1] if stack else None)
            return result

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_ident
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _close(self, frame, end, stack):
        dur = end - frame.start
        covered = frame.child
        if frame.foreign:
            with self._lock:
                covered += _union_length(frame.foreign)
        frame.dur = dur * self.scale
        frame.self_s = max(0.0, dur - covered) * self.scale
        if stack:
            parent = stack[-1]
            parent.child += dur
            parent.nchild += 1
        elif stack is not self._main_stack:
            with self._lock:
                if self._main_stack:
                    top = self._main_stack[-1]
                    if top.foreign is None:
                        top.foreign = []
                    top.foreign.append((frame.start, end))
                    top.nchild += 1
        with self._lock:
            rec = self.stats[self.kind].get(frame.name)
            if rec is None:
                rec = self.stats[self.kind][frame.name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += frame.dur
            rec[2] += frame.self_s

    def count(self, key, value=1):
        with self._lock:
            self.counts[self.kind][key] += value


def span_cost(calls=20000):
    """Seconds one span adds to a call, measured on a wrapped no-op with a
    throwaway tracer."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop")
    tracer.begin("calibration", 1.0)
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    traced = perf_counter() - start
    tracer.end()
    start = perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, traced - (perf_counter() - start)) / calls


# ---------------------------------------------------------------------------
# hooks: (before(tracer, args, kwargs) -> token,
#         after(tracer, token, args, kwargs, result, frame, parent))
# ---------------------------------------------------------------------------

def _sigma_after(tr, token, args, kwargs, result, frame, parent):
    # a cached answer opens no child span; a computed one calls T or the
    # Born-1 closed form
    if frame.nchild:
        tr.count("sigma_tot.cold_calls")
        tr.count("sigma_tot.cold_s", frame.dur)


def _note_in_sampler(parent, key, value):
    if parent is not None and parent.name == "kinetic.sample_lb_chain":
        if parent.info is None:
            parent.info = Counter()
        parent.info[key] += value


def _w_hat_after(tr, token, args, kwargs, result, frame, parent):
    y = _arg(args, kwargs, 1, "y")
    rows = y.shape[0] if getattr(y, "ndim", 1) >= 2 else 1
    _note_in_sampler(parent, "rows", rows)


def _t_matrix_after(tr, token, args, kwargs, result, frame, parent):
    _note_in_sampler(parent, "t_calls", 1)


def _sampler_before(tr, args, kwargs):
    model = _arg(args, kwargs, 2, "model")
    scans = len(getattr(model, "_dir_bound_cache", None) or ())
    return model, scans, _arg(args, kwargs, 4, "max_legs", 64)


def _sampler_after(tr, token, args, kwargs, chain, frame, parent):
    model, scans0, max_legs = token
    info = frame.info or Counter()
    scans = len(getattr(model, "_dir_bound_cache", None) or ()) - scans0
    # proposals drawn: one w_hat row per direction at Born order 1, one T
    # call per direction above it, less the bound scan's T calls
    proposals = info["rows"] + info["t_calls"] - BOUND_SCAN_POINTS * scans
    accepted = len(chain.momenta) - (0 if chain.truncated else 1)
    tr.count("sampler.proposals", proposals)
    tr.count("sampler.accepted", accepted)
    if tr.series == "new" and not chain.truncated and 2 <= chain.k < max_legs:
        tr.count(f"reweighted.k{chain.k}")


def _pair_before(tr, args, kwargs):
    tr.series = _arg(args, kwargs, 0, "series")


def _pair_after(tr, token, args, kwargs, result, frame, parent):
    tr.series = None
    tr.count("pair.chains", result.n_samples)
    tr.count("pair.truncated", result.truncated_fraction * result.n_samples)
    tr.count("pair.ess", result.ess)


def _g_auto_after(tr, token, args, kwargs, result, frame, parent):
    if tr.series == "new":
        tr.count(f"g_evals.k{result.k}")


def _g_series_after(tr, token, args, kwargs, result, frame, parent):
    k = result.k
    tr.count(f"g_series.k{k}.calls")
    tr.count(f"g_series.k{k}.self_s", frame.self_s)
    tr.count(f"g_series.k{k}.order", result.order)


def _g_contour_after(tr, token, args, kwargs, result, frame, parent):
    k, nodes = result.k, result.nodes
    grid = nodes ** k
    if _arg(args, kwargs, 2, "error_estimate", True):
        grid += max(4, nodes // 2) ** k
    tr.count(f"g_contour.k{k}.calls")
    tr.count(f"g_contour.k{k}.self_s", frame.self_s)
    tr.count(f"g_contour.k{k}.grid_points", grid)


def _generate_after(tr, token, args, kwargs, result, frame, parent):
    tr.count("lattice.points", result.count)


def _enumerate_after(tr, token, args, kwargs, result, frame, parent):
    tr.count("partitions.items", len(result))


HOOKS = {
    "scattering.sigma_tot": (None, _sigma_after),
    "scattering.w_hat": (None, _w_hat_after),
    "scattering.t_matrix": (None, _t_matrix_after),
    "kinetic.sample_lb_chain": (_sampler_before, _sampler_after),
    "kinetic.pair_estimate": (_pair_before, _pair_after),
    "gmatrix.g_auto": (None, _g_auto_after),
    "gmatrix.g_series": (None, _g_series_after),
    "gmatrix.g_contour": (None, _g_contour_after),
    "lattice.generate": (None, _generate_after),
    "partitions.enumerate_partitions": (None, _enumerate_after),
}
