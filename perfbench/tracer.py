"""Layer spans recorded from outside the program.

The tracer wraps the public functions of every adskg layer module, plus the
kernel and basis methods that carry the numerical work, and records one span
per call: name, layer, start, end, parent span and pass id.  Start and end
are read from the process CPU clock, like the benchmark's pass times.  Nothing in
``src/`` is edited.  Module-level aliases (``microlocal.trace_gbb`` is
``bchar.trace_gbb`` bound at import time) are rebound to the wrappers, and
functions that import their callees at call time (``cli.run_verify``) pick
the wrappers up from the module attributes.

Spans stay in memory; the caller writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

# Layer modules in dependency order: each imports only modules listed before it.
LAYERS = ("geometry", "binio", "bessel", "spectral", "bchar", "propagators", "holography", "microlocal", "cli")

# Methods wrapped on every class that defines them itself (subclass overrides
# get their own wrapper, under the layer of the module that defines them).
METHODS = ("mode_gain", "trace_series", "kernel_matrix", "project", "synthesize")

SCAN = "microlocal.kernel_wavefront_scan"


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "pass_id", "start", "end", "error", "data", "mem_base", "mem_acc")

    def __init__(self, sid, name, layer, parent, pass_id, start):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.pass_id = pass_id
        self.start = start
        self.end = start
        self.error = False
        self.data = {}
        self.mem_base = 0
        self.mem_acc = 0

    @property
    def duration(self) -> float:
        return (self.end - self.start) * 1e-9

    def to_dict(self) -> dict:
        return {
            "sid": self.sid,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "pass": self.pass_id,
            "start_ns": self.start,
            "end_ns": self.end,
            "error": self.error,
            "data": self.data,
        }


# -- counter hooks ----------------------------------------------------------
# A hook runs after its span has closed and reads only sizes and attributes,
# so its cost stays small; it lands in the caller's self time.


def _count_gain(tracer, span, args, kwargs, result):
    span.data["evals"] = int(result.size)
    span.data["bytes"] = int(result.nbytes)


def _count_trace(tracer, span, args, kwargs, result):
    scan = tracer.nearest(SCAN)
    if scan is None:
        return
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    t_grid = args[0].t_grid
    dt = float(t_grid[1] - t_grid[0])
    lo = int(round(float(tau.min()) / dt))
    hi = int(round(float(tau.max()) / dt))
    scan.data.setdefault("lag_ranges", []).append([lo, hi])
    scan.data["lags"] = scan.data.get("lags", 0) + int(tau.size)


def _count_track(tracer, span, args, kwargs, result):
    span.data["steps"] = int(result.times.size)


def _count_gbb(tracer, span, args, kwargs, result):
    span.data["reflections"] = len(result.reflections)


def _count_scan(tracer, span, args, kwargs, result):
    span.data["windows"] = len(result)


HOOKS = {
    "mode_gain": _count_gain,
    "trace_series": _count_trace,
    "evolve_and_track": _count_track,
    "trace_gbb": _count_gbb,
    "kernel_wavefront_scan": _count_scan,
}


class Tracer:
    """Span recorder; ``memory=True`` also takes the tracemalloc peak of
    every span (slow for Python-heavy layers, so timings from such a pass
    are not used)."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id = None
        # spans are recorded only while active: the benchmark turns this on
        # around the program calls of a pass and off around its own checks
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # -- span bookkeeping ---------------------------------------------------

    def nearest(self, name: str):
        for s in reversed(self.stack):
            if s.name == name:
                return s
        return None

    def _fold_peak(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for s in self.stack:
            if peak > s.mem_acc:
                s.mem_acc = peak
        tracemalloc.reset_peak()
        return cur

    def _enter(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, layer, parent, self.pass_id, 0)
        if self.memory:
            cur = self._fold_peak()
            span.mem_base = span.mem_acc = cur
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.process_time_ns()
        return span

    def _exit(self, span: Span, error: bool) -> None:
        span.end = time.process_time_ns()
        span.error = error
        if self.memory:
            self._fold_peak()
            span.data["peak_bytes"] = span.mem_acc - span.mem_base
        self.stack.pop()

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span, True)
                raise
            tracer._exit(span, False)
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        self._wrapped[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self, module) -> None:
        """Wrap the public functions and kernel methods defined in one layer
        module, then rebind its aliases of functions already wrapped."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, val in list(vars(module).items()):
            if attr.startswith("_") or getattr(val, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(val):
                self._patch(module, attr, self._wrap(val, f"{layer}.{attr}", layer, HOOKS.get(attr)))
            elif inspect.isclass(val):
                for meth in METHODS:
                    fn = val.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        self._patch(val, meth, self._wrap(fn, f"{layer}.{attr}.{meth}", layer, HOOKS.get(meth)))
        for attr, val in list(vars(module).items()):
            wrapper = self._wrapped.get(id(val))
            if wrapper is not None:
                self._patch(module, attr, wrapper)

    def install(self, modules) -> None:
        """Instrument already imported layer modules.  They must come in
        dependency order, so every alias points at a function wrapped before."""
        for mod in modules:
            self.instrument(mod)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrapped.clear()


# -- aggregation --------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its children cover (children of one span
    run one after another, so their durations add)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child.get(s.sid, 0.0) for s in spans}


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor also named there."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def top_level_layer_calls(spans: list[Span]) -> list[Span]:
    """Spans whose parent lies in another layer (or that have no parent)."""
    by_id = {s.sid: s for s in spans}
    return [s for s in spans if s.parent is None or by_id[s.parent].layer != s.layer]


def union_size(ranges) -> int:
    """Number of integers covered by a list of inclusive [lo, hi] ranges."""
    total, covered_to = 0, None
    for lo, hi in sorted(ranges):
        if covered_to is not None:
            lo = max(lo, covered_to + 1)
        if hi >= lo:
            total += hi - lo + 1
        covered_to = hi if covered_to is None else max(covered_to, hi)
    return total
