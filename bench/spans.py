"""Span tracing of dcrsim from outside the package.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper that
records one span (name, start, end, parent) per call. A function is replaced
under every name a dcrsim module binds it to, so `nearest_dcr` is traced when
called as `dcrsim.simulator.nearest_dcr` and as `dcrsim.protocol.nearest_dcr`.
Methods are replaced on their class. A target that no longer exists is listed
in `absent` instead of failing, so the traced run survives refactors.

Spans stay in flat arrays until `summarize()` folds them into per-name
totals and clears them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

# (span name, defining module, attribute or Class.method)
TARGETS = (
    ("topology.generate", "dcrsim.topology", "generate_random_topology"),
    ("topology.parse", "dcrsim.topology", "parse_topology"),
    ("topology.nearest_dcr", "dcrsim.topology", "nearest_dcr"),
    ("overlay.build_tree", "dcrsim.overlay", "build_tree"),
    ("overlay.connect_leaves", "dcrsim.overlay", "connect_leaves"),
    ("overlay.add_wraparound", "dcrsim.overlay", "add_wraparound"),
    ("overlay.metrics", "dcrsim.overlay", "overlay_metrics"),
    ("overlay.all_pairs", "dcrsim.overlay", "all_pairs_delay"),
    ("overlay.flood_schedule", "dcrsim.overlay", "flood_schedule"),
    ("protocol.apply", "dcrsim.protocol", "apply_notification"),
    ("protocol.route", "dcrsim.protocol", "route_user_packet"),
    ("protocol.lookup", "dcrsim.protocol", "lookup"),
    ("protocol.format_trace", "dcrsim.protocol", "format_trace_line"),
    ("simulator.parse_scenario", "dcrsim.simulator", "parse_scenario"),
    ("simulator.init", "dcrsim.simulator", "Simulation.__init__"),
    ("simulator.run", "dcrsim.simulator", "Simulation.run"),
    ("simulator.step", "dcrsim.simulator", "Simulation.step"),
    ("simulator.lifecycle", "dcrsim.simulator", "Simulation.handle_lifecycle"),
    ("simulator.session", "dcrsim.simulator", "Simulation.track_session"),
    ("simulator.report", "dcrsim.simulator", "Simulation.report"),
    ("simulator.csv", "dcrsim.simulator", "SimReport.to_csv"),
    ("cli.main", "dcrsim.cli", "main"),
)

# A step span takes the kind of the first of these it has as a child.
STEP_KINDS = (("simulator.lifecycle", "lifecycle"), ("protocol.apply", "apply"),
              ("protocol.route", "deliver"))


@dataclass
class Summary:
    """Spans folded per name: calls, self time, inclusive time."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    incl_s: dict[str, float] = field(default_factory=dict)
    step_calls: dict[str, int] = field(default_factory=dict)
    step_s: dict[str, float] = field(default_factory=dict)
    route_us: list[float] = field(default_factory=list)

    def add(self, other: Summary) -> None:
        for mine, theirs in ((self.calls, other.calls), (self.self_s, other.self_s),
                             (self.incl_s, other.incl_s),
                             (self.step_calls, other.step_calls),
                             (self.step_s, other.step_s)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        self.route_us.extend(other.route_us)

    def scaled(self, factor: float) -> Summary:
        """The same spans with every time multiplied by factor."""
        def times(d: dict[str, float]) -> dict[str, float]:
            return {k: v * factor for k, v in d.items()}
        return Summary(calls=dict(self.calls), self_s=times(self.self_s),
                       incl_s=times(self.incl_s), step_calls=dict(self.step_calls),
                       step_s=times(self.step_s),
                       route_us=[v * factor for v in self.route_us])


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "dcrsim" or k.startswith("dcrsim."))]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.absent.append(name)
                    continue
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summarize(self) -> Summary:
        """Fold the recorded spans into a Summary and forget them."""
        n = len(self._name)
        child = [0.0] * n
        kind = [""] * n
        step_id = self.names.index("simulator.step") if "simulator.step" in self.names else -1
        classify = {self.names.index(s): k for s, k in STEP_KINDS if s in self.names}
        route_id = self.names.index("protocol.route") if "protocol.route" in self.names else -1
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        # Ids are assigned at span start, so a child's id is larger than its
        # parent's: walking ids downwards sees every child before its parent.
        out = Summary()
        for i in range(n - 1, -1, -1):
            nid = names[i]
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
                if nid in classify and names[p] == step_id and not kind[p]:
                    kind[p] = classify[nid]
            name = self.names[nid]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + dur - child[i]
            out.incl_s[name] = out.incl_s.get(name, 0.0) + dur
            if nid == step_id:
                k = kind[i] or "other"
                out.step_calls[k] = out.step_calls.get(k, 0) + 1
                out.step_s[k] = out.step_s.get(k, 0.0) + dur
            elif nid == route_id:
                out.route_us.append(dur * 1e6)
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        return out


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]
