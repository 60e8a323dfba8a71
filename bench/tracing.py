"""Spans around the calls into qcorr's layers, recorded from outside the program.

``install`` rebinds every public function and public method of the layer
modules to a timing wrapper, in every qcorr namespace that holds it, so calls
made inside the package are traced as well. Spans stay in memory as
(id, parent id, thread, name, start ns, end ns) and are written out when the
run ends. ``layer_metrics`` turns a span list into per-layer self times and
counts.

Self time is wall time during which a span was the innermost running span
of its thread. A span that waits for spans it caused on other threads (the
CLI's sweep pool) is not running meanwhile, and time when several threads
run spans is shared equally between them, so the self times of all spans
add up to the wall time of the root spans (the ``qcorr.cli.main`` calls).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "dynamics", "states", "measures", "linalg", "model")

# span name -> metric group; names not listed fall into "<layer>.other"
# ("cli" and "model" are single groups)
GROUPS = {
    "linalg.hermitian_eigensystem": "linalg.eig",
    "measures.correlations": "measures.correlations",
    "states.validate": "states.validate",
    "states.is_x_shaped": "states.xshape",
    "states.XState.from_matrix": "states.xshape",
    "dynamics.evolve": "dynamics.evolve",
    "dynamics.esd_time_zero_temp": "dynamics.esd",
    "dynamics.esd_time_thermal": "dynamics.esd",
}
for _n in ("concurrence_x", "concurrence_branches", "concurrence_dicke", "lqu_x",
           "w_matrix_x", "sqrt_x_entries", "min_trace", "correlated_coherence"):
    GROUPS[f"measures.{_n}"] = "measures.closed"
for _n in ("concurrence_general", "concurrence_signed", "negativity", "negativity_trace_norm",
           "log_negativity", "lqu", "min_trace_general", "correlated_coherence_general",
           "l1_coherence"):
    GROUPS[f"measures.{_n}"] = "measures.general"
for _n in ("steady_correlations_thermal", "steady_state_thermal", "steady_state_zero_temp",
           "steady_concurrence_thermal", "steady_ccc_thermal", "steady_lqu_thermal",
           "steady_w_entries_zero_temp"):
    GROUPS[f"dynamics.{_n}"] = "dynamics.steady"

TIMED_GROUPS = ("cli", "model", "dynamics.evolve", "dynamics.steady", "dynamics.esd",
                "dynamics.other", "linalg.eig", "linalg.other", "measures.correlations",
                "measures.closed", "measures.general", "measures.other", "states.validate",
                "states.xshape", "states.other")
COUNTED_GROUPS = ("dynamics.steady", "dynamics.esd", "linalg.eig", "measures.correlations",
                  "measures.closed", "measures.general", "states.validate", "states.xshape")


def group_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    if layer in ("cli", "model"):
        return layer
    return GROUPS.get(name, f"{layer}.other")


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.names: list[str] = []
        self.steps = 0  # RK4 steps requested from evolve: round(t_max / dt) per call
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:  # a pool worker's span belongs to the span waiting for it
                outer = stacks.get(main)
                parent = outer[-1] if outer and tid != main else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tid, name_id, start, end))

        return traced

    def count_steps(self, evolve):
        """Wrap ``evolve`` so the steps each call must integrate are counted."""
        sig = inspect.signature(evolve)

        @functools.wraps(evolve)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.steps += int(round(bound.arguments["t_max"] / bound.arguments["dt"]))
            return evolve(*args, **kwargs)

        return counted


def _rebind(old, new, namespaces):
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


def install(tracer: Tracer):
    """Trace every public function and public method of the layer modules."""
    namespaces = [m for n, m in sys.modules.items() if n == "qcorr" or n.startswith("qcorr.")]
    for layer in LAYERS:
        module = sys.modules[f"qcorr.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                new = tracer.wrap(f"{layer}.{attr}", obj)
                if f"{layer}.{attr}" == "dynamics.evolve":
                    new = tracer.count_steps(new)
                _rebind(obj, new, namespaces)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if isinstance(raw, staticmethod):
                        setattr(obj, meth, staticmethod(tracer.wrap(name, raw.__func__)))
                    elif isinstance(raw, property):
                        setattr(obj, meth, property(tracer.wrap(name, raw.fget)))
                    elif inspect.isfunction(raw):
                        setattr(obj, meth, tracer.wrap(name, raw))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> tuple[dict[int, float], float]:
    """Self time in seconds of every span id, and the wall time of the roots.

    Sweeps the span boundaries in time order. Between two boundaries, each
    thread's innermost open span is running unless a span it caused on
    another thread is open; the interval is shared equally among the
    running spans.
    """
    parent = {s[0]: s[1] for s in spans}
    thread = {s[0]: s[2] for s in spans}
    depth: dict[int, int] = {}

    def depth_of(sid):
        if sid not in depth:
            depth[sid] = 0 if parent[sid] < 0 else depth_of(parent[sid]) + 1
        return depth[sid]

    events = []
    for sid, _, _, _, start, end in spans:
        d = depth_of(sid)
        events.append((start, 1, d, sid))  # at equal times: ends first, deepest end first,
        events.append((end, 0, -d, sid))  # shallowest start first
    events.sort()

    own = defaultdict(float)
    stacks: dict[int, list[int]] = defaultdict(list)
    waiting = defaultdict(int)  # open spans on other threads caused by this span
    running: list[int] = []
    last = events[0][0] if events else 0
    for t, is_start, _, sid in events:
        if running and t > last:
            share = (t - last) / len(running) / 1e9
            for r in running:
                own[r] += share
        last = t
        cross = parent[sid] >= 0 and thread[parent[sid]] != thread[sid]
        if is_start:
            stacks[thread[sid]].append(sid)
            if cross:
                waiting[parent[sid]] += 1
        else:
            stack = stacks[thread[sid]]
            if stack[-1] != sid:
                raise ValueError(f"span {sid} ends out of order on its thread")
            stack.pop()
            if cross:
                waiting[parent[sid]] -= 1
        running = [s[-1] for s in stacks.values() if s and not waiting[s[-1]]]
    roots = sum((s[5] - s[4]) / 1e9 for s in spans if s[1] < 0)
    return own, roots


def layer_metrics(spans, names, rows: int, steps: int, run_s: float) -> dict[str, float]:
    """Per-layer self times, call counts and derived ratios of one traced run
    whose qcorr.cli.main calls took ``run_s`` of wall time in all."""
    own, roots = self_times(spans)
    total = sum(own.values())
    if abs(total - roots) > 1e-9 * max(roots, 1.0) + 1e-9:
        raise ValueError(f"self times sum to {total} s, root spans cover {roots} s")
    t = dict.fromkeys(TIMED_GROUPS, 0.0)
    calls = dict.fromkeys(COUNTED_GROUPS, 0)
    for sid, _, _, name_id, _, _ in spans:
        g = group_of(names[name_id])
        t[g] += own[sid]
        if g in calls:
            calls[g] += 1
    out = {f"{g}.self_s": v for g, v in t.items()}
    out.update({f"{g}.calls": v for g, v in calls.items()})
    out["cli.rows"] = rows
    out["dynamics.rk4_steps"] = steps
    out["dynamics.step_us"] = 1e6 * t["dynamics.evolve"] / steps if steps else 0.0
    eig_calls = calls["linalg.eig"]
    out["linalg.eig_us"] = 1e6 * t["linalg.eig"] / eig_calls if eig_calls else 0.0
    out["linalg.eig_per_row"] = eig_calls / rows
    out["trace.run_s"] = run_s
    out["trace.accounted_ratio"] = total / run_s
    out["trace.spans"] = len(spans)
    return out
