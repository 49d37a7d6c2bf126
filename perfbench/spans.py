"""Per-layer host time, measured from outside the program.

LayerTracer replaces the names telebalance.sim looks up at call time with
timing wrappers, keeps per-seam counters in memory, and puts the original
functions back on exit. It assumes every wrapped call happens in one
thread, which holds when batches run with workers=1.

A seam the module no longer has, or one never called, leaves the metrics
that depend on it out of the report rather than failing the run.
"""

from __future__ import annotations

import time

SEAMS = ("_rk4_span", "sample_sensors", "transmit", "estimate_tilt",
         "compute_command", "tune_default_gains", "compute_metrics",
         "run_episode", "trace_to_csv")


class LayerTracer:
    def __init__(self, module):
        self.module = module
        self.originals: dict = {}
        self.calls = dict.fromkeys(SEAMS, 0)
        self.ns = dict.fromkeys(SEAMS, 0)
        self.unreadable: set = set()    # seams whose return value changed shape
        self.episodes: list = []        # (span_ns, self_ns) per run_episode
        self._stack = [0]               # child ns accumulated per open span
        self.reset()

    def reset(self) -> None:
        """Zero the counters in place; the installed wrappers hold them."""
        for name in SEAMS:
            self.calls[name] = 0
            self.ns[name] = 0
        self.unreadable.clear()
        self.substeps = self.lost = self.cycles = 0
        self.episodes.clear()
        self.last_trace = None          # trace of the latest run_episode
        del self._stack[1:]
        self._stack[0] = 0

    def __enter__(self):
        for name in SEAMS:
            fn = getattr(self.module, name, None)
            if callable(fn):
                self.originals[name] = fn
                setattr(self.module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)
        return False

    def _wrap(self, name, fn):
        stack, calls, ns = self._stack, self.calls, self.ns
        clock = time.perf_counter_ns
        after = {"_rk4_span": self._after_rk4, "transmit": self._after_transmit,
                 "run_episode": self._after_episode}.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                ns[name] += dt
            if after is not None:
                try:
                    after(value, dt, child)
                except (TypeError, AttributeError, IndexError):
                    self.unreadable.add(name)
            return value
        return wrapper

    def _after_rk4(self, value, dt, child):
        self.substeps += value[5]

    def _after_transmit(self, value, dt, child):
        self.lost += not value.delivered

    def _after_episode(self, value, dt, child):
        self.episodes.append((dt, dt - child))
        self.cycles += len(value[0].records)
        self.last_trace = value[0]

    def metrics(self, call_s: float) -> dict:
        """Per-layer figures of the calls since the last reset.

        call_s is the host time of the public-API call those calls served;
        the batch figures take the dispatch overhead as its remainder.
        """
        out = {}

        def seen(*names):
            return all(n in self.originals and self.calls[n]
                       and n not in self.unreadable for n in names)

        def put(name, value, unit):
            out[name] = (value, unit)

        calls, sec = self.calls, {n: v / 1e9 for n, v in self.ns.items()}
        if seen("_rk4_span"):
            put("plant.rk4_calls", calls["_rk4_span"], "count")
            put("plant.substeps", self.substeps, "count")
            put("plant.rk4_s", sec["_rk4_span"], "s")
            if self.substeps:
                put("plant.ns_per_substep",
                    self.ns["_rk4_span"] / self.substeps, "ns")
        if seen("sample_sensors"):
            put("plant.sensor_calls", calls["sample_sensors"], "count")
            put("plant.sensor_s", sec["sample_sensors"], "s")
        if seen("transmit"):
            n = calls["transmit"]
            put("wireless.transmit_calls", n, "count")
            put("wireless.transmit_s", sec["transmit"], "s")
            put("wireless.ns_per_transmit", self.ns["transmit"] / n, "ns")
            put("wireless.lost", self.lost, "count")
            put("wireless.delivered_frac", (n - self.lost) / n, "ratio")
        if seen("estimate_tilt", "compute_command"):
            n = calls["compute_command"]
            update_ns = self.ns["estimate_tilt"] + self.ns["compute_command"]
            put("control.updates", n, "count")
            put("control.update_s", update_ns / 1e9, "s")
            put("control.ns_per_update", update_ns / n, "ns")
        if seen("tune_default_gains"):
            put("control.tune_calls", calls["tune_default_gains"], "count")
            put("control.tune_s", sec["tune_default_gains"], "s")
        if seen("compute_metrics"):
            put("sim.metrics_s", sec["compute_metrics"], "s")
        if seen("trace_to_csv"):
            put("sim.trace_csv_s", sec["trace_to_csv"], "s")
        if seen("run_episode"):
            spans = [s for s, _ in self.episodes]
            busy = sum(spans) / 1e9
            self_s = sum(s for _, s in self.episodes) / 1e9
            put("sim.episodes", len(spans), "count")
            put("sim.cycles", self.cycles, "count")
            put("sim.episode_s", busy / len(spans), "s")
            put("sim.loop_self_s", self_s, "s")
            if self.cycles:
                put("sim.ns_per_cycle_self", self_s * 1e9 / self.cycles, "ns")
            put("batch.busy_s", busy, "s")
            put("batch.episode_s_max", max(spans) / 1e9, "s")
            put("batch.dispatch_s", call_s - busy, "s")
        return out
