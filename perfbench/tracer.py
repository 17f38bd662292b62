"""Spans and counters around the public functions of each ``artifact`` layer.

``Tracer.install`` replaces each function at the name the verb looks it up
(a module attribute such as ``artifact.spdc.biphoton_amplitude``) with a
wrapper that records a span: name, start, end, parent and run id.  Spans stay
in memory until ``Tracer.dump``.  A function that no longer exists is
recorded as absent, so a later rename loses its attribution (visible in
``trace.coverage``) instead of crashing the run.

``layer_metrics`` turns one dumped trace into per-layer metrics.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc

# (module, function) pairs wrapped in every traced run, grouped by layer.
TRACED = {
    "spdc": ("biphoton_amplitude", "bragg_angle_sweep", "coincidence_rate", "port_energy_spectra"),
    "montecarlo": ("generate_pairs", "generate_stray", "merge_streams", "detect"),
    "daq": ("find_triggers", "build_events", "energy_select", "save_events", "load_events"),
    "stats": ("sigma", "spectra", "counts_from_events", "alpha"),
}
# Layers whose peak allocation (tracemalloc, numpy buffers included) is recorded.
ALLOC_LAYERS = ("spdc", "montecarlo")
VERBS = ("model", "simulate", "analyze")

COUNTERS = (
    "spdc.cells",
    "montecarlo.photons",
    "montecarlo.pulses",
    "daq.save_events.mb",
    "daq.load_events.mb",
    "daq.captured",
    "daq.events",
    "daq.empty_dropped",
    "daq.rate_dropped",
    "daq.heralded",
    "stats.sigma.calls",
    "stats.sigma.undefined",
)


def _cells(grid) -> int:
    return int(grid.n_energy) * int(grid.n_x) * int(grid.n_y)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self.peak_alloc = dict.fromkeys(ALLOC_LAYERS, 0)
        self.absent: list[str] = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def install(self) -> None:
        modules = {}
        for layer, names in TRACED.items():
            modules[layer] = importlib.import_module(f"artifact.{layer}")
            for name in names:
                self._wrap(modules[layer], layer, name)

    def _wrap(self, module, layer: str, name: str) -> None:
        fn = getattr(module, name, None)
        span_name = f"{layer}.{name}"
        if not callable(fn):
            self.absent.append(span_name)
            return
        observe = getattr(self, "_observe_" + name, None)
        track_alloc = layer in ALLOC_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_alloc = track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            index = self.begin(span_name)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.end(index)
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[layer] = max(self.peak_alloc[layer], peak)
                if observe is not None:
                    try:
                        observe(args, kwargs, result, error)
                    except (AttributeError, TypeError, ValueError, IndexError, OSError):
                        pass  # a changed signature loses a count, not the run

        setattr(module, name, traced)

    # Counters, taken from arguments and results at the layer boundary.
    def _observe_biphoton_amplitude(self, args, kwargs, result, error):
        if error is None:
            self.counts["spdc.cells"] += _cells(result.grid)

    def _observe_bragg_angle_sweep(self, args, kwargs, result, error):
        if error is None:
            from artifact import spdc

            self.counts["spdc.cells"] += _cells(kwargs.get("grid") or spdc.SWEEP_GRID)

    def _observe_detect(self, args, kwargs, result, error):
        if error is None:
            self.counts["montecarlo.photons"] += len(_arg(args, kwargs, 0, "photons"))
            self.counts["montecarlo.pulses"] += len(result)

    def _observe_build_events(self, args, kwargs, result, error):
        if error is None:
            events, rate_dropped, empty_dropped = result
            self._captured(len(events), rate_dropped, empty_dropped)

    def _observe_load_events(self, args, kwargs, result, error):
        self.counts["daq.load_events.mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6
        if error is None:
            events, meta = result
            self._captured(len(events), meta.get("rate_dropped") or 0, meta.get("empty_dropped") or 0)

    def _captured(self, kept, rate_dropped, empty_dropped):
        self.counts["daq.captured"] += kept + rate_dropped + empty_dropped
        self.counts["daq.rate_dropped"] += rate_dropped
        self.counts["daq.empty_dropped"] += empty_dropped

    def _observe_save_events(self, args, kwargs, result, error):
        self.counts["daq.save_events.mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6

    def _observe_energy_select(self, args, kwargs, result, error):
        if error is None:
            events, heralded = result
            self.counts["daq.events"] += len(events)
            self.counts["daq.heralded"] += len(heralded)

    def _observe_sigma(self, args, kwargs, result, error):
        self.counts["stats.sigma.calls"] += 1
        self.counts["stats.sigma.undefined"] += isinstance(error, ValueError)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counts": self.counts,
                    "peak_alloc_bytes": self.peak_alloc,
                    "absent": self.absent,
                },
                fh,
            )


PER_LAYER_UNITS = {
    **{f"{layer}.{name}.self_s": "s" for layer, names in TRACED.items() for name in names},
    "spdc.cells": "count",
    "spdc.peak_alloc_mb": "MB",
    "montecarlo.photons": "count",
    "montecarlo.pulses": "count",
    "montecarlo.pulses_per_photon": "ratio",
    "montecarlo.peak_alloc_mb": "MB",
    "daq.save_events.mb": "MB",
    "daq.load_events.mb": "MB",
    "daq.events": "count",
    "daq.empty_dropped": "count",
    "daq.rate_dropped": "count",
    "daq.heralded": "count",
    "daq.kept_ratio": "ratio",
    "daq.heralded_ratio": "ratio",
    "stats.sigma.calls": "count",
    "stats.sigma.undefined": "count",
    **{f"cli.{verb}.self_s": "s" for verb in VERBS},
    "cli.cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``cli.cpu_s`` and ``trace.overhead_s`` need the untraced invocations too,
    so the caller adds them.  Functions never called, or absent, report 0.
    """
    spans = trace["spans"]
    self_s = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = {name: 0.0 for name in PER_LAYER_UNITS if name.endswith(".self_s")}
    for (name, _s, _e, _p), value in zip(spans, self_s):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + value
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    root_wall = sum(spans[i][2] - spans[i][1] for i in roots)
    root_self = sum(self_s[i] for i in roots)
    counts = trace["counts"]
    out.update({k: v for k, v in counts.items() if k in PER_LAYER_UNITS})
    out["spdc.peak_alloc_mb"] = trace["peak_alloc_bytes"]["spdc"] / 2**20
    out["montecarlo.peak_alloc_mb"] = trace["peak_alloc_bytes"]["montecarlo"] / 2**20
    out["montecarlo.pulses_per_photon"] = _ratio(counts["montecarlo.pulses"], counts["montecarlo.photons"])
    kept = counts["daq.captured"] - counts["daq.rate_dropped"] - counts["daq.empty_dropped"]
    out["daq.kept_ratio"] = _ratio(kept, counts["daq.captured"])
    out["daq.heralded_ratio"] = _ratio(counts["daq.heralded"], counts["daq.events"])
    out["trace.coverage"] = _ratio(root_wall - root_self, root_wall)
    return out
