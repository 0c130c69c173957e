"""Spans around calls into auxcount's layers, installed from outside.

The library has no trace hooks of its own, so a traced run replaces each
public function below with a wrapper that records a span.  The wrapper
is installed on every name a caller looks up: the defining module, each
module that imported the function by name (``cli.load_frame``), the
package namespace, and module-level dicts that hold the function
(``cli._SINGLE_ESTIMATORS``).  Methods are wrapped on their class, so
``Frame(...)`` inside ``Frame.take`` is seen too.

A span is ``(name, parent, start, end, count, tag)``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children (the benchmark is single-threaded while tracing, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("population", "classifier_sim", "designs", "estimators", "montecarlo", "cli")


def _rows_returned(args, kwargs, result):
    return result.N, None


def _rows_given(args, kwargs, result):
    return args[0].N, None


def _replicates(args, kwargs, result):
    return kwargs["R"], kwargs["estimator"]


def _bins(args, kwargs, result):
    return len(result), None


# (span name, "module.attr" or "module.Class.method", count/tag extractor)
TARGETS = (
    ("population.load_frame", "population.load_frame", _rows_returned),
    ("population.write_frame", "population.write_frame", _rows_given),
    ("population.frame_init", "population.Frame.__init__", None),
    ("population.stratify", "population.stratify_by_prediction", None),
    ("classifier_sim.simulate", "classifier_sim.simulate_predictions", None),
    ("classifier_sim.calibrate", "classifier_sim.calibrate_profile", None),
    ("classifier_sim.metrics", "classifier_sim.population_loss", None),
    ("classifier_sim.metrics", "classifier_sim.confusion_counts", None),
    ("designs.alias_build", "designs.AliasTable.__init__", None),
    ("designs.pps_draw", "designs.pps_wr", None),
    ("designs.srs_draw", "designs.srs_wor", None),
    ("designs.allocate", "designs.allocate", None),
    ("designs.sample_io", "designs.write_sample", None),
    ("designs.sample_io", "designs.load_sample", None),
    ("estimators.hh", "estimators.hh_estimate", None),
    ("estimators.srs", "estimators.srs_estimate", None),
    ("estimators.diff", "estimators.difference_estimate", None),
    ("estimators.stratified", "estimators.stratified_estimate", None),
    ("estimators.record", "estimators.estimate_record", None),
    ("montecarlo.run", "montecarlo.run_replications", _replicates),
    ("montecarlo.rng", "montecarlo.replicate_rng", None),
    ("montecarlo.histogram", "montecarlo.estimate_histogram", _bins),
)

# Monte Carlo pairings, named by run_replications' estimator argument.
PAIRINGS = ("hh", "srs", "strat_srs", "strat_diff")
CLI_COMMANDS = ("generate", "metrics", "sample", "estimate", "report", "simulate")

# Every per-layer metric a traced run prints: (name, unit, better).
# A metric whose layer a workload never reaches reads 0.
PER_LAYER = (
    ("population.load_frame_s", "s", "lower"),
    ("population.load_frame_rows_per_s", "rows/s", "higher"),
    ("population.write_frame_s", "s", "lower"),
    ("population.frame_init_s", "s", "lower"),
    ("population.stratify_s", "s", "lower"),
    ("population.rows_read", "count", "lower"),
    ("population.rows_written", "count", "lower"),
    ("population.self_s", "s", "lower"),
    ("classifier_sim.simulate_s", "s", "lower"),
    ("classifier_sim.calibrate_s", "s", "lower"),
    ("classifier_sim.metrics_s", "s", "lower"),
    ("classifier_sim.calibrate_steps", "count", "lower"),
    ("classifier_sim.self_s", "s", "lower"),
    ("designs.alias_build_s", "s", "lower"),
    ("designs.pps_draw_us", "us", "lower"),
    ("designs.srs_draw_us", "us", "lower"),
    ("designs.sample_io_s", "s", "lower"),
    ("designs.alias_builds", "count", "lower"),
    ("designs.self_s", "s", "lower"),
    ("estimators.hh_us", "us", "lower"),
    ("estimators.srs_us", "us", "lower"),
    ("estimators.diff_us", "us", "lower"),
    ("estimators.stratified_us", "us", "lower"),
    ("estimators.self_s", "s", "lower"),
    *((f"montecarlo.{p}_rep_us", "us", "lower") for p in PAIRINGS),
    *((f"montecarlo.rep_self_us.{p}", "us", "lower") for p in PAIRINGS),
    ("montecarlo.rng_us", "us", "lower"),
    ("montecarlo.histogram_s", "s", "lower"),
    ("montecarlo.histogram_bins", "count", "lower"),
    ("montecarlo.replicates", "count", "higher"),
    ("montecarlo.workers2_speedup", "ratio", "higher"),
    ("montecarlo.self_s", "s", "lower"),
    *((f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.frame_loads", "count", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    spans = ()

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list = []
        self.epoch = time.perf_counter()

    def _record(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, 0, None)
            if info is not None:
                count, tag = info(args, kwargs, result)
                spans[sid] = (name, parent, t0, t1, count, tag)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, e.g. one CLI command."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, t0, t1, 0, None)

    def install(self):
        """Wrap every target on every name that refers to it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "auxcount"]
        for name, target, info in TARGETS:
            mod_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"auxcount.{mod_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._record(name, original, info)
            if len(path) == 2:  # a method: wrap it on its class
                self._set(owner, path[-1], wrapper, original)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("__"):
                        continue
                    if value is original:
                        self._set(mod, attr, wrapper, original)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._restore.append((value.__setitem__, key, original))

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._restore.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def write(self, path):
        """Spans as JSON lines: [index, parent, name, start, end, count, tag]."""
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1, count, tag) in enumerate(self.spans):
                row = [sid, parent, name, t0 - self.epoch, t1 - self.epoch, count, tag]
                fh.write(json.dumps(row) + "\n")


# Children of a montecarlo.run span that run once per replicate.
_PER_REPLICATE = {
    "montecarlo.rng", "designs.pps_draw", "designs.srs_draw",
    "estimators.hh", "estimators.srs", "estimators.diff", "estimators.stratified",
}
_PER_PASS_COUNTS = (
    "population.rows_read", "population.rows_written", "designs.alias_builds",
    "montecarlo.histogram_bins", "montecarlo.replicates", "cli.frame_loads",
)


def layer_metrics(spans, pass_ranges):
    """Per-layer metrics from recorded spans.

    ``pass_ranges`` are ``(start, stop)`` span-index ranges, one per traced
    pass.  Time metrics named after a call (``load_frame_s``, ``hh_us``)
    are means per call over every recorded span, the traced set-up
    included.  Replicate metrics divide a run's replicate-loop time (its
    duration minus children that run once per call) or its self time by
    its R.  ``*.self_s`` and the counts are per pass, median over passes.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    calls: dict[str, list] = {}  # name -> [calls, duration, self time, count]
    rep = {p: [0, 0.0, 0.0] for p in PAIRINGS}  # pairing -> [R, loop s, self s]
    steps = 0
    for sid, (name, parent, t0, t1, count, tag) in enumerate(spans):
        dur, self_time = t1 - t0, t1 - t0 - child_time[sid]
        acc = calls.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += self_time
        acc[3] += count
        if name == "montecarlo.run" and tag in rep:
            rep[tag][0] += count
            rep[tag][1] += dur
            rep[tag][2] += self_time
        elif parent >= 0 and spans[parent][0] == "montecarlo.run":
            if spans[parent][5] in rep and name not in _PER_REPLICATE:
                rep[spans[parent][5]][1] -= dur
        if name == "classifier_sim.simulate":
            while parent >= 0 and spans[parent][0] != "classifier_sim.calibrate":
                parent = spans[parent][1]
            steps += parent >= 0

    def per_call(name, field=1, scale=1.0):
        acc = calls.get(name)
        return acc[field] / acc[0] * scale if acc else 0.0

    load = calls.get("population.load_frame", [0, 0.0, 0.0, 0])
    calibrations = calls.get("classifier_sim.calibrate", [0])[0]
    out = {
        "population.load_frame_s": per_call("population.load_frame"),
        "population.load_frame_rows_per_s": load[3] / load[1] if load[1] else 0.0,
        "population.write_frame_s": per_call("population.write_frame"),
        "population.frame_init_s": per_call("population.frame_init", field=2),
        "population.stratify_s": per_call("population.stratify"),
        "classifier_sim.simulate_s": per_call("classifier_sim.simulate"),
        "classifier_sim.calibrate_s": per_call("classifier_sim.calibrate"),
        "classifier_sim.metrics_s": per_call("classifier_sim.metrics"),
        "classifier_sim.calibrate_steps": steps / calibrations if calibrations else 0.0,
        "designs.alias_build_s": per_call("designs.alias_build"),
        "designs.pps_draw_us": per_call("designs.pps_draw", field=2, scale=1e6),
        "designs.srs_draw_us": per_call("designs.srs_draw", scale=1e6),
        "designs.sample_io_s": per_call("designs.sample_io"),
        "estimators.hh_us": per_call("estimators.hh", scale=1e6),
        "estimators.srs_us": per_call("estimators.srs", scale=1e6),
        "estimators.diff_us": per_call("estimators.diff", scale=1e6),
        "estimators.stratified_us": per_call("estimators.stratified", scale=1e6),
        "montecarlo.rng_us": per_call("montecarlo.rng", scale=1e6),
        "montecarlo.histogram_s": per_call("montecarlo.histogram"),
    }
    for p, (R, loop, self_time) in rep.items():
        out[f"montecarlo.{p}_rep_us"] = loop / R * 1e6 if R else 0.0
        out[f"montecarlo.rep_self_us.{p}"] = self_time / R * 1e6 if R else 0.0
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = per_call(f"cli.{c}")

    rows = []
    for start, stop in pass_ranges:
        row = dict.fromkeys(_PER_PASS_COUNTS + tuple(f"{x}.self_s" for x in LAYERS), 0.0)
        for sid in range(start, stop):
            name, _, t0, t1, count, _ = spans[sid]
            layer = name.split(".")[0]
            if layer in LAYERS:
                row[f"{layer}.self_s"] += t1 - t0 - child_time[sid]
            if name == "population.load_frame":
                row["population.rows_read"] += count
                row["cli.frame_loads"] += 1
            elif name == "population.write_frame":
                row["population.rows_written"] += count
            elif name == "designs.alias_build":
                row["designs.alias_builds"] += 1
            elif name == "montecarlo.histogram":
                row["montecarlo.histogram_bins"] += count
            elif name == "montecarlo.run":
                row["montecarlo.replicates"] += count
        rows.append(row)
    for key in rows[0] if rows else ():
        out[key] = statistics.median(row[key] for row in rows)
    return out
