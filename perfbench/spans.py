"""In-memory spans and counters around replicast's public functions.

The benchmark records where time goes without changing the program: it
wraps each function in ``TARGETS`` in every replicast module that looks
the name up (``cli`` imports ``build_chain`` and ``simulate`` by name,
``cluster`` imports ``order_probabilities`` by name, ...), records one
span per call, and restores every name when the block ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Collects spans and counters from any thread.

    A span opened on a thread that has no open span of its own takes the
    current step as its parent, so work that the CLI hands to its pool
    threads is charged to the command that started it.  With
    ``record_spans`` off only the counters and simulation results are kept.
    """

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.vertical_keys: set = set()
        # (arrivals_total, completions_total, in_flight_end) per simulate call
        self.simulations: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._step: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.record_spans:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._step
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident()))

    @contextlib.contextmanager
    def step(self, name: str):
        """Span of one timed command, run on the calling thread."""
        with self.span(name) as span_id:
            self._step = span_id
            try:
                yield
            finally:
                self._step = None

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def vertical_call(self, key: tuple) -> None:
        with self._lock:
            self.counts["cluster.vertical_calls"] += 1
            self.vertical_keys.add(key)

    def simulation(self, report) -> None:
        with self._lock:
            self.counts["simulator.calls"] += 1
            self.counts["simulator.arrivals"] += int(report.arrivals_total)
            self.simulations.append((int(report.arrivals_total),
                                     int(report.completions_total),
                                     int(report.in_flight_end)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _observe_vertical(tracer, args, result):
    cfg = args["cfg"]
    tracer.vertical_call((int(args["i_target"]), cfg.n_max, cfg.mu_pro, cfg.mu_dep,
                          cfg.t_eva_s))


def _observe_stationary(tracer, args, result):
    tracer.count("cluster.states", int(result.pi.size))
    tracer.count("cluster.transient_states", int(result.n_transient))


def _observe_simulate(tracer, args, result):
    tracer.simulation(result)


def _observe_trace_rows(tracer, args, result):
    tracer.count("config.trace_rows", len(result))


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` and ``name`` give its definition,
    ``span`` names its spans, ``observe`` reads counters off each call."""

    module: str
    name: str
    span: str
    observe: Optional[Callable] = None


SIMULATE = Target("replicast.simulator", "simulate", "simulator.simulate", _observe_simulate)

TARGETS = (
    Target("replicast.cluster", "build_chain", "cluster.assembly"),
    Target("replicast.cluster", "horizontal_transition_probs", "cluster.horizontal"),
    Target("replicast.cluster", "vertical_transition_probs", "cluster.vertical",
           _observe_vertical),
    Target("replicast.cluster", "stationary_distribution", "cluster.stationary",
           _observe_stationary),
    Target("replicast.cluster", "solve_stationary", "cluster.stationary"),
    Target("replicast.evaluator", "order_probabilities", "evaluator.order"),
    Target("replicast.metric_model", "observed_value_distribution", "metric_model.dist"),
    Target("replicast.metric_model", "fit_metric_model", "metric_model.fit"),
    Target("replicast.output", "steady_state_report", "output.report"),
    Target("replicast.output", "fit_rtf", "output.fit_rtf"),
    SIMULATE,
    Target("replicast.config", "trace_from_arrays", "config.trace", _observe_trace_rows),
    Target("replicast.config", "ProfilingTrace.extend", "config.trace", _observe_trace_rows),
    Target("replicast.config", "parse_trace", "config.trace", _observe_trace_rows),
    Target("replicast.bundle", "load_bundle", "bundle.load"),
)

# Untimed runs watch only what the output checks need.
PROBES = (SIMULATE,)


def _wrap(tracer: Tracer, fn, target: Target):
    signature = inspect.signature(fn) if target.observe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(target.span):
            result = fn(*args, **kwargs)
        if target.observe is not None:
            target.observe(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _lookups(original, owner, attr):
    """Every (holder, name) through which replicast code reaches ``original``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "replicast" or mod_name.startswith("replicast.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets=TARGETS):
    """Wrap ``targets`` for the duration of the block, then restore them."""
    patches = []
    try:
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.name.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, target)
            for holder, name in _lookups(original, owner, attr):
                patches.append((holder, name, original))
                setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(patches):
            setattr(holder, name, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children may run on several threads (the
    CLI's pool); an instant covered by children on two threads counts
    once, so a command's self time is the time during which none of its
    children ran anywhere.
    """
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals = collections.defaultdict(float)
    for s in spans:
        covered = _union_length((max(c.start, s.start), min(c.end, s.end))
                                for c in children[s.id])
        totals[s.name] += (s.end - s.start) - covered
    return totals


# Per-layer metrics of a traced run, with units.  Each ``<span>_s`` is the
# summed self time of that span name; ``cli.self_s`` sums every CLI
# command span.
TIMED_SPANS = ("cluster.vertical", "cluster.horizontal", "cluster.assembly",
               "cluster.stationary", "evaluator.order", "metric_model.dist",
               "metric_model.fit", "output.report", "output.fit_rtf",
               "simulator.simulate", "config.trace", "bundle.load")
COUNTS = ("cluster.vertical_calls", "cluster.states", "cluster.transient_states",
          "simulator.calls", "simulator.arrivals", "config.trace_rows")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    selfs = self_times(tracer.spans)
    out = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in TIMED_SPANS}
    out["cli.self_s"] = (sum(v for k, v in selfs.items() if k.startswith("cli.")), "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    calls = tracer.counts.get("cluster.vertical_calls", 0)
    # No vertical call at all wastes nothing.
    ratio = len(tracer.vertical_keys) / calls if calls else 1.0
    out["cluster.vertical_useful_ratio"] = (ratio, "ratio")
    out["cli.threads"] = (len({s.thread for s in tracer.spans}), "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
