"""Deployment configuration and the profiling trace format.

The trace file is the narrow waist of the toolkit: three CSV columns,
``per_container_rate,observed_metric,mean_response_time_s``, one row per
measurement second.  Everything downstream (metric fit, response-time
fit, comparisons) consumes this shape, whether the rows came from a real
deployment or from the built-in simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, TraceParseError, ValidationError

METRIC_CONCURRENCY = "cc"
METRIC_RPS = "rps"
METRIC_KINDS = (METRIC_CONCURRENCY, METRIC_RPS)

TRACE_HEADER = "per_container_rate,observed_metric,mean_response_time_s"

# 12 significant digits survive a write/parse round trip exactly at float64.
_TRACE_FMT = "%.12g"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class AutoscalerConfig:
    """Static description of one autoscaled deployment.

    Defaults for the evaluation period, stable window and lifecycle rates
    follow stock Knative: decisions every 2 s over a 60 s window, about
    one provisioning event per second and two removals per second.
    """

    metric_kind: str
    target_value: float
    n_max: int
    t_eva_s: float = 2.0
    stable_window_s: float = 60.0
    mu_pro: float = 1.0
    mu_dep: float = 2.0

    def __post_init__(self):
        _require(self.metric_kind in METRIC_KINDS,
                 f"metric_kind must be one of {METRIC_KINDS}, got {self.metric_kind!r}")
        object.__setattr__(self, "target_value", _finite_number(self.target_value, "target_value"))
        _require(self.target_value > 0, f"target_value must be > 0, got {self.target_value}")
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer)):
            raise ValidationError(f"n_max must be an integer, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))
        _require(self.n_max >= 1, f"n_max must be >= 1, got {self.n_max}")
        object.__setattr__(self, "t_eva_s", _finite_number(self.t_eva_s, "t_eva_s"))
        _require(self.t_eva_s > 0, f"t_eva_s must be > 0, got {self.t_eva_s}")
        object.__setattr__(self, "stable_window_s", _finite_number(self.stable_window_s, "stable_window_s"))
        _require(self.stable_window_s >= 1, f"stable_window_s must be >= 1, got {self.stable_window_s}")
        object.__setattr__(self, "mu_pro", _finite_number(self.mu_pro, "mu_pro"))
        _require(self.mu_pro > 0, f"mu_pro must be > 0, got {self.mu_pro}")
        object.__setattr__(self, "mu_dep", _finite_number(self.mu_dep, "mu_dep"))
        _require(self.mu_dep > 0, f"mu_dep must be > 0, got {self.mu_dep}")

    @property
    def window_length(self) -> int:
        """Number of one-second samples the stable window averages over."""
        return int(math.ceil(self.stable_window_s))

    def to_dict(self) -> dict:
        return {
            "metric_kind": self.metric_kind,
            "target_value": self.target_value,
            "n_max": self.n_max,
            "t_eva_s": self.t_eva_s,
            "stable_window_s": self.stable_window_s,
            "mu_pro": self.mu_pro,
            "mu_dep": self.mu_dep,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AutoscalerConfig":
        if not isinstance(data, dict):
            raise ValidationError(f"autoscaler config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown autoscaler config keys: {', '.join(unknown)}")
        missing = sorted(k for k in ("metric_kind", "target_value", "n_max") if k not in data)
        if missing:
            raise ValidationError(f"missing required autoscaler config keys: {', '.join(missing)}")
        return cls(**data)


def load_json(path):
    """Parse a JSON file; malformed JSON is a ValidationError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def load_autoscaler_config(path) -> AutoscalerConfig:
    """Read an AutoscalerConfig from a JSON file."""
    return AutoscalerConfig.from_dict(load_json(path))


def save_autoscaler_config(cfg: AutoscalerConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class PredictionRequest:
    """A single what-if query against a fitted model."""

    arrival_rate: float

    def __post_init__(self):
        object.__setattr__(self, "arrival_rate", _finite_number(self.arrival_rate, "arrival_rate"))
        _require(self.arrival_rate > 0, f"arrival_rate must be > 0, got {self.arrival_rate}")


@dataclass(frozen=True)
class TraceRow:
    """One measurement second.

    per_container_rate is the offered request rate divided by the number
    of ready containers during that second; observed_metric is the value
    the autoscaler's stable window reported (concurrency or rps,
    depending on the deployment); mean_response_time_s averages the
    requests that completed in that second.
    """

    per_container_rate: float
    observed_metric: float
    mean_response_time_s: float

    def __post_init__(self):
        for name in ("per_container_rate", "observed_metric", "mean_response_time_s"):
            object.__setattr__(self, name, _finite_number(getattr(self, name), name))
        _require(self.per_container_rate >= 0,
                 f"per_container_rate must be >= 0, got {self.per_container_rate}")
        _require(self.observed_metric >= 0,
                 f"observed_metric must be >= 0, got {self.observed_metric}")
        if self.per_container_rate > 0:
            _require(self.mean_response_time_s > 0,
                     "mean_response_time_s must be > 0 when per_container_rate > 0, "
                     f"got {self.mean_response_time_s}")


@dataclass(frozen=True)
class ProfilingTrace:
    """An ordered collection of TraceRows plus array views for fitting."""

    rows: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if not isinstance(row, TraceRow):
                raise ValidationError(f"trace rows must be TraceRow, got {type(row).__name__}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def rates(self) -> np.ndarray:
        return np.array([r.per_container_rate for r in self.rows], dtype=np.float64)

    @property
    def observed(self) -> np.ndarray:
        return np.array([r.observed_metric for r in self.rows], dtype=np.float64)

    @property
    def response_times(self) -> np.ndarray:
        return np.array([r.mean_response_time_s for r in self.rows], dtype=np.float64)

    @property
    def n_distinct_rates(self) -> int:
        return len({r.per_container_rate for r in self.rows})

    def extend(self, other: "ProfilingTrace") -> "ProfilingTrace":
        return ProfilingTrace(self.rows + other.rows)


def trace_from_arrays(rates: Sequence[float], observed: Sequence[float],
                      response_times: Sequence[float]) -> ProfilingTrace:
    if not (len(rates) == len(observed) == len(response_times)):
        raise ValidationError("trace column lengths differ")
    return ProfilingTrace(tuple(
        TraceRow(float(a), float(b), float(c))
        for a, b, c in zip(rates, observed, response_times)
    ))


def parse_trace(path) -> ProfilingTrace:
    """Read a profiling trace CSV.

    Raises TraceParseError (with a line number) for malformed content and
    InsufficientDataError when fewer than two distinct per-container
    rates are present, since no downstream fit can use such a trace.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceParseError(f"{path}: empty file, expected header {TRACE_HEADER!r}")
    if lines[0].strip() != TRACE_HEADER:
        raise TraceParseError(f"{path}: line 1: expected header {TRACE_HEADER!r}, got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            raise TraceParseError(f"{path}: line {lineno}: blank row")
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceParseError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        values = []
        for token, name in zip(parts, TRACE_HEADER.split(",")):
            try:
                values.append(float(token))
            except ValueError:
                raise TraceParseError(
                    f"{path}: line {lineno}: {name} is not a number: {token!r}") from None
        try:
            rows.append(TraceRow(*values))
        except ValidationError as exc:
            raise TraceParseError(f"{path}: line {lineno}: {exc}") from None
    trace = ProfilingTrace(tuple(rows))
    if trace.n_distinct_rates < 2:
        raise InsufficientDataError(
            f"{path}: trace has {trace.n_distinct_rates} distinct per-container rate(s); "
            "at least 2 are required for fitting")
    return trace


def write_trace(trace: ProfilingTrace, path) -> None:
    """Write the canonical 3-column CSV (UTF-8, LF, 12 significant digits)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace.rows:
            fh.write(_TRACE_FMT % row.per_container_rate)
            fh.write(",")
            fh.write(_TRACE_FMT % row.observed_metric)
            fh.write(",")
            fh.write(_TRACE_FMT % row.mean_response_time_s)
            fh.write("\n")
