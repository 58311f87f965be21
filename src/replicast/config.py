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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, NumericalError, TraceParseError, ValidationError

METRIC_CONCURRENCY = "cc"
METRIC_RPS = "rps"
METRIC_KINDS = (METRIC_CONCURRENCY, METRIC_RPS)

WORKLOAD_INFINITE_SERVER = "infinite_server"
WORKLOAD_PROCESSOR_SHARING = "processor_sharing"
_WORKLOAD_KINDS = (WORKLOAD_INFINITE_SERVER, WORKLOAD_PROCESSOR_SHARING)

_DIST_EXPONENTIAL = "exponential"
_DIST_DETERMINISTIC = "deterministic"

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


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_metric_kind(kind) -> None:
    _require(kind in METRIC_KINDS, f"metric_kind must be one of {METRIC_KINDS}, got {kind!r}")


def _check_workload_kind(kind) -> None:
    _require(kind in _WORKLOAD_KINDS,
             f"workload kind must be one of {_WORKLOAD_KINDS}, got {kind!r}")


def _check_keys(data, what: str, known, required) -> None:
    """Require a JSON object whose keys all lie in ``known`` and include ``required``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{what}: unknown keys: {', '.join(unknown)}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValidationError(f"{what}: missing required keys: {', '.join(missing)}")


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
        _check_metric_kind(self.metric_kind)
        object.__setattr__(self, "target_value", _finite_number(self.target_value, "target_value"))
        _require(self.target_value > 0, f"target_value must be > 0, got {self.target_value}")
        object.__setattr__(self, "n_max", _integer(self.n_max, "n_max"))
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "AutoscalerConfig":
        _check_keys(data, "autoscaler config", [f.name for f in fields(cls)],
                    ("metric_kind", "target_value", "n_max"))
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


def dump_json(payload, path=None, indent=2) -> str:
    """payload as standard JSON text with sorted keys, written with a
    trailing newline to path if one is given.  indent None gives the
    compact form, which json encodes in C.  A NaN or infinite value
    raises NumericalError, since standard JSON has no token for it."""
    try:
        text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False,
                          separators=None if indent else (",", ":"))
    except ValueError as exc:
        raise NumericalError(f"cannot write a non-finite value as JSON: {exc}") from None
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def save_autoscaler_config(cfg: AutoscalerConfig, path) -> None:
    dump_json(cfg.to_dict(), path)


_TRACE_COLUMNS = tuple(TRACE_HEADER.split(","))
_TRACE_ROW_FMT = ",".join([_TRACE_FMT] * len(_TRACE_COLUMNS)) + "\n"


def _trace_column(values, name: str) -> np.ndarray:
    try:
        col = np.array(values)
    except ValueError as exc:
        raise ValidationError(f"{name} must be a one-dimensional numeric column: {exc}") from None
    if col.ndim != 1 or (col.size and col.dtype.kind not in "iuf"):
        raise ValidationError(
            f"{name} must be a one-dimensional numeric column, got shape {col.shape} "
            f"of {col.dtype}")
    return col.astype(np.float64, copy=False)


def _first_invalid_row(rates, observed, response_times):
    """(index, message) of the first row that breaks a trace rule, or None.

    Every value must be finite, the rate and the metric >= 0, and the
    mean response time > 0 whenever the rate is; within a row the rules
    are checked in that order.
    """
    columns = (rates, observed, response_times)
    rules = [(~np.isfinite(col), k, "must be finite") for k, col in enumerate(columns)]
    rules += [
        (rates < 0, 0, "must be >= 0"),
        (observed < 0, 1, "must be >= 0"),
        ((rates > 0) & ~(response_times > 0), 2, "must be > 0 when per_container_rate > 0"),
    ]
    bad = np.logical_or.reduce([mask for mask, _, _ in rules])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    k, rule = next((k, rule) for mask, k, rule in rules if mask[row])
    return row, f"{_TRACE_COLUMNS[k]} {rule}, got {float(columns[k][row])!r}"


@dataclass(frozen=True, eq=False)
class ProfilingTrace:
    """A profiling trace as three aligned, read-only float64 columns.

    Row k is one measurement second: ``rates[k]`` is the offered request
    rate divided by the number of ready containers, ``observed[k]`` the
    value the autoscaler's stable window reported (concurrency or rps,
    depending on the deployment) and ``response_times[k]`` the mean over
    the requests that completed in that second.  The columns are copied
    and validated once, on construction.
    """

    rates: np.ndarray = ()
    observed: np.ndarray = ()
    response_times: np.ndarray = ()

    def __post_init__(self):
        columns = [_trace_column(getattr(self, f.name), name)
                   for f, name in zip(fields(self), _TRACE_COLUMNS)]
        if len({col.size for col in columns}) > 1:
            raise ValidationError("trace column lengths differ")
        bad = _first_invalid_row(*columns)
        if bad is not None:
            raise ValidationError(f"trace row {bad[0] + 1}: {bad[1]}")
        for f, col in zip(fields(self), columns):
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return self.rates.size

    @property
    def n_distinct_rates(self) -> int:
        # sort and count changes: np.unique imports numpy.ma on numpy 2.4,
        # a cost every fit would pay; columns are finite and -0.0 == 0.0
        if self.rates.size == 0:
            return 0
        s = np.sort(self.rates)
        return int(np.count_nonzero(s[1:] != s[:-1])) + 1

    def extend(self, other: "ProfilingTrace") -> "ProfilingTrace":
        return ProfilingTrace(*(np.concatenate((getattr(self, f.name), getattr(other, f.name)))
                                for f in fields(self)))


def trace_from_arrays(rates: Sequence[float], observed: Sequence[float],
                      response_times: Sequence[float]) -> ProfilingTrace:
    return ProfilingTrace(rates, observed, response_times)


def _check_rows(path, rows: np.ndarray) -> None:
    # Row k sits on line k + 2.
    bad = _first_invalid_row(*rows.T)
    if bad is not None:
        raise TraceParseError(f"{path}: line {bad[0] + 2}: {bad[1]}")


# numpy's float parser strips these ASCII separators around a number as
# whitespace, and float refuses them, so a body holding one is scanned.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_READ_CHUNK = 1 << 16


def _numpy_rows(fh):
    """A trace's rows as an (n, 3) float64 array read by numpy's parser, or
    None where only the line scan can decide.

    numpy refuses some tokens that float reads and skips empty lines, so
    every row must have three fields and the rows must match the lines
    after the header one for one.
    """
    if fh.readline().strip() != TRACE_HEADER:
        return None
    body = fh.tell()
    chars = newlines = 0
    last = "\n"
    for chunk in iter(lambda: fh.read(_READ_CHUNK), ""):
        if any(c in chunk for c in _NUMPY_ONLY_SPACE):
            return None
        chars += len(chunk)
        newlines += chunk.count("\n")
        last = chunk[-1]
    if chars == newlines:  # no rows, or only blank ones, on which loadtxt warns
        return None
    fh.seek(body)
    rows = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    return rows if rows.shape == (newlines + (last != "\n"), 3) else None


def _scan_rows(path, text: str) -> np.ndarray:
    """A whole trace file's rows, read line by line as float reads each token.

    This is the reader of last resort: it raises TraceParseError naming
    the first bad line, where a row rule broken on an earlier line comes
    before a malformed one.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceParseError(f"{path}: empty file, expected header {TRACE_HEADER!r}")
    if lines[0].strip() != TRACE_HEADER:
        raise TraceParseError(f"{path}: line 1: expected header {TRACE_HEADER!r}, got {lines[0]!r}")
    values = []

    def fail(lineno, message):
        _check_rows(path, np.array(values, dtype=np.float64).reshape(-1, 3))
        raise TraceParseError(f"{path}: line {lineno}: {message}")

    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            fail(lineno, "blank row")
        parts = line.split(",")
        if len(parts) != 3:
            fail(lineno, f"expected 3 fields, got {len(parts)}")
        row = []
        for token, name in zip(parts, _TRACE_COLUMNS):
            try:
                row.append(float(token))
            except ValueError:
                fail(lineno, f"{name} is not a number: {token!r}")
        values.append(row)
    return np.array(values, dtype=np.float64).reshape(-1, 3)


def parse_trace(path) -> ProfilingTrace:
    """Read a profiling trace CSV.

    The file is UTF-8 with LF or CRLF line endings.  Its first line is
    the header ``per_container_rate,observed_metric,mean_response_time_s``
    and every later line, up to the final line ending, is one row of
    three comma-separated numbers, each read as Python's ``float`` reads
    it; a blank row, also at the end, is an error.  numpy's parser reads
    the rows, and the line scan reads any file it refuses.

    Raises TraceParseError naming the first bad line for malformed
    content, and InsufficientDataError when fewer than two distinct
    per-container rates are present, since no downstream fit can use
    such a trace.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = None
        if fh.seekable():  # numpy reads the body after its lines are counted
            try:
                rows = _numpy_rows(fh)
            except ValueError:  # a token numpy refuses, or bytes that are not UTF-8
                pass
            fh.seek(0)
        if rows is None:
            # a byte that is not UTF-8 reads as a lone surrogate: a bad line
            fh.reconfigure(errors="surrogateescape")
            rows = _scan_rows(path, fh.read())
    _check_rows(path, rows)
    trace = ProfilingTrace(*rows.T)
    if trace.n_distinct_rates < 2:
        raise InsufficientDataError(
            f"{path}: trace has {trace.n_distinct_rates} distinct per-container rate(s); "
            "at least 2 are required for fitting")
    return trace


_WRITE_CHUNK_ROWS = 1024


def write_trace(trace: ProfilingTrace, path) -> None:
    """Write the canonical 3-column CSV (UTF-8, LF, 12 significant digits)."""
    columns = (trace.rates, trace.observed, trace.response_times)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for start in range(0, len(trace), _WRITE_CHUNK_ROWS):
            chunk = np.stack([col[start:start + _WRITE_CHUNK_ROWS] for col in columns], axis=1)
            fh.write(_TRACE_ROW_FMT * len(chunk) % tuple(chunk.ravel().tolist()))
