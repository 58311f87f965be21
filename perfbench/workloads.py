"""The benchmark workloads: their inputs, timed commands and output checks.

Each workload makes its inputs from the seed before timing starts, in the
benchmark's own process.  The timed commands then run in a fresh worker
interpreter (``worker.py``), one command at a time, against ``cli.main``
in process; the program receives only the generated files.

The chain workloads fit their model from one reference trace, profiled
with ``profile_trace``'s own default seed, whatever the benchmark seed.
The stationary solver's power path runs until convergence, and its
iteration count swings by a factor of two to ten with small changes in
the fitted model; a model per seed would make the spread across seeds a
measure of the model, not of the program.  The seed orders the sweep's
points instead, which decides what runs side by side on the CLI's pool.
``profile-compare`` draws its profile and simulations from the seed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import random
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

# The README's profiling grid: an infinite-server workload with 0.2 s
# exponential service, profiled on one container at nine rates.
PROFILE_RATES = (0.5, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
SERVICE_MEAN_S = 0.2
PROFILE_WARMUP_S = 300.0
METRIC = "cc"


def profile_seed(seed: int) -> int:
    # profile_trace uses consecutive seeds from its base, one per rate.
    return 1000 + 10 * seed


def sim_seed(seed: int) -> int:
    # compare runs consecutive seeds from the config's seed.
    return 1 + 10 * seed


def _cpu_time() -> float:
    """CPU seconds of this process's threads and of its finished children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """One iteration's timed commands: wall and CPU time, output checks."""

    def __init__(self, tracer, inputs: Path, outdir: Path, seed: int):
        self.tracer = tracer
        self.inputs = inputs
        self.outdir = outdir
        self.seed = seed
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.points = 0
        self.max_rel_error = None
        self.checks: list[tuple] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), "" if ok else detail))
        return ok

    def _timed(self, name: str, fn, *args, **kwargs):
        """Run one command, timed and with its console output in a log file."""
        log = self.outdir / f"{name}.log"
        with open(log, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
            with self.tracer.step(name):
                start, cpu_start = time.perf_counter(), _cpu_time()
                try:
                    return fn(*args, **kwargs)
                except Exception:  # the iteration records the failure and goes on
                    self.check(f"{name}.completed", False, traceback.format_exc(limit=4))
                    return None
                finally:
                    self.wall_s += time.perf_counter() - start
                    self.cpu_s += _cpu_time() - cpu_start

    def cli(self, command: str, *argv: str):
        from replicast import cli
        return self._timed(f"cli.{command}", cli.main, [command, *argv])

    def call(self, name: str, fn, *args, **kwargs):
        return self._timed(f"step.{name}", fn, *args, **kwargs)

    def check_simulations(self) -> None:
        for k, (arrivals, completions, in_flight) in enumerate(self.tracer.simulations):
            self.check(f"simulate[{k}].conservation", arrivals == completions + in_flight,
                       f"arrivals {arrivals} != completions {completions} + "
                       f"in flight {in_flight}")

    @property
    def arrivals(self) -> int:
        return sum(s[0] for s in self.tracer.simulations)


def _reference_bundle(inputs: Path, duration_s: float) -> Path:
    import replicast as rc
    workload = rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=SERVICE_MEAN_S)
    trace = rc.profile_trace(workload, PROFILE_RATES, metric_kind=METRIC,
                             duration_s=duration_s, warmup_s=PROFILE_WARMUP_S)
    rc.write_trace(trace, inputs / "trace.csv")
    bundle_path = inputs / "model.json"
    rc.save_bundle(rc.fit_bundle(rc.parse_trace(inputs / "trace.csv"), METRIC), bundle_path)
    return bundle_path


def _non_finite(value, where="") -> list:
    """Paths of every number in a JSON value that is not finite."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [where]
    return []


# Replica counts are stationary averages of a normalised vector, so they
# may sit a rounding error outside [1, n_max].
_RANGE_SLACK = 1e-9


def _replicas_in_range(value: float, n_max: int) -> bool:
    return 1.0 - _RANGE_SLACK <= value <= n_max + _RANGE_SLACK


def sweep_row_problem(row, n_max: int):
    """Why one sweep CSV row is wrong, or None when it is right."""
    if row is None:
        return "row missing"
    if row["error"]:
        return f"error column: {row['error']}"
    try:
        values = {k: float(row[k]) for k in ("avg_replicas", "avg_concurrency", "avg_rt_s")}
    except ValueError as exc:
        return f"unparsable value: {exc}"
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite {', '.join(bad)}"
    if not _replicas_in_range(values["avg_replicas"], n_max):
        return f"avg_replicas {values['avg_replicas']} outside [1, {n_max}]"
    return None


def report_problems(payload: dict, n_max: int) -> list:
    """Why a predict payload is wrong; empty when it is right."""
    problems = [f"non-finite {p}" for p in _non_finite(payload)]
    marginal = payload.get("marginal_ready")
    if not isinstance(marginal, list) or len(marginal) != n_max:
        problems.append(f"marginal_ready must hold {n_max} entries")
    else:
        if min(marginal) < 0:
            problems.append("marginal_ready has a negative entry")
        if abs(math.fsum(marginal) - 1.0) > 1e-9:
            problems.append(f"marginal_ready sums to {math.fsum(marginal)!r}")
    avg = payload.get("avg_replica_count")
    if not isinstance(avg, float) or not _replicas_in_range(avg, n_max):
        problems.append(f"avg_replica_count {avg!r} outside [1, {n_max}]")
    return problems


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Sweep:
    """``sweep`` over every (arrival rate, target) pair at one n_max."""

    n_max: int
    lambdas: tuple
    targets: tuple
    profile_duration_s: float = 900.0

    outputs = ("sweep.csv",)

    def prepare(self, inputs: Path, seed: int) -> None:
        _reference_bundle(inputs, self.profile_duration_s)
        rng = random.Random(seed)
        _write_json(inputs / "spec.json", {
            "lambdas": rng.sample(self.lambdas, len(self.lambdas)),
            "target_values": rng.sample(self.targets, len(self.targets)),
            "fixed": {"metric_kind": METRIC, "n_max": self.n_max}})

    def run(self, run: Run) -> None:
        out = run.outdir / "sweep.csv"
        code = run.cli("sweep", "--model", str(run.inputs / "model.json"),
                       "--spec", str(run.inputs / "spec.json"), "--out", str(out))
        run.check("sweep.exit", code == 0, f"exit code {code}")
        rows = {}
        if out.is_file():
            with open(out, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    rows[(float(row["lambda"]), float(row["target_value"]))] = row
        for lam in self.lambdas:
            for tv in self.targets:
                problem = sweep_row_problem(rows.get((float(lam), float(tv))), self.n_max)
                if run.check(f"sweep.point[{lam:g},{tv:g}]", problem is None, problem or ""):
                    run.points += 1


@dataclass(frozen=True)
class Predict:
    """``predict`` at a single point."""

    n_max: int
    arrival_rate: float
    target: float
    profile_duration_s: float = 900.0

    outputs = ("predict.json",)

    def prepare(self, inputs: Path, seed: int) -> None:
        _reference_bundle(inputs, self.profile_duration_s)
        _write_json(inputs / "autoscaler.json", {
            "metric_kind": METRIC, "target_value": self.target, "n_max": self.n_max})

    def run(self, run: Run) -> None:
        out = run.outdir / "predict.json"
        code = run.cli("predict", "--model", str(run.inputs / "model.json"),
                       "--config", str(run.inputs / "autoscaler.json"),
                       "--arrival-rate", repr(float(self.arrival_rate)), "--out", str(out))
        run.check("predict.exit", code == 0, f"exit code {code}")
        if not out.is_file():
            run.check("predict.output", False, "no output written")
            return
        problems = report_problems(json.loads(out.read_text(encoding="utf-8")), self.n_max)
        if run.check("predict.output", not problems, "; ".join(problems)):
            run.points += 1


@dataclass(frozen=True)
class ProfileCompare:
    """The validation flow: profile, write the trace, fit, then compare."""

    n_max: int
    arrival_rate: float
    target: float
    duration_s: float
    warmup_s: float
    seeds: int
    profile_duration_s: float = 900.0

    outputs = ("trace.csv", "model.json", "compare.json")

    def prepare(self, inputs: Path, seed: int) -> None:
        _write_json(inputs / "sim.json", {
            "autoscaler": {"metric_kind": METRIC, "target_value": self.target,
                           "n_max": self.n_max},
            "workload": {"kind": "infinite_server", "mean_service_s": SERVICE_MEAN_S},
            "arrival_rate": self.arrival_rate, "duration_s": self.duration_s,
            "warmup_s": self.warmup_s, "seed": sim_seed(seed)})

    def run(self, run: Run) -> None:
        from replicast import config, simulator
        workload = simulator.WorkloadModel(kind=simulator.WORKLOAD_INFINITE_SERVER,
                                           mean_s=SERVICE_MEAN_S)
        trace = run.call("profile_trace", simulator.profile_trace, workload, PROFILE_RATES,
                         metric_kind=METRIC, duration_s=self.profile_duration_s,
                         warmup_s=PROFILE_WARMUP_S, seed=profile_seed(run.seed))
        rows = len(PROFILE_RATES) * int(self.profile_duration_s - PROFILE_WARMUP_S)
        got = None if trace is None else len(trace)
        run.check("profile.rows", got == rows, f"{got} trace rows, expected {rows}")
        trace_csv, model, out = (run.outdir / name for name in self.outputs)
        if trace is not None:
            run.call("write_trace", config.write_trace, trace, trace_csv)
        code = run.cli("fit", "--trace", str(trace_csv), "--metric", METRIC, "--out", str(model))
        run.check("fit.exit", code == 0, f"exit code {code}")
        code = run.cli("compare", "--model", str(model), "--sim-config",
                       str(run.inputs / "sim.json"), "--seeds", str(self.seeds),
                       "--out", str(out))
        # Exit code 3 is a verdict (beyond tolerance), not a failure.
        run.check("compare.exit", code in (0, 3), f"exit code {code}")
        errors = []
        if out.is_file():
            errors = list(json.loads(out.read_text(encoding="utf-8"))
                          .get("relative_errors", {}).values())
        if run.check("compare.output",
                     len(errors) == 3 and all(isinstance(e, float) and math.isfinite(e)
                                              for e in errors),
                     f"relative errors {errors!r}"):
            run.points += 1
            run.max_rel_error = max(errors)
        run.check("simulate.calls", len(run.tracer.simulations) == len(PROFILE_RATES) + self.seeds,
                  f"{len(run.tracer.simulations)} simulate calls")
        run.check_simulations()


KINDS = {cls.__name__: cls for cls in (Sweep, Predict, ProfileCompare)}

# Why each workload was chosen is recorded in BENCHMARK.json.  The sweep
# runs at n_max 21, the smallest chain (441 states) past the direct
# solver's 400-state limit, so that a run holds several sweeps: at n_max 30
# one sweep takes 30 to 60 s, and its time swings by a third from run to
# run as the pool threads' power iterations wait for the interpreter lock
# behind each other's vertical loops.
WORKLOADS = {
    "sweep-n21": Sweep(n_max=21, lambdas=(30, 60, 120), targets=(2, 5, 10)),
    "predict-n50": Predict(n_max=50, arrival_rate=200.0, target=2.0),
    "profile-compare": ProfileCompare(n_max=10, arrival_rate=35.0, target=2.0,
                                      duration_s=3600.0, warmup_s=300.0, seeds=2),
}


def to_spec(workload) -> dict:
    return {"kind": type(workload).__name__, "params": asdict(workload)}


def from_spec(spec: dict):
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["params"].items()}
    return KINDS[spec["kind"]](**params)
