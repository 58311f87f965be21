"""Discrete-event simulator of the autoscaled deployment.

Ground truth for validating the analytical pipeline, and the generator
of profiling traces.  The event loop itself lives in ``_kernels``; this
module owns configuration, result packaging and trace emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .config import (_DIST_DETERMINISTIC, _DIST_EXPONENTIAL, _WORKLOAD_KINDS,
                     METRIC_CONCURRENCY, WORKLOAD_INFINITE_SERVER, WORKLOAD_PROCESSOR_SHARING,
                     AutoscalerConfig, ProfilingTrace, _check_keys, _check_metric_kind,
                     _check_workload_kind, _finite_number, _integer, trace_from_arrays)
from .errors import ValidationError

_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF


def _mean_key(kind: str) -> str:
    """The JSON key of a workload kind's mean: a service time under
    infinite server, a total demand under processor sharing."""
    return "mean_service_s" if kind == WORKLOAD_INFINITE_SERVER else "mean_demand_s"


@dataclass(frozen=True)
class WorkloadModel:
    """Service model of one container.

    infinite_server: every in-flight request is served independently, no
    interference; exponential or deterministic service times.
    processor_sharing: the container's unit capacity is split evenly over
    in-flight jobs; exponential total demand only, where the memoryless
    property keeps the event loop exact without tracking remaining work.
    """

    kind: str
    mean_s: float
    distribution: str = _DIST_EXPONENTIAL

    def __post_init__(self):
        _check_workload_kind(self.kind)
        mean_s = _finite_number(self.mean_s, "workload mean")
        if mean_s <= 0:
            raise ValidationError(f"workload mean must be > 0, got {mean_s}")
        object.__setattr__(self, "mean_s", mean_s)
        if self.kind == WORKLOAD_INFINITE_SERVER:
            if self.distribution not in (_DIST_EXPONENTIAL, _DIST_DETERMINISTIC):
                raise ValidationError(
                    f"infinite_server distribution must be exponential or deterministic, "
                    f"got {self.distribution!r}")
        else:
            if self.distribution != _DIST_EXPONENTIAL:
                raise ValidationError(
                    f"processor_sharing supports only exponential demand, got {self.distribution!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, _mean_key(self.kind): self.mean_s,
                "distribution": self.distribution}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadModel":
        _check_keys(data, "workload", ("kind", *map(_mean_key, _WORKLOAD_KINDS), "distribution"),
                    ("kind",))
        kind = data["kind"]
        _check_workload_kind(kind)
        mean_key = _mean_key(kind)
        _check_keys(data, f"{kind} workload", ("kind", mean_key, "distribution"), (mean_key,))
        return cls(kind=kind, mean_s=data[mean_key],
                   distribution=data.get("distribution", _DIST_EXPONENTIAL))


@dataclass(frozen=True)
class SimulationConfig:
    autoscaler: AutoscalerConfig
    workload: WorkloadModel
    arrival_rate: float
    duration_s: float
    warmup_s: float = 300.0
    seed: int = 1
    initial_replicas: int = 1

    def __post_init__(self):
        if not isinstance(self.autoscaler, AutoscalerConfig):
            raise ValidationError("autoscaler must be an AutoscalerConfig")
        if not isinstance(self.workload, WorkloadModel):
            raise ValidationError("workload must be a WorkloadModel")
        for name in ("arrival_rate", "duration_s", "warmup_s"):
            object.__setattr__(self, name, _finite_number(getattr(self, name), name))
        if self.arrival_rate <= 0:
            raise ValidationError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.warmup_s < 0:
            raise ValidationError(f"warmup_s must be >= 0, got {self.warmup_s}")
        if self.duration_s <= self.warmup_s:
            raise ValidationError(
                f"duration_s ({self.duration_s}) must exceed warmup_s ({self.warmup_s})")
        # The monitor samples at whole seconds, so the run must contain
        # at least one sample after warmup to report anything.
        if math.floor(self.duration_s) < self.warmup_s + 1:
            raise ValidationError(
                "duration_s must cover at least one post-warmup monitoring second")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "initial_replicas",
                           _integer(self.initial_replicas, "initial_replicas"))
        if not 1 <= self.initial_replicas <= self.autoscaler.n_max:
            raise ValidationError(
                f"initial_replicas must be in [1, {self.autoscaler.n_max}], "
                f"got {self.initial_replicas}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "autoscaler": self.autoscaler.to_dict(),
                "workload": self.workload.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        _check_keys(data, "simulation config", [f.name for f in fields(cls)],
                    ("autoscaler", "workload", "arrival_rate", "duration_s"))
        kwargs = dict(data)
        kwargs["autoscaler"] = AutoscalerConfig.from_dict(data["autoscaler"])
        kwargs["workload"] = WorkloadModel.from_dict(data["workload"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SimulationReport:
    """Post-warmup averages plus the per-second series and trace.

    The series' metric and response-time columns are the trace's
    observed and response_times, row for row; times, ready_counts and
    carried hold the rest.  avg_response_time_s is None when no request
    completed after warmup.
    """

    config: SimulationConfig
    avg_replica_count: float
    avg_concurrency: float
    avg_response_time_s: float | None
    completed_requests: int
    arrivals_total: int
    completions_total: int
    in_flight_end: int
    times: np.ndarray
    ready_counts: np.ndarray
    carried: np.ndarray
    trace: ProfilingTrace

    def __post_init__(self):
        for name in ("times", "ready_counts", "carried"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def to_dict(self, include_series: bool = False) -> dict:
        out = {
            **self.config.to_dict(),
            "avg_replica_count": self.avg_replica_count,
            "avg_concurrency": self.avg_concurrency,
            "avg_response_time_s": self.avg_response_time_s,
            "completed_requests": self.completed_requests,
            "conservation": {
                "arrivals_total": self.arrivals_total,
                "completions_total": self.completions_total,
                "in_flight_end": self.in_flight_end,
            },
        }
        if include_series:
            out["series"] = {
                "t": self.times.tolist(),
                "ready_count": self.ready_counts.tolist(),
                "observed_value": self.trace.observed.tolist(),
                "mean_rt_s": self.trace.response_times.tolist(),
                "carried": self.carried.tolist(),
            }
        return out


def simulate(sim_cfg: SimulationConfig) -> SimulationReport:
    """Run one deterministic simulation.

    Identical config and seed produce identical reports, in process or in
    a fresh interpreter; events at equal timestamps fire departure first,
    then monitor, evaluation, provisioning, arrival.  Seeds are taken
    modulo 2**64, so ``seed`` and ``seed + 2**64`` give the same run.
    """
    # Independent substreams for arrivals, service, provisioning and
    # routing, so a change to one process does not perturb the others; the
    # first three are those of spawn(3).  Masking keeps every integer
    # seed valid: SeedSequence rejects negative ones.
    seeds = np.random.SeedSequence(sim_cfg.seed & _SEED_MASK).spawn(4)
    (tick_ready, tick_ov, tick_rt, tick_carried,
     area_replica, rt_sum_pw, completions_pw,
     arrivals, completions, in_flight) = _kernels.run_simulation(
        sim_cfg, *(np.random.default_rng(s) for s in seeds))

    times = np.arange(1, tick_ready.size + 1, dtype=np.float64)
    k = int(np.searchsorted(times, sim_cfg.warmup_s, "right"))
    times, ready, ov, rts, carried = (times[k:], tick_ready[k:], tick_ov[k:], tick_rt[k:],
                                      tick_carried[k:])

    span = sim_cfg.duration_s - sim_cfg.warmup_s
    avg_replicas = area_replica / span
    avg_conc = float(ov.mean())
    avg_rt = rt_sum_pw / completions_pw if completions_pw > 0 else None

    trace = trace_from_arrays(sim_cfg.arrival_rate / ready, ov, rts)
    return SimulationReport(
        config=sim_cfg,
        avg_replica_count=float(avg_replicas),
        avg_concurrency=avg_conc,
        avg_response_time_s=avg_rt,
        completed_requests=int(completions_pw),
        arrivals_total=int(arrivals),
        completions_total=int(completions),
        in_flight_end=int(in_flight),
        times=times,
        ready_counts=ready,
        carried=carried,
        trace=trace,
    )


def profile_trace(workload: WorkloadModel, arrival_rates, metric_kind: str = METRIC_CONCURRENCY,
                  duration_s: float = 900.0, warmup_s: float = 300.0,
                  seed: int = 20_000) -> ProfilingTrace:
    """Collect a fitting trace by sweeping single-container runs.

    Pinning n_max=1 makes the per-container rate equal each run's
    arrival rate, so a grid of arrival rates covers exactly the rho
    range the fits need.  Runs use consecutive seeds off the given base.
    """
    _check_metric_kind(metric_kind)
    rates = [float(r) for r in arrival_rates]
    if not rates:
        raise ValidationError("arrival_rates must be non-empty")
    traces = []
    for idx, lam in enumerate(rates):
        cfg = AutoscalerConfig(metric_kind=metric_kind, target_value=1.0, n_max=1)
        sim_cfg = SimulationConfig(
            autoscaler=cfg, workload=workload, arrival_rate=lam,
            duration_s=duration_s, warmup_s=warmup_s, seed=seed + idx)
        traces.append(simulate(sim_cfg).trace)
    return trace_from_arrays(*(np.concatenate([getattr(t, f.name) for t in traces])
                               for f in fields(ProfilingTrace)))
