"""Steady-state deliverables: response time, replica count, concurrency.

The stationary distribution weights a per-ready-count table: in state
(i, j) the deployment serves the full arrival rate with j containers, so
each container sees rate lambda/j, responds in RTF(lambda/j) on average,
and carries the positive part of the fitted metric Gaussian at that rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ProfilingTrace, _require
from .cluster import ClusterChain, StationaryDistribution
from .errors import FitRejectedError, InsufficientDataError, ValidationError
from .metric_model import (FittedLaw, GaussianDist, MetricModel, fit_law,
                           positive_part_means)


@dataclass(frozen=True)
class ResponseTimeFunction(FittedLaw):
    """Quadratic map from per-container rate to mean response time."""

    intercept: float
    linear: float
    quadratic: float
    rho_max: float
    fit_mse: float
    fit_r2: float

    _WHAT = "response-time function"
    _SCALARS = ("rho_max",)
    _BLOCKS = {"coefficients": {"intercept": "intercept", "linear": "linear",
                                "quadratic": "quadratic"},
               "diagnostics": {"mse": "fit_mse", "r2": "fit_r2"}}

    def __post_init__(self):
        super().__post_init__()
        if not self.intercept > 0:
            raise ValidationError(
                f"response-time intercept must be > 0 (base service time), got {self.intercept!r}")

    def at(self, rho: float) -> float:
        return self.intercept + self.linear * rho + self.quadratic * rho * rho


def fit_rtf(trace: ProfilingTrace) -> ResponseTimeFunction:
    """Least-squares quadratic (with intercept) for mean response time.

    Needs three distinct per-container rates to identify three
    coefficients.  A fit that dips to zero or below anywhere on
    [0, rho_max] is rejected: response times are positive quantities and
    such a fit would poison every downstream average.
    """
    if trace.n_distinct_rates < 3:
        raise InsufficientDataError(
            f"trace has {trace.n_distinct_rates} distinct per-container rate(s); "
            "need >= 3 for a quadratic with intercept")
    law = fit_law(trace.rates, trace.response_times, (0, 1, 2))
    if law.min_value <= law.tol:
        raise FitRejectedError(
            f"fitted response time is non-positive at rho={law.min_rho:.6g} "
            f"(value {law.min_value:.6g}); trace does not support a physical fit")
    c0, c1, c2 = law.coefficients
    return ResponseTimeFunction(intercept=c0, linear=c1, quadratic=c2, rho_max=law.rho_max,
                                fit_mse=law.mse, fit_r2=law.r2)


@dataclass(frozen=True)
class SteadyStateReport:
    """The three headline predictions plus the values they average.

    Every per-state value but the probability depends on the ready count
    alone, so the report keeps one value per ready count (index j-1)
    beside the stationary distribution, which holds the probabilities.
    """

    arrival_rate: float
    avg_response_time_s: float
    avg_replica_count: float
    avg_concurrency: float
    extrapolated_mass: float
    stationary: StationaryDistribution
    ready_concurrency: np.ndarray
    ready_response_time_s: np.ndarray
    ready_extrapolated: np.ndarray

    def __post_init__(self):
        for name in ("ready_concurrency", "ready_response_time_s", "ready_extrapolated"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def marginal_ready(self) -> np.ndarray:
        return self.stationary.marginal_ready

    def to_dict(self) -> dict:
        return {
            "arrival_rate": self.arrival_rate,
            "avg_response_time_s": self.avg_response_time_s,
            "avg_replica_count": self.avg_replica_count,
            "avg_concurrency": self.avg_concurrency,
            "marginal_ready": self.marginal_ready.tolist(),
            "diagnostics": {
                "extrapolated_mass": self.extrapolated_mass,
                "n_transient": self.stationary.n_transient,
                "recurrent_states": self.stationary.recurrent_states,
                "closed_states": self.stationary.closed_states,
                "residual": self.stationary.residual,
            },
        }


def steady_state_report(stationary: StationaryDistribution, chain: ClusterChain,
                        model: MetricModel, rtf: ResponseTimeFunction) -> SteadyStateReport:
    """Weight the per-ready-count table by the ready-count marginal.

    With j containers ready each sees rate lambda/j, whatever the order,
    so the response time, concurrency and extrapolation flag are
    evaluated once per j.  Ready counts whose per-container rate exceeds
    either fitted range are still evaluated (the fitted maps are smooth)
    but their combined stationary mass is reported so callers can judge
    how far the prediction leans on extrapolation.
    """
    lam = chain.arrival_rate
    _require(math.isfinite(lam) and lam >= 0, f"arrival_rate must be finite and >= 0, got {lam!r}")
    fitted_reach = min(model.rho_max, rtf.rho_max)
    rho = lam / np.arange(1, chain.n_max + 1)
    rt = rtf.at(rho)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = model.mean_at(rho), model.std_at(rho)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        for m, s in zip(mean.tolist(), std.tolist()):
            GaussianDist(m, s)  # raises for the first law that is not one
    conc = positive_part_means(mean, std)
    extrapolated = rho > fitted_reach * (1.0 + 1e-12)
    marginal = stationary.marginal_ready
    return SteadyStateReport(
        arrival_rate=lam,
        avg_response_time_s=float(marginal @ rt),
        avg_replica_count=float(marginal @ np.arange(1.0, chain.n_max + 1)),
        avg_concurrency=float(marginal @ conc),
        extrapolated_mass=float(marginal[extrapolated].sum()),
        stationary=stationary,
        ready_concurrency=conc,
        ready_response_time_s=rt,
        ready_extrapolated=extrapolated,
    )
