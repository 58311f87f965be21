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
from .metric_model import (GaussianDist, MetricModel, _check_blocks, _check_coefficients,
                           fit_polynomial_terms, fit_quality, positive_part_means,
                           quadratic_min_on_interval)


@dataclass(frozen=True)
class ResponseTimeFunction:
    """Quadratic map from per-container rate to mean response time."""

    intercept: float
    linear: float
    quadratic: float
    rho_max: float
    fit_mse: float
    fit_r2: float

    def __post_init__(self):
        _check_coefficients(self, "response-time")
        if not self.intercept > 0:
            raise ValidationError(
                f"response-time intercept must be > 0 (base service time), got {self.intercept!r}")

    def at(self, rho: float) -> float:
        return self.intercept + self.linear * rho + self.quadratic * rho * rho

    def to_dict(self) -> dict:
        return {
            "coefficients": {"intercept": self.intercept, "linear": self.linear,
                             "quadratic": self.quadratic},
            "rho_max": self.rho_max,
            "diagnostics": {"mse": self.fit_mse, "r2": self.fit_r2},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResponseTimeFunction":
        _check_blocks(data, "response-time function", ("rho_max",), {
            "coefficients": ("intercept", "linear", "quadratic"),
            "diagnostics": ("mse", "r2")})
        return cls(
            intercept=data["coefficients"]["intercept"],
            linear=data["coefficients"]["linear"],
            quadratic=data["coefficients"]["quadratic"],
            rho_max=data["rho_max"],
            fit_mse=data["diagnostics"]["mse"],
            fit_r2=data["diagnostics"]["r2"],
        )


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
    rates = trace.rates
    y = trace.response_times
    rho_max = float(rates.max())  # > 0: the rates are >= 0 and not all equal
    u = rates / rho_max
    design = np.column_stack([np.ones_like(u), u, u * u])
    coef = fit_polynomial_terms(design, y, n_forced=1)
    mse, r2 = fit_quality(y, design @ coef)
    c0 = float(coef[0])
    c1 = float(coef[1]) / rho_max
    c2 = float(coef[2]) / (rho_max * rho_max)
    worst_rho, worst_val = quadratic_min_on_interval(c0, c1, c2, rho_max)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    if worst_val <= tol:
        raise FitRejectedError(
            f"fitted response time is non-positive at rho={worst_rho:.6g} "
            f"(value {worst_val:.6g}); trace does not support a physical fit")
    return ResponseTimeFunction(intercept=c0, linear=c1, quadratic=c2,
                                rho_max=rho_max, fit_mse=mse, fit_r2=r2)


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
    window_s: float
    requests_in_window: float
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
            "window_s": self.window_s,
            "requests_in_window": self.requests_in_window,
        }


def steady_state_report(stationary: StationaryDistribution, chain: ClusterChain,
                        model: MetricModel, rtf: ResponseTimeFunction,
                        window_s: float = 3600.0) -> SteadyStateReport:
    """Weight the per-ready-count table by the ready-count marginal.

    With j containers ready each sees rate lambda/j, whatever the order,
    so the response time, concurrency and extrapolation flag are
    evaluated once per j.  Ready counts whose per-container rate exceeds
    either fitted range are still evaluated (the fitted maps are smooth)
    but their combined stationary mass is reported so callers can judge
    how far the prediction leans on extrapolation.
    """
    lam = chain.arrival_rate
    _require(math.isfinite(window_s) and window_s > 0, f"window_s must be > 0, got {window_s!r}")
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
        window_s=float(window_s),
        requests_in_window=lam * float(window_s),
        stationary=stationary,
        ready_concurrency=conc,
        ready_response_time_s=rt,
        ready_extrapolated=extrapolated,
    )
