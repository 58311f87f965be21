"""Gaussian model of the autoscaler's observed metric.

The stable-window average of one container's metric (the autoscaler
reacts to its sum over the ready containers) is a mean of many
per-second samples, so at a fixed per-container rate it is well described
by a normal distribution.  Its mean grows with the per-container rate rho
as a quadratic through the origin (no traffic, no metric), and its spread
grows roughly linearly with rho.  Both are fitted from a profiling trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import METRIC_KINDS, ProfilingTrace, _check_keys, _finite_number
from .errors import FitRejectedError, InsufficientDataError, ValidationError

# Degenerate (noise-free) traces would otherwise produce a zero-width
# Gaussian; the floor keeps every CDF well defined.
STD_FLOOR = 1e-6

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Bin count for the spread fit; traces shorter than 2 rows per bin fall
# back to a single pooled estimate.
_STD_BINS = 5


@dataclass(frozen=True)
class GaussianDist:
    mean: float
    std: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValidationError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.std) and self.std >= STD_FLOOR):
            raise ValidationError(f"std must be >= {STD_FLOOR}, got {self.std!r}")

    def cdf(self, x: float) -> float:
        # erfc keeps absolute error ~1e-15 even deep in the tails, where
        # 0.5*(1+erf) would lose all precision.
        return 0.5 * math.erfc((self.mean - x) / (self.std * _SQRT2))


def mean_of_positive_part(dist: GaussianDist) -> float:
    """E[max(X, 0)] for X ~ dist, in closed form.

    mu*Phi(mu/sigma) + sigma*phi(mu/sigma); always >= max(mean, 0) and
    approaches the mean from above as mean/std grows.
    """
    z = dist.mean / dist.std
    phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z) if abs(z) < 40.0 else 0.0
    big_phi = 0.5 * math.erfc(-z / _SQRT2)
    return dist.mean * big_phi + dist.std * phi


def _check_coefficients(model, what: str) -> None:
    """Store every numeric field of a fitted model as a finite float; rho_max > 0."""
    for f in fields(model):
        if f.name != "metric_kind":
            value = _finite_number(getattr(model, f.name), f"{what} {f.name}")
            object.__setattr__(model, f.name, value)
    if not model.rho_max > 0:
        raise ValidationError(f"{what} rho_max must be > 0, got {model.rho_max!r}")


def _check_blocks(data, what: str, scalars: tuple, blocks: dict) -> None:
    """Require a fitted model's JSON object: exactly the keys scalars and
    blocks, each block an object with exactly the keys it maps to."""
    _check_keys(data, what, (*scalars, *blocks), (*scalars, *blocks))
    for name, keys in blocks.items():
        _check_keys(data[name], f"{what} {name}", keys, keys)


@dataclass(frozen=True)
class MetricModel:
    """Fitted map from per-container rate to the observed-metric Gaussian."""

    metric_kind: str
    mean_linear: float
    mean_quadratic: float
    std_intercept: float
    std_slope: float
    rho_max: float
    fit_mse: float
    fit_r2: float

    def __post_init__(self):
        if self.metric_kind not in METRIC_KINDS:
            raise ValidationError(f"metric_kind must be one of {METRIC_KINDS}, got {self.metric_kind!r}")
        _check_coefficients(self, "metric model")

    def mean_at(self, rho: float) -> float:
        return self.mean_linear * rho + self.mean_quadratic * rho * rho

    def std_at(self, rho: float) -> float:
        return max(self.std_intercept + self.std_slope * rho, STD_FLOOR)

    def to_dict(self) -> dict:
        return {
            "metric_kind": self.metric_kind,
            "mean_coefficients": {"linear": self.mean_linear, "quadratic": self.mean_quadratic},
            "std_coefficients": {"intercept": self.std_intercept, "slope": self.std_slope},
            "rho_max": self.rho_max,
            "diagnostics": {"mse": self.fit_mse, "r2": self.fit_r2},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricModel":
        _check_blocks(data, "metric model", ("metric_kind", "rho_max"), {
            "mean_coefficients": ("linear", "quadratic"),
            "std_coefficients": ("intercept", "slope"),
            "diagnostics": ("mse", "r2")})
        return cls(
            metric_kind=data["metric_kind"],
            mean_linear=data["mean_coefficients"]["linear"],
            mean_quadratic=data["mean_coefficients"]["quadratic"],
            std_intercept=data["std_coefficients"]["intercept"],
            std_slope=data["std_coefficients"]["slope"],
            rho_max=data["rho_max"],
            fit_mse=data["diagnostics"]["mse"],
            fit_r2=data["diagnostics"]["r2"],
        )


def observed_value_distribution(model: MetricModel, rho: float) -> GaussianDist:
    """Distribution of the windowed metric at per-container rate rho.

    rho beyond model.rho_max is evaluated anyway (the map is smooth);
    callers that care flag extrapolation in their own diagnostics.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValidationError(f"rho must be finite and >= 0, got {rho!r}")
    if rho == 0.0:
        # No traffic means a degenerate metric: exactly zero, not the
        # fitted spread intercept.
        return GaussianDist(0.0, STD_FLOOR)
    return GaussianDist(model.mean_at(rho), model.std_at(rho))


def _solve_normal_equations(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    gram = design.T @ design
    rhs = design.T @ y
    # Relative determinant guard: a rank-deficient design (e.g. only one
    # informative abscissa) must raise, not return garbage.
    scale = float(np.sqrt(np.prod(np.diag(gram)))) if np.all(np.diag(gram) > 0) else 0.0
    det = float(np.linalg.det(gram))
    if scale == 0.0 or abs(det) < 1e-10 * scale:
        raise InsufficientDataError(
            "design matrix is rank deficient; trace needs more distinct positive rates")
    return np.linalg.solve(gram, rhs)


# A fitted term survives only if its t-statistic clears this bar.  High
# enough that pure noise is kept ~never (p < 1e-4), low enough that any
# real trend in a few hundred rows sails through.
_T_KEEP = 4.0


def fit_polynomial_terms(design: np.ndarray, y: np.ndarray, n_forced: int) -> np.ndarray:
    """Least squares over nested prefixes of the design columns.

    Columns are added left to right; the first n_forced always stay, and
    each further column is kept only while statistically significant.
    Predictions made beyond the fitted range are linear in the trailing
    coefficients, so a noise-only term that is harmless inside the range
    can dominate an extrapolated value; pruning it keeps what-if queries
    at unprofiled rates sane.  Returns the full-length coefficient vector
    with dropped terms at exactly 0.
    """
    n, k = design.shape
    y_scale = max(1.0, float(np.max(np.abs(y)))) if n else 1.0
    coef_out = np.zeros(k)

    def fit_prefix(p):
        sub = design[:, :p]
        coef = _solve_normal_equations(sub, y)
        resid = y - sub @ coef
        return coef, float(resid @ resid)

    coef, ssr = fit_prefix(n_forced)
    kept = n_forced
    for p in range(n_forced + 1, k + 1):
        cand, cand_ssr = fit_prefix(p)
        dof = n - p
        if dof > 0:
            sigma2 = cand_ssr / dof
            sub = design[:, :p]
            cov_last = float(np.linalg.inv(sub.T @ sub)[p - 1, p - 1])
            se = math.sqrt(max(sigma2 * cov_last, 0.0))
            significant = abs(cand[p - 1]) > _T_KEEP * se + 1e-12 * y_scale
        else:
            # Exact-fit regime: the term is kept only if the smaller
            # model demonstrably cannot explain the data.
            significant = ssr > n * (1e-12 * y_scale) ** 2
        if not significant:
            break
        coef, ssr = cand, cand_ssr
        kept = p
    coef_out[:kept] = coef
    return coef_out


def fit_quality(y: np.ndarray, fitted: np.ndarray) -> tuple:
    """(mse, r2) of a fit.  With constant y, r2 is 1 for an exact fit, else 0."""
    residuals = y - fitted
    mse = float(np.mean(residuals ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(residuals ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-12 * max(1.0, float(np.sum(y ** 2))) else 0.0
    return mse, r2


def _fit_quadratic_through_origin(rates: np.ndarray, y: np.ndarray, rho_max: float):
    u = rates / rho_max
    design = np.column_stack([u, u * u])
    coef = fit_polynomial_terms(design, y, n_forced=1)
    mse, r2 = fit_quality(y, design @ coef)
    return coef[0] / rho_max, coef[1] / (rho_max * rho_max), mse, r2


def quadratic_min_on_interval(c0: float, c1: float, c2: float, hi: float) -> tuple:
    """(x, value) of the minimum of c0 + c1*x + c2*x^2 over [0, hi].

    The minimum sits at an endpoint or, for an upward parabola, at the
    interior vertex.
    """
    candidates = [(0.0, c0), (hi, c0 + c1 * hi + c2 * hi * hi)]
    if c2 > 0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < hi:
            candidates.append((vertex, c0 + c1 * vertex + c2 * vertex * vertex))
    return min(candidates, key=lambda c: c[1])


def _check_mean_nonnegative(a1: float, a2: float, rho_max: float, y_scale: float) -> None:
    tol = 1e-12 * max(1.0, y_scale)
    worst_rho, worst_val = quadratic_min_on_interval(0.0, a1, a2, rho_max)
    if worst_val < -tol:
        raise FitRejectedError(
            f"fitted mean is negative at rho={worst_rho:.6g} "
            f"(value {worst_val:.6g}); trace does not support a physical fit")


def _fit_std(rates: np.ndarray, y: np.ndarray, mean_fn) -> tuple:
    n = len(rates)
    order = np.argsort(rates, kind="stable")
    if n >= 2 * _STD_BINS:
        centers = []
        spreads = []
        for chunk in np.array_split(order, _STD_BINS):
            centers.append(float(rates[chunk].mean()))
            spreads.append(float(np.std(y[chunk], ddof=1)))
        slope, intercept = np.polyfit(np.asarray(centers), np.asarray(spreads), 1)
        return float(intercept), float(slope)
    # Too few rows for binning: pool the scatter around the fitted mean.
    if n >= 2:
        resid = y - np.array([mean_fn(r) for r in rates])
        pooled = float(np.sqrt(np.sum(resid ** 2) / (n - 1)))
    else:
        pooled = 0.0
    return max(pooled, STD_FLOOR), 0.0


def fit_metric_model(trace: ProfilingTrace, metric_kind: str) -> MetricModel:
    """Fit the Gaussian metric map from a profiling trace.

    The mean is a quadratic through the origin in per-container rate,
    solved by normal equations after scaling rates into [0, 1] for
    conditioning.  The spread is a line fitted to per-bin sample standard
    deviations over five equal-count rate bins (pooled when the trace is
    short).  A fitted mean that dips negative anywhere on [0, rho_max]
    is rejected outright.
    """
    if metric_kind not in METRIC_KINDS:
        raise ValidationError(f"metric_kind must be one of {METRIC_KINDS}, got {metric_kind!r}")
    if trace.n_distinct_rates < 2:
        raise InsufficientDataError(
            f"trace has {trace.n_distinct_rates} distinct per-container rate(s); need >= 2")
    rates = trace.rates
    y = trace.observed
    rho_max = float(rates.max())  # > 0: the rates are >= 0 and not all equal
    a1, a2, mse, r2 = _fit_quadratic_through_origin(rates, y, rho_max)
    y_scale = float(np.max(np.abs(y))) if len(y) else 1.0
    _check_mean_nonnegative(a1, a2, rho_max, y_scale)
    b0, b1 = _fit_std(rates, y, lambda r: a1 * r + a2 * r * r)
    return MetricModel(
        metric_kind=metric_kind,
        mean_linear=a1,
        mean_quadratic=a2,
        std_intercept=b0,
        std_slope=b1,
        rho_max=rho_max,
        fit_mse=mse,
        fit_r2=r2,
    )
