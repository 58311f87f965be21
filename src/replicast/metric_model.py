"""Gaussian model of the autoscaler's observed metric.

The stable-window average of one container's metric (the autoscaler
reacts to its sum over the ready containers) is a mean of many
per-second samples, so at a fixed per-container rate it is well described
by a normal distribution.  Its mean grows with the per-container rate rho
as a quadratic through the origin (no traffic, no metric), and its spread
grows roughly linearly with rho.  Both are fitted from a profiling trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .config import ProfilingTrace, _check_keys, _check_metric_kind, _finite_number
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


@np.errstate(over="ignore")
def positive_part_means(mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """E[max(X, 0)] for each X ~ N(mean[r], std[r]) of a checked
    GaussianDist, in closed form.

    mu*Phi(mu/sigma) + sigma*phi(mu/sigma); always >= max(mean, 0) and
    approaches the mean from above as mean/std grows.  exp and erfc are
    math's, one call per entry (numpy has neither with their bits), so
    each value is that of the scalar formula.
    """
    z = mean / std
    near = np.abs(z) < 40.0
    w = np.where(near, z, 0.0)
    phi = np.where(near, _INV_SQRT_2PI * _each(math.exp, -0.5 * w * w), 0.0)
    big_phi = 0.5 * _each(math.erfc, -z / _SQRT2)
    return mean * big_phi + std * phi


def _each(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


class FittedLaw:
    """Base of a fitted law in rho: its block layout drives its JSON
    codec and its number check.

    A subclass is a frozen dataclass that names its top-level JSON keys
    (each a field of the same name) in _SCALARS and its nested objects in
    _BLOCKS, block -> {key: field}.  rho_max and every field in a block
    must be a finite number, stored as a float; rho_max must be > 0.
    """

    _WHAT = ""
    _SCALARS = ()
    _BLOCKS = {}

    def __post_init__(self):
        numbers = {"rho_max", *(f for block in self._BLOCKS.values() for f in block.values())}
        for f in fields(self):
            if f.name in numbers:
                value = _finite_number(getattr(self, f.name), f"{self._WHAT} {f.name}")
                object.__setattr__(self, f.name, value)
        if not self.rho_max > 0:
            raise ValidationError(f"{self._WHAT} rho_max must be > 0, got {self.rho_max!r}")

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self._SCALARS}
        for name, block in self._BLOCKS.items():
            out[name] = {key: getattr(self, f) for key, f in block.items()}
        return out

    @classmethod
    def from_dict(cls, data):
        """Require exactly the layout's keys, each block an object with
        exactly its own keys."""
        keys = (*cls._SCALARS, *cls._BLOCKS)
        _check_keys(data, cls._WHAT, keys, keys)
        kwargs = {key: data[key] for key in cls._SCALARS}
        for name, block in cls._BLOCKS.items():
            _check_keys(data[name], f"{cls._WHAT} {name}", block, block)
            kwargs.update({f: data[name][key] for key, f in block.items()})
        return cls(**kwargs)


@dataclass(frozen=True)
class MetricModel(FittedLaw):
    """Fitted map from per-container rate to the observed-metric Gaussian."""

    metric_kind: str
    mean_linear: float
    mean_quadratic: float
    std_intercept: float
    std_slope: float
    rho_max: float
    fit_mse: float
    fit_r2: float

    _WHAT = "metric model"
    _SCALARS = ("metric_kind", "rho_max")
    _BLOCKS = {"mean_coefficients": {"linear": "mean_linear", "quadratic": "mean_quadratic"},
               "std_coefficients": {"intercept": "std_intercept", "slope": "std_slope"},
               "diagnostics": {"mse": "fit_mse", "r2": "fit_r2"}}

    def __post_init__(self):
        _check_metric_kind(self.metric_kind)
        super().__post_init__()

    def mean_at(self, rho):
        return self.mean_linear * rho + self.mean_quadratic * rho * rho

    def std_at(self, rho):
        # no traffic, no spread: at rho = 0 the floor, not the intercept
        spread = np.maximum(self.std_intercept + self.std_slope * rho, STD_FLOOR)
        return np.where(rho == 0.0, STD_FLOOR, spread)


def observed_value_distribution(model: MetricModel, rho: float) -> GaussianDist:
    """Distribution of the windowed metric at per-container rate rho.

    rho beyond model.rho_max is evaluated anyway (the map is smooth);
    callers that care flag extrapolation in their own diagnostics.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValidationError(f"rho must be finite and >= 0, got {rho!r}")
    return GaussianDist(model.mean_at(rho), float(model.std_at(rho)))


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


def fit_polynomial_terms(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares over nested prefixes of the design columns.

    Columns are added left to right; the first always stays, and each
    further column is kept only while statistically significant.
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

    coef, ssr = fit_prefix(1)
    kept = 1
    for p in range(2, k + 1):
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


class LawFit(NamedTuple):
    """A fitted law: its coefficients, one per fitted power of rho, the
    fit's range and quality, and the law's minimum over [0, rho_max]
    with the tolerance a sign check on it allows."""

    coefficients: tuple
    rho_max: float
    mse: float
    r2: float
    min_rho: float
    min_value: float
    tol: float


def fit_law(rates: np.ndarray, y: np.ndarray, powers: tuple) -> LawFit:
    """Least-squares fit of y to the terms rho**p, p in powers (0 to 2).

    Rates are scaled by rho_max into [0, 1] for conditioning; the first
    term always stays and each further one is kept while significant
    (fit_polynomial_terms).  With constant y, r2 is 1 for an exact fit,
    else 0.  The minimum of a law of degree 2 or less sits at an end of
    [0, rho_max] or, for an upward parabola, at the interior vertex.
    """
    rho_max = float(rates.max())  # > 0: the rates are >= 0 and not all equal
    u = rates / rho_max
    design = np.column_stack([u ** p for p in powers])
    coef = fit_polynomial_terms(design, y)
    residuals = y - design @ coef
    mse = float(np.mean(residuals ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(residuals ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-12 * max(1.0, float(np.sum(y ** 2))) else 0.0
    # rho_max**p as a product: pow(x, 2) is not always x * x to the bit
    coefficients = tuple(float(c) / math.prod([rho_max] * p) for p, c in zip(powers, coef))
    by_power = dict(zip(powers, coefficients))
    c0, c1, c2 = (by_power.get(p, 0.0) for p in range(3))
    candidates = [(0.0, c0), (rho_max, c0 + c1 * rho_max + c2 * rho_max * rho_max)]
    if c2 > 0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < rho_max:
            candidates.append((vertex, c0 + c1 * vertex + c2 * vertex * vertex))
    min_rho, min_value = min(candidates, key=lambda c: c[1])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    return LawFit(coefficients, rho_max, mse, r2, min_rho, min_value, tol)


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
    # A trace reaches here with two distinct rates, so n >= 2.
    resid = y - np.array([mean_fn(r) for r in rates])
    pooled = float(np.sqrt(np.sum(resid ** 2) / (n - 1)))
    return max(pooled, STD_FLOOR), 0.0


def fit_metric_model(trace: ProfilingTrace, metric_kind: str) -> MetricModel:
    """Fit the Gaussian metric map from a profiling trace.

    The mean is a quadratic through the origin in per-container rate
    (fit_law).  The spread is a line fitted to per-bin sample standard
    deviations over five equal-count rate bins (pooled when the trace is
    short).  A fitted mean that dips negative anywhere on [0, rho_max]
    is rejected outright.
    """
    _check_metric_kind(metric_kind)
    if trace.n_distinct_rates < 2:
        raise InsufficientDataError(
            f"trace has {trace.n_distinct_rates} distinct per-container rate(s); need >= 2")
    law = fit_law(trace.rates, trace.observed, (1, 2))
    if law.min_value < -law.tol:
        raise FitRejectedError(
            f"fitted mean is negative at rho={law.min_rho:.6g} "
            f"(value {law.min_value:.6g}); trace does not support a physical fit")
    a1, a2 = law.coefficients
    b0, b1 = _fit_std(trace.rates, trace.observed, lambda r: a1 * r + a2 * r * r)
    return MetricModel(metric_kind=metric_kind, mean_linear=a1, mean_quadratic=a2,
                       std_intercept=b0, std_slope=b1, rho_max=law.rho_max,
                       fit_mse=law.mse, fit_r2=law.r2)
