"""Gaussian model of the autoscaler's observed metric.

The stable-window average of one container's metric (the autoscaler
reacts to its sum over the ready containers) is a mean of many
per-second samples, so at a fixed per-container rate it is well described
by a normal distribution.  Its mean and its variance are each a
quadratic through the origin in the per-container rate rho (no traffic,
no metric, no spread), and one least-squares fit (fit_law) finds both
from a profiling trace: the mean from the observed values, the variance
from their squared residuals around the fitted mean.  fit_law keeps the
terms of nested prefixes while each clears a t-test, and one tolerance
serves all of its rounding checks.
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
    var_linear: float
    var_quadratic: float
    rho_max: float
    fit_mse: float
    fit_r2: float

    _WHAT = "metric model"
    _SCALARS = ("metric_kind", "rho_max")
    _BLOCKS = {"mean_coefficients": {"linear": "mean_linear", "quadratic": "mean_quadratic"},
               "variance_coefficients": {"linear": "var_linear", "quadratic": "var_quadratic"},
               "diagnostics": {"mse": "fit_mse", "r2": "fit_r2"}}

    def __post_init__(self):
        _check_metric_kind(self.metric_kind)
        super().__post_init__()

    def mean_at(self, rho):
        return self.mean_linear * rho + self.mean_quadratic * rho * rho

    def std_at(self, rho):
        # a variance that dips below 0 is none; at rho = 0 the floor
        variance = self.var_linear * rho + self.var_quadratic * rho * rho
        return np.maximum(np.sqrt(np.maximum(variance, 0.0)), STD_FLOOR)


def observed_value_distribution(model: MetricModel, rho: float) -> GaussianDist:
    """Distribution of the windowed metric at per-container rate rho.

    rho beyond model.rho_max is evaluated anyway (the map is smooth);
    callers that care flag extrapolation in their own diagnostics.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValidationError(f"rho must be finite and >= 0, got {rho!r}")
    return GaussianDist(model.mean_at(rho), float(model.std_at(rho)))


# A fitted term survives only if its t-statistic clears this bar.  High
# enough that pure noise is kept ~never (p < 1e-4), low enough that any
# real trend in a few hundred rows sails through.
_T_KEEP = 4.0


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

    Rates are scaled by rho_max into [0, 1] for conditioning, and the
    normal equations are solved over nested prefixes of the terms: the
    first always stays, and each further one is kept only while its
    t-statistic clears _T_KEEP.  Predictions beyond the fitted range are
    linear in the trailing coefficients, so a noise-only term that is
    harmless inside the range can dominate an extrapolated value;
    pruning it keeps what-if queries at unprofiled rates sane.  Dropped
    terms read exactly 0.

    One tolerance, tol = 1e-12 * max(1, max|y|), serves every rounding
    check: it is a term's margin over the t bar, and n * tol**2 is a sum
    of n squared residuals that counts as 0.  y whose squared spread
    about its mean sums to no more counts as constant, with r2 1 for a
    fit as exact, else 0.  The minimum of a law of degree 2 or less sits
    at an end of [0, rho_max] or, for an upward parabola, at the
    interior vertex.
    """
    rho_max = float(rates.max())  # > 0: the rates are >= 0 and not all equal
    u = rates / rho_max
    design = np.column_stack([u ** p for p in powers])
    n, k = design.shape
    tol = 1e-12 * max(1.0, float(np.max(np.abs(y))))
    zero_ssr = n * tol ** 2
    coef = np.zeros(k)
    for p in range(1, k + 1):
        sub = design[:, :p]
        gram = sub.T @ sub
        # Relative determinant guard: a rank-deficient design (e.g. only
        # one informative abscissa) must raise, not return garbage.
        scale = float(np.sqrt(np.prod(np.diag(gram)))) if np.all(np.diag(gram) > 0) else 0.0
        if scale == 0.0 or abs(float(np.linalg.det(gram))) < 1e-10 * scale:
            raise InsufficientDataError(
                "design matrix is rank deficient; trace needs more distinct positive rates")
        cand = np.linalg.solve(gram, sub.T @ y)
        resid = y - sub @ cand
        cand_ssr = float(resid @ resid)
        if p > 1:
            if n > p:
                sigma2 = cand_ssr / (n - p)
                se = math.sqrt(max(sigma2 * float(np.linalg.inv(gram)[p - 1, p - 1]), 0.0))
                significant = abs(cand[p - 1]) > _T_KEEP * se + tol
            else:
                # Exact-fit regime: the term is kept only if the smaller
                # model demonstrably cannot explain the data.
                significant = ssr > zero_ssr
            if not significant:
                break
        coef[:p], ssr = cand, cand_ssr
    del resid  # not held beside the final residuals
    residuals = y - design @ coef
    mse = float(np.mean(residuals ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(residuals ** 2))
    if ss_tot > zero_ssr:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= zero_ssr else 0.0
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
    return LawFit(coefficients, rho_max, mse, r2, min_rho, min_value, tol)


def fit_metric_model(trace: ProfilingTrace, metric_kind: str) -> MetricModel:
    """Fit the Gaussian metric map from a profiling trace.

    The mean is a quadratic through the origin in per-container rate
    (fit_law), and so is the variance, fitted the same way to the
    squared residuals around the fitted mean.  A fitted mean that dips
    negative anywhere on [0, rho_max] is rejected outright; a variance
    that does reads 0 there (MetricModel.std_at).
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
    rates = trace.rates
    resid = trace.observed - (a1 * rates + a2 * rates * rates)
    v1, v2 = fit_law(rates, resid * resid, (1, 2)).coefficients
    return MetricModel(metric_kind=metric_kind, mean_linear=a1, mean_quadratic=a2,
                       var_linear=v1, var_quadratic=v2, rho_max=law.rho_max,
                       fit_mse=law.mse, fit_r2=law.r2)
