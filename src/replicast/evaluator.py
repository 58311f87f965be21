"""Distribution of the scale decision taken at one evaluation instant.

The autoscaler divides the aggregate windowed metric (summed over the
ready containers, as in Knative's KPA) by the per-container target,
takes the ceiling and clamps to [1, n_max].  With that aggregate
modeled as a Gaussian, the probability of each ordered count is a
difference of two normal CDF values; the first and last bins absorb the tails so the result
always sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metric_model import GaussianDist


@dataclass(frozen=True)
class OrderDistribution:
    """probs[k] is the probability the evaluator orders k+1 containers."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("order distribution must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("order distribution has non-finite entries")
        if np.any(arr < 0) or abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValidationError("order distribution entries must be >= 0 and sum to 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return int(self.probs.size)

    def mean(self) -> float:
        return float(np.dot(self.probs, np.arange(1, self.probs.size + 1)))


def order_probabilities(dist: GaussianDist, target_value: float, n_max: int) -> OrderDistribution:
    """P[ordered count = i] for i in 1..n_max under the given metric law."""
    return OrderDistribution(order_rows(np.array([dist.mean]), np.array([dist.std]),
                                        target_value, n_max)[0])


def order_rows(mean: np.ndarray, std: np.ndarray, target_value: float, n_max: int) -> np.ndarray:
    """Row r holds P[ordered count = i] for i in 1..n_max under the law
    N(mean[r], std[r]) of a checked GaussianDist.

    probs[0] = F(tv); probs[i] = F((i+1)tv) - F(i tv); the top bin takes
    the upper tail 1 - F((n_max-1) tv), which also covers every ceiling
    value the clamp would have pushed down to n_max.
    """
    if not (isinstance(n_max, (int, np.integer)) and not isinstance(n_max, bool)):
        raise ValidationError(f"n_max must be an integer, got {n_max!r}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if not (isinstance(target_value, (int, float)) and math.isfinite(target_value)
            and target_value > 0):
        raise ValidationError(f"target_value must be a finite number > 0, got {target_value!r}")
    if n_max == 1:
        return np.ones((mean.size, 1))
    # F(i tv) for i in 1..n_max-1: the erfc arguments in one numpy pass,
    # each the same correctly rounded operations as GaussianDist.cdf, and
    # math.erfc on each (numpy has none with its bits), so the values
    # match it bit for bit.
    z = (mean[:, None] - np.arange(1, n_max) * target_value) / (std[:, None] * math.sqrt(2.0))
    erfc = np.fromiter(map(math.erfc, z.flat), dtype=np.float64, count=z.size)
    # F(0 tv) taken as 0 and F(n_max tv) as 1, so that the differences
    # give every bin, the bottom and top ones included
    cdf = np.empty((mean.size, n_max + 1))
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    np.multiply(0.5, erfc.reshape(z.shape), out=cdf[:, 1:-1])
    probs = cdf[:, 1:] - cdf[:, :-1]
    # CDF differences can go epsilon-negative deep in a tail.
    np.clip(probs, 0.0, None, out=probs)
    total = probs.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(total) & (total > 0)):
        raise ValidationError("degenerate order distribution")
    probs /= total
    return probs
