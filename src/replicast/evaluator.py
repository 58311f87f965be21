"""Distribution of the scale decision taken at one evaluation instant.

The autoscaler divides the aggregate windowed metric (summed over the
ready containers, as in Knative's KPA) by the per-container target,
takes the ceiling and clamps to [1, n_max].  With that aggregate
modeled as a Gaussian, the probability of each ordered count is a
difference of two normal CDF values; the first and last bins absorb the
tails so the result always sums to one.  ``order_probabilities`` returns
that law as a read-only vector of n_max probabilities, entry i-1 for an
order of i containers; ``order_rows`` computes one such row per law.
"""

from __future__ import annotations

import math

import numpy as np

from .config import _integer
from .errors import ValidationError
from .metric_model import GaussianDist


def order_probabilities(dist: GaussianDist, target_value: float, n_max: int) -> np.ndarray:
    """Read-only vector whose entry i-1 is P[ordered count = i], for i in
    1..n_max, under the given metric law."""
    probs = order_rows(np.array([dist.mean]), np.array([dist.std]), target_value, n_max)[0]
    probs.flags.writeable = False
    return probs


def order_rows(mean: np.ndarray, std: np.ndarray, target_value: float, n_max: int) -> np.ndarray:
    """Row r holds P[ordered count = i] for i in 1..n_max under the law
    N(mean[r], std[r]) of a checked GaussianDist.

    probs[0] = F(tv); probs[i] = F((i+1)tv) - F(i tv); the top bin takes
    the upper tail 1 - F((n_max-1) tv), which also covers every ceiling
    value the clamp would have pushed down to n_max.
    """
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if not (isinstance(target_value, (int, float)) and math.isfinite(target_value)
            and target_value > 0):
        raise ValidationError(f"target_value must be a finite number > 0, got {target_value!r}")
    # F(i tv) for i in 1..n_max-1: the erfc arguments in one numpy pass,
    # each the same correctly rounded operations as GaussianDist.cdf, and
    # math.erfc on each (numpy has none with its bits), so the values
    # match it bit for bit.
    # A degenerate law overflows z to inf or nan, which the check on the
    # row sums rejects, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
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
