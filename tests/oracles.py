"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test:
the matrix exponential is Taylor series with repeated squaring of the
provisioning process's rate matrix (the package uses the closed-form
binomial law), the stationary oracle is plain power iteration (the
package solves a linear system), the order-probability oracle is Monte
Carlo, the positive-part expectation is adaptive quadrature (the package
uses the closed form), and the chain's matrix is assembled densely over
all n_max^2 states, one Kronecker row per state (the package assembles a
sparse matrix on the closed set of states from the factors' nonzeros).
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from replicast.errors import ValidationError


def build_rate_matrix(i_target: int, cfg) -> np.ndarray:
    """Generator of the provisioning process while the order is i_target.

    States are ready counts 1..n_max.  Below target, the (i_target - j)
    pending containers provision in parallel at mu_pro each; above
    target, the (j - i_target) surplus containers drain at mu_dep each.
    The target itself is absorbing.
    """
    n = cfg.n_max
    if not 1 <= i_target <= n:
        raise ValidationError(f"target ready count must be in [1, {n}], got {i_target}")
    q = np.zeros((n, n), dtype=np.float64)
    for j in range(1, n + 1):
        if j < i_target:
            rate = (i_target - j) * cfg.mu_pro
            q[j - 1, j] = rate
            q[j - 1, j - 1] -= rate
        elif j > i_target:
            rate = (j - i_target) * cfg.mu_dep
            q[j - 1, j - 2] = rate
            q[j - 1, j - 1] -= rate
    return q


def taylor_expm(a: np.ndarray, t: float) -> np.ndarray:
    """exp(a*t) via scaling-and-squaring of a plain Taylor series."""
    m = np.asarray(a, dtype=float) * t
    n = m.shape[0]
    norm = float(np.max(np.abs(m).sum(axis=1)))
    s = max(0, int(math.ceil(math.log2(norm))) + 4) if norm > 0 else 0
    m = m / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ m / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(s):
        out = out @ out
    return out


def power_iteration_pi(p: np.ndarray, steps: int = 100_000) -> np.ndarray:
    """Stationary vector by brute-force repeated multiplication."""
    n = p.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(steps):
        v = v @ p
    return v / v.sum()


def mc_order_probs(mean: float, std: float, tv: float, n_max: int,
                   n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo of clamp(ceil(X/TV), 1, n_max), X ~ N(mean, std)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(mean, std, size=n_samples)
    orders = np.clip(np.ceil(x / tv), 1, n_max).astype(np.int64)
    counts = np.bincount(orders, minlength=n_max + 1)[1:]
    return counts / float(n_samples)


def quad_positive_mean(mean: float, std: float) -> float:
    """Integral of x * N(mean, std) density over [0, inf)."""
    norm = std * math.sqrt(2.0 * math.pi)

    def integrand(x):
        return x * math.exp(-0.5 * ((x - mean) / std) ** 2) / norm

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    return val


def random_stochastic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random row-stochastic matrix (strictly positive, ergodic)."""
    p = rng.uniform(0.01, 1.0, size=(n, n))
    return p / p.sum(axis=1, keepdims=True)


def dense_chain_matrix(horizontal: np.ndarray, vertical: np.ndarray,
                       truncate_below: float = 1e-15) -> np.ndarray:
    """Row (i, j) = kron(horizontal[j], vertical[i, j]), entries below
    truncate_below zeroed, each row rescaled to sum to one."""
    n = horizontal.shape[0]
    p = np.empty((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[i * n + j] = np.kron(horizontal[j], vertical[i, j])
    p[p < truncate_below] = 0.0
    return p / p.sum(axis=1, keepdims=True)


def recurrent_state_count(p: np.ndarray) -> int:
    """States in a closed strongly connected component of p's graph."""
    graph = csr_matrix(p > 0.0)
    _, labels = connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    leaves = np.unique(labels[rows[labels[rows] != labels[cols]]])
    return int(np.count_nonzero(~np.isin(labels, leaves)))
