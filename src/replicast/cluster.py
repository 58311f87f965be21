"""The two-dimensional Markov chain over (ordered count, ready count).

Each evaluation period the autoscaler picks a new ordered count (the
horizontal coordinate, driven by the metric model summed over the ready
containers) while the platform provisions or removes containers toward
the last order (the vertical coordinate, a birth-death process observed
at evaluation instants).
The two moves are independent given the current state, so each row of
the chain's transition matrix is an outer product of a horizontal vector
and a vertical row.  The stationary distribution of this chain carries
all steady-state answers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, identity, vstack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .config import AutoscalerConfig
from .errors import NonErgodicError, NumericalError, ValidationError
from .evaluator import order_probabilities
from .metric_model import GaussianDist, MetricModel, observed_value_distribution

_TRUNCATE_BELOW = 1e-15


def _check_target(i_target: int, n_max: int) -> int:
    if not (isinstance(i_target, (int, np.integer)) and not isinstance(i_target, bool)):
        raise ValidationError(f"target ready count must be an integer, got {i_target!r}")
    i_target = int(i_target)
    if not 1 <= i_target <= n_max:
        raise ValidationError(f"target ready count must be in [1, {n_max}], got {i_target}")
    return i_target


def build_rate_matrix(i_target: int, cfg: AutoscalerConfig) -> np.ndarray:
    """Generator of the provisioning process while the order is i_target.

    States are ready counts 1..n_max.  Below target, the (i_target - j)
    pending containers provision in parallel at mu_pro each; above
    target, the (j - i_target) surplus containers drain at mu_dep each.
    The target itself is absorbing.
    """
    i_target = _check_target(i_target, cfg.n_max)
    n = cfg.n_max
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


def _binomial_rows(k_max: int, success: float, failure: float) -> np.ndarray:
    """Row k holds the Binomial(k, success) pmf over 0..k, by Pascal's rule.

    failure is passed separately from success so that neither is formed
    as 1 - the other, which would cancel when one of them is tiny.
    """
    rows = np.zeros((k_max + 1, k_max + 1), dtype=np.float64)
    rows[0, 0] = 1.0
    for k in range(1, k_max + 1):
        rows[k, :k] = failure * rows[k - 1, :k]
        rows[k, 1:k + 1] += success * rows[k - 1, :k]
    return rows


def vertical_transition_probs(i_target: int, cfg: AutoscalerConfig) -> np.ndarray:
    """Matrix of P[ready j -> j'] over one evaluation period at order i_target.

    This is exp(Q t_eva) for Q = build_rate_matrix(i_target, cfg), in
    closed form.  The rates are linear in the deficit, so every pending
    container provisions, and every surplus container drains,
    independently of the others.  Over one period the number that become
    ready from j < i_target is Binomial(i_target - j, 1 - e^(-mu_pro t)),
    and the number still draining from j > i_target is
    Binomial(j - i_target, e^(-mu_dep t)).
    """
    i_target = _check_target(i_target, cfg.n_max)
    n, t = cfg.n_max, cfg.t_eva_s
    arrive = _binomial_rows(i_target - 1, -math.expm1(-cfg.mu_pro * t),
                            math.exp(-cfg.mu_pro * t))
    stay = _binomial_rows(n - i_target, math.exp(-cfg.mu_dep * t),
                          -math.expm1(-cfg.mu_dep * t))
    out = np.zeros((n, n), dtype=np.float64)
    for j in range(1, i_target):
        out[j - 1, j - 1:i_target] = arrive[i_target - j, :i_target - j + 1]
    out[i_target - 1, i_target - 1] = 1.0
    for j in range(i_target + 1, n + 1):
        out[j - 1, i_target - 1:j] = stay[j - i_target, :j - i_target + 1]
    return out


def horizontal_transition_probs(j: int, arrival_rate: float, model: MetricModel,
                                cfg: AutoscalerConfig) -> np.ndarray:
    """Probability vector over next ordered counts, given j ready containers.

    Independent of the current order: every evaluation redecides from the
    windowed metric alone.  As in Knative's KPA, the evaluator divides the
    aggregate over the j ready containers by the per-container target.
    The aggregate is taken as the sum of j independent per-container
    windows, each following the fitted law at rate arrival_rate / j, so
    it is N(j * mean, sqrt(j) * std).
    """
    j = _check_target(j, cfg.n_max)
    if not (isinstance(arrival_rate, (int, float)) and math.isfinite(arrival_rate)
            and arrival_rate > 0):
        raise ValidationError(f"arrival_rate must be finite and > 0, got {arrival_rate!r}")
    per_container = observed_value_distribution(model, arrival_rate / j)
    aggregate = GaussianDist(j * per_container.mean, math.sqrt(j) * per_container.std)
    return order_probabilities(aggregate, cfg.target_value, cfg.n_max).probs.copy()


def _check_stochastic(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} entries must be finite and >= 0")
    row_err = float(np.max(np.abs(arr.sum(axis=-1) - 1.0)))
    if row_err > 1e-10:
        raise ValidationError(f"{name} rows must sum to 1 (max error {row_err:.3e})")


def _assemble(horizontal: np.ndarray, vertical: np.ndarray) -> csr_matrix:
    """Sparse P[(i,j),(i',j')] = h[j,i'] * V[i,j,j'], truncated and renormalised.

    Products below _TRUNCATE_BELOW are dropped and each row rescaled to
    sum to one.  Only factor entries at or above the threshold can give
    a product above it, since both factors are probabilities, so the
    outer products per ready count j run over those entries alone.
    """
    n = horizontal.shape[0]
    rows, cols, vals = [], [], []
    for j in range(n):
        # int32 state indices are what scipy stores for n_max^2 < 2^31, so
        # the index arrays reach the CSR matrix without an int64 copy
        orders = np.flatnonzero(horizontal[j] >= _TRUNCATE_BELOW).astype(np.int32)
        i, jp = (a.astype(np.int32) for a in np.nonzero(vertical[:, j, :] >= _TRUNCATE_BELOW))
        prod = np.multiply.outer(vertical[i, j, jp], horizontal[j, orders])
        keep = prod >= _TRUNCATE_BELOW
        rows.append(np.broadcast_to((i * n + j)[:, None], prod.shape)[keep])
        cols.append((orders[None, :] * n + jp[:, None])[keep])
        vals.append(prod[keep])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    vals /= np.bincount(rows, weights=vals, minlength=n * n)[rows]
    return csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


@dataclass(frozen=True)
class ClusterChain:
    """DTMC over states s(i, j) = (i-1)*n_max + (j-1), made from its factors.

    The row of state (i, j) is the outer product of the order vector
    horizontal[j-1] and the vertical row vertical[i-1, j-1].  The factors
    are checked once and frozen (copied first, except when build_chain
    hands over arrays it has just built and owns, _owned); the sparse
    transition matrix is assembled from them once.
    """

    n_max: int
    arrival_rate: float
    horizontal: np.ndarray  # [j-1, i'-1]
    vertical: np.ndarray    # [i-1, j-1, j'-1]
    _owned: InitVar[bool] = False
    sparse_matrix: csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self, _owned):
        n = self.n_max
        for name, shape in (("horizontal", (n, n)), ("vertical", (n, n, n))):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            _check_stochastic(name, arr, shape)
            if not _owned:
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        p = _assemble(self.horizontal, self.vertical)
        for arr in (p.data, p.indices, p.indptr):
            arr.flags.writeable = False
        object.__setattr__(self, "sparse_matrix", p)

    @property
    def transition_matrix(self) -> np.ndarray:
        """The dense n_max^2 x n_max^2 matrix, built on each access."""
        p = self.sparse_matrix.toarray()
        p.flags.writeable = False
        return p

    @property
    def n_states(self) -> int:
        return self.n_max * self.n_max

    def state_index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n_max and 1 <= j <= self.n_max):
            raise ValidationError(f"state ({i}, {j}) out of range for n_max={self.n_max}")
        return (i - 1) * self.n_max + (j - 1)

    def state_of(self, s: int) -> tuple:
        if not 0 <= s < self.n_states:
            raise ValidationError(f"state index {s} out of range")
        return s // self.n_max + 1, s % self.n_max + 1


def build_chain(arrival_rate: float, model: MetricModel, cfg: AutoscalerConfig) -> ClusterChain:
    """The chain at arrival_rate, from its n_max horizontal vectors and
    n_max vertical matrices, each computed once."""
    n = cfg.n_max
    horizontal = np.empty((n, n), dtype=np.float64)
    for j in range(1, n + 1):
        horizontal[j - 1] = horizontal_transition_probs(j, arrival_rate, model, cfg)
    vertical = np.empty((n, n, n), dtype=np.float64)
    for i in range(1, n + 1):
        vertical[i - 1] = vertical_transition_probs(i, cfg)
    return ClusterChain(n_max=n, arrival_rate=float(arrival_rate), horizontal=horizontal,
                        vertical=vertical, _owned=True)


def _recurrence_structure(graph: csr_matrix):
    """Strongly connected components split into recurrent and transient."""
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    has_exit = np.zeros(n_comp, dtype=bool)
    edges = graph.tocoo()
    leaving = labels[edges.row] != labels[edges.col]
    has_exit[labels[edges.row[leaving]]] = True
    recurrent = [np.flatnonzero(labels == c) for c in range(n_comp) if not has_exit[c]]
    transient = np.flatnonzero(has_exit[labels])
    return recurrent, transient


def _solve_single_class(graph: csr_matrix, state_name) -> tuple:
    """Stationary vector of a checked row-stochastic sparse matrix, and its
    transient count.

    graph stores no zeros and no negative entries.  The transition graph
    is analysed once.  More than one recurrent class raises
    NonErgodicError, listing each class through state_name; transient
    states get zero mass.  On the single recurrent class R the balance
    system (P_RR^T - I) pi = 0, with its first equation replaced by
    sum(pi) = 1, is solved by sparse LU.
    """
    m = graph.shape[0]
    recurrent, transient = _recurrence_structure(graph)
    if len(recurrent) > 1:
        classes = [[state_name(s) for s in cls.tolist()] for cls in recurrent]
        raise NonErgodicError(
            f"chain has {len(classes)} recurrent classes {classes}; "
            "stationary distribution is not unique", recurrent_classes=classes)

    states = recurrent[0]
    r = states.size
    balance = graph[states][:, states].T - identity(r, format="csr")
    a = vstack([np.ones((1, r)), balance[1:]], format="csc")
    b = np.zeros(r)
    b[0] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            x = spsolve(a, b)
    except MatrixRankWarning as exc:
        raise NumericalError(f"stationary solve failed on the {r}-state recurrent class: "
                             f"{exc}") from exc
    pi = np.zeros(m)
    pi[states] = np.where(x < 0.0, 0.0, x)
    total = float(pi.sum())
    if not math.isfinite(total) or total <= 0:
        raise NumericalError("stationary solve produced a degenerate vector")
    pi /= total
    residual = float(np.max(np.abs(graph.T @ pi - pi)))
    if not residual <= 1e-10:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return pi, int(transient.size)


def solve_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix.

    Entries down to -1e-14 are taken as rounding noise and read as zero.
    Multiple recurrent classes make the stationary vector non-unique and
    raise NonErgodicError; transient states get zero mass.  A singular,
    degenerate or inaccurate solve (residual above 1e-10) raises
    NumericalError.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {p.shape}")
    if np.any(p < -1e-14) or not np.all(np.isfinite(p)):
        raise ValidationError("transition matrix entries must be finite and >= -1e-14")
    row_err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if row_err > 1e-9:
        raise ValidationError(f"rows must sum to 1 (max error {row_err:.3e})")
    # Sparse form with rounding noise below zero clamped; it stays
    # O(nonzeros) instead of copying the dense matrix.
    graph = csr_matrix(p)
    np.maximum(graph.data, 0.0, out=graph.data)
    graph.eliminate_zeros()
    pi, _ = _solve_single_class(graph, int)
    return pi


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary mass per chain state plus the ready-count marginal."""

    pi: np.ndarray
    marginal_ready: np.ndarray
    n_transient: int

    def __post_init__(self):
        for name in ("pi", "marginal_ready"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def recurrent_states(self) -> int:
        """Size of the single recurrent class: every state not transient."""
        return self.pi.size - self.n_transient


def stationary_distribution(chain: ClusterChain) -> StationaryDistribution:
    """Solve the chain; non-unique answers name their (order, ready) states."""
    pi, n_transient = _solve_single_class(chain.sparse_matrix, chain.state_of)
    marginal = pi.reshape(chain.n_max, chain.n_max).sum(axis=0)
    return StationaryDistribution(pi=pi, marginal_ready=marginal, n_transient=n_transient)
