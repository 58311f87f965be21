"""The two-dimensional Markov chain over (ordered count, ready count).

Each evaluation period the autoscaler picks a new ordered count (the
horizontal coordinate, driven by the metric model summed over the ready
containers) while the platform provisions or removes containers toward
the last order (the vertical coordinate, a birth-death process observed
at evaluation instants).
The two moves are independent given the current state, so each row of
the chain's transition matrix is an outer product of a horizontal vector
and a vertical row.  Nearly all of the n_max^2 states are transient, so
the chain is built and solved only on the closed set it can never leave,
kept as a flat list of its transitions.  The stationary distribution of
this chain carries all steady-state answers: its recurrent classes are
found by reachability over that list, and the single class is solved by
a dense LU of its balance system, which holds about 16 r^2 bytes for r
recurrent states.  numpy is the only dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import AutoscalerConfig, _integer
from .errors import (ConfigMismatchError, NonErgodicError, NumericalError,
                     ValidationError)
from .evaluator import order_probabilities, order_rows  # noqa: F401 (perfbench looks it up here)
from .metric_model import GaussianDist, MetricModel

_TRUNCATE_BELOW = 1e-15
# Candidate products that _assemble forms at once, which bounds the
# memory a large chain takes to build.
_ASSEMBLY_BATCH = 1 << 14


def _check_target(i_target: int, n_max: int) -> int:
    i_target = _integer(i_target, "target ready count")
    if not 1 <= i_target <= n_max:
        raise ValidationError(f"target ready count must be in [1, {n_max}], got {i_target}")
    return i_target


def _vertical_law(cfg: AutoscalerConfig) -> tuple:
    """The two binomial tables behind every vertical move, (arrive, stay).

    The provisioning rates are linear in the deficit, so every pending
    container provisions, and every surplus container drains,
    independently of the others.  Over one evaluation period, of k
    pending containers Binomial(k, 1 - e^(-mu_pro t)) become ready
    (arrive[k]), and of k surplus containers Binomial(k, e^(-mu_dep t))
    are still draining (stay[k]).  Both tables run over k < n_max, the
    largest gap between an order and a ready count.  One Pascal loop
    fills both; no chance is formed as 1 - the other, which would cancel.
    """
    return _binomial_tables(cfg.n_max, cfg.mu_pro, cfg.mu_dep, cfg.t_eva_s)


# The points of a sweep share one lifecycle, so the last tables serve the
# next chain; they are read-only, as every chain holds them.
@functools.lru_cache(maxsize=1)
def _binomial_tables(n: int, mu_pro: float, mu_dep: float, t: float) -> tuple:
    success = np.array([[-math.expm1(-mu_pro * t)], [math.exp(-mu_dep * t)]])
    failure = np.array([[math.exp(-mu_pro * t)], [-math.expm1(-mu_dep * t)]])
    tables = np.zeros((2, n, n), dtype=np.float64)
    tables[:, 0, 0] = 1.0
    for k in range(1, n):
        tables[:, k, :k] = failure * tables[:, k - 1, :k]
        tables[:, k, 1:k + 1] += success * tables[:, k - 1, :k]
    tables.flags.writeable = False
    return tables[0], tables[1]


def _vertical_rows(orders: np.ndarray, ready, arrive: np.ndarray, stay: np.ndarray,
                   width: int) -> tuple:
    """Vertical rows V[i, j, lo + m] for m < width, per (order i, ready j) pair.

    The ready count moves from j toward i and stops between them, so the
    row starts at lo = min(i, j): from below it is arrive[i - j], from
    above stay[j - i], and at i = j the unit row stay[0].
    """
    k = np.abs(orders - ready)
    rows = np.where((orders > ready)[:, None], arrive[k, :width], stay[k, :width])
    return np.minimum(orders, ready), rows


def vertical_transition_probs(i_target: int, cfg: AutoscalerConfig) -> np.ndarray:
    """Matrix of P[ready j -> j'] over one evaluation period at order i_target.

    This is exp(Q t_eva) for the birth-death generator Q of the
    provisioning process (the (i_target - j) pending containers arrive at
    mu_pro each, the (j - i_target) surplus ones drain at mu_dep each),
    in closed form: the shifted binomial rows of _vertical_law.
    """
    i_target = _check_target(i_target, cfg.n_max)
    n = cfg.n_max
    ready = np.arange(1, n + 1)
    lo, rows = _vertical_rows(np.full(n, i_target), ready, *_vertical_law(cfg), n)
    out = np.zeros((n, n), dtype=np.float64)
    for j in range(1, n + 1):
        k = abs(i_target - j)
        out[j - 1, lo[j - 1] - 1:lo[j - 1] + k] = rows[j - 1, :k + 1]
    return out


def horizontal_transition_probs(j: int, arrival_rate: float, model: MetricModel,
                                cfg: AutoscalerConfig) -> np.ndarray:
    """Probability vector over next ordered counts, given j ready containers."""
    return _horizontal_rows(arrival_rate, model, cfg, np.array([_check_target(j, cfg.n_max)]))[0]


@np.errstate(over="ignore", invalid="ignore")
def _horizontal_rows(arrival_rate: float, model: MetricModel, cfg: AutoscalerConfig,
                     ready: np.ndarray) -> np.ndarray:
    """Row r is the order vector of ready[r] ready containers.

    Independent of the current order: every evaluation redecides from the
    windowed metric alone.  As in Knative's KPA, the evaluator divides the
    aggregate over the j ready containers by the per-container target.
    The aggregate is taken as the sum of j independent per-container
    windows, each following the fitted law at rate arrival_rate / j, so
    it is N(j * mean, sqrt(j) * std); checks fail in ready count order.
    """
    if not (isinstance(arrival_rate, (int, float)) and math.isfinite(arrival_rate)
            and arrival_rate > 0):
        raise ValidationError(f"arrival_rate must be finite and > 0, got {arrival_rate!r}")
    mean, std = model.mean_at(arrival_rate / ready), model.std_at(arrival_rate / ready)
    laws = np.array([mean, std, ready * mean, np.sqrt(ready) * std])
    # the first ready count with a law that is not finite, else ready.size
    finite = np.isfinite(laws).all(axis=0)
    stop = ready.size if finite.all() else int(finite.argmin())
    rows = order_rows(laws[2, :stop], laws[3, :stop], cfg.target_value, cfg.n_max)
    if stop < ready.size:
        for m, s in laws[:, stop].reshape(2, 2).tolist():
            GaussianDist(m, s)
    return rows


def _check_stochastic(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    # a NaN entry makes the minimum NaN, which fails the comparison
    if not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValidationError(f"{name} entries must be finite and >= 0")
    row_err = float(np.abs(arr.sum(axis=-1) - 1.0).max())
    if row_err > 1e-10:
        raise ValidationError(f"{name} rows must sum to 1 (max error {row_err:.3e})")


def _trapping_ready_counts(horizontal: np.ndarray, arrive: np.ndarray, stay: np.ndarray,
                           lo: int, hi: int) -> np.ndarray:
    """Ready counts j outside [lo, hi] from which no truncated row moves.

    The row of (i, j) moves j when some product h[j, i'] * V[i, j, j'],
    j' != j, reaches _TRUNCATE_BELOW, that is when max(h[j]) times the
    largest moving entry of V[i, j] does.  j traps when no order i that
    h[j] can pick moves it.
    """
    n = horizontal.shape[0]
    # the largest chance that some of k pending containers arrive, or
    # that some of k surplus containers leave
    moves_up = np.max(arrive[:, 1:], axis=1, initial=0.0)
    moves_down = np.max(stay, axis=1, where=np.arange(n)[:, None] > np.arange(n), initial=0.0)
    ready, order = np.nonzero(horizontal >= _TRUNCATE_BELOW)
    outside = (ready + 1 < lo) | (ready + 1 > hi)
    ready, order = ready[outside], order[outside]
    k = np.abs(order - ready)
    moving = np.where(order > ready, moves_up[k], moves_down[k])
    moving *= np.max(horizontal, axis=1)[ready]
    trapped = np.ones(n, dtype=bool)
    trapped[lo - 1:hi] = False
    trapped[ready[moving >= _TRUNCATE_BELOW]] = False
    return np.flatnonzero(trapped) + 1


def _batches(groups: list, count: list) -> list:
    """(start, stop) ranges over the groups' concatenated (order, ready)
    pairs: runs of consecutive groups whose candidate products, at most
    len(src) * width * count[j - 1] for ready count j, sum to no more
    than _ASSEMBLY_BATCH (a larger group runs alone)."""
    bounds, first, at, size = [], 0, 0, 0
    for j, src in groups:
        cost = src.size * (max(j - int(src[0]), int(src[-1]) - j) + 1) * count[j - 1]
        if at > first and size + cost > _ASSEMBLY_BATCH:
            bounds.append((first, at))
            first, size = at, 0
        at += src.size
        size += cost
    bounds.append((first, at))
    return bounds


def _assemble(horizontal: np.ndarray, arrive: np.ndarray, stay: np.ndarray) -> tuple:
    """The closed states (order, ready) and the chain's transitions on
    them, as flat (source, target, probability) arrays.

    P[(i,j),(i',j')] = h[j,i'] * V[i,j,j'], products below _TRUNCATE_BELOW
    dropped and each row rescaled to sum to one.  Every transition lands
    on an order in O, the orders some h[j] reaches, and the ready count
    stays between j and the current order, so S = O x [min O, max O] is
    closed.  Outside S, orders not in O leave in one step and ready
    counts only move toward the range, so those states are transient
    unless a ready count traps (_trapping_ready_counts): then its orders
    form a closed set of their own, kept beside S so that the structure
    analysis names it.  Only factor entries at or above the threshold can
    give a product above it, since both factors are probabilities, so the
    products run over those entries alone, for many ready counts at once
    (_batches bounds how many).  Each (source, target) pair appears once;
    the arrays are left unsorted.
    """
    n = horizontal.shape[0]
    support = horizontal >= _TRUNCATE_BELOW
    orders = np.flatnonzero(support.any(axis=0)) + 1
    lo, hi = int(orders[0]), int(orders[-1])
    groups = [(j, orders) for j in range(lo, hi + 1)]
    groups += [(int(j), np.flatnonzero(support[j - 1]) + 1)
               for j in _trapping_ready_counts(horizontal, arrive, stay, lo, hi)]
    # the (order, ready) pair of every closed state, group by group; a
    # state's key is its index (i-1)*n + (j-1) in the full chain, so
    # sorted keys list the closed states by (order, ready)
    order = np.concatenate([src for _, src in groups])
    ready = np.repeat([j for j, _ in groups], [src.size for _, src in groups])
    pair_keys = (order - 1) * n + (ready - 1)
    keys = np.sort(pair_keys)
    # state positions looked up by key - base, over the keys' span only
    base = int(keys[0])
    index = np.empty(int(keys[-1]) - base + 1, dtype=np.intp)
    index[keys - base] = np.arange(keys.size)
    pair_keys -= base
    # the entries of h[j] at or above the threshold, row by row: those of
    # h[j] are h_vals[first[j]:first[j] + count[j]], at orders to_order + 1
    ready_of, to_order = np.nonzero(support)
    h_vals = horizontal[ready_of, to_order]
    count = np.bincount(ready_of, minlength=n)
    first = np.cumsum(count) - count
    rows, cols, vals = [], [], []
    for a, b in _batches(groups, count.tolist()):
        i, j = order[a:b], ready[a:b]
        start, v = _vertical_rows(i, j, arrive, stay, int(np.abs(i - j).max()) + 1)
        p, m = np.nonzero(v >= _TRUNCATE_BELOW)
        # vertical entry e times every entry of its ready count's h row
        row = j[p] - 1
        c = count[row]
        e = np.repeat(np.arange(p.size), c)
        at = np.arange(e.size) + np.repeat(first[row] - (np.cumsum(c) - c), c)
        prod = v[p, m][e] * h_vals[at]
        keep = prod >= _TRUNCATE_BELOW
        e, at = e[keep], at[keep]
        rows.append(index[pair_keys[a:b][p[e]]])
        cols.append(index[to_order[at] * n + (start[p] + m - (1 + base))[e]])
        vals.append(prod[keep])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    vals /= np.bincount(rows, weights=vals, minlength=keys.size)[rows]
    states = np.column_stack([keys // n + 1, keys % n + 1])
    return states, rows, cols, vals


@dataclass(frozen=True)
class ClusterChain:
    """DTMC over (order, ready) states, made from its factors and kept on
    the closed set of states it can never leave.

    The row of state (i, j) is the outer product of the order vector
    horizontal[j-1] and the vertical row of j toward i, drawn from the
    binomial tables arrive[k] (of k pending containers, how many become
    ready) and stay[k] (of k surplus containers, how many still drain).
    The factors are checked once and frozen (copied first, except when
    build_chain hands over arrays it has just built and owns, _owned).
    The transitions are assembled once, on the closed states listed in
    states (see _assemble): every other state is transient.  They are
    kept as three frozen flat arrays, each entry a move from state
    source[e] to state target[e] with chance probability[e].
    """

    n_max: int
    arrival_rate: float
    horizontal: np.ndarray  # [j-1, i'-1]
    arrive: np.ndarray      # [k, m]
    stay: np.ndarray        # [k, m]
    _owned: InitVar[bool] = False
    states: np.ndarray = field(init=False, repr=False, compare=False)  # [s] = (order, ready)
    source: np.ndarray = field(init=False, repr=False, compare=False)       # [e]
    target: np.ndarray = field(init=False, repr=False, compare=False)       # [e]
    probability: np.ndarray = field(init=False, repr=False, compare=False)  # [e]

    def __post_init__(self, _owned):
        n = self.n_max
        beyond = np.arange(n)[:, None] < np.arange(n)
        for name in ("horizontal", "arrive", "stay"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            _check_stochastic(name, arr, (n, n))
            if name != "horizontal" and arr[beyond].any():
                raise ValidationError(f"{name} row k must have no mass beyond k")
            if not _owned:
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        built = _assemble(self.horizontal, self.arrive, self.stay)
        for name, arr in zip(("states", "source", "target", "probability"), built):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        """Number of closed states."""
        return self.states.shape[0]

    def state_index(self, i: int, j: int) -> int:
        """Position of the closed state (order i, ready j)."""
        keys = (self.states[:, 0] - 1) * self.n_max + (self.states[:, 1] - 1)
        s = int(np.searchsorted(keys, (i - 1) * self.n_max + (j - 1)))
        if not (1 <= i <= self.n_max and 1 <= j <= self.n_max
                and s < keys.size and tuple(self.states[s]) == (i, j)):
            raise ValidationError(f"state ({i}, {j}) is not a closed state of the chain")
        return s

    def state_of(self, s: int) -> tuple:
        if not 0 <= s < self.n_states:
            raise ValidationError(f"state index {s} out of range")
        i, j = self.states[s].tolist()
        return i, j


def build_chain(arrival_rate: float, model: MetricModel, cfg: AutoscalerConfig) -> ClusterChain:
    """The chain at arrival_rate, from its n_max horizontal vectors and
    the two binomial tables of its vertical moves.

    A model fitted for another metric than the config's is rejected
    first, before any chain work.
    """
    if model.metric_kind != cfg.metric_kind:
        raise ConfigMismatchError(
            f"metric model was fitted for {model.metric_kind!r} but the config "
            f"declares {cfg.metric_kind!r}")
    n = cfg.n_max
    horizontal = _horizontal_rows(arrival_rate, model, cfg, np.arange(1, n + 1))
    arrive, stay = _vertical_law(cfg)
    return ClusterChain(n_max=n, arrival_rate=float(arrival_rate), horizontal=horizontal,
                        arrive=arrive, stay=stay, _owned=True)


def _closure(start: int, tail: np.ndarray, head: np.ndarray, n: int) -> np.ndarray:
    """Mask of the states reachable from start along the edges tail -> head."""
    reached = np.zeros(n, dtype=bool)
    reached[start] = True
    frontier = reached.copy()
    while True:
        step = np.zeros(n, dtype=bool)
        step[head[frontier[tail]]] = True
        frontier = step & ~reached
        if not frontier.any():
            return reached
        reached |= frontier


def _recurrence_structure(source: np.ndarray, target: np.ndarray, n: int) -> list:
    """The recurrent classes of the n-state graph source -> target, each
    in ascending state order, the classes ordered by their first state.

    From a state v, its forward closure F is a recurrent class when every
    state of F reaches v back, that is when F lies in v's backward closure
    B; otherwise the search moves to a state of F outside B, whose forward
    closure is smaller.  Each search starts at the live state that the
    most transitions enter, which in a chain is usually recurrent.  Once
    a class is found, every state that reaches it (B) is dropped: what is
    left is closed, so it holds every other recurrent class, and the
    search repeats on it.
    """
    classes = []
    alive = np.ones(n, dtype=bool)
    tail, head = source, target
    while alive.any():
        v = int(np.argmax(np.where(alive, np.bincount(head, minlength=n), -1)))
        while True:
            forward = _closure(v, tail, head, n)
            backward = _closure(v, head, tail, n)
            escaped = forward & ~backward
            if not escaped.any():
                break
            v = int(np.argmax(escaped))
        classes.append(np.flatnonzero(forward))
        alive &= ~backward
        keep = alive[tail]
        tail, head = tail[keep], head[keep]
    return sorted(classes, key=lambda cls: int(cls[0]))


def _span(lo, hi) -> str:
    return f"{lo}" if lo == hi else f"{lo}-{hi}"


def _non_ergodic(recurrent: list, chain) -> NonErgodicError:
    """The error for several recurrent classes: one summary line per class.

    A class is summarised by its size and its order and ready ranges when
    it is a chain's, by its index range when chain is None; a one-state
    class is named, in a chain with the chance that its ready count
    orders its order.  recurrent_classes keeps every class in full.
    """
    classes, lines = [], []
    for cls in recurrent:
        if chain is None:
            members = cls.tolist()
            one, many = f"index {cls[0]}", f"indices {_span(cls[0], cls[-1])}"
        else:
            own = chain.states[cls]
            members = [tuple(state) for state in own.tolist()]
            (i0, j0), (i1, j1) = own.min(axis=0), own.max(axis=0)
            one = (f"{members[0]}, ready {j0} orders {i0} with probability "
                   f"{chain.horizontal[j0 - 1, i0 - 1]:.6g}")
            many = f"orders {_span(i0, i1)}, ready {_span(j0, j1)}"
        classes.append(members)
        lines.append(f"  1 state: {one}" if cls.size == 1 else f"  {cls.size} states: {many}")
    return NonErgodicError(
        f"chain has {len(classes)} recurrent classes; stationary distribution is not "
        "unique:\n" + "\n".join(lines), recurrent_classes=classes)


def _solve_single_class(source: np.ndarray, target: np.ndarray, probability: np.ndarray,
                        n: int, chain=None) -> tuple:
    """Stationary vector of a checked row-stochastic chain on n states,
    given as its transitions source[e] -> target[e] with positive chance
    probability[e], each (source, target) pair once; also the size of its
    recurrent class and the residual max |P^T pi - pi|.

    The transition graph is analysed once.  More than one recurrent class
    raises NonErgodicError, summarising each class through chain's states;
    transient states get zero mass.  On the single recurrent class R the
    balance system (P_RR^T - I) pi = 0, with its first equation replaced
    by sum(pi) = 1, is filled densely and solved by LU: about 16 r^2
    bytes for the r states of R, the matrix and LAPACK's copy of it.
    The LU runs on one OpenBLAS thread, the default the package sets
    on import, unless the user set OPENBLAS_NUM_THREADS.
    """
    recurrent = _recurrence_structure(source, target, n)
    if len(recurrent) > 1:
        raise _non_ergodic(recurrent, chain)

    states = recurrent[0]
    r = states.size
    position = np.full(n, -1)
    position[states] = np.arange(r)
    # R is closed, so a move from R lands in R
    inside = position[source] >= 0
    a = np.zeros((r, r))
    a[position[target[inside]], position[source[inside]]] = probability[inside]
    a.flat[::r + 1] -= 1.0
    a[0] = 1.0
    b = np.zeros(r)
    b[0] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed on the {r}-state recurrent class: "
                             f"{str(exc).lower()}") from exc
    pi = np.zeros(n)
    pi[states] = np.where(x < 0.0, 0.0, x)
    total = float(pi.sum())
    if not math.isfinite(total) or total <= 0:
        raise NumericalError("stationary solve produced a degenerate vector")
    pi /= total
    flow = np.bincount(target, weights=probability * pi[source], minlength=n)
    residual = float(np.max(np.abs(flow - pi)))
    if not residual <= 1e-10:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return pi, r, residual


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
    # rounding noise below zero is no transition
    source, target = np.nonzero(p > 0.0)
    pi, _, _ = _solve_single_class(source, target, p[source, target], p.shape[0])
    return pi


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary mass per closed chain state plus the ready-count marginal.

    pi[s] is the mass of the state states[s] = (order, ready); the states
    outside the chain's closed set are transient and carry none.
    n_transient counts every transient state of the full n_max^2 chain.
    residual is the solver's max |P^T pi - pi| over the closed states.
    """

    pi: np.ndarray
    states: np.ndarray
    marginal_ready: np.ndarray
    n_transient: int
    residual: float

    def __post_init__(self):
        for name, dtype in (("pi", np.float64), ("states", np.int64),
                            ("marginal_ready", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def closed_states(self) -> int:
        """Size of the closed set the chain was solved on."""
        return self.pi.size

    @property
    def recurrent_states(self) -> int:
        """Size of the single recurrent class: every state not transient."""
        return self.marginal_ready.size ** 2 - self.n_transient


def stationary_distribution(chain: ClusterChain) -> StationaryDistribution:
    """Solve the chain; non-unique answers give each class's order and ready ranges."""
    pi, n_recurrent, residual = _solve_single_class(
        chain.source, chain.target, chain.probability, chain.n_states, chain)
    marginal = np.bincount(chain.states[:, 1] - 1, weights=pi, minlength=chain.n_max)
    return StationaryDistribution(pi=pi, states=chain.states, marginal_ready=marginal,
                                  n_transient=chain.n_max ** 2 - n_recurrent,
                                  residual=residual)
