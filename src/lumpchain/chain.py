"""Finite Markov chain representation, validation and stationary analysis.

A chain is a row-stochastic matrix over an ordered finite state set. State
labels are arbitrary strings; internally everything runs on dense integer
indices. Values are immutable after construction and safe to share across
threads; the stationary distribution is a lazy cache whose recomputation is
idempotent.

Realisability is structural: entries at or below ``zero_threshold`` are
clamped to exact zero at build time (rows renormalised afterwards), so the
transition graph, path probabilities and all downstream path enumeration
agree on what counts as an edge. Pass ``zero_threshold=0.0`` to keep every
literal nonzero entry as an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadStartVector,
    DimensionMismatch,
    NegativeEntry,
    NoConvergence,
    NonStochasticRow,
    NotAperiodic,
    NotIrreducible,
    StateSpaceTooLarge,
    UnknownState,
)

ROW_SUM_TOL = 1e-9
DEFAULT_ZERO_THRESHOLD = 1e-15
STATIONARY_TOL = 1e-12
_POWER_ITERATION_BUDGET = 500_000


@dataclass(frozen=True)
class ConnectivityReport:
    """Strong connectivity and period of the transition graph."""

    irreducible: bool
    aperiodic: bool
    period: int


class MarkovChain:
    """Validated finite Markov chain.

    Do not mutate ``transition`` or ``initial``; both arrays are marked
    read-only. Use :func:`build_chain` to construct instances from raw data.
    """

    __slots__ = ("states", "transition", "initial", "_index", "_cache")

    def __init__(self, states: Sequence[str], transition: np.ndarray,
                 initial: np.ndarray | None = None):
        self.states = tuple(str(s) for s in states)
        self.transition = transition
        self.initial = initial
        self._index = {s: i for i, s in enumerate(self.states)}
        self._cache: dict = {}
        transition.setflags(write=False)
        if initial is not None:
            initial.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownState(f"unknown state {label!r}") from None

    @property
    def adjacency(self) -> np.ndarray:
        """Boolean edge matrix; entry (i, j) iff transition(i, j) > 0."""
        adj = self._cache.get("adjacency")
        if adj is None:
            adj = self.transition > 0.0
            adj.setflags(write=False)
            self._cache["adjacency"] = adj
        return adj

    @property
    def successors(self) -> tuple[np.ndarray, ...]:
        """Per-state arrays of successor indices."""
        succ = self._cache.get("successors")
        if succ is None:
            adj = self.adjacency
            succ = tuple(np.flatnonzero(adj[i]) for i in range(self.n))
            self._cache["successors"] = succ
        return succ

    @property
    def connectivity(self) -> ConnectivityReport:
        rep = self._cache.get("connectivity")
        if rep is None:
            rep = check_irreducible_aperiodic(self)
            self._cache["connectivity"] = rep
        return rep

    @property
    def stationary(self) -> np.ndarray:
        """Invariant distribution; requires irreducibility.

        Solved once at ``STATIONARY_TOL`` and cached; every analysis reads
        this vector. Unlike :func:`stationary_distribution` it accepts
        periodic chains and does not check the residual of the solve.
        """
        mu = self._cache.get("stationary")
        if mu is None:
            if not self.connectivity.irreducible:
                raise NotIrreducible("stationary distribution needs an irreducible chain")
            mu = _solve_stationary(self.transition, STATIONARY_TOL)
            mu.setflags(write=False)
            self._cache["stationary"] = mu
        return mu

    @property
    def start_distribution(self) -> np.ndarray:
        """Distribution of the initial state: ``initial`` if set, else stationary."""
        return self.initial if self.initial is not None else self.stationary

    def __repr__(self) -> str:
        return f"MarkovChain(n={self.n}, states={self.states!r})"


def build_chain(matrix, states: Sequence[str] | None = None,
                initial=None, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> MarkovChain:
    """Validate a transition matrix and construct a chain.

    Entries must be finite and rows must sum to one within ``1e-9``; they are
    renormalised afterwards so the stored matrix satisfies the row-sum
    invariant to machine precision.
    Entries in ``(0, zero_threshold]`` are treated as structural zeros.
    """
    P = np.array(matrix, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {P.shape}")
    n = P.shape[0]
    if states is None:
        states = [str(i) for i in range(n)]
    states = [str(s) for s in states]
    if len(states) != n:
        raise DimensionMismatch(f"{len(states)} state labels for a {n}x{n} matrix")
    if len(set(states)) != n:
        raise DimensionMismatch("state labels must be unique")
    if not np.isfinite(P).all():
        i, j = np.argwhere(~np.isfinite(P))[0]
        raise NonStochasticRow(
            f"non-finite entry {float(P[i, j])} at ({states[i]}, {states[j]})")
    if np.any(P < 0):
        i, j = np.argwhere(P < 0)[0]
        raise NegativeEntry(f"negative entry {P[i, j]!r} at ({states[i]}, {states[j]})")
    sums = P.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise NonStochasticRow(f"row {states[i]!r} sums to {sums[i]!r}")
    if zero_threshold > 0:
        P[P <= zero_threshold] = 0.0
    P /= P.sum(axis=1, keepdims=True)

    init = None
    if initial is not None:
        init = np.array(initial, dtype=float)
        if init.shape != (n,):
            raise DimensionMismatch(f"initial vector has shape {init.shape}, expected ({n},)")
        if not np.isfinite(init).all():
            raise BadStartVector("initial vector has a non-finite entry")
        if np.any(init < 0):
            raise BadStartVector("initial vector has a negative entry")
        s = init.sum()
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise BadStartVector(f"initial vector sums to {s!r}")
        init /= s
    return MarkovChain(states, P, init)


def _solve_stationary(P: np.ndarray, tol: float) -> np.ndarray:
    """Solve mu P = mu, sum(mu) = 1.

    Direct solve with one balance equation replaced by the normalisation
    constraint; falls back to power iteration if the solve is singular or
    leaves a large residual.
    """
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        mu = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        mu = None
    if mu is not None:
        mu = np.clip(mu, 0.0, None)
        s = mu.sum()
        if s > 0:
            mu = mu / s
            if np.max(np.abs(mu @ P - mu)) <= max(tol, 1e-12):
                return mu
    # fallback: power iteration
    mu = np.full(n, 1.0 / n)
    for _ in range(_POWER_ITERATION_BUDGET):
        nxt = mu @ P
        if np.max(np.abs(nxt - mu)) < tol:
            nxt /= nxt.sum()
            return nxt
        mu = nxt
    raise NoConvergence("power iteration exhausted its budget")


def stationary_distribution(chain: MarkovChain, tol: float = STATIONARY_TOL,
                            require_aperiodic: bool = True) -> np.ndarray:
    """Invariant distribution of an irreducible chain.

    Raises NotIrreducible or, by default, NotAperiodic for periodic chains.
    Irreducible periodic chains still have a unique invariant vector; pass
    ``require_aperiodic=False`` to obtain it.

    It solves like :attr:`MarkovChain.stationary`, with a caller-chosen
    ``tol`` and no cache, and adds two checks that the property leaves out:
    the periodicity check above, and a residual check that raises
    NoConvergence when ``max |mu P - mu|`` exceeds ``max(tol, 1e-10)``.
    """
    rep = chain.connectivity
    if not rep.irreducible:
        raise NotIrreducible("chain is not irreducible")
    if require_aperiodic and not rep.aperiodic:
        raise NotAperiodic(f"chain has period {rep.period}")
    mu = _solve_stationary(chain.transition, tol)
    resid = np.max(np.abs(mu @ chain.transition - mu))
    if resid > max(tol, 1e-10):
        raise NoConvergence(f"stationary residual {resid!r} above tolerance")
    return mu


def _levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first level of every state from state 0 (-1: unreachable),
    one boolean frontier per level."""
    level = np.full(len(adj), -1)
    frontier = np.zeros(len(adj), dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def check_irreducible_aperiodic(chain: MarkovChain) -> ConnectivityReport:
    """Strong connectivity via forward and backward reachability; period via
    the gcd of level differences along edges, an exact integer computation.

    For reducible chains the period refers to the part reachable from the
    first state.
    """
    adj = chain.adjacency
    level = _levels(adj)
    irreducible = bool((level >= 0).all() and (_levels(adj.T) >= 0).all())
    u, v = np.nonzero(adj & (level >= 0)[:, None])
    period = int(np.gcd.reduce(level[u] + 1 - level[v]))
    return ConnectivityReport(irreducible=irreducible,
                              aperiodic=period == 1,
                              period=period)


def reverse_chain(chain: MarkovChain) -> MarkovChain:
    """Time reversal: reversed(i, j) = mu_j P(j, i) / mu_i.

    The reversed chain shares the invariant distribution of the original; the
    cached vector is carried over so the two solve the same linear system.
    """
    mu = chain.stationary
    P = chain.transition
    rev = (mu[None, :] * P.T) / mu[:, None]
    rev /= rev.sum(axis=1, keepdims=True)
    out = MarkovChain(chain.states, rev)
    out._cache["stationary"] = mu
    return out


def k_transition_chain(chain: MarkovChain, k: int, max_states: int = 4096) -> MarkovChain:
    """Lift to the chain on realisable length-k state words.

    A word steps to another word when it shifts by one and the appended state
    is a successor of its last state; the step probability is the original
    one-step probability. The lifted invariant mass of a word is the path
    probability of the word under the stationary start.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mu = chain.stationary
    succ = chain.successors
    words: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]):
        if len(prefix) == k:
            words.append(prefix)
            if len(words) > max_states:
                raise StateSpaceTooLarge(
                    f"more than {max_states} realisable length-{k} words")
            return
        for v in succ[prefix[-1]]:
            extend(prefix + (int(v),))

    for x in range(chain.n):
        extend((x,))

    pos = {w: i for i, w in enumerate(words)}
    m = len(words)
    P = chain.transition
    lifted = np.zeros((m, m))
    mass = np.empty(m)
    for i, w in enumerate(words):
        p = mu[w[0]]
        for a, b in zip(w, w[1:]):
            p *= P[a, b]
        mass[i] = p
        last = w[-1]
        for v in succ[last]:
            j = pos[w[1:] + (int(v),)]
            lifted[i, j] = P[last, int(v)]
    labels = ["|".join(chain.states[x] for x in w) for w in words]
    out = build_chain(lifted, labels)
    mass /= mass.sum()
    mass.setflags(write=False)
    out._cache["stationary"] = mass
    return out


def path_probability(chain: MarkovChain, path: Iterable[str], start=None) -> float:
    """Probability of observing the exact state word.

    ``start`` defaults to the chain's start distribution. The value is
    positive iff every consecutive pair is an edge and the first state has
    positive start mass.
    """
    idx = [chain.index(s) for s in path]
    if not idx:
        raise ValueError("path must be nonempty")
    if start is None:
        rho = chain.start_distribution
    else:
        rho = np.asarray(start, dtype=float)
        if rho.shape != (chain.n,):
            raise DimensionMismatch(f"start vector has shape {rho.shape}, expected ({chain.n},)")
    p = float(rho[idx[0]])
    P = chain.transition
    for a, b in zip(idx, idx[1:]):
        p *= P[a, b]
        if p == 0.0:
            return 0.0
    return p
