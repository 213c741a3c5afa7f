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
from typing import Sequence

import numpy as np

from .errors import (
    BadStartVector,
    DimensionMismatch,
    NegativeEntry,
    NoConvergence,
    NonStochasticRow,
    NotIrreducible,
    UnknownState,
)

ROW_SUM_TOL = 1e-9
DEFAULT_ZERO_THRESHOLD = 1e-15


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
    def connectivity(self) -> ConnectivityReport:
        rep = self._cache.get("connectivity")
        if rep is None:
            rep = _connectivity(self.adjacency)
            self._cache["connectivity"] = rep
        return rep

    @property
    def stationary(self) -> np.ndarray:
        """Invariant distribution; requires irreducibility.

        Solved once by one direct linear solve and cached; every analysis
        reads this vector. Periodic chains are accepted: an irreducible chain
        has a unique invariant vector whatever its period, which
        ``connectivity.aperiodic`` reports. Raises NoConvergence when the
        solve fails or its residual ``max |mu P - mu|`` is not within 1e-10.
        """
        mu = self._cache.get("stationary")
        if mu is None:
            if not self.connectivity.irreducible:
                raise NotIrreducible("stationary distribution needs an irreducible chain")
            mu = _solve_stationary(self.transition)
            resid = np.max(np.abs(mu @ self.transition - mu))
            if not resid <= 1e-10:  # a NaN residual fails too
                raise NoConvergence(f"stationary residual {resid!r} above tolerance")
            mu.setflags(write=False)
            self._cache["stationary"] = mu
        return mu

    def __repr__(self) -> str:
        return f"MarkovChain(n={self.n}, states={self.states!r})"


def _float_array(data, what: str) -> np.ndarray:
    """A float copy of ``data``. A string entry is refused even where numpy
    would parse it (``"0.5"``), so decimal and fraction strings fail alike;
    model files convert theirs in ``cli._coerce_probability``."""
    try:
        raw = np.asarray(data)
        if raw.dtype.kind in "US" or (raw.dtype.kind == "O" and any(
                isinstance(v, (str, bytes)) for v in raw.flat)):
            raise TypeError("an entry is a string")
        return np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or an entry that is no number
        raise DimensionMismatch(f"{what} is not an array of numbers: {exc}") from None


def build_chain(matrix, states: Sequence[str] | None = None,
                initial=None, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> MarkovChain:
    """Validate a transition matrix and construct a chain.

    Entries must be finite numbers in a square array and rows must sum to
    one within ``1e-9``; they are renormalised afterwards so the stored
    matrix satisfies the row-sum invariant to machine precision.
    Entries in ``(0, zero_threshold]`` are treated as structural zeros.
    An ``initial`` vector is validated and kept as ``chain.initial``; every
    analysis reads the stationary law instead.
    """
    P = _float_array(matrix, "transition matrix")
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
        init = _float_array(initial, "initial vector")
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


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Solve mu P = mu, sum(mu) = 1 directly (one balance equation replaced
    by the normalisation), clip at 0 and renormalise; a singular system
    raises NoConvergence. ``MarkovChain.stationary`` checks the residual."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        mu = np.clip(np.linalg.solve(A, b), 0.0, None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"stationary solve failed: {exc}") from None
    return mu / mu.sum()


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


def _connectivity(adj: np.ndarray) -> ConnectivityReport:
    """Strong connectivity via forward and backward reachability; period via
    the gcd of level differences along edges, an exact integer computation.

    For reducible chains the period refers to the part reachable from the
    first state.
    """
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
