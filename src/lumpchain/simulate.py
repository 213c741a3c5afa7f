"""Trajectory sampling and empirical path statistics.

Sampling uses numpy's seeded default generator (PCG64), which is portable
across platforms and versions by contract, so fixed seeds reproduce byte
identical trajectories everywhere. Occurrence statistics follow the greedy
from-the-left selection rule for non-overlapping pattern traversals, with
1-based instants.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import MarkovChain
from .errors import BadStartVector, EmptyPattern, UnrealisablePattern, ValidationError
from .lumping import Lumping, preimage_count

DEFAULT_CHECKPOINTS = (10, 50, 100, 500, 2000)


@dataclass(frozen=True)
class Trajectory:
    states: tuple[str, ...]
    seed: int
    start_mode: str


@dataclass(frozen=True)
class TraversalStats:
    """Instants at which a pattern occurs in a trajectory (1-based).

    ``non_overlapping`` keeps the greedy, lowest-first subset of ``traversal``
    whose elements are at least the pattern length apart; ``occupation`` is
    populated for single-state patterns only, where it equals ``traversal``.
    """

    pattern: tuple[str, ...]
    occupation: tuple[int, ...]
    traversal: tuple[int, ...]
    non_overlapping: tuple[int, ...]


@dataclass(frozen=True)
class GrowthCheckpoint:
    """Preimage counts of sampled block words of one length."""

    n: int
    counts: tuple[int, ...]
    max_count: int
    geo_mean_growth: float


@dataclass(frozen=True)
class OccurrenceRateCheck:
    pattern: tuple[str, ...]
    empirical_rate: float
    bound: float
    slack: float
    passed: bool
    per_seed: tuple[float, ...]


def _resolve_start(chain: MarkovChain, start_mode) -> tuple[np.ndarray, str]:
    if isinstance(start_mode, str):
        if start_mode != "stationary":
            raise BadStartVector(f"unknown start mode {start_mode!r}")
        return np.asarray(chain.stationary, dtype=float), "stationary"
    if isinstance(start_mode, tuple) and len(start_mode) == 2 and start_mode[0] == "delta":
        rho = np.zeros(chain.n)
        rho[chain.index(start_mode[1])] = 1.0
        return rho, f"delta({start_mode[1]})"
    rho = np.asarray(start_mode, dtype=float)
    if rho.shape != (chain.n,) or np.any(rho < 0) or abs(rho.sum() - 1.0) > 1e-9:
        raise BadStartVector("custom start vector must be a distribution over the states")
    return rho / rho.sum(), "custom"


def _sample_indices(chain: MarkovChain, length: int, rho: np.ndarray, seed: int,
                    row_cum: list[list[float]]) -> np.ndarray:
    """Seeded state indices from ``rho``; ``row_cum`` holds the cumulative
    sums of every transition row, computed once per call for all seeds."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    start_cum = np.cumsum(rho).tolist()
    last = chain.n - 1
    x = min(bisect_right(start_cum, u[0] * start_cum[-1]), last)
    out = np.empty(length, dtype=np.int64)
    out[0] = x
    for t in range(1, length):
        cum = row_cum[x]
        x = min(bisect_right(cum, u[t] * cum[-1]), last)
        out[t] = x
    return out


def _check_seeds(seeds: Sequence[int]) -> None:
    if len(seeds) == 0:
        raise ValidationError("at least one seed is needed")


def sample_trajectory(chain: MarkovChain, length: int, start_mode="stationary",
                      seed: int = 0) -> Trajectory:
    """Sample a state word of the given length; reproducible for fixed seed."""
    rho, mode = _resolve_start(chain, start_mode)
    idx = _sample_indices(chain, length, rho, seed, np.cumsum(chain.transition, axis=1).tolist())
    return Trajectory(states=tuple(chain.states[i] for i in idx),
                      seed=seed, start_mode=mode)


def _match_positions(seq: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    n, k = len(seq), len(pattern)
    if k > n:
        return np.empty(0, dtype=np.int64)
    hits = np.ones(n - k + 1, dtype=bool)
    for j in range(k):
        hits &= seq[j:n - k + 1 + j] == pattern[j]
    return np.flatnonzero(hits)


def _greedy_non_overlapping(positions: np.ndarray, k: int) -> list[int]:
    chosen: list[int] = []
    blocked_until = -1
    for p in positions:
        if p > blocked_until:
            chosen.append(int(p))
            blocked_until = p + k - 1
    return chosen


def traversal_stats(trajectory, pattern: Sequence[str]) -> TraversalStats:
    """Occurrence instants of a fixed pattern, greedy non-overlapping subset."""
    states = trajectory.states if isinstance(trajectory, Trajectory) else tuple(trajectory)
    pattern = tuple(pattern)
    if not pattern:
        raise EmptyPattern("pattern must be nonempty")
    if len(pattern) > len(states):
        raise ValidationError("pattern longer than trajectory")
    k = len(pattern)
    codes = {s: i for i, s in enumerate(sorted(set(states) | set(pattern)))}
    seq = np.array([codes[s] for s in states], dtype=np.int64)
    pat = np.array([codes[s] for s in pattern], dtype=np.int64)
    traversal = tuple(int(p) + 1 for p in _match_positions(seq, pat))
    non_overlapping = tuple(p + 1 for p in
                            _greedy_non_overlapping(_match_positions(seq, pat), k))
    occupation = traversal if k == 1 else ()
    return TraversalStats(pattern=pattern, occupation=occupation,
                          traversal=traversal, non_overlapping=non_overlapping)


def empirical_growth(chain: MarkovChain, lumping: Lumping, length: int,
                     seeds: Sequence[int],
                     checkpoints: Sequence[int] = DEFAULT_CHECKPOINTS
                     ) -> tuple[GrowthCheckpoint, ...]:
    """Exact preimage counts of sampled block words at fixed prefix lengths.

    Each seed yields one stationary trajectory; its block image is counted at
    every checkpoint not exceeding the trajectory length. The geometric mean
    of the per-word n-th roots summarises the growth at each checkpoint.
    Seeds must be nonempty and checkpoints at least 1.
    """
    _check_seeds(seeds)
    low = [n for n in checkpoints if n < 1]
    if low:
        raise ValidationError(f"checkpoints must be >= 1, got {low}")
    rho = np.asarray(chain.stationary, dtype=float)
    row_cum = np.cumsum(chain.transition, axis=1).tolist()
    words = []
    for seed in sorted(seeds):
        idx = _sample_indices(chain, length, rho, seed, row_cum)
        words.append([lumping.blocks[b] for b in lumping.of_state[idx]])
    out = []
    for n in checkpoints:
        if n > length:
            continue
        counts = [preimage_count(chain, lumping, w[:n]) for w in words]
        roots = [2.0 ** (math.log2(c) / n) for c in counts]
        geo = 2.0 ** (sum(math.log2(r) for r in roots) / len(roots))
        out.append(GrowthCheckpoint(n=n, counts=tuple(counts),
                                    max_count=max(counts), geo_mean_growth=geo))
    return tuple(out)


def occurrence_rate_check(chain: MarkovChain, pattern: Sequence[str], length: int,
                          seeds: Sequence[int]) -> OccurrenceRateCheck:
    """Compare the observed non-overlapping occurrence rate of a pattern with
    its long-run guarantee.

    The guarantee is the pattern's conditional path probability times the
    stationary mass of its first state, divided by the pattern length. The
    pass criterion subtracts three standard errors across seeds plus a
    boundary term of one pattern length; it is a statistical check, not a
    proof. Seeds must be nonempty.
    """
    _check_seeds(seeds)
    pattern = tuple(pattern)
    if not pattern:
        raise EmptyPattern("pattern must be nonempty")
    idx = np.array([chain.index(s) for s in pattern], dtype=np.int64)
    mu = chain.stationary
    P = chain.transition
    p = 1.0
    for a, b in zip(idx, idx[1:]):
        p *= P[a, b]
    if p <= 0.0 or mu[idx[0]] <= 0.0:
        raise UnrealisablePattern(f"pattern {pattern!r} has zero path probability")
    k = len(pattern)
    bound = p * float(mu[idx[0]]) / k

    rho = np.asarray(mu, dtype=float)
    row_cum = np.cumsum(chain.transition, axis=1).tolist()
    rates = []
    for seed in sorted(seeds):
        seq = _sample_indices(chain, length, rho, seed, row_cum)
        hits = _match_positions(seq, idx)
        rates.append(len(_greedy_non_overlapping(hits, k)) / length)
    rates_arr = np.array(rates)
    se = float(rates_arr.std(ddof=1) / math.sqrt(len(rates))) if len(rates) > 1 else 0.0
    slack = 3.0 * se + k / length
    empirical = float(rates_arr.mean())
    return OccurrenceRateCheck(pattern=pattern, empirical_rate=empirical, bound=bound,
                               slack=slack, passed=empirical >= bound - slack,
                               per_seed=tuple(rates))
