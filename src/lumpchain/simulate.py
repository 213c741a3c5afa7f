"""Trajectory sampling and empirical path statistics.

Every trajectory starts from the stationary law, which every other number
reads too. Sampling uses numpy's seeded default generator (PCG64), which is
portable across platforms and versions by contract, so fixed seeds reproduce
byte identical trajectories everywhere. Occurrence statistics follow the
greedy from-the-left selection rule for non-overlapping pattern traversals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import MarkovChain
from .errors import EmptyPattern, UnrealisablePattern, ValidationError
from .lumping import Lumping, preimage_count

DEFAULT_CHECKPOINTS = (10, 50, 100, 500, 2000)


@dataclass(frozen=True)
class Trajectory:
    states: tuple[str, ...]
    seed: int


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


def _sample_indices(chain: MarkovChain, length: int, seed: int,
                    row_cum: list[list[float]]) -> np.ndarray:
    """Seeded stationary state indices; ``row_cum`` holds the cumulative
    sums of every transition row, computed once per call for all seeds."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    if seed < 0:
        raise ValidationError(f"seeds must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    start_cum = np.cumsum(chain.stationary).tolist()
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


def sample_trajectory(chain: MarkovChain, length: int, seed: int = 0) -> Trajectory:
    """Sample a state word of the given length from the stationary law;
    reproducible for a fixed seed."""
    idx = _sample_indices(chain, length, seed, np.cumsum(chain.transition, axis=1).tolist())
    return Trajectory(states=tuple(chain.states[i] for i in idx), seed=seed)


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
    row_cum = np.cumsum(chain.transition, axis=1).tolist()
    words = []
    for seed in sorted(seeds):
        idx = _sample_indices(chain, length, seed, row_cum)
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

    row_cum = np.cumsum(chain.transition, axis=1).tolist()
    rates = []
    for seed in sorted(seeds):
        seq = _sample_indices(chain, length, seed, row_cum)
        hits = _match_positions(seq, idx)
        rates.append(len(_greedy_non_overlapping(hits, k)) / length)
    rates_arr = np.array(rates)
    se = float(rates_arr.std(ddof=1) / math.sqrt(len(rates))) if len(rates) > 1 else 0.0
    slack = 3.0 * se + k / length
    empirical = float(rates_arr.mean())
    return OccurrenceRateCheck(pattern=pattern, empirical_rate=empirical, bound=bound,
                               slack=slack, passed=empirical >= bound - slack,
                               per_seed=tuple(rates))
