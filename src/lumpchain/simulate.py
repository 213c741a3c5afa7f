"""Trajectory sampling and empirical path statistics.

Every trajectory starts from the stationary law, which every other number
reads too. Sampling uses numpy's seeded default generator (PCG64), which is
portable across platforms and versions by contract, so fixed seeds reproduce
byte identical trajectories everywhere. Occurrence statistics follow the
greedy from-the-left selection rule for non-overlapping pattern traversals.
Preimage growth is counted at the fixed prefix lengths ``CHECKPOINTS``.
Every entry point samples through ``_sample_indices``, which draws with
``entropy._uniforms`` as the belief filter does: a negative seed and a seed
or length that is not an integer (or is a ``bool``) are ``ValidationError``s,
refused before any draw; a length numpy cannot hold is ``HorizonTooLarge``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chain import MarkovChain
from .entropy import _check_integer, _uniforms
from .errors import EmptyPattern, UnrealisablePattern, ValidationError
from .lumping import Lumping, preimage_count

CHECKPOINTS = (10, 50, 100, 500, 2000)  # ascending prefix lengths of empirical_growth


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


def _sample_indices(chain: MarkovChain, length: int,
                    seeds: Sequence[int]) -> Iterator[np.ndarray]:
    """Seeded stationary state indices, one int64 array per seed in sorted
    seed order. The cumulative sums of μ and of the transition rows are taken
    once per call. Every seed must be an integer before any is drawn;
    ``entropy._uniforms`` refuses a negative one as it draws.

    The loop reads the uniforms as Python floats and collects the states in a
    list: a numpy scalar read and an array write per step cost more than the
    bisection itself. ``bisect`` compares the same doubles either way, so the
    states are the same.
    """
    if len(seeds) == 0:
        raise ValidationError("at least one seed is needed")
    for seed in seeds:
        _check_integer("seed", seed)
    _check_integer("length", length)
    if length < 1:
        raise ValidationError("length must be >= 1")
    start_cum = np.cumsum(chain.stationary).tolist()
    row_cum = np.cumsum(chain.transition, axis=1).tolist()
    last = chain.n - 1
    for seed in sorted(seeds):
        cum, out = start_cum, []
        for v in _uniforms(seed, length).tolist():
            # leaving out a row's last sum caps the drawn index at the last state
            x = bisect_right(cum, v * cum[-1], 0, last)
            out.append(x)
            cum = row_cum[x]
        yield np.array(out, dtype=np.int64)


def sample_trajectory(chain: MarkovChain, length: int, seed: int = 0) -> Trajectory:
    """Sample a state word of the given length from the stationary law;
    reproducible for a fixed seed."""
    idx = next(_sample_indices(chain, length, [seed]))
    return Trajectory(states=tuple(chain.states[i] for i in idx), seed=seed)


def _occurrences(seq: np.ndarray, pattern: np.ndarray) -> int:
    """Non-overlapping occurrences of ``pattern`` in ``seq``, chosen greedily
    from the left."""
    n, k = len(seq), len(pattern)
    if k > n:
        return 0
    hits = np.ones(n - k + 1, dtype=bool)
    for j in range(k):
        hits &= seq[j:n - k + 1 + j] == pattern[j]
    count, blocked_until = 0, -1
    for p in np.flatnonzero(hits).tolist():
        if p > blocked_until:
            count, blocked_until = count + 1, p + k - 1
    return count


def empirical_growth(chain: MarkovChain, lumping: Lumping, length: int,
                     seeds: Sequence[int]) -> tuple[GrowthCheckpoint, ...]:
    """Exact preimage counts of sampled block words at the prefix lengths
    ``CHECKPOINTS``.

    Each seed yields one stationary trajectory; its block image is counted at
    every checkpoint not exceeding the trajectory length. The geometric mean
    of the per-word n-th roots summarises the growth at each checkpoint.
    Seeds must be nonempty, and a length below the smallest checkpoint is a
    ``ValidationError``, not an empty result.
    """
    _check_integer("length", length)
    if length < CHECKPOINTS[0]:
        raise ValidationError(f"length {length} is below the smallest checkpoint "
                              f"{CHECKPOINTS[0]}, so no checkpoint is counted")
    words = [[lumping.blocks[b] for b in lumping.of_state[idx].tolist()]
             for idx in _sample_indices(chain, length, seeds)]
    out = []
    for n in CHECKPOINTS[:bisect_right(CHECKPOINTS, length)]:
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

    rates = [_occurrences(seq, idx) / length for seq in _sample_indices(chain, length, seeds)]
    rates_arr = np.array(rates)
    se = float(rates_arr.std(ddof=1) / math.sqrt(len(rates))) if len(rates) > 1 else 0.0
    slack = 3.0 * se + k / length
    empirical = float(rates_arr.mean())
    return OccurrenceRateCheck(pattern=pattern, empirical_rate=empirical, bound=bound,
                               slack=slack, passed=empirical >= bound - slack,
                               per_seed=tuple(rates))
