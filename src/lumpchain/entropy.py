"""Entropy functionals for stationary chains and their lumped images.

All values are in bits (binary logarithm) with the convention 0*log2(0) = 0.
Quantities over lumped words are exact: :func:`lumped_forward` pushes the
joint mass of block words and hidden state through the transition matrix,
and every block-word quantity reads its tables via a :class:`BlockWordLattice`.
Mass rule: a word of joint mass at most ``MASS_EPS``, counting its start
state's stationary weight, is dropped with all its extensions.

Cost: the upper pass to horizon h costs |blocks|^h * n^2 for n states; the
lower pass is n calls, one per start state, at depth h-1, each keeping only
the (words x blocks) next-block joints of its levels. The default budget
admits horizons up to 12 on chains with at most 4 blocks; both caps can be
raised explicitly by callers who accept the cost.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .chain import MarkovChain
from .errors import HorizonTooLarge, NotADistribution, ValidationError, ZeroMassUpdate

if TYPE_CHECKING:
    from .lumping import Lumping

MASS_EPS = 1e-15
DEFAULT_MAX_HORIZON = 12
DEFAULT_MAX_BLOCKS = 4
DIST_SUM_TOL = 1e-9
_SCORE_CHUNK = 1024  # belief-filter steps scored per numpy call


@dataclass(frozen=True)
class EntropyBounds:
    """Per-horizon sandwich on the entropy rate of the lumped process.

    ``lower`` conditions the next block on the previous blocks and the exact
    initial state, ``upper`` only on the previous blocks. The lumped rate sits
    between the two, and the sandwich tightens as the horizon grows.
    """

    horizon: int
    lower: float
    upper: float


@dataclass(frozen=True)
class LossInterval:
    """Interval bracketing the per-step information loss of a lumping."""

    horizon: int
    loss_lower: float
    loss_upper: float


@dataclass(frozen=True)
class BlackwellEstimate:
    estimate: float
    stderr: float
    caveat: str


def _plogp(p: np.ndarray) -> float:
    """-sum p*log2(p) over the positive entries."""
    p = p[p > 0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def shannon_entropy(dist) -> float:
    """Entropy of a probability vector in bits."""
    p = np.asarray(dist, dtype=float).ravel()
    if np.any(p < 0):
        raise NotADistribution("negative probability entry")
    if abs(p.sum() - 1.0) > DIST_SUM_TOL:
        raise NotADistribution(f"probabilities sum to {p.sum()!r}")
    return _plogp(p)


def conditional_entropy(joint) -> float:
    """H(column variable | row variable) from a joint probability matrix."""
    J = np.asarray(joint, dtype=float)
    if J.ndim != 2:
        raise NotADistribution("joint must be a matrix")
    if np.any(J < 0):
        raise NotADistribution("negative probability entry")
    if abs(J.sum() - 1.0) > DIST_SUM_TOL:
        raise NotADistribution(f"joint sums to {J.sum()!r}")
    return _conditional_entropy(J[J.sum(axis=1) > MASS_EPS])


def chain_entropy_rate(chain: MarkovChain) -> float:
    """Entropy rate of the chain itself: sum_x mu(x) H(P(x, .))."""
    mu = chain.stationary
    P = chain.transition
    return float(sum(mu[x] * _plogp(P[x]) for x in range(chain.n)))


def block_entropy(chain: MarkovChain, n: int) -> float:
    """Entropy of a stationary length-n state word: H(mu) + (n-1) * rate."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return _plogp(np.asarray(chain.stationary)) + (n - 1) * chain_entropy_rate(chain)


@dataclass(frozen=True, eq=False)
class WordTable:
    """Live block words of one length in lexicographic order: ids in base
    |blocks|, first symbol most significant; the joint mass of each word with
    the hidden state at its last instant, and with the following block.
    ``levels[m]`` holds the ids and next-block joint of the live m-words for
    every m up to this length, taken from the same pass."""

    ids: np.ndarray
    mass: np.ndarray
    next_mass: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.ids)


def lumped_forward(chain: MarkovChain, lumping: "Lumping", rho: np.ndarray,
                   n_symbols: int, first_is_current: bool) -> WordTable:
    """Joint mass over the hidden state of every live length-``n_symbols`` word.

    ``rho`` is the state mass at time 0. With ``first_is_current`` the word
    starts with the block of the time-0 state; otherwise every symbol costs
    one transition. Words are dropped by the mass rule as they are built.
    """
    nb = lumping.n_blocks
    if nb ** (n_symbols + 1) > np.iinfo(np.int64).max:
        raise HorizonTooLarge(f"{nb}^{n_symbols + 1} block words overflow 64-bit word ids")
    P = chain.transition
    B = lumping.indicator
    mass = np.asarray(rho, dtype=float)[None, :]
    live = mass.sum(axis=1) > MASS_EPS  # the empty word obeys the mass rule too
    ids, mass = np.zeros(1, dtype=np.int64)[live], mass[live]
    pushed = mass if first_is_current else mass @ P
    levels = [(ids, pushed @ B)]
    for _ in range(n_symbols):
        words, blocks = np.nonzero(levels[-1][1] > MASS_EPS)  # row-major: lexicographic
        ids, mass = ids[words] * nb + blocks, pushed[words]
        mass[lumping.of_state != blocks[:, None]] = 0.0
        pushed = mass @ P
        levels.append((ids, pushed @ B))
    return WordTable(ids=ids, mass=mass, next_mass=levels[-1][1], levels=tuple(levels))


def _conditional_entropy(joint: np.ndarray) -> float:
    """H(column | row) of a joint whose rows all have positive mass."""
    cond = joint / joint.sum(axis=1, keepdims=True)
    np.log2(cond, out=cond, where=cond > 0)
    return float(-np.vdot(joint, cond))


class BlockWordLattice:
    """Joint laws of block words at every horizon up to two depths.

    The upper tables come from one pass from the stationary law to
    ``upper_horizon`` blocks, the lower tables from one pass per start state
    x, from mass mu(x), to ``lower_horizon`` - 1 blocks after x (0: none).
    Every pass keeps each level it builds, so a horizon reads the same
    numbers whatever depth the lattice was built to.
    """

    def __init__(self, chain: MarkovChain, lumping: "Lumping",
                 upper_horizon: int, lower_horizon: int):
        self.chain, self.lumping = chain, lumping
        self.upper_horizon, self.lower_horizon = upper_horizon, lower_horizon
        self._upper = lumped_forward(chain, lumping, chain.stationary, upper_horizon, True).levels
        self._lower = []
        if lower_horizon:
            mu, eye = chain.stationary, np.eye(chain.n)
            self._lower = [lumped_forward(chain, lumping, mu[x] * eye[x],
                                          lower_horizon - 1, False).levels
                           for x in range(chain.n)]

    def upper(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the live h-words and their joint with the next block."""
        return self._upper[h]

    def lower(self, h: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per start state, ids of the live (h-1)-words after it and their
        joint with the start state and the next block."""
        return [levels[h - 1] for levels in self._lower]


_SCOPE: ContextVar[BlockWordLattice | None] = ContextVar("lattice_scope", default=None)


@contextmanager
def lattice(chain: MarkovChain, lumping: "Lumping", upper_horizon: int, lower_horizon: int,
            max_horizon: int, max_blocks: int):
    """Yield the lattice of the enclosing ``lattice`` block if it covers this
    chain, lumping and both horizons, else a new one that calls made inside
    this block share. The horizon and block count must pass the budget.
    Sharing only saves passes: a lattice reads the same at every horizon it
    covers, however deep it was built."""
    if upper_horizon > max_horizon:
        raise HorizonTooLarge(f"horizon {upper_horizon} exceeds cap {max_horizon}")
    if lumping.n_blocks > max_blocks:
        raise HorizonTooLarge(
            f"{lumping.n_blocks} blocks exceed cap {max_blocks} for path enumeration")
    lat = _SCOPE.get()
    if (lat is None or lat.chain is not chain or lat.lumping is not lumping
            or lat.upper_horizon < upper_horizon or lat.lower_horizon < lower_horizon):
        lat = BlockWordLattice(chain, lumping, upper_horizon, lower_horizon)
    token = _SCOPE.set(lat)
    try:
        yield lat
    finally:
        _SCOPE.reset(token)


def lumped_block_entropy(chain: MarkovChain, lumping: "Lumping", n: int,
                         max_horizon: int = DEFAULT_MAX_HORIZON,
                         max_blocks: int = DEFAULT_MAX_BLOCKS) -> float:
    """Entropy of a stationary length-n block word, by exact forward pass."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    with lattice(chain, lumping, n, 0, max_horizon, max_blocks) as lat:
        return _plogp(lat.upper(n)[1].sum(axis=1))


def lumped_rate_bounds(chain: MarkovChain, lumping: "Lumping", n: int,
                       max_horizon: int = DEFAULT_MAX_HORIZON,
                       max_blocks: int = DEFAULT_MAX_BLOCKS) -> EntropyBounds:
    """Sandwich on the lumped entropy rate at horizon n.

    upper = H(next block | previous n blocks), lower additionally conditions
    on the exact state at time 0. Both are computed from forward-pass joint
    distributions, not estimated.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    with lattice(chain, lumping, n, n, max_horizon, max_blocks) as lat:
        return EntropyBounds(
            horizon=n, lower=sum(_conditional_entropy(j) for _, j in lat.lower(n)),
            upper=_conditional_entropy(lat.upper(n)[1]))


def conditional_entropy_rate_estimate(chain: MarkovChain, lumping: "Lumping", n: int,
                                      max_horizon: int = DEFAULT_MAX_HORIZON,
                                      max_blocks: int = DEFAULT_MAX_BLOCKS) -> LossInterval:
    """Interval for the information lost per step by observing blocks only.

    Subtracts the horizon-n rate sandwich from the chain rate. The lower edge
    is clamped at zero: at small horizons the upper bound on the lumped rate
    can exceed the chain rate, while the true loss is never negative.
    """
    rate = chain_entropy_rate(chain)
    bounds = lumped_rate_bounds(chain, lumping, n, max_horizon, max_blocks)
    return LossInterval(horizon=n,
                        loss_lower=max(0.0, rate - bounds.upper),
                        loss_upper=float(rate - bounds.lower))


_BLACKWELL_CAVEAT = ("time average assumes the belief process is ergodic; "
                     "this is not verified")


def _block_entropies(laws: np.ndarray) -> np.ndarray:
    """Row-wise -sum p*log2(p) over the positive entries of a (rows x blocks)
    array, bit-equal to calling :func:`_plogp` on each row: rows are summed in
    groups with the same number of positive entries, compressed to those
    entries, so numpy adds the same terms in the same order."""
    pos = laws > 0
    terms = np.zeros_like(laws)
    np.log2(laws, out=terms, where=pos)
    terms *= laws
    width = pos.sum(axis=1)
    out = np.zeros(len(laws))
    for k in set(width.tolist()) - {0}:
        rows = width == k
        out[rows] = -terms[rows][pos[rows]].reshape(-1, k).sum(axis=1)
    return out


def blackwell_entropy_estimate(chain: MarkovChain, lumping: "Lumping", steps: int,
                               burn_in: int | None = None, seed: int = 0,
                               batches: int = 50) -> BlackwellEstimate:
    """Monte Carlo estimate of the lumped entropy rate via the belief chain.

    The belief is the conditional distribution of the hidden state given the
    observed blocks. Each step predicts one transition, scores the entropy of
    the induced block distribution, draws the next block from it and
    conditions the belief on the draw. The estimate is the time average of
    the per-step scores after burn-in; the standard error comes from batch
    means over ``batches`` equal slices, so at least two batches and one
    post-burn-in step per batch are required. Fixed seeds give identical
    output.

    Cost: O(steps * n^2) for n states, one belief update per step, exact for
    a fixed seed. The block laws are scored in chunks of ``_SCORE_CHUNK``
    steps, so scoring memory does not grow with ``steps`` beyond the vector
    of per-step scores.
    """
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in < steps:
        raise ValidationError("need steps > burn_in >= 0")
    if batches < 2:
        raise ValidationError("need batches >= 2 for a standard error")
    if steps - burn_in < batches:
        raise ValidationError(f"{steps - burn_in} post-burn-in steps cannot fill "
                              f"{batches} batches")
    rng = np.random.default_rng(seed)
    P = chain.transition
    B = lumping.indicator
    nb = lumping.n_blocks
    columns = [np.ascontiguousarray(B[:, y]) for y in range(nb)]

    w = np.array(chain.stationary, dtype=float)
    uniforms = rng.random(steps)
    vals = np.empty(steps - burn_in)
    laws = np.empty((_SCORE_CHUNK, nb))
    # segments of at most one chunk; scoring starts on a segment boundary
    ends = [*range(0, burn_in, _SCORE_CHUNK), *range(burn_in, steps, _SCORE_CHUNK), steps]
    for lo, hi in zip(ends, ends[1:]):
        for i, u in enumerate(uniforms[lo:hi].tolist()):
            pred = w @ P
            r = pred @ B
            laws[i] = r
            mass = r.tolist()
            cum = list(accumulate(mass))  # sequential, as np.cumsum
            y = min(bisect_right(cum, u * cum[-1]), nb - 1)
            if mass[y] < 1e-300:
                raise ZeroMassUpdate(f"drawn block {lumping.blocks[y]!r} has underflowed mass")
            w = pred * columns[y]
            w /= mass[y]
        if lo >= burn_in:
            vals[lo - burn_in:hi - burn_in] = _block_entropies(laws[:hi - lo])

    estimate = float(vals.mean())
    usable = (len(vals) // batches) * batches
    means = vals[:usable].reshape(batches, -1).mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(batches))
    return BlackwellEstimate(estimate=estimate, stderr=stderr, caveat=_BLACKWELL_CAVEAT)
