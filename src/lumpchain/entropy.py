"""Entropy functionals for stationary chains and their lumped images.

All values are in bits (binary logarithm) with the convention 0*log2(0) = 0.
Quantities over lumped words are exact: :func:`lumped_forward` pushes the
joint mass of block words and hidden state through the transition matrix,
and the bounds and lumpability verdicts read a :class:`BlockWordLattice`
(``lattice=``), which also scores H(next block | level) once per level.
Mass rule: a word of joint mass at most ``MASS_EPS``, counting its start
state's stationary weight, is dropped with all its extensions.

Cost: the upper pass to horizon h costs |blocks|^h * n^2 for n states. The
lower pass runs backward: one n-vector per realisable block word and next
block serves every start state, so building its level m costs at most
|blocks|^(m+1) * n^2 however many start states are live, and only the
previous level's vectors stay alive. Both passes keep only the
(words x blocks) next-block joints of their levels, the lower one with the
start state as the leading digit of each word id. A level is refused
before it is allocated when its rows times their width, added to the cells
the pass holds (the ids and next-block joints of the levels it keeps, and
the backward pass's live table), pass ``_LATTICE_CELL_BUDGET`` float cells,
whatever the horizon or block count.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .chain import MarkovChain
from .errors import HorizonTooLarge, ValidationError, ZeroMassUpdate

if TYPE_CHECKING:
    from .lumping import Lumping

MASS_EPS = 1e-15
_LATTICE_CELL_BUDGET = 1 << 22  # float cells one block-word pass may hold
_BELIEF_TABLE_BYTES = 3 << 20  # bytes of beliefs the filter interns before it empties its table
_BATCHES = 50  # equal slices of the filter's scores for its batch-means standard error
_TINY = np.finfo(float).smallest_subnormal  # log floor: p * log2(max(p, _TINY)) is -0.0 at p = 0


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
    return float(-(p * np.log2(p)).sum()) + 0.0  # + 0.0 turns -0.0 into 0.0


def chain_entropy_rate(chain: MarkovChain) -> float:
    """Entropy rate of the chain itself: sum_x mu(x) H(P(x, .))."""
    return float(sum(chain.stationary * _block_entropies(chain.transition)))


def block_entropy(chain: MarkovChain, n: int) -> float:
    """Entropy of a stationary length-n state word: H(mu) + (n-1) * rate."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return _plogp(np.asarray(chain.stationary)) + (n - 1) * chain_entropy_rate(chain)


@dataclass(frozen=True, eq=False)
class WordTable:
    """Live block words of every length up to one pass's horizon, in
    lexicographic order: ``levels[m]`` holds the ids (base |blocks|, first
    symbol most significant) and next-block joint of the live m-words.
    ``len`` is the number of live words of the last level."""

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.levels[-1][0])


def _check_id_width(starts: int, nb: int, n_symbols: int) -> None:
    """Refuse word ids, with ``starts`` leading start digits, that 64 bits
    cannot hold one symbol beyond ``n_symbols``. With two or more blocks, 63
    symbols already overflow, so the power is only built for fewer."""
    if (nb > 1 and n_symbols + 1 >= 63) or starts * nb ** (n_symbols + 1) > np.iinfo(np.int64).max:
        raise HorizonTooLarge(f"{starts} x {nb}^{n_symbols + 1} block words "
                              "overflow 64-bit word ids")


def _check_cells(pass_name: str, level: int, rows: int, width: int, held: int) -> None:
    """Refuse a level of a block-word pass whose rows x width float cells,
    added to the ``held`` cells the pass keeps, pass ``_LATTICE_CELL_BUDGET``,
    before the level is allocated."""
    cells = rows * width
    if cells + held > _LATTICE_CELL_BUDGET:
        raise HorizonTooLarge(f"level {level} of the {pass_name} pass needs {rows} x {width} "
                              f"= {cells} cells beside {held} held, "
                              f"over the budget {_LATTICE_CELL_BUDGET}")


def lumped_forward(chain: MarkovChain, lumping: "Lumping", rho: np.ndarray,
                   n_symbols: int, first_is_current: bool = True) -> WordTable:
    """Joint mass over the hidden state of every live length-``n_symbols`` word.

    ``rho`` is the state mass at time 0, a law such as the stationary one,
    so the empty word is live. Every word starts with the block of the
    time-0 state; that is the pass's only mode, so ``first_is_current`` must
    be True. Longer words are dropped by the mass rule as they are built.
    """
    if not first_is_current:
        raise ValidationError("a block word starts with the block of the time-0 state")
    nb = lumping.n_blocks
    _check_id_width(1, nb, n_symbols)
    P, B = chain.transition, lumping.indicator
    ids, pushed = np.zeros(1, dtype=np.int64), np.asarray(rho, dtype=float)[None, :]
    levels = [(ids, pushed @ B)]
    for level in range(1, n_symbols + 1):
        words, blocks = np.nonzero(levels[-1][1] > MASS_EPS)  # row-major: lexicographic
        held = sum(i.size + j.size for i, j in levels)  # ids and next-block joints kept
        _check_cells("forward", level, len(words), chain.n, held)
        ids, mass = ids[words] * nb + blocks, pushed[words]
        mass[lumping.of_state != blocks[:, None]] = 0.0
        pushed = mass @ P
        levels.append((ids, pushed @ B))
    return WordTable(levels=tuple(levels))


def _conditional_entropy(joint: np.ndarray) -> float:
    """H(column | row) of a joint whose rows all have positive mass.

    A conditional cell is zero only where its joint cell is, so the zero
    cells are clamped to the smallest subnormal before one unmasked log2
    (a masked one runs at about half the speed): their terms 0 * -1074 are
    -0.0 and leave the dot product's bits as the positive cells give them.
    """
    cond = joint / joint.sum(axis=1, keepdims=True)
    np.maximum(cond, _TINY, out=cond)  # only zero cells move, and their terms stay 0
    np.log2(cond, out=cond)
    return float(-np.vdot(joint, cond)) + 0.0  # + 0.0 turns -0.0 into 0.0


def _lower_levels(chain: MarkovChain, lumping: "Lumping", depth: int):
    """Every level of the lower tables to ``depth`` blocks after the start
    state, in (start, word) order, by a backward pass.

    Since joint(x, w, c) = mu(x) * (P D_w1 P ... D_wm P 1_c)(x), level m keeps
    one n-wide row per realisable m-word w and next block c. Level m+1 puts
    every block b in front of every word that a state of B_b starts (a row
    of level m positive at some next block, gathered by the block
    indicator): rows ``table[:, B_b] @ P.T[B_b]`` under ids
    ``b * nb**m + word``. Each level is read as soon as it is built, for the
    (start, word) rows the mass rule keeps; only the previous level's table
    stays alive.
    """
    n, nb, mu = chain.n, lumping.n_blocks, chain.stationary
    _check_id_width(n, nb, depth)
    P, B = chain.transition, lumping.indicator
    # block b's states padded to the largest block; padding rows of P.T are 0
    width = max(len(idx) for idx in lumping.member_indices)
    slots = np.zeros((nb, width), dtype=np.intp)
    heads = np.zeros((nb, width, n))
    for b, idx in enumerate(lumping.member_indices):
        slots[b, :len(idx)] = idx
        heads[b, :len(idx)] = P.T[idx]
    table = np.ascontiguousarray((P @ B).T)  # (word, next block) x state
    words = np.zeros(1, dtype=np.int64)
    ids = np.flatnonzero(mu > MASS_EPS)  # the empty word obeys the mass rule too
    levels = []
    for m in range(depth + 1):
        if m:
            held = sum(i.size + j.size for i, j in levels)  # ids and next-block joints kept
            _check_cells("backward", m, nb * len(words), nb * n, held + table.size)
            keep = (table.reshape(len(words), nb, n).any(axis=1) @ B > 0).T.ravel()
            table = np.matmul(table[:, slots].transpose(1, 0, 2), heads)  # (front, row, state)
            table = table.reshape(nb * len(words), nb * n)
            words = (np.arange(nb)[:, None] * nb ** (m - 1) + words).ravel()
            if not keep.all():
                kept = np.flatnonzero(keep)
                table, words = table.take(kept, axis=0), words.take(kept)
            table = table.reshape(-1, n)
            rows, blocks = np.nonzero(levels[-1][1] > MASS_EPS)  # row-major: lexicographic
            ids = levels[-1][0][rows] * nb + blocks
        start = ids // nb ** m
        cols = np.searchsorted(words, ids - start * nb ** m)
        joint = table.reshape(len(words), nb, n)[cols, :, start]
        joint *= mu.take(start)[:, None]
        levels.append((ids, joint))
    return tuple(levels)


class BlockWordLattice:
    """Joint laws of block words at every horizon up to two depths.

    The upper tables come from one forward pass from the stationary law to
    ``upper_horizon`` blocks. The lower tables cover ``lower_horizon`` - 1
    blocks after the start state (0: none), with word ids that lead with the
    start state. They come from one backward pass (:func:`_lower_levels`):
    each level is built once for all start states and read at the live
    ones, so the pass costs the realisable words times n^2, not the live
    (start, word) pairs times n^2. Every level is kept, so a horizon reads
    the same numbers whatever depth the lattice was built to. Each level's
    H(next block | level) is computed once, as the lattice is built.
    """

    def __init__(self, chain: MarkovChain, lumping: "Lumping",
                 upper_horizon: int, lower_horizon: int):
        self.chain, self.lumping = chain, lumping
        self.upper_horizon, self.lower_horizon = upper_horizon, lower_horizon
        self._upper = lumped_forward(chain, lumping, chain.stationary, upper_horizon).levels
        self._lower = _lower_levels(chain, lumping, lower_horizon - 1) if lower_horizon else ()
        self._upper_entropy = tuple(_conditional_entropy(joint) for _, joint in self._upper)
        self._lower_entropy = tuple(_conditional_entropy(joint) for _, joint in self._lower)

    def upper(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the live h-words and their joint with the next block."""
        return self._upper[h]

    def lower(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids ``start * nb**(h-1) + word`` of the live (start state,
        (h-1)-word) pairs, in that order, and their joint with the next block."""
        return self._lower[h - 1]

    def upper_entropy(self, h: int) -> float:
        """H(next block | the previous h blocks)."""
        return self._upper_entropy[h]

    def lower_entropy(self, h: int) -> float:
        """H(next block | the start state and the h - 1 blocks after it)."""
        return self._lower_entropy[h - 1]


def _lattice_for(chain: MarkovChain, lumping: "Lumping", upper: int, lower: int,
                 lattice: BlockWordLattice | None) -> BlockWordLattice:
    """``lattice``, refused unless it covers this chain, lumping and both
    horizons, or a new lattice if it is None. Sharing one only saves passes:
    a lattice reads the same at every horizon it covers, however deep."""
    if lattice is None:
        return BlockWordLattice(chain, lumping, upper, lower)
    if (lattice.chain is not chain or lattice.lumping is not lumping
            or lattice.upper_horizon < upper or lattice.lower_horizon < lower):
        raise ValidationError(f"the lattice does not cover this chain and lumping to "
                              f"upper horizon {upper} and lower horizon {lower}")
    return lattice


def lumped_block_entropy(chain: MarkovChain, lumping: "Lumping", n: int) -> float:
    """Entropy of a stationary length-n block word, by exact forward pass."""
    n = _check_integer("n", n)
    if n < 1:
        raise ValidationError("n must be >= 1")
    return _plogp(lumped_forward(chain, lumping, chain.stationary, n).levels[n][1].sum(axis=1))


def lumped_rate_bounds(chain: MarkovChain, lumping: "Lumping", n: int, *,
                       lattice: BlockWordLattice | None = None) -> EntropyBounds:
    """Sandwich on the lumped entropy rate at horizon n.

    upper = H(next block | previous n blocks), lower additionally conditions
    on the exact state at time 0. Both are computed from exact joint
    distributions, not estimated. Conditioning never raises entropy, so the
    lower edge is clamped at the upper one, which rounding could otherwise
    pass by an ulp where the two agree. ``lattice``, if given, must cover n.
    """
    n = _check_integer("n", n)
    if n < 1:
        raise ValidationError("n must be >= 1")
    lat = _lattice_for(chain, lumping, n, n, lattice)
    upper = lat.upper_entropy(n)
    return EntropyBounds(horizon=n, upper=upper, lower=min(lat.lower_entropy(n), upper))


def _loss_within(rate: float, bounds: EntropyBounds) -> LossInterval:
    """``conditional_entropy_rate_estimate`` from the chain rate and the sandwich."""
    return LossInterval(horizon=bounds.horizon,
                        loss_lower=max(0.0, rate - bounds.upper),
                        loss_upper=max(0.0, rate - bounds.lower))


def conditional_entropy_rate_estimate(chain: MarkovChain, lumping: "Lumping",
                                      n: int) -> LossInterval:
    """Interval for the information lost per step by observing blocks only.

    Subtracts the horizon-n rate sandwich from the chain rate. Both edges are
    clamped at zero, since the true loss is never negative: at small
    horizons the upper bound on the lumped rate can exceed the chain rate,
    and where no information is lost the lower bound can pass it by an ulp.
    The edges keep their order, as the lower bound never exceeds the upper.
    """
    return _loss_within(chain_entropy_rate(chain), lumped_rate_bounds(chain, lumping, n))


_BLACKWELL_CAVEAT = ("time average assumes the belief process is ergodic; "
                     "this is not verified")


def _block_entropies(laws: np.ndarray) -> np.ndarray:
    """Row-wise -sum p*log2(p) over the positive entries of a (rows x blocks)
    array, as :func:`_plogp` on each row gives it: the positive entries are
    compressed in row order before the log, and rows are summed in groups
    with the same number of them, so numpy adds the same terms in the same
    order. A row with one positive entry gives -0.0 where it gives 0.0."""
    pos = laws > 0
    p = laws[pos]
    terms = p * np.log2(p)
    width = pos.sum(axis=1)
    out = np.zeros(len(laws))
    for k in set(width.tolist()) - {0}:
        rows = width == k
        out[rows] = -terms[np.repeat(rows, width)].reshape(-1, k).sum(axis=1)
    return out


def _check_integer(name: str, value) -> int:
    """Refuse a ``bool`` or a non-integer ``value`` as a ``ValidationError``;
    Python and numpy integers pass, returned as a Python ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _uniforms(seed: int, count: int, head: int | None = None) -> np.ndarray:
    """The seeded draw of the belief filter and the sampler, which check that
    the seed and the count are integers first. A negative seed is a
    ``ValidationError``; a float64 count numpy cannot address (8 bytes each)
    is ``HorizonTooLarge``. With ``head``, only the first ``head`` of the
    ``count`` uniforms are drawn: the generator draws in order, so they are
    the same numbers, and both checks still read ``count``."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if count > np.iinfo(np.intp).max // 8:
        raise HorizonTooLarge(f"{count} uniforms do not fit in one float64 array")
    return np.random.default_rng(seed).random(count if head is None else min(count, head))


def blackwell_entropy_estimate(chain: MarkovChain, lumping: "Lumping", steps: int,
                               burn_in: int | None = None, seed: int = 0) -> BlackwellEstimate:
    """Monte Carlo estimate of the lumped entropy rate via the belief chain.

    The belief is the conditional distribution of the hidden state given the
    observed blocks. Each step predicts one transition, scores the entropy of
    the induced block distribution, draws the next block from it and
    conditions the belief on the draw. The estimate is the time average of
    the per-step scores after burn-in; the standard error comes from the
    means of ``_BATCHES`` (50) equal batches, so at least 50 post-burn-in
    steps are required. Fixed seeds give identical output.

    ``steps``, ``burn_in`` and ``seed`` must be integers (numpy integers
    too, but not ``bool``); anything else is refused before any draw.

    The filter interns its beliefs. After block y is drawn the belief lives
    on block y, and y with the bytes of its values there names it. Each
    distinct belief is predicted once, O(n^2) for n states, and keeps its
    block masses, their cumulative sums and one next-belief slot per block,
    filled the first time that block is drawn from it. A revisited step costs
    one bisection, O(log blocks), and one slot read. The block masses are
    scored once per distinct belief and gathered by belief, so every number
    is the one a per-step loop gives. The table keeps as many beliefs as fit
    in ``_BELIEF_TABLE_BYTES`` (3 MiB) and at least one: when it is full, the
    steps so far are scored and it starts empty. Every step is scored; the
    burn-in is dropped at the end. Memory is that budget (or one belief, if
    larger) plus one uniform, one score and one belief id per step
    (8 + 8 + 4 bytes), however many states the chain has and however many
    beliefs a run visits. Not counted is ``chain.stationary``: a chain whose
    stationary law is not yet cached solves for it first, a dense solve that
    holds a few n x n arrays.
    """
    _check_integer("steps", steps)
    if burn_in is None:
        burn_in = steps // 10
    _check_integer("burn_in", burn_in)
    _check_integer("seed", seed)
    if not 0 <= burn_in < steps:
        raise ValidationError("need steps > burn_in >= 0")
    if steps - burn_in < _BATCHES:
        raise ValidationError(f"{steps - burn_in} post-burn-in steps cannot fill "
                              f"{_BATCHES} batches")
    uniforms = _uniforms(seed, steps)
    P = chain.transition
    B = lumping.indicator
    nb = lumping.n_blocks
    columns = [np.ascontiguousarray(B[:, y]) for y in range(nb)]
    # where each block's beliefs live; the start belief lives on every state
    homes = [np.flatnonzero(c) for c in columns] + [slice(None)]
    vals = np.empty(steps)  # every step's score; the burn-in is cut at the end

    # The table keeps one row of nb cells per distinct belief, and a belief's
    # id is the offset of its row. Per block, the row holds the block's mass,
    # the sum of the masses up to it (sequential, as ``accumulate``) and the
    # id of the belief that drawing the block leads to (-1 until drawn). A
    # belief's key is its home block (nb for the start belief) and the bytes
    # of its values there. A new belief costs two vector-matrix products
    # (its prediction and that prediction's block masses); the first draw of
    # a block from a belief whose prediction is gone costs one more.
    index = {}  # key of a belief -> id
    key_of = []  # per belief, its key
    # A belief takes the bytes of its values on its home block, about 256
    # bytes of key tuple, bytes object, dict entry and list slot, and 20 bytes
    # a block of mass, sum and slot cells; the budget holds at least one.
    per_belief = 8 * max(len(h) for h in homes[:nb]) + 256 + 20 * nb
    capacity = max(1, _BELIEF_TABLE_BYTES // per_belief)
    size, room = 0, capacity * nb  # cells in use, and the budget in cells
    masses, cums, slots = array("d"), array("d"), array("i", [-1]) * room
    ids = array("i")  # belief of each step since the table was last emptied
    first = 0  # the step of ids[0]

    def flush():
        """Score the steps in ``ids``, each by its belief's block masses,
        then empty the table; the masses are scored once per belief."""
        nonlocal first
        index.clear()
        del key_of[:], cums[:]
        slots[:] = array("i", [-1]) * room
        scores = _block_entropies(np.frombuffer(masses).reshape(-1, nb))
        np.take(scores, np.frombuffer(ids, dtype=np.intc) // nb, out=vals[first:first + len(ids)])
        first += len(ids)
        del masses[:], ids[:]

    last = nb - 1
    w = np.array(chain.stationary, dtype=float)
    key, b = (nb, w.tobytes()), -1  # the start belief, interned as id 0
    index[key] = 0
    for u in memoryview(uniforms):
        if b < 0:  # w is new: give it the next row, predicting from it once
            b = size
            size += nb
            key_of.append(key)
            # ndarray.dot, not @: the same BLAS gemv and the same bits at
            # about half of matmul's ufunc dispatch (0.7 against 1.6 µs a
            # call on 8 states), the bulk of a new belief's cost on few states
            pred = w.dot(P)
            r = pred.dot(B)
            mass = r.tolist()
            masses.fromlist(mass)
            cums.extend(accumulate(mass))
        ids.append(b)
        end = b + last
        # the drawn block's cell; leaving out the row's last sum caps it at the last block
        cell = bisect_right(cums, u * cums[end], b, end)
        nxt = slots[cell]
        if nxt < 0:  # first draw of this block from belief b
            y = cell - b
            if pred is None:  # pred is not b's: rebuild b from its bytes, predict again
                home, values = key_of[b // nb]
                w = np.zeros(len(P))
                w[homes[home]] = np.frombuffer(values)
                pred = w.dot(P)  # .dot, not @, as above
                r = np.frombuffer(masses[b:end + 1])
            mass = r[y]  # a numpy scalar divides faster than a Python float
            if mass < 1e-300:
                raise ZeroMassUpdate(f"drawn block {lumping.blocks[y]!r} has underflowed mass")
            w = pred * columns[y]
            w /= mass
            key = (y, w[homes[y]].tobytes())
            nxt = index.setdefault(key, size)
            if nxt < size:  # a belief already in the table
                slots[cell] = nxt
                pred = None
            elif size < room:  # w is new and gets the next row
                slots[cell] = size
                nxt = -1
            else:  # full: score the steps so far; w starts an empty table
                flush()
                size, nxt = 0, -1
                index[key] = 0
        else:
            pred = None
        b = nxt
    flush()

    vals = vals[burn_in:]
    estimate = float(vals.mean())
    usable = (len(vals) // _BATCHES) * _BATCHES
    means = vals[:usable].reshape(_BATCHES, -1).mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(_BATCHES))
    return BlackwellEstimate(estimate=estimate, stderr=stderr, caveat=_BLACKWELL_CAVEAT)
