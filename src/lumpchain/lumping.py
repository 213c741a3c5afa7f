"""Lumping functions and structural analysis of lumped Markov chains.

A lumping maps every state to a block; the induced block process is what an
observer sees. This module decides the structural questions about such an
observation map: whether distinct state paths can hide behind one block word
(the split-merge index), how many state paths a block word admits, whether
the block process is a higher-order Markov chain (weakly or strongly), and
how much entropy per step is provably lost.

Realisability is structural throughout: a path is realisable iff every
consecutive pair is an edge of the transition graph, which under an
irreducible chain coincides with positive stationary path probability.

The split-merge index, the loss bound and the single forward k-sequence
check read one pair kernel: same-block state pairs held on the block diagonal
only, cut into chunks of whole blocks of at least 2 sqrt(n) states, a level a
boolean matrix per chunk, a step 2 * rows * sum |C|^2 multiply-adds over the
chunks C it reaches and Python work in proportion to the chunks. The index
and the loss bound read the levels of the pairs on minimal pair paths, one
``(n x n)`` small-int matrix from a forward search and a backward sweep:
O(depth * n^2 * (b + sqrt(n))) time at worst for a largest block of b states,
the depth at most ``pair_depth_cap``. When no two states of one block share a
successor, no split can merge again: the index is infinite after one product
per chunk, and no search runs. A greedy walk over the levels gives the
index's witness, a search over block words the loss bound's minimal words and
the states K_i ⊆ B_i their pair paths visit. Each word's windows are scored at
once with one chain of semiring products over those states, O(words * rows *
sum |K_i| |K_{i+1}|) for ``rows`` check states per word; only the windows
scoring near the best have paths listed. The minimal words can be
exponentially many, so past a budget the loss bound is refused before it
scores any; the index itself stays polynomial.

The k-sequence check steps k - 2 levels back from every same-block pair,
diagonal included, with one fork product per chunk a level, and a greedy
walk rebuilds the first violating state sequence: O(k * n * sum |C|^2) time,
and no verdict enumerates state paths. The single-entry check is one
``(n x blocks)`` count product. The weak and strong checks read the tables
and per-level entropies of one block-word lattice (``entropy.lattice``) and
ask it one question through one comparison (``_conditionals_apart``): does
conditioning on more than a coarse context (the word's last k blocks for
weak, the start block for strong) move the next-block law by more than tol?
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chain import MarkovChain
from .entropy import _TINY, _plogp, lattice, lumped_rate_bounds
from .entropy import lumped_forward  # noqa: F401  (stays importable from here)
from .errors import (
    HorizonTooLarge,
    KTooSmall,
    TrivialLumping,
    UnknownBlock,
    UnknownState,
    ValidationError,
)

DEFAULT_PROB_TOL = 1e-9
_SFS_TABLE_BUDGET = 1 << 22  # SFS table cells over all levels: (k-1) * sum |C|^2 bytes
_WINDOW_STEP_BUDGET = 1 << 14  # loss bound: minimal block words times their length
_MAX_TIMES_SLICE = 1 << 16  # max-times products formed at once: 512 KiB of floats


class Lumping:
    """Surjective map from states to blocks, with a preimage index.

    Blocks are ordered by first appearance along the chain's state order, so
    construction is deterministic. Instances are immutable.
    """

    __slots__ = ("states", "blocks", "of_state", "member_indices", "indicator", "_block_index")

    def __init__(self, states: Sequence[str], blocks: Sequence[str], of_state: np.ndarray):
        self.states = tuple(states)
        self.blocks = tuple(blocks)
        self.of_state = of_state
        of_state.setflags(write=False)
        self.member_indices = tuple(np.flatnonzero(of_state == b)
                                    for b in range(len(self.blocks)))
        self.indicator = (of_state[:, None] == np.arange(len(self.blocks))).astype(float)
        self.indicator.setflags(write=False)
        self._block_index = {b: i for i, b in enumerate(self.blocks)}

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def map(self) -> dict[str, str]:
        return {s: self.blocks[self.of_state[i]] for i, s in enumerate(self.states)}

    def block_index(self, label: str) -> int:
        try:
            return self._block_index[label]
        except KeyError:
            raise UnknownBlock(f"unknown block {label!r}") from None

    def preimage(self, label: str) -> tuple[str, ...]:
        return tuple(self.states[i] for i in self.member_indices[self.block_index(label)])

    def __repr__(self) -> str:
        return f"Lumping(blocks={self.blocks!r})"


def build_lumping(chain: MarkovChain, assignment: Mapping[str, str],
                  allow_trivial: bool = False) -> Lumping:
    """Validate a state-to-block assignment against a chain.

    The assignment must be total over the chain's states. Non-trivial
    lumpings have at least two blocks and merge at least two states;
    degenerate maps need ``allow_trivial=True``.
    """
    missing = [s for s in chain.states if s not in assignment]
    if missing:
        raise ValidationError(f"lumping missing states: {missing}")
    extra = [s for s in assignment if s not in chain._index]
    if extra:
        raise UnknownState(f"lumping names unknown states: {extra}")
    seen: dict[str, int] = {}  # block labels in order of first appearance
    of_state = np.array([seen.setdefault(str(assignment[s]), len(seen)) for s in chain.states])
    blocks = list(seen)
    if not allow_trivial and not (2 <= len(blocks) < chain.n):
        raise TrivialLumping(
            f"{len(blocks)} blocks over {chain.n} states; "
            "pass allow_trivial=True to analyse a degenerate lumping")
    return Lumping(chain.states, blocks, of_state)


def identity_lumping(chain: MarkovChain) -> Lumping:
    """Each state its own block (degenerate; provided for reference runs)."""
    return build_lumping(chain, {s: s for s in chain.states}, allow_trivial=True)


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class SplitMergeWitness:
    """Two distinct realisable state paths sharing endpoints and block word.

    ``path_a`` and ``path_b`` have length ``kappa``; prefixed by
    ``check_state`` and suffixed by ``hat_state`` they form two realisable
    trajectories with identical block image. At the minimal index the two
    paths differ in every coordinate.
    """

    kappa: int
    check_state: str
    hat_state: str
    lumped_word: tuple[str, ...]
    path_a: tuple[str, ...]
    path_b: tuple[str, ...]


@dataclass(frozen=True)
class SplitMergeResult:
    kappa: float  # positive integer, or math.inf when no witness exists
    witness: SplitMergeWitness | None


@dataclass(frozen=True)
class LossBound:
    """Certified lower bound on the per-step entropy loss of a lumping.

    ``loss_entropy`` is the entropy of the hidden path across the witness
    window given that the trajectory traverses it; ``alpha`` is a long-run
    rate of disjoint traversals, so ``rate_lower_bound = alpha *
    loss_entropy`` bounds the conditional entropy rate from below and
    ``growth_constant = 2**alpha`` bounds the preimage-count growth.
    """

    witness: SplitMergeWitness
    loss_entropy: float
    alpha: float
    rate_lower_bound: float
    growth_constant: float


@dataclass(frozen=True)
class SingleEntryViolation:
    state: str
    block: str
    successor_a: str
    successor_b: str


@dataclass(frozen=True)
class SingleEntryResult:
    holds: bool
    violation: SingleEntryViolation | None


@dataclass(frozen=True)
class SfsViolation:
    """Two realisable preimage paths for one block word from one start block."""

    block_word: tuple[str, ...]
    start_block: str
    start_a: str
    path_a: tuple[str, ...]
    start_b: str
    path_b: tuple[str, ...]


@dataclass(frozen=True)
class SfsResult:
    order_k: int
    holds: bool
    violation: SfsViolation | None


@dataclass(frozen=True)
class LumpabilityCounterexample:
    """Conditioning context with two conditional probabilities that differ."""

    conditioning: tuple[str, ...]
    symbol: str
    prob_a: float
    prob_b: float


@dataclass(frozen=True)
class WeakHorizonVerdict:
    verdict: bool
    horizon: int


@dataclass(frozen=True)
class LumpabilityVerdict:
    order_k: int
    strong: bool | None = None
    weak_up_to_horizon: WeakHorizonVerdict | None = None
    witness: LumpabilityCounterexample | None = None
    rate_bound_lower: float | None = None
    rate_bound_upper: float | None = None
    conditional_entropies: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# preimages


def preimage_count(chain: MarkovChain, lumping: Lumping, word: Sequence[str]) -> int:
    """Number of realisable state words with the given block image.

    Polynomial dynamic programme over exact integers: carry, per state, the
    count of realisable prefixes ending there; push counts along the edges
    from the current block into the next. Cost: O(len(word) * edges between
    consecutive blocks) after one pass over the edges per call; counts are
    Python ints, so they stay exact however large they grow.
    """
    w = [lumping.block_index(b) for b in word]
    if not w:
        return 1  # the empty state word
    block = lumping.of_state.tolist()
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (block, next block)
    for x, y in zip(*(a.tolist() for a in np.nonzero(chain.adjacency))):
        edges.setdefault((block[x], block[y]), []).append((x, y))
    n = chain.n
    counts = [int(b == w[0]) for b in block]
    for a, b in zip(w, w[1:]):
        nxt = [0] * n
        for x, y in edges.get((a, b), ()):
            nxt[y] += counts[x]
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# split-merge index


def pair_depth_cap(lumping: Lumping) -> int:
    """Number of ordered same-block state pairs; finite indices never exceed it."""
    return sum(len(m) * (len(m) - 1) for m in lumping.member_indices)


def _chunk_states(chunks: list[int], spans):
    """The renumbered states of sorted chunks: a slice when they are consecutive."""
    if chunks[-1] - chunks[0] == len(chunks) - 1:
        return slice(spans[chunks[0]][0], spans[chunks[-1]][1])
    return np.concatenate([np.arange(*spans[c]) for c in chunks])


def _chunk_pairs(chunks, X, G, spans, depth, want):
    """For each chunk, the pairs that ``X.T @ G`` joins on its diagonal square
    and whose depth is ``want``; X and G hold the chunks' states as columns,
    in order."""
    level, at = [], 0
    for c in chunks:
        s, e = spans[c]
        F = (X[:, at:at + e - s].T @ G[:, at:at + e - s] > 0) & (depth[s:e, s:e] == want)
        at += e - s
        if F.any():
            level.append((c, F))
    return level


def _pair_step(X, level, spans, reach, depth, want):
    """The pairs one step of ``X`` away from a level's pairs whose depth is
    ``want``: ``G = blockdiag(F) @ X``, one product per chunk of the level,
    then ``X.T @ G`` on the square of each chunk that ``reach`` says the
    level's chunks step into."""
    touched = sorted(set().union(*(reach[c] for c, _ in level)))
    X = X[_chunk_states([c for c, _ in level], spans)][:, _chunk_states(touched, spans)]
    G = np.empty_like(X)
    at = 0
    for _, F in level:
        np.matmul(F.astype(np.float32), X[at:at + len(F)], out=G[at:at + len(F)])
        at += len(F)
    return _chunk_pairs(touched, X, G, spans, depth, want)


def _chunk_spans(lumping: Lumping) -> list[tuple[int, int]]:
    """The chunks: runs of whole blocks, in order, of at least 2 sqrt(n) states."""
    n, cuts = len(lumping.of_state), [0]
    for end in itertools.accumulate(map(len, lumping.member_indices)):
        if end - cuts[-1] >= 2 * math.sqrt(n) or end == n:
            cuts.append(end)
    return list(zip(cuts, cuts[1:]))


def _chunk_layout(chain: MarkovChain, lumping: Lumping):
    """The block-diagonal layout of the pair kernels: ``order`` renumbers the
    states block by block, so each chunk of ``_chunk_spans`` is a diagonal
    square; the float32 adjacency in that order; and a boolean ``apart``,
    true on the cells of a square that join two blocks."""
    spans, order = _chunk_spans(lumping), np.concatenate(lumping.member_indices)
    A = chain.adjacency[order][:, order].astype(np.float32)  # a sum is > 0 iff a term is
    apart = np.zeros((chain.n, chain.n), dtype=bool)  # only the chunks' squares are read
    block = lumping.of_state[order]
    for s, e in spans:
        if block[s] != block[e - 1]:
            np.not_equal(block[s:e, None], block[None, s:e], out=apart[s:e, s:e])
    return order, spans, A, apart


def _pair_levels(chain: MarkovChain, lumping: Lumping):
    """Split-merge index, the level of every pair on a minimal pair path and
    the states of the first level's pairs.

    A pair (u, v) of distinct same-block states stands for two parallel state
    paths with one block word. Start pairs have a common predecessor, end
    pairs a common successor, and the index is the length of the shortest
    pair path from a start to an end pair. Without an end pair no split can
    merge again (the reversed chain is single entry), so the index is
    infinite and no search runs. Otherwise a forward search labels each pair
    with its distance from the starts, one level of unvisited pairs per step,
    so within ``pair_depth_cap`` levels; a backward sweep from the end pairs
    then clears every pair that leads to none. So ``depth[u, v] = d > 0`` iff
    (u, v) is the d-th pair of a minimal pair path, and ``depth`` is
    symmetric; ``first`` lists, in order, the states u with ``depth[u, v] =
    1`` for some v. Returns ``(kappa, depth, first)``, or ``(math.inf, None,
    None)``.

    Levels are held per chunk (``_chunk_layout``), and a step (``_pair_step``)
    costs 2 * rows * sum |C|^2 multiply-adds, ``rows`` being the states of the
    level's chunks. Peak memory is the float32 adjacency, the ``(n x n)`` small
    ints and one step's rows of the adjacency, G and chunk products (4 n^2
    bytes each at most): about 2 * ``chain.transition.nbytes``, pinned on 300
    states.
    """
    order, spans, A, apart = _chunk_layout(chain, lumping)
    # signed and small, for less peak memory; a pair's cell starts at 0
    depth = np.zeros((chain.n, chain.n), np.min_scalar_type(-pair_depth_cap(lumping) - 1))
    top = np.iinfo(depth.dtype).max
    depth[apart] = top
    del apart
    np.fill_diagonal(depth, top)  # a state and itself are no pair
    ends = [A[s:e] @ A[s:e].T > 0 for s, e in spans]  # pairs with a common successor
    if not any((E & (depth[s:e, s:e] == 0)).any() for E, (s, e) in zip(ends, spans)):
        return math.inf, None, None  # no end pair: no split can merge again
    level = _chunk_pairs(range(len(spans)), A, A, spans, depth, 0)  # one step from every (x, x)
    kappa = 1
    while level:
        keep = [(c, K) for c, F in level if (K := F & ends[c]).any()]
        if keep:  # the last level: the sweep below writes its kept pairs alone
            break
        for c, F in level:
            s, e = spans[c]
            depth[s:e, s:e][F] = kappa
        if kappa == 1:  # the chunks each chunk's states step into, forward and back
            starts = [s for s, _ in spans]
            graph = np.add.reduceat(np.add.reduceat(A, starts, axis=0), starts, axis=1) > 0
            succ, pred = ([np.flatnonzero(g).tolist() for g in m] for m in (graph, graph.T))
        level = _pair_step(A, level, spans, succ, depth, 0)
        kappa += 1
    else:
        return math.inf, None, None
    # kept pairs get their level negated; each level looks only at predecessors
    for d in range(kappa, 0, -1):
        for c, K in keep:
            s, e = spans[c]
            depth[s:e, s:e][K] = -d
        if d > 1:
            keep = _pair_step(A.T, keep, spans, pred, depth, d - 1)
    np.negative(depth, out=depth)
    np.maximum(depth, 0, out=depth)  # 0 for pairs off the minimal paths and for no pair
    first = np.sort(np.concatenate([order[slice(*spans[c])][K.any(axis=1)] for c, K in keep]))
    at = np.argsort(order)
    depth = depth[at]  # back to the chain's state order, one axis at a time
    return kappa, depth[:, at], first


def _smallest_path(adj: np.ndarray, allowed: list[np.ndarray]) -> list[int]:
    """The state-index-smallest path whose i-th state lies in ``allowed[i]``;
    one must exist. Masks of the states that can still follow the rest are
    built backward, then each step takes the smallest successor among them."""
    follows = [allowed[-1]]
    for mask in reversed(allowed[:-1]):
        follows.append(mask & adj[:, follows[-1]].any(axis=1))
    path = [int(np.argmax(follows.pop()))]
    while follows:
        path.append(int(np.argmax(adj[path[-1]] & follows.pop())))
    return path


def split_merge_index(chain: MarkovChain, lumping: Lumping) -> SplitMergeResult:
    """Shortest length of two distinct parallel state paths with shared
    endpoints and block image; ``math.inf`` when no such pair exists, which
    is known without a pair search when no two states of one block share a
    successor.

    The reported witness is the lexicographically smallest (by state index)
    among the minimal ones, with ``path_a < path_b``: a greedy walk over the
    pair levels (``_pair_levels``) takes for ``path_a`` the smallest state at
    each step that some partner path can still follow, then for ``path_b``
    the smallest such partner path.
    """
    kappa, depth, first = _pair_levels(chain, lumping)
    if not math.isfinite(kappa):
        return SplitMergeResult(kappa=math.inf, witness=None)
    adj = chain.adjacency
    a, options, partners = [], first, np.ones(chain.n, dtype=bool)
    for d in range(1, kappa + 1):
        u = int(options[np.argmax(((depth[options] == d) & partners).any(axis=1))])
        a.append(u)
        options, partners = np.flatnonzero(adj[u]), adj[partners & (depth[u] == d)].any(axis=0)
    b = _smallest_path(adj, [depth[u] == d for d, u in enumerate(a, start=1)])
    check = int(np.flatnonzero(adj[:, a[0]] & adj[:, b[0]])[0])
    hat = int(np.flatnonzero(adj[a[-1]] & adj[b[-1]])[0])
    return SplitMergeResult(kappa=kappa, witness=_witness(chain, lumping, check, a, b, hat))


def _witness(chain: MarkovChain, lumping: Lumping, check: int, path_a, path_b,
             hat: int) -> SplitMergeWitness:
    """The witness of two parallel state-index paths from ``check`` to ``hat``."""
    names = chain.states
    return SplitMergeWitness(
        kappa=len(path_a), check_state=names[check], hat_state=names[hat],
        lumped_word=tuple(lumping.blocks[lumping.of_state[x]] for x in path_a),
        path_a=tuple(names[x] for x in path_a), path_b=tuple(names[x] for x in path_b))


# ---------------------------------------------------------------------------
# structural sufficient conditions


def check_single_entry(chain: MarkovChain, lumping: Lumping) -> SingleEntryResult:
    """At most one edge from any state into any block.

    One ``(states x blocks)`` product counts the edges from each state into
    each block; the violation is the first (state, block) in row-major order
    with a count above one, with its two lowest-index successors there.
    """
    over = chain.adjacency @ lumping.indicator > 1
    if not over.any():
        return SingleEntryResult(True, None)
    x, b = divmod(int(np.argmax(over)), lumping.n_blocks)
    hits = np.flatnonzero(chain.adjacency[x] & (lumping.of_state == b))
    return SingleEntryResult(False, SingleEntryViolation(
        state=chain.states[x],
        block=lumping.blocks[b],
        successor_a=chain.states[int(hits[0])],
        successor_b=chain.states[int(hits[1])]))


def _sfs_tables(chain: MarkovChain, lumping: Lumping, levels: int):
    """Backward completion tables, by the number r of steps left: ``pairs[r]``
    marks the same-block pairs (u, v), u = v included, from which two state
    paths of r more steps share one block word, ``forks[r]`` the states u
    from which two different such paths leave. Above level 0 each level is a
    ``_pair_step`` back over every chunk (a level pairs each state with
    itself), held per chunk C, and a product per chunk for ``forks``: 3 * n *
    sum |C|^2 multiply-adds. Returns ``row(r, y)``, y's row of ``pairs[r]``,
    and ``forks``, both in state order."""
    of_state, forks = lumping.of_state, [np.zeros(chain.n, dtype=bool)]
    if levels > 1:  # level 0 is every same-block pair: no layout
        order, spans, A, mask = _chunk_layout(chain, lumping)
        at, every = np.argsort(order), [range(len(spans))] * len(spans)
        chunk = np.repeat(np.arange(len(spans)), [e - s for s, e in spans])[at]  # of each state
        level, pairs = [(c, ~mask[s:e, s:e]) for c, (s, e) in enumerate(spans)], [None]
        for _ in range(levels - 1):
            fork = A @ forks[-1][order] > 0
            for c, F in level:
                AC, apart = A[:, spans[c][0]:spans[c][1]], F.copy()
                np.fill_diagonal(apart, False)  # AC @ apart: successors y != y' paired with y'
                fork |= (AC @ apart * AC).any(axis=1)
            forks.append(fork[at])
            level = _pair_step(A.T, level, spans, every, mask, False)
            pairs.append(dict(level))

    def row(r, y):
        if r == 0:
            return of_state == of_state[y]
        (s, e), out = spans[chunk[y]], np.zeros(len(of_state), dtype=bool)
        out[order[s:e]] = pairs[r][chunk[y]][at[y] - s]
        return out
    return row, forks


def check_sfs(chain: MarkovChain, lumping: Lumping, k: int) -> SfsResult:
    """Single forward k-sequence property.

    Holds iff for every block word of length k-1 and every start block there
    is at most one realisable preimage path reachable from the start block's
    states. The start states themselves may differ; uniqueness is demanded of
    the path, per word and start block.

    The witness is the first violation in lexicographic state-index order of
    the sequences ``(x0, y1..y_{k-1})``: the first sequence whose path differs
    from the path of the first sequence with the same start block and block
    word, which gives ``start_a`` and ``path_a``. Backward tables over
    same-block pairs (``_sfs_tables``) say which partial sequences can still
    be completed into a violation, and a greedy walk takes the smallest
    successor that can, tracking the earlier sequences that may differ from
    it: the one that is equal so far, those with a smaller start and the same
    path, and those already smaller and diverged. Cost: one pair step and one
    fork product per level on the block-diagonal chunks C, O(k * n * sum
    |C|^2), none at k = 2; ``(k-1) * sum |C|^2`` table cells above
    ``_SFS_TABLE_BUDGET`` are refused before anything is allocated.
    """
    if k < 2:
        raise KTooSmall("the forward-sequence property needs k >= 2")
    n = chain.n
    cells = (k - 1) * sum((e - s) ** 2 for s, e in _chunk_spans(lumping))
    if cells > _SFS_TABLE_BUDGET:
        raise HorizonTooLarge(f"SFS tables for k={k} need {k - 1} levels of same-chunk state "
                              f"pairs, {cells} cells over the budget {_SFS_TABLE_BUDGET}")
    adj, of_state = chain.adjacency, lumping.of_state
    pair_row, forks = _sfs_tables(chain, lumping, k - 1)

    def first_completable(u, loose, diverged, left):
        """Position among u's successors of the first one, y, that a
        violation can pass through with ``left`` steps after it, or None.

        Earlier sequences are tracked as partners of the one being built:
        the equal one, loose ones (smaller start, same path) and diverged
        ones; ``loose`` and ``diverged`` hold the states the last two can
        step to. The equal partner must fork off lower later (``forks``) or
        step to a lower successor now; a loose partner must step off y and a
        diverged one anywhere, to a state paired with y (``pairs``).
        """
        S = np.flatnonzero(adj[u])
        partners = loose | diverged
        for i, y in enumerate(S.tolist()):
            paired = pair_row(left, y)
            near = paired & partners
            near[y] = paired[y] and diverged[y]
            if forks[left][y] or near.any() or paired[S[:i]].any():
                return S, i
        return S, None

    none = np.zeros(n, dtype=bool)
    reached = np.zeros((lumping.n_blocks, n), dtype=bool)  # successors of smaller starts
    for x0 in range(n):
        loose = reached[of_state[x0]]
        S, i = first_completable(x0, loose, none, k - 2)
        if i is not None:
            break
        reached[of_state[x0]] |= adj[x0]
    else:
        return SfsResult(order_k=k, holds=True, violation=None)
    path = [int(S[i])]
    diverged = none
    while len(path) < k - 1:
        y = path[-1]
        now = (loose | diverged) & (of_state == of_state[y])  # partners on y's block
        now[y] = diverged[y]  # after this step, all diverged
        now[S[:i]] |= of_state[S[:i]] == of_state[y]
        loose = adj[y] if loose[y] else none
        diverged = now @ adj
        S, i = first_completable(y, loose, diverged, k - 2 - len(path))
        path.append(int(S[i]))

    # the first sequence with this start block and block word
    first = _smallest_path(adj, [of_state == of_state[y] for y in (x0, *path)])
    return SfsResult(order_k=k, holds=False, violation=SfsViolation(
        block_word=tuple(lumping.blocks[of_state[y]] for y in path),
        start_block=lumping.blocks[of_state[x0]],
        start_a=chain.states[first[0]],
        path_a=tuple(chain.states[i] for i in first[1:]),
        start_b=chain.states[x0],
        path_b=tuple(chain.states[i] for i in path)))


# ---------------------------------------------------------------------------
# higher-order lumpability


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def _conditionals_apart(joint: np.ndarray, coarse, coarse_ids: np.ndarray, tol: float):
    """Next-block conditionals of a level's rows and of the rows of the coarse
    level ``(ids, joint)`` with ids ``coarse_ids``, one per row, and the cells
    more than ``tol`` apart. A coarse context is at least as heavy as those it
    coarsens, so only rounding drops it; its rows get no such cell."""
    ids, rows = coarse
    at = np.searchsorted(ids, coarse_ids)
    np.minimum(at, len(ids) - 1, out=at)
    cond, coarse_cond = (j / j.sum(axis=1, keepdims=True) for j in (joint, rows[at]))
    live = ids[at] == coarse_ids
    return cond, coarse_cond, (np.abs(cond - coarse_cond) > tol) & live[:, None]


def _counterexample(lumping: Lumping, head: tuple[str, ...], word: int, length: int,
                    symbol: int, prob_a: float, prob_b: float) -> LumpabilityCounterexample:
    """The context ``head`` then the ``length`` blocks of word id ``word``,
    where next block ``symbol`` has conditional ``prob_a``, ``prob_b`` coarsely."""
    blocks = np.unravel_index(word, (lumping.n_blocks,) * length)
    return LumpabilityCounterexample(
        conditioning=head + tuple(lumping.blocks[b] for b in blocks),
        symbol=lumping.blocks[symbol], prob_a=float(prob_a), prob_b=float(prob_b))


def check_strong_lumpable(chain: MarkovChain, lumping: Lumping, k: int,
                          tol: float = DEFAULT_PROB_TOL) -> LumpabilityVerdict:
    """Order-k strong lumpability via start-state independence.

    For every start state, block word of length k-1 and next block, all with
    positive joint mass, the next-block conditional given the exact start
    state must equal the one given only the start block, its coarse context:
    the lower table at horizon k against the upper one of one lattice, in one
    comparison (``_conditionals_apart``). The witness is the first violation
    by (word, start block, start state, next block). The verdict also
    reports the horizon-k rate bounds, which agree to rounding when the
    check passes.
    """
    if k < 1:
        raise KTooSmall("strong lumpability order must be >= 1")
    _check_tol(tol)
    nb = lumping.n_blocks
    with lattice(chain, lumping, k, k) as lat:
        ids, joint = lat.lower(k)
        start, word = np.divmod(ids, nb ** (k - 1))
        block = lumping.of_state[start]
        cond, block_cond, apart = _conditionals_apart(
            joint, lat.upper(k), block * nb ** (k - 1) + word, tol)
        bounds = lumped_rate_bounds(chain, lumping, k)
    bad_row, bad_y = np.nonzero(apart & (cond > 0.0))
    witness = None
    if bad_row.size:
        first = np.lexsort((bad_y, start[bad_row], block[bad_row], word[bad_row]))[0]
        r, y = bad_row[first], bad_y[first]
        witness = _counterexample(lumping, (chain.states[start[r]],), word[r], k - 1, y,
                                  cond[r, y], block_cond[r, y])
    return LumpabilityVerdict(order_k=k,
                              strong=witness is None,
                              witness=witness,
                              rate_bound_lower=bounds.lower,
                              rate_bound_upper=bounds.upper)


def check_weak_lumpable(chain: MarkovChain, lumping: Lumping, k: int, horizon: int,
                        tol: float = DEFAULT_PROB_TOL) -> LumpabilityVerdict:
    """Order-k Markov property of the stationary block process, checked for
    all conditioning lengths up to ``horizon``.

    The verdict is horizon-qualified; nothing is claimed beyond it. The
    witness is the first (length, word, next block) whose conditional departs
    from the one given the word's last k blocks (``_conditionals_apart``).
    The returned conditional entropies H(next block | previous m blocks) for
    m = 1..horizon flatten from m = k onward exactly when the process is
    order-k Markov up to the horizon.
    """
    if k < 1:
        raise KTooSmall("weak lumpability order must be >= 1")
    if horizon < k:
        raise ValidationError("horizon must be >= k")
    _check_tol(tol)
    nb = lumping.n_blocks
    witness = None
    with lattice(chain, lumping, horizon, 0) as lat:
        entropies = tuple(lat.upper_entropy(length) for length in range(1, horizon + 1))
        for length in range(k + 1, horizon + 1):
            ids, joint = lat.upper(length)
            cond, short, apart = _conditionals_apart(joint, lat.upper(k), ids % nb ** k, tol)
            if apart.any():
                r, y = divmod(int(np.argmax(apart)), nb)  # first in (word, symbol) order
                witness = _counterexample(lumping, (), ids[r], length, y,
                                          cond[r, y], short[r, y])
                break
    return LumpabilityVerdict(
        order_k=k,
        weak_up_to_horizon=WeakHorizonVerdict(verdict=witness is None, horizon=horizon),
        witness=witness,
        conditional_entropies=entropies)


# ---------------------------------------------------------------------------
# quantified entropy loss


def _window_paths(chain: MarkovChain, check: int, on: list[np.ndarray], hat: int):
    """Realisable middles of a window over its kept states ``on``, with their probabilities."""
    adj, P = chain.adjacency, chain.transition
    paths = [((check,), float(chain.stationary[check]))]
    for states in on:
        paths = [(path + (x,), prob * P[path[-1], x]) for path, prob in paths
                 for x in states.tolist() if adj[path[-1], x]]
    return [(path[1:], prob * P[path[-1], hat]) for path, prob in paths if adj[path[-1], hat]]


def _minimal_words(chain: MarkovChain, lumping: Lumping, kappa: int, depth: np.ndarray,
                   first: np.ndarray):
    """Block words of the minimal pair paths with their kept states, as
    ``(word, on)``: ``on[i]`` holds the states of the level-(i+1) pairs
    reachable along the word, ``first`` those of every level-1 pair.

    A stack search extends a word one block at a time, carrying the level's
    kept pairs reachable along it. At the minimal index two middle paths of
    one window differ at every step, so every middle path of a window runs
    over those pairs' states. Every word the search extends leads to a
    minimal one, so a budget on those bounds the search.
    """
    adj, of_state = chain.adjacency, lumping.of_state
    found, stack = [], [((), [], None)]
    while stack:
        word, on, M = stack.pop()
        if len(word) == kappa:
            found.append((word, on))
            if len(found) * kappa > _WINDOW_STEP_BUDGET:
                raise HorizonTooLarge(f"{len(found)} minimal block words of length {kappa} exceed "
                                      f"the loss bound's {_WINDOW_STEP_BUDGET} word steps")
            continue
        d = len(word) + 1
        reach = np.flatnonzero(adj[on[-1]].any(axis=0)) if word else first
        for b in sorted(set(of_state[reach].tolist())):
            y = reach[of_state[reach] == b]
            step = depth[y[:, None], y] == d
            if word:
                T = adj[on[-1][:, None], y].astype(np.float32)  # > 0 iff one term is
                step &= T.T @ M @ T > 0
            kept = step.any(axis=1)  # = step.any(axis=0): the pairs are symmetric
            if kept.any():
                stack.append(((*word, b), [*on, y[kept]], step[kept][:, kept]))
    return found


def _max_times(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Max-times product: entry (i, k) is the largest ``V[i, j] * T[j, k]``.

    One pass over the nonzeros of T grouped by column: each nonzero
    ``T[j, k]`` forms the products ``V[:, j] * T[j, k]`` once, and
    ``np.maximum.reduceat`` takes each column's largest. Every product is
    exact, so the grouping leaves the maximum's bits alone. The nonzeros go
    in slices of at most ``_MAX_TIMES_SLICE`` products, so the work is
    O(rows * nonzeros of T) and the scratch beside the output and two index
    vectors over the nonzeros is a few slices of 512 KiB, however dense T is.
    """
    rows = V.shape[0]
    out = np.zeros((rows, T.shape[1]))
    k, j = np.nonzero(T.T)  # column-major: each column's nonzeros are adjacent
    step = max(1, _MAX_TIMES_SLICE // max(rows, 1))
    for at in range(0, len(k), step):
        ks, js = k[at:at + step], j[at:at + step]
        prods = V[:, js]
        prods *= T[js, ks]
        first = np.empty(len(ks), dtype=bool)  # the first nonzero of each column
        first[0] = True
        np.not_equal(ks[1:], ks[:-1], out=first[1:])
        starts = first.nonzero()[0]
        cols = ks[starts]  # a column cut by the slice seam keeps its earlier maximum
        out[:, cols] = np.maximum(out[:, cols], np.maximum.reduceat(prods, starts, axis=1))
    return out


def entropy_loss_bound(chain: MarkovChain, lumping: Lumping) -> LossBound | None:
    """Certified per-step entropy loss, absent iff no split-merge exists.

    Among the minimal witness windows the one maximising alpha times the
    window entropy is reported; any window yields a sound bound, the maximum
    is simply the strongest one found. The minimal block words and the
    states K_i ⊆ B_i their pair paths visit come from the pair levels
    (``_minimal_words``), and every middle path of a window runs over them,
    so the maximum runs over all windows. The traversal-rate constant alpha
    uses the most probable realisable path through the chosen window.

    Every window of one block word is scored at once by one chain of
    products over the word's transition blocks ``P[K_i, K_{i+1}]``, from
    the check states to the hat states: ordinary products give the total
    mass Z of the middle paths, the expectation semiring their sum S of
    p·log2 p, max-times products the top path, and path counts clipped at
    2 the windows, the cells with two paths or more; the window entropy is
    ``log2 Z - S/Z``. That costs O(words · rows · Σ|K_i|·|K_{i+1}|) for
    ``rows`` check states per word. Only the windows whose score lies
    within a rounding margin of the best are then scored exactly from
    their enumerated paths, and the best of those is reported, so the
    result does not depend on the rounding of the products. Past
    ``_WINDOW_STEP_BUDGET`` minimal words times their length it raises
    ``HorizonTooLarge`` before scoring any.
    """
    return _loss_bound(chain, lumping, *_pair_levels(chain, lumping))


def _loss_bound(chain: MarkovChain, lumping: Lumping, kappa, depth, first) -> LossBound | None:
    """``entropy_loss_bound`` from the pair levels."""
    if not math.isfinite(kappa):
        return None
    P, mu, adj = chain.transition, chain.stationary, chain.adjacency
    scored = []  # (word, kept states, checks, hats, score, rounding bound) per word
    for word, on in _minimal_words(chain, lumping, kappa, depth, first):
        checks = np.flatnonzero(adj[:, on[0]].sum(axis=1) >= 2)
        hats = np.flatnonzero(adj[on[-1]].sum(axis=0) >= 2)
        states = [checks, *on, hats]
        for i, (a, b) in enumerate(zip(states, states[1:])):
            T = P[a[:, None], b]
            TlogT = np.maximum(T, _TINY)
            np.log2(TlogT, out=TlogT)
            TlogT *= T  # -0.0 where T is 0
            E = (T > 0).astype(np.float32)  # path counts clipped at 2 are exact in float32
            if i == 0:
                Z, S, V, C = T, TlogT, T, E
            else:
                Z, S, V = Z @ T, S @ T + Z @ TlogT, _max_times(V, T)
                C = np.minimum(C @ E, 2)
        r, c = np.nonzero(C >= 2)  # the windows
        logz, mean = np.log2(Z[r, c]), S[r, c] / Z[r, c]
        alpha = mu[checks[r]] * V[r, c] / (2.0 * (kappa + 2))
        # a relative 1e-9 of both terms, and an absolute 1e-12 bits for
        # log2 Z near 0, where the two cancel on nearly deterministic windows
        bound = alpha * (1e-9 * (np.abs(logz) + np.abs(mean)) + 1e-12)
        scored.append((word, on, checks[r], hats[c], alpha * (logz - mean), bound))
    floor = max(float(np.max(score - bound)) for *_, score, bound in scored)

    best = None  # the windows that may beat every other one, scored exactly
    for word, on, checks, hats, score, bound in scored:
        near = score + bound >= floor
        for check, hat in zip(checks[near].tolist(), hats[near].tolist()):
            paths = _window_paths(chain, check, on, hat)
            probs = np.array([p for _, p in paths])
            loss = _plogp(probs / probs.sum())
            top, top_prob = min(paths, key=lambda q: (-q[1], q[0]))  # most probable, least on ties
            alpha = float(top_prob) / (2.0 * (kappa + 2))
            key = (-alpha * loss, check, word, hat)  # unique, so the order of the loop is free
            if best is None or key < best[0]:
                other = min(path for path, _ in paths if path != top)
                best = (key, LossBound(witness=_witness(chain, lumping, check, top, other, hat),
                                       loss_entropy=loss, alpha=alpha,
                                       rate_lower_bound=alpha * loss,
                                       growth_constant=2.0 ** alpha))
    return best[1]
