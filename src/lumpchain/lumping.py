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

The split-merge index and the loss bound read one kernel: the levels of the
same-block state pairs on minimal pair paths, one ``(n x n)`` small-int
matrix from a forward search and a backward sweep. Both hold a level only on
the block diagonal, cut into chunks of whole blocks of at least 2 sqrt(n)
states, and a level costs 2 * rows * sum |C|^2 multiply-adds over the chunks
C it reaches: O(depth * n^2 * (b + sqrt(n))) time at worst for a largest
block of b states, with the depth at most ``pair_depth_cap``, and Python work
in proportion to the chunks touched. A greedy walk over it gives
the index's witness, a search over block words the loss bound's windows,
which are scored a word at once with semiring products over the word's
transition blocks, O(words * rows * sum |B_i| |B_{i+1}|) for ``rows`` check
states per word; only the windows scoring near the best have paths listed.
The minimal words can be exponentially many, so past a budget the loss bound
is refused before it scores any; the index itself stays polynomial.

The single forward k-sequence check builds backward tables over the same
pairs, diagonal included, with two ``(n x n)`` products per level, and a
greedy walk over them rebuilds the first violating state sequence: O(k * n^3)
time, and no verdict enumerates state paths. The single-entry check is one
``(n x blocks)`` count product. The weak and strong checks read the tables
and per-level entropies of one block-word lattice (``entropy.lattice``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chain import MarkovChain
from .entropy import _plogp, lattice, lumped_rate_bounds
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
_SFS_TABLE_BUDGET = 1 << 22  # SFS table cells over all levels: (k-1) * n^2 bytes
_WINDOW_STEP_BUDGET = 1 << 14  # loss bound: minimal block words times their length


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
    blocks: list[str] = []
    seen: dict[str, int] = {}
    of_state = np.empty(chain.n, dtype=int)
    for i, s in enumerate(chain.states):
        b = str(assignment[s])
        if b not in seen:
            seen[b] = len(blocks)
            blocks.append(b)
        of_state[i] = seen[b]
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


def _word_indices(lumping: Lumping, word: Iterable[str]) -> list[int]:
    return [lumping.block_index(b) for b in word]


def preimage_count(chain: MarkovChain, lumping: Lumping, word: Sequence[str]) -> int:
    """Number of realisable state words with the given block image.

    Polynomial dynamic programme over exact integers: carry, per state, the
    count of realisable prefixes ending there; push counts along the edges
    from the current block into the next. Cost: O(len(word) * edges between
    consecutive blocks) after one pass over the edges per call; counts are
    Python ints, so they stay exact however large they grow.
    """
    w = _word_indices(lumping, word)
    if not w:
        return 0
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


def _pair_levels(chain: MarkovChain, lumping: Lumping):
    """Split-merge index and the level of every pair on a minimal pair path.

    A pair (u, v) of distinct same-block states stands for two parallel state
    paths with one block word. Start pairs have a common predecessor, end
    pairs a common successor, and the index is the length of the shortest
    pair path from a start to an end pair. A forward search labels each pair
    with its distance from the starts, one level of unvisited pairs per step,
    so within ``pair_depth_cap`` levels; a backward sweep from the end pairs
    then clears every pair that leads to none. So ``depth[u, v] = d > 0`` iff
    (u, v) is the d-th pair of a minimal pair path, and ``depth`` is
    symmetric.

    Only the block diagonal holds pairs. The states are renumbered block by
    block and the blocks merged, in order, into chunks of at least 2 sqrt(n)
    states, so a chunk is a square on the diagonal; a larger block is a chunk
    of its own, and many small blocks share one product masked to their
    same-block pairs. A level is a boolean matrix for each chunk it touches.
    A step multiplies each by its rows of the adjacency (its transpose going
    back), then forms ``X.T @ G`` on each chunk those rows reach: per level
    2 * rows * sum |C|^2 multiply-adds over the chunks C reached, ``rows``
    being the states of the level's chunks, and Python work in proportion to
    the chunks touched. Peak memory is the float32 adjacency (4 n^2 bytes),
    the levels' ``(n x n)`` small ints and one step's rows of the adjacency,
    G and chunk products (4 n^2 bytes each at most): about 2 *
    ``chain.transition.nbytes`` (16 n^2 bytes), pinned on 300 states.
    """
    n = chain.n
    cuts = [0]
    for end in itertools.accumulate(map(len, lumping.member_indices)):
        if end - cuts[-1] >= 2 * math.sqrt(n) or end == n:
            cuts.append(end)
    spans = list(zip(cuts, cuts[1:]))
    order = np.concatenate(lumping.member_indices)
    A = chain.adjacency[order][:, order].astype(np.float32)  # a sum of non-negative terms is > 0 iff one is
    level_type = np.min_scalar_type(-pair_depth_cap(lumping) - 1)  # signed, small: less peak memory
    apart = np.iinfo(level_type).max  # never a level: marks the cells of a chunk that are no pair
    depth = np.zeros((n, n), dtype=level_type)  # only the chunks' squares are read
    np.fill_diagonal(depth, apart)
    block = lumping.of_state[order]
    for s, e in spans:
        if block[s] != block[e - 1]:
            depth[s:e, s:e][block[s:e, None] != block[None, s:e]] = apart
    level = _chunk_pairs(range(len(spans)), A, A, spans, depth, 0)  # one step from every (x, x)
    ends = [A[s:e] @ A[s:e].T > 0 for s, e in spans]  # pairs with a common successor
    kappa = 1
    while level:
        keep = [(c, K) for c, F in level if (K := F & ends[c]).any()]
        if keep:  # the last level: the sweep below writes its kept pairs alone
            break
        for c, F in level:
            s, e = spans[c]
            depth[s:e, s:e][F] = kappa
        if kappa == 1:  # the chunks each chunk's states step into, forward and back
            graph = np.add.reduceat(np.add.reduceat(A, cuts[:-1], axis=0), cuts[:-1], axis=1) > 0
            succ, pred = ([np.flatnonzero(g).tolist() for g in m] for m in (graph, graph.T))
        level = _pair_step(A, level, spans, succ, depth, 0)
        kappa += 1
    else:
        return math.inf, None
    # kept pairs get their level negated; each level looks only at predecessors
    for d in range(kappa, 0, -1):
        for c, K in keep:
            s, e = spans[c]
            depth[s:e, s:e][K] = -d
        if d > 1:
            keep = _pair_step(A.T, keep, spans, pred, depth, d - 1)
    np.negative(depth, out=depth)
    np.maximum(depth, 0, out=depth)  # 0 for pairs off the minimal paths and for no pair
    at = np.argsort(order)
    depth = depth[at]  # back to the chain's state order, one axis at a time
    return kappa, depth[:, at]


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
    endpoints and block image; ``math.inf`` when no such pair exists.

    The reported witness is the lexicographically smallest (by state index)
    among the minimal ones, with ``path_a < path_b``: a greedy walk over the
    pair levels (``_pair_levels``) takes for ``path_a`` the smallest state at
    each step that some partner path can still follow, then for ``path_b``
    the smallest such partner path.
    """
    kappa, depth = _pair_levels(chain, lumping)
    if not math.isfinite(kappa):
        return SplitMergeResult(kappa=math.inf, witness=None)
    adj = chain.adjacency
    a, options, partners = [], np.arange(chain.n), np.ones(chain.n, dtype=bool)
    for d in range(1, kappa + 1):
        u = int(options[np.argmax(((depth[options] == d) & partners).any(axis=1))])
        a.append(u)
        options, partners = np.flatnonzero(adj[u]), adj[partners & (depth[u] == d)].any(axis=0)
    b = _smallest_path(adj, [depth[u] == d for d, u in enumerate(a, start=1)])
    check = int(np.flatnonzero(adj[:, a[0]] & adj[:, b[0]])[0])
    hat = int(np.flatnonzero(adj[a[-1]] & adj[b[-1]])[0])
    witness = SplitMergeWitness(
        kappa=kappa,
        check_state=chain.states[check],
        hat_state=chain.states[hat],
        lumped_word=tuple(lumping.blocks[lumping.of_state[x]] for x in a),
        path_a=tuple(chain.states[x] for x in a),
        path_b=tuple(chain.states[x] for x in b),
    )
    return SplitMergeResult(kappa=kappa, witness=witness)


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


def _sfs_tables(adj: np.ndarray, same: np.ndarray, levels: int):
    """Backward completion tables over same-block state pairs, indexed by the
    number of steps left.

    ``pairs[r]`` marks the same-block pairs (u, v), u = v included, from which
    two state paths of r more steps share one block word; ``forks[r]`` marks
    the states u from which two different such paths leave. Each level costs
    two ``(n x n)`` products; level 0 needs none.
    """
    A = adj.astype(np.float32)  # exact: the first product's counts stay below n + 1
    pairs, forks = [same], [np.zeros(len(adj), dtype=bool)]
    for _ in range(levels - 1):
        AC = A @ pairs[-1]  # (u, y'): successors y of u with (y, y') a pair
        apart = (AC - A * np.diagonal(pairs[-1])) > 0  # ... with y != y'
        forks.append((apart & adj).any(axis=1) | (A @ forks[-1] > 0))
        pairs.append(same & (AC @ A.T > 0))
    return pairs, forks


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
    path, and those already smaller and diverged. Cost: O(k * n^3) at worst,
    with no matrix product at k = 2; ``(k-1) * n^2`` table cells above
    ``_SFS_TABLE_BUDGET`` are refused before anything is allocated.
    """
    if k < 2:
        raise KTooSmall("the forward-sequence property needs k >= 2")
    n = chain.n
    cells = (k - 1) * n * n
    if cells > _SFS_TABLE_BUDGET:
        raise HorizonTooLarge(f"SFS tables for k={k} need {k - 1} levels of {n}x{n} "
                              f"state pairs, {cells} cells over the budget {_SFS_TABLE_BUDGET}")
    adj = chain.adjacency
    of_state = lumping.of_state
    same = of_state[:, None] == of_state[None, :]
    pairs, forks = _sfs_tables(adj, same, k - 1)

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
            paired = pairs[left][y]
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
        now = loose & same[y]  # partners on y's block after this step, all diverged
        now[y] = False
        now |= diverged & same[y]
        now[S[:i]] |= same[y, S[:i]]
        loose = adj[y] if loose[y] else none
        diverged = now @ adj
        S, i = first_completable(y, loose, diverged, k - 2 - len(path))
        path.append(int(S[i]))

    # the first sequence with this start block and block word
    first = _smallest_path(adj, [same[y] for y in (x0, *path)])
    return SfsResult(order_k=k, holds=False, violation=SfsViolation(
        block_word=tuple(lumping.blocks[of_state[y]] for y in path),
        start_block=lumping.blocks[of_state[x0]],
        start_a=chain.states[first[0]],
        path_a=tuple(chain.states[i] for i in first[1:]),
        start_b=chain.states[x0],
        path_b=tuple(chain.states[i] for i in path)))


# ---------------------------------------------------------------------------
# higher-order lumpability


def _lookup(ids: np.ndarray, rows: np.ndarray, keys: np.ndarray):
    """The rows of a level whose ids are ``keys``, and whether each is
    present: a key the mass rule dropped gets a neighbour's row and False."""
    at = np.searchsorted(ids, keys).clip(max=len(ids) - 1)
    return rows[at], ids[at] == keys


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")


def check_strong_lumpable(chain: MarkovChain, lumping: Lumping, k: int,
                          tol: float = DEFAULT_PROB_TOL) -> LumpabilityVerdict:
    """Order-k strong lumpability via start-state independence.

    For every start state, block word of length k-1 and next block, all with
    positive joint mass, the next-block conditional given the exact start
    state must equal the conditional given only the start block. Both come
    from one lattice: the first from its lower table at horizon k, the
    second from its upper one, the k-word of the start block and the word.
    The witness is the first violation by (word, start block, start state,
    next block). The verdict also reports the horizon-k rate bounds, which
    agree to rounding when the check passes.
    """
    if k < 1:
        raise KTooSmall("strong lumpability order must be >= 1")
    _check_tol(tol)
    nb = lumping.n_blocks
    with lattice(chain, lumping, k, k) as lat:
        ids, joint = lat.lower(k)
        block_ids, block_joint = lat.upper(k)
        bounds = lumped_rate_bounds(chain, lumping, k)
    start, word = np.divmod(ids, nb ** (k - 1))
    block = lumping.of_state[start]
    block_cond, present = _lookup(
        block_ids, block_joint / block_joint.sum(axis=1, keepdims=True),
        block * nb ** (k - 1) + word)
    cond = joint / joint.sum(axis=1, keepdims=True)
    # a start block's word is at least as heavy as the word from one state in it
    bad_row, bad_y = np.nonzero((cond > 0.0) & (np.abs(cond - block_cond) > tol)
                                & present[:, None])
    witness = None
    if bad_row.size:
        first = np.lexsort((bad_y, start[bad_row], block[bad_row], word[bad_row]))[0]
        r, y = bad_row[first], bad_y[first]
        witness = LumpabilityCounterexample(
            conditioning=(chain.states[start[r]],) + tuple(
                lumping.blocks[b] for b in np.unravel_index(word[r], (nb,) * (k - 1))),
            symbol=lumping.blocks[y],
            prob_a=float(cond[r, y]),
            prob_b=float(block_cond[r, y]))
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
    witness is the first violation by (length, word, next block). The
    returned conditional entropies H(next block | previous m blocks) for
    m = 1..horizon flatten from m = k onward exactly when the process is
    order-k Markov up to the horizon.
    """
    if k < 1:
        raise KTooSmall("weak lumpability order must be >= 1")
    if horizon < k:
        raise ValidationError("horizon must be >= k")
    _check_tol(tol)
    nb = lumping.n_blocks
    with lattice(chain, lumping, horizon, 0) as lat:
        tables = [lat.upper(length) for length in range(1, horizon + 1)]
        entropies = tuple(lat.upper_entropy(length) for length in range(1, horizon + 1))
    ref_ids, ref = tables[k - 1]
    ref = ref / ref.sum(axis=1, keepdims=True)
    witness = None
    for length, (ids, joint) in enumerate(tables[k:], start=k + 1):
        cond = joint / joint.sum(axis=1, keepdims=True)
        short, present = _lookup(ref_ids, ref, ids % nb ** k)
        # a suffix is at least as heavy as its word; skip one dropped by rounding
        bad = (np.abs(cond - short) > tol) & present[:, None]
        if bad.any():
            r, y = divmod(int(np.argmax(bad)), nb)  # first in (word, symbol) order
            witness = LumpabilityCounterexample(
                conditioning=tuple(lumping.blocks[b]
                                   for b in np.unravel_index(ids[r], (nb,) * length)),
                symbol=lumping.blocks[y],
                prob_a=float(cond[r, y]),
                prob_b=float(short[r, y]))
            break
    return LumpabilityVerdict(
        order_k=k,
        weak_up_to_horizon=WeakHorizonVerdict(verdict=witness is None, horizon=horizon),
        witness=witness,
        conditional_entropies=entropies)


# ---------------------------------------------------------------------------
# quantified entropy loss


def _window_paths(chain: MarkovChain, lumping: Lumping, check: int,
                  word: tuple[int, ...], hat: int):
    """Realisable middles of the witness window, with their probabilities."""
    adj, P = chain.adjacency, chain.transition
    paths = [((check,), float(chain.stationary[check]))]
    for b in word:
        paths = [(path + (x,), prob * P[path[-1], x]) for path, prob in paths
                 for x in lumping.member_indices[b].tolist() if adj[path[-1], x]]
    return [(path[1:], prob * P[path[-1], hat]) for path, prob in paths if adj[path[-1], hat]]


def _minimal_windows(chain: MarkovChain, lumping: Lumping, kappa: int, depth: np.ndarray):
    """Block words of the minimal pair paths with their windows, as
    ``(word, checks, hats, mask)``: ``mask[i, j]`` is set iff ``(checks[i],
    word, hats[j])`` is a window.

    A stack search extends a word one block at a time, carrying the level's
    kept pairs reachable along it. At the minimal index two middle paths of
    one window differ at every step, so they run over those pairs' states,
    and the windows are the (check, hat) with two such paths: products of
    path counts clipped at 2, exact in float32. Every word the search
    extends leads to a minimal one, so a budget on those bounds the search.
    """
    A = chain.adjacency.astype(np.float32)  # a sum of non-negative terms is > 0 iff one is
    of_state = lumping.of_state
    r, c = np.nonzero(depth)
    on_level = np.zeros((kappa + 1, chain.n), dtype=bool)  # states on a pair of each level
    on_level[depth[r, c], r] = True
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
        reach = np.flatnonzero(on_level[d] & A[on[-1]].any(axis=0) if word else on_level[d])
        for b in sorted(set(of_state[reach].tolist())):
            y = reach[of_state[reach] == b]
            step = depth[np.ix_(y, y)] == d
            if word:
                T = A[np.ix_(on[-1], y)]
                step &= T.T @ M @ T > 0
            kept = step.any(axis=1)  # = step.any(axis=0): the pairs are symmetric
            if kept.any():
                stack.append(((*word, b), [*on, y[kept]], step[np.ix_(kept, kept)]))
    for word, on in found:
        rows = np.flatnonzero(A[:, on[0]].sum(axis=1) >= 2)
        cols = np.flatnonzero(A[on[-1]].sum(axis=0) >= 2)
        C = A[np.ix_(rows, on[0])]
        for x, y in zip(on, on[1:]):
            C = np.minimum(C @ A[np.ix_(x, y)], 2)
        mask = C @ A[np.ix_(on[-1], cols)] >= 2
        has_row, has_col = mask.any(axis=1), mask.any(axis=0)
        yield word, rows[has_row], cols[has_col], mask[np.ix_(has_row, has_col)]


def _max_times(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Max-times product: entry (i, k) is the largest ``V[i, j] * T[j, k]``.

    Loops over the middle states j that some row reaches, each touching only
    the nonzero entries of ``T[j]``; a broadcast (rows x j x k) tensor would
    need tens of MB on a few hundred states.
    """
    out = np.zeros((V.shape[0], T.shape[1]))
    for j in np.flatnonzero(V.any(axis=0)):
        nz = np.flatnonzero(T[j])
        out[:, nz] = np.maximum(out[:, nz], V[:, j, None] * T[j, nz])
    return out


def entropy_loss_bound(chain: MarkovChain, lumping: Lumping) -> LossBound | None:
    """Certified per-step entropy loss, absent iff no split-merge exists.

    Among the minimal witness windows the one maximising alpha times the
    window entropy is reported; any window yields a sound bound, the maximum
    is simply the strongest one found. The windows of every minimal block
    word come from the pair levels (``_minimal_windows``), so the maximum
    runs over all of them. The traversal-rate constant alpha uses the most
    probable realisable path through the chosen window.

    Every window of one block word is scored at once by products over the
    word's transition blocks ``P[B_i, B_{i+1}]``, from the window check
    states to the hat states: ordinary products give the total mass Z of the
    middle paths, the expectation semiring their sum S of p·log2 p, and
    max-times products the top path, so the window entropy is
    ``log2 Z - S/Z``. That costs O(words · rows · Σ|B_i|·|B_{i+1}|) for
    ``rows`` check states per word. Only the windows whose score lies
    within a rounding margin of the best are then scored exactly from
    their enumerated paths, and the best of those is reported, so the
    result does not depend on the rounding of the products. Past
    ``_WINDOW_STEP_BUDGET`` minimal words times their length it raises
    ``HorizonTooLarge`` before scoring any.
    """
    return _loss_bound(chain, lumping, *_pair_levels(chain, lumping))


def _loss_bound(chain: MarkovChain, lumping: Lumping, kappa, depth) -> LossBound | None:
    """``entropy_loss_bound`` from the pair levels."""
    if not math.isfinite(kappa):
        return None
    P, mu = chain.transition, chain.stationary
    scored = []  # (word, checks, hats, score, rounding bound) per word
    for word, rows, cols, mask in _minimal_windows(chain, lumping, kappa, depth):
        states = [rows, *(lumping.member_indices[b] for b in word), cols]
        for i, (a, b) in enumerate(zip(states, states[1:])):
            T = P[np.ix_(a, b)]
            TlogT = T * np.log2(T, out=np.zeros_like(T), where=T > 0)
            if i == 0:
                Z, S, V = T, TlogT, T
            else:
                Z, S, V = Z @ T, S @ T + Z @ TlogT, _max_times(V, T)
        r, c = np.nonzero(mask)
        logz, mean = np.log2(Z[r, c]), S[r, c] / Z[r, c]
        alpha = mu[rows[r]] * V[r, c] / (2.0 * (kappa + 2))
        # a relative 1e-9 of both terms, and an absolute 1e-12 bits for
        # log2 Z near 0, where the two cancel on nearly deterministic windows
        bound = alpha * (1e-9 * (np.abs(logz) + np.abs(mean)) + 1e-12)
        scored.append((word, rows[r], cols[c], alpha * (logz - mean), bound))
    floor = max(float(np.max(score - bound)) for *_, score, bound in scored)
    triples = []  # the windows that may beat every other one
    for word, checks, hats, score, bound in scored:
        near = score + bound >= floor
        triples += [(check, word, hat)
                    for check, hat in zip(checks[near].tolist(), hats[near].tolist())]
    triples.sort()

    best = None
    for check, word, hat in triples:
        paths = _window_paths(chain, lumping, check, word, hat)
        probs = np.array([p for _, p in paths])
        loss = _plogp(probs / probs.sum())
        order = sorted(range(len(paths)), key=lambda i: (-paths[i][1], paths[i][0]))
        top = order[0]
        alpha = float(paths[top][1]) / (2.0 * (kappa + 2))
        score = alpha * loss
        other = min(p for i, (p, _) in enumerate(paths) if p != paths[top][0])
        key = (-score, check, word, hat)
        if best is None or key < best[0]:
            witness = SplitMergeWitness(
                kappa=kappa,
                check_state=chain.states[check],
                hat_state=chain.states[hat],
                lumped_word=tuple(lumping.blocks[b] for b in word),
                path_a=tuple(chain.states[i] for i in paths[top][0]),
                path_b=tuple(chain.states[i] for i in other))
            best = (key, LossBound(witness=witness, loss_entropy=loss, alpha=alpha,
                                   rate_lower_bound=alpha * loss,
                                   growth_constant=2.0 ** alpha))
    return best[1]
