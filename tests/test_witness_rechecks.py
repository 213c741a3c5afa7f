"""Every witness re-checked along its own paths, without enumeration.

A lumpability counterexample names a context, a next block and two
conditional probabilities; both are recomputed here by one forward product
along the counterexample's single block word. A split-merge or loss-bound
witness names two state paths; each is checked to run from check to hat
through edges with the reported block word, the two to differ at every one
of their kappa steps, and the loss bound's alpha is recomputed from its top
path. Each re-check costs O(witness length * n^2), so it reaches the
benchmark's 300-state inputs, where the enumerating oracles do not.
An SFS violation names two state sequences; both are checked to be
realisable with its start block and block word, and the first to be the
smallest such sequence, found here by backward reachability masks.

Cases: every model file, the ``lattice`` and ``pairs`` items of
``bench/workloads.py`` at seeds 0 and 11, and 120 seeded sparse chains of
3-30 states, a quarter of them with faint edges. SFS is re-checked at
k = 2, 3, 4 on the benchmark items and on three of the benchmark's seeded
sparse chains of 300-1000 states.
"""

import functools
import math

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import (
    build_chain,
    build_lumping,
    check_sfs,
    check_strong_lumpable,
    check_weak_lumpable,
    entropy_loss_bound,
    parse_model,
    split_merge_index,
)
from lumpchain.errors import HorizonTooLarge
from lumpchain.lumping import DEFAULT_PROB_TOL

ORDERS = (1, 2, 3)
MODEL_WEAK_HORIZON = 6  # analyze's default
BENCH_SEEDS = (0, 11)
SEEDED = range(120)
PROB_TOL = 1e-12  # the recomputed conditionals agree to 2.2e-16
SFS_ORDERS = (2, 3, 4)
LARGE_SPARSE = ((1000, 4, 3), (300, 2, 40), (600, 3, 20))  # n, blocks, out-degree


@functools.cache
def bench_items(workload, seed):
    return bench_workloads().make_items(workload, seed, MODELS_DIR.parent)


def bench_case(workload, seed, i):
    item = bench_items(workload, seed)[i]
    chain = build_chain(item.matrix, item.states)
    return chain, build_lumping(chain, item.assignment), item.params["weak_horizon"]


def seeded_case(seed):
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(3, 31))
    n_blocks = int(rng.integers(2, min(4, n - 1) + 1))
    make = oracles.faint_sparse_chain if seed % 4 == 3 else oracles.random_sparse_chain
    matrix, blocks = make(rng, n, n_blocks)
    chain = build_chain(matrix, [f"s{i}" for i in range(n)])
    lumping = build_lumping(chain, {f"s{i}": "ABCD"[b] for i, b in enumerate(blocks)})
    return chain, lumping, MODEL_WEAK_HORIZON


def _bench_cases():
    workloads = bench_workloads()
    shapes = {"lattice": workloads.LATTICE_SHAPES, "pairs": workloads.PAIRS_SHAPES}
    return {f"{workload}/seed{seed}/{i:02d}":
            (lambda w=workload, s=seed, i=i: bench_case(w, s, i))
            for workload, items in shapes.items() for seed in BENCH_SEEDS
            for i in range(len(items))}


CASES = {
    **{f"model/{path.stem}": (lambda path=path: (*parse_model(str(path)), MODEL_WEAK_HORIZON))
       for path in sorted(MODELS_DIR.glob("*.json"))},
    **_bench_cases(),
    **{f"seeded/{seed}": (lambda seed=seed: seeded_case(seed)) for seed in SEEDED},
}


def next_block_law(chain, lumping, start, word):
    """The next-block law after state mass ``start`` at time 0 and the block
    labels ``word`` at times 1, 2, ...: one forward product along the word."""
    mass = start
    for label in word:
        mass = (mass @ chain.transition) * lumping.indicator[:, lumping.block_index(label)]
    law = mass @ chain.transition @ lumping.indicator
    return law / law.sum()


def in_block(chain, lumping, label):
    """The stationary law restricted to one block."""
    return chain.stationary * lumping.indicator[:, lumping.block_index(label)]


@functools.cache
def counterexamples(case):
    """Each strong and weak counterexample of a case with its two
    probabilities recomputed: strong from the start state and from the
    stationary law on its block, weak from the stationary law on the first
    block of the word and on the first block of its k-suffix."""
    chain, lumping, horizon = CASES[case]()
    found = []
    for k in ORDERS:
        w = check_strong_lumpable(chain, lumping, k).witness
        if w is not None:
            x, *word = w.conditioning
            y = lumping.block_index(w.symbol)
            exact = np.eye(chain.n)[chain.index(x)]
            found.append((f"strong k={k}", w,
                          next_block_law(chain, lumping, exact, word)[y],
                          next_block_law(chain, lumping, in_block(chain, lumping, lumping.map[x]),
                                         word)[y]))
        w = check_weak_lumpable(chain, lumping, k, max(horizon, k)).witness
        if w is not None:
            first, *rest = w.conditioning
            head, *tail = w.conditioning[-k:]
            y = lumping.block_index(w.symbol)
            found.append((f"weak k={k}", w,
                          next_block_law(chain, lumping, in_block(chain, lumping, first), rest)[y],
                          next_block_law(chain, lumping, in_block(chain, lumping, head), tail)[y]))
    return tuple(found)


@pytest.mark.parametrize("case", sorted(CASES))
def test_counterexample_probabilities_recompute_along_their_word(case):
    for what, w, prob_a, prob_b in counterexamples(case):
        assert abs(w.prob_a - w.prob_b) > DEFAULT_PROB_TOL, what
        assert abs(w.prob_a - prob_a) <= PROB_TOL, what
        assert abs(w.prob_b - prob_b) <= PROB_TOL, what


def test_the_cases_have_counterexamples():
    assert sum(len(counterexamples(case)) for case in CASES) >= 900


def assert_parallel_paths(chain, lumping, w, kappa):
    """Both paths of a witness run from check to hat through edges with its
    block word, kappa steps long and apart at every step."""
    for path in (w.path_a, w.path_b):
        full = [chain.index(x) for x in (w.check_state, *path, w.hat_state)]
        assert chain.adjacency[full[:-1], full[1:]].all()
        assert tuple(lumping.map[x] for x in path) == w.lumped_word
    assert w.kappa == kappa == len(w.path_a) == len(w.path_b)
    assert all(a != b for a, b in zip(w.path_a, w.path_b))


@functools.cache
def kappa_witnesses(case):
    """The split-merge witness and the loss bound of a case, or None."""
    chain, lumping, _ = CASES[case]()
    res = split_merge_index(chain, lumping)
    if math.isinf(res.kappa):
        return None
    try:
        bound = entropy_loss_bound(chain, lumping)
    except HorizonTooLarge:  # too many minimal words to score; the index stands
        bound = None
    return chain, lumping, res, bound


@pytest.mark.parametrize("case", sorted(CASES))
def test_split_merge_and_loss_bound_witnesses_hold_along_their_paths(case):
    found = kappa_witnesses(case)
    if found is None:
        return
    chain, lumping, res, bound = found
    assert_parallel_paths(chain, lumping, res.witness, res.kappa)
    if bound is None:
        return
    w = bound.witness
    assert_parallel_paths(chain, lumping, w, res.kappa)
    top = [chain.index(x) for x in (w.check_state, *w.path_a, w.hat_state)]
    prob = chain.stationary[top[0]] * np.prod(chain.transition[top[:-1], top[1:]])
    assert bound.alpha == pytest.approx(prob / (2 * (res.kappa + 2)), rel=1e-12, abs=0)


def test_the_cases_have_kappa_witnesses():
    assert sum(kappa_witnesses(case) is not None for case in CASES) >= 150


def large_sparse_case(n, n_blocks, out_degree):
    """The benchmark's seeded sparse chain with ``n`` states."""
    workloads = bench_workloads()
    rng = np.random.default_rng([7, n, n_blocks, out_degree])
    matrix, blocks = workloads.sparse_chain(rng, n, n_blocks, out_degree)
    item = workloads.Item(key=f"n{n}", kind="analysis", matrix=matrix, blocks=blocks)
    chain = build_chain(item.matrix, item.states)
    return chain, build_lumping(chain, item.assignment)


SFS_CASES = {
    **{case: (lambda make=make: make()[:2])
       for case, make in _bench_cases().items()},
    **{f"large/n{n}-b{nb}-d{d}": (lambda args=(n, nb, d): large_sparse_case(*args))
       for n, nb, d in LARGE_SPARSE},
}


def smallest_sequence(adj, masks):
    """The state-index-smallest sequence whose i-th state lies in
    ``masks[i]`` and whose steps are edges; one must exist. ``reach[i]``
    marks the states of ``masks[i]`` from which the rest can still be walked."""
    reach = [masks[-1]]
    for mask in masks[-2::-1]:
        reach.insert(0, mask & (adj.astype(np.int64) @ reach[0] > 0))
    seq = [int(np.flatnonzero(reach[0])[0])]
    for mask in reach[1:]:
        seq.append(int(np.flatnonzero(adj[seq[-1]] & mask)[0]))
    return tuple(seq)


@functools.cache
def sfs_violations(case):
    """Each SFS violation of a case at k = 2, 3, 4, its sequences as state
    indices; a k whose tables the budget refuses is left out."""
    chain, lumping = SFS_CASES[case]()
    found = []
    for k in SFS_ORDERS:
        try:
            v = check_sfs(chain, lumping, k).violation
        except HorizonTooLarge:
            continue
        if v is not None:
            found.append((k, v, tuple(chain.index(x) for x in (v.start_a, *v.path_a)),
                          tuple(chain.index(x) for x in (v.start_b, *v.path_b))))
    return chain, lumping, tuple(found)


@pytest.mark.parametrize("case", sorted(SFS_CASES))
def test_sfs_violations_hold_along_their_sequences(case):
    chain, lumping, found = sfs_violations(case)
    adj = chain.adjacency
    for k, v, a, b in found:
        for seq in (a, b):
            assert len(seq) == k, k
            assert adj[seq[:-1], seq[1:]].all(), k  # realisable
            assert lumping.blocks[lumping.of_state[seq[0]]] == v.start_block, k
            assert tuple(lumping.blocks[lumping.of_state[x]] for x in seq[1:]) == v.block_word, k
        assert a[1:] != b[1:] and a < b, k
        masks = [lumping.indicator[:, lumping.block_index(label)] > 0
                 for label in (v.start_block, *v.block_word)]
        assert a == smallest_sequence(adj, masks), k


def test_the_cases_have_sfs_violations():
    assert sum(len(sfs_violations(case)[2]) for case in SFS_CASES) >= 100
