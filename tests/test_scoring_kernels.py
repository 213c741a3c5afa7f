"""The entropy and max-times kernels against their frozen first versions.

``_conditional_entropy`` scores each level of the block-word lattice,
``_block_entropies`` the chain's rows and the belief filter's block masses,
and ``_max_times`` the top path of the loss bound's windows. Each was first
written with a masked ``log2`` or a loop over middle states; ``oracles``
keeps those versions, and every result must keep their bits, the sign of
zero included.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import build_chain, build_lumping
from lumpchain import lumping as lumping_module
from lumpchain.entropy import BlockWordLattice, _block_entropies, _conditional_entropy
from lumpchain.lumping import _max_times


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def zero_celled(rng, rows, cols, zero_share):
    """Positive cells of mixed magnitude, subnormal ones too, with about
    ``zero_share`` of them zero; every row keeps one positive cell."""
    laws = rng.random((rows, cols)) * 10.0 ** rng.integers(-310, 1, size=(rows, cols))
    laws[rng.random((rows, cols)) < zero_share] = 0.0
    laws[np.arange(rows), rng.integers(cols, size=rows)] = rng.random(rows) + 0.5
    return laws


def bench_instances(workload, seed):
    for item in bench_workloads().make_items(workload, seed, MODELS_DIR.parent):
        chain = build_chain(item.matrix, item.states)
        yield item, chain, build_lumping(chain, item.assignment)


@pytest.mark.parametrize("seed", range(24))
def test_entropy_kernels_keep_their_bits_on_joints_with_zero_cells(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 9))
    joint = zero_celled(rng, rows, cols, zero_share=rng.choice([0.0, 0.3, 0.8]))
    joint /= joint.sum()
    assert same_bits(_conditional_entropy(joint), oracles.conditional_entropy_masked(joint))
    laws = joint.copy()
    laws[rng.random(rows) < 0.2] = 0.0  # rows without a positive entry score +0.0
    assert same_bits(_block_entropies(laws), oracles.block_entropies_masked(laws))


def test_entropy_kernels_keep_their_bits_on_deterministic_rows():
    joint = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]])
    assert same_bits(_conditional_entropy(joint), 0.0)
    laws = np.vstack([joint / joint.sum(axis=1, keepdims=True), np.zeros(3)])
    assert same_bits(_block_entropies(laws), oracles.block_entropies_masked(laws))


def test_entropy_kernels_keep_their_bits_where_only_subnormal_cells_score():
    # the first row is 1 to rounding, so its subnormal cell carries all the
    # entropy; the second row's only cell is subnormal and scores 0
    joint = np.array([[1.0, 1e-310, 0.0], [0.0, 0.0, 5e-324]])
    assert _conditional_entropy(joint) > 0.0
    assert same_bits(_conditional_entropy(joint), oracles.conditional_entropy_masked(joint))
    assert same_bits(_block_entropies(joint), oracles.block_entropies_masked(joint))


@pytest.mark.parametrize("workload, seed", [("lattice", 0), ("lattice", 11),
                                            ("pairs", 0), ("pairs", 11)])
def test_entropy_kernels_keep_their_bits_on_bench_matrices(workload, seed):
    for item, chain, lumping in bench_instances(workload, seed):
        P, mu = chain.transition, chain.stationary
        assert same_bits(_block_entropies(P), oracles.block_entropies_masked(P)), item.key
        joint = mu[:, None] * P
        assert same_bits(_conditional_entropy(joint),
                         oracles.conditional_entropy_masked(joint)), item.key
        if workload == "lattice":
            depth = max(item.params["horizons"])
            lat = BlockWordLattice(chain, lumping, depth, depth)
            for h in range(depth + 1):
                want = oracles.conditional_entropy_masked(lat.upper(h)[1])
                assert same_bits(lat.upper_entropy(h), want), (item.key, h)
            for h in range(1, depth + 1):
                want = oracles.conditional_entropy_masked(lat.lower(h)[1])
                assert same_bits(lat.lower_entropy(h), want), (item.key, h)


@pytest.mark.parametrize("workload, seed", [("lattice", 0), ("pairs", 0), ("pairs", 11)])
def test_max_times_keeps_its_bits_on_bench_blocks(workload, seed):
    # V: every state into block a, T: block a into block b, as in a window's first steps
    for item, chain, lumping in bench_instances(workload, seed):
        P = chain.transition
        for a in lumping.member_indices:
            for b in lumping.member_indices:
                V, T = P[:, a], P[a[:, None], b]
                assert same_bits(_max_times(V, T), oracles.max_times_by_state(V, T)), item.key


def sparse_factors(rng, rows, inner, cols):
    V = zero_celled(rng, rows, inner, zero_share=0.5)
    T = zero_celled(rng, inner, cols, zero_share=0.7)
    V[:, rng.random(inner) < 0.3] = 0.0  # middle states no row reaches
    T[rng.random(inner) < 0.3] = 0.0  # middle states with no way on
    return V, T


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("slice_size", [1, 5, 64, 1 << 16])
def test_max_times_keeps_its_bits_across_slice_seams(monkeypatch, seed, slice_size):
    monkeypatch.setattr(lumping_module, "_MAX_TIMES_SLICE", slice_size)
    rng = np.random.default_rng(seed)
    V, T = sparse_factors(rng, *rng.integers(1, 12, size=3))
    assert same_bits(_max_times(V, T), oracles.max_times_by_state(V, T))


@pytest.mark.parametrize("V, T", [
    (np.zeros((3, 4)), np.ones((4, 2))),  # no row reaches a middle state
    (np.ones((3, 4)), np.zeros((4, 2))),  # no middle state goes on
    (np.zeros((0, 4)), np.ones((4, 2))),  # no rows
    (np.array([[0.5, 0.0], [0.25, 0.75]]), np.array([[0.0, 0.3], [0.0, 0.0]])),
    (np.array([[0.2, 0.8, 0.0]]), np.eye(3)),  # one nonzero per column
], ids=["zero-V", "zero-T", "no-rows", "one-nonzero", "identity"])
def test_max_times_keeps_its_bits_on_degenerate_factors(V, T):
    assert same_bits(_max_times(V, T), oracles.max_times_by_state(V, T))


def test_max_times_keeps_its_bits_past_a_slice_seam():
    # 300 rows x 90 000 nonzeros cut every column at the default slice size
    rng = np.random.default_rng(5)
    V, T = rng.random((300, 300)), rng.random((300, 300))
    assert V.shape[0] * np.count_nonzero(T) > lumping_module._MAX_TIMES_SLICE
    assert same_bits(_max_times(V, T), oracles.max_times_by_state(V, T))


def test_max_times_memory_stays_a_few_mib_on_dense_factors():
    # a (rows x j x k) broadcast of these factors would take 206 MiB; the
    # slices keep the output (0.7 MiB), T's nonzero indices (1.4 MiB) and
    # the scratch of a few 512 KiB slices
    rng = np.random.default_rng(0)
    V, T = rng.random((300, 300)), rng.random((300, 300))
    tracemalloc.start()
    try:
        _max_times(V, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
