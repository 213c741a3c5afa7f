"""Randomised invariants over seeded sparse chains.

Chains come from a constructive generator (random cycle plus a self-loop
plus extra edges), so every generated instance is irreducible and aperiodic
by construction and the properties quantify over a broad family rather than
the fixed corpus.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from lumpchain import (
    build_chain,
    build_lumping,
    check_sfs,
    check_single_entry,
    check_strong_lumpable,
    check_weak_lumpable,
    conditional_entropy_rate_estimate,
    entropy_loss_bound,
    lumped_block_entropy,
    lumped_rate_bounds,
    pair_depth_cap,
    preimage_count,
    reverse_chain,
    split_merge_index,
)
from lumpchain.entropy import BlockWordLattice

BLOCK_NAMES = ("A", "B", "C", "D")


def make_instance(seed, n_states=None, n_blocks=None):
    rng = np.random.default_rng(seed)
    if n_states is None:
        n_states = int(rng.integers(3, 7))
    if n_blocks is None:
        n_blocks = int(rng.integers(2, min(4, n_states - 1) + 1))
    matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    lumping = build_lumping(chain, {str(i): BLOCK_NAMES[b]
                                    for i, b in enumerate(blocks)})
    return chain, lumping, matrix, blocks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_chains_are_primitive(seed):
    chain, _, _, _ = make_instance(seed)
    assert chain.connectivity.irreducible
    assert chain.connectivity.aperiodic


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_sfs_implies_single_entry_implies_no_witness(seed):
    chain, lumping, _, _ = make_instance(seed)
    se = check_single_entry(chain, lumping).holds
    if check_sfs(chain, lumping, 2).holds or check_sfs(chain, lumping, 3).holds:
        assert se
    if se:
        assert math.isinf(split_merge_index(chain, lumping).kappa)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_strong_probability_and_entropy_routes_agree(seed):
    chain, lumping, _, _ = make_instance(seed)
    for k in (1, 2):
        res = check_strong_lumpable(chain, lumping, k)
        gap = abs(res.rate_bound_upper - res.rate_bound_lower)
        assert (gap <= 1e-9) == res.strong


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bounds_sandwich_on_random_chains(seed):
    chain, lumping, _, _ = make_instance(seed)
    seq = [lumped_rate_bounds(chain, lumping, n) for n in range(1, 5)]
    for b in seq:
        assert b.lower <= b.upper
    for a, b in zip(seq, seq[1:]):
        assert a.lower <= b.lower + 1e-10
        assert b.upper <= a.upper + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_block_entropy_increments_are_upper_bounds(seed):
    chain, lumping, _, _ = make_instance(seed)
    entropies = [lumped_block_entropy(chain, lumping, n) for n in range(1, 7)]
    for n in range(1, 6):
        increment = entropies[n] - entropies[n - 1]
        assert abs(increment - lumped_rate_bounds(chain, lumping, n).upper) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_weak_conditional_entropies_are_upper_bounds(seed, k):
    chain, lumping, _, _ = make_instance(seed)
    res = check_weak_lumpable(chain, lumping, k, horizon=6)
    for h, value in enumerate(res.conditional_entropies, start=1):
        assert abs(value - lumped_rate_bounds(chain, lumping, h).upper) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_loss_bound_is_sound_against_exact_sandwich(seed):
    chain, lumping, _, _ = make_instance(seed)
    bound = entropy_loss_bound(chain, lumping)
    intervals = [conditional_entropy_rate_estimate(chain, lumping, n) for n in range(1, 7)]
    for interval in intervals:
        assert bound is None or bound.rate_lower_bound <= interval.loss_upper + 1e-12
    for a, b in zip(intervals, intervals[1:]):
        assert a.loss_lower <= b.loss_lower + 1e-12  # exact in n, up to rounding


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_witness_length_respects_pair_cap(seed):
    chain, lumping, _, _ = make_instance(seed)
    res = split_merge_index(chain, lumping)
    if math.isfinite(res.kappa):
        assert 1 <= res.kappa <= pair_depth_cap(lumping)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_split_merge_matches_bruteforce(seed):
    chain, lumping, matrix, blocks = make_instance(seed)
    expected = oracles.kappa_by_path_pairs(matrix, blocks, pair_depth_cap(lumping))
    res = split_merge_index(chain, lumping)
    got = None if math.isinf(res.kappa) else int(res.kappa)
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_preimage_count_matches_enumeration(seed, length):
    chain, lumping, matrix, blocks = make_instance(seed)
    rng = np.random.default_rng(seed + length)
    word = [lumping.blocks[int(rng.integers(lumping.n_blocks))] for _ in range(length)]
    expected = oracles.preimage_by_enumeration(
        matrix, blocks, [BLOCK_NAMES.index(b) for b in word])
    assert preimage_count(chain, lumping, word) == len(expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_reverse_is_involution_on_random_chains(seed):
    chain, _, _, _ = make_instance(seed)
    back = reverse_chain(reverse_chain(chain))
    assert np.max(np.abs(back.transition - chain.transition)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 10))
def test_faint_lower_tables_match_per_start_passes(seed, n_states):
    """Chains with faint edges, so the mass rule drops rows at depth 4."""
    rng = np.random.default_rng(seed)
    n_blocks = min(int(rng.integers(2, 5)), n_states)
    matrix, blocks = oracles.faint_sparse_chain(rng, n_states, n_blocks)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    lumping = build_lumping(chain, {str(i): BLOCK_NAMES[b] for i, b in enumerate(blocks)},
                            allow_trivial=True)
    lattice = BlockWordLattice(chain, lumping, 1, 5)
    per_start = oracles.lower_levels_by_start(chain, lumping, 5)
    for h in range(1, 6):
        ids, joint = lattice.lower(h)
        assert np.all(np.diff(ids) > 0)
        start, word = np.divmod(ids, lumping.n_blocks ** (h - 1))
        for x, levels in enumerate(per_start):
            assert np.array_equal(word[start == x], levels[h - 1][0])
            np.testing.assert_allclose(joint[start == x], levels[h - 1][1], rtol=1e-12, atol=0)
    for h in range(1, 6):
        bounds = lumped_rate_bounds(chain, lumping, h)
        assert bounds.lower <= bounds.upper
