import numpy as np
import pytest

import lumpchain as lc
import oracles
import workloads as wl
from conftest import ROOT


def _same(a: list, b: list) -> bool:
    return all(x.key == y.key and x.kind == y.kind and x.model == y.model
               and x.blocks == y.blocks and x.params == y.params
               and (x.matrix is None) == (y.matrix is None)
               and (x.matrix is None or np.array_equal(x.matrix, y.matrix))
               for x, y in zip(a, b)) and len(a) == len(b)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_items_deterministic_per_seed(workload):
    assert _same(wl.make_items(workload, 3, ROOT), wl.make_items(workload, 3, ROOT))


@pytest.mark.parametrize("workload", ["lattice", "pairs", "sampling"])
def test_seeds_change_structure_not_shape(workload):
    a, b = wl.make_items(workload, 1, ROOT), wl.make_items(workload, 2, ROOT)
    assert [x.key for x in a] == [x.key for x in b]
    assert not _same(a, b)


def test_round_order_is_a_seeded_permutation():
    items = wl.make_items("cli_corpus", 0, ROOT)
    first = wl.round_order(items, 5, 0)
    assert [x.key for x in first] == [x.key for x in wl.round_order(items, 5, 0)]
    assert sorted(x.key for x in first) == sorted(x.key for x in items)


@pytest.mark.parametrize("family", ["sparse", "thin", "dense", "private"])
@pytest.mark.parametrize("seed", range(4))
def test_generated_chains_are_valid(family, seed):
    matrix, blocks = wl._chain(family, np.random.default_rng(seed), 12, 3)
    assert np.allclose(matrix.sum(axis=1), 1.0)
    assert sorted(set(blocks)) == [0, 1, 2]
    assert wl.irreducible_aperiodic(matrix > 0)
    rep = lc.build_chain(matrix).connectivity
    assert rep.irreducible and rep.aperiodic


@pytest.mark.parametrize("seed", range(6))
def test_private_successor_family_is_lossless(seed):
    matrix, blocks = wl.private_successor_chain(np.random.default_rng(seed), 12, 3)
    adj = matrix > 0
    b = np.asarray(blocks)
    assert (adj.sum(axis=1) == 3).all()
    for u in range(12):
        for v in range(12):
            if u != v and b[u] == b[v]:
                assert not (adj[u] & adj[v]).any()
    chain = lc.build_chain(matrix)
    lumping = lc.build_lumping(chain, {s: f"B{x}" for s, x in zip(chain.states, blocks)})
    assert lc.split_merge_index(chain, lumping).kappa == float("inf")
    assert lc.entropy_loss_bound(chain, lumping) is None


@pytest.mark.parametrize("seed", range(3))
def test_private_successor_kappa_infinite_by_brute_force(seed):
    matrix, blocks = wl.private_successor_chain(np.random.default_rng(seed), 6, 2)
    cap = wl.same_block_pairs(blocks)
    assert oracles.kappa_by_path_pairs(matrix.tolist(), blocks, cap) is None


def test_irreducible_aperiodic_rejects_cycle_and_split():
    cycle = np.roll(np.eye(4, dtype=bool), 1, axis=1)
    assert not wl.irreducible_aperiodic(cycle)
    split = np.eye(4, dtype=bool)
    assert not wl.irreducible_aperiodic(split)


def test_work_counters_match_library_and_enumeration():
    item = wl.make_items("lattice", 0, ROOT)[0]
    chain = lc.build_chain(item.matrix)
    lumping = lc.build_lumping(chain, {s: f"B{x}" for s, x in zip(chain.states, item.blocks)})
    counters = wl.work_counters(item, ROOT)
    assert counters["work.same_block_pairs"] == lc.pair_depth_cap(lumping)
    for h in (1, 3, 5):
        forward = lc.entropy.lumped_forward(chain, lumping, chain.stationary, h, True)
        assert wl.live_words(item.matrix, item.blocks, h) == len(forward)
    joint = oracles.lumped_word_probs(item.matrix.tolist(), chain.stationary.tolist(),
                                      item.blocks, 4)
    assert wl.live_words(item.matrix, item.blocks, 4) == len(joint)


def test_dense_live_words_are_all_block_words():
    matrix, blocks = wl.dense_chain(np.random.default_rng(0), 8, 4)
    assert wl.live_words(matrix, blocks, 5) == 4 ** 5
