"""The pair-table SFS and the one-product single-entry check against their
enumerating oracles.

``check_sfs`` decides the single forward k-sequence property from backward
tables over same-block state pairs and rebuilds the witness with a greedy
walk; ``oracles.first_sfs_violation`` walks every state path. The two must
agree in ``repr()``: same verdict, same witness. ``check_single_entry``
reads one ``(states x blocks)`` count product, and
``oracles.first_single_entry_violation`` loops over every (state, block).
"""

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import build_chain, build_lumping, check_sfs, check_single_entry, parse_model
from lumpchain import lumping as lumping_module
from lumpchain.errors import HorizonTooLarge

MODEL_PATHS = sorted(MODELS_DIR.glob("*.json"))


def assert_sfs_matches_oracle(chain, lumping, k):
    got = check_sfs(chain, lumping, k)
    assert repr(got) == repr(oracles.first_sfs_violation(chain, lumping, k)), f"k={k}"
    return got


def _instance(matrix, blocks):
    chain = build_chain(matrix, [str(i) for i in range(len(blocks))])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


def random_instance(seed):
    """Seeded 3-10-state sparse chain with 2-4 blocks and 0-2 extra edges
    per state."""
    rng = np.random.default_rng([seed, 9])
    n_states = int(rng.integers(3, 11))
    n_blocks = int(rng.integers(2, min(4, n_states - 1) + 1))
    return _instance(*oracles.random_sparse_chain(rng, n_states, n_blocks, seed % 3))


def near_deterministic_instance(seed):
    """A 4-12-state chain whose edges are a random permutation, a cycle and
    0-2 random edges, lumped into n-1 or n-2 blocks: few branches and few
    merged states, so SFS often holds."""
    rng = np.random.default_rng([seed, 11])
    n_states = int(rng.integers(4, 13))
    n_blocks = n_states - int(rng.integers(1, 3))
    adj = np.zeros((n_states, n_states), dtype=bool)
    adj[np.arange(n_states), rng.permutation(n_states)] = True
    adj[np.arange(n_states), np.roll(np.arange(n_states), -1)] = True
    for _ in range(int(rng.integers(0, 3))):
        adj[rng.integers(n_states), rng.integers(n_states)] = True
    blocks = np.arange(n_states) % n_blocks
    rng.shuffle(blocks)
    return _instance(adj / adj.sum(axis=1, keepdims=True), blocks.tolist())


def probe_instance():
    """The benchmark's budget-probe chain: 40 states, 4 blocks, out-degree 4
    (the second draw from ``default_rng([0, 7])``)."""
    workloads = bench_workloads()
    rng = np.random.default_rng([0, 7])
    workloads.sparse_chain(rng, 10, 5)
    return _instance(*workloads.sparse_chain(rng, 40, 4))


@pytest.mark.parametrize("path", MODEL_PATHS, ids=lambda p: p.stem)
def test_sfs_matches_oracle_on_corpus(path):
    chain, lumping = parse_model(str(path))
    for k in range(2, 8):
        assert_sfs_matches_oracle(chain, lumping, k)


@pytest.mark.parametrize("first", range(0, 400, 25))
def test_sfs_matches_oracle_on_random_sparse_chains(first):
    for seed in range(first, first + 25):
        chain, lumping = random_instance(seed)
        for k in range(2, 6):
            assert_sfs_matches_oracle(chain, lumping, k)


def test_sfs_matches_oracle_where_it_often_holds():
    held = 0
    for seed in range(150):
        chain, lumping = near_deterministic_instance(seed)
        for k in range(2, 7):
            held += assert_sfs_matches_oracle(chain, lumping, k).holds
    assert held >= 300  # the family exercises the holding branch, not only witnesses


def test_sfs_matches_oracle_on_probe_chain():
    chain, lumping = probe_instance()
    for k in range(2, 5):
        assert_sfs_matches_oracle(chain, lumping, k)


def test_sfs_refuses_huge_k_before_building_tables(monkeypatch):
    chain, lumping = probe_instance()

    def unreachable(*args):
        raise AssertionError("tables built for a refused k")

    monkeypatch.setattr(lumping_module, "_sfs_tables", unreachable)
    with pytest.raises(HorizonTooLarge, match=f"{(10**9 - 1) * 40 * 40} cells"):
        check_sfs(chain, lumping, 10**9)


def test_sfs_table_budget_edge():
    # (k-1) * n^2 cells: the largest k within the budget answers, one more is refused
    chain, lumping = probe_instance()
    k = lumping_module._SFS_TABLE_BUDGET // chain.n ** 2 + 1
    assert check_sfs(chain, lumping, k).order_k == k
    with pytest.raises(HorizonTooLarge):
        check_sfs(chain, lumping, k + 1)


@pytest.mark.parametrize("path", MODEL_PATHS, ids=lambda p: p.stem)
def test_single_entry_matches_oracle_on_corpus(path):
    chain, lumping = parse_model(str(path))
    assert repr(check_single_entry(chain, lumping)) == repr(
        oracles.first_single_entry_violation(chain, lumping))


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_single_entry_matches_oracle_on_random_sparse_chains(first):
    for seed in range(first, first + 50):
        rng = np.random.default_rng(seed)
        n_states, n_blocks = int(rng.integers(3, 30)), int(rng.integers(2, 5))
        chain, lumping = _instance(*oracles.random_sparse_chain(
            rng, n_states, min(n_blocks, n_states - 1), seed % 3))
        assert repr(check_single_entry(chain, lumping)) == repr(
            oracles.first_single_entry_violation(chain, lumping))
