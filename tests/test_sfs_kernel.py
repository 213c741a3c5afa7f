"""The pair-table SFS and the one-product single-entry check against their
enumerating oracles.

``check_sfs`` decides the single forward k-sequence property from backward
tables over same-block state pairs and rebuilds the witness with a greedy
walk; ``oracles.first_sfs_violation`` walks every state path. The two must
agree in ``repr()``: same verdict, same witness. The tables are held on the
block-diagonal chunks of the pair kernel, one ``_pair_step`` per level and
(k-1) * sum |C|^2 cells; ``oracles.sfs_tables_dense`` builds them as
``(n x n)`` products, and the two must agree boolean for boolean.
``check_single_entry`` reads one ``(states x blocks)`` count product, and
``oracles.first_single_entry_violation`` loops over every (state, block).
"""

import tracemalloc

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


def sparse_instance(n, n_blocks, out_degree):
    """The benchmark's seeded sparse chain with ``n`` states."""
    rng = np.random.default_rng([7, n, n_blocks, out_degree])
    return _instance(*bench_workloads().sparse_chain(rng, n, n_blocks, out_degree))


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


# The probe chain's four blocks of 10 states make two chunks of 20 (a chunk
# holds at least 2 sqrt(40) states), so each SFS level holds 2 * 20^2 cells.
PROBE_LEVEL_CELLS = 800


def test_sfs_refuses_huge_k_before_building_tables(monkeypatch):
    chain, lumping = probe_instance()

    def unreachable(*args):
        raise AssertionError("tables built for a refused k")

    monkeypatch.setattr(lumping_module, "_sfs_tables", unreachable)
    monkeypatch.setattr(lumping_module, "_chunk_layout", unreachable)
    with pytest.raises(HorizonTooLarge, match=f"{(10**9 - 1) * PROBE_LEVEL_CELLS} cells"):
        check_sfs(chain, lumping, 10**9)


def test_sfs_table_budget_edge():
    # (k-1) * sum |C|^2 cells: the largest k within the budget answers, one more is refused
    chain, lumping = probe_instance()
    k = lumping_module._SFS_TABLE_BUDGET // PROBE_LEVEL_CELLS + 1
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


def assert_tables_match_dense(chain, lumping, k):
    """The chunked ``pairs``/``forks`` equal the dense reference, boolean for
    boolean, at every level a k-sequence check reads."""
    of_state = lumping.of_state
    want_pairs, want_forks = oracles.sfs_tables_dense(
        chain.adjacency, of_state[:, None] == of_state[None, :], k - 1)
    row, forks = lumping_module._sfs_tables(chain, lumping, k - 1)
    assert len(forks) == len(want_forks) == k - 1
    for r in range(k - 1):
        got = np.array([row(r, y) for y in range(chain.n)])
        assert np.array_equal(got, want_pairs[r]), f"pairs[{r}], k={k}"
        assert np.array_equal(forks[r], want_forks[r]), f"forks[{r}], k={k}"


@pytest.mark.parametrize("path", MODEL_PATHS, ids=lambda p: p.stem)
def test_sfs_tables_match_dense_reference_on_corpus(path):
    chain, lumping = parse_model(str(path))
    for k in range(2, 6):
        assert_tables_match_dense(chain, lumping, k)


@pytest.mark.parametrize("first", range(0, 400, 100))
def test_sfs_tables_match_dense_reference_on_random_sparse_chains(first):
    for seed in range(first, first + 100):
        chain, lumping = random_instance(seed)
        for k in range(2, 6):
            assert_tables_match_dense(chain, lumping, k)


def test_sfs_tables_match_dense_reference_on_near_deterministic_chains():
    for seed in range(50):
        assert_tables_match_dense(*near_deterministic_instance(seed), 5)


@pytest.mark.parametrize("n, n_blocks, out_degree, k", (
    (300, 4, 3, 5), (300, 2, 40, 4), (1000, 4, 3, 3), (1000, 16, 3, 3)))
def test_sfs_tables_match_dense_reference_on_large_sparse_chains(n, n_blocks, out_degree, k):
    assert_tables_match_dense(*sparse_instance(n, n_blocks, out_degree), k)


def test_sfs_answers_k3_on_2000_states():
    # 2000 states in 4 blocks: 4 * 500^2 cells a level, within the budget at
    # k = 3 where (k - 1) * n^2 is not
    chain, lumping = sparse_instance(2000, 4, 3)
    got = check_sfs(chain, lumping, 3)
    assert got.order_k == 3 and not got.holds
    v, adj = got.violation, chain.adjacency
    a = [chain.index(x) for x in (v.start_a, *v.path_a)]
    b = [chain.index(x) for x in (v.start_b, *v.path_b)]
    assert len(a) == len(b) == 3
    assert all(adj[x, y] for seq in (a, b) for x, y in zip(seq, seq[1:]))  # realisable
    start_blocks = {lumping.blocks[lumping.of_state[x]] for x in (a[0], b[0])}
    assert start_blocks == {v.start_block}
    for seq in (a, b):
        assert tuple(lumping.blocks[lumping.of_state[x]] for x in seq[1:]) == v.block_word
    assert a[1:] != b[1:]


def test_sfs_peak_memory_on_a_sparse_chain():
    chain, lumping = sparse_instance(300, 4, 3)
    assert chain.adjacency.any()  # cached before tracing, as in an analysis
    tracemalloc.start()
    try:
        check_sfs(chain, lumping, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chain.transition.nbytes


def test_sfs_peak_memory_at_1000_states():
    # the level type of the pair search is int32 here; the SFS mask is one byte a cell
    chain, lumping = sparse_instance(1000, 4, 3)
    assert chain.adjacency.any()  # cached before tracing, as in an analysis
    tracemalloc.start()
    try:
        check_sfs(chain, lumping, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chain.transition.nbytes
