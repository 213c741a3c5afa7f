import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads, load_model, raw_blocks
from lumpchain import (
    build_chain,
    parse_model,
    reverse_chain,
)
from lumpchain import chain as chain_module
from lumpchain.chain import ConnectivityReport
from lumpchain.errors import (
    DimensionMismatch,
    NegativeEntry,
    NoConvergence,
    NonStochasticRow,
    NotIrreducible,
    UnknownState,
)


def test_build_symmetric_pair():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"])
    assert ch.n == 2
    assert np.allclose(ch.transition.sum(axis=1), 1.0, atol=1e-12)


def test_build_corpus_rows_sum_to_one(corpus_case):
    _, chain, _, _ = corpus_case
    assert np.max(np.abs(chain.transition.sum(axis=1) - 1.0)) <= 1e-12


def test_build_rejects_short_row():
    with pytest.raises(NonStochasticRow):
        build_chain([[0.5, 0.4], [0.5, 0.5]], ["u", "v"])


def test_build_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        build_chain([[1.1, -0.1], [0.5, 0.5]], ["u", "v"])


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
def test_build_rejects_non_finite_entries(bad):
    with pytest.raises(NonStochasticRow, match="non-finite"):
        build_chain([[1.0, 0.0], [bad, 1.0]], ["u", "v"])


def test_build_rejects_bad_dimensions():
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5]], ["u", "v"])
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u"])
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "u"])


@pytest.mark.parametrize("matrix", (
    [[0.5, 0.5], [1.0]],
    [[0.5, "x"], [1.0, 0]],
    [[0.5, {}], [1.0, 0]],
    [["0.5", "0.5"], ["1", 0]],
    [["1/2", "1/2"], ["1", 0]],
    [[True, False], [0.5, 0.5]],
    [[0.5, None], [1, 0]],
), ids=("ragged-matrix", "string-entry", "dict-entry", "decimal-string-matrix",
        "fraction-string-matrix", "bool-matrix", "none-entry"))
def test_build_rejects_data_that_is_no_array_of_numbers(matrix):
    with pytest.raises(DimensionMismatch, match="not an array of numbers"):
        build_chain(matrix, ["u", "v"])


def test_zero_threshold_clamps_dust():
    ch = build_chain([[1.0 - 1e-16, 1e-16], [0.5, 0.5]], ["u", "v"])
    assert ch.transition[0, 1] == 0.0
    exact = build_chain([[1.0 - 1e-16, 1e-16], [0.5, 0.5]], ["u", "v"], zero_threshold=0.0)
    assert exact.transition[0, 1] > 0.0


def test_stationary_doubly_stochastic_is_uniform():
    ch = build_chain([[0.2, 0.8], [0.8, 0.2]], ["u", "v"])
    assert np.allclose(ch.stationary, [0.5, 0.5], atol=1e-12)


def test_stationary_two_state_closed_form():
    p, q = 0.3, 0.1
    ch = build_chain([[1 - p, p], [q, 1 - q]], ["u", "v"])
    assert np.allclose(ch.stationary, [q / (p + q), p / (p + q)], atol=1e-12)


def test_stationary_matches_elimination_oracle():
    matrix, _ = raw_blocks("lossy_strong2")
    ch = build_chain(matrix, list("1234"))
    expected = oracles.eliminate_stationary([list(r) for r in ch.transition])
    assert np.allclose(ch.stationary, expected, atol=1e-12)


def test_stationary_rejects_reducible():
    ch = build_chain([[1.0, 0.0], [0.0, 1.0]], ["u", "v"])
    with pytest.raises(NotIrreducible):
        ch.stationary


def test_stationary_of_periodic_chain_with_its_period():
    ch, _ = load_model("parallel_cycle")
    assert not ch.connectivity.aperiodic
    assert np.allclose(ch.stationary, 0.25, atol=1e-12)


def test_stationary_reports_a_singular_solve_as_no_convergence(monkeypatch):
    ch = build_chain([[0.2, 0.8], [0.8, 0.2]], ["u", "v"])

    def singular(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(chain_module.np.linalg, "solve", singular)
    with pytest.raises(NoConvergence, match="Singular matrix"):
        ch.stationary
    assert "stationary" not in ch._cache


def nearly_decomposable(rng, eps):
    """An irreducible chain of 2-5 dense groups joined by a ring of cross
    edges, every cross-group entry scaled by ``eps``."""
    sizes = rng.integers(2, 9, size=int(rng.integers(2, 6)))
    group = np.repeat(np.arange(len(sizes)), sizes)
    n = len(group)
    matrix = rng.random((n, n)) + 0.05
    cross = group[:, None] != group[None, :]
    matrix[cross] *= eps * rng.random(int(cross.sum()))
    starts = np.cumsum(sizes) - sizes
    matrix[starts, np.roll(starts, -1)] = eps  # the ring keeps every group reachable
    return matrix / matrix.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(10))
def test_direct_stationary_solve_is_exact_on_nearly_decomposable_chains(seed):
    rng = np.random.default_rng(seed)
    for eps in 10.0 ** -rng.uniform(2, 14, size=30):
        chain = build_chain(nearly_decomposable(rng, eps), zero_threshold=0.0)
        assert chain.connectivity.irreducible
        mu = chain.stationary
        assert np.max(np.abs(mu @ chain.transition - mu)) <= 1e-12
        assert np.all(mu > 0) and mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_rejects_a_large_residual(monkeypatch):
    ch = build_chain([[0.2, 0.8], [0.8, 0.2]], ["u", "v"])
    monkeypatch.setattr(chain_module, "_solve_stationary", lambda P: np.array([0.6, 0.4]))
    with pytest.raises(NoConvergence, match="residual"):
        ch.stationary
    assert "stationary" not in ch._cache


def test_connectivity_identity_not_irreducible():
    ch = build_chain([[1.0, 0.0], [0.0, 1.0]], ["u", "v"])
    rep = ch.connectivity
    assert not rep.irreducible


def test_connectivity_two_cycle_periodic():
    ch = build_chain([[0.0, 1.0], [1.0, 0.0]], ["u", "v"])
    rep = ch.connectivity
    assert rep.irreducible and rep.period == 2 and not rep.aperiodic


def test_connectivity_corpus_all_irreducible(corpus_case):
    name, chain, _, _ = corpus_case
    rep = chain.connectivity
    assert rep.irreducible
    assert rep.aperiodic == (name != "parallel_cycle")


# the boolean-frontier levels against the set BFS they replaced
@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_connectivity_matches_set_bfs_on_corpus(path):
    chain, _ = parse_model(str(path))
    assert chain.connectivity == oracles.connectivity_by_bfs(chain)


@pytest.mark.parametrize("matrix,expected", [
    (np.roll(np.eye(5), 1, axis=1), (True, 5)),  # pure 5-cycle
    ([[0, 0, .5, .5], [0, 0, 1, 0], [.3, .7, 0, 0], [1, 0, 0, 0]], (True, 2)),  # bipartite
    ([[1, 0, 0], [.5, 0, .5], [0, .5, .5]], (False, 1)),  # 0 absorbing
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], (False, 2)),  # 0 transient, periodic sink
])
def test_connectivity_matches_set_bfs_on_periodic_and_reducible(matrix, expected):
    chain = build_chain(matrix)
    rep = chain.connectivity
    assert rep == oracles.connectivity_by_bfs(chain)
    assert (rep.irreducible, rep.period) == expected


@pytest.mark.parametrize("seed", range(30))
def test_connectivity_matches_set_bfs_on_sparse_chains(seed):
    # even seeds: irreducible aperiodic; odd: 1-2 random out-edges per
    # state, reducible
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    if seed % 2 == 0:
        matrix, _ = oracles.random_sparse_chain(rng, n, 2)
    else:
        matrix = np.zeros((n, n))
        for x in range(n):
            matrix[x, rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = 1.0
        matrix /= matrix.sum(axis=1, keepdims=True)
    chain = build_chain(matrix)
    assert chain.connectivity == oracles.connectivity_by_bfs(chain)


def test_reverse_detailed_balance_is_identity():
    ch = build_chain([[0.2, 0.8], [0.8, 0.2]], ["u", "v"])
    assert np.allclose(reverse_chain(ch).transition, ch.transition, atol=1e-12)


def test_reverse_is_involution(corpus_case):
    _, chain, _, _ = corpus_case
    back = reverse_chain(reverse_chain(chain))
    assert np.max(np.abs(back.transition - chain.transition)) <= 1e-12


def test_reverse_preserves_stationary(corpus_case):
    _, chain, _, _ = corpus_case
    rev = reverse_chain(chain)
    assert rev.stationary is chain.stationary
    assert np.max(np.abs(rev.stationary @ rev.transition - rev.stationary)) <= 1e-10


def test_index_rejects_unknown_state():
    ch, _ = load_model("merge_hub")
    assert ch.index("1") == 0
    with pytest.raises(UnknownState):
        ch.index("zz")


def test_stationary_residual_on_corpus(corpus_case):
    _, chain, _, _ = corpus_case
    mu = chain.stationary
    assert np.max(np.abs(mu @ chain.transition - mu)) <= 1e-10
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu > 0)


# ---------------------------------------------------------------------------
# set-up keeps the bits of the original build, solve and connectivity


def dusty(dust):
    """A seeded sparse chain with ``dust`` written over a few of its edges
    and the rows renormalised."""
    rng = np.random.default_rng(15)
    matrix = np.array(oracles.random_sparse_chain(rng, int(rng.integers(5, 30)), 2)[0])
    rows, cols = np.nonzero(matrix)
    at = rng.choice(len(rows), size=min(len(rows), 4), replace=False)
    matrix[rows[at], cols[at]] = dust
    return matrix / matrix.sum(axis=1, keepdims=True)


def setup_cases():
    """(key, matrix, zero_threshold) for the set-up bit checks."""
    default = chain_module.DEFAULT_ZERO_THRESHOLD
    for path in sorted(MODELS_DIR.glob("*.json")):
        yield path.stem, raw_blocks(path.stem)[0], default
    for seed in range(15):
        rng = np.random.default_rng(seed)
        matrix, _ = oracles.random_sparse_chain(rng, int(rng.integers(5, 60)), 2)
        yield f"sparse-{seed}", matrix, default
    for seed in range(15):
        rng = np.random.default_rng(seed)
        yield f"nearly-decomposable-{seed}", nearly_decomposable(rng, 1e-6), 0.0
    workloads = bench_workloads()
    for seed in (0, 11):
        for item in workloads.make_items("pairs", seed, MODELS_DIR.parent):
            yield f"pairs-{seed}-{item.key}", item.matrix, default
    yield "period-2", [[0, 0, .5, .5], [0, 0, 1, 0], [.3, .7, 0, 0], [1, 0, 0, 0]], default
    yield "reducible", [[1, 0, 0], [.5, 0, .5], [0, .5, .5]], default
    # 0 and 1 a 2-cycle; the edges of 2, which 0 does not reach, have no level
    yield "reducible-periodic", [[0, 1, 0], [1, 0, 0], [.5, 0, .5]], default
    yield "negative-zeros", [[0.5, -0.0, 0.5], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]], default
    for dust in (5e-324, 1e-300, 1e-16, 1e-15, 1.0000000000000002e-15):
        for threshold in (default, 0.0):
            yield f"dust-{dust!r}-threshold-{threshold!r}", dusty(dust), threshold


SETUP_CASES = list(setup_cases())


@pytest.mark.parametrize("matrix, zero_threshold", [case[1:] for case in SETUP_CASES],
                         ids=[case[0] for case in SETUP_CASES])
def test_setup_keeps_the_bits_of_the_original(matrix, zero_threshold):
    chain = build_chain(matrix, zero_threshold=zero_threshold)
    transition = oracles.transition_v1(matrix, zero_threshold)
    assert chain.transition.tobytes() == transition.tobytes()
    assert chain.connectivity == oracles.connectivity_by_bfs(chain)
    if chain.connectivity.irreducible:
        assert chain.stationary.tobytes() == oracles.stationary_v1(transition).tobytes()


def test_setup_cases_cover_clamping_and_both_graph_kinds():
    chains = {key: build_chain(m, zero_threshold=t) for key, m, t in SETUP_CASES}
    assert len(chains) == 10 + 30 + 12 + 4 + 10
    assert not chains["reducible"].connectivity.irreducible
    assert chains["period-2"].connectivity.period == 2
    assert chains["reducible-periodic"].connectivity == ConnectivityReport(False, False, 2)
    clamped = [key for key, m, _ in SETUP_CASES
               if np.count_nonzero(chains[key].transition) < np.count_nonzero(m)]
    assert len(clamped) >= 3
    assert all(key.startswith("dust-") and key.endswith("threshold-1e-15") for key in clamped)
