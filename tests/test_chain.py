import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, load_model, raw_blocks
from lumpchain import (
    build_chain,
    check_irreducible_aperiodic,
    k_transition_chain,
    parse_model,
    path_probability,
    reverse_chain,
    stationary_distribution,
)
from lumpchain.errors import (
    BadStartVector,
    DimensionMismatch,
    NegativeEntry,
    NonStochasticRow,
    NotAperiodic,
    NotIrreducible,
    StateSpaceTooLarge,
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
    with pytest.raises(BadStartVector, match="non-finite"):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"], initial=[bad, 1.0])


def test_build_rejects_bad_dimensions():
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5]], ["u", "v"])
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u"])
    with pytest.raises(DimensionMismatch):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "u"])


def test_zero_threshold_clamps_dust():
    ch = build_chain([[1.0 - 1e-16, 1e-16], [0.5, 0.5]], ["u", "v"])
    assert ch.transition[0, 1] == 0.0
    exact = build_chain([[1.0 - 1e-16, 1e-16], [0.5, 0.5]], ["u", "v"], zero_threshold=0.0)
    assert exact.transition[0, 1] > 0.0


def test_stationary_doubly_stochastic_is_uniform():
    ch = build_chain([[0.2, 0.8], [0.8, 0.2]], ["u", "v"])
    assert np.allclose(stationary_distribution(ch), [0.5, 0.5], atol=1e-12)


def test_stationary_two_state_closed_form():
    p, q = 0.3, 0.1
    ch = build_chain([[1 - p, p], [q, 1 - q]], ["u", "v"])
    mu = stationary_distribution(ch)
    assert np.allclose(mu, [q / (p + q), p / (p + q)], atol=1e-12)


def test_stationary_matches_elimination_oracle():
    matrix, _ = raw_blocks("lossy_strong2")
    ch = build_chain(matrix, list("1234"))
    expected = oracles.eliminate_stationary([list(r) for r in ch.transition])
    assert np.allclose(stationary_distribution(ch), expected, atol=1e-12)


def test_stationary_rejects_reducible():
    ch = build_chain([[1.0, 0.0], [0.0, 1.0]], ["u", "v"])
    with pytest.raises(NotIrreducible):
        stationary_distribution(ch)


def test_stationary_periodic_gate_and_override():
    ch, _ = load_model("parallel_cycle")
    with pytest.raises(NotAperiodic):
        stationary_distribution(ch)
    mu = stationary_distribution(ch, require_aperiodic=False)
    assert np.allclose(mu, 0.25, atol=1e-12)


def test_connectivity_identity_not_irreducible():
    ch = build_chain([[1.0, 0.0], [0.0, 1.0]], ["u", "v"])
    rep = check_irreducible_aperiodic(ch)
    assert not rep.irreducible


def test_connectivity_two_cycle_periodic():
    ch = build_chain([[0.0, 1.0], [1.0, 0.0]], ["u", "v"])
    rep = check_irreducible_aperiodic(ch)
    assert rep.irreducible and rep.period == 2 and not rep.aperiodic


def test_connectivity_corpus_all_irreducible(corpus_case):
    name, chain, _, _ = corpus_case
    rep = check_irreducible_aperiodic(chain)
    assert rep.irreducible
    assert rep.aperiodic == (name != "parallel_cycle")


# the boolean-frontier levels against the set BFS they replaced
@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_connectivity_matches_set_bfs_on_corpus(path):
    chain, _ = parse_model(str(path))
    assert check_irreducible_aperiodic(chain) == oracles.connectivity_by_bfs(chain)


@pytest.mark.parametrize("matrix,expected", [
    (np.roll(np.eye(5), 1, axis=1), (True, 5)),  # pure 5-cycle
    ([[0, 0, .5, .5], [0, 0, 1, 0], [.3, .7, 0, 0], [1, 0, 0, 0]], (True, 2)),  # bipartite
    ([[1, 0, 0], [.5, 0, .5], [0, .5, .5]], (False, 1)),  # 0 absorbing
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], (False, 2)),  # 0 transient, periodic sink
])
def test_connectivity_matches_set_bfs_on_periodic_and_reducible(matrix, expected):
    chain = build_chain(matrix)
    rep = check_irreducible_aperiodic(chain)
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
    assert check_irreducible_aperiodic(chain) == oracles.connectivity_by_bfs(chain)


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


def test_k_transition_identity_lift():
    ch, _ = load_model("lossy_strong2")
    lifted = k_transition_chain(ch, 1)
    assert lifted.states == ch.states
    assert np.allclose(lifted.transition, ch.transition, atol=1e-15)


def test_k_transition_two_state_full():
    ch = build_chain([[0.3, 0.7], [0.6, 0.4]], ["u", "v"])
    lifted = k_transition_chain(ch, 2)
    mu = ch.stationary
    assert lifted.n == 4
    for w, mass in zip(lifted.states, lifted.stationary):
        a, b = w.split("|")
        i, j = ch.index(a), ch.index(b)
        assert mass == pytest.approx(mu[i] * ch.transition[i, j], abs=1e-12)


def test_k_transition_mass_marginalises():
    ch, _ = load_model("lossy_strong2")
    lifted = k_transition_chain(ch, 2)
    assert lifted.stationary.sum() == pytest.approx(1.0, abs=1e-10)
    words = oracles.realisable_words([list(r) for r in ch.transition], 2)
    assert lifted.n == len(words)
    marg = np.zeros(ch.n)
    for w, mass in zip(lifted.states, lifted.stationary):
        marg[ch.index(w.split("|")[0])] += mass
    assert np.allclose(marg, ch.stationary, atol=1e-10)
    assert np.max(np.abs(lifted.stationary @ lifted.transition - lifted.stationary)) <= 1e-10


def test_k_transition_state_cap():
    ch, _ = load_model("lossy_strong2")
    with pytest.raises(StateSpaceTooLarge):
        k_transition_chain(ch, 4, max_states=10)


def test_path_probability_single_state():
    ch, _ = load_model("lossy_strong2")
    mu = ch.stationary
    for i, s in enumerate(ch.states):
        assert path_probability(ch, [s]) == pytest.approx(mu[i], abs=1e-15)


def test_path_probability_zero_edge():
    ch, _ = load_model("lossy_strong2")
    assert path_probability(ch, ["1", "3"]) == 0.0


def test_path_probability_split_merge_window():
    ch, _ = load_model("merge_eps")
    assert path_probability(ch, ["3", "1", "3"]) > 0
    assert path_probability(ch, ["3", "2", "3"]) > 0


def test_path_probability_unknown_state():
    ch, _ = load_model("merge_hub")
    with pytest.raises(UnknownState):
        path_probability(ch, ["1", "zz"])


def test_path_probability_positive_iff_edges(corpus_case):
    _, chain, _, _ = corpus_case
    rng = np.random.default_rng(7)
    adj = chain.adjacency
    for _ in range(50):
        word = [int(rng.integers(chain.n)) for _ in range(4)]
        p = path_probability(chain, [chain.states[i] for i in word])
        edges_ok = all(adj[a, b] for a, b in zip(word, word[1:]))
        assert (p > 0) == edges_ok


def test_initial_vector_validation():
    with pytest.raises(BadStartVector):
        build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"], initial=[0.5, 0.4])
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"], initial=[0.9, 0.1])
    assert path_probability(ch, ["u"]) == pytest.approx(0.9)


def test_stationary_residual_on_corpus(corpus_case):
    _, chain, _, _ = corpus_case
    mu = chain.stationary
    assert np.max(np.abs(mu @ chain.transition - mu)) <= 1e-10
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu > 0)
