import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, load_model, raw_blocks
from lumpchain import (
    build_chain,
    build_lumping,
    check_sfs,
    check_single_entry,
    check_strong_lumpable,
    check_weak_lumpable,
    conditional_entropy_rate_estimate,
    entropy_loss_bound,
    identity_lumping,
    pair_depth_cap,
    preimage_count,
    reverse_chain,
    split_merge_index,
)
from lumpchain.errors import (
    KTooSmall,
    TrivialLumping,
    UnknownBlock,
    UnknownState,
    ValidationError,
)


def block_word(lumping, state_word):
    return tuple(lumping.map[s] for s in state_word)


def is_path(chain, state_word):
    """Every consecutive pair of the state word is an edge of the chain."""
    idx = [chain.index(s) for s in state_word]
    return all(chain.adjacency[a, b] for a, b in zip(idx, idx[1:]))


# ---------------------------------------------------------------------------
# construction


def test_build_lumping_requires_totality():
    ch, _ = load_model("merge_hub")
    with pytest.raises(ValidationError):
        build_lumping(ch, {"1": "A", "2": "A"})


def test_build_lumping_rejects_unknown_states():
    ch, _ = load_model("merge_hub")
    with pytest.raises(UnknownState):
        build_lumping(ch, {"1": "A", "2": "A", "3": "B", "9": "B"})


def test_build_lumping_trivial_gate():
    ch, _ = load_model("merge_hub")
    with pytest.raises(TrivialLumping):
        build_lumping(ch, {s: "Z" for s in ch.states})
    with pytest.raises(TrivialLumping):
        build_lumping(ch, {s: s for s in ch.states})
    ident = identity_lumping(ch)
    assert ident.n_blocks == ch.n


def test_lumping_preimage_index(corpus_case):
    _, chain, lumping, _ = corpus_case
    assert sorted(sum((lumping.preimage(b) for b in lumping.blocks), ())) == \
        sorted(chain.states)
    with pytest.raises(UnknownBlock):
        lumping.preimage("no-such-block")


# ---------------------------------------------------------------------------
# preimages


def test_preimage_operations_reject_unknown_block():
    ch, g = load_model("merge_hub")
    with pytest.raises(UnknownBlock):
        preimage_count(ch, g, ["A", "Z"])
    with pytest.raises(UnknownBlock):
        preimage_count(ch, g, ["Z"])


def test_preimage_count_identity_is_one():
    ch, _ = load_model("lossy_strong2")
    ident = identity_lumping(ch)
    word = ["2", "1", "1", "2", "4"]
    assert is_path(ch, word)
    assert preimage_count(ch, ident, word) == 1


def test_preimage_count_matches_enumeration(corpus_case):
    name, chain, lumping, _ = corpus_case
    _, blocks = raw_blocks(name)
    matrix = [list(r) for r in chain.transition]
    rng = np.random.default_rng(17)
    for length in (1, 2, 4, 6, 8):
        for _ in range(8):
            word_idx = [int(rng.integers(lumping.n_blocks)) for _ in range(length)]
            word = [lumping.blocks[b] for b in word_idx]
            expected = len(oracles.preimage_by_enumeration(matrix, blocks, word_idx))
            assert preimage_count(chain, lumping, word) == expected


def test_preimage_count_bounded_without_witness(corpus_case):
    name, chain, lumping, traits = corpus_case
    if traits["kappa"] is not None:
        pytest.skip("bound only holds without a split-merge witness")
    cap = (chain.n - lumping.n_blocks + 1) ** 2
    rng = np.random.default_rng(23)
    matrix = [list(r) for r in chain.transition]
    mu = oracles.eliminate_stationary(matrix)
    _, blocks = raw_blocks(name)
    for _ in range(40):
        # random realisable block word: image of a random realisable state path
        n = int(rng.integers(1, 9))
        words = oracles.realisable_words(matrix, n)
        w = words[int(rng.integers(len(words)))]
        word = [lumping.blocks[blocks[x]] for x in w]
        assert preimage_count(chain, lumping, word) <= cap


# ---------------------------------------------------------------------------
# split-merge index


def test_kappa_on_corpus(corpus_case):
    _, chain, lumping, traits = corpus_case
    res = split_merge_index(chain, lumping)
    if traits["kappa"] is None:
        assert math.isinf(res.kappa)
        assert res.witness is None
    else:
        assert res.kappa == traits["kappa"]
        w = res.witness
        assert w is not None and w.kappa == res.kappa
        assert w.path_a != w.path_b
        # witness paths are realisable with the same block image
        for path in (w.path_a, w.path_b):
            full = (w.check_state,) + path + (w.hat_state,)
            assert is_path(chain, full)
            assert block_word(lumping, path) == w.lumped_word
        # minimal witnesses differ in every coordinate
        assert all(a != b for a, b in zip(w.path_a, w.path_b))


def test_kappa_matches_bruteforce(corpus_case):
    name, chain, lumping, traits = corpus_case
    if chain.n > 6:
        pytest.skip("brute force reserved for small chains")
    matrix, blocks = raw_blocks(name)
    expected = oracles.kappa_by_path_pairs(matrix, blocks, pair_depth_cap(lumping))
    res = split_merge_index(chain, lumping)
    assert (None if math.isinf(res.kappa) else int(res.kappa)) == expected


def test_kappa_is_one_for_positive_matrices():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = int(rng.integers(2, 7))
        matrix = rng.random((n, n)) + 0.05
        matrix /= matrix.sum(axis=1, keepdims=True)
        ch = build_chain(matrix, [str(i) for i in range(n)])
        if n == 2:
            g = build_lumping(ch, {"0": "A", "1": "A"}, allow_trivial=True)
        else:
            g = build_lumping(ch, {s: ("A" if i < 2 else f"B{i}")
                                   for i, s in enumerate(ch.states)})
        assert split_merge_index(ch, g).kappa == 1


def test_kappa_witness_hub_window():
    for name in ("merge_eps", "merge_hub"):
        ch, g = load_model(name)
        res = split_merge_index(ch, g)
        assert res.kappa == 1
        w = res.witness
        assert (w.check_state, w.hat_state) == ("3", "3")
        assert {w.path_a, w.path_b} == {("1",), ("2",)}


# seeds of sparse_instance with split-merge index 2, 3, 4, 5, 6 and 8
DEEP_WITNESS_SEEDS = (12, 16, 22, 23, 3, 13, 98, 163, 36, 149, 173, 238, 1980, 1629, 1467)


def sparse_instance(seed):
    """Seeded 5-9-state sparse chain with 2-3 blocks, as (chain, lumping)."""
    rng = np.random.default_rng(seed)
    n, n_blocks = int(rng.integers(5, 10)), int(rng.integers(2, 4))
    matrix, blocks = oracles.random_sparse_chain(rng, n, n_blocks, extra_edges=1)
    chain = build_chain(matrix, [str(i) for i in range(n)])
    return chain, build_lumping(chain, {str(i): "ABC"[b] for i, b in enumerate(blocks)})


def two_branch_chain(length):
    """Hub 0 opens two parallel branches of ``length`` states that rejoin it.

    The i-th states of both branches share block ``B{i}``, so the split-merge
    index is ``length`` with the hub as check and hat state.
    """
    n = 2 * length + 1
    matrix = [[0.0] * n for _ in range(n)]
    matrix[0][0] = matrix[0][1] = matrix[0][length + 1] = 1.0 / 3.0
    for i in range(1, length + 1):
        for start in (i, length + i):
            matrix[start][start + 1 if i < length else 0] = 1.0
    chain = build_chain(matrix, [str(i) for i in range(n)])
    assignment = {"0": "H"}
    assignment.update({str(i): f"B{(i - 1) % length}" for i in range(1, n)})
    return chain, build_lumping(chain, assignment)


def assert_witnesses_match_windows(chain, lumping):
    """Witness and loss bound agree with brute-force minimal windows."""
    res = split_merge_index(chain, lumping)
    bound = entropy_loss_bound(chain, lumping)
    if math.isinf(res.kappa):
        assert bound is None
        return
    kappa = int(res.kappa)
    matrix = chain.transition.tolist()
    windows = oracles.minimal_windows(matrix, lumping.of_state.tolist(), kappa)
    names = chain.states
    a, b, check, hat = min((a, b, check, hat)
                           for (check, _, hat), mids in windows.items()
                           for a, b in itertools.combinations(mids, 2))
    w = res.witness
    assert (w.path_a, w.path_b, w.check_state, w.hat_state) == (
        tuple(names[x] for x in a), tuple(names[x] for x in b), names[check], names[hat])

    mu = oracles.eliminate_stationary(matrix)
    best = 0.0
    for (check, _, hat), mids in windows.items():
        probs = [oracles.word_probability(matrix, mu, (check,) + m + (hat,)) for m in mids]
        loss = oracles.entropy_bits([p / sum(probs) for p in probs])
        best = max(best, max(probs) / (2.0 * (kappa + 2)) * loss)
    assert bound.rate_lower_bound == pytest.approx(best, rel=1e-9, abs=1e-15)


def test_witnesses_match_minimal_windows_on_corpus(corpus_case):
    _, chain, lumping, _ = corpus_case
    assert_witnesses_match_windows(chain, lumping)


@pytest.mark.parametrize("seed", DEEP_WITNESS_SEEDS)
def test_witnesses_match_minimal_windows_on_deep_chains(seed):
    chain, lumping = sparse_instance(seed)
    assert split_merge_index(chain, lumping).kappa >= 2
    assert_witnesses_match_windows(chain, lumping)


def test_witnesses_match_minimal_windows_on_two_branches():
    chain, lumping = two_branch_chain(6)
    assert split_merge_index(chain, lumping).kappa == 6
    assert_witnesses_match_windows(chain, lumping)


def test_kappa_respects_depth_cap(corpus_case):
    _, chain, lumping, _ = corpus_case
    res = split_merge_index(chain, lumping)
    if math.isfinite(res.kappa):
        assert res.kappa <= pair_depth_cap(lumping)


# ---------------------------------------------------------------------------
# structural conditions


def test_single_entry_on_corpus(corpus_case):
    _, chain, lumping, traits = corpus_case
    res = check_single_entry(chain, lumping)
    assert res.holds == traits["se"]
    if not res.holds:
        v = res.violation
        assert v is not None
        a = chain.transition[chain.index(v.state), chain.index(v.successor_a)]
        b = chain.transition[chain.index(v.state), chain.index(v.successor_b)]
        assert a > 0 and b > 0
        assert lumping.map[v.successor_a] == lumping.map[v.successor_b] == v.block


def test_single_entry_branch_violation():
    ch, g = load_model("tagged_branches")
    v = check_single_entry(ch, g).violation
    assert (v.state, v.block) == ("a", "B")
    assert {v.successor_a, v.successor_b} == {"b1", "b2"}


def test_single_entry_identity_holds():
    ch, _ = load_model("lossy_strong2")
    assert check_single_entry(ch, identity_lumping(ch)).holds


def test_sfs_on_corpus(corpus_case):
    _, chain, lumping, traits = corpus_case
    assert check_sfs(chain, lumping, 2).holds == traits["sfs2"]


def test_sfs_unique_entry_all_orders():
    ch, g = load_model("unique_entry")
    for k in range(2, 7):
        assert check_sfs(ch, g, k).holds


def test_sfs_parallel_cycle_fails_all_orders():
    ch, g = load_model("parallel_cycle")
    for k in range(2, 7):
        res = check_sfs(ch, g, k)
        assert not res.holds
        v = res.violation
        assert v.path_a != v.path_b
        assert block_word(g, v.path_a) == block_word(g, v.path_b) == v.block_word
        for start, path in ((v.start_a, v.path_a), (v.start_b, v.path_b)):
            assert g.map[start] == v.start_block
            assert is_path(ch, (start,) + path)


def test_sfs_identity_holds():
    ch, _ = load_model("lossy_strong2")
    assert check_sfs(ch, identity_lumping(ch), 2).holds


def test_sfs_rejects_small_k():
    ch, g = load_model("merge_hub")
    with pytest.raises(KTooSmall):
        check_sfs(ch, g, 1)


# ---------------------------------------------------------------------------
# lumpability


def test_strong_on_corpus(corpus_case):
    _, chain, lumping, traits = corpus_case
    for k, key in ((1, "strong1"), (2, "strong2")):
        res = check_strong_lumpable(chain, lumping, k)
        assert res.strong == traits[key], f"k={k}"
        gap = abs(res.rate_bound_upper - res.rate_bound_lower)
        assert (gap <= 1e-9) == res.strong, f"entropy route disagrees at k={k}"
        if not res.strong:
            w = res.witness
            assert w is not None
            assert abs(w.prob_a - w.prob_b) > 1e-9


def test_strong_witness_weak_model():
    ch, g = load_model("weak_not_strong")
    res = check_strong_lumpable(ch, g, 1)
    assert not res.strong
    assert res.rate_bound_lower == pytest.approx(0.5588, abs=1e-4)
    assert res.rate_bound_upper == pytest.approx(0.9061, abs=1e-4)


def test_weak_on_corpus(corpus_case):
    _, chain, lumping, traits = corpus_case
    res = check_weak_lumpable(chain, lumping, 1, horizon=6)
    assert res.weak_up_to_horizon == \
        type(res.weak_up_to_horizon)(verdict=traits["weak1"], horizon=6)
    assert len(res.conditional_entropies) == 6
    if traits["weak1"]:
        for h in res.conditional_entropies:
            assert h == pytest.approx(res.conditional_entropies[0], abs=1e-9)


def test_weak_violation_matches_enumeration():
    for name in ("sticky_pair", "lossless_sticky"):
        chain, lumping = load_model(name)
        matrix, blocks = raw_blocks(name)
        mu = oracles.eliminate_stationary([list(r) for r in chain.transition])
        for k in range(1, 5):
            res = check_weak_lumpable(chain, lumping, k, horizon=8)
            assert not res.weak_up_to_horizon.verdict, f"{name} k={k}"
            oracle = oracles.markov_order_violation(
                [list(r) for r in chain.transition], mu, blocks, k, 8)
            assert oracle is not None


def test_weak_holds_for_strongly_lumpable_orders(corpus_case):
    _, chain, lumping, traits = corpus_case
    for k, key in ((1, "strong1"), (2, "strong2")):
        if traits[key]:
            assert check_weak_lumpable(chain, lumping, k, horizon=6).weak_up_to_horizon.verdict


# every model file plus seeded sparse chains; witnesses must be the first
# violation in the documented order, not just any violation
WITNESS_CASES = ([f"model:{p.stem}" for p in sorted(MODELS_DIR.glob("*.json"))]
                 + [f"seed:{s}" for s in range(16)])


def _witness_case(case):
    kind, name = case.split(":")
    if kind == "model":
        chain, lumping = load_model(name)
    else:
        rng = np.random.default_rng(int(name))
        n = int(rng.integers(3, 9))
        n_blocks = int(rng.integers(2, min(4, n - 1) + 1))
        matrix, blocks = oracles.random_sparse_chain(rng, n, n_blocks)
        chain = build_chain(matrix, [str(i) for i in range(n)])
        lumping = build_lumping(chain, {str(i): "ABCD"[b] for i, b in enumerate(blocks)})
    labels = [lumping.map[s] for s in chain.states]
    order = list(dict.fromkeys(labels))  # blocks by first appearance
    matrix = [list(r) for r in chain.transition]
    return (chain, lumping, matrix, oracles.eliminate_stationary(matrix),
            [order.index(b) for b in labels])


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_strong_witness_is_first_by_enumeration(case):
    chain, lumping, matrix, mu, blocks = _witness_case(case)
    for k in (1, 2):
        res = check_strong_lumpable(chain, lumping, k)
        expected = oracles.first_strong_violation(matrix, mu, blocks, k)
        if expected is None:
            assert res.strong and res.witness is None, f"k={k}"
            continue
        x, word, y, prob_a, prob_b = expected
        assert not res.strong, f"k={k}"
        assert res.witness.conditioning == \
            (chain.states[x],) + tuple(lumping.blocks[b] for b in word)
        assert res.witness.symbol == lumping.blocks[y]
        assert res.witness.prob_a == pytest.approx(prob_a, abs=1e-12)
        assert res.witness.prob_b == pytest.approx(prob_b, abs=1e-12)


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_weak_witness_is_first_by_enumeration(case):
    chain, lumping, matrix, mu, blocks = _witness_case(case)
    for k in (1, 2, 3):
        res = check_weak_lumpable(chain, lumping, k, horizon=6)
        expected = oracles.first_weak_violation(matrix, mu, blocks, k, 6)
        if expected is None:
            assert res.weak_up_to_horizon.verdict and res.witness is None, f"k={k}"
            continue
        word, y, prob_a, prob_b = expected
        assert not res.weak_up_to_horizon.verdict, f"k={k}"
        assert res.witness.conditioning == tuple(lumping.blocks[b] for b in word)
        assert res.witness.symbol == lumping.blocks[y]
        assert res.witness.prob_a == pytest.approx(prob_a, abs=1e-12)
        assert res.witness.prob_b == pytest.approx(prob_b, abs=1e-12)


def test_single_entry_and_weak_implies_strong(corpus_case):
    _, chain, lumping, traits = corpus_case
    if not traits["se"]:
        pytest.skip("needs the single-entry property")
    for k in (1, 2):
        weak = check_weak_lumpable(chain, lumping, k, horizon=6).weak_up_to_horizon.verdict
        if weak:
            assert check_strong_lumpable(chain, lumping, k).strong


def test_strong_transfers_to_reversed_weak(corpus_case):
    _, chain, lumping, traits = corpus_case
    rev = reverse_chain(chain)
    for k, key in ((1, "strong1"), (2, "strong2")):
        if traits[key]:
            res = check_weak_lumpable(rev, lumping, k, horizon=6)
            assert res.weak_up_to_horizon.verdict, f"k={k}"


# ---------------------------------------------------------------------------
# loss bound


def test_loss_bound_absent_without_witness(corpus_case):
    _, chain, lumping, traits = corpus_case
    bound = entropy_loss_bound(chain, lumping)
    assert (bound is None) == (traits["kappa"] is None)


def test_loss_bound_invariants(corpus_case):
    _, chain, lumping, traits = corpus_case
    bound = entropy_loss_bound(chain, lumping)
    if bound is None:
        return
    kappa = bound.witness.kappa
    assert bound.loss_entropy > 0
    assert 0 < bound.alpha <= 1.0 / (2 * (kappa + 2))
    assert bound.growth_constant > 1.0
    assert bound.rate_lower_bound == pytest.approx(bound.alpha * bound.loss_entropy)
    loss = conditional_entropy_rate_estimate(chain, lumping, 8)
    assert bound.rate_lower_bound <= loss.loss_lower + 1e-9
    for path in (bound.witness.path_a, bound.witness.path_b):
        full = (bound.witness.check_state,) + path + (bound.witness.hat_state,)
        assert is_path(chain, full)


def test_loss_bound_lossy_strong2_consistent_with_exact_loss():
    ch, g = load_model("lossy_strong2")
    bound = entropy_loss_bound(ch, g)
    assert bound.rate_lower_bound <= 0.747 + 2e-3


def test_loss_bound_equiprobable_window_is_one_bit():
    ch, g = load_model("merge_hub")
    bound = entropy_loss_bound(ch, g)
    assert bound.loss_entropy == pytest.approx(1.0, abs=1e-12)
    assert bound.witness.kappa == 1
    # alpha = mu(3) * (1/3) * 1 over 2 * (kappa + 2)
    mu3 = ch.stationary[ch.index("3")]
    assert bound.alpha == pytest.approx(mu3 / 3.0 / 6.0, abs=1e-12)
