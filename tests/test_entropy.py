import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import CORPUS, MODELS_DIR, TRAITS, load_model, raw_blocks
from lumpchain import (
    blackwell_entropy_estimate,
    block_entropy,
    build_chain,
    build_lumping,
    chain_entropy_rate,
    check_strong_lumpable,
    conditional_entropy_rate_estimate,
    identity_lumping,
    lumped_block_entropy,
    lumped_rate_bounds,
    parse_model,
    reverse_chain,
)
import lumpchain.entropy as entropy_module
from lumpchain.entropy import BlockWordLattice
from lumpchain.errors import HorizonTooLarge, ValidationError

# forward/backward conditional entropies of the weakly-1-lumpable model,
# recomputed in exact rational arithmetic (see matching oracle test below)
WEAK_MODEL_UPPER = 0.9061103550671441
WEAK_MODEL_LOWER = 0.5587708456507193
WEAK_MODEL_REVERSED_LOWER = 0.904530878774441


def test_chain_rate_fair_coin():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"])
    assert chain_entropy_rate(ch) == pytest.approx(1.0, abs=1e-12)


def test_chain_rate_lossy_strong2():
    ch, _ = load_model("lossy_strong2")
    assert chain_entropy_rate(ch) == pytest.approx(1.480, abs=1e-3)


def test_chain_rate_below_log_state_count(corpus_case):
    _, chain, _, _ = corpus_case
    assert chain_entropy_rate(chain) <= math.log2(chain.n) + 1e-12


def test_chain_rate_matches_per_state_loop(corpus_case):
    _, chain, _, _ = corpus_case
    assert repr(chain_entropy_rate(chain)) == repr(oracles.chain_entropy_rate_by_loop(chain))


@pytest.mark.parametrize("seed", range(20))
def test_chain_rate_matches_per_state_loop_on_seeded_chains(seed):
    rng = np.random.default_rng([seed, 5])
    n_states = int(rng.integers(3, 101))
    n_blocks = int(rng.integers(2, 5))
    make = oracles.faint_sparse_chain if seed % 2 else oracles.random_sparse_chain
    matrix, _ = make(rng, n_states, n_blocks)
    chain = build_chain(matrix)
    assert repr(chain_entropy_rate(chain)) == repr(oracles.chain_entropy_rate_by_loop(chain))


def test_block_entropy_base_case(corpus_case):
    _, chain, _, _ = corpus_case
    assert block_entropy(chain, 1) == pytest.approx(oracles.entropy_bits(chain.stationary),
                                                    abs=1e-12)


def test_block_entropy_iid_bits():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"])
    assert block_entropy(ch, 5) == pytest.approx(5.0, abs=1e-12)


def test_block_entropies_reject_the_empty_word():
    ch, g = load_model("lossy_strong2")
    with pytest.raises(ValidationError, match="n must be >= 1"):
        block_entropy(ch, 0)
    with pytest.raises(ValidationError, match="n must be >= 1"):
        lumped_block_entropy(ch, g, 0)


@pytest.mark.parametrize("p", [np.zeros(0), np.zeros(3)], ids=["empty", "all-zero"])
def test_plogp_without_positive_entries_is_plus_zero(p):
    h = entropy_module._plogp(p)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_block_entropy_matches_enumeration():
    matrix, _ = raw_blocks("weak_not_strong")
    ch = build_chain(matrix, list("1234"))
    mu = oracles.eliminate_stationary([list(r) for r in ch.transition])
    expected = oracles.block_entropy_by_enumeration([list(r) for r in ch.transition], mu, 3)
    assert block_entropy(ch, 3) == pytest.approx(expected, abs=1e-10)


def test_lumped_block_entropy_identity_lumping():
    ch, _ = load_model("lossy_strong2")
    ident = identity_lumping(ch)
    for n in (1, 2, 3):
        assert lumped_block_entropy(ch, ident, n) == pytest.approx(
            block_entropy(ch, n), abs=1e-10)


def test_lumped_block_entropy_constant_lumping():
    ch, _ = load_model("lossy_strong2")
    const = build_lumping(ch, {s: "Z" for s in ch.states}, allow_trivial=True)
    assert lumped_block_entropy(ch, const, 4) == pytest.approx(0.0, abs=1e-12)


def test_lumped_block_entropy_matches_enumeration(corpus_case):
    name, chain, lumping, _ = corpus_case
    matrix, blocks = raw_blocks(name)
    mu = oracles.eliminate_stationary([list(r) for r in chain.transition])
    for n in (1, 2, 3):
        expected = oracles.lumped_block_entropy_by_enumeration(
            [list(r) for r in chain.transition], mu, blocks, n)
        assert lumped_block_entropy(chain, lumping, n) == pytest.approx(expected, abs=1e-10)


def test_bounds_weak_model_one_step():
    ch, g = load_model("weak_not_strong")
    b = lumped_rate_bounds(ch, g, 1)
    assert b.lower == pytest.approx(0.5588, abs=1e-4)
    assert b.upper == pytest.approx(0.9061, abs=1e-4)
    assert b.lower == pytest.approx(WEAK_MODEL_LOWER, abs=1e-12)


def test_bounds_lossy_strong2_collapse_at_two():
    ch, g = load_model("lossy_strong2")
    b = lumped_rate_bounds(ch, g, 2)
    assert b.lower == pytest.approx(0.733, abs=1e-3)
    assert b.upper == pytest.approx(0.733, abs=1e-3)
    assert abs(b.upper - b.lower) <= 1e-9


def test_bounds_identity_lumping_equal_rate():
    ch, _ = load_model("lossy_strong2")
    ident = identity_lumping(ch)
    rate = chain_entropy_rate(ch)
    for n in (1, 2, 4):
        b = lumped_rate_bounds(ch, ident, n)
        assert b.lower == pytest.approx(rate, abs=1e-10)
        assert b.upper == pytest.approx(rate, abs=1e-10)


def test_bounds_match_enumeration(corpus_case):
    name, chain, lumping, _ = corpus_case
    _, blocks = raw_blocks(name)
    matrix = [list(r) for r in chain.transition]
    mu = oracles.eliminate_stationary(matrix)
    for n in (1, 2, 3):
        b = lumped_rate_bounds(chain, lumping, n)
        assert b.upper == pytest.approx(
            oracles.upper_bound_by_enumeration(matrix, mu, blocks, n), abs=1e-10)
        assert b.lower == pytest.approx(
            oracles.lower_bound_by_enumeration(matrix, mu, blocks, n), abs=1e-10)


def test_bounds_sandwich_monotone(corpus_case):
    name, chain, lumping, _ = corpus_case
    top = 8 if lumping.n_blocks <= 2 else 6
    seq = [lumped_rate_bounds(chain, lumping, n) for n in range(1, top + 1)]
    for a, b in zip(seq, seq[1:]):
        assert a.lower <= b.lower + 1e-10
        assert b.upper <= a.upper + 1e-10
    for b in seq:
        assert b.lower <= b.upper + 1e-10


def test_mass_rule_drops_jointly_light_words():
    # b is entered only by an edge of weight 1e-20, so every word through b
    # is lighter than MASS_EPS; d weighs 5e-7 and its self-loop 1e-10, so
    # the word "B after start d" is light only jointly with the start state
    matrix = [[0.0, 1e-20, 1 - 1e-20 - 1e-6, 1e-6],
              [1.0, 0.0, 0.0, 0.0],
              [1.0, 0.0, 0.0, 0.0],
              [1 - 1e-10, 0.0, 0.0, 1e-10]]
    chain = build_chain(matrix, ["a", "b", "c", "d"], zero_threshold=0.0)
    lumping = build_lumping(chain, {"a": "A", "b": "A", "c": "B", "d": "B"})
    words = oracles.lumped_word_probs(matrix, list(chain.stationary), [0, 0, 1, 1], 2)
    assert 0 < words[(0, 0)] < 1e-15 and 0 < words[(1, 1)] < 1e-15
    lattice = BlockWordLattice(chain, lumping, 2, 2)
    assert list(lattice.upper(2)[0]) == [1, 2]  # AB and BA; AA and BB dropped
    lower = [divmod(int(i), 2) for i in lattice.lower(2)[0]]  # (start, word) ids
    assert lower == [(0, 1), (2, 0), (3, 0)]  # start b dropped, B after start d dropped
    # b's next block is surely A, far from block A's law, but b does not count
    assert check_strong_lumpable(chain, lumping, 1).strong


def test_bounds_answer_at_horizon_13():
    # level 13 holds at most 2^13 words x 4 states, far inside the cell budget
    ch, g = load_model("lossy_strong2")
    b12, b13 = lumped_rate_bounds(ch, g, 12), lumped_rate_bounds(ch, g, 13)
    assert b13.horizon == 13
    assert b12.lower - 1e-12 <= b13.lower <= b13.upper <= b12.upper + 1e-12


def test_bounds_match_enumeration_past_four_blocks():
    matrix, blocks = oracles.random_sparse_chain(np.random.default_rng(14), 8, 5)
    sparse = build_chain(matrix)
    five = build_lumping(sparse, {s: f"B{b}" for s, b in zip(sparse.states, blocks)})
    assert five.n_blocks == 5
    ch, _ = load_model("lossy_strong2")
    for chain, lumping in ((sparse, five), (ch, identity_lumping(ch))):
        matrix = [list(r) for r in chain.transition]
        mu = oracles.eliminate_stationary(matrix)
        blocks = lumping.of_state.tolist()
        for n in (1, 2, 3):
            b = lumped_rate_bounds(chain, lumping, n)
            assert b.upper == pytest.approx(
                oracles.upper_bound_by_enumeration(matrix, mu, blocks, n), abs=1e-10)
            assert b.lower == pytest.approx(
                oracles.lower_bound_by_enumeration(matrix, mu, blocks, n), abs=1e-10)


def test_forward_level_over_the_cell_budget_is_refused_before_allocating():
    # every block word of a dense chain is live: level 12 alone would hold
    # 4^12 words x 16 states, 2.1 GB of float64; level 9 is the first whose
    # cells, beside the ids and next-block joints of levels 0-8, pass the budget
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.5, 1.5, (16, 16))
    chain = build_chain(weights / weights.sum(axis=1, keepdims=True))
    labels = np.arange(16) % 4
    rng.shuffle(labels)
    lumping = build_lumping(chain, {s: f"B{b}" for s, b in zip(chain.states, labels)})
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(HorizonTooLarge, match=(
                r"level 9 of the forward pass needs 262144 x 16 = 4194304 cells "
                r"beside 436905 held, over the budget 4194304")):
            lumped_rate_bounds(chain, lumping, 12)
        elapsed = time.perf_counter() - t0
        assert tracemalloc.get_traced_memory()[1] < 128 << 20
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0


def test_backward_level_over_the_cell_budget_is_refused_before_its_product(monkeypatch):
    # backward level 1 has 2 x (2 x 4) = 16 cells beside 20 held (level 0's
    # 4 ids and 4 x 2 joint, and the 2 x (2 x 4) live table), 36 in all;
    # level 2 has 4 x 8 = 32 beside 49; the forward pass to horizon 1 needs 11
    ch, g = load_model("lossy_strong2")
    monkeypatch.setattr(entropy_module, "_LATTICE_CELL_BUDGET", 36)
    products = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a: products.append(a) or matmul(*a))
    with pytest.raises(HorizonTooLarge, match=(
            "level 2 of the backward pass needs 4 x 8 = 32 cells beside 49 held, "
            "over the budget 36")):
        BlockWordLattice(ch, g, 1, 3)
    assert len(products) == 1  # level 1's product ran, level 2's did not


@pytest.mark.parametrize("upper, lower", [(50, 0), (0, 50)])
def test_a_pass_is_refused_before_its_kept_levels_pass_the_budget(upper, lower):
    # the live words of lossy_strong2 double per level: each level alone fits
    # the budget up to level 20, but the levels a pass keeps pass it sooner
    ch, g = load_model("lossy_strong2")
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooLarge, match=r"cells beside \d+ held"):
            BlockWordLattice(ch, g, upper, lower)
        assert tracemalloc.get_traced_memory()[1] < 128 << 20
    finally:
        tracemalloc.stop()


def test_loss_interval_identity_is_zero():
    ch, _ = load_model("lossy_strong2")
    ident = identity_lumping(ch)
    loss = conditional_entropy_rate_estimate(ch, ident, 2)
    assert loss.loss_lower == pytest.approx(0.0, abs=1e-10)
    assert loss.loss_upper == pytest.approx(0.0, abs=1e-10)


def test_loss_interval_lossy_strong2():
    ch, g = load_model("lossy_strong2")
    loss = conditional_entropy_rate_estimate(ch, g, 2)
    assert loss.loss_lower == pytest.approx(0.747, abs=2e-3)
    assert loss.loss_upper == pytest.approx(0.747, abs=2e-3)


def test_loss_interval_single_entry_fixture_zero_width():
    ch, g = load_model("parallel_cycle")
    loss = conditional_entropy_rate_estimate(ch, g, 1)
    assert loss.loss_lower <= 1e-12
    assert loss.loss_upper <= 1e-9
    assert loss.loss_upper - loss.loss_lower < 1e-9


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_loss_interval_is_ordered_and_never_negative(path):
    # where nothing is lost the lower rate bound can pass the chain rate by an ulp
    chain, lumping = parse_model(str(path))
    for g in (lumping, identity_lumping(chain)):
        for n in range(1, 7):
            loss = conditional_entropy_rate_estimate(chain, g, n)
            assert 0.0 <= loss.loss_lower <= loss.loss_upper, (g, n)


def test_functional_identity_against_joint_enumeration(corpus_case):
    # the hidden word's conditional entropy equals the block-entropy gap
    name, chain, lumping, _ = corpus_case
    _, blocks = raw_blocks(name)
    matrix = [list(r) for r in chain.transition]
    mu = oracles.eliminate_stationary(matrix)
    for n in (2, 4):
        gap = block_entropy(chain, n) - lumped_block_entropy(chain, lumping, n)
        direct = (oracles.block_entropy_by_enumeration(matrix, mu, n)
                  - oracles.lumped_block_entropy_by_enumeration(matrix, mu, blocks, n))
        assert gap == pytest.approx(direct, abs=1e-9)
        assert gap >= -1e-10


def test_reversal_keeps_one_step_rate_for_order_one_models():
    for name in CORPUS:
        if not TRAITS[name]["weak1"]:
            continue
        chain, lumping = load_model(name)
        fwd = lumped_rate_bounds(chain, lumping, 1).upper
        rev = lumped_rate_bounds(reverse_chain(chain), lumping, 1).upper
        assert fwd == pytest.approx(rev, abs=1e-10), name


def test_reversal_bound_intervals_overlap(corpus_case):
    name, chain, lumping, _ = corpus_case
    rev = reverse_chain(chain)
    for n in (2, 4, 6):
        a = lumped_rate_bounds(chain, lumping, n)
        b = lumped_rate_bounds(rev, lumping, n)
        assert a.lower <= b.upper + 1e-10
        assert b.lower <= a.upper + 1e-10


def test_reversed_weak_model_one_step_values():
    ch, g = load_model("weak_not_strong")
    rev = reverse_chain(ch)
    b = lumped_rate_bounds(rev, g, 1)
    assert b.upper == pytest.approx(WEAK_MODEL_UPPER, abs=1e-12)
    assert b.lower == pytest.approx(WEAK_MODEL_REVERSED_LOWER, abs=1e-12)
    matrix = [list(r) for r in rev.transition]
    _, blocks = raw_blocks("weak_not_strong")
    mu = oracles.eliminate_stationary(matrix)
    assert b.lower == pytest.approx(
        oracles.lower_bound_by_enumeration(matrix, mu, blocks, 1), abs=1e-12)


def test_blackwell_identity_lumping_recovers_rate():
    ch, _ = load_model("lossy_strong2")
    ident = identity_lumping(ch)
    est = blackwell_entropy_estimate(ch, ident, steps=40_000, seed=11)
    assert abs(est.estimate - chain_entropy_rate(ch)) <= 3 * est.stderr + 1e-6


def test_blackwell_fair_coin():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"])
    ident = identity_lumping(ch)
    est = blackwell_entropy_estimate(ch, ident, steps=5_000, seed=1)
    assert abs(est.estimate - 1.0) <= 3 * est.stderr + 1e-9
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_blackwell_within_sandwich():
    ch, g = load_model("weak_not_strong")
    est = blackwell_entropy_estimate(ch, g, steps=60_000, seed=5)
    b = lumped_rate_bounds(ch, g, 8)
    assert b.lower - 3 * est.stderr <= est.estimate <= b.upper + 3 * est.stderr
    assert est.caveat


def test_blackwell_sandwich_on_corpus(corpus_case):
    _, chain, lumping, _ = corpus_case
    est = blackwell_entropy_estimate(chain, lumping, steps=25_000, seed=99)
    b = lumped_rate_bounds(chain, lumping, 8)
    assert b.lower - 3 * est.stderr <= est.estimate <= b.upper + 3 * est.stderr


def test_loss_upper_edge_vanishes_without_witness():
    # fixtures whose lower bound reaches the chain rate exactly; the sticky
    # non-Markov one converges only geometrically and is checked for decrease
    for name in ("parallel_cycle", "sticky_pair", "unique_entry", "tagged_branches"):
        chain, lumping = load_model(name)
        loss = conditional_entropy_rate_estimate(chain, lumping, 8)
        assert loss.loss_upper <= 1e-6, name
    chain, lumping = load_model("lossless_sticky")
    edges = [conditional_entropy_rate_estimate(chain, lumping, n).loss_upper
             for n in (2, 4, 6, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(edges, edges[1:]))
    assert edges[-1] < 1e-3


def test_blackwell_rejects_arguments_without_a_standard_error():
    ch, g = load_model("lossy_strong2")
    with pytest.raises(ValidationError):
        blackwell_entropy_estimate(ch, g, steps=10, burn_in=10)
    with pytest.raises(ValidationError):  # 45 post-burn-in steps for 50 batches
        blackwell_entropy_estimate(ch, g, steps=50)
    est = blackwell_entropy_estimate(ch, g, steps=55)  # one step per batch
    assert math.isfinite(est.stderr)


def test_blackwell_refuses_non_integer_counts_and_seeds_before_any_draw(draws):
    # a float burn-in would run every step and then fail on the slice, a
    # float steps or seed would raise numpy's TypeError, and seed=True would
    # run seed 1
    ch, g = load_model("lossy_strong2")
    bad = (("steps", {"steps": 2000.0}), ("steps", {"steps": True}),
           ("steps", {"steps": "2000"}), ("burn_in", {"steps": 2000, "burn_in": 100.5}),
           ("burn_in", {"steps": 2000, "burn_in": False}),
           ("burn_in", {"steps": 2000, "burn_in": np.float64(100)}),
           ("seed", {"steps": 2000, "seed": 1.5}), ("seed", {"steps": 2000, "seed": True}),
           ("seed", {"steps": 2000, "seed": np.bool_(True)}))
    for name, kwargs in bad:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            blackwell_entropy_estimate(ch, g, **kwargs)
    assert draws == []
    # numpy integers are integers
    assert (blackwell_entropy_estimate(ch, g, np.int64(2000), np.int32(100), np.uint8(3))
            == blackwell_entropy_estimate(ch, g, 2000, 100, 3))


def test_blackwell_reproducible():
    ch, g = load_model("lossy_strong2")
    a = blackwell_entropy_estimate(ch, g, steps=2_000, seed=42)
    b = blackwell_entropy_estimate(ch, g, steps=2_000, seed=42)
    assert a == b
    c = blackwell_entropy_estimate(ch, g, steps=2_000, seed=43)
    assert c.estimate != a.estimate
