import numpy as np
import pytest

from conftest import load_model
from lumpchain import (
    build_chain,
    empirical_growth,
    identity_lumping,
    occurrence_rate_check,
    sample_trajectory,
)
from lumpchain.errors import (
    EmptyPattern,
    UnrealisablePattern,
    ValidationError,
)


def test_sample_forced_continuation():
    # every positive row entry from states 1 and 2 points at the hub
    ch, _ = load_model("merge_hub")
    traj = sample_trajectory(ch, 50, seed=3)
    for a, b in zip(traj.states, traj.states[1:]):
        if a in ("1", "2"):
            assert b == "3"


def test_sample_reproducible():
    ch, _ = load_model("lossy_strong2")
    a = sample_trajectory(ch, 200, seed=9)
    b = sample_trajectory(ch, 200, seed=9)
    assert a == b
    c = sample_trajectory(ch, 200, seed=10)
    assert c.states != a.states


def test_sample_law_of_large_numbers():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]], ["u", "v"])
    traj = sample_trajectory(ch, 100_000, seed=12)
    freq = traj.states.count("u") / 100_000
    assert abs(freq - 0.5) < 0.01


def test_sample_rejects_bad_start():
    ch, _ = load_model("merge_hub")
    with pytest.raises(ValidationError):
        sample_trajectory(ch, 0)


def test_growth_and_occurrence_reject_empty_trajectories():
    ch, g = load_model("merge_hub")
    with pytest.raises(ValidationError):
        empirical_growth(ch, g, 0, [0])
    with pytest.raises(ValidationError):
        occurrence_rate_check(ch, (ch.states[0],), 0, [0])


def test_growth_rejects_no_seeds():
    ch, g = load_model("merge_hub")
    with pytest.raises(ValidationError, match="seed"):
        empirical_growth(ch, g, 100, [])


def test_growth_rejects_a_length_below_every_checkpoint():
    ch, g = load_model("merge_hub")
    with pytest.raises(ValidationError, match="length 5 .* smallest checkpoint 10"):
        empirical_growth(ch, g, 5, [0, 1])
    with pytest.raises(ValidationError, match="length 9 .* smallest checkpoint 10"):
        empirical_growth(ch, g, 9, [0])
    assert [r.n for r in empirical_growth(ch, g, 10, [0])] == [10]
    assert [r.n for r in empirical_growth(ch, g, 499, [0])] == [10, 50, 100]


def test_occurrence_rate_rejects_no_seeds():
    ch, _ = load_model("merge_hub")
    with pytest.raises(ValidationError, match="seed"):
        occurrence_rate_check(ch, (ch.states[0],), 100, [])


def test_the_argument_checks_come_before_the_seed_checks():
    ch, g = load_model("merge_hub")
    with pytest.raises(ValidationError, match="length 5 .* smallest checkpoint 10"):
        empirical_growth(ch, g, 5, [])
    with pytest.raises(EmptyPattern):
        occurrence_rate_check(ch, (), 100, [])


def test_sampling_refuses_a_negative_seed_as_the_filter_does():
    ch, g = load_model("merge_hub")
    calls = (lambda: sample_trajectory(ch, 10, seed=-1),
             lambda: empirical_growth(ch, g, 10, [2, -3]),
             lambda: occurrence_rate_check(ch, (ch.states[0],), 10, [-4]))
    for call, seed in zip(calls, (-1, -3, -4)):
        with pytest.raises(ValidationError, match=f"^seed must be >= 0, got {seed}$"):
            call()


def assert_refused(calls, draws):
    for name, call in calls:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            call()
    assert draws == []


def test_sample_trajectory_refuses_non_integer_lengths_and_seeds(draws):
    ch, _ = load_model("merge_hub")
    assert_refused((("length", lambda: sample_trajectory(ch, 10.0)),
                    ("length", lambda: sample_trajectory(ch, True)),
                    ("seed", lambda: sample_trajectory(ch, 10, seed=1.5)),
                    ("seed", lambda: sample_trajectory(ch, 10, seed=True)),
                    ("seed", lambda: sample_trajectory(ch, 10, seed=np.float64(1)))), draws)
    assert sample_trajectory(ch, np.int64(10), np.int32(3)) == sample_trajectory(ch, 10, 3)


def test_empirical_growth_refuses_non_integer_lengths_and_seeds(draws):
    ch, g = load_model("merge_hub")
    assert_refused((("length", lambda: empirical_growth(ch, g, 100.0, [0])),
                    ("length", lambda: empirical_growth(ch, g, True, [0])),
                    ("seed", lambda: empirical_growth(ch, g, 100, [0, 1.5])),
                    ("seed", lambda: empirical_growth(ch, g, 100, [2, True]))), draws)
    assert (empirical_growth(ch, g, np.int64(100), [np.int64(0), 1])
            == empirical_growth(ch, g, 100, [0, 1]))


def test_occurrence_rate_check_refuses_non_integer_lengths_and_seeds(draws):
    ch, _ = load_model("merge_hub")
    pattern = (ch.states[0],)
    assert_refused((("length", lambda: occurrence_rate_check(ch, pattern, 10.5, [0])),
                    ("length", lambda: occurrence_rate_check(ch, pattern, False, [0])),
                    ("seed", lambda: occurrence_rate_check(ch, pattern, 10, [0, 1.0])),
                    ("seed", lambda: occurrence_rate_check(ch, pattern, 10, [True]))), draws)
    assert (occurrence_rate_check(ch, pattern, np.int16(100), [np.uint32(4), 5])
            == occurrence_rate_check(ch, pattern, 100, [4, 5]))


def test_occupation_frequency_matches_stationary():
    ch, _ = load_model("merge_hub")
    mu = ch.stationary
    n = 100_000
    rates = []
    for seed in range(5):
        traj = sample_trajectory(ch, n, seed=seed)
        rates.append(traj.states.count("3") / n)
    se = np.std(rates, ddof=1) / np.sqrt(len(rates))
    assert abs(np.mean(rates) - mu[ch.index("3")]) <= 3 * se + 1e-3


def test_growth_identity_lumping_stays_one():
    ch, _ = load_model("lossy_strong2")
    rows = empirical_growth(ch, identity_lumping(ch), 300, seeds=(0, 1))
    for row in rows:
        assert row.max_count == 1
        assert row.geo_mean_growth == pytest.approx(1.0, abs=1e-12)


def test_growth_bounded_without_witness():
    for name in ("tagged_branches", "unique_entry"):
        chain, lumping = load_model(name)
        cap = (chain.n - lumping.n_blocks + 1) ** 2
        rows = empirical_growth(chain, lumping, 500, seeds=range(5))
        for row in rows:
            assert row.max_count <= cap, name


def test_growth_explodes_with_witness():
    ch, g = load_model("lossy_strong2")
    rows = empirical_growth(ch, g, 500, seeds=(0,))
    assert rows[-1].n == 500 and rows[-1].geo_mean_growth > 1.1


def test_growth_dichotomy_across_corpus(corpus_case):
    # bounded counts without a split-merge witness, past the bound with one
    name, chain, lumping, traits = corpus_case
    cap = (chain.n - lumping.n_blocks + 1) ** 2
    last = empirical_growth(chain, lumping, 500, seeds=(0, 1, 2))[-1]
    assert last.n == 500
    if traits["kappa"] is None:
        assert last.max_count <= cap
    else:
        assert last.max_count > cap


def test_occurrence_rate_single_state():
    ch, _ = load_model("lossy_strong2")
    res = occurrence_rate_check(ch, ("1",), 50_000, seeds=range(5))
    assert res.passed
    assert res.bound == pytest.approx(ch.stationary[ch.index("1")], abs=1e-12)
    assert abs(res.empirical_rate - res.bound) < 0.02


def test_occurrence_rate_forced_pattern():
    ch, _ = load_model("merge_hub")
    res = occurrence_rate_check(ch, ("1", "3"), 20_000, seeds=range(5))
    # conditional continuation probability is one, so the bound is mu(1)/2
    assert res.bound == pytest.approx(ch.stationary[ch.index("1")] / 2, abs=1e-12)
    assert res.passed
    # "uuuuu" holds ("u", "u") at instants 1-4; the greedy rule keeps 1 and 3
    loop = build_chain([[1.0]], ["u"])
    assert occurrence_rate_check(loop, ("u", "u"), 5, seeds=(0,)).per_seed == (2 / 5,)
    assert occurrence_rate_check(loop, ("u",) * 6, 5, seeds=(0, 1)).per_seed == (0.0, 0.0)


def test_occurrence_rate_rejects_unrealisable():
    ch, _ = load_model("lossy_strong2")
    with pytest.raises(UnrealisablePattern):
        occurrence_rate_check(ch, ("1", "3"), 100, seeds=(0,))
    with pytest.raises(EmptyPattern):
        occurrence_rate_check(ch, (), 100, seeds=(0,))
