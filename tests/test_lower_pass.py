"""The backward lower pass against the per-start forward passes it replaced.

``BlockWordLattice`` builds the lower tables from one backward vector per
block word and next block, read at every live start state; the word ids lead
with the start state. ``oracles.lower_levels_by_start`` runs one forward pass
per start state. Live ids must agree exactly and joints to rounding; the
lower bounds move by at most rounding and never pass the upper ones, and
every verdict, witness and upper bound stays as it was.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR
from lumpchain import (
    AnalysisConfig,
    build_chain,
    build_lumping,
    check_strong_lumpable,
    check_weak_lumpable,
    entropy_loss_bound,
    lumped_rate_bounds,
    parse_model,
    run_analysis,
    split_merge_index,
)
from lumpchain import entropy as entropy_module
from lumpchain import lumping as lumping_module
from lumpchain.entropy import MASS_EPS, BlockWordLattice, lumped_forward
from lumpchain.errors import HorizonTooLarge, ValidationError
from test_lumping import DEEP_WITNESS_SEEDS, sparse_instance

# the benchmark's pairs run: horizons 1..3, k 1..2, weak horizon 3
PAIRS_CONFIG = AnalysisConfig(horizons=(1, 2, 3), k_range=(1, 2), weak_horizon=3)


def _instance(matrix, blocks):
    chain = build_chain(matrix, [str(i) for i in range(len(blocks))])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


def sparse_case(seed):
    """Seeded 6-40-state sparse chain with 2-4 blocks."""
    rng = np.random.default_rng(seed)
    n_states, n_blocks = int(rng.integers(6, 41)), int(rng.integers(2, 5))
    return _instance(*oracles.random_sparse_chain(rng, n_states, n_blocks, 1 + seed % 2))


def faint_case(seed):
    """Seeded 3-14-state sparse chain with 2-4 blocks and about 30% of its
    edges scaled by 1e-4 to 1e-8."""
    rng = np.random.default_rng([seed, 7])
    n_states = int(rng.integers(3, 15))
    n_blocks = min(int(rng.integers(2, 5)), n_states - 1)
    return _instance(*oracles.faint_sparse_chain(rng, n_states, n_blocks))


def bench_case(n_states, n_blocks, seed=0):
    """A 100-300-state sparse chain of out-degree about 3, the shape of the
    benchmark's lossy pairs inputs."""
    rng = np.random.default_rng([n_states, n_blocks, seed])
    return _instance(*oracles.random_sparse_chain(rng, n_states, n_blocks))


CASES = {
    **{path.stem: (lambda path=path: parse_model(str(path)), 4)
       for path in sorted(MODELS_DIR.glob("*.json"))},
    **{f"sparse{seed}": (lambda seed=seed: sparse_case(seed), 4) for seed in range(16)},
    **{f"bench-n{n}-b{nb}": (lambda n=n, nb=nb: bench_case(n, nb), 3)
       for n, nb in ((100, 2), (200, 3), (300, 4))},
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, horizon = CASES[request.param]
    return (*build(), horizon)


def expected_lower(chain, lumping, horizon):
    """Per horizon h, the per-start tables with the start digit prepended."""
    nb = lumping.n_blocks
    per_start = oracles.lower_levels_by_start(chain, lumping, horizon)
    return {h: (np.concatenate([x * nb ** (h - 1) + levels[h - 1][0]
                                for x, levels in enumerate(per_start)]),
                np.concatenate([levels[h - 1][1] for levels in per_start]))
            for h in range(1, horizon + 1)}


def assert_same_tables(got, want):
    for h, (ids, joint) in want.items():
        assert np.array_equal(got.lower(h)[0], ids)
        np.testing.assert_allclose(got.lower(h)[1], joint, rtol=1e-12, atol=0)


def test_lower_tables_match_per_start_passes(case):
    chain, lumping, horizon = case
    assert_same_tables(BlockWordLattice(chain, lumping, horizon, horizon),
                       expected_lower(chain, lumping, horizon))


def assert_same_strong_verdict(got, want):
    """Same verdict, witness word and symbol and upper bound; the lower bound
    and the witness's conditionals read the joints, so they agree to rounding."""
    assert (got.order_k, got.strong, repr(got.rate_bound_upper)) == (
        want.order_k, want.strong, repr(want.rate_bound_upper))
    assert abs(got.rate_bound_lower - want.rate_bound_lower) <= 1e-14
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        w, v = got.witness, want.witness
        assert (w.conditioning, w.symbol) == (v.conditioning, v.symbol)
        assert w.prob_a == pytest.approx(v.prob_a, rel=1e-12, abs=0)
        assert w.prob_b == pytest.approx(v.prob_b, rel=1e-12, abs=0)


def test_bounds_and_strong_verdicts_match_per_start_passes(case):
    chain, lumping, horizon = case
    for k in range(1, horizon + 1):
        want = oracles.strong_verdict_by_start(chain, lumping, k)
        assert_same_strong_verdict(check_strong_lumpable(chain, lumping, k), want)
        bounds = lumped_rate_bounds(chain, lumping, k)
        assert abs(bounds.lower - want.rate_bound_lower) <= 1e-14
        assert repr(bounds.upper) == repr(want.rate_bound_upper)


def test_analysis_matches_per_start_passes(case):
    chain, lumping, horizon = case
    config = PAIRS_CONFIG if horizon == 3 else AnalysisConfig(horizons=(1, 2, 3, 4),
                                                              weak_horizon=4)
    report = run_analysis(chain, lumping, config)
    for k in config.k_range:
        assert report.strong[k] == oracles.strong_verdict_by_start(chain, lumping, k).strong
        assert repr(report.weak[k]) == repr(check_weak_lumpable(
            chain, lumping, k, config.weak_horizon).weak_up_to_horizon)
    for h, bounds in zip(config.horizons, report.bounds):
        lower, upper = oracles.rate_bounds_by_start(chain, lumping, h)
        assert abs(bounds.lower - lower) <= 1e-14
        assert repr(bounds.upper) == repr(upper)
    assert repr(report.kappa) == repr(split_merge_index(chain, lumping).kappa)
    assert repr(report.loss_bound) == repr(entropy_loss_bound(chain, lumping))


def test_faint_edges_match_per_start_passes():
    """Depth 4 on chains whose faint edges push joints below the mass rule:
    the rows it drops must be the same rows as in the per-start passes."""
    faint = 0
    for seed in range(40):
        chain, lumping = faint_case(seed)
        want = expected_lower(chain, lumping, 5)
        assert_same_tables(BlockWordLattice(chain, lumping, 1, 5), want)
        faint += sum(np.count_nonzero((joint > 0) & (joint <= MASS_EPS))
                     for _, joint in want.values())
    assert faint > 0


def test_lower_never_exceeds_upper(case):
    chain, lumping, horizon = case
    for h in range(1, horizon + 3):
        bounds = lumped_rate_bounds(chain, lumping, h)
        assert bounds.lower <= bounds.upper


def count_calls(monkeypatch, name, module=entropy_module):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", [*(path.stem for path in sorted(MODELS_DIR.glob("*.json"))),
                                  "bench-n300-b4"])
def test_analysis_makes_one_upper_and_one_lower_pass(monkeypatch, name):
    build, horizon = CASES[name]
    chain, lumping = build()
    forward = count_calls(monkeypatch, "lumped_forward")
    lower = count_calls(monkeypatch, "_lower_levels")
    searches = count_calls(monkeypatch, "_pair_levels", lumping_module)
    scores = count_calls(monkeypatch, "_conditional_entropy")
    config = PAIRS_CONFIG if horizon == 3 else AnalysisConfig()
    run_analysis(chain, lumping, config)
    assert (len(forward), len(lower), len(searches)) == (1, 1, 1)
    # one entropy per level built: upper levels 0..depth, lower levels 1..depth
    depth = max(*config.horizons, *config.k_range, config.weak_horizon)
    assert len(scores) == 2 * depth + 1


@pytest.mark.parametrize("seed", DEEP_WITNESS_SEEDS)
def test_analysis_reports_the_index_of_its_pair_search(seed):
    chain, lumping = sparse_instance(seed)
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1, 2), weak_horizon=2))
    assert report.kappa == split_merge_index(chain, lumping).kappa >= 2


def test_start_digit_counts_in_the_id_guard():
    # 4^31 ids fit in 63 bits, 6 x 4^31 do not; 6 x 4^30 fit again
    chain = build_chain(np.roll(np.eye(6), 1, axis=1))
    lumping = build_lumping(chain, {str(i): "ABCD"[i % 4] for i in range(6)})
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooLarge):
            BlockWordLattice(chain, lumping, 1, 31)
        assert tracemalloc.get_traced_memory()[1] < 64 << 10  # refused before allocating
    finally:
        tracemalloc.stop()
    assert len(lumped_forward(chain, lumping, chain.stationary, 30)) == 6
    assert len(BlockWordLattice(chain, lumping, 1, 30).lower(30)[0]) == 6


def test_forward_words_start_at_the_time_0_block():
    chain, lumping = _instance([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [0, 0, 1])
    assert lumped_forward(chain, lumping, chain.stationary, 2).ids.tolist() == [0, 1, 2]
    with pytest.raises(ValidationError, match="time-0"):
        lumped_forward(chain, lumping, chain.stationary, 1, False)
