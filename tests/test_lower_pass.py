"""The batched lower pass against the per-start passes it replaced.

``BlockWordLattice`` builds the lower tables with one forward pass from
diag(mu), run over start chunks, whose word ids lead with the start state.
``oracles.lower_levels_by_start`` runs one pass per start state. Live ids
must agree exactly and joints to rounding; the lower bounds move by at most
rounding, and every verdict, witness and upper bound stays as it was.
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
from lumpchain.entropy import BlockWordLattice, lumped_forward
from lumpchain.errors import HorizonTooLarge

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


@pytest.mark.parametrize("name", ["lossy_strong2", "sparse3", "sparse8", "bench-n300-b4"])
def test_start_chunks_leave_the_tables_unchanged(monkeypatch, name):
    build, horizon = CASES[name]
    chain, lumping = build()
    depth = horizon - 1
    default = BlockWordLattice(chain, lumping, 1, horizon)
    monkeypatch.setattr(entropy_module, "_LOWER_CHUNK", 0)  # one start per chunk
    assert len(entropy_module._start_chunks(chain, lumping.n_blocks, depth)) == chain.n + 1
    single = BlockWordLattice(chain, lumping, 1, horizon)
    monkeypatch.setattr(entropy_module, "_LOWER_CHUNK", 1 << 62)  # every start in one
    assert entropy_module._start_chunks(chain, lumping.n_blocks, depth) == [0, chain.n]
    whole = BlockWordLattice(chain, lumping, 1, horizon)
    want = {h: default.lower(h) for h in range(1, horizon + 1)}
    assert_same_tables(single, want)
    assert_same_tables(whole, want)


def test_predicted_rows_bound_the_live_rows():
    chain, lumping = bench_case(300, 4)
    nb = lumping.n_blocks
    lattice = BlockWordLattice(chain, lumping, 1, 3)
    for depth in range(3):
        bounds = entropy_module._start_chunks(chain, nb, depth)
        start = lattice.lower(depth + 1)[0] // nb ** depth
        for lo, hi in zip(bounds, bounds[1:]):
            rows = np.count_nonzero((start >= lo) & (start < hi))
            assert hi == lo + 1 or rows * chain.n <= entropy_module._LOWER_CHUNK


def count_forward_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return lumped_forward(*args)

    monkeypatch.setattr(entropy_module, "lumped_forward", counting)
    return calls


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_analysis_makes_one_upper_and_one_lower_pass(monkeypatch, path):
    chain, lumping = parse_model(str(path))
    calls = count_forward_calls(monkeypatch)
    run_analysis(chain, lumping)
    assert len(calls) == 2


def test_analysis_calls_at_most_one_pass_per_start_chunk(monkeypatch):
    chain, lumping = bench_case(300, 4)
    chunks = len(entropy_module._start_chunks(chain, lumping.n_blocks, 2)) - 1
    calls = count_forward_calls(monkeypatch)
    run_analysis(chain, lumping, PAIRS_CONFIG)
    assert 2 < len(calls) <= 1 + chunks < chain.n // 10


def test_start_digit_counts_in_the_id_guard():
    # 4^31 ids fit in 63 bits, 6 x 4^31 do not; 6 x 4^30 fit again
    chain = build_chain(np.roll(np.eye(6), 1, axis=1))
    lumping = build_lumping(chain, {str(i): "ABCD"[i % 4] for i in range(6)})
    starts = np.diag(chain.stationary)
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooLarge):
            lumped_forward(chain, lumping, starts, 30, False)
        assert tracemalloc.get_traced_memory()[1] < 64 << 10  # refused before allocating
    finally:
        tracemalloc.stop()
    with pytest.raises(HorizonTooLarge):
        BlockWordLattice(chain, lumping, 1, 31)
    assert len(lumped_forward(chain, lumping, chain.stationary, 30, False)) == 6
    assert len(lumped_forward(chain, lumping, starts, 29, False)) == 6
    assert len(BlockWordLattice(chain, lumping, 1, 30).lower(30)[0]) == 6
