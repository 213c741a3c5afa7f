"""The sampling kernels against their oracles.

The belief filter must give the same bits as the per-step reference loop in
``oracles.blackwell_reference`` (estimate and stderr compared with ``==``),
on chains whose beliefs almost never repeat, on the identity lumping (every
belief a point mass, nearly every step a revisit) and across the flushes of
its belief table; its memory must stay within one score and one belief id per
step plus the table budget, and the CLI must print the reference's numbers.
The preimage DP must give the exact counts of object-dtype matrix products
on words long enough for those counts to pass 2^64, and every sampled
trajectory must equal the one ``oracles.sample_indices_reference`` draws.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, model_path
from lumpchain import (
    blackwell_entropy_estimate,
    build_chain,
    build_lumping,
    empirical_growth,
    occurrence_rate_check,
    parse_model,
    preimage_count,
    sample_trajectory,
)
from lumpchain import entropy as entropy_module
from lumpchain.cli import main
from lumpchain.entropy import _BELIEF_TABLE_BUDGET as BUDGET

# (steps, burn_in): runs shorter than the belief table's budget, without and
# with the default burn-in, with a burn-in of 1365 and with 2048 post-burn-in
# steps; then two and three tables' worth of steps, the last with a burn-in
# that ends inside its second table
STEP_CASES = ((572, 0), (512, None), (3149, 1365), (2148, 100),
              (2 * BUDGET + 100, 100), (3 * BUDGET + 77, BUDGET + BUDGET // 3))

# (seed, states, blocks): up to 100 states; eight or more blocks put more
# than eight terms into a score's sum, where numpy's summation order changes;
# on the last, the bench's 8-state 2-block shape, almost every step visits a
# belief never seen before (6186 distinct beliefs in its 6221-step case)
RANDOM_CHAINS = ((1, 5, 2), (2, 12, 3), (3, 20, 4), (4, 40, 4), (5, 60, 3),
                 (6, 100, 4), (7, 30, 8), (8, 50, 12), (9, 100, 10), (19, 8, 2))


def random_instance(seed, n_states, n_blocks):
    rng = np.random.default_rng(seed)
    matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    lumping = build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})
    return chain, lumping, matrix, blocks


def assert_filter_matches_reference(chain, lumping, steps, burn_in, seed):
    got = blackwell_entropy_estimate(chain, lumping, steps, burn_in, seed)
    expected = oracles.blackwell_reference(
        chain.transition, chain.stationary, lumping.indicator, steps,
        steps // 10 if burn_in is None else burn_in, seed)
    assert (got.estimate, got.stderr) == expected


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_blackwell_matches_reference_on_corpus(path, seed):
    chain, lumping = parse_model(str(path))
    assert_filter_matches_reference(chain, lumping, BUDGET + 300, None, seed)


@pytest.mark.parametrize("shape", RANDOM_CHAINS, ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
@pytest.mark.parametrize("steps,burn_in", STEP_CASES)
def test_blackwell_matches_reference_on_random_chains(shape, steps, burn_in):
    chain, lumping, _, _ = random_instance(*shape)
    assert_filter_matches_reference(chain, lumping, steps, burn_in, seed=shape[0] + steps)


@pytest.mark.parametrize("seed", (0, 1))
def test_blackwell_matches_reference_on_identity_lumping(seed):
    # every belief is a point mass: at most n + 1 beliefs, so after the
    # first visits every step is a revisit
    rng = np.random.default_rng(seed)
    matrix, _ = oracles.random_sparse_chain(rng, 12, 12)
    chain = build_chain(matrix, [str(i) for i in range(12)])
    lumping = build_lumping(chain, {s: s for s in chain.states}, allow_trivial=True)
    assert_filter_matches_reference(chain, lumping, 3001, 17, seed)


@pytest.mark.parametrize("budget", (1, 3, 7))
@pytest.mark.parametrize("shape", RANDOM_CHAINS[:4], ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
def test_blackwell_matches_reference_across_table_flushes(monkeypatch, budget, shape):
    # a table of a few beliefs is emptied every few steps; the burn-in of
    # 333 steps ends inside a table and 1999 steps fill no whole number of
    # batches or tables
    monkeypatch.setattr(entropy_module, "_BELIEF_TABLE_BUDGET", budget)
    chain, lumping, _, _ = random_instance(*shape)
    assert_filter_matches_reference(chain, lumping, 1999, 333, seed=shape[0])


def test_blackwell_memory_is_bounded_by_the_table_budget():
    # 200,000 steps on 100 states visit 15,947 distinct beliefs, about eight
    # tables' worth: kept all at once they would take about 10 MB
    chain, lumping, _, _ = random_instance(0, 100, 4)
    steps = 200_000
    block = max(int(c.sum()) for c in lumping.indicator.T)
    # uniforms, scores and belief ids per step; per belief its bytes, its
    # index entry and id, and mass, cumulative-sum and next-belief cells
    per_step = 8 + 8 + 4
    per_belief = 8 * block + 256 + 20 * lumping.n_blocks
    bound = per_step * steps + BUDGET * per_belief + (1 << 19)
    tracemalloc.start()
    try:
        blackwell_entropy_estimate(chain, lumping, steps, None, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def reference_filter(chain, lumping, steps, burn_in=None, seed=0, batches=50):
    """``blackwell_entropy_estimate`` computed by the frozen reference loop."""
    estimate, stderr = oracles.blackwell_reference(
        chain.transition, chain.stationary, lumping.indicator, steps,
        steps // 10 if burn_in is None else burn_in, seed, batches)
    return entropy_module.BlackwellEstimate(estimate, stderr,
                                            entropy_module._BLACKWELL_CAVEAT)


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS_DIR.glob("*.json")))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("args", (["blackwell", "--steps", "20000"],
                                  ["analyze", "--blackwell-steps", "5000"]),
                         ids=("blackwell", "analyze"))
def test_filter_cli_output_is_the_reference_output(monkeypatch, name, seed, args):
    argv = [args[0], model_path(name), *args[1:], "--seed", str(seed),
            "--allow-trivial-lumping"]
    got = oracles.capture_cli(main, argv)
    monkeypatch.setattr(entropy_module, "blackwell_entropy_estimate", reference_filter)
    assert got == oracles.cli_output_v1(argv)


@pytest.mark.parametrize("seed,n_states,n_blocks,length", (
    (11, 6, 2, 200), (12, 10, 2, 300), (13, 16, 2, 400), (14, 24, 3, 500),
    (15, 30, 3, 600), (16, 40, 3, 700), (17, 50, 3, 800), (18, 60, 3, 1000)))
def test_preimage_count_matches_matrix_products(seed, n_states, n_blocks, length):
    chain, lumping, matrix, blocks = random_instance(seed, n_states, n_blocks)
    states = sample_trajectory(chain, length, seed=seed).states
    word = [lumping.map[s] for s in states]
    expected = oracles.preimage_count_by_matrix(matrix, blocks,
                                                [int(b[1:]) for b in word])
    assert expected > 2 ** 64
    assert preimage_count(chain, lumping, word) == expected


@pytest.mark.parametrize("shape", RANDOM_CHAINS[:6], ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
def test_sampling_matches_reference_sampler(shape):
    chain, lumping, _, _ = random_instance(*shape)
    mu = np.asarray(chain.stationary, dtype=float)
    length, seeds = 300, (4, 0, 9)
    want = {seed: oracles.sample_indices_reference(chain, length, mu, seed) for seed in seeds}
    for seed in seeds:
        assert sample_trajectory(chain, length, seed=seed).states == tuple(
            chain.states[i] for i in want[seed])
    words = [[lumping.blocks[b] for b in lumping.of_state[want[seed]]] for seed in sorted(seeds)]
    for point in empirical_growth(chain, lumping, length, seeds, checkpoints=(10, 100, 300)):
        assert point.counts == tuple(preimage_count(chain, lumping, w[:point.n]) for w in words)
    pattern = [int(x) for x in want[0][:2]]
    got = occurrence_rate_check(chain, [chain.states[x] for x in pattern], length, seeds)
    assert got.per_seed == tuple(greedy_occurrences(want[seed].tolist(), pattern) / length
                                 for seed in sorted(seeds))


def greedy_occurrences(seq, pattern):
    """Non-overlapping occurrences of ``pattern`` taken greedily from the left."""
    count = t = 0
    while t + len(pattern) <= len(seq):
        if seq[t:t + len(pattern)] == pattern:
            count, t = count + 1, t + len(pattern)
        else:
            t += 1
    return count
