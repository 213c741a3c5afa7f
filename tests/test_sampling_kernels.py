"""The sampling kernels against their oracles.

The belief filter must give the same bits as the per-step reference loop in
``oracles.blackwell_reference`` (estimate and stderr compared with ``==``),
on chains whose beliefs almost never repeat, on the identity lumping (every
belief a point mass, nearly every step a revisit) and across the flushes of
its belief table; its memory must stay within one uniform, one score and one
belief id per step plus the table's byte budget, at 100 states and at 1000,
and the CLI must print the reference's numbers.
The preimage DP must give the exact counts of object-dtype matrix products
on words long enough for those counts to pass 2^64, on sparse chains and on
dense ones (every state of a block counted), on the benchmark's growth
items, and 0 on words that stop being realisable; every sampled trajectory
must equal the one ``oracles.sample_indices_reference`` draws.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads, model_path
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
from lumpchain.entropy import _BELIEF_TABLE_BYTES as TABLE_BYTES

# beliefs a table holds in the corpus and random-chain runs: the byte budget
# of 3 MiB holds at least 5000 on these chains, so those runs set it to this
# many beliefs' worth, and long runs on chains whose beliefs rarely repeat
# empty their tables
TABLE = 2048

# (steps, burn_in): runs shorter than a table, without and with the default
# burn-in, with a burn-in of 1365 and with 2048 post-burn-in steps; then two
# and three tables' worth of steps, the last with a burn-in that ends inside
# its second table
STEP_CASES = ((572, 0), (512, None), (3149, 1365), (2148, 100),
              (2 * TABLE + 100, 100), (3 * TABLE + 77, TABLE + TABLE // 3))

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


def belief_bytes(lumping):
    """The bytes the filter counts per belief against its budget: its values
    on the largest block, 256 bytes of key and index entry, and 20 bytes a
    block of mass, cumulative-sum and next-belief cells."""
    block = max(len(m) for m in lumping.member_indices)
    return 8 * block + 256 + 20 * lumping.n_blocks


def set_table(monkeypatch, lumping, beliefs):
    """Set the filter's byte budget to ``beliefs`` beliefs' worth."""
    monkeypatch.setattr(entropy_module, "_BELIEF_TABLE_BYTES",
                        int(beliefs * belief_bytes(lumping)))


def count_scorings(monkeypatch):
    """The number of beliefs in each table the filter scores, appended as it
    scores them: once per emptying and once when the run ends."""
    scorings = []
    score = entropy_module._block_entropies

    def counted(laws):
        scorings.append(len(laws))
        return score(laws)

    monkeypatch.setattr(entropy_module, "_block_entropies", counted)
    return scorings


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_blackwell_matches_reference_on_corpus(monkeypatch, path, seed):
    chain, lumping = parse_model(str(path))
    set_table(monkeypatch, lumping, TABLE)
    assert_filter_matches_reference(chain, lumping, TABLE + 300, None, seed)


@pytest.mark.parametrize("shape", RANDOM_CHAINS, ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
@pytest.mark.parametrize("steps,burn_in", STEP_CASES)
def test_blackwell_matches_reference_on_random_chains(monkeypatch, shape, steps, burn_in):
    chain, lumping, _, _ = random_instance(*shape)
    set_table(monkeypatch, lumping, TABLE)
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


@pytest.mark.parametrize("beliefs", (1, 3, 7, 0.99))
@pytest.mark.parametrize("shape", RANDOM_CHAINS, ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
def test_blackwell_matches_reference_across_table_flushes(monkeypatch, beliefs, shape):
    # a byte budget of a few beliefs' worth empties the table every few steps,
    # and one below a single belief's still holds one; the burn-in of 333
    # steps ends inside a table and 1999 steps fill no whole number of
    # batches or tables
    chain, lumping, _, _ = random_instance(*shape)
    set_table(monkeypatch, lumping, beliefs)
    scorings = count_scorings(monkeypatch)
    assert_filter_matches_reference(chain, lumping, 1999, 333, seed=shape[0])
    # the table was emptied, each time full at the capacity this test's
    # count of a belief's bytes gives
    assert_tables(scorings, max(1, int(beliefs)))


def assert_tables(scorings, capacity):
    """The filter emptied its table at least once, each time with
    ``capacity`` beliefs in it, and ended with at most that many."""
    assert len(scorings) > 1
    assert set(scorings[:-1]) == {capacity}
    assert scorings[-1] <= capacity


def filter_peak(chain, lumping, steps, seed):
    """The ``tracemalloc`` peak of one filter run."""
    tracemalloc.start()
    try:
        blackwell_entropy_estimate(chain, lumping, steps, None, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# uniforms, scores and belief ids: what the filter holds per step besides
# its table, in bytes
PER_STEP = 8 + 8 + 4


def test_blackwell_memory_is_bounded_by_the_table_budget(monkeypatch):
    # 200,000 steps on 100 states visit 15,947 distinct beliefs against a
    # table of 5,868: kept all at once they would take about 8 MiB
    chain, lumping, _, _ = random_instance(0, 100, 4)
    steps = 200_000
    assert TABLE_BYTES // belief_bytes(lumping) == 5_868
    scorings = count_scorings(monkeypatch)
    peak = filter_peak(chain, lumping, steps, 0)
    assert_tables(scorings, 5_868)
    assert peak < PER_STEP * steps + TABLE_BYTES + (1 << 19)


def test_blackwell_memory_at_1000_states_stays_within_the_byte_budget(monkeypatch):
    # a belief of this chain counts 2,336 bytes, so the budget holds 1,346;
    # the table must stay within the budget however many states there are
    matrix, blocks = oracles.random_sparse_chain(np.random.default_rng(0), 1000, 4)
    chain = build_chain(matrix, [str(i) for i in range(1000)])
    lumping = build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})
    # the chain's (n x n) stationary solve, which the filter's budget does
    # not count, is cached before the filter is traced
    chain.stationary
    steps = 3000
    assert TABLE_BYTES // belief_bytes(lumping) == 1_346
    scorings = count_scorings(monkeypatch)
    peak = filter_peak(chain, lumping, steps, 0)
    assert_tables(scorings, 1_346)
    assert peak < PER_STEP * steps + TABLE_BYTES + (1 << 19)


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


def dense_instance(seed, n_states, n_blocks):
    """Every transition positive, so the counted states fill whole blocks."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.5, 1.5, (n_states, n_states))
    matrix = (matrix / matrix.sum(axis=1, keepdims=True)).tolist()
    blocks = [int(b) for b in rng.permutation(np.arange(n_states) % n_blocks)]
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    lumping = build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})
    return chain, lumping, matrix, blocks


def bench_growth_instance(seed, n_states):
    """The ``sampling`` growth item of ``bench/workloads.py`` with ``n_states``
    states, and the first of its seeds."""
    item = next(i for i in bench_workloads().make_items("sampling", seed, MODELS_DIR.parent)
                if i.kind == "growth" and len(i.blocks) == n_states)
    chain = build_chain(item.matrix, item.states)
    lumping = build_lumping(chain, item.assignment)
    return chain, lumping, item.matrix.tolist(), item.blocks, item.params["seeds"][0]


def until_unrealisable(matrix, blocks, word):
    """``word`` followed by the blocks that each leave the fewest states
    ending a realisable path, up to the first that leaves none."""
    adj = np.asarray(matrix) > 0
    member = np.arange(max(blocks) + 1)[:, None] == np.asarray(blocks)[None, :]
    live = member[word[0]]
    for b in word[1:]:
        live = adj[live].any(axis=0) & member[b]
    word = list(word)
    for _ in range(len(blocks)):
        reach = adj[live].any(axis=0) & member
        word.append(int(reach.sum(axis=1).argmin()))
        live = reach[word[-1]]
        if not live.any():
            return word
    raise AssertionError("no block word of this chain stops being realisable")


# (family, seed, states, blocks, length): sampled words on sparse chains, on
# dense ones, and on the bench's growth items at seed 0 (their first seed
# samples the word); "dying" extends a sampled word until no state path
# realises it
PREIMAGE_CASES = (
    ("sparse", 11, 6, 2, 200), ("sparse", 12, 10, 2, 300), ("sparse", 13, 16, 2, 400),
    ("sparse", 14, 24, 3, 500), ("sparse", 15, 30, 3, 600), ("sparse", 16, 40, 3, 700),
    ("sparse", 17, 50, 3, 800), ("sparse", 18, 60, 3, 1000),
    ("dense", 21, 12, 3, 100), ("dense", 22, 40, 4, 60),
    ("dying", 23, 12, 3, 300), ("dying", 24, 40, 4, 500),
    ("bench", 0, 16, 3, 500), ("bench", 0, 40, 3, 500), ("bench", 0, 64, 4, 500),
    ("bench", 0, 100, 4, 500))


@pytest.mark.parametrize("family,seed,n_states,n_blocks,length", PREIMAGE_CASES,
                         ids=["-".join(map(str, c[1:] if c[0] == "sparse" else c))
                              for c in PREIMAGE_CASES])
def test_preimage_count_matches_matrix_products(family, seed, n_states, n_blocks, length):
    if family == "bench":
        chain, lumping, matrix, blocks, seed = bench_growth_instance(seed, n_states)
    else:
        make = dense_instance if family == "dense" else random_instance
        chain, lumping, matrix, blocks = make(seed, n_states, n_blocks)
    states = sample_trajectory(chain, length, seed=seed).states
    word = [int(lumping.map[s][1:]) for s in states]
    label = {int(b[1:]): b for b in lumping.blocks}
    if family == "dying":
        word = until_unrealisable(matrix, blocks, word)
        alive = oracles.preimage_count_by_matrix(matrix, blocks, word[:-1])
        assert alive > 0
        assert preimage_count(chain, lumping, [label[b] for b in word[:-1]]) == alive
    expected = oracles.preimage_count_by_matrix(matrix, blocks, word)
    if family == "dying":
        assert expected == 0
    elif family != "bench":
        assert expected > 2 ** 64
    assert preimage_count(chain, lumping, [label[b] for b in word]) == expected


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
    for point in empirical_growth(chain, lumping, length, seeds):
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
