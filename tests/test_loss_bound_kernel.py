"""The pair-level kernel against the pair-path enumeration.

``split_merge_index`` finds its witness by a greedy walk over the pair
levels. ``entropy_loss_bound`` finds every minimal block word and the
states its pair paths visit over the same levels, finds and scores all the
word's windows with one chain of count and semiring matrix products over
those states, and enumerates paths only for the windows whose score lies
within a rounding margin of the best.
``oracles.split_merge_by_enumeration`` and
``oracles.loss_bound_by_enumeration`` list every minimal pair path and every
window. Each pair must agree in ``repr()``: same witness, same floats; and
the pair levels must be the positions of the pairs on those pair paths.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import (
    build_chain,
    build_lumping,
    entropy_loss_bound,
    pair_depth_cap,
    parse_model,
    split_merge_index,
)
from lumpchain import lumping as lumping_module
from lumpchain.cli import AnalysisConfig, format_report, run_analysis
from lumpchain.errors import HorizonTooLarge
from lumpchain.lumping import SplitMergeResult
from test_lower_pass import bench_case
from test_lumping import (
    DEEP_WITNESS_SEEDS,
    assert_witnesses_match_windows,
    sparse_instance,
    two_branch_chain,
)


def assert_matches_oracle(chain, lumping):
    kappa, ppaths = oracles.minimal_pair_paths(chain, lumping)
    levels = np.zeros((chain.n, chain.n), dtype=int)
    for ppath in ppaths:
        for d, (u, v) in enumerate(ppath, start=1):
            levels[u, v] = d
    got_kappa, depth, first = lumping_module._pair_levels(chain, lumping)
    assert got_kappa == kappa and (depth is None) == (first is None) == (not ppaths)
    assert depth is None or np.array_equal(depth, levels)
    assert first is None or np.array_equal(first, np.flatnonzero((levels == 1).any(axis=1)))
    assert repr(split_merge_index(chain, lumping)) == repr(
        oracles.split_merge_by_enumeration(chain, lumping))
    got = entropy_loss_bound(chain, lumping)
    assert repr(got) == repr(oracles.loss_bound_by_enumeration(chain, lumping))
    return got


def positive_instance(seed, n_states, n_blocks):
    """Chain with every transition positive and equal-sized shuffled blocks,
    the shape of the benchmark's dense inputs."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, (n_states, n_states))
    matrix = weights / weights.sum(axis=1, keepdims=True)
    blocks = np.arange(n_states) % n_blocks
    rng.shuffle(blocks)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


def random_instance(seed):
    """Seeded 6-40-state sparse chain with 2-4 blocks; one extra edge per
    state on even seeds gives split-merge indices up to 4, two on odd seeds
    give index 1 with many windows."""
    rng = np.random.default_rng(seed)
    n_states, n_blocks = int(rng.integers(6, 41)), int(rng.integers(2, 5))
    matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks, 1 + seed % 2)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_matches_oracle_on_corpus(path):
    assert_matches_oracle(*parse_model(str(path)))


@pytest.mark.parametrize("seed", DEEP_WITNESS_SEEDS)
def test_matches_oracle_on_deep_chains(seed):
    assert assert_matches_oracle(*sparse_instance(seed)).witness.kappa >= 2


def test_matches_oracle_on_two_branches():
    assert assert_matches_oracle(*two_branch_chain(6)).witness.kappa == 6


@pytest.mark.parametrize("seed", range(30))
def test_matches_oracle_on_random_sparse_chains(seed):
    assert_matches_oracle(*random_instance(seed))


# the benchmark's dense shapes, then positive two-block chains, where every
# same-block pair is a minimal window and enumeration is at its most costly
@pytest.mark.parametrize("n_states,n_blocks", ((8, 3), (16, 3), (8, 4), (16, 4), (24, 4),
                                               (20, 2), (40, 2)))
@pytest.mark.parametrize("seed", (0, 1))
def test_matches_oracle_on_positive_chains(seed, n_states, n_blocks):
    assert assert_matches_oracle(*positive_instance(seed, n_states, n_blocks)) is not None


def test_margin_covers_cancellation_on_nearly_deterministic_windows():
    # two windows (check c1 or c2, middle m1 or m2 of block B, hat h), each
    # left through its m2 with probability about 1e-13: window entropies near
    # 1e-11 bits and scores within 1e-9 relative, c2's the larger. In the
    # products log2 Z and S/Z cancel to leave those 1e-11 bits, so the
    # product scores carry relative rounding of order 1e-6 and here rank c1
    # first; a margin of a relative 1e-9 alone would drop c2
    eps1, eps2, a, p = 2e-13, 8.330211498e-14, 0.2, 0.3
    chain = build_chain([[0, 0, 1 - eps1, eps1, 0],
                         [0, 0, 1 - eps2, eps2, 0],
                         [0, 0, 1 - a, 0, a],
                         [0, 0, 0, 1 - a, a],
                         [p, 1 - p, 0, 0, 0]], ["c1", "c2", "m1", "m2", "h"])
    lumping = build_lumping(chain, {"c1": "C1", "c2": "C2", "m1": "B", "m2": "B", "h": "H"})
    for eps in (eps1, eps2):
        assert oracles.entropy_bits([1 - eps, eps]) < 1e-9
    scores = {}
    expected = oracles.loss_bound_by_enumeration(chain, lumping, scores)
    low, high = sorted(scores.values())
    assert len(scores) == 2 and high - low < 1e-9 * high
    assert expected.witness.check_state == "c2"
    assert repr(entropy_loss_bound(chain, lumping)) == repr(expected)


@pytest.mark.parametrize("n_states,n_blocks", ((24, 4), (40, 2)))
def test_only_near_best_windows_are_enumerated(monkeypatch, n_states, n_blocks):
    chain, lumping = positive_instance(0, n_states, n_blocks)
    scores = {}
    expected = oracles.loss_bound_by_enumeration(chain, lumping, scores)
    best = max(scores.values())
    near = sum(score >= best * (1 - 1e-6) for score in scores.values())
    enumerated = []
    window_paths = lumping_module._window_paths

    def counting(*args):
        enumerated.append(args[2:])
        return window_paths(*args)

    monkeypatch.setattr(lumping_module, "_window_paths", counting)
    assert repr(entropy_loss_bound(chain, lumping)) == repr(expected)
    assert 1 <= len(enumerated) <= near < len(scores)


# the benchmark's sparse shapes: thin and sparse lattice chains, then the
# lossy pairs chains of 100-300 states
@pytest.mark.parametrize("n_states,n_blocks,extra_edges", ((12, 3, 1), (24, 3, 1), (16, 4, 1),
                                                          (24, 4, 1), (12, 3, 2), (16, 4, 2)))
@pytest.mark.parametrize("seed", (0, 1))
def test_matches_oracle_on_lattice_shapes(seed, n_states, n_blocks, extra_edges):
    rng = np.random.default_rng([seed, n_states, n_blocks, extra_edges])
    matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks, extra_edges)
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    assert_matches_oracle(chain, build_lumping(
        chain, {str(i): f"b{b}" for i, b in enumerate(blocks)}))


@pytest.mark.parametrize("n_states,n_blocks", ((100, 2), (200, 3), (300, 4)))
def test_matches_oracle_on_pairs_shapes(n_states, n_blocks):
    assert_matches_oracle(*bench_case(n_states, n_blocks))


def layout_instance(seed, blocks, extra_edges=2):
    """Seeded sparse chain on ``len(blocks)`` states with the given lumping."""
    rng = np.random.default_rng([seed, len(blocks)])
    matrix, _ = oracles.random_sparse_chain(rng, len(blocks), 1, extra_edges)
    chain = build_chain(matrix, [str(i) for i in range(len(blocks))])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


def private_successor_chain(n_states, n_blocks, seed=0):
    """Chain whose same-block states never share a successor.

    Each block deals a permutation of all states to its members, ``n_blocks``
    apiece, so no two paths of one block word merge again: the index is
    infinite and the pair search visits every reachable same-block pair.
    """
    rng = np.random.default_rng(seed)
    blocks = np.arange(n_states) % n_blocks
    rng.shuffle(blocks)
    matrix = np.zeros((n_states, n_states))
    for b in range(n_blocks):
        members = np.flatnonzero(blocks == b)
        successors = rng.permutation(n_states).reshape(len(members), n_blocks)
        matrix[members[:, None], successors] = 1.0 / n_blocks
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)})


def big_and_pair_blocks(seed, big, pairs):
    """Sparse chain with one block of ``big`` states and ``pairs`` two-state
    blocks, shuffled over the states."""
    blocks = np.array([0] * big + [1 + i // 2 for i in range(2 * pairs)])
    np.random.default_rng(seed).shuffle(blocks)
    return layout_instance(seed, blocks.tolist())


# block layouts the pair search cuts into chunks differently, with their
# indices: a block past the chunk size beside singletons, many two-state
# blocks on a deep path, blocks interleaved in state order, every pair
# visited, a single pair
BLOCK_LAYOUTS = {
    "block40-and-singletons": (lambda: layout_instance(0, [0] * 40 + list(range(1, 11))), 1),
    "two-branches-40": (lambda: two_branch_chain(40), 40),
    "interleaved-blocks": (lambda: layout_instance(8, [i % 3 for i in range(30)], 1), 7),
    "private-successors": (lambda: private_successor_chain(12, 3), np.inf),
    "single-pair": (lambda: layout_instance(7, [0, 1, 2, 3, 4, 5, 6, 7, 8, 3]), 1),
}


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
def test_matches_oracle_on_block_layouts(layout):
    make, kappa = BLOCK_LAYOUTS[layout]
    chain, lumping = make()
    assert_matches_oracle(chain, lumping)
    assert split_merge_index(chain, lumping).kappa == kappa


@pytest.mark.parametrize("instance", (lambda: private_successor_chain(300, 4),
                                      lambda: big_and_pair_blocks(3, 150, 75)),
                         ids=("private-successors-300", "block150-and-75-pairs"))
def test_pair_search_peak_memory(instance):
    chain, lumping = instance()
    assert chain.adjacency.any()  # cached before tracing, as in an analysis
    tracemalloc.start()
    try:
        lumping_module._pair_levels(chain, lumping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * chain.transition.nbytes


def test_loss_bound_peak_memory_on_a_large_sparse_chain():
    # the bound reads only the states the minimal pair paths visit: no copy
    # or scan of the (n x n) adjacency or pair levels
    n = 1000
    workloads = bench_workloads()
    matrix, blocks = workloads.sparse_chain(np.random.default_rng([7, n, 4, 3]), n, 4, 3)
    item = workloads.Item(key="", kind="analysis", matrix=matrix, blocks=blocks)
    chain = build_chain(item.matrix, item.states)
    lumping = build_lumping(chain, item.assignment)
    levels = lumping_module._pair_levels(chain, lumping)
    assert chain.stationary.any()  # cached before tracing, as in an analysis
    tracemalloc.start()
    try:
        bound = lumping_module._loss_bound(chain, lumping, *levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound is not None and peak < n * n / 8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_oracle_on_small_chains(seed):
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 11))
    n_blocks = int(rng.integers(1, n_states + 1))
    matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks, int(rng.integers(3)))
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    assert_matches_oracle(chain, build_lumping(
        chain, {str(i): f"b{b}" for i, b in enumerate(blocks)}, allow_trivial=True))


def edge_chain(states, edges, blocks):
    """Chain with uniform weights over each state's listed successors."""
    at = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for a, b in edges:
        matrix[at[a], at[b]] = 1.0
    chain = build_chain(matrix / matrix.sum(axis=1, keepdims=True), states)
    return chain, build_lumping(chain, {s: blocks.get(s, s) for s in states})


def test_partner_path_follows_its_own_edges():
    # path_a is a0 a1, with partners p0 p1 and q0 q1; q1 precedes p1 in
    # state order, but p0 does not step to q1
    chain, lumping = edge_chain(
        ["c", "a0", "p0", "q0", "a1", "q1", "p1", "h"],
        [("c", "a0"), ("c", "p0"), ("c", "q0"), ("a0", "a1"), ("p0", "p1"), ("q0", "q1"),
         ("a1", "h"), ("q1", "h"), ("p1", "h"), ("h", "c"), ("h", "h")],
        {"a0": "A0", "p0": "A0", "q0": "A0", "a1": "A1", "q1": "A1", "p1": "A1"})
    w = split_merge_index(chain, lumping).witness
    assert (w.path_a, w.path_b) == (("a0", "a1"), ("p0", "p1"))
    assert_matches_oracle(chain, lumping)


def test_path_a_steps_where_a_partner_can_follow():
    # a0 steps to b1 and a1; b1 comes first and has a pair of the last level,
    # (b1, e1), but a0's only partner p0 steps to p1, which pairs with a1 only
    chain, lumping = edge_chain(
        ["c", "c2", "a0", "p0", "r0", "s0", "b1", "a1", "p1", "e1", "h", "h2"],
        [("c", "a0"), ("c", "p0"), ("c2", "r0"), ("c2", "s0"), ("a0", "b1"), ("a0", "a1"),
         ("p0", "p1"), ("r0", "b1"), ("s0", "e1"), ("a1", "h"), ("p1", "h"), ("b1", "h2"),
         ("e1", "h2"), ("h", "c"), ("h", "c2"), ("h", "h"), ("h2", "h")],
        {**dict.fromkeys(("a0", "p0", "r0", "s0"), "A0"),
         **dict.fromkeys(("b1", "a1", "p1", "e1"), "A1")})
    w = split_merge_index(chain, lumping).witness
    assert (w.path_a, w.path_b) == (("a0", "a1"), ("p0", "p1"))
    assert_matches_oracle(chain, lumping)


def test_words_follow_pairs_not_single_states():
    # minimal words X-Y, X-W and Z-V; x1 and x3 step into V, but they are not
    # a pair of X that any check enters, so X-V is not a word
    chain, lumping = edge_chain(
        ["c1", "c2", "c3", "x1", "x2", "x3", "x4", "y1", "y2", "w1", "w2", "z1", "z2",
         "v1", "v2", "h"],
        [("c1", "x1"), ("c1", "x2"), ("x1", "y1"), ("x2", "y2"),
         ("c2", "x3"), ("c2", "x4"), ("x3", "w1"), ("x4", "w2"),
         ("c3", "z1"), ("c3", "z2"), ("z1", "v1"), ("z2", "v2"), ("x1", "v1"), ("x3", "v2"),
         *((s, "h") for s in ("y1", "y2", "w1", "w2", "v1", "v2")),
         ("h", "c1"), ("h", "c2"), ("h", "c3"), ("h", "h")],
        {**dict.fromkeys(("x1", "x2", "x3", "x4"), "X"), **dict.fromkeys(("y1", "y2"), "Y"),
         **dict.fromkeys(("w1", "w2"), "W"), **dict.fromkeys(("z1", "z2"), "Z"),
         **dict.fromkeys(("v1", "v2"), "V")})
    words = {word for word, *_ in lumping_module._minimal_words(
        chain, lumping, *lumping_module._pair_levels(chain, lumping))}
    assert {tuple(lumping.blocks[b] for b in word) for word in words} == {
        ("X", "Y"), ("X", "W"), ("Z", "V")}
    assert_matches_oracle(chain, lumping)


def many_window_chain():
    """A 107-state chain with two windows at split-merge index 1.

    Check c1 enters any of the 101 states of block X, which all lead to hat
    h1: 10 100 ordered same-block pairs in one window. Then c2 enters y1 or
    y2 of block Y, which lead to hat h2. Y's window scores best, but the
    first 10 000 pair paths in end-pair order are all X's.
    """
    xs = [f"x{i}" for i in range(101)]
    states = [*xs, "c1", "h1", "y1", "y2", "c2", "h2"]
    at = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for x in xs:
        matrix[at["c1"], at[x]] = 1 / 101
        matrix[at[x], at["h1"]] = 1.0
    for a, b, p in (("h1", "c2", 1.0), ("c2", "y1", 0.5), ("c2", "y2", 0.5), ("y1", "h2", 1.0),
                    ("y2", "h2", 1.0), ("h2", "c1", 0.5), ("h2", "h2", 0.5)):
        matrix[at[a], at[b]] = p
    chain = build_chain(matrix, states)
    return chain, build_lumping(chain, {s: "X" if s in xs else "Y" if s in ("y1", "y2") else s
                                        for s in states})


def test_best_window_past_ten_thousand_pair_paths():
    chain, lumping = many_window_chain()
    got = assert_matches_oracle(chain, lumping)
    w = got.witness
    assert (w.check_state, w.lumped_word, w.hat_state) == ("c2", ("Y",), "h2")
    assert got.rate_lower_bound == pytest.approx(1 / 84, rel=1e-12)
    assert_witnesses_match_windows(chain, lumping)


def layered_chain(levels):
    """A chain of 4 * levels + 2 states with 2^levels minimal block words.

    Check c enters a1, a'1, b1 and b'1. At each level a and b step to both
    of the next a and b, and a' and b' to both of the next a' and b'; the
    blocks are {a_d, a'_d} and {b_d, b'_d}, and the last level steps to hat
    h. So the index is ``levels`` and every A/B word of that length is a
    minimal block word.
    """
    names = [f"{s}{d}" for d in range(1, levels + 1) for s in ("a", "a'", "b", "b'")]
    succ = {"c": ["a1", "a'1", "b1", "b'1"], "h": ["c", "h"]}
    for d in range(1, levels + 1):
        for s in ("a", "b"):
            succ[f"{s}{d}"] = [f"a{d + 1}", f"b{d + 1}"] if d < levels else ["h"]
            succ[f"{s}'{d}"] = [f"a'{d + 1}", f"b'{d + 1}"] if d < levels else ["h"]
    return edge_chain(["c", *names, "h"], [(a, b) for a, bs in succ.items() for b in bs],
                      {x: x[0].upper() + x.lstrip("ab'") for x in names})


def test_every_minimal_word_scored_under_the_budget():
    chain, lumping = layered_chain(4)
    assert len(list(lumping_module._minimal_words(
        chain, lumping, *lumping_module._pair_levels(chain, lumping)))) == 16
    assert assert_matches_oracle(chain, lumping).witness.kappa == 4


def test_too_many_minimal_words_are_refused_before_scoring(monkeypatch):
    chain, lumping = layered_chain(30)
    scored = []
    monkeypatch.setattr(lumping_module, "_max_times", lambda *args: scored.append(args))
    with pytest.raises(HorizonTooLarge, match="minimal block words of length 30"):
        entropy_loss_bound(chain, lumping)
    assert not scored
    assert split_merge_index(chain, lumping).kappa == 30
    report = run_analysis(chain, lumping, AnalysisConfig(
        horizons=(1,), k_range=(1,), weak_horizon=1))
    assert (report.kappa, report.loss_bound) == (30, None)
    assert "entropy loss bound: refused" in format_report(report)


# ---------------------------------------------------------------------------
# no end pair: the pair search does not run


def has_end_pair(chain, lumping):
    """Some state has two distinct same-block predecessors: the reversed
    chain is not single entry."""
    return bool((lumping.indicator.T @ chain.adjacency > 1).any())


def disjoint_successor_chain(rng, n_states, n_blocks):
    """Chain of one to two successors a state, where the states of one block
    have disjoint successor sets, so no split can merge again."""
    blocks = np.arange(n_states) % n_blocks
    rng.shuffle(blocks)
    matrix = np.zeros((n_states, n_states))
    for b in range(n_blocks):
        members = np.flatnonzero(blocks == b)
        deal = iter(rng.permutation(n_states).tolist())
        for x in members:
            degree = int(rng.integers(1, 3)) if len(members) * 2 <= n_states else 1
            matrix[x, [next(deal) for _ in range(degree)]] = 1.0 / degree
    return matrix, blocks.tolist()


def small_instance(seed):
    """Seeded chain of 3-6 states: disjoint successor sets per block on even
    seeds, ``oracles.random_sparse_chain`` on odd ones."""
    rng = np.random.default_rng([seed, 27])
    n_states = int(rng.integers(3, 7))
    n_blocks = int(rng.integers(max(1, n_states // 2), n_states))
    if seed % 2 == 0:
        matrix, blocks = disjoint_successor_chain(rng, n_states, n_blocks)
    else:
        matrix, blocks = oracles.random_sparse_chain(rng, n_states, n_blocks, int(rng.integers(2)))
    chain = build_chain(matrix, [str(i) for i in range(n_states)])
    return chain, build_lumping(chain, {str(i): f"b{b}" for i, b in enumerate(blocks)},
                                allow_trivial=True), (matrix, blocks)


def bench_private_items(seed):
    workloads = bench_workloads()
    for item in workloads.make_items("pairs", seed, MODELS_DIR.parent):
        if item.family == "private":
            chain = build_chain(item.matrix, item.states)
            yield f"seed{seed}-{item.key}", chain, build_lumping(chain, item.assignment)


def end_pair_free_cases():
    yield ("tagged_branches", *parse_model(str(MODELS_DIR / "tagged_branches.json")))
    for seed in (0, 11):
        yield from bench_private_items(seed)
    for seed in range(5):
        yield (f"private-successors-{seed}", *private_successor_chain(12 + 12 * seed, 3, seed))
    for seed in range(0, 40, 2):
        yield (f"small-{seed}", *small_instance(seed)[:2])


def test_no_pair_step_without_an_end_pair(monkeypatch):
    def never(*args):
        raise AssertionError("the pair search took a step")

    monkeypatch.setattr(lumping_module, "_pair_step", never)
    cases = list(end_pair_free_cases())
    assert len(cases) == 1 + 4 + 5 + 20
    for key, chain, lumping in cases:
        assert not has_end_pair(chain, lumping), key
        assert lumping_module._pair_levels(chain, lumping) == (math.inf, None, None), key
        assert split_merge_index(chain, lumping) == SplitMergeResult(math.inf, None), key
        assert entropy_loss_bound(chain, lumping) is None, key


def test_index_matches_path_pair_enumeration_with_and_without_the_exit():
    exits = 0
    for seed in range(240):
        chain, lumping, (matrix, blocks) = small_instance(seed)
        expected = oracles.kappa_by_path_pairs(matrix, blocks, pair_depth_cap(lumping))
        kappa = split_merge_index(chain, lumping).kappa
        assert (None if math.isinf(kappa) else kappa) == expected, seed
        exits += not has_end_pair(chain, lumping)
    assert 100 <= exits <= 200  # both sides of the exit are exercised


def test_pair_search_still_steps_with_start_and_end_pairs(monkeypatch):
    # lossless_sticky has both start and end pairs, but no pair path joins them
    chain, lumping = parse_model(str(MODELS_DIR / "lossless_sticky.json"))
    steps = []
    pair_step = lumping_module._pair_step
    monkeypatch.setattr(lumping_module, "_pair_step",
                        lambda *args: steps.append(args) or pair_step(*args))
    assert has_end_pair(chain, lumping)
    assert split_merge_index(chain, lumping).kappa == math.inf
    assert steps
