"""The matrix-scored loss bound against the per-window enumeration.

``entropy_loss_bound`` scores every minimal window at once with semiring
matrix products and enumerates paths only for the windows whose score lies
within a rounding margin of the best. ``oracles.loss_bound_by_enumeration``
enumerates every window. The two must agree in ``repr()``: same witness,
same floats.
"""

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR
from lumpchain import build_chain, build_lumping, entropy_loss_bound, parse_model
from lumpchain import lumping as lumping_module
from test_lumping import DEEP_WITNESS_SEEDS, sparse_instance, two_branch_chain


def assert_matches_oracle(chain, lumping):
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


@pytest.mark.parametrize("seed", range(4))
def test_matches_oracle_across_mask_chunks(monkeypatch, seed):
    # window masks are built from pair paths a chunk at a time; a chunk of 7
    # splits the pair paths of the positive chains' words
    monkeypatch.setattr(lumping_module, "_MASK_CHUNK", 7)
    assert_matches_oracle(*random_instance(seed))
    assert_matches_oracle(*positive_instance(seed, 16, 3))
