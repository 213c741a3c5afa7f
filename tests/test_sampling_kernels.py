"""The two sampling kernels against their oracles.

The belief filter must give the same bits as the per-step reference loop in
``oracles.blackwell_reference`` (estimate and stderr compared with ``==``),
and the preimage DP must give the exact counts of object-dtype matrix
products on words long enough for those counts to pass 2^64.
"""

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR
from lumpchain import (
    blackwell_entropy_estimate,
    build_chain,
    build_lumping,
    parse_model,
    preimage_count,
    sample_trajectory,
)
from lumpchain.entropy import _SCORE_CHUNK as CHUNK

# (steps, burn_in) around the filter's scoring chunk: below one chunk,
# without and with the default burn-in; several chunks after a burn-in longer
# than a chunk and not a multiple of it (partial last chunk); post-burn-in
# steps an exact multiple of the chunk
STEP_CASES = ((CHUNK // 2 + 60, 0), (CHUNK // 2, None),
              (3 * CHUNK + 77, CHUNK + CHUNK // 3), (2 * CHUNK + 100, 100))

# (seed, states, blocks): up to 100 states; eight or more blocks put more
# than eight terms into a score's sum, where numpy's summation order changes
RANDOM_CHAINS = ((1, 5, 2), (2, 12, 3), (3, 20, 4), (4, 40, 4), (5, 60, 3),
                 (6, 100, 4), (7, 30, 8), (8, 50, 12), (9, 100, 10))


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
    assert_filter_matches_reference(chain, lumping, 2 * CHUNK + 300, None, seed)


@pytest.mark.parametrize("shape", RANDOM_CHAINS, ids=lambda s: f"seed{s[0]}-n{s[1]}-b{s[2]}")
@pytest.mark.parametrize("steps,burn_in", STEP_CASES)
def test_blackwell_matches_reference_on_random_chains(shape, steps, burn_in):
    chain, lumping, _, _ = random_instance(*shape)
    assert_filter_matches_reference(chain, lumping, steps, burn_in, seed=shape[0] + steps)


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
