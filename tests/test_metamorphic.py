"""Answers that must not move when the chain is relabelled or reversed.

Permuting the states, renaming them and renaming and reordering the blocks
describes the same chain and lumping, so every structural verdict and every
exact number stays; only state indices and block order change, and with the
block order the pair kernel's chunk layout. The stationary block process
reversed in time has the same block entropies, and a reversed split-merge
window is one, so the index, H(Y^n) and the upper edge H(Y^n+1) - H(Y^n) are
reversal-invariant too, as are the chain's own block entropies. Floats agree
to a relative 1e-12 (largest measured: 1.3e-14, on a relabelled ``pairs``
item), with 1e-15 absolute for entropies of zero.

Cases: every model file and 60 seeded sparse chains of 5-29 states in 2-4
blocks; ``run_analysis`` is relabelled on the 100-300-state ``pairs`` items
of ``bench/workloads.py`` at seeds 0 and 11.
"""

import functools
import math

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import (
    AnalysisConfig,
    block_entropy,
    build_chain,
    build_lumping,
    check_sfs,
    check_single_entry,
    check_strong_lumpable,
    check_weak_lumpable,
    entropy_loss_bound,
    lumped_block_entropy,
    lumped_rate_bounds,
    parse_model,
    reverse_chain,
    run_analysis,
    split_merge_index,
)

SEEDED = range(60)
ENTROPY_LENGTHS = range(1, 6)
UPPER_HORIZONS = range(1, 7)
BENCH_SEEDS = (0, 11)
LUMPABILITY_ORDERS = (1, 2)
WEAK_HORIZON = 5
SFS_ORDERS = (2, 3, 4)

CASES = {
    **{f"model/{path.stem}": path for path in sorted(MODELS_DIR.glob("*.json"))},
    **{f"seeded/{seed}": seed for seed in SEEDED},
}


def load(case):
    source = CASES[case]
    if not isinstance(source, int):
        return parse_model(str(source))
    rng = np.random.default_rng([source, 13])
    n = int(rng.integers(5, 30))
    matrix, blocks = oracles.random_sparse_chain(rng, n, int(rng.integers(2, 5)))
    chain = build_chain(matrix, [f"s{i}" for i in range(n)])
    return chain, build_lumping(chain, {f"s{i}": "ABCD"[b] for i, b in enumerate(blocks)})


def relabel(chain, lumping, order, block_names):
    """The same chain with its states in ``order``, state i renamed ``x<i>``
    and block b renamed ``block_names[b]``."""
    names = [f"x{i}" for i in order]
    moved = build_chain(chain.transition[np.ix_(order, order)], names)
    assignment = {f"x{i}": block_names[lumping.of_state[i]] for i in order}
    return moved, build_lumping(moved, assignment, allow_trivial=True)


def relabellings(chain, lumping, seed):
    """A random state order, and one that lists the blocks in reverse order;
    both with renamed blocks."""
    rng = np.random.default_rng(seed)
    names = [f"block{j}" for j in rng.permutation(lumping.n_blocks)]
    shuffled = rng.permutation(chain.n)
    reversed_blocks = np.lexsort((rng.random(chain.n), -lumping.of_state))
    return [relabel(chain, lumping, order, names) for order in (shuffled, reversed_blocks)]


def answers(chain, lumping):
    """Every answer that no relabelling may change: exact booleans and ints,
    and floats (compared with a tolerance) under keys starting ``float``."""
    bound = entropy_loss_bound(chain, lumping)
    out = {
        "kappa": split_merge_index(chain, lumping).kappa,
        "se": check_single_entry(chain, lumping).holds,
        "float rate_lower_bound": None if bound is None else bound.rate_lower_bound,
    }
    for k in SFS_ORDERS:
        out[f"sfs k={k}"] = check_sfs(chain, lumping, k).holds
    for k in LUMPABILITY_ORDERS:
        out[f"strong k={k}"] = check_strong_lumpable(chain, lumping, k).strong
        out[f"weak k={k}"] = check_weak_lumpable(
            chain, lumping, k, WEAK_HORIZON).weak_up_to_horizon.verdict
    for n in ENTROPY_LENGTHS:
        out[f"float H_{n}"] = lumped_block_entropy(chain, lumping, n)
    return out


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key.startswith("float") and value is not None and got[key] is not None:
            assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=1e-15), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("case", sorted(CASES))
def test_relabelling_states_and_blocks_changes_no_answer(case):
    chain, lumping = load(case)
    want = answers(chain, lumping)
    for moved, moved_lumping in relabellings(chain, lumping, seed=sorted(CASES).index(case)):
        assert_same(answers(moved, moved_lumping), want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reversal_keeps_the_index_and_the_block_entropies(case):
    chain, lumping = load(case)
    reversed_chain = reverse_chain(chain)
    assert split_merge_index(reversed_chain, lumping).kappa == \
        split_merge_index(chain, lumping).kappa
    for n in ENTROPY_LENGTHS:
        assert math.isclose(lumped_block_entropy(reversed_chain, lumping, n),
                            lumped_block_entropy(chain, lumping, n),
                            rel_tol=1e-12, abs_tol=1e-15), n
        assert math.isclose(block_entropy(reversed_chain, n), block_entropy(chain, n),
                            rel_tol=1e-12, abs_tol=1e-15), n
    for n in UPPER_HORIZONS:
        assert math.isclose(lumped_rate_bounds(reversed_chain, lumping, n).upper,
                            lumped_rate_bounds(chain, lumping, n).upper,
                            rel_tol=1e-12, abs_tol=1e-15), n


@functools.cache
def pairs_items():
    workloads = bench_workloads()
    return {f"pairs/seed{seed}/{i:02d}": item for seed in BENCH_SEEDS
            for i, item in enumerate(workloads.make_items("pairs", seed, MODELS_DIR.parent))}


def analysis_answers(chain, lumping, config):
    """What ``run_analysis`` reports, floats under keys starting ``float``."""
    report = run_analysis(chain, lumping, config)
    out = {"kappa": report.kappa, "se": report.se, "sfs": report.sfs,
           "strong": report.strong, "weak": report.weak,
           "float chain_rate": report.chain_rate,
           "float loss rate": None if report.loss_bound is None
           else report.loss_bound.rate_lower_bound}
    for b in report.bounds:
        out[f"float lower n={b.horizon}"] = b.lower
        out[f"float upper n={b.horizon}"] = b.upper
    return out


@pytest.mark.parametrize("case", sorted(pairs_items()))
def test_relabelling_changes_no_analysis_of_a_bench_pairs_item(case):
    item = pairs_items()[case]
    chain = build_chain(item.matrix, item.states)
    lumping = build_lumping(chain, item.assignment)
    p = item.params
    config = AnalysisConfig(horizons=p["horizons"], k_range=p["k_range"],
                            weak_horizon=p["weak_horizon"])
    want = analysis_answers(chain, lumping, config)
    for moved, moved_lumping in relabellings(chain, lumping, seed=sorted(pairs_items()).index(case)):
        assert_same(analysis_answers(moved, moved_lumping, config), want)
