"""The recorded references against the brute-force oracles in tests/oracles.py.

The corpus is small enough to enumerate outright. Generated inputs are
checked where enumeration stays cheap: short horizons on the smaller
lattice inputs, depth-1 split-merge search on the lossy pairs inputs, and
full runs on miniature versions of every generator family.
"""

import numpy as np
import pytest

import check
import lumpchain as lc
import oracles
import workloads as wl
import worker
from conftest import ROOT

TOL = 1e-9


def _assert_matches_oracles(summary, matrix, blocks, max_horizon, kappa_cap):
    m = [list(map(float, row)) for row in matrix]
    mu = oracles.eliminate_stationary(m)
    assert summary["chain_rate"] == pytest.approx(
        sum(mu[x] * oracles.entropy_bits(m[x]) for x in range(len(m))), abs=TOL)
    for b in summary["bounds"]:
        if b["horizon"] > max_horizon:
            continue
        assert b["upper"] == pytest.approx(
            oracles.upper_bound_by_enumeration(m, mu, blocks, b["horizon"]), abs=TOL)
        assert b["lower"] == pytest.approx(
            oracles.lower_bound_by_enumeration(m, mu, blocks, b["horizon"]), abs=TOL)
    kappa = oracles.kappa_by_path_pairs(m, blocks, kappa_cap)
    if summary["kappa"] == "infinity":
        assert kappa is None
    elif summary["kappa"] <= kappa_cap:
        assert kappa == summary["kappa"]
    else:
        assert kappa is None


@pytest.mark.parametrize("item", wl.make_items("cli_corpus", 0, ROOT), ids=lambda it: it.key)
def test_corpus_references_match_oracles(item):
    ref = worker.load_references("cli_corpus", 0)[item.key]
    matrix, blocks = wl.model_arrays(ROOT / item.model)
    _assert_matches_oracles(ref, matrix, blocks, max_horizon=4,
                            kappa_cap=wl.same_block_pairs(blocks))


_LATTICE = [it for it in wl.make_items("lattice", wl.DEFAULT_SEED, ROOT)
            if len(it.blocks) <= 12]


@pytest.mark.parametrize("item", _LATTICE, ids=lambda it: it.key)
def test_lattice_references_match_oracles(item):
    ref = worker.load_references("lattice", wl.DEFAULT_SEED)[item.key]
    horizon = 3 if item.family == "dense" else 5
    _assert_matches_oracles(ref, item.matrix, item.blocks, horizon, kappa_cap=1)


_LOSSY_PAIRS = [it for it in wl.make_items("pairs", wl.DEFAULT_SEED, ROOT)
                if it.family == "sparse"]


@pytest.mark.parametrize("item", _LOSSY_PAIRS, ids=lambda it: it.key)
def test_pairs_kappa_matches_depth_one_search(item):
    ref = worker.load_references("pairs", wl.DEFAULT_SEED)[item.key]
    found = oracles.kappa_by_path_pairs(item.matrix.tolist(), item.blocks, 1)
    assert (ref["kappa"] == 1) == (found == 1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family,n,nb", [("sparse", 6, 2), ("thin", 6, 3),
                                         ("dense", 5, 2), ("private", 6, 2)])
def test_miniature_generated_inputs_match_oracles(family, n, nb, seed):
    matrix, blocks = wl._chain(family, np.random.default_rng([seed, n]), n, nb)
    chain = lc.build_chain(matrix)
    lumping = lc.build_lumping(chain, {s: f"B{x}" for s, x in zip(chain.states, blocks)})
    params = {"horizons": (1, 2, 3, 4), "k_range": (1, 2, 3), "weak_horizon": 4}
    report = lc.run_analysis(chain, lumping, lc.AnalysisConfig(**params))
    summary = check.summarize_report(report)
    facts = check.reference_free_values(matrix, blocks)
    assert check.analysis_invariants(summary, params, facts, family) == []
    # the cap keeps enumeration cheap; a finite index above it reads as none
    _assert_matches_oracles(summary, matrix, blocks, max_horizon=4,
                            kappa_cap=min(wl.same_block_pairs(blocks), 6))
    for k in (1, 2, 3):
        violation = oracles.markov_order_violation(matrix.tolist(), list(chain.stationary),
                                                   blocks, k, 4)
        assert summary["weak"][str(k)]["verdict"] == (violation is None)
