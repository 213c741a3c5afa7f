"""The belief filter against its per-step reference at the benchmark's scale.

``tests/test_sampling_kernels.py`` pins the filter on runs of up to a few
thousand steps. The ``sampling`` workload runs it for 20,000 steps on 8-100
states. Nearly every belief of the 8-state item is new, so its 3 MiB belief
table is emptied twice, and the 24-state item's once. Each of its eight
filter inputs at seed 0 must give the bits of ``oracles.blackwell_reference``,
estimate and stderr compared with ``==``.
"""

import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads
from lumpchain import blackwell_entropy_estimate, build_chain, build_lumping

FILTER_ITEMS = 8  # the workload's first eight inputs are its filter runs


@pytest.fixture(scope="module")
def sampling_items():
    return bench_workloads().make_items("sampling", 0, MODELS_DIR.parent)


@pytest.mark.parametrize("index", range(FILTER_ITEMS))
def test_filter_matches_reference_on_bench_sampling_items(sampling_items, index):
    item = sampling_items[index]
    assert item.kind == "blackwell"
    chain = build_chain(item.matrix, item.states)
    lumping = build_lumping(chain, item.assignment)
    steps, seed = item.params["steps"], item.params["seed"]
    assert steps == 20_000
    got = blackwell_entropy_estimate(chain, lumping, steps, None, seed)
    expected = oracles.blackwell_reference(
        chain.transition, chain.stationary, lumping.indicator, steps, steps // 10, seed)
    assert (got.estimate, got.stderr) == expected
