import copy
import json

import pytest

import check
import workloads as wl
import worker
from conftest import ROOT


def _references(workload):
    return worker.load_references(workload, wl.DEFAULT_SEED)


def _fake_work(workload, summary_for):
    """A Workload whose operation returns a chosen summary instead of running."""
    work = worker.Workload(workload, wl.DEFAULT_SEED, worker.load_library(),
                           _references(workload))
    work.run = lambda item, in_process_cli=False: (0.001, summary_for(item))
    return work


def _perturb_float(summary):
    out = copy.deepcopy(summary)
    if "bounds" in out:
        out["bounds"][-1]["upper"] += 1e-6
    elif "estimate" in out:
        out["estimate"] += 1e-6
    else:
        out["checkpoints"][0]["geo_mean_growth"] += 1e-6
    return out


def _flip_verdict(summary):
    out = copy.deepcopy(summary)
    if "se" in out:
        out["se"] = not out["se"]
    elif "checkpoints" in out:
        out["checkpoints"][0]["counts"][0] += 1
    else:
        out["caveat"] += "!"
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_references_exist_for_every_default_input(workload):
    refs = _references(workload)
    items = wl.make_items(workload, wl.DEFAULT_SEED, ROOT)
    assert refs is not None and sorted(refs) == sorted(it.key for it in items)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_recorded_outputs_pass(workload):
    refs = _references(workload)
    work = _fake_work(workload, lambda item: refs[item.key])
    for item in work.items:
        assert work.attempt(item, []) is not None


@pytest.mark.parametrize("perturb", [_perturb_float, _flip_verdict])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_perturbed_output_is_a_failed_op(workload, perturb):
    refs = _references(workload)
    work = _fake_work(workload, lambda item: perturb(refs[item.key]))
    errors = []
    item = work.items[0]
    assert work.attempt(item, errors) is None
    assert errors and errors[0]["item"] == item.key


def test_raised_op_is_a_failed_op():
    work = _fake_work("pairs", lambda item: 1 / 0)
    errors = []
    assert work.attempt(work.items[0], errors) is None
    assert "ZeroDivisionError" in errors[0]["problems"][0]


def test_compare_tolerance_and_types():
    assert check.compare({"a": 1.0, "b": [1, True]}, {"a": 1.0 + 5e-10, "b": [1, True]}) == []
    assert check.compare({"a": 1.0}, {"a": 1.0 + 2e-9})
    assert check.compare(True, 1)
    assert check.compare(3, 4)
    assert check.compare([1], [1, 2])
    assert check.compare({"a": 1}, {"b": 1})
    assert check.compare("infinity", 3)


def _lattice_case():
    refs = _references("lattice")
    item = wl.make_items("lattice", wl.DEFAULT_SEED, ROOT)[0]
    facts = check.reference_free_values(item.matrix, item.blocks)
    return copy.deepcopy(refs[item.key]), item, facts


def test_invariants_hold_on_reference_and_catch_breaks():
    summary, item, facts = _lattice_case()
    assert check.analysis_invariants(summary, item.params, facts, item.family) == []

    swapped = copy.deepcopy(summary)
    b = swapped["bounds"][2]
    b["lower"], b["upper"] = b["upper"] + 0.1, b["lower"]
    assert check.analysis_invariants(swapped, item.params, facts)

    no_bound = copy.deepcopy(summary)
    no_bound["loss_bound"] = None
    assert no_bound["kappa"] != "infinity"
    assert check.analysis_invariants(no_bound, item.params, facts)

    rate = copy.deepcopy(summary)
    rate["chain_rate"] += 1e-6
    assert check.analysis_invariants(rate, item.params, facts)

    first = copy.deepcopy(summary)
    first["bounds"][0]["lower"] -= 1e-6
    assert check.analysis_invariants(first, item.params, facts)


def test_independent_values_match_library_on_corpus():
    refs = _references("cli_corpus")
    for item in wl.make_items("cli_corpus", 0, ROOT):
        facts = check.reference_free_values(*wl.model_arrays(ROOT / item.model))
        ref = refs[item.key]
        assert abs(ref["chain_rate"] - facts["chain_rate"]) < 1e-9
        assert abs(ref["bounds"][0]["upper"] - facts["upper_1"]) < 1e-9
        assert abs(ref["bounds"][0]["lower"] - facts["lower_1"]) < 1e-9


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)


def test_tail_is_eleventh_largest():
    import run

    samples = list(range(1, 41))
    assert run.tail(samples) == (30, 75.0)
    assert run.tail([5.0, 1.0]) == (5.0, 100.0)


def test_blackwell_estimate_must_lie_within_horizon_one_bounds():
    refs = _references("sampling")
    item = next(it for it in wl.make_items("sampling", wl.DEFAULT_SEED, ROOT)
                if it.kind == "blackwell")
    facts = check.reference_free_values(item.matrix, item.blocks)
    summary = copy.deepcopy(refs[item.key])
    assert check.blackwell_invariants(summary, facts) == []
    slack = 7 * summary["stderr"]
    for wrong in (facts["upper_1"] + slack, facts["lower_1"] - slack):
        summary["estimate"] = wrong
        assert check.blackwell_invariants(summary, facts)


def test_in_process_times_are_scaled_and_cli_times_are_not():
    import run

    ref = run.REFERENCE_CALIBRATION_MS
    assert run.scaled(100.0, 2 * ref) == 50.0
    assert run.scaled(100.0, None) == 100.0
    samples = [["a", 10.0, ref], ["a", 20.0, ref], ["a", 40.0, 2 * ref], ["b", 7.0, None]]
    assert run.input_times(samples) == {"a": 20.0, "b": 7.0}
