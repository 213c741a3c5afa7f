import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, bench_workloads, model_path
import lumpchain
from lumpchain import (
    AnalysisConfig,
    build_chain,
    build_lumping,
    check_strong_lumpable,
    check_weak_lumpable,
    export_dot,
    format_report,
    lumped_rate_bounds,
    parse_model,
    report_from_json,
    reverse_chain,
    run_analysis,
)
from lumpchain.cli import main, report_from_dict
from lumpchain.errors import HorizonTooLarge, KTooSmall, ParseError, ValidationError
from test_sfs_kernel import probe_instance


def assert_analysis_matches_standalone(chain, lumping):
    config = AnalysisConfig()
    report = run_analysis(chain, lumping, config)
    for k in config.k_range:
        assert report.strong[k] == check_strong_lumpable(chain, lumping, k).strong
        horizon = max(config.weak_horizon, k)
        assert report.weak[k] == \
            check_weak_lumpable(chain, lumping, k, horizon).weak_up_to_horizon
    assert report.bounds == tuple(lumped_rate_bounds(chain, lumping, n)
                                  for n in config.horizons)
    return report


def test_analysis_matches_standalone_checks(corpus_case):
    _, chain, lumping, _ = corpus_case
    assert_analysis_matches_standalone(chain, lumping)


def test_analysis_keeps_light_extensions_of_shallow_words():
    # d weighs about 5e-8 and stays in block B with probability 1e-8: the
    # word "B after start d" is lighter than MASS_EPS, yet the next-block law
    # given d differs from block B's, which a deep analysis must still see
    chain = build_chain([[0.0, 1 - 1e-7, 1e-7], [1.0, 0.0, 0.0], [1 - 1e-8, 0.0, 1e-8]],
                        ["a", "c", "d"], zero_threshold=0.0)
    lumping = build_lumping(chain, {"a": "A", "c": "B", "d": "B"})
    report = assert_analysis_matches_standalone(chain, lumping)
    assert not report.strong[1]


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_model_fixture():
    chain, lumping = parse_model(model_path("lossy_strong2"))
    assert chain.n == 4
    assert lumping.n_blocks == 2
    assert chain.transition[1, 2] == pytest.approx(0.1, abs=1e-15)


def test_parse_model_fractions_exact():
    chain, _ = parse_model(model_path("weak_not_strong"))
    assert chain.transition[3, 0] == 7 / 8


def test_parse_model_missing_state(tmp_path):
    path = write_model(tmp_path, {
        "states": ["u", "v", "w"],
        "transition_matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "lumping": {"u": "A", "v": "B"},
    })
    with pytest.raises(ValidationError):
        parse_model(path)


def test_parse_model_trivial_gate(tmp_path):
    payload = {
        "states": ["u", "v"],
        "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
        "lumping": {"u": "A", "v": "A"},
    }
    path = write_model(tmp_path, payload)
    with pytest.raises(ValidationError):
        parse_model(path)
    payload["options"] = {"allow_trivial_lumping": True}
    chain, lumping = parse_model(write_model(tmp_path, payload, "ok.json"))
    assert lumping.n_blocks == 1


def test_parse_model_bad_fraction(tmp_path):
    path = write_model(tmp_path, {
        "states": ["u", "v"],
        "transition_matrix": [["1/0", "1"], [1, 0]],
        "lumping": {"u": "A", "v": "B"},
    })
    with pytest.raises(ParseError):
        parse_model(path)


@pytest.mark.parametrize("field, value, named", (
    ("lumping", ["A", "A"], "lumping"),
    ("options", {"allow_trivial_lumping": "false"}, "allow_trivial_lumping"),
    ("options", {"allow_trivial_lumping": 1}, "allow_trivial_lumping"),
    ("options", {"exact_zero_mode": "true"}, "exact_zero_mode"),
    ("lumping", {"u": None, "v": "A"}, r"lumping\['u'\]"),
    ("lumping", {"u": "A", "v": False}, r"lumping\['v'\]"),
    ("lumping", {"u": ["A"], "v": "A"}, r"lumping\['u'\]"),
    ("lumping", {"u": "A", "v": {"b": "A"}}, r"lumping\['v'\]"),
    ("states", [None, "v"], r"states\[0\]"),
    ("states", ["u", True], r"states\[1\]"),
    ("states", [["u"], "v"], r"states\[0\]"),
    ("states", ["u", {"v": 1}], r"states\[1\]"),
))
def test_parse_model_checks_field_types(tmp_path, capsys, field, value, named):
    payload = {
        "states": ["u", "v"],
        "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
        "lumping": {"u": "A", "v": "A"},
        field: value,
    }
    path = write_model(tmp_path, payload)
    with pytest.raises(ParseError, match=named):
        parse_model(path)
    assert main(["kappa", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_parse_model_takes_number_labels_as_text(tmp_path):
    chain, lumping = parse_model(write_model(tmp_path, {
        "states": [0, 1.5, "c"],
        "transition_matrix": [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]],
        "lumping": {"0": 7, "1.5": 7, "c": 2.5},
    }))
    assert chain.states == ("0", "1.5", "c")
    assert lumping.map == {"0": "7", "1.5": "7", "c": "2.5"}
    # a decimal keeps the text it is written with, so a lumping key finds it
    for number in ("1e2", "1E2", "1.0", "100.0", "1.50", "-0.0", "2.5e-3"):
        path = tmp_path / f"label{number}.json"
        path.write_text(f'{{"states": [{number}, "b", "c"], '
                        f'"transition_matrix": [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]], '
                        f'"lumping": {{"{number}": {number}, "b": {number}, "c": 2}}}}')
        chain, lumping = parse_model(str(path))
        assert chain.states == (number, "b", "c")
        assert lumping.map == {number: number, "b": number, "c": "2"}


@pytest.mark.parametrize("entry", ("0.1", "1e-1", "1E-1", "0.10", "1.0e-1"))
def test_parse_model_reads_a_decimal_entry_as_its_double(tmp_path, entry):
    path = tmp_path / "model.json"
    path.write_text(f'{{"states": ["a", "b"], "transition_matrix": [[{entry}, 0.9], [0.5, 0.5]], '
                    f'"lumping": {{"a": "A", "b": "B"}}, '
                    f'"options": {{"allow_trivial_lumping": true}}}}')
    chain, _ = parse_model(str(path))
    assert chain.transition[0, 0] == 0.1 and chain.transition[0, 1] == 0.9


@pytest.mark.parametrize("where", ("matrix",))
def test_main_rejects_nan_model(tmp_path, capsys, where):
    payload = {
        "states": ["u", "v"],
        "transition_matrix": [[0.5, 0.5], [float("nan"), 0.5]],
        "lumping": {"u": "A", "v": "B"},
        "options": {"allow_trivial_lumping": True},
    }
    path = write_model(tmp_path, payload)  # json.dumps writes the NaN literal
    assert main(["kappa", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "non-finite" in err


@pytest.mark.parametrize("where, named", (("matrix", r"transition_matrix\[0\]\[1\]"),))
@pytest.mark.parametrize("value", ("1e400", 10 ** 400))
def test_main_rejects_an_entry_too_large_for_a_float(tmp_path, capsys, where, named, value):
    payload = {
        "states": ["u", "v"],
        "transition_matrix": [[0.5, value], [0.5, 0.5]],
        "lumping": {"u": "A", "v": "B"},
        "options": {"allow_trivial_lumping": True},
    }
    path = write_model(tmp_path, payload)
    with pytest.raises(ParseError, match=named):
        parse_model(path)
    assert main(["kappa", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "too large" in err


GOOD_MODEL = {
    "states": ["u", "v"],
    "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
    "lumping": {"u": "A", "v": "B"},
    "options": {"allow_trivial_lumping": True},
}


@pytest.mark.parametrize("text", (
    pytest.param("{", id="invalid-json"),
    pytest.param("[1, 2]", id="top-level-not-object"),
    *(pytest.param(json.dumps({**GOOD_MODEL, field: value}), id=name) for name, field, value in (
        ("states-empty", "states", []),
        ("states-not-list", "states", "uv"),
        ("matrix-not-list", "transition_matrix", 5),
        ("row-not-list", "transition_matrix", [[0.5, 0.5], 1]),
        ("entry-not-number", "transition_matrix", [[[0.5], 0.5], [0.5, 0.5]]),
        ("matrix-ragged", "transition_matrix", [[0.5, 0.5], [1.0]]),
        ("options-not-object", "options", [1]),
        ("lumping-not-object", "lumping", ["A", "B"]),
    )),
))
def test_bad_model_file_exits_with_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["kappa", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_parse_model_missing_field(tmp_path):
    path = write_model(tmp_path, {"states": ["u"], "lumping": {}})
    with pytest.raises(ParseError):
        parse_model(path)
    with pytest.raises(ParseError):
        parse_model(str(tmp_path / "nope.json"))


def test_parse_model_exact_zero_mode(tmp_path):
    payload = {
        "states": ["u", "v"],
        "transition_matrix": [[1e-16, 1.0], [1.0, 1e-16]],
        "lumping": {"u": "A", "v": "B"},
        "options": {"allow_trivial_lumping": True},
    }
    chain, _ = parse_model(write_model(tmp_path, payload))
    assert chain.transition[0, 0] == 0.0
    payload["options"]["exact_zero_mode"] = True
    chain, _ = parse_model(write_model(tmp_path, payload, "exact.json"))
    assert chain.transition[0, 0] > 0.0


def test_run_analysis_lossy_strong2():
    chain, lumping = parse_model(model_path("lossy_strong2"))
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1, 2), k_range=(1, 2)))
    assert report.kappa == 1
    assert report.strong[2] and not report.strong[1]
    assert report.chain_rate == pytest.approx(1.480, abs=1e-3)
    assert report.loss_bound is not None


def test_run_analysis_weak_model():
    chain, lumping = parse_model(model_path("weak_not_strong"))
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1,), k_range=(1,)))
    assert report.weak[1].verdict and report.weak[1].horizon == 6
    assert not report.strong[1]
    assert report.bounds[0].lower == pytest.approx(0.5588, abs=1e-4)
    assert report.bounds[0].upper == pytest.approx(0.9061, abs=1e-4)


def test_run_analysis_identity_override():
    chain, lumping = parse_model(model_path("identity_blocks"))
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1, 2), k_range=(1,)))
    assert math.isinf(report.kappa)
    assert report.loss_bound is None
    for b in report.bounds:
        assert b.lower == pytest.approx(report.chain_rate, abs=1e-10)
        assert b.upper == pytest.approx(report.chain_rate, abs=1e-10)


def test_report_consistency(corpus_case):
    _, chain, lumping, _ = corpus_case
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1, 2), k_range=(1, 2)))
    assert (report.loss_bound is not None) == math.isfinite(report.kappa)
    for k, strong in report.strong.items():
        if strong:
            assert report.weak[k].verdict


def test_report_json_round_trip(corpus_case):
    _, chain, lumping, _ = corpus_case
    config = AnalysisConfig(horizons=(1, 2), k_range=(1, 2),
                            blackwell_steps=500, blackwell_seed=7)
    report = run_analysis(chain, lumping, config)
    text = format_report(report, "json")
    assert report_from_json(text) == report
    payload = json.loads(text)
    assert payload["schema_version"] == "1"
    assert isinstance(payload["kappa"], (int, str))


@pytest.mark.parametrize("steps, error", [(2 ** 62, HorizonTooLarge), (10, ValidationError)],
                         ids=["unaddressable", "too-few-batches"])
def test_run_analysis_refuses_a_bad_estimator_call_before_the_pair_search(
        monkeypatch, steps, error):
    # the refusal depends on the arguments alone, so no exact analysis runs first
    item = bench_workloads().make_items("pairs", 0, MODELS_DIR.parent)[2]
    assert item.key == "02-sparse-n300-b4"
    chain = build_chain(item.matrix, item.states)
    lumping = build_lumping(chain, item.assignment)
    calls = []
    pair_levels = lumpchain.lumping._pair_levels
    monkeypatch.setattr(lumpchain.lumping, "_pair_levels",
                        lambda *a: calls.append(a) or pair_levels(*a))
    with pytest.raises(error):
        run_analysis(chain, lumping, AnalysisConfig(blackwell_steps=steps, blackwell_seed=0))
    assert calls == []


BAD_ORDER_OR_HORIZON = [
    (dict(horizons=(0,)), ["--horizons", "0"], ValidationError, "n must be >= 1"),
    (dict(k_range=(0,)), ["--k-range", "0"], KTooSmall,
     "strong lumpability order must be >= 1"),
    (dict(weak_horizon=0), ["--weak-horizon", "0"], ValidationError, "weak horizon must be >= 1"),
    (dict(weak_horizon=-3), ["--weak-horizon", "-3"], ValidationError,
     "weak horizon must be >= 1"),
    (dict(tol=math.nan), ["--tol", "nan"], ValidationError, "tol must be finite and >= 0, got nan"),
    (dict(tol=-1.0), ["--tol", "-1"], ValidationError, "tol must be finite and >= 0, got -1.0"),
]


@pytest.mark.parametrize("fields, flags, error, message", BAD_ORDER_OR_HORIZON,
                         ids=["horizon", "order", "weak-horizon-0", "weak-horizon-negative",
                              "tol-nan", "tol-negative"])
def test_run_analysis_refuses_a_bad_order_or_horizon_before_any_work(
        monkeypatch, capsys, fields, flags, error, message):
    # the refusal depends on the arguments alone, so neither the estimate nor
    # the pair search runs first; the CLI reports it as the callees did
    def never(*args, **kwargs):
        raise AssertionError("ran before the refusal")

    monkeypatch.setattr(lumpchain.entropy, "blackwell_entropy_estimate", never)
    monkeypatch.setattr(lumpchain.lumping, "_pair_levels", never)
    chain, lumping = parse_model(model_path("lossy_strong2"))
    config = AnalysisConfig(blackwell_steps=200000, blackwell_seed=0, **fields)
    with pytest.raises(error) as info:
        run_analysis(chain, lumping, config)
    assert str(info.value) == message
    code = main(["analyze", model_path("lossy_strong2"), "--blackwell-steps", "200000",
                 "--seed", "0", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_report_kappa_infinity_sentinel():
    chain, lumping = parse_model(model_path("unique_entry"))
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1,), k_range=(1,)))
    payload = json.loads(format_report(report, "json"))
    assert payload["kappa"] == "infinity"
    assert report_from_dict(payload).kappa == math.inf


def test_report_human_horizon_caveat():
    chain, lumping = parse_model(model_path("weak_not_strong"))
    report = run_analysis(chain, lumping, AnalysisConfig(horizons=(1,), k_range=(1,)))
    text = format_report(report, "human")
    assert "up to horizon 6" in text
    assert "bits/step" in text


def test_export_dot_small_chain():
    chain, lumping = parse_model(model_path("identity_blocks"))
    dot = export_dot(chain, lumping)
    assert dot.count("subgraph cluster_") == 2
    assert dot.count(" -> ") <= 4


def test_export_dot_unique_entry_counts():
    chain, lumping = parse_model(model_path("unique_entry"))
    dot = export_dot(chain, lumping)
    assert dot.count("subgraph cluster_") == 3
    assert dot.count(" -> ") == 13
    for s in chain.states:
        assert f'"{s}";' in dot


def test_export_dot_skips_zero_edges():
    chain, lumping = parse_model(model_path("merge_hub"))
    dot = export_dot(chain, lumping)
    assert '"1" -> "1"' not in dot
    assert '"3" -> "1"' in dot


def test_export_dot_escapes_backslash_before_quote():
    chain = build_chain([[0.0, 1.0], [1.0, 0.0]], ["a\\", 'b"'])
    lumping = build_lumping(chain, {"a\\": "A", 'b"': "B"}, allow_trivial=True)
    dot = export_dot(chain, lumping)
    assert '    "a\\\\";' in dot
    assert '    "b\\"";' in dot
    assert '  "a\\\\" -> "b\\"" [label="1"];' in dot


def test_export_dot_byte_stable():
    chain, lumping = parse_model(model_path("tagged_branches"))
    assert export_dot(chain, lumping) == export_dot(chain, lumping)


def test_main_analyze_json(capsys):
    code = main(["analyze", model_path("lossy_strong2"), "--format", "json",
                 "--horizons", "1", "2", "--k-range", "1", "2"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["kappa"] == 1
    assert payload["strong"]["2"] is True


def test_main_runs_are_bit_identical(capsys):
    argv = ["analyze", model_path("weak_not_strong"), "--format", "json",
            "--blackwell-steps", "1000", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_main_bit_identical_across_corpus(corpus_case, capsys):
    name, _, _, _ = corpus_case
    argv = ["analyze", model_path(name), "--format", "json",
            "--horizons", "1", "2", "--k-range", "1", "--weak-horizon", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_model_file_initial_key_is_ignored(tmp_path, capsys):
    raw = json.loads(pathlib.Path(model_path("lossy_strong2")).read_text(encoding="utf-8"))
    assert "initial" not in raw
    argv = ["analyze", "--format", "json"]
    assert main([*argv, write_model(tmp_path, raw, "plain.json")]) == 0
    plain = capsys.readouterr().out
    start = [1.0] + [0.0] * (len(raw["states"]) - 1)  # not the stationary law
    for initial in (None, start):
        assert main([*argv, write_model(tmp_path, {**raw, "initial": initial})]) == 0
        assert capsys.readouterr().out == plain


def test_check_sfs_answers_k4_on_40_states(tmp_path, capsys):
    chain, lumping = probe_instance()
    path = write_model(tmp_path, {
        "states": list(chain.states),
        "transition_matrix": chain.transition.tolist(),
        "lumping": lumping.map})
    assert main(["check-sfs", path, "--k", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4 and payload["holds"] is False
    assert len(payload["violation"]["block_word"]) == 3


def test_main_answers_five_blocks_and_horizon_13(tmp_path, capsys):
    matrix, blocks = oracles.random_sparse_chain(np.random.default_rng(14), 8, 5)
    states = [f"s{i}" for i in range(8)]
    path = write_model(tmp_path, {
        "states": states, "transition_matrix": matrix,
        "lumping": {s: f"B{b}" for s, b in zip(states, blocks)}})
    chain, lumping = parse_model(path)
    assert lumping.n_blocks == 5
    report = run_analysis(chain, lumping)
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == format_report(report)
    assert main(["analyze", path, "--format", "json"]) == 0
    assert report_from_json(capsys.readouterr().out) == report

    assert main(["bounds", model_path("lossy_strong2"), "--n", "13", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    b = lumped_rate_bounds(*parse_model(model_path("lossy_strong2")), 13)
    assert (payload["horizon"], payload["lower"], payload["upper"]) == (13, b.lower, b.upper)


def test_main_kappa_and_checks(capsys):
    assert main(["kappa", model_path("merge_hub"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == 1
    assert payload["witness"]["path_a"] == ["1"]

    assert main(["check-se", model_path("parallel_cycle"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True

    assert main(["check-sfs", model_path("unique_entry"), "--k", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True

    assert main(["check-strong", model_path("lossy_strong2"), "--k", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["strong"] is True

    assert main(["check-weak", model_path("weak_not_strong"), "--k", "1",
                 "--horizon", "6"]) == 0
    assert "up to horizon 6" in capsys.readouterr().out

    assert main(["bounds", model_path("lossy_strong2"), "--n", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loss_lower"] == pytest.approx(0.747, abs=2e-3)

    assert main(["loss-bound", model_path("unique_entry"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["loss_bound"] is None

    assert main(["blackwell", model_path("lossy_strong2"), "--steps", "2000",
                 "--seed", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["estimate"] < 2.0

    assert main(["simulate", model_path("lossy_strong2"), "--length", "100",
                 "--seeds", "0", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checkpoints"][0]["n"] == 10


def test_python_dash_m_entry_point(capsys):
    src = str(pathlib.Path(lumpchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lumpchain", "kappa",
                           model_path("merge_hub")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert main(["kappa", model_path("merge_hub")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert "split-merge index: 1" in proc.stdout


def test_main_reverse_round_trips(tmp_path, capsys):
    assert main(["reverse", model_path("weak_not_strong")]) == 0
    payload = json.loads(capsys.readouterr().out)
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(payload))
    assert main(["reverse", str(path)]) == 0
    back = json.loads(capsys.readouterr().out)
    original, _ = parse_model(model_path("weak_not_strong"))
    for i, row in enumerate(back["transition_matrix"]):
        for j, v in enumerate(row):
            assert v == pytest.approx(original.transition[i, j], abs=1e-12)


def test_main_exit_codes(tmp_path, capsys):
    assert main(["kappa", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    bad = tmp_path / "trivial.json"
    bad.write_text(json.dumps({
        "states": ["u", "v"],
        "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
        "lumping": {"u": "A", "v": "A"},
    }))
    assert main(["kappa", str(bad)]) == 1
    capsys.readouterr()
    assert main(["kappa", str(bad), "--allow-trivial-lumping"]) == 0
    capsys.readouterr()

    assert main(["bounds", model_path("lossy_strong2"), "--n", "50"]) == 2
    err = capsys.readouterr().err
    assert "analysis error" in err

    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps({
        "states": ["u", "v", "w"],
        "transition_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "lumping": {"u": "A", "v": "A", "w": "B"},
    }))
    assert main(["bounds", str(reducible), "--n", "1"]) == 2


@pytest.mark.parametrize("argv", (
    ["blackwell", "--steps", "50", "--seed", "0"],
    ["blackwell", "--steps", "10", "--burn-in", "10", "--seed", "0"],
    ["bounds", "--n", "0"],
    ["check-weak", "--k", "2", "--horizon", "1"],
    ["simulate", "--length", "0", "--seeds", "0"],
    ["check-strong", "--k", "1", "--tol", "nan"],
    ["check-strong", "--k", "1", "--tol", "inf"],
    ["check-strong", "--k", "2", "--tol", "-1"],
    ["check-weak", "--k", "1", "--horizon", "2", "--tol", "nan"],
    ["check-weak", "--k", "1", "--horizon", "2", "--tol=-inf"],
    ["analyze", "--tol", "nan"],
    ["analyze", "--blackwell-steps", "600"],
    ["analyze", "--seed", "3"],
    ["analyze", "--blackwell-burn-in", "10"],
    ["analyze", "--seed", "3", "--blackwell-burn-in", "10"],
    ["check-strong", "--k", "0"],
    ["check-weak", "--k", "0", "--horizon", "1"],
    ["simulate", "--length", "50", "--seeds", "-1"],
    ["simulate", "--length", "50", "--seeds", "2", "-3"],
    ["blackwell", "--steps", "200", "--seed", "-1"],
    ["analyze", "--blackwell-steps", "200", "--seed", "-2"],
    ["simulate", "--length", "5", "--seeds", "0", "1"],
), ids=("blackwell-too-few-steps", "blackwell-burn-in-eats-all", "bounds-n0",
        "check-weak-horizon-below-k", "simulate-length0", "check-strong-tol-nan",
        "check-strong-tol-inf", "check-strong-tol-negative", "check-weak-tol-nan",
        "check-weak-tol-minus-inf", "analyze-tol-nan", "analyze-steps-without-seed",
        "analyze-seed-without-steps", "analyze-burn-in-without-steps",
        "analyze-seed-and-burn-in-without-steps", "check-strong-k0", "check-weak-k0",
        "simulate-negative-seed", "simulate-one-negative-seed", "blackwell-negative-seed",
        "analyze-negative-seed", "simulate-length-below-checkpoints"))
def test_bad_arguments_exit_with_one_error_line(argv, capsys):
    assert main([argv[0], model_path("lossy_strong2"), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


HUGE = str(2 ** 62)  # float64 uniforms past what numpy can address in one array


@pytest.mark.parametrize("argv", (
    ["blackwell", "--steps", HUGE, "--seed", "0"],
    ["simulate", "--length", HUGE, "--seeds", "0"],
    ["analyze", "--blackwell-steps", HUGE, "--seed", "0"],
), ids=("blackwell", "simulate", "analyze"))
def test_a_draw_numpy_cannot_address_exits_with_one_analysis_error_line(argv, capsys):
    assert main([argv[0], model_path("merge_hub"), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("analysis error: ")


def test_reverse_keeps_an_edge_below_the_zero_threshold(tmp_path, capsys):
    model = tmp_path / "faint_edge.json"
    model.write_text(json.dumps({
        "states": ["a", "b", "c"],
        "transition_matrix": [[0, 0.5, 0.5], [1e-16, 0.5, 0.4999999999999999],
                              [0.5, 0.5, 0]],
        "lumping": {"a": "A", "b": "A", "c": "B"},
        "options": {"exact_zero_mode": True},
    }))
    assert main(["reverse", str(model)]) == 0
    reversed_model = tmp_path / "reversed.json"
    reversed_model.write_text(capsys.readouterr().out)
    chain, _ = parse_model(str(model))
    back, _ = parse_model(str(reversed_model))
    assert back.adjacency.tolist() == reverse_chain(chain).adjacency.tolist()
    assert not back.adjacency[0, 0] and back.adjacency[0, 1]


def test_a_certain_next_block_prints_zero_not_negative_zero(tmp_path, capsys):
    # on the 3-cycle a -> b -> c -> a, two blocks fix the next block exactly
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({
        "states": ["a", "b", "c"],
        "transition_matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "lumping": {"a": "A", "b": "A", "c": "B"},
    }))
    for args in (["bounds", "--n", "2"], ["check-weak", "--k", "1", "--horizon", "2"],
                 ["analyze"]):
        for fmt in ("human", "json"):
            assert main([args[0], str(cycle), *args[1:], "--format", fmt]) == 0
            assert "-0.0" not in capsys.readouterr().out
    bounds = lumped_rate_bounds(*parse_model(str(cycle)), 2)
    assert math.copysign(1.0, bounds.lower) == math.copysign(1.0, bounds.upper) == 1.0


MODEL_NAMES = sorted(p.stem for p in MODELS_DIR.glob("*.json"))

ARGUMENT_SETS = (
    ["analyze"],
    ["analyze", "--blackwell-steps", "600", "--seed", "3"],
    ["kappa"],
    ["check-se"],
    ["check-sfs", "--k", "2"],
    ["check-sfs", "--k", "3"],
    ["check-strong", "--k", "1"],
    ["check-strong", "--k", "2"],
    ["check-weak", "--k", "1", "--horizon", "4"],
    ["check-weak", "--k", "2", "--horizon", "5"],
    ["bounds", "--n", "3"],
    ["loss-bound"],
    ["blackwell", "--steps", "800", "--seed", "1"],
    ["simulate", "--length", "120", "--seeds", "0", "2"],
    ["export-dot"],
    ["reverse"],
)


# export-dot and reverse write DOT and model JSON, so they take no --format
PLAIN_OUTPUT = ("export-dot", "reverse")
# the weak and strong checks are the only probability comparisons
TOL_READERS = ("analyze", "check-strong", "check-weak")


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("args", ARGUMENT_SETS, ids=lambda a: "-".join(a[:3]))
def test_main_output_is_byte_identical_to_hand_written_payloads(name, args):
    formats = [()] if args[0] in PLAIN_OUTPUT else [("--format", f) for f in ("human", "json")]
    for fmt in formats:
        argv = [args[0], model_path(name), *args[1:], *fmt, "--allow-trivial-lumping"]
        assert oracles.capture_cli(main, argv) == oracles.cli_output_v1(argv), fmt


FIRST_ARGUMENT_SET = {args[0]: args for args in reversed(ARGUMENT_SETS)}


@pytest.mark.parametrize("command", sorted(FIRST_ARGUMENT_SET))
def test_each_subcommand_takes_only_the_flags_it_reads(command, capsys):
    assert len(FIRST_ARGUMENT_SET) == 12
    argv = [command, model_path("lossy_strong2"), *FIRST_ARGUMENT_SET[command][1:]]
    for flag, value, takes in (("--tol", "1e-3", command in TOL_READERS),
                               ("--format", "json", command not in PLAIN_OUTPUT)):
        if takes:
            assert main([*argv, flag, value]) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
