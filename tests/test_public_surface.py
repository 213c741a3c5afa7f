"""The documented surface: the README's library example and the package's
exported names."""

import ast
import json
import pathlib
import re

import lumpchain

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    # submodules
    "chain", "cli", "entropy", "errors", "lumping", "simulate",
    # chain
    "ConnectivityReport", "MarkovChain", "build_chain", "reverse_chain",
    # cli
    "AnalysisConfig", "AnalysisReport", "export_dot", "format_report", "parse_model",
    "report_from_json", "run_analysis",
    # entropy
    "BlackwellEstimate", "EntropyBounds", "LossInterval", "blackwell_entropy_estimate",
    "block_entropy", "chain_entropy_rate", "conditional_entropy_rate_estimate",
    "lumped_block_entropy", "lumped_rate_bounds",
    # lumping
    "LossBound", "Lumping", "LumpabilityCounterexample", "LumpabilityVerdict", "SfsResult",
    "SingleEntryResult", "SplitMergeResult", "SplitMergeWitness", "WeakHorizonVerdict",
    "build_lumping", "check_sfs", "check_single_entry", "check_strong_lumpable",
    "check_weak_lumpable", "entropy_loss_bound", "identity_lumping", "pair_depth_cap",
    "preimage_count", "split_merge_index",
    # simulate
    "GrowthCheckpoint", "OccurrenceRateCheck", "Trajectory", "empirical_growth",
    "occurrence_rate_check", "sample_trajectory",
}


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_package_exports_exactly_the_public_names():
    assert set(lumpchain.__all__) == PUBLIC_NAMES


def test_readme_library_use_runs_as_written_with_its_commented_values():
    block = readme_block("## Library use", "python")
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append((ast.get_source_segment(block, node), eval(code, namespace)))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert [src for src, _ in values] == [
        "lc.chain_entropy_rate(chain)",
        "lc.lumped_rate_bounds(chain, lump, 2)",
        "lc.check_strong_lumpable(chain, lump, 2).strong",
        "lc.split_merge_index(chain, lump).kappa",
        "lc.entropy_loss_bound(chain, lump).rate_lower_bound",
    ]
    rate, bounds, strong, kappa, loss = (value for _, value in values)
    assert "# 1.4798 bits/step" in block and f"{rate:.4f}" == "1.4798"
    assert "# lower = upper = 0.7329" in block
    assert f"{bounds.lower:.4f}" == f"{bounds.upper:.4f}" == "0.7329"
    assert "# True" in block and strong is True
    assert "# 1: the two merged states" in block and kappa == 1
    assert "# certified loss > 0" in block and loss > 0


def test_readme_model_file_example_loads_and_analyzes(tmp_path, capsys):
    example = readme_block("## Model files", "json")
    raw = json.loads(example)
    # every key the example shows is one the parser reads
    assert set(raw) == {"states", "transition_matrix", "lumping", "options"}
    assert set(raw["options"]) == {"allow_trivial_lumping", "exact_zero_mode"}
    path = tmp_path / "model.json"
    path.write_text(example, encoding="utf-8")
    chain, lumping = lumpchain.parse_model(str(path))
    assert chain.states == ("1", "2", "3") and lumping.n_blocks == 2
    assert chain.transition[2].tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert lumpchain.cli.main(["analyze", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 1
