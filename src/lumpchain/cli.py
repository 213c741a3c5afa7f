"""Command line front end: model files, analysis reports, DOT export.

Model files are UTF-8 JSON with states, a row-major transition matrix,
a state-to-block lumping map, an optional initial vector and an options
object. Probabilities may be JSON numbers or exact fraction strings such as
"5/6"; fractions avoid decimal rounding before validation.

Report JSON is schema-stable and round-trips through :func:`report_from_json`.
Infinite split-merge indices serialise as the string "infinity" because JSON
has no infinity literal. Exit codes: 0 success, 1 validation error, 2
analysis error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import entropy as ent
from . import lumping as lp
from . import simulate as sim
from .chain import MarkovChain, build_chain, reverse_chain
from .errors import LumpchainError, ParseError, ValidationError

SCHEMA_VERSION = "1"

_WEAK_CAVEAT = "no claim beyond the horizon"


# ---------------------------------------------------------------------------
# model files


def _coerce_probability(value, where: str) -> float:
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad fraction {value!r} ({exc})") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ParseError(f"{where}: expected number or 'p/q' string, got {value!r}")


def parse_model(path: str, allow_trivial: bool | None = None) -> tuple[MarkovChain, lp.Lumping]:
    """Load and validate a model file into a chain and lumping pair."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("states", "transition_matrix", "lumping"):
        if key not in raw:
            raise ParseError(f"{path}: missing field {key!r}")
    states = raw["states"]
    if not isinstance(states, list) or not states:
        raise ParseError(f"{path}: 'states' must be a nonempty list")
    states = [str(s) for s in states]
    matrix_raw = raw["transition_matrix"]
    if not isinstance(matrix_raw, list):
        raise ParseError(f"{path}: 'transition_matrix' must be a list of rows")
    matrix = []
    for i, row in enumerate(matrix_raw):
        if not isinstance(row, list):
            raise ParseError(f"{path}: transition_matrix[{i}] must be a list")
        matrix.append([_coerce_probability(v, f"transition_matrix[{i}][{j}]")
                       for j, v in enumerate(row)])
    initial = raw.get("initial")
    if initial is not None:
        initial = [_coerce_probability(v, f"initial[{i}]") for i, v in enumerate(initial)]
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ParseError(f"{path}: 'options' must be an object")
    exact_zero = bool(options.get("exact_zero_mode", False))
    if allow_trivial is None:
        allow_trivial = bool(options.get("allow_trivial_lumping", False))
    lump_map = raw["lumping"]
    if not isinstance(lump_map, dict):
        raise ParseError(f"{path}: 'lumping' must be an object mapping state to block")

    chain = build_chain(matrix, states, initial,
                        zero_threshold=0.0 if exact_zero else 1e-15)
    lumping = lp.build_lumping(chain, {str(k): str(v) for k, v in lump_map.items()},
                               allow_trivial=allow_trivial)
    return chain, lumping


def chain_to_model_dict(chain: MarkovChain, lumping: lp.Lumping) -> dict:
    """Model-file representation of a chain and lumping (decimal entries)."""
    return {
        "states": list(chain.states),
        "transition_matrix": [[float(v) for v in row] for row in chain.transition],
        "lumping": lumping.map,
        "options": {"allow_trivial_lumping": not 2 <= lumping.n_blocks < chain.n},
    }


# ---------------------------------------------------------------------------
# analysis report


@dataclass(frozen=True)
class AnalysisConfig:
    horizons: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    k_range: tuple[int, ...] = (1, 2)
    weak_horizon: int = 6
    tol: float = lp.DEFAULT_PROB_TOL
    blackwell_steps: int | None = None
    blackwell_burn_in: int | None = None
    blackwell_seed: int | None = None
    max_horizon: int = ent.DEFAULT_MAX_HORIZON
    max_blocks: int = ent.DEFAULT_MAX_BLOCKS


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated verdicts for one model, stable under re-runs."""

    kappa: float
    se: bool
    sfs: dict[int, bool]
    strong: dict[int, bool]
    weak: dict[int, lp.WeakHorizonVerdict]
    chain_rate: float
    bounds: tuple[ent.EntropyBounds, ...]
    loss_bound: lp.LossBound | None
    blackwell: ent.BlackwellEstimate | None = None


def run_analysis(chain: MarkovChain, lumping: lp.Lumping,
                 config: AnalysisConfig = AnalysisConfig()) -> AnalysisReport:
    """Run the full verdict battery; deterministic for a fixed config."""
    smi = lp.split_merge_index(chain, lumping)
    se = lp.check_single_entry(chain, lumping)
    sfs = {k: lp.check_sfs(chain, lumping, k).holds
           for k in config.k_range if k >= 2}
    # one upper and one lower pass, as deep as the checks below need, serve them all
    lower = max((*config.horizons, *config.k_range), default=0)
    upper = max(lower, config.weak_horizon) if config.k_range else lower
    with ent.lattice(chain, lumping, upper, lower, config.max_horizon, config.max_blocks):
        strong = {k: lp.check_strong_lumpable(
                      chain, lumping, k, config.tol,
                      config.max_horizon, config.max_blocks).strong
                  for k in config.k_range}
        weak = {k: lp.check_weak_lumpable(
                    chain, lumping, k, max(config.weak_horizon, k), config.tol,
                    config.max_horizon, config.max_blocks).weak_up_to_horizon
                for k in config.k_range}
        bounds = tuple(ent.lumped_rate_bounds(chain, lumping, n,
                                              config.max_horizon, config.max_blocks)
                       for n in config.horizons)
    blackwell = None
    if config.blackwell_steps is not None and config.blackwell_seed is not None:
        blackwell = ent.blackwell_entropy_estimate(
            chain, lumping, config.blackwell_steps,
            config.blackwell_burn_in, config.blackwell_seed)
    return AnalysisReport(
        kappa=smi.kappa,
        se=se.holds,
        sfs=sfs,
        strong=strong,
        weak=weak,
        chain_rate=ent.chain_entropy_rate(chain),
        bounds=bounds,
        loss_bound=lp.entropy_loss_bound(chain, lumping),
        blackwell=blackwell)


def _kappa_to_json(kappa: float):
    return "infinity" if math.isinf(kappa) else int(kappa)


def _kappa_from_json(value) -> float:
    return math.inf if value == "infinity" else float(int(value))


def _witness_to_dict(w: lp.SplitMergeWitness) -> dict:
    return {"kappa": w.kappa, "check_state": w.check_state, "hat_state": w.hat_state,
            "lumped_word": list(w.lumped_word),
            "path_a": list(w.path_a), "path_b": list(w.path_b)}


def _witness_from_dict(d: dict) -> lp.SplitMergeWitness:
    return lp.SplitMergeWitness(kappa=int(d["kappa"]), check_state=d["check_state"],
                                hat_state=d["hat_state"],
                                lumped_word=tuple(d["lumped_word"]),
                                path_a=tuple(d["path_a"]), path_b=tuple(d["path_b"]))


def _loss_to_dict(b: lp.LossBound) -> dict:
    return {"witness": _witness_to_dict(b.witness), "loss_entropy": b.loss_entropy,
            "alpha": b.alpha, "rate_lower_bound": b.rate_lower_bound,
            "growth_constant": b.growth_constant}


def _loss_from_dict(d: dict) -> lp.LossBound:
    return lp.LossBound(witness=_witness_from_dict(d["witness"]),
                        loss_entropy=d["loss_entropy"], alpha=d["alpha"],
                        rate_lower_bound=d["rate_lower_bound"],
                        growth_constant=d["growth_constant"])


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kappa": _kappa_to_json(report.kappa),
        "se": report.se,
        "sfs": {str(k): v for k, v in report.sfs.items()},
        "strong": {str(k): v for k, v in report.strong.items()},
        "weak": {str(k): {"verdict": v.verdict, "horizon": v.horizon}
                 for k, v in report.weak.items()},
        "chain_rate": report.chain_rate,
        "bounds": [{"horizon": b.horizon, "lower": b.lower, "upper": b.upper}
                   for b in report.bounds],
        "loss_bound": None if report.loss_bound is None else _loss_to_dict(report.loss_bound),
        "blackwell": None if report.blackwell is None else {
            "estimate": report.blackwell.estimate,
            "stderr": report.blackwell.stderr,
            "caveat": report.blackwell.caveat},
    }


def report_from_dict(d: dict) -> AnalysisReport:
    return AnalysisReport(
        kappa=_kappa_from_json(d["kappa"]),
        se=d["se"],
        sfs={int(k): v for k, v in d["sfs"].items()},
        strong={int(k): v for k, v in d["strong"].items()},
        weak={int(k): lp.WeakHorizonVerdict(verdict=v["verdict"], horizon=v["horizon"])
              for k, v in d["weak"].items()},
        chain_rate=d["chain_rate"],
        bounds=tuple(ent.EntropyBounds(horizon=b["horizon"], lower=b["lower"],
                                       upper=b["upper"]) for b in d["bounds"]),
        loss_bound=None if d["loss_bound"] is None else _loss_from_dict(d["loss_bound"]),
        blackwell=None if d["blackwell"] is None else ent.BlackwellEstimate(
            estimate=d["blackwell"]["estimate"], stderr=d["blackwell"]["stderr"],
            caveat=d["blackwell"]["caveat"]))


def report_from_json(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def format_report(report: AnalysisReport, format: str = "human") -> str:
    """Render a report. JSON mode round-trips; human mode spells out the
    horizon qualification of weak verdicts."""
    if format == "json":
        return _dump_json(report_to_dict(report))
    lines = []
    kappa = "infinity" if math.isinf(report.kappa) else str(int(report.kappa))
    lines.append(f"split-merge index: {kappa}")
    lines.append(f"single entry: {'yes' if report.se else 'no'}")
    for k in sorted(report.sfs):
        lines.append(f"single forward {k}-sequence: {'yes' if report.sfs[k] else 'no'}")
    for k in sorted(report.strong):
        lines.append(f"strongly {k}-lumpable: {'yes' if report.strong[k] else 'no'}")
    for k in sorted(report.weak):
        v = report.weak[k]
        word = "yes" if v.verdict else "no"
        lines.append(f"weakly {k}-lumpable: {word} up to horizon {v.horizon} "
                     f"({_WEAK_CAVEAT})")
    lines.append(f"chain entropy rate: {report.chain_rate:.6f} bits/step")
    for b in report.bounds:
        lines.append(f"lumped rate bounds n={b.horizon}: "
                     f"[{b.lower:.6f}, {b.upper:.6f}] bits/step")
    if report.loss_bound is None:
        lines.append("entropy loss bound: none (no split-merge witness)")
    else:
        lb = report.loss_bound
        lines.append(f"entropy loss bound: {lb.rate_lower_bound:.6g} bits/step "
                     f"(window entropy {lb.loss_entropy:.6g}, alpha {lb.alpha:.6g}, "
                     f"growth constant {lb.growth_constant:.6g})")
        w = lb.witness
        lines.append(f"  witness: {w.check_state} > {'-'.join(w.path_a)} > {w.hat_state}"
                     f"  vs  {w.check_state} > {'-'.join(w.path_b)} > {w.hat_state}"
                     f"  over blocks {'-'.join(w.lumped_word)}")
    if report.blackwell is not None:
        bw = report.blackwell
        lines.append(f"blackwell estimate: {bw.estimate:.6f} +/- {bw.stderr:.6f} "
                     f"bits/step ({bw.caveat})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def export_dot(chain: MarkovChain, lumping: lp.Lumping) -> str:
    """Transition graph as Graphviz DOT, one cluster per block.

    Output is byte-stable for a fixed model: blocks in lumping order, states
    in chain order, edges row-major, probabilities with six significant
    digits. Zero entries produce no edge.
    """
    lines = ["digraph lumped_chain {", "  rankdir=LR;"]
    for b, label in enumerate(lumping.blocks):
        lines.append(f"  subgraph cluster_{b} {{")
        lines.append(f"    label={_quote(label)};")
        for i in lumping.member_indices[b]:
            lines.append(f"    {_quote(chain.states[i])};")
        lines.append("  }")
    P = chain.transition
    for i in range(chain.n):
        for j in range(chain.n):
            if P[i, j] > 0:
                lines.append(f"  {_quote(chain.states[i])} -> {_quote(chain.states[j])}"
                             f" [label=\"{P[i, j]:.6g}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", help="path to a model JSON file")
    common.add_argument("--format", choices=("human", "json"), default="human")
    common.add_argument("--tol", type=float, default=lp.DEFAULT_PROB_TOL,
                        help="absolute tolerance for probability comparisons")
    common.add_argument("--allow-trivial-lumping", action="store_true",
                        help="accept degenerate lumpings (one block or injective)")

    parser = argparse.ArgumentParser(
        prog="lumpchain",
        description="Entropy rate preservation and lumpability analysis of "
                    "finite Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full verdict battery")
    p.add_argument("--horizons", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    p.add_argument("--k-range", type=int, nargs="+", default=[1, 2])
    p.add_argument("--weak-horizon", type=int, default=6)
    p.add_argument("--blackwell-steps", type=int, default=None)
    p.add_argument("--blackwell-burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    sub.add_parser("kappa", parents=[common], help="split-merge index and witness")
    sub.add_parser("check-se", parents=[common], help="single entry property")

    p = sub.add_parser("check-sfs", parents=[common], help="single forward k-sequence")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-strong", parents=[common], help="strong k-lumpability")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-weak", parents=[common],
                       help="weak k-lumpability up to a horizon")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)

    p = sub.add_parser("bounds", parents=[common], help="rate bounds at a horizon")
    p.add_argument("--n", type=int, required=True)

    sub.add_parser("loss-bound", parents=[common], help="certified entropy loss bound")

    p = sub.add_parser("blackwell", parents=[common], help="belief-chain rate estimate")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None)

    p = sub.add_parser("simulate", parents=[common],
                       help="empirical preimage-count growth")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)

    sub.add_parser("export-dot", parents=[common], help="Graphviz DOT text")
    sub.add_parser("reverse", parents=[common], help="time-reversed model JSON")
    return parser


def _emit(args, human: str, payload) -> None:
    if args.format == "json":
        print(_dump_json(payload))
    else:
        sys.stdout.write(human)


def _cmd(args) -> None:
    chain, lumping = parse_model(
        args.model, allow_trivial=True if args.allow_trivial_lumping else None)

    if args.command == "analyze":
        config = AnalysisConfig(
            horizons=tuple(args.horizons), k_range=tuple(args.k_range),
            weak_horizon=args.weak_horizon, tol=args.tol,
            blackwell_steps=args.blackwell_steps,
            blackwell_burn_in=args.blackwell_burn_in,
            blackwell_seed=args.seed)
        report = run_analysis(chain, lumping, config)
        sys.stdout.write(format_report(report, args.format)
                         if args.format == "human"
                         else format_report(report, "json") + "\n")
    elif args.command == "kappa":
        res = lp.split_merge_index(chain, lumping)
        kappa = "infinity" if math.isinf(res.kappa) else int(res.kappa)
        human = f"split-merge index: {kappa}\n"
        if res.witness is not None:
            w = res.witness
            human += (f"witness: {w.check_state} > {'-'.join(w.path_a)} > {w.hat_state}"
                      f"  vs  {w.check_state} > {'-'.join(w.path_b)} > {w.hat_state}\n")
        _emit(args, human, {"kappa": kappa,
                            "witness": None if res.witness is None
                            else _witness_to_dict(res.witness)})
    elif args.command == "check-se":
        res = lp.check_single_entry(chain, lumping)
        human = f"single entry: {'yes' if res.holds else 'no'}\n"
        if res.violation is not None:
            v = res.violation
            human += (f"violation: state {v.state} enters block {v.block} at both "
                      f"{v.successor_a} and {v.successor_b}\n")
        _emit(args, human, {"holds": res.holds,
                            "violation": None if res.violation is None else {
                                "state": res.violation.state,
                                "block": res.violation.block,
                                "successor_a": res.violation.successor_a,
                                "successor_b": res.violation.successor_b}})
    elif args.command == "check-sfs":
        res = lp.check_sfs(chain, lumping, args.k)
        human = f"single forward {args.k}-sequence: {'yes' if res.holds else 'no'}\n"
        payload: dict[str, Any] = {"k": args.k, "holds": res.holds, "violation": None}
        if res.violation is not None:
            v = res.violation
            payload["violation"] = {
                "block_word": list(v.block_word), "start_block": v.start_block,
                "start_a": v.start_a, "path_a": list(v.path_a),
                "start_b": v.start_b, "path_b": list(v.path_b)}
            human += (f"violation: word {'-'.join(v.block_word)} from block "
                      f"{v.start_block} admits {'-'.join(v.path_a)} (from {v.start_a}) "
                      f"and {'-'.join(v.path_b)} (from {v.start_b})\n")
        _emit(args, human, payload)
    elif args.command == "check-strong":
        res = lp.check_strong_lumpable(chain, lumping, args.k, args.tol)
        human = f"strongly {args.k}-lumpable: {'yes' if res.strong else 'no'}\n"
        human += (f"rate bounds at n={args.k}: [{res.rate_bound_lower:.6f}, "
                  f"{res.rate_bound_upper:.6f}] bits/step\n")
        _emit(args, human, {"k": args.k, "strong": res.strong,
                            "rate_bound_lower": res.rate_bound_lower,
                            "rate_bound_upper": res.rate_bound_upper,
                            "witness": None if res.witness is None else {
                                "conditioning": list(res.witness.conditioning),
                                "symbol": res.witness.symbol,
                                "prob_a": res.witness.prob_a,
                                "prob_b": res.witness.prob_b}})
    elif args.command == "check-weak":
        res = lp.check_weak_lumpable(chain, lumping, args.k, args.horizon, args.tol)
        v = res.weak_up_to_horizon
        human = (f"weakly {args.k}-lumpable: {'yes' if v.verdict else 'no'} "
                 f"up to horizon {v.horizon} ({_WEAK_CAVEAT})\n")
        _emit(args, human, {"k": args.k, "verdict": v.verdict, "horizon": v.horizon,
                            "caveat": _WEAK_CAVEAT,
                            "conditional_entropies": list(res.conditional_entropies),
                            "witness": None if res.witness is None else {
                                "conditioning": list(res.witness.conditioning),
                                "symbol": res.witness.symbol,
                                "prob_a": res.witness.prob_a,
                                "prob_b": res.witness.prob_b}})
    elif args.command == "bounds":
        with ent.lattice(chain, lumping, args.n, args.n,
                         ent.DEFAULT_MAX_HORIZON, ent.DEFAULT_MAX_BLOCKS):
            b = ent.lumped_rate_bounds(chain, lumping, args.n)
            loss = ent.conditional_entropy_rate_estimate(chain, lumping, args.n)
        human = (f"lumped rate bounds n={args.n}: [{b.lower:.6f}, {b.upper:.6f}] "
                 f"bits/step; loss in [{loss.loss_lower:.6f}, {loss.loss_upper:.6f}]\n")
        _emit(args, human, {"horizon": b.horizon, "lower": b.lower, "upper": b.upper,
                            "loss_lower": loss.loss_lower, "loss_upper": loss.loss_upper})
    elif args.command == "loss-bound":
        lb = lp.entropy_loss_bound(chain, lumping)
        if lb is None:
            _emit(args, "entropy loss bound: none (no split-merge witness)\n",
                  {"loss_bound": None})
        else:
            human = (f"entropy loss bound: {lb.rate_lower_bound:.6g} bits/step "
                     f"(window entropy {lb.loss_entropy:.6g}, alpha {lb.alpha:.6g})\n")
            _emit(args, human, {"loss_bound": _loss_to_dict(lb)})
    elif args.command == "blackwell":
        bw = ent.blackwell_entropy_estimate(chain, lumping, args.steps,
                                            args.burn_in, args.seed)
        human = (f"blackwell estimate: {bw.estimate:.6f} +/- {bw.stderr:.6f} "
                 f"bits/step ({bw.caveat})\n")
        _emit(args, human, {"estimate": bw.estimate, "stderr": bw.stderr,
                            "caveat": bw.caveat})
    elif args.command == "simulate":
        rows = sim.empirical_growth(chain, lumping, args.length, args.seeds)
        human = "".join(
            f"n={r.n}: max count {r.max_count}, geometric mean growth "
            f"{r.geo_mean_growth:.6f}\n" for r in rows)
        _emit(args, human, {"checkpoints": [
            {"n": r.n, "counts": list(r.counts), "max_count": r.max_count,
             "geo_mean_growth": r.geo_mean_growth} for r in rows]})
    elif args.command == "export-dot":
        sys.stdout.write(export_dot(chain, lumping))
    elif args.command == "reverse":
        rev = reverse_chain(chain)
        payload = chain_to_model_dict(rev, lumping)
        print(_dump_json(payload))
    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _cmd(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LumpchainError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
