"""Command line front end: model files, analysis reports, DOT export.

Model files are UTF-8 JSON with states, a row-major transition matrix,
a state-to-block lumping map and an options object; other keys, such as an
``initial`` vector, are ignored. Probabilities may be JSON numbers or exact
fraction strings such as "5/6"; fractions avoid decimal rounding before
validation.

Every JSON payload follows one rule: result dataclasses become objects of
their fields, tuples lists, dict keys strings, and an infinite split-merge
index the string "infinity" (JSON has no infinity literal). Reports
round-trip through :func:`report_from_json`. Exit codes: 0 success, 1
validation error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import types
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Sequence, Union, get_args, get_origin, get_type_hints

from . import entropy as ent
from . import lumping as lp
from . import simulate as sim
from .chain import DEFAULT_ZERO_THRESHOLD, MarkovChain, build_chain, reverse_chain
from .errors import HorizonTooLarge, KTooSmall, LumpchainError, ParseError, ValidationError

SCHEMA_VERSION = "1"

_WEAK_CAVEAT = "no claim beyond the horizon"


# ---------------------------------------------------------------------------
# model files


def _label(value, where: str) -> str:
    """A state or block label: a JSON string or number, as text; a decimal
    number keeps the text it is written with."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError(f"{where}: a label must be a string or a number, got {json.dumps(value)}")
    return str(value)


def _coerce_probability(value, where: str) -> float:
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad fraction {value!r} ({exc})") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    else:
        raise ParseError(f"{where}: expected number or 'p/q' string, got {value!r}")
    try:
        return float(number)
    except OverflowError:
        raise ParseError(f"{where}: {value!r} is too large for a float") from None


def parse_model(path: str, allow_trivial: bool = False) -> tuple[MarkovChain, lp.Lumping]:
    """Load and validate a model file into a chain and lumping pair. A
    degenerate lumping passes when ``allow_trivial`` or the file's
    ``allow_trivial_lumping`` option is true."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=str)  # a label keeps its text
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
    states = [_label(s, f"{path}: states[{i}]") for i, s in enumerate(states)]
    matrix_raw = raw["transition_matrix"]
    if not isinstance(matrix_raw, list):
        raise ParseError(f"{path}: 'transition_matrix' must be a list of rows")
    matrix = []
    for i, row in enumerate(matrix_raw):
        if not isinstance(row, list):
            raise ParseError(f"{path}: transition_matrix[{i}] must be a list")
        matrix.append([_coerce_probability(v, f"transition_matrix[{i}][{j}]")
                       for j, v in enumerate(row)])
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ParseError(f"{path}: 'options' must be an object")
    for key in ("exact_zero_mode", "allow_trivial_lumping"):
        if not isinstance(options.get(key, False), bool):
            raise ParseError(f"{path}: option {key!r} must be true or false")
    zero_threshold = 0.0 if options.get("exact_zero_mode", False) else DEFAULT_ZERO_THRESHOLD
    allow_trivial = allow_trivial or options.get("allow_trivial_lumping", False)
    lump_map = raw["lumping"]
    if not isinstance(lump_map, dict):
        raise ParseError(f"{path}: 'lumping' must be an object mapping state to block")

    chain = build_chain(matrix, states, zero_threshold=zero_threshold)
    lumping = lp.build_lumping(chain, {k: _label(v, f"{path}: lumping[{k!r}]")
                                       for k, v in lump_map.items()},
                               allow_trivial=allow_trivial)
    return chain, lumping


def chain_to_model_dict(chain: MarkovChain, lumping: lp.Lumping) -> dict:
    """Model-file representation of a chain and lumping (decimal entries)."""
    P = chain.transition
    options = {"allow_trivial_lumping": not 2 <= lumping.n_blocks < chain.n}
    if ((P > 0) & (P <= DEFAULT_ZERO_THRESHOLD)).any():  # edges a reload would clamp
        options["exact_zero_mode"] = True
    return {
        "states": list(chain.states),
        "transition_matrix": [[float(v) for v in row] for row in P],
        "lumping": lumping.map,
        "options": options,
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


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated verdicts for one model, stable under re-runs. The loss
    bound is None when the index is infinite, or when its minimal block words
    exceed the loss bound's budget."""

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
    """Run the full verdict battery; deterministic for a fixed config. The
    Blackwell estimate needs steps and seed together, or neither."""
    if config.blackwell_steps is None:
        if config.blackwell_seed is not None or config.blackwell_burn_in is not None:
            raise ValidationError("a Blackwell seed or burn-in needs blackwell_steps")
    elif config.blackwell_seed is None:
        raise ValidationError("blackwell_steps needs a blackwell_seed")
    # bad orders, horizons and tol are refused before any work, as the callees would
    k_range = tuple(ent._check_integer("k", k) for k in config.k_range)
    horizons = tuple(ent._check_integer("n", n) for n in config.horizons)
    weak_horizon = ent._check_integer("weak horizon", config.weak_horizon)
    if min(k_range, default=1) < 1:
        raise KTooSmall("strong lumpability order must be >= 1")
    if min(horizons, default=1) < 1:
        raise ValidationError("n must be >= 1")
    if weak_horizon < 1:
        raise ValidationError("weak horizon must be >= 1")
    lp._check_tol(config.tol)
    blackwell = None
    if config.blackwell_steps is not None:  # first: its arguments can refuse it at once
        blackwell = ent.blackwell_entropy_estimate(
            chain, lumping, config.blackwell_steps,
            config.blackwell_burn_in, config.blackwell_seed)
    kappa, *levels = lp._pair_levels(chain, lumping)  # one pair search for the index and the bound
    try:
        loss_bound = lp._loss_bound(chain, lumping, kappa, *levels)
    except HorizonTooLarge:  # too many minimal block words to score; the index stands
        loss_bound = None
    se = lp.check_single_entry(chain, lumping)
    sfs = {k: lp.check_sfs(chain, lumping, k).holds for k in k_range if k >= 2}
    # one upper and one lower pass, as deep as the checks below need, serve them all
    lower = max((*horizons, *k_range), default=0)
    upper = max(lower, weak_horizon) if k_range else lower
    lat = ent.BlockWordLattice(chain, lumping, upper, lower)
    strong = {k: lp.check_strong_lumpable(chain, lumping, k, config.tol, lattice=lat).strong
              for k in k_range}
    weak = {k: lp.check_weak_lumpable(chain, lumping, k, max(weak_horizon, k), config.tol,
                                      lattice=lat).weak_up_to_horizon
            for k in k_range}
    bounds = tuple(ent.lumped_rate_bounds(chain, lumping, n, lattice=lat) for n in horizons)
    return AnalysisReport(
        kappa=kappa,
        se=se.holds,
        sfs=sfs,
        strong=strong,
        weak=weak,
        chain_rate=ent.chain_entropy_rate(chain),
        bounds=bounds,
        loss_bound=loss_bound,
        blackwell=blackwell)


def _to_json(obj):
    """The JSON value of a result: dataclasses as objects of their fields,
    tuples as lists, dict keys as strings, +inf as "infinity"."""
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_json(v) for v in obj]
    if isinstance(obj, float) and obj == math.inf:
        return "infinity"
    return obj


def _from_json(tp, value):
    """Inverse of :func:`_to_json` for a value of annotated type ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):  # X | None
        return None if value is None else _from_json(args[0], value)
    if origin is dict:
        return {args[0](k): _from_json(args[1], v) for k, v in value.items()}
    if origin is tuple:
        return tuple(_from_json(args[0], v) for v in value)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return tp(**{f.name: _from_json(hints[f.name], value[f.name]) for f in fields(tp)})
    if tp is float and value == "infinity":
        return math.inf
    return value


def report_to_dict(report: AnalysisReport) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(report)}


def report_from_dict(d: dict) -> AnalysisReport:
    return _from_json(AnalysisReport, d)


def report_from_json(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _kappa_line(kappa: float) -> str:
    return f"split-merge index: {'infinity' if math.isinf(kappa) else int(kappa)}"


def _witness_text(w: lp.SplitMergeWitness) -> str:
    return (f"{w.check_state} > {'-'.join(w.path_a)} > {w.hat_state}"
            f"  vs  {w.check_state} > {'-'.join(w.path_b)} > {w.hat_state}")


def _weak_line(k: int, v: lp.WeakHorizonVerdict) -> str:
    return (f"weakly {k}-lumpable: {_yes(v.verdict)} up to horizon {v.horizon} "
            f"({_WEAK_CAVEAT})")


def _bounds_text(b: ent.EntropyBounds) -> str:
    return f"lumped rate bounds n={b.horizon}: [{b.lower:.6f}, {b.upper:.6f}] bits/step"


def _loss_line(lb: lp.LossBound | None, growth: bool) -> str:
    if lb is None:
        return "entropy loss bound: none (no split-merge witness)"
    tail = f", growth constant {lb.growth_constant:.6g}" if growth else ""
    return (f"entropy loss bound: {lb.rate_lower_bound:.6g} bits/step "
            f"(window entropy {lb.loss_entropy:.6g}, alpha {lb.alpha:.6g}{tail})")


def _blackwell_line(bw: ent.BlackwellEstimate) -> str:
    return f"blackwell estimate: {bw.estimate:.6f} +/- {bw.stderr:.6f} bits/step ({bw.caveat})"


def format_report(report: AnalysisReport, format: str = "human") -> str:
    """Render a report. JSON mode round-trips; human mode spells out the
    horizon qualification of weak verdicts."""
    if format == "json":
        return _dump_json(report_to_dict(report))
    lines = [_kappa_line(report.kappa), f"single entry: {_yes(report.se)}"]
    lines += [f"single forward {k}-sequence: {_yes(report.sfs[k])}" for k in sorted(report.sfs)]
    lines += [f"strongly {k}-lumpable: {_yes(report.strong[k])}" for k in sorted(report.strong)]
    lines += [_weak_line(k, report.weak[k]) for k in sorted(report.weak)]
    lines.append(f"chain entropy rate: {report.chain_rate:.6f} bits/step")
    lines += [_bounds_text(b) for b in report.bounds]
    if report.loss_bound is None and math.isfinite(report.kappa):
        lines.append("entropy loss bound: refused (too many minimal block words to score)")
    else:
        lines.append(_loss_line(report.loss_bound, growth=True))
    if report.loss_bound is not None:
        w = report.loss_bound.witness
        lines.append(f"  witness: {_witness_text(w)}  over blocks {'-'.join(w.lumped_word)}")
    if report.blackwell is not None:
        lines.append(_blackwell_line(report.blackwell))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
    for i, j in zip(*chain.adjacency.nonzero()):  # row-major
        lines.append(f"  {_quote(chain.states[i])} -> {_quote(chain.states[j])}"
                     f" [label=\"{P[i, j]:.6g}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    # model: every subcommand; report: all but export-dot and reverse; compare: --tol readers
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("model", help="path to a model JSON file")
    model.add_argument("--allow-trivial-lumping", action="store_true",
                       help="accept degenerate lumpings (one block or injective)")
    report = argparse.ArgumentParser(add_help=False, parents=[model])
    report.add_argument("--format", choices=("human", "json"), default="human")
    compare = argparse.ArgumentParser(add_help=False, parents=[report])
    compare.add_argument("--tol", type=float, default=AnalysisConfig.tol,
                         help="absolute tolerance for probability comparisons")

    parser = argparse.ArgumentParser(
        prog="lumpchain",
        description="Entropy rate preservation and lumpability analysis of "
                    "finite Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[compare], help="full verdict battery")
    p.add_argument("--horizons", type=int, nargs="+", default=AnalysisConfig.horizons)
    p.add_argument("--k-range", type=int, nargs="+", default=AnalysisConfig.k_range)
    p.add_argument("--weak-horizon", type=int, default=AnalysisConfig.weak_horizon)
    p.add_argument("--blackwell-steps", type=int, default=None)
    p.add_argument("--blackwell-burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    sub.add_parser("kappa", parents=[report], help="split-merge index and witness")
    sub.add_parser("check-se", parents=[report], help="single entry property")

    p = sub.add_parser("check-sfs", parents=[report], help="single forward k-sequence")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-strong", parents=[compare], help="strong k-lumpability")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-weak", parents=[compare],
                       help="weak k-lumpability up to a horizon")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)

    p = sub.add_parser("bounds", parents=[report], help="rate bounds at a horizon")
    p.add_argument("--n", type=int, required=True)

    sub.add_parser("loss-bound", parents=[report], help="certified entropy loss bound")

    p = sub.add_parser("blackwell", parents=[report], help="belief-chain rate estimate")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None)

    p = sub.add_parser("simulate", parents=[report],
                       help="empirical preimage-count growth")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)

    sub.add_parser("export-dot", parents=[model], help="Graphviz DOT text")
    sub.add_parser("reverse", parents=[model], help="time-reversed model JSON")
    return parser


def _emit(args, human: str, payload) -> None:
    if args.format == "json":
        print(_dump_json(_to_json(payload)))
    else:
        sys.stdout.write(human)


def _cmd(args) -> None:
    chain, lumping = parse_model(args.model, args.allow_trivial_lumping)

    if args.command == "analyze":
        config = AnalysisConfig(
            horizons=tuple(args.horizons), k_range=tuple(args.k_range),
            weak_horizon=args.weak_horizon, tol=args.tol,
            blackwell_steps=args.blackwell_steps,
            blackwell_burn_in=args.blackwell_burn_in,
            blackwell_seed=args.seed)
        report = run_analysis(chain, lumping, config)
        _emit(args, format_report(report), report_to_dict(report))
    elif args.command == "kappa":
        res = lp.split_merge_index(chain, lumping)
        human = _kappa_line(res.kappa) + "\n"
        if res.witness is not None:
            human += f"witness: {_witness_text(res.witness)}\n"
        _emit(args, human, res)
    elif args.command == "check-se":
        res = lp.check_single_entry(chain, lumping)
        human = f"single entry: {_yes(res.holds)}\n"
        if res.violation is not None:
            v = res.violation
            human += (f"violation: state {v.state} enters block {v.block} at both "
                      f"{v.successor_a} and {v.successor_b}\n")
        _emit(args, human, res)
    elif args.command == "check-sfs":
        res = lp.check_sfs(chain, lumping, args.k)
        human = f"single forward {args.k}-sequence: {_yes(res.holds)}\n"
        if res.violation is not None:
            v = res.violation
            human += (f"violation: word {'-'.join(v.block_word)} from block "
                      f"{v.start_block} admits {'-'.join(v.path_a)} (from {v.start_a}) "
                      f"and {'-'.join(v.path_b)} (from {v.start_b})\n")
        _emit(args, human, {"k": args.k, "holds": res.holds, "violation": res.violation})
    elif args.command == "check-strong":
        res = lp.check_strong_lumpable(chain, lumping, args.k, args.tol)
        human = (f"strongly {args.k}-lumpable: {_yes(res.strong)}\n"
                 f"rate bounds at n={args.k}: [{res.rate_bound_lower:.6f}, "
                 f"{res.rate_bound_upper:.6f}] bits/step\n")
        _emit(args, human, {"k": args.k, "strong": res.strong,
                            "rate_bound_lower": res.rate_bound_lower,
                            "rate_bound_upper": res.rate_bound_upper,
                            "witness": res.witness})
    elif args.command == "check-weak":
        res = lp.check_weak_lumpable(chain, lumping, args.k, args.horizon, args.tol)
        v = res.weak_up_to_horizon
        _emit(args, _weak_line(args.k, v) + "\n",
              {"k": args.k, **_to_json(v), "caveat": _WEAK_CAVEAT,
               "conditional_entropies": res.conditional_entropies, "witness": res.witness})
    elif args.command == "bounds":
        b = ent.lumped_rate_bounds(chain, lumping, args.n)
        loss = ent._loss_within(ent.chain_entropy_rate(chain), b)
        human = (f"{_bounds_text(b)}; loss in "
                 f"[{loss.loss_lower:.6f}, {loss.loss_upper:.6f}]\n")
        _emit(args, human, {**_to_json(b), **_to_json(loss)})
    elif args.command == "loss-bound":
        lb = lp.entropy_loss_bound(chain, lumping)
        _emit(args, _loss_line(lb, growth=False) + "\n", {"loss_bound": lb})
    elif args.command == "blackwell":
        bw = ent.blackwell_entropy_estimate(chain, lumping, args.steps,
                                            args.burn_in, args.seed)
        _emit(args, _blackwell_line(bw) + "\n", bw)
    elif args.command == "simulate":
        rows = sim.empirical_growth(chain, lumping, args.length, args.seeds)
        human = "".join(
            f"n={r.n}: max count {r.max_count}, geometric mean growth "
            f"{r.geo_mean_growth:.6f}\n" for r in rows)
        _emit(args, human, {"checkpoints": rows})
    elif args.command == "export-dot":
        sys.stdout.write(export_dot(chain, lumping))
    elif args.command == "reverse":
        print(_dump_json(chain_to_model_dict(reverse_chain(chain), lumping)))
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
