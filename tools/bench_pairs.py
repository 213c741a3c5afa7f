"""Run ``bench/run.py`` in two checkouts in alternating pairs and record a BENCH file.

Usage::

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seed S \\
        --pairs N --seconds T --label LABEL [--trace 0|1]

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts, each with its
own ``bench/run.py``. Each pair runs ``python3 bench/run.py --workload W
--seed S --seconds T --trace X`` in both, the parent first in the first,
third, ... pair and the change first in the others, so that a drift in the
host's speed falls on both sides alike.

Both sides must start in the same bytecode state: the tool refuses to run
when either checkout holds a ``__pycache__`` directory, and it runs every
benchmark with ``PYTHONDONTWRITEBYTECODE=1``, so each side compiles its
sources afresh in every process.

For each metric the tool prints each side's median and quartiles
(``statistics.quantiles(..., method="inclusive")``) and the number of pairs
in which the change is better, by the direction ``BENCHMARK.json`` gives.
It then adds one section, ``alternating_<W>_seed<S>`` (``trace1_<W>_seed<S>``
with ``--trace 1``), to ``BENCH_<LABEL>.json`` at the root of the repository
this file sits in, creating the file or replacing a section of the same
name; the other sections are kept. The sections have the layout of
``BENCH_pr19.json``: each run's failed operations, and per metric both
sides' values, medians, quartiles, the parent's interquartile range, the
ratio of the medians and the change's wins.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _better(root: pathlib.Path) -> dict[str, str]:
    """Each declared metric's direction, ``lower`` or ``higher``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _commit(root: pathlib.Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _run(root: pathlib.Path, args) -> tuple[dict, str]:
    """One ``bench/run.py`` run: its result object and its environment line."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    header = next((line[2:] for line in lines if line.startswith("# python ")), "unknown")
    return json.loads(lines[-1]), header


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: both sides' values and their summary, in run order."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = values["parent"], values["change"]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        q = {side: _quartiles(values[side]) for side in SIDES}
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {"parent": parent, "change": change,
                     "parent_median": p_med, "change_median": c_med,
                     "ratio_of_medians": c_med / p_med if p_med else None,
                     "parent_q1_q3": q["parent"], "parent_iqr": q["parent"][1] - q["parent"][0],
                     "change_q1_q3": q["change"],
                     "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "unit": runs["parent"][0]["metrics"][name]["unit"]}
    return out


def _bytecode(roots) -> list[pathlib.Path]:
    return sorted(p for root in roots for p in root.rglob("__pycache__") if p.is_dir())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=pathlib.Path)
    parser.add_argument("change_root", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    stale = _bytecode(roots.values())
    if stale:
        sys.exit("remove the bytecode first, so that both sides compile afresh:\n"
                 + "\n".join(map(str, stale)))

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    headers: dict[str, str] = {}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result, headers[side] = _run(roots[side], args)
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} {side}: {result['failed']} of "
                  f"{result['attempted']} ops failed", flush=True)

    metrics = summarise(runs, _better(roots["change"]))
    print(f"{'metric':45s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'ratio':>7s} wins")
    for name, m in metrics.items():
        cells = [f"{m[side + '_median']:.5g} [{m[side + '_q1_q3'][0]:.5g}, "
                 f"{m[side + '_q1_q3'][1]:.5g}]" for side in SIDES]
        ratio = "-" if m["ratio_of_medians"] is None else f"{m['ratio_of_medians']:.3f}"
        print(f"{name:45s} {cells[0]:>30s} {cells[1]:>30s} {ratio:>7s} "
              f"{m['change_wins']}/{args.pairs}")

    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    bench.setdefault("workloads", [])
    if args.workload not in bench["workloads"]:
        bench["workloads"].append(args.workload)
    bench["command"] = "python3 bench/run.py --workload W --seed S --seconds T --trace {0,1}"
    bench["parent_commit"] = _commit(roots["parent"])
    bench["change_commit"] = _commit(roots["change"])
    bench["environment"] = headers
    section = f"{'trace1' if args.trace else 'alternating'}_{args.workload}_seed{args.seed}"
    bench[section] = {
        "runs": (f"{args.pairs} pairs of --workload {args.workload} --seed {args.seed} "
                 f"--trace {args.trace} --seconds {args.seconds:g} runs, parent first in "
                 "the first, third, ... pair, change first in the others"),
        "failed_ops": {side: [f"{r['failed']} of {r['attempted']}" for r in runs[side]]
                       for side in SIDES},
        "metrics": metrics}
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {section} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
