"""Diff every report of two lumpchain source trees.

Usage::

    python tools/compare_reports.py PARENT_SRC CHANGE_SRC [--seeds 0 1 2 11]

PARENT_SRC and CHANGE_SRC are directories that hold a ``lumpchain``
package, such as the ``src`` of two checkouts. Each is imported in a child
interpreter of its own, which computes:

- ``analyze MODEL --format json`` on every model file under ``models/``:
  exit code, stdout and stderr;
- on every model file, for h = 1..6: ``bounds MODEL --n h --format json``
  (exit code, stdout and stderr), ``repr(lumped_block_entropy(..., h))``
  and ``repr(conditional_entropy_rate_estimate(..., h))``;
- for every ``lattice`` and ``pairs`` item of ``bench/workloads.py`` at each
  seed: ``format_report(run_analysis(...), "json")`` with the benchmark's
  configuration;
- the structure of every model file, every such item and five large
  chains: ``repr(split_merge_index(...))``, ``repr(entropy_loss_bound(...))``
  and ``repr(check_sfs(..., k))`` for k = 2, 3, 4. The large chains are
  ``sparse_chain(np.random.default_rng([7, n, nb, d]), n, nb, d)`` of
  ``bench/workloads.py`` for each (n, nb, d) in ``LARGE_CHAINS``, and
  ``private_successor_chain(np.random.default_rng([7, 600, 4]), 600, 4)``,
  where no two same-block states share a successor, so the index is
  infinite without a pair search;
- on every model file and every such item, ``repr(check_strong_lumpable(...,
  k))`` and ``repr(check_weak_lumpable(..., k, max(h, k)))`` for k = 1, 2, 3,
  h being the item's weak horizon, or ``analyze``'s default 6 for a model
  file; these carry the witnesses that the reports reduce to verdicts;
- for every ``sampling`` item of ``bench/workloads.py`` at each seed, with
  the benchmark's parameters: ``repr(blackwell_entropy_estimate(...))`` on
  its filter items and ``repr(empirical_growth(...))`` on its growth items.

A call that refuses its input is compared by the class and text of the
error it raises.

``models/`` and ``bench/workloads.py`` are read from the repository this
file sits in, and nothing is written. The tool prints each report key whose
text differs and exits 1 if any does, else it prints the number of reports
compared and exits 0. A change that must keep every output's bits should
report 0 differences.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_WORKLOADS = ("lattice", "pairs")
LARGE_CHAINS = ((1000, 4, 3), (2000, 4, 3), (300, 2, 40), (600, 3, 20))  # n, blocks, out-degree
SFS_ORDERS = (2, 3, 4)
LUMPABILITY_ORDERS = (1, 2, 3)
MODEL_WEAK_HORIZON = 6  # analyze's default
MODEL_HORIZONS = range(1, 7)  # bounds, block entropy and loss interval per model file


def _workloads():
    """``bench/workloads.py``, loaded without importing the bench package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _repr(call, *args) -> str:
    """``repr`` of ``call(*args)``, or the refusal it raises."""
    from lumpchain.errors import LumpchainError

    try:
        return repr(call(*args))
    except LumpchainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _structure(key: str, chain, lumping) -> dict[str, str]:
    """The index, the loss bound and the SFS verdicts of one chain, by report key."""
    import lumpchain as lc

    reports = {f"{key}/split_merge": _repr(lc.split_merge_index, chain, lumping),
               f"{key}/loss_bound": _repr(lc.entropy_loss_bound, chain, lumping)}
    for k in SFS_ORDERS:
        reports[f"{key}/sfs_k{k}"] = _repr(lc.check_sfs, chain, lumping, k)
    return reports


def _lumpability(key: str, chain, lumping, weak_horizon: int) -> dict[str, str]:
    """The strong and weak verdicts of one chain, witnesses included, by report key."""
    import lumpchain as lc

    reports = {}
    for k in LUMPABILITY_ORDERS:
        reports[f"{key}/strong_k{k}"] = _repr(lc.check_strong_lumpable, chain, lumping, k)
        reports[f"{key}/weak_k{k}"] = _repr(lc.check_weak_lumpable, chain, lumping, k,
                                            max(weak_horizon, k))
    return reports


def _cli(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one ``lumpchain`` command, as one text."""
    import lumpchain as lc

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lc.cli.main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def collect(seeds: list[int]) -> dict[str, str]:
    """Every report of the ``lumpchain`` this interpreter imports, by key."""
    import numpy as np

    import lumpchain as lc

    reports = {}
    for path in sorted((ROOT / "models").glob("*.json")):
        reports[f"corpus/{path.stem}"] = _cli(["analyze", str(path), "--format", "json"])
        chain, lumping = lc.parse_model(str(path))
        for h in MODEL_HORIZONS:
            key = f"corpus/{path.stem}/n{h}"
            reports[f"{key}/bounds"] = _cli(["bounds", str(path), "--n", str(h),
                                             "--format", "json"])
            reports[f"{key}/block_entropy"] = _repr(lc.lumped_block_entropy, chain, lumping, h)
            reports[f"{key}/loss_interval"] = _repr(lc.conditional_entropy_rate_estimate,
                                                    chain, lumping, h)
        reports.update(_structure(f"corpus/{path.stem}", chain, lumping))
        reports.update(_lumpability(f"corpus/{path.stem}", chain, lumping, MODEL_WEAK_HORIZON))
    workloads = _workloads()
    for seed in seeds:
        for workload in BENCH_WORKLOADS:
            for item in workloads.make_items(workload, seed, ROOT):
                key = f"{workload}/seed{seed}/{item.key}"
                chain = lc.build_chain(item.matrix, item.states)
                lumping = lc.build_lumping(chain, item.assignment)
                p = item.params
                config = lc.AnalysisConfig(horizons=p["horizons"], k_range=p["k_range"],
                                           weak_horizon=p["weak_horizon"])
                reports[f"{key}/report"] = lc.format_report(
                    lc.run_analysis(chain, lumping, config), "json")
                reports.update(_structure(key, chain, lumping))
                reports.update(_lumpability(key, chain, lumping, p["weak_horizon"]))
        for item in workloads.make_items("sampling", seed, ROOT):
            chain = lc.build_chain(item.matrix, item.states)
            lumping = lc.build_lumping(chain, item.assignment)
            p = item.params
            if item.kind == "blackwell":
                report = _repr(lc.blackwell_entropy_estimate, chain, lumping,
                               p["steps"], None, p["seed"])
            else:
                report = _repr(lc.empirical_growth, chain, lumping, p["length"], p["seeds"])
            reports[f"sampling/seed{seed}/{item.key}"] = report
    for n, nb, d in LARGE_CHAINS:
        matrix, blocks = workloads.sparse_chain(np.random.default_rng([7, n, nb, d]), n, nb, d)
        item = workloads.Item(key=f"large/n{n}-b{nb}-d{d}", kind="analysis",
                              matrix=matrix, blocks=blocks)
        chain = lc.build_chain(item.matrix, item.states)
        reports.update(_structure(item.key, chain, lc.build_lumping(chain, item.assignment)))
    matrix, blocks = workloads.private_successor_chain(np.random.default_rng([7, 600, 4]), 600, 4)
    item = workloads.Item(key="large/private-n600-b4", kind="analysis",
                          matrix=matrix, blocks=blocks)
    chain = lc.build_chain(item.matrix, item.states)
    reports.update(_structure(item.key, chain, lc.build_lumping(chain, item.assignment)))
    return reports


def _dump(argv: list[str]) -> None:
    """Child side: print the reports of the imported tree as JSON."""
    import lumpchain

    print(json.dumps({"lumpchain": lumpchain.__file__,
                      "reports": collect([int(s) for s in argv])}))


def _reports(src: pathlib.Path, seeds: list[int]) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, compare_reports; compare_reports._dump(sys.argv[1:])",
         *map(str, seeds)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"reports of {src} failed:\n{proc.stderr}")
    payload = json.loads(proc.stdout)
    imported = pathlib.Path(payload["lumpchain"]).resolve()
    if src.resolve() not in imported.parents:
        sys.exit(f"{src} did not provide lumpchain: {imported} was imported")
    return payload["reports"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=pathlib.Path)
    parser.add_argument("change_src", type=pathlib.Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 11])
    args = parser.parse_args(argv)
    parent = _reports(args.parent_src, args.seeds)
    change = _reports(args.change_src, args.seeds)
    differ = sorted(key for key in parent.keys() | change.keys()
                    if parent.get(key) != change.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} reports differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
