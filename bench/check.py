"""Correctness of every benchmark operation.

Outputs are reduced to plain JSON-like summaries; analysis reports go
through the CLI's own ``--format json`` serialiser. A summary is then checked
two ways:

- against a reference recorded for the same input (the model corpus always,
  generated inputs at the default seed): verdicts, indices, witnesses and
  integer counts must match exactly, floats within ``FLOAT_TOL`` absolute;
- against invariants that need no reference, for any seed: orderings the
  theory guarantees, and quantities recomputed here independently of the
  library (chain entropy rate, horizon-1 bounds).

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from lumpchain.cli import format_report

FLOAT_TOL = 1e-9          # the library's DEFAULT_PROB_TOL
EQUAL_BOUNDS_TOL = 1e-7   # entropies built from probabilities equal within 1e-9
BLACKWELL_SIGMAS = 6.0    # a Monte Carlo estimate may stray this many stderrs


# ---------------------------------------------------------------------------
# summaries


CLI_ONLY_KEYS = ("schema_version", "blackwell")


def analysis_body(report_json: dict) -> dict:
    """A CLI JSON report without its version tag and optional estimate."""
    return {k: v for k, v in report_json.items() if k not in CLI_ONLY_KEYS}


def summarize_report(report) -> dict:
    """An analysis report through the CLI's own JSON serialiser."""
    return analysis_body(json.loads(format_report(report, "json")))


def summarize_blackwell(est) -> dict:
    return {"estimate": float(est.estimate), "stderr": float(est.stderr),
            "caveat": str(est.caveat)}


def summarize_growth(rows) -> dict:
    return {"checkpoints": [{"n": int(r.n), "counts": [int(c) for c in r.counts],
                             "max_count": int(r.max_count),
                             "geo_mean_growth": float(r.geo_mean_growth)} for r in rows]}


# ---------------------------------------------------------------------------
# reference comparison


def compare(expected, actual, where: str = "$") -> list[str]:
    """Structural equality; floats may differ by ``FLOAT_TOL`` absolute."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        ok = type(expected) is type(actual) and expected == actual
        return [] if ok else [f"{where}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            return [] if expected == actual else [f"{where}: expected {expected}, got {actual}"]
        if math.isfinite(expected) and math.isfinite(actual) \
                and abs(expected - actual) <= FLOAT_TOL:
            return []
        return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for k in expected:
            out += compare(expected[k], actual[k], f"{where}.{k}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{where}[{i}]")
        return out
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]


# ---------------------------------------------------------------------------
# independent recomputation


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _stationary(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu = np.linalg.lstsq(A, b, rcond=None)[0]
    return mu / mu.sum()


def reference_free_values(matrix: np.ndarray, blocks: list[int]) -> dict:
    """Chain entropy rate and the horizon-1 rate bounds, from first principles.

    upper_1 = H(Y_2 | Y_1), lower_1 = H(Y_2 | X_1); both from the stationary
    one-step joint, aggregated by block.
    """
    P = np.asarray(matrix, dtype=float)
    P = P / P.sum(axis=1, keepdims=True)
    b = np.asarray(blocks)
    nb = int(b.max()) + 1
    mu = _stationary(P)
    onehot = np.eye(nb)[b]                      # (n, nb)
    to_block = P @ onehot                       # (n, nb): state -> next block
    joint = onehot.T @ (mu[:, None] * to_block)  # (nb, nb): block -> next block
    upper = 0.0
    for row in joint:
        m = row.sum()
        if m > 1e-15:
            upper += m * _entropy(row / m)
    return {"chain_rate": float(sum(mu[x] * _entropy(P[x]) for x in range(len(b)))),
            "upper_1": upper,
            "lower_1": float(sum(mu[x] * _entropy(to_block[x]) for x in range(len(b)))),
            "n_blocks": nb,
            "max_block": int(np.bincount(b).max())}


# ---------------------------------------------------------------------------
# invariants


def analysis_invariants(s: dict, params: dict, facts: dict, family: str = "") -> list[str]:
    """Reference-free checks on an analysis summary.

    ``facts`` comes from :func:`reference_free_values`; ``params`` holds the
    requested horizons, k range and weak horizon.
    """
    bad = []
    tol = FLOAT_TOL
    k_range = [int(k) for k in params["k_range"]]
    horizons = [int(h) for h in params["horizons"]]
    if [b["horizon"] for b in s["bounds"]] != horizons:
        bad.append(f"bounds horizons {[b['horizon'] for b in s['bounds']]} != {horizons}")
    if sorted(s["strong"]) != sorted(str(k) for k in k_range):
        bad.append(f"strong keys {sorted(s['strong'])}")
    if sorted(s["sfs"]) != sorted(str(k) for k in k_range if k >= 2):
        bad.append(f"sfs keys {sorted(s['sfs'])}")
    if abs(s["chain_rate"] - facts["chain_rate"]) > tol:
        bad.append(f"chain_rate {s['chain_rate']!r} != recomputed {facts['chain_rate']!r}")
    log_nb = math.log2(facts["n_blocks"])
    by_h = {b["horizon"]: b for b in s["bounds"]}
    for b in s["bounds"]:
        h, lo, up = b["horizon"], b["lower"], b["upper"]
        if not (-tol <= lo <= up + tol and up <= log_nb + tol):
            bad.append(f"n={h}: need 0 <= lower {lo!r} <= upper {up!r} <= log2(blocks)")
        if lo > facts["chain_rate"] + tol:
            bad.append(f"n={h}: lower {lo!r} above the chain rate")
        nxt = by_h.get(h + 1)
        if nxt is not None and (nxt["upper"] > up + tol or nxt["lower"] < lo - tol):
            bad.append(f"n={h}->{h + 1}: sandwich widened")
    if 1 in by_h:
        for side in ("upper", "lower"):
            if abs(by_h[1][side] - facts[f"{side}_1"]) > tol:
                bad.append(f"n=1 {side} {by_h[1][side]!r} != recomputed {facts[side + '_1']!r}")
    for k in k_range:
        weak = s["weak"].get(str(k))
        if weak is None or weak["horizon"] != max(int(params["weak_horizon"]), k):
            bad.append(f"weak[{k}] horizon {weak}")
        if s["strong"].get(str(k)):
            if weak is not None and not weak["verdict"]:
                bad.append(f"strong {k}-lumpable but not weakly")
            if k in by_h and abs(by_h[k]["upper"] - by_h[k]["lower"]) > EQUAL_BOUNDS_TOL:
                bad.append(f"strong {k}-lumpable but the n={k} bounds differ")
    finite = s["kappa"] != "infinity"
    lb = s["loss_bound"]
    if finite != (lb is not None):
        bad.append(f"kappa {s['kappa']} but loss bound {'present' if lb else 'absent'}")
    if s["se"] and finite:
        bad.append("single entry holds but kappa is finite")
    if family == "private" and finite:
        bad.append("private-successor chain has a finite kappa")
    if family == "dense" and facts["max_block"] > 1 and s["kappa"] != 1:
        bad.append(f"dense chain has kappa {s['kappa']}, expected 1")
    if lb is not None:
        w = lb["witness"]
        if not (w["kappa"] == s["kappa"] and len(w["path_a"]) == len(w["path_b"])
                == len(w["lumped_word"]) == s["kappa"] and w["path_a"] != w["path_b"]):
            bad.append(f"malformed witness {w}")
        if not lb["rate_lower_bound"] > 0:
            bad.append(f"loss bound {lb['rate_lower_bound']!r} not positive")
        for b in s["bounds"]:
            if lb["rate_lower_bound"] > facts["chain_rate"] - b["lower"] + tol:
                bad.append(f"loss bound {lb['rate_lower_bound']!r} exceeds the n={b['horizon']} "
                           "loss upper edge")
    return bad


def blackwell_invariants(s: dict, facts: dict) -> list[str]:
    """The lumped rate lies between the horizon-1 bounds, so the estimate must
    too, up to ``BLACKWELL_SIGMAS`` of its own standard error."""
    bad = []
    if not (math.isfinite(s["stderr"]) and s["stderr"] >= 0):
        return [f"stderr {s['stderr']!r}"]
    if not -FLOAT_TOL <= s["estimate"] <= math.log2(facts["n_blocks"]) + FLOAT_TOL:
        bad.append(f"estimate {s['estimate']!r} outside [0, log2(blocks)]")
    slack = BLACKWELL_SIGMAS * s["stderr"] + FLOAT_TOL
    if not facts["lower_1"] - slack <= s["estimate"] <= facts["upper_1"] + slack:
        bad.append(f"estimate {s['estimate']!r} +/- {s['stderr']!r} outside the n=1 bounds "
                   f"[{facts['lower_1']!r}, {facts['upper_1']!r}]")
    return bad


def growth_invariants(s: dict, params: dict, facts: dict, checkpoints) -> list[str]:
    bad = []
    expected_n = [c for c in checkpoints if c <= params["length"]]
    if [r["n"] for r in s["checkpoints"]] != expected_n:
        bad.append(f"checkpoints {[r['n'] for r in s['checkpoints']]} != {expected_n}")
    for r in s["checkpoints"]:
        if len(r["counts"]) != len(params["seeds"]) or min(r["counts"]) < 1:
            bad.append(f"n={r['n']}: counts {r['counts']} (every sampled word has a preimage)")
        elif r["max_count"] != max(r["counts"]):
            bad.append(f"n={r['n']}: max_count {r['max_count']}")
        if not 1 - FLOAT_TOL <= r["geo_mean_growth"] <= facts["max_block"] + FLOAT_TOL:
            bad.append(f"n={r['n']}: growth {r['geo_mean_growth']!r} outside [1, max block]")
    return bad
