"""Spans around the library's public functions, installed from outside.

The tracer replaces each traced function with a wrapper that records a span
(name, start, end, parent) in memory. A wrapper is installed under every
module attribute that holds the original function, because modules import
each other's functions by name (``lumping`` holds ``lumped_forward`` and
``lumped_rate_bounds``, ``simulate`` holds ``preimage_count``, the package
re-exports everything). ``MarkovChain.stationary`` is a cached property; only
the first access of each chain, which solves for the distribution and checks
connectivity, gets a span.

Self time of a span is its duration minus the part of its interval covered
by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# span name -> (module, attribute)
LAYERS = {
    "cli.main": ("lumpchain.cli", "main"),
    "cli.parse_model": ("lumpchain.cli", "parse_model"),
    "cli.run_analysis": ("lumpchain.cli", "run_analysis"),
    "cli.format_report": ("lumpchain.cli", "format_report"),
    "chain.build_chain": ("lumpchain.chain", "build_chain"),
    "entropy.lumped_forward": ("lumpchain.entropy", "lumped_forward"),
    "entropy.lumped_rate_bounds": ("lumpchain.entropy", "lumped_rate_bounds"),
    "entropy.blackwell_entropy_estimate": ("lumpchain.entropy", "blackwell_entropy_estimate"),
    "lumping.split_merge_index": ("lumpchain.lumping", "split_merge_index"),
    "lumping.entropy_loss_bound": ("lumpchain.lumping", "entropy_loss_bound"),
    "lumping.check_single_entry": ("lumpchain.lumping", "check_single_entry"),
    "lumping.check_sfs": ("lumpchain.lumping", "check_sfs"),
    "lumping.check_strong_lumpable": ("lumpchain.lumping", "check_strong_lumpable"),
    "lumping.check_weak_lumpable": ("lumpchain.lumping", "check_weak_lumpable"),
    "lumping.preimage_count": ("lumpchain.lumping", "preimage_count"),
    "simulate.empirical_growth": ("lumpchain.simulate", "empirical_growth"),
}
STATIONARY = "chain.stationary"
# spans whose result size is recorded: the live words a forward pass returns
_COUNT_RESULT = {"entropy.lumped_forward"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    words: int = 0


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if name in _COUNT_RESULT:
            self.spans[idx].words = len(result)
        return result

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every traced function that exists; return the names missing."""
        missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lumpchain" or n.startswith("lumpchain."))]
        for name, (mod_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        chain_cls = getattr(importlib.import_module("lumpchain.chain"), "MarkovChain", None)
        prop = getattr(chain_cls, "stationary", None) if chain_cls else None
        if isinstance(prop, property):
            tracer, fget = self, prop.fget

            def first_access(chain):
                cache = getattr(chain, "_cache", None)
                if cache is not None and "stationary" in cache:
                    return fget(chain)
                return tracer.call(STATIONARY, fget, chain)

            setattr(chain_cls, "stationary", property(first_access, doc=prop.__doc__))
            self._undo.append((chain_cls, "stationary", prop))
        else:
            missing.append(STATIONARY)
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and words returned."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        a = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "words": 0})
        a["calls"] += 1
        a["total_s"] += s.end - s.start
        a["self_s"] += own
        a["words"] += s.words
    return out
