"""Shared fixtures: the model corpus and its expected structural traits.

Each model file under models/ is a chain plus lumping with a known verdict
profile. ``TRAITS`` records the profile (None for the split-merge index means
no witness exists); tests assert against it and, where cheap, re-derive it by
brute force via ``oracles``.
"""

import importlib.util
import json
import os
import pathlib
import sys

import numpy as np
import pytest

import lumpchain
from lumpchain import parse_model

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"

# kappa None = no split-merge witness (infinite index)
TRAITS = {
    "lossy_strong2": dict(kappa=1, se=False, sfs2=False,
                          strong1=False, strong2=True, weak1=False),
    "weak_not_strong": dict(kappa=1, se=False, sfs2=False,
                            strong1=False, strong2=False, weak1=True),
    "merge_eps": dict(kappa=1, se=False, sfs2=False,
                      strong1=False, strong2=True, weak1=True),
    "merge_hub": dict(kappa=1, se=False, sfs2=False,
                      strong1=True, strong2=True, weak1=True),
    "tagged_branches": dict(kappa=None, se=False, sfs2=False,
                            strong1=False, strong2=True, weak1=True),
    "parallel_cycle": dict(kappa=None, se=True, sfs2=False,
                           strong1=True, strong2=True, weak1=True),
    "sticky_pair": dict(kappa=None, se=True, sfs2=False,
                        strong1=False, strong2=False, weak1=False),
    "unique_entry": dict(kappa=None, se=True, sfs2=True,
                         strong1=False, strong2=True, weak1=False),
    "lossless_sticky": dict(kappa=None, se=False, sfs2=False,
                            strong1=False, strong2=False, weak1=False),
}

CORPUS = tuple(TRAITS)


def pytest_configure(config):
    """Refuse a run that would test another tree than PYTHONPATH names.

    pytest's ``pythonpath = ["src"]`` puts this checkout's library ahead of
    PYTHONPATH, so a run meant for another tree's ``src`` would quietly test
    this one. The first PYTHONPATH entry that holds a ``lumpchain`` package
    must be the package the tests imported; later entries do not count.
    """
    imported = pathlib.Path(lumpchain.__file__).resolve().parent
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        named = pathlib.Path(entry).resolve() / "lumpchain"
        if (named / "__init__.py").is_file():
            if named != imported:
                raise pytest.UsageError(
                    f"PYTHONPATH names the lumpchain package at {named}, but the tests "
                    f"imported {imported}; run them from that tree's own checkout")
            return


def model_path(name: str) -> str:
    return str(MODELS_DIR / f"{name}.json")


def load_model(name: str):
    return parse_model(model_path(name))


def bench_workloads():
    """``bench/workloads.py``, loaded read-only, for tests that pin the
    library on the benchmark's own inputs."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", MODELS_DIR.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def raw_blocks(name: str):
    """(matrix as floats, block index per state) straight from the file."""
    from fractions import Fraction

    with open(model_path(name)) as fh:
        raw = json.load(fh)
    matrix = [[float(Fraction(str(v))) for v in row]
              for row in raw["transition_matrix"]]
    labels = []
    blocks = []
    for s in raw["states"]:
        b = raw["lumping"][s]
        if b not in labels:
            labels.append(b)
        blocks.append(labels.index(b))
    return matrix, blocks


@pytest.fixture(params=CORPUS)
def corpus_case(request):
    chain, lumping = load_model(request.param)
    return request.param, chain, lumping, TRAITS[request.param]


@pytest.fixture
def draws(monkeypatch):
    """The seeds numpy's generator is asked for during a test."""
    seen = []
    draw = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seen.append(a) or draw(*a))
    return seen
