"""Shared fixtures: the model corpus and its expected structural traits.

Each model file under models/ is a chain plus lumping with a known verdict
profile. ``TRAITS`` records the profile (None for the split-merge index means
no witness exists); tests assert against it and, where cheap, re-derive it by
brute force via ``oracles``.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

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
