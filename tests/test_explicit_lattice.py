"""Readers of one explicit block-word lattice, and their integer arguments.

``lumped_rate_bounds``, ``check_strong_lumpable`` and ``check_weak_lumpable``
read a ``BlockWordLattice`` passed as ``lattice=``, or build the one their
call needs. A lattice that does not cover the call is refused before any
pass; one that covers it reads exactly as a standalone call. Orders and
horizons must be integers (numpy integers too, but not ``bool``), refused
before any pass otherwise, and results hold Python ints.
"""

import numpy as np
import pytest

from conftest import MODELS_DIR
from lumpchain import (
    AnalysisConfig,
    build_lumping,
    check_sfs,
    check_strong_lumpable,
    check_weak_lumpable,
    conditional_entropy_rate_estimate,
    format_report,
    lumped_block_entropy,
    lumped_rate_bounds,
    parse_model,
    run_analysis,
)
from lumpchain.entropy import BlockWordLattice
from lumpchain.errors import ValidationError
from test_lower_pass import count_calls

MODELS = sorted(MODELS_DIR.glob("*.json"))

# reader -> (call at horizon 3 with a lattice, the depths it needs: upper, lower)
READERS = {
    "bounds": (lambda c, g, lat: lumped_rate_bounds(c, g, 3, lattice=lat), (3, 3)),
    "strong": (lambda c, g, lat: check_strong_lumpable(c, g, 3, lattice=lat), (3, 3)),
    "weak": (lambda c, g, lat: check_weak_lumpable(c, g, 1, 3, lattice=lat), (3, 0)),
}


def _short_lattices(path, chain, lumping, upper, lower):
    """Lattices that miss a call needing these depths in one way each; the
    other chain is a second parse of the same model file."""
    other_chain, _ = parse_model(str(path))
    lattices = {"other-chain": BlockWordLattice(other_chain, lumping, upper, lower),
                "other-lumping": BlockWordLattice(chain, build_lumping(chain, lumping.map),
                                                  upper, lower),
                "shallow-upper": BlockWordLattice(chain, lumping, upper - 1, lower)}
    if lower:
        lattices["shallow-lower"] = BlockWordLattice(chain, lumping, upper, lower - 1)
    return lattices


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_lattice_that_does_not_cover_the_call_is_refused_before_any_pass(monkeypatch,
                                                                          reader):
    call, (upper, lower) = READERS[reader]
    path = MODELS_DIR / "weak_not_strong.json"
    chain, lumping = parse_model(str(path))
    lattices = _short_lattices(path, chain, lumping, upper, lower)
    assert len(lattices) == (4 if lower else 3)
    forward = count_calls(monkeypatch, "lumped_forward")
    backward = count_calls(monkeypatch, "_lower_levels")
    for lat in lattices.values():
        with pytest.raises(ValidationError, match="does not cover"):
            call(chain, lumping, lat)
    assert (forward, backward) == ([], [])


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_a_deeper_lattice_reads_as_a_standalone_call(path):
    chain, lumping = parse_model(str(path))
    lat = BlockWordLattice(chain, lumping, 7, 7)
    for h in range(1, 7):
        assert (repr(lumped_rate_bounds(chain, lumping, h, lattice=lat))
                == repr(lumped_rate_bounds(chain, lumping, h)))
        assert (repr(check_strong_lumpable(chain, lumping, h, lattice=lat))
                == repr(check_strong_lumpable(chain, lumping, h)))
        for k in range(1, min(h, 2) + 1):
            assert (repr(check_weak_lumpable(chain, lumping, k, h, lattice=lat))
                    == repr(check_weak_lumpable(chain, lumping, k, h)))


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"], ids=repr)
def test_orders_and_horizons_must_be_integers(monkeypatch, bad):
    chain, lumping = parse_model(str(MODELS_DIR / "lossy_strong2.json"))
    forward = count_calls(monkeypatch, "lumped_forward")
    backward = count_calls(monkeypatch, "_lower_levels")
    calls = [
        lambda: lumped_rate_bounds(chain, lumping, bad),
        lambda: lumped_block_entropy(chain, lumping, bad),
        lambda: conditional_entropy_rate_estimate(chain, lumping, bad),
        lambda: check_strong_lumpable(chain, lumping, bad),
        lambda: check_weak_lumpable(chain, lumping, bad, 3),
        lambda: check_weak_lumpable(chain, lumping, 1, bad),
        lambda: check_sfs(chain, lumping, bad),
        lambda: run_analysis(chain, lumping, AnalysisConfig(horizons=(1, bad))),
        lambda: run_analysis(chain, lumping, AnalysisConfig(k_range=(1, bad))),
        lambda: run_analysis(chain, lumping, AnalysisConfig(weak_horizon=bad)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=rf"must be an integer, got {bad!r}$"):
            call()
    assert (forward, backward) == ([], [])


def test_numpy_integer_orders_and_horizons_give_python_ints():
    chain, lumping = parse_model(str(MODELS_DIR / "lossy_strong2.json"))
    two = np.int64(2)
    config = AnalysisConfig(horizons=(1, two), k_range=(1, two), weak_horizon=two)
    report = run_analysis(chain, lumping, config)
    want = run_analysis(chain, lumping, AnalysisConfig(horizons=(1, 2), k_range=(1, 2),
                                                       weak_horizon=2))
    assert format_report(report, "json") == format_report(want, "json")
    assert repr(report) == repr(want)
    assert repr(lumped_rate_bounds(chain, lumping, two)) == repr(
        lumped_rate_bounds(chain, lumping, 2))
    assert repr(conditional_entropy_rate_estimate(chain, lumping, two)) == repr(
        conditional_entropy_rate_estimate(chain, lumping, 2))
    assert repr(check_strong_lumpable(chain, lumping, two)) == repr(
        check_strong_lumpable(chain, lumping, 2))
    assert repr(check_weak_lumpable(chain, lumping, two, two)) == repr(
        check_weak_lumpable(chain, lumping, 2, 2))
    assert repr(check_sfs(chain, lumping, two)) == repr(check_sfs(chain, lumping, 2))
    assert lumped_block_entropy(chain, lumping, two) == lumped_block_entropy(chain, lumping, 2)
