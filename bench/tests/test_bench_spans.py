import pytest

import lumpchain as lc
import lumpchain.entropy as ent
import lumpchain.lumping as lp
import lumpchain.simulate as sim
from spans import LAYERS, Span, Tracer, aggregate, self_times


def test_self_time_on_hand_built_tree():
    #  op [0, 10]
    #  +- a [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    #     +- d [5, 6]
    #     +- e [7, 8.5]
    spans = [Span("op", 0, 10), Span("a", 1, 4, parent=0), Span("c", 2, 3, parent=1),
             Span("b", 5, 9, parent=0), Span("d", 5, 6, parent=3),
             Span("e", 7, 8.5, parent=3)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # self times of all spans add up to the root's wall time
    assert sum(a["self_s"] for a in aggregate(spans).values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [Span("p", 0, 10), Span("x", 1, 5, parent=0), Span("y", 3, 6, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_child_clipped_to_parent():
    spans = [Span("p", 0, 2), Span("c", 1, 5, parent=0)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])


def _small_case():
    chain = lc.build_chain([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.0, 0.6]])
    return chain, lc.build_lumping(chain, {"0": "A", "1": "A", "2": "B"})


def test_install_wraps_every_alias_and_uninstall_restores():
    originals = {"ent": ent.lumped_forward, "lp": lp.lumped_forward,
                 "sim": sim.preimage_count, "pkg": lc.run_analysis,
                 "stationary": lc.MarkovChain.__dict__["stationary"]}
    tracer = Tracer()
    assert tracer.install() == []
    try:
        assert ent.lumped_forward is lp.lumped_forward is not originals["ent"]
        assert sim.preimage_count is lp.preimage_count is lc.preimage_count
        assert sim.preimage_count is not originals["sim"]
        chain, lumping = _small_case()
        lc.run_analysis(chain, lumping, lc.AnalysisConfig(horizons=(1, 2), k_range=(1, 2),
                                                          weak_horizon=2))
        lc.empirical_growth(chain, lumping, 60, [1])
    finally:
        tracer.uninstall()
    assert ent.lumped_forward is originals["ent"] and lp.lumped_forward is originals["lp"]
    assert sim.preimage_count is originals["sim"] and lc.run_analysis is originals["pkg"]
    assert lc.MarkovChain.__dict__["stationary"] is originals["stationary"]

    agg = aggregate(tracer.spans)
    assert agg["chain.stationary"]["calls"] == 1  # first access only
    assert agg["lumping.preimage_count"]["calls"] == 2  # checkpoints 10 and 50
    assert agg["entropy.lumped_forward"]["words"] > 0
    names = {s.name for s in tracer.spans}
    assert {"cli.run_analysis", "lumping.check_weak_lumpable",
            "entropy.lumped_rate_bounds", "simulate.empirical_growth"} <= names
    by_index = tracer.spans
    for s in by_index:
        if s.name == "entropy.lumped_forward":
            assert by_index[s.parent].name != "entropy.lumped_forward"
    assert all(s.end >= s.start for s in tracer.spans)


def test_missing_layer_is_reported(monkeypatch):
    monkeypatch.setitem(LAYERS, "cli.gone", ("lumpchain.cli", "no_such_function"))
    tracer = Tracer()
    try:
        assert tracer.install() == ["cli.gone"]
    finally:
        tracer.uninstall()


def test_exception_closes_span():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("x", lambda: 1 / 0)
    assert tracer.spans[0].end >= tracer.spans[0].start
    tracer.call("y", lambda: None)
    assert tracer.spans[1].parent == -1
