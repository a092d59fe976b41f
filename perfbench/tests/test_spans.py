"""Span arithmetic and the install/restore of the tracing wrappers."""

import sys

import numpy as np
import pytest

import ruledgeom
import ruledgeom.cli  # noqa: F401  (loads every layer module)
import spans
from ruledgeom import catalog


def tree():
    # op [0,10] > a [1,6] > (b [2,3], c [4,5]);  op > d [7,9] > e [7.5,8]
    S = spans.Span
    return [S(0, -1, 0, "op", 0.0, 10.0),
            S(1, 0, 0, "surface.analyze", 1.0, 6.0, {"samples": 7}),
            S(2, 1, 0, "surface.analyze", 2.0, 3.0, {"samples": 5}),
            S(3, 1, 0, "catalog.oracle", 4.0, 5.0),
            S(4, 0, 0, "dual.dual_mul", 7.0, 9.0),
            S(5, 4, 0, "dual.dual_div", 7.5, 8.0)]


def test_self_times_subtract_direct_children():
    assert spans.self_times(tree()) == [3.0, 3.0, 1.0, 1.0, 1.5, 0.5]


def test_layer_stats_counts_nested_same_name_once():
    st = spans.layer_stats(tree())
    assert st["surface.analyze.calls"] == 2
    assert st["surface.analyze.s"] == 5.0          # outer span only
    assert st["surface.analyze.self_s"] == 4.0     # 3 + 1
    assert st["surface.analyze.samples"] == 12
    assert st["catalog.oracle.s"] == 1.0
    assert st["dual.calls"] == 2
    assert st["dual.s"] == 2.0                     # dual_div nests in dual_mul
    assert st["dual.dual_div.s"] == 0.5
    assert "op.calls" in st and "op.s" in st


def snapshot():
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.startswith("ruledgeom")]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (ruledgeom.config.RunConfig, ruledgeom.surface.Reparametrization):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def small_job():
    a = ruledgeom.analyze(catalog.cone(np.pi / 4, (0.0, 3.0), 101))
    a.invariants()
    return a


def test_wrappers_are_restored_after_a_traced_run():
    before = snapshot()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert ruledgeom.analyze is not before[("ruledgeom", "analyze")]
        assert ruledgeom.verify.analyze is ruledgeom.surface.analyze
        small_job()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s.name for s in tracer.spans}
    assert {"surface.analyze", "surface.dual_invariants", "catalog.oracle",
            "surface.Reparametrization", "dual.dual_div"} <= names


def test_wrappers_are_restored_when_the_run_raises():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    after = snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_untraced_run_records_nothing():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        pass
    small_job()
    assert tracer.spans == []
