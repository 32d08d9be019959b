"""Self-time arithmetic of the span tracer, on synthetic traces.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
import types
from pathlib import Path

import pytest

from spans import OP_LAYER, Span, Tracer, layer_self_seconds, op_seconds, self_times

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _span(name, layer, start, end, parent, op_id=0, **detail):
    return Span(name, layer, start, parent, op_id, end=end, detail=detail)


def _synthetic():
    # op [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3].
    # A second op [10, 12] has no children.
    return [
        _span("op", OP_LAYER, 0.0, 10.0, None),
        _span("a", "distance", 1.0, 4.0, 0),
        _span("b", "lp", 2.0, 3.0, 1),
        _span("c", "lp", 5.0, 9.0, 0),
        _span("op", OP_LAYER, 10.0, 12.0, None, op_id=1),
    ]


def test_self_time_is_duration_minus_children():
    assert self_times(_synthetic()) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_layer_self_times_add_up_to_op_time():
    spans = _synthetic()
    layers = layer_self_seconds(spans)
    assert layers == {OP_LAYER: 5.0, "distance": 2.0, "lp": 5.0}
    assert op_seconds(spans) == 12.0 == sum(layers.values())


def test_tracer_records_nesting_errors_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    def broken():
        raise KeyError("boom")

    module.broken = broken
    originals = dict(vars(module))
    tracer.wrap(module, "inner", "inner", "lp", lambda args, kwargs, result: {"arg": args[0]})
    tracer.wrap(module, "outer", "outer", "distance")
    tracer.wrap(module, "broken", "broken", "lp")

    assert module.outer(1) == 4  # inactive: nothing recorded
    assert tracer.spans == []

    tracer.active = True
    op = tracer.begin_op("op")
    assert module.outer(1) == 4
    with pytest.raises(KeyError):
        module.broken()
    tracer.close(op)
    tracer.active = False

    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("op", None, None), ("outer", 0, None), ("inner", 1, None), ("broken", 0, "KeyError")]
    assert tracer.spans[2].detail == {"arg": 1}
    # Ticks: op 0-7, outer 1-4, inner 2-3, broken 5-6.
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 1.0]

    tracer.restore()
    assert dict(vars(module)) == originals


def test_layer_metrics_per_op():
    from layers import SELF_TIME_METRICS, layer_metrics

    spans = [
        _span("op", OP_LAYER, 0.0, 0.010, None),
        _span("distance.witness_game", "distance", 0.001, 0.008, 0),
        _span("lp.solve", "lp", 0.002, 0.004, 1, rows=10, nnz=40),
        _span("linprog", "linprog", 0.0025, 0.0035, 2, nit=7),
        _span("highs", "highs", 0.003, 0.0034, 3),
        _span("lp.solve", "lp", 0.005, 0.006, 1, rows=20, nnz=60),
        _span("linprog", "linprog", 0.0052, 0.0058, 5, nit=3),
        _span("highs", "highs", 0.0053, 0.0055, 6),
        _span("op", OP_LAYER, 0.010, 0.012, None, op_id=1),
        _span("lp.solve", "lp", 0.0105, 0.0115, 8),
    ]
    spans[-1].error = "NumericalFailure"
    m = layer_metrics(spans)
    assert m["traced_op_ms"] == pytest.approx(6.0)
    assert sum(m[name] for name in SELF_TIME_METRICS.values()) == pytest.approx(m["traced_op_ms"])
    assert m["lp.solves"] == 1.5
    assert m["lp.failures"] == 0.5
    assert m["lp.rows_per_solve"] == 15.0
    assert m["lp.nnz_per_solve"] == 50.0
    assert m["distance.witness_solves"] == 2.0
    assert m["highs.iterations"] == 5.0
    assert m["highs.ms_per_iteration"] == pytest.approx(0.6 / 10)
    assert m["highs.ms"] == pytest.approx(0.3)
