"""The benchmark's tracer hooks still find every library attribute they wrap.

``perfbench/layers.py`` wraps library functions by module attribute
(``distance.value``, ``lp.linprog``, scipy's ``_highs_wrapper`` ...), so a
renamed or dropped attribute breaks ``perfbench/run.py --trace 1``.  This
traces one small op the way the benchmark does and reads ``perfbench/`` only.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize._linprog_highs as linprog_highs

from infodist import catalog, distance, games, hierarchy, lp, markov, payoffs, structures

from conftest import random_structure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

_MODULES = (catalog, distance, games, hierarchy, lp, markov, payoffs, structures, linprog_highs)


def test_traced_op_records_every_layer_and_restores():
    rng = np.random.default_rng(7)
    u = random_structure(rng, 2, 3, 2)
    v = random_structure(rng, 2, 2, 3)
    before = [dict(vars(module)) for module in _MODULES]
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert lp.solve is not before[_MODULES.index(lp)]["solve"]
        tracer.active = True
        op = tracer.begin_op("value_distance + witness_game")
        distance.value_distance(u, v)
        distance.witness_game(u, v)
        tracer.close(op)
        tracer.active = False
    finally:
        tracer.restore()

    names = {span.name for span in tracer.spans}
    assert {"lp.solve", "linprog", "distance.witness_game"} <= names
    # lp.linprog is the HiGHS call and reports its iterations; scipy's
    # _highs_wrapper is still wrapped but no longer called.
    assert "highs" not in names
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["highs.iterations"] > 0
    assert metrics["lp.solves"] == 2  # one gap solve each way
    assert metrics["distance.witness_solves"] == 0  # no lp.solve under witness_game
    for module, attrs in zip(_MODULES, before):
        assert all(getattr(module, name) is value for name, value in attrs.items())


def test_traced_pair_on_two_threads_keeps_one_span_stack(monkeypatch, two_cpus):
    # A K=4, L=6 pair has 1,800 entries per gap LP, so value_distance hands
    # the (v, u) run to a helper thread.  Both models still pass through the
    # wrapped lp.solve and lp.linprog on this thread, in order.
    rng = np.random.default_rng(8)
    u = random_structure(rng, 4, 6, 6)
    v = random_structure(rng, 4, 6, 6)
    problems = [distance._gap_problem(u, v)[0], distance._gap_problem(v, u)[0]]
    assert [problem.coefficients.size for problem in problems] == [1800, 1800]
    nit = [lp.linprog(problem).nit for problem in problems]
    handed = []
    handoff = lp._Handoff
    monkeypatch.setattr(lp, "_Handoff", lambda problem: handed.append(problem) or handoff(problem))
    before = [dict(vars(module)) for module in _MODULES]
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        tracer.active = True
        op = tracer.begin_op("value_distance")
        distance.value_distance(u, v)
        tracer.close(op)
        tracer.active = False
    finally:
        tracer.restore()

    assert len(handed) == 1
    assert all(np.isfinite(span.end) and span.error is None for span in tracer.spans)
    linprog_spans = [span for span in tracer.spans if span.name == "linprog"]
    assert [tracer.spans[span.parent].name for span in linprog_spans] == ["lp.solve"] * 2
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["lp.solves"] == 2
    assert metrics["highs.iterations"] == sum(nit) > 0
    self_ms = sum(metrics[name] for name in layers.SELF_TIME_METRICS.values())
    assert self_ms == pytest.approx(metrics["traced_op_ms"], rel=1e-9)
    for module, attrs in zip(_MODULES, before):
        assert all(getattr(module, name) is value for name, value in attrs.items())
