"""The benchmark's tracer hooks still find every library attribute they wrap.

``perfbench/layers.py`` wraps library functions by module attribute
(``distance.value``, ``lp.linprog``, scipy's ``_highs_wrapper`` ...), so a
renamed or dropped attribute breaks ``perfbench/run.py --trace 1``.  This
traces one small op the way the benchmark does and reads ``perfbench/`` only.
"""

import sys
from pathlib import Path

import numpy as np
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
    assert {"lp.solve", "linprog", "highs", "distance.witness_game"} <= names
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["lp.solves"] == 2  # one gap solve each way
    assert metrics["distance.witness_solves"] == 0  # no lp.solve under witness_game
    for module, attrs in zip(_MODULES, before):
        assert all(getattr(module, name) is value for name, value in attrs.items())
