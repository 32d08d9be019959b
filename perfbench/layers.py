"""Where the tracer hooks into infodist, and the per-layer metrics.

Each entry wraps one public function at every module attribute through
which the benchmark or the library calls it.  A module that did
``from .games import value`` holds its own binding, so ``distance.value`` is
wrapped as well as ``games.value``.
"""

from __future__ import annotations

from dataclasses import replace

import scipy.optimize._linprog_highs as linprog_highs

from infodist import catalog, distance, games, hierarchy, lp, markov, payoffs, structures

from spans import OP_LAYER, Span, Tracer, layer_self_seconds, op_seconds

# Layer keys, in the order the per-layer self times are reported.
SELF_TIME_METRICS = {
    "structures": "structures.ms",
    "catalog": "catalog.ms",
    "distance": "distance.self_ms",
    "games.value": "games.value.self_ms",
    "lp": "lp.self_ms",
    "linprog": "linprog.self_ms",
    "highs": "highs.ms",
    "hierarchy": "hierarchy.ms",
    "payoffs": "payoffs.ms",
    "markov.report": "markov.report_ms",
    "markov.implication": "markov.implication_ms",
    OP_LAYER: "bench.self_ms",
}

# Count metrics: deterministic for given inputs, so they repeat exactly when
# taken over the same ops.
COUNT_METRICS = (
    "games.value.calls",
    "lp.solves",
    "lp.rows_per_solve",
    "lp.nnz_per_solve",
    "lp.failures",
    "distance.witness_solves",
    "highs.iterations",
)

_STRUCTURES = ("validate_structure", "garble", "embed_signals", "common_embedding", "l1_distance")
_CATALOG = (
    "canonical_examples",
    "blackwell_structure",
    "blackwell_d1_closed_form",
    "ladder_structure",
    "email_game",
    "approx_knowledge_pair",
    "counterexample_pairs",
    "common_knowledge",
    "no_information",
    "parity_coordination_game",
)
_DISTANCE = (
    "value_distance",
    "one_sided_gap",
    "witness_game",
    "is_better",
    "single_agent_distance",
    "diameter_bounds",
)


def _lp_detail(args, kwargs, result):
    problem = args[0]
    return {"rows": problem.n_rows, "nnz": int(problem.coefficients.size)}


def _linprog_detail(args, kwargs, result):
    return {"nit": int(result.nit)}


def _markov_detail(args, kwargs, result):
    return {"tuples": result.n_tuples}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark's ops cross."""
    for module in (structures, distance, catalog):
        for attr in _STRUCTURES:
            if hasattr(module, attr):
                tracer.wrap(module, attr, f"structures.{attr}", "structures")
    for attr in _CATALOG:
        tracer.wrap(catalog, attr, f"catalog.{attr}", "catalog")
    for attr in _DISTANCE:
        tracer.wrap(distance, attr, f"distance.{attr}", "distance")
    tracer.wrap(payoffs, "value_distance", "distance.value_distance", "distance")
    tracer.wrap(games, "value", "games.value", "games.value")
    tracer.wrap(distance, "value", "games.value", "games.value")
    tracer.wrap(lp, "solve", "lp.solve", "lp", _lp_detail)
    tracer.wrap(lp, "linprog", "linprog", "linprog", _linprog_detail)
    tracer.wrap(linprog_highs, "_highs_wrapper", "highs", "highs")
    for attr in ("reduce_redundancy", "ck_decompose", "dnzs"):
        tracer.wrap(hierarchy, attr, f"hierarchy.{attr}", "hierarchy")
    for attr in ("verify_feasible_bound", "feasible_set", "hausdorff_max"):
        tracer.wrap(payoffs, attr, f"payoffs.{attr}", "payoffs")
    tracer.wrap(markov, "concentration_report", "markov.concentration_report", "markov.report", _markov_detail)
    tracer.wrap(
        markov, "mixing_implication_check", "markov.mixing_implication_check", "markov.implication", _markov_detail
    )


def _under(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], scale: dict[int, float] | None = None) -> dict[str, float]:
    """Per-op layer numbers from the spans of a traced run.

    Every span time is multiplied by ``scale[op_id]`` of its op (1 when
    absent).  Times and counts are divided by the number of traced ops; the
    ``*_per_*`` ratios are divided by their own base.  The self times, summed
    over layers, equal ``traced_op_ms``.
    """
    if scale:
        spans = [replace(s, start=s.start * scale[s.op_id], end=s.end * scale[s.op_id]) for s in spans]
    n_ops = sum(1 for s in spans if s.parent is None)
    per_op = 1.0 / max(n_ops, 1)
    self_seconds = layer_self_seconds(spans)
    out = {
        metric: 1e3 * self_seconds.get(layer, 0.0) * per_op
        for layer, metric in SELF_TIME_METRICS.items()
    }
    out["traced_op_ms"] = 1e3 * op_seconds(spans) * per_op

    solves = [i for i, s in enumerate(spans) if s.name == "lp.solve"]
    done = [spans[i] for i in solves if spans[i].error is None]
    nit = sum(s.detail["nit"] for s in spans if s.name == "linprog" and s.error is None)
    highs_s = sum(s.duration for s in spans if s.name == "highs")
    witness_calls = sum(1 for s in spans if s.name == "distance.witness_game")
    markov_spans = [s for s in spans if s.layer.startswith("markov.") and s.error is None]

    out["games.value.calls"] = sum(1 for s in spans if s.name == "games.value") * per_op
    out["lp.solves"] = len(solves) * per_op
    out["lp.rows_per_solve"] = sum(s.detail["rows"] for s in done) / max(len(done), 1)
    out["lp.nnz_per_solve"] = sum(s.detail["nnz"] for s in done) / max(len(done), 1)
    out["lp.failures"] = sum(1 for i in solves if spans[i].error) * per_op
    out["distance.witness_solves"] = (
        sum(1 for i in solves if _under(spans, i, "distance.witness_game")) / max(witness_calls, 1)
    )
    out["highs.iterations"] = nit * per_op
    out["highs.ms_per_iteration"] = 1e3 * highs_s / nit if nit else 0.0
    markov_s = sum(s.duration for s in markov_spans)
    out["markov.tuples_per_s"] = (
        sum(s.detail["tuples"] for s in markov_spans) / markov_s if markov_s else 0.0
    )
    return out

