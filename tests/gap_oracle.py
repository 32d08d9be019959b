"""References for ``infodist.distance``'s gap LP.

``triplet_gap_problem`` builds the library's trimmed, scaled gap LP from the
structures' nonzero beliefs, one call at a time, as the library did before
it cached the index arrays per shape, in u's cells and then v's; put in
column-wise order by a stable lexsort, it must match ``_gap_problem`` bit
for bit.

``plain_gap`` solves the plain LP on the common embedding, as the library
built it before the LP was trimmed and scaled, and reads its objective at
the vertex of HiGHS's optimal basis.

The actions range over L1 = max of the player-1 signal counts and L2 = max
of the player-2 signal counts, every signal keeps its rows, and the rows
hold raw masses:

    max  sum_d beta_d - sum_c alpha_c
    s.t. <u(.,c,.), g(.,e,.)> - alpha_c <= 0   for every (c, e),
         beta_d - <v(.,.,d), g(.,.,f)> <= 0    for every (d, f),
         g in [-1, 1]^{K*L1*L2}, alpha and beta free.

The library's LP drops the actions no signal needs and the signals of mass
at most ZERO_TOL, and divides each row by its signal's mass; its optimum
must be this one.
"""

import numpy as np

from infodist import InformationStructure, lp
from infodist.config import LP_TOL, ZERO_TOL

from conftest import columnwise_problem


def _live_signals(masses):
    live = np.flatnonzero(masses > ZERO_TOL)
    return live, masses[live]


def triplet_gap_problem(u: InformationStructure, v: InformationStructure):
    """``distance._gap_problem(u, v)`` built from ``np.nonzero`` of the
    beliefs, its triplets lexsorted into column-wise order.  Returns the
    problem and the layout tuple (shape, live1, mass1, live2, mass2)."""
    n_k = u.state_count
    l1 = v.signals1_count
    l2 = u.signals2_count
    live1, mass1 = _live_signals(u.probs.sum(axis=(0, 2)))
    live2, mass2 = _live_signals(v.probs.sum(axis=(0, 1)))
    n1, n2 = live1.size, live2.size
    n_cells = n_k * l1 * l2
    n_q1 = n1 * l1

    # One triplet per positive belief of u (resp. v) and per e (resp. f).
    beliefs = u.probs[:, live1, :] / mass1[:, None]
    k, c, f = np.nonzero(beliefs > 0.0)
    e = np.arange(l1)
    u_rows = (c[:, None] * l1 + e).ravel()
    u_cols = ((k[:, None] * l1 + e) * l2 + f[:, None]).ravel()
    u_vals = np.repeat(beliefs[k, c, f], l1)
    beliefs = v.probs[:, :, live2] / mass2
    k, e, d = np.nonzero(beliefs > 0.0)
    f = np.arange(l2)
    v_rows = (n_q1 + d[:, None] * l2 + f).ravel()
    v_cols = ((k[:, None] * l1 + e[:, None]) * l2 + f).ravel()
    v_vals = np.repeat(-beliefs[k, e, d], l2)

    # -a_c in every (c,e) row, +b_d in every (d,f) row.
    ce = np.arange(n_q1)
    df = np.arange(n2 * l2)
    n_rows = n_q1 + df.size
    problem = columnwise_problem(
        objective=np.concatenate((np.zeros(n_cells), -mass1, mass2)),
        row_idx=np.concatenate((u_rows, v_rows, ce, n_q1 + df)),
        col_idx=np.concatenate(
            (u_cols, v_cols, n_cells + ce // l1, n_cells + n1 + df // l2)
        ),
        coefficients=np.concatenate((u_vals, v_vals, -np.ones(n_q1), np.ones(df.size))),
        row_lower=np.full(n_rows, -np.inf),
        row_upper=np.zeros(n_rows),
        col_lower=np.concatenate((np.full(n_cells, -1.0), np.full(n1 + n2, -np.inf))),
        col_upper=np.concatenate((np.ones(n_cells), np.full(n1 + n2, np.inf))),
    )
    return problem, ((n_k, l1, l2), live1, mass1, live2, mass2)


def plain_gap(u: InformationStructure, v: InformationStructure) -> float:
    """sup_g (val(v,g) - val(u,g)) from the unscaled common-embedding LP."""
    n_k = u.state_count
    n1 = u.signals1_count
    n2 = v.signals2_count
    l1 = max(n1, v.signals1_count)
    l2 = max(u.signals2_count, n2)
    n_cells = n_k * l1 * l2
    n_q1 = n1 * l1

    k, c, f = np.nonzero(u.probs > 0.0)
    e = np.arange(l1)
    u_rows = (c[:, None] * l1 + e).ravel()
    u_cols = ((k[:, None] * l1 + e) * l2 + f[:, None]).ravel()
    u_vals = np.repeat(u.probs[k, c, f], l1)
    k, e, d = np.nonzero(v.probs > 0.0)
    f = np.arange(l2)
    v_rows = (n_q1 + d[:, None] * l2 + f).ravel()
    v_cols = ((k[:, None] * l1 + e[:, None]) * l2 + f).ravel()
    v_vals = np.repeat(-v.probs[k, e, d], l2)

    ce = np.arange(n_q1)
    df = np.arange(n2 * l2)
    n_rows = n_q1 + df.size
    problem = columnwise_problem(
        objective=np.concatenate((np.zeros(n_cells), -np.ones(n1), np.ones(n2))),
        row_idx=np.concatenate((u_rows, v_rows, ce, n_q1 + df)),
        col_idx=np.concatenate((u_cols, v_cols, n_cells + ce // l1, n_cells + n1 + df // l2)),
        coefficients=np.concatenate((u_vals, v_vals, -np.ones(n_q1), np.ones(df.size))),
        row_lower=np.full(n_rows, -np.inf),
        row_upper=np.zeros(n_rows),
        col_lower=np.concatenate((np.full(n_cells, -1.0), np.full(n1 + n2, -np.inf))),
        col_upper=np.concatenate((np.ones(n_cells), np.full(n1 + n2, np.inf))),
    )
    return max(_vertex_objective(problem), 0.0)


def _vertex_objective(problem: lp.LpProblem) -> float:
    """The objective at the vertex of HiGHS's optimal basis, recomputed by
    one dense solve.  HiGHS stops within its feasibility tolerance, and on
    the plain LP's raw masses that can move its reported objective 1e-11
    off the optimum."""
    highs = lp._highs._Highs()
    highs.passOptions(lp._HIGHS_OPTIONS)
    assert lp._run(highs, problem).status == lp.OPTIMAL
    kind = lp._highs.HighsBasisStatus
    basis = highs.getBasis()
    cols = np.array(basis.col_status)
    tight = np.array(basis.row_status) != kind.kBasic
    dense = np.zeros((problem.n_rows, problem.n_vars))
    np.add.at(dense, (problem.row_idx, problem.col_idx), problem.coefficients)

    # Nonbasic columns sit at a bound (a free one at 0), nonbasic rows at
    # theirs; the basic columns solve the tight rows.
    x = np.where(cols == kind.kLower, problem.col_lower, 0.0)
    x = np.where(cols == kind.kUpper, problem.col_upper, x)
    basic = cols == kind.kBasic
    rhs = np.where(np.array(basis.row_status) == kind.kLower, problem.row_lower, problem.row_upper)
    x[basic] = np.linalg.solve(
        dense[tight][:, basic], rhs[tight] - dense[tight][:, ~basic] @ x[~basic]
    )
    ax = dense @ x
    assert max(np.max(problem.row_lower - ax), np.max(ax - problem.row_upper)) <= LP_TOL
    assert max(np.max(problem.col_lower - x), np.max(x - problem.col_upper)) <= LP_TOL
    return float(problem.objective @ x)
