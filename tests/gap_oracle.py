"""Reference for ``infodist.distance``'s gap LP: the plain LP on the common
embedding, as the library built it before the LP was trimmed and scaled.

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
    problem = lp.LpProblem(
        objective=np.concatenate((np.zeros(n_cells), -np.ones(n1), np.ones(n2))),
        row_idx=np.concatenate((u_rows, v_rows, ce, n_q1 + df)),
        col_idx=np.concatenate((u_cols, v_cols, n_cells + ce // l1, n_cells + n1 + df // l2)),
        coefficients=np.concatenate((u_vals, v_vals, -np.ones(n_q1), np.ones(df.size))),
        row_lower=np.full(n_rows, -np.inf),
        row_upper=np.zeros(n_rows),
        col_lower=np.concatenate((np.full(n_cells, -1.0), np.full(n1 + n2, -np.inf))),
        col_upper=np.concatenate((np.ones(n_cells), np.full(n1 + n2, np.inf))),
        maximize=True,
    )
    sol = lp.solve(problem)
    assert sol.status == lp.OPTIMAL
    return max(sol.objective, 0.0)
