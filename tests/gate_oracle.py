"""Reference for ``infodist.lp``'s residual gates.

``_residuals`` below is the gate function as ``lp.solve`` used it before
its residuals were gathered into fewer passes, copied unchanged.  The
library's ``lp._residuals`` must return the same (primal, dual-sign, gap)
triple on every input, so a solve passes or fails its gates exactly as it
did.
"""

from __future__ import annotations

import numpy as np

from infodist.lp import LpProblem


def _residuals(
    problem: LpProblem,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    duals_min: np.ndarray,
) -> tuple[float, float, float]:
    """(primal, dual-sign, relative-gap) residuals, minimization orientation.

    A.x and A^T.lam are one ``np.bincount`` each over the column-wise
    arrays HiGHS was given, so the gates check the matrix HiGHS solved.
    """
    row_lower, row_upper = problem.row_lower, problem.row_upper
    lower, upper = problem.col_lower, problem.col_upper
    c_min = -problem.objective if problem.maximize else problem.objective
    lam = -duals_min  # legal: >= 0 on <= rows, <= 0 on >= rows
    ax = np.bincount(rows, weights=x[cols] * vals, minlength=problem.n_rows)
    at_lam = np.bincount(cols, weights=lam[rows] * vals, minlength=problem.n_vars)
    primal = float(np.maximum(row_lower - ax, ax - row_upper).max(initial=0.0))
    if x.size:
        primal = max(primal, float((lower - x).max()), float((x - upper).max()))

    leq = row_lower == -np.inf
    geq = row_upper == np.inf
    dual_sign = float(np.where(leq, -lam, np.where(geq, lam, 0.0)).max(initial=0.0))
    reduced = c_min + at_lam
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)
    rho_lo = np.where(finite_lo, np.maximum(reduced, 0.0), 0.0)
    rho_up = np.where(finite_up, np.maximum(-reduced, 0.0), 0.0)
    # Stationarity violations that bound multipliers cannot absorb.
    leftover = reduced - rho_lo + rho_up
    dual_sign = max(dual_sign, float(np.abs(leftover).max(initial=0.0)))

    # The bound lam prices: a one-sided row's finite one, whatever lam's
    # sign (a wrong sign shows in dual_sign); a two-sided row's upper bound
    # when lam > 0, else its lower.
    rhs = np.where(leq | (lam > 0) & ~geq, row_upper, row_lower)
    dual_obj = -(rhs @ lam)
    dual_obj += float((np.where(finite_lo, lower, 0.0) * rho_lo).sum())
    dual_obj -= float((np.where(finite_up, upper, 0.0) * rho_up).sum())
    primal_obj = float(c_min @ x)
    gap = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))
    return primal, dual_sign, gap
