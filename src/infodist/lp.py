"""Deterministic linear programming with primal and dual extraction.

Thin adapter over scipy's HiGHS backend.  The contract the rest of the
package relies on:

- ``solve`` is deterministic for identical input (HiGHS, single thread),
- optimal solutions carry row duals oriented so that ``dual[i]`` is the
  derivative of the *reported* objective with respect to ``rhs[i]``,
- primal feasibility residual <= 1e-8, duality gap <= 1e-8 * (1 + |obj|),
  else ``NumericalFailure``, which propagates to the caller,
- HiGHS runs at feasibility tolerances an order of magnitude below these
  gates, and no solve is retried anywhere.

For a minimization problem the Lagrange multiplier of a ``<=`` row is
``-dual[i] >= 0``; for a maximization it is ``dual[i] >= 0``, which is how
the gap LP's row duals become garblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .config import LP_TOL
from .errors import NumericalFailure, ShapeMismatch

LEQ = "<="
EQ = "=="
GEQ = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# HiGHS reports duals at slightly looser precision than primals on degenerate
# problems; the dual gate is therefore one order looser than LP_TOL.
_DUAL_GATE = LP_TOL * 10

# HiGHS's own feasibility tolerances default to 1e-7, looser than the gates
# above, so it could call a point optimal that the gates then reject.  It
# runs an order of magnitude below LP_TOL instead.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": LP_TOL / 10,
    "dual_feasibility_tolerance": LP_TOL / 10,
}


@dataclass(frozen=True)
class LpProblem:
    """min/max c.x subject to triplet-sparse rows with mixed senses.

    ``(row_idx, col_idx, coefficients)`` hold the constraint matrix in
    triplet form; ``senses[i]`` in {"<=", "==", ">="}; ``bounds`` per
    variable, None meaning infinite.
    """

    objective: np.ndarray
    row_idx: np.ndarray
    col_idx: np.ndarray
    coefficients: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    bounds: tuple[tuple[float | None, float | None], ...]
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        vals = np.asarray(self.coefficients, dtype=float)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(rhs)) and np.all(np.isfinite(vals))):
            raise ShapeMismatch("LP coefficients must be finite")
        if len(self.senses) != rhs.size:
            raise ShapeMismatch("senses and rhs lengths differ")
        if not np.isin(np.asarray(self.senses, dtype=str), (LEQ, EQ, GEQ)).all():
            raise ShapeMismatch("row sense must be <=, == or >=")
        if len(self.bounds) != c.size:
            raise ShapeMismatch("bounds and objective lengths differ")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "coefficients", vals)
        object.__setattr__(self, "row_idx", np.asarray(self.row_idx, dtype=int))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=int))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.coefficients, (self.row_idx, self.col_idx)),
            shape=(self.n_rows, self.n_vars),
        )


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = float("nan")


def _sense_masks(senses: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the ``<=`` rows and the ``>=`` rows."""
    arr = np.asarray(senses, dtype=str)
    return arr == LEQ, arr == GEQ


def _residuals(
    problem: LpProblem, a: sp.csr_matrix, x: np.ndarray, duals_min: np.ndarray
) -> tuple[float, float, float]:
    """(primal, dual-sign, relative-gap) residuals, minimization orientation;
    ``a`` is ``problem.matrix()``."""
    leq, geq = _sense_masks(problem.senses)
    diff = a @ x - problem.rhs
    primal = float(np.where(leq, diff, np.where(geq, -diff, np.abs(diff))).max(initial=0.0))
    lower = np.array([-np.inf if lo is None else lo for lo, _ in problem.bounds])
    upper = np.array([np.inf if hi is None else hi for _, hi in problem.bounds])
    if x.size:
        primal = max(primal, float(np.max(lower - x)), float(np.max(x - upper)))

    c_min = -problem.objective if problem.maximize else problem.objective
    lam = -duals_min  # legal: >= 0 on <= rows, <= 0 on >= rows
    dual_sign = float(np.where(leq, -lam, np.where(geq, lam, 0.0)).max(initial=0.0))
    reduced = c_min + a.T @ lam
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)
    rho_lo = np.where(finite_lo, np.maximum(reduced, 0.0), 0.0)
    rho_up = np.where(finite_up, np.maximum(-reduced, 0.0), 0.0)
    # Stationarity violations that bound multipliers cannot absorb.
    leftover = reduced - rho_lo + rho_up
    dual_sign = max(dual_sign, float(np.abs(leftover).max(initial=0.0)))

    dual_obj = -(problem.rhs @ lam)
    dual_obj += float(np.sum(np.where(finite_lo, lower, 0.0) * rho_lo))
    dual_obj -= float(np.sum(np.where(finite_up, upper, 0.0) * rho_up))
    primal_obj = float(c_min @ x)
    gap = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))
    return primal, dual_sign, gap


def solve(problem: LpProblem) -> LpSolution:
    """Solve with HiGHS; returns status, primal, row duals, objective."""
    a = problem.matrix()
    leq_mask, geq_mask = _sense_masks(problem.senses)
    ub_rows = np.flatnonzero(leq_mask | geq_mask)
    eq_rows = np.flatnonzero(~(leq_mask | geq_mask))
    sign = np.where(geq_mask[ub_rows], -1.0, 1.0)

    a_ub = sp.diags(sign) @ a[ub_rows] if ub_rows.size else None
    b_ub = sign * problem.rhs[ub_rows] if ub_rows.size else None
    a_eq = a[eq_rows] if eq_rows.size else None
    b_eq = problem.rhs[eq_rows] if eq_rows.size else None

    c = -problem.objective if problem.maximize else problem.objective
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=list(problem.bounds),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED)
    if res.status != 0:
        raise NumericalFailure(f"HiGHS failed: {res.message}")

    duals_min = np.zeros(problem.n_rows)
    if ub_rows.size:
        duals_min[ub_rows] = sign * res.ineqlin.marginals
    if eq_rows.size:
        duals_min[eq_rows] = res.eqlin.marginals

    primal_res, dual_res, gap = _residuals(problem, a, res.x, duals_min)
    if primal_res > LP_TOL or dual_res > _DUAL_GATE or gap > LP_TOL:
        raise NumericalFailure(
            f"residuals beyond gates: primal={primal_res:g} dual={dual_res:g} gap={gap:g}"
        )

    objective = float(problem.objective @ res.x)
    duals = -duals_min if problem.maximize else duals_min
    return LpSolution(status=OPTIMAL, primal=res.x, dual=duals, objective=objective)


def complementary_slackness(problem: LpProblem, solution: LpSolution) -> float:
    """max over inequality rows of |dual_i * slack_i|."""
    slack = problem.rhs - problem.matrix() @ solution.primal
    leq, geq = _sense_masks(problem.senses)
    return float(np.abs(slack * solution.dual)[leq | geq].max(initial=0.0))


def best_response(payoff: np.ndarray, n_blocks: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve the per-signal best-response LP

        max sum_d z_d   s.t.   z_d <= payoff[d, j, :] . x   for every (d, j),

    with x cut into ``n_blocks`` equal consecutive blocks, each on the
    simplex.  Variables are x, then the free z.  Returns the objective, x
    and the (D, J) duals of the (d, j) rows; for each d these are >= 0 and
    sum to 1 by stationarity in z_d.
    """
    n_d, n_j, n_x = payoff.shape
    n_rows = n_d * n_j
    rows = np.arange(n_rows)
    x_cols = np.arange(n_x)
    problem = LpProblem(
        objective=np.concatenate((np.zeros(n_x), np.ones(n_d))),
        row_idx=np.concatenate(
            (np.repeat(rows, n_x), rows, n_rows + x_cols // (n_x // n_blocks))
        ),
        col_idx=np.concatenate((np.tile(x_cols, n_rows), n_x + rows // n_j, x_cols)),
        coefficients=np.concatenate((-payoff.ravel(), np.ones(n_rows), np.ones(n_x))),
        senses=(LEQ,) * n_rows + (EQ,) * n_blocks,
        rhs=np.concatenate((np.zeros(n_rows), np.ones(n_blocks))),
        bounds=((0.0, None),) * n_x + ((None, None),) * n_d,
        maximize=True,
    )
    sol = solve(problem)
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"best-response LP ended with status {sol.status}")
    return sol.objective, sol.primal[:n_x], sol.dual[:n_rows].reshape(n_d, n_j)


def solve_matrix_game(matrix: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixed strategies of a zero-sum matrix game.

    ``matrix[i, j]`` is the payoff to the row maximizer.  Returns
    ``(value, row_strategy, col_strategy)``: the best-response LP with one
    opponent signal, z <= x.A[:, j] for every column j, whose row duals give
    the column strategy.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ShapeMismatch(f"matrix game needs a 2-D payoff array, got {a.shape}")
    n = a.shape[1]
    value, x, duals = best_response(a.T[np.newaxis], 1)
    x = np.clip(x, 0.0, None)
    x /= x.sum()
    y = np.clip(duals[0], 0.0, None)
    total = y.sum()
    y = np.full(n, 1.0 / n) if total <= 0 else y / total
    return value, x, y
