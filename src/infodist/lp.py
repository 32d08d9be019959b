"""Deterministic linear programming with primal and dual extraction.

Thin adapter over the HiGHS solver that scipy vendors, called through its
private binding ``scipy.optimize._highspy._core`` (the package's only
private scipy import; scipy >= 1.17).  Each solve passes one column-wise
model, ``row_lower <= A.x <= row_upper`` with column bounds, so ``<=``,
``==`` and ``>=`` rows are row bounds.  The contract the rest of the
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
from scipy.optimize._highspy import _core as _highs

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


def _highs_options() -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    # What ``scipy.optimize.linprog(method="highs")`` set: silent, presolve
    # on, dual simplex.
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "on"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    # HiGHS's own feasibility tolerances default to 1e-7, looser than the
    # gates above, so it could call a point optimal that the gates then
    # reject.  It runs an order of magnitude below LP_TOL instead.
    options.primal_feasibility_tolerance = LP_TOL / 10
    options.dual_feasibility_tolerance = LP_TOL / 10
    return options


_HIGHS_OPTIONS = _highs_options()

# HiGHS model status -> solve status, as ``scipy.optimize.linprog`` maps it;
# any other status is a NumericalFailure.
_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kModelError: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
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

    def matrix(self) -> sp.csc_matrix:
        return sp.csc_matrix(
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


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS run: status, primal ``x`` and ``row_dual`` (both empty
    unless OPTIMAL) and ``nit``, simplex plus IPM iterations."""

    status: str
    x: np.ndarray
    row_dual: np.ndarray
    nit: int


def linprog(
    cost: np.ndarray,
    a: sp.csc_matrix,
    row_bounds: tuple[np.ndarray, np.ndarray],
    col_bounds: tuple[np.ndarray, np.ndarray],
) -> HighsResult:
    """min cost.x  s.t.  row_lower <= a.x <= row_upper,  col_lower <= x <= col_upper.

    The one function that talks to HiGHS; ``status`` is OPTIMAL, INFEASIBLE,
    UNBOUNDED or else HiGHS's own name for its model status.  ``solve``
    calls it through this module's global, so a wrapper installed as
    ``lp.linprog`` (the benchmark's tracer) times every HiGHS call and reads
    its ``nit``.
    """
    n_rows, n_cols = a.shape
    model = _highs.HighsLp()
    model.num_col_ = n_cols
    model.num_row_ = n_rows
    model.col_cost_ = cost
    model.col_lower_, model.col_upper_ = col_bounds
    model.row_lower_, model.row_upper_ = row_bounds
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = a.indptr
    matrix.index_ = a.indices
    matrix.value_ = a.data

    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        model_status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    nit = max(info.simplex_iteration_count, 0) + max(info.ipm_iteration_count, 0)
    status = _STATUS.get(model_status) or highs.modelStatusToString(model_status)
    if status != OPTIMAL:
        return HighsResult(status, np.zeros(0), np.zeros(0), nit)
    solution = highs.getSolution()
    return HighsResult(status, np.array(solution.col_value), np.array(solution.row_dual), nit)


def _residuals(
    problem: LpProblem,
    a: sp.csc_matrix,
    row_bounds: tuple[np.ndarray, np.ndarray],
    col_bounds: tuple[np.ndarray, np.ndarray],
    x: np.ndarray,
    duals_min: np.ndarray,
) -> tuple[float, float, float]:
    """(primal, dual-sign, relative-gap) residuals, minimization orientation,
    of the model ``solve`` handed to ``linprog``."""
    row_lower, row_upper = row_bounds
    lower, upper = col_bounds
    ax = a @ x
    primal = float(np.maximum(row_lower - ax, ax - row_upper).max(initial=0.0))
    if x.size:
        primal = max(primal, float(np.max(lower - x)), float(np.max(x - upper)))

    c_min = -problem.objective if problem.maximize else problem.objective
    lam = -duals_min  # legal: >= 0 on <= rows, <= 0 on >= rows
    leq = np.isneginf(row_lower)
    geq = np.isposinf(row_upper)
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
    leq, geq = _sense_masks(problem.senses)
    row_bounds = (np.where(leq, -np.inf, problem.rhs), np.where(geq, np.inf, problem.rhs))
    bounds = np.array(problem.bounds, dtype=float).reshape(-1, 2)  # None -> NaN
    col_bounds = tuple(np.where(np.isnan(bounds), (-np.inf, np.inf), bounds).T.copy())
    cost = -problem.objective if problem.maximize else problem.objective

    res = linprog(cost, a, row_bounds, col_bounds)
    if res.status in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=res.status)
    if res.status != OPTIMAL:
        raise NumericalFailure(f"HiGHS failed: {res.status}")

    # HiGHS solved the minimization, so its row duals are duals_min.
    duals_min = res.row_dual
    primal_res, dual_res, gap = _residuals(problem, a, row_bounds, col_bounds, res.x, duals_min)
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
