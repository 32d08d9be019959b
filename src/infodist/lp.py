"""Deterministic linear programming with primal and dual extraction.

Thin adapter over the HiGHS solver that scipy vendors, called through its
private binding ``scipy.optimize._highspy._core`` (the package's only
private scipy import; scipy >= 1.17).  A problem is plain arrays: the
constraint matrix as (row, column, value) triplets, and
``row_lower <= A.x <= row_upper``, ``col_lower <= x <= col_upper`` with
infinite entries for absent bounds.  ``solve`` sorts the triplets into
HiGHS's column-wise arrays with numpy (no ``scipy.sparse``) and hands the
model to HiGHS: each thread reuses one instance, given the options once,
for every model of up to ``_REUSE_MAX_ENTRIES`` matrix entries.
The contract the rest of the package relies on:

- ``solve`` is deterministic for identical input (HiGHS, single thread),
- optimal solutions carry row duals oriented so that ``dual[i]`` is the
  derivative of the *reported* objective with respect to row i's active
  bound,
- primal feasibility residual <= 1e-8, duality gap <= 1e-8 * (1 + |obj|),
  else ``NumericalFailure``, which propagates to the caller,
- HiGHS runs at feasibility tolerances an order of magnitude below these
  gates, and no solve is retried anywhere.

For a minimization problem the Lagrange multiplier of a ``<=`` row is
``-dual[i] >= 0``; for a maximization it is ``dual[i] >= 0``, which is how
the gap LP's row duals become garblings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .config import LP_TOL
from .errors import NumericalFailure, ShapeMismatch

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
    """min/max c.x  s.t.  row_lower <= A.x <= row_upper,  col_lower <= x <= col_upper.

    ``(row_idx, col_idx, coefficients)`` hold A in triplet form; entries at
    the same (row, column) add up.  An infinite bound is an absent bound:
    a ``<=`` row has ``row_lower = -inf``, an ``==`` row equal bounds.
    Every row needs a finite bound.
    """

    objective: np.ndarray
    row_idx: np.ndarray
    col_idx: np.ndarray
    coefficients: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        vals = np.asarray(self.coefficients, dtype=float)
        rows = np.asarray(self.row_idx, dtype=int)
        cols = np.asarray(self.col_idx, dtype=int)
        row_lower, row_upper, col_lower, col_upper = (
            np.asarray(b, dtype=float)
            for b in (self.row_lower, self.row_upper, self.col_lower, self.col_upper)
        )
        if not (np.isfinite(c).all() and np.isfinite(vals).all()):
            raise ShapeMismatch("LP coefficients must be finite")
        if row_lower.shape != row_upper.shape:
            raise ShapeMismatch("row bound lengths differ")
        if col_lower.shape != c.shape or col_upper.shape != c.shape:
            raise ShapeMismatch("column bounds and objective lengths differ")
        if np.isnan(np.concatenate((row_lower, row_upper, col_lower, col_upper))).any():
            raise ShapeMismatch("LP bounds must not be NaN")
        if not (np.isfinite(row_lower) | np.isfinite(row_upper)).all():
            raise ShapeMismatch("every row needs a finite bound")
        if not rows.shape == cols.shape == vals.shape:
            raise ShapeMismatch("triplet arrays differ in length")
        if vals.size and not (
            rows.min() >= 0 and rows.max() < row_lower.size and cols.min() >= 0 and cols.max() < c.size
        ):
            raise ShapeMismatch("triplet index outside the matrix")
        for name, value in (
            ("objective", c),
            ("coefficients", vals),
            ("row_idx", rows),
            ("col_idx", cols),
            ("row_lower", row_lower),
            ("row_upper", row_upper),
            ("col_lower", col_lower),
            ("col_upper", col_upper),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.row_lower.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = float("nan")


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS run: status, primal ``x`` and ``row_dual`` (both empty
    unless OPTIMAL) and ``nit``, simplex plus IPM iterations."""

    status: str
    x: np.ndarray
    row_dual: np.ndarray
    nit: int


_THREAD = threading.local()

# A reused instance keeps the buffers of the largest model it has solved.
# Reused for every model, it raised catalog-sweep's peak RSS by ~12 MB (its
# answer checks solve value LPs of up to 2e5 entries).  A model with more
# entries than this gets an instance of its own, which costs at most a few
# percent of such a solve.
_REUSE_MAX_ENTRIES = 5000


def _new_highs() -> _highs._Highs:
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    return highs


def _thread_highs() -> _highs._Highs:
    """This thread's reused HiGHS instance.

    ``passModel`` clears the previous model, basis, solution and info, so a
    reused instance solves every model as a new one would; HiGHS instances
    are not shared between threads.
    """
    try:
        return _THREAD.highs
    except AttributeError:
        _THREAD.highs = _new_highs()
        return _THREAD.highs


def linprog(
    cost: np.ndarray,
    a: tuple[np.ndarray, np.ndarray, np.ndarray],
    row_bounds: tuple[np.ndarray, np.ndarray],
    col_bounds: tuple[np.ndarray, np.ndarray],
) -> HighsResult:
    """min cost.x  s.t.  row_lower <= A.x <= row_upper,  col_lower <= x <= col_upper.

    ``a`` is A column-wise, ``(start, index, value)`` as HiGHS stores it.
    The one function that talks to HiGHS; ``status`` is OPTIMAL,
    INFEASIBLE, UNBOUNDED or else HiGHS's own name for its model status.
    ``solve`` calls it through this module's global, so a wrapper installed
    as ``lp.linprog`` (the benchmark's tracer) times every HiGHS call and
    reads its ``nit``.
    """
    start, index, value = a
    n_rows, n_cols = row_bounds[0].size, cost.size
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
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value

    highs = _thread_highs() if value.size <= _REUSE_MAX_ENTRIES else _new_highs()
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


def _columnwise(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's entries in column-wise order: ``(start, rows, values)``.

    The canonical CSC that ``scipy.sparse`` builds from the triplets:
    sorted by (column, row), entries at one (row, column) summed, explicit
    zeros kept.  HiGHS rejects a model with a repeated (row, column).
    Column j's entries are ``start[j]:start[j + 1]``.
    """
    # One int64 key per entry, in (column, row) order, sorted stably so that
    # entries at one (row, column) are summed in input order.  The sorted
    # key becomes the rows in place: the peak is three triplet-sized arrays.
    n_rows = problem.n_rows
    key = problem.col_idx * n_rows + problem.row_idx
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = problem.coefficients[order]
    del order
    repeat = key[1:] == key[:-1]
    if repeat.any():
        first = np.flatnonzero(np.concatenate(([True], ~repeat)))
        key, vals = key[first], np.add.reduceat(vals, first)
    start = np.searchsorted(key, np.arange(problem.n_vars + 1) * n_rows)
    rows = np.remainder(key, n_rows, out=key)
    return start, rows, vals


# Entries per block of whole columns in ``_products``.
_BLOCK = 1 << 14


def _products(
    start: np.ndarray, rows: np.ndarray, vals: np.ndarray, x: np.ndarray, lam: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """A.x and A^T.lam from A's column-wise arrays, a block of whole columns
    at a time.

    Both are ``np.bincount``'s sums over A's entries in column-wise order,
    bit for bit: the first block's terms x[col] * value are one bincount
    into A.x and ``np.add.at`` adds each later block's in the same order,
    and each block's columns are one bincount of its terms lam[row] * value.
    A block holds about ``_BLOCK`` entries, so the products allocate no
    entry-sized array.
    """
    n_vars = start.size - 1
    ax = np.zeros(n_rows)
    at_lam = np.empty(n_vars)
    j0 = 0
    while j0 < n_vars:
        j1 = n_vars
        if start[-1] - start[j0] > _BLOCK:
            j1 = max(int(np.searchsorted(start, start[j0] + _BLOCK, side="right")) - 1, j0 + 1)
        cols = np.arange(j1 - j0).repeat(start[j0 + 1 : j1 + 1] - start[j0:j1])
        row = rows[start[j0] : start[j1]]
        val = vals[start[j0] : start[j1]]
        terms = x[j0:j1][cols] * val
        if j0 == 0:
            ax = np.bincount(row, weights=terms, minlength=n_rows)
        else:
            np.add.at(ax, row, terms)
        at_lam[j0:j1] = np.bincount(cols, weights=lam[row] * val, minlength=j1 - j0)
        j0 = j1
    return ax, at_lam


def _residuals(
    problem: LpProblem,
    start: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    duals_min: np.ndarray,
) -> tuple[float, float, float]:
    """(primal, dual-sign, relative-gap) residuals, minimization orientation.

    A.x and A^T.lam are sums over A's entries, taken in column-wise order
    block by block (``_products``), so the residuals add no entry-sized
    array to the rows and values: less than the sort in ``_columnwise``
    holds.
    """
    row_lower, row_upper = problem.row_lower, problem.row_upper
    lower, upper = problem.col_lower, problem.col_upper
    c_min = -problem.objective if problem.maximize else problem.objective
    lam = -duals_min  # legal: >= 0 on <= rows, <= 0 on >= rows
    ax, at_lam = _products(start, rows, vals, x, lam, problem.n_rows)
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


def solve(problem: LpProblem) -> LpSolution:
    """Solve with HiGHS; returns status, primal, row duals, objective."""
    start, rows, vals = _columnwise(problem)
    cost = -problem.objective if problem.maximize else problem.objective
    res = linprog(
        cost,
        (start, rows, vals),
        (problem.row_lower, problem.row_upper),
        (problem.col_lower, problem.col_upper),
    )
    if res.status in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=res.status)
    if res.status != OPTIMAL:
        raise NumericalFailure(f"HiGHS failed: {res.status}")

    # HiGHS solved the minimization, so its row duals are duals_min.
    duals_min = res.row_dual
    primal_res, dual_res, gap = _residuals(problem, start, rows, vals, res.x, duals_min)
    if primal_res > LP_TOL or dual_res > _DUAL_GATE or gap > LP_TOL:
        raise NumericalFailure(
            f"residuals beyond gates: primal={primal_res:g} dual={dual_res:g} gap={gap:g}"
        )

    objective = float(problem.objective @ res.x)
    duals = -duals_min if problem.maximize else duals_min
    return LpSolution(status=OPTIMAL, primal=res.x, dual=duals, objective=objective)


def best_response(
    payoff: np.ndarray,
    n_blocks: int,
    block_mass: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve the per-signal best-response LP

        max sum_d w_d z_d   s.t.   z_d <= payoff[d, j, :] . x   for every (d, j),

    with x cut into ``n_blocks`` equal consecutive blocks, block b summing
    to ``block_mass[b]`` (1 if not given), x >= 0, and weights w (1 if not
    given).  Variables are x, then the free z.  Returns the objective, x
    and the (D, J) duals of the (d, j) rows; for each d these are >= 0 and
    sum to w_d by stationarity in z_d.
    """
    n_d, n_j, n_x = payoff.shape
    n_rows = n_d * n_j
    rows = np.arange(n_rows)
    x_cols = np.arange(n_x)
    mass = np.ones(n_blocks) if block_mass is None else block_mass
    problem = LpProblem(
        objective=np.concatenate((np.zeros(n_x), np.ones(n_d) if weights is None else weights)),
        row_idx=np.concatenate(
            (np.repeat(rows, n_x), rows, n_rows + x_cols // (n_x // n_blocks))
        ),
        col_idx=np.concatenate((np.tile(x_cols, n_rows), n_x + rows // n_j, x_cols)),
        coefficients=np.concatenate((-payoff.ravel(), np.ones(n_rows), np.ones(n_x))),
        row_lower=np.concatenate((np.full(n_rows, -np.inf), mass)),
        row_upper=np.concatenate((np.zeros(n_rows), mass)),
        col_lower=np.concatenate((np.zeros(n_x), np.full(n_d, -np.inf))),
        col_upper=np.full(n_x + n_d, np.inf),
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
