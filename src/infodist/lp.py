"""Deterministic linear programming with primal and dual extraction.

Thin adapter over the HiGHS solver that scipy vendors, called through its
private binding ``scipy.optimize._highspy._core`` (the package's only use
of scipy; scipy >= 1.17).  ``_load_highs`` loads that one extension from
its file, without importing ``scipy.optimize``, whose own imports were
most of a cold ``import infodist`` (1.01 s -> 0.36 s, 2-core machine).
A problem is plain arrays: the
constraint matrix as (row, column, value) triplets, and
``row_lower <= A.x <= row_upper``, ``col_lower <= x <= col_upper`` with
infinite entries for absent bounds.  ``solve`` sorts the triplets into
HiGHS's column-wise arrays with numpy (no ``scipy.sparse``) and hands
those arrays to the binding's flat ``passModel``, with no ``HighsLp``
object in between: each thread reuses one instance, given the options
once, for every model.  HiGHS runs dual simplex without presolve, a fixed
pass per solve that these small LPs do not need.  The residual gates take A.x
and A^T.lam as one ``np.bincount`` each over A's entries.

``solve_pair`` solves two independent problems, such as the two
directions of a distance, on two threads at once.  The binding releases
the interpreter lock in ``run``, so a daemon helper thread, started for
the pair and joined before it returns, runs the second model's
``passModel``/``run``/``getSolution`` on a spare HiGHS instance of the
calling thread while that thread solves the first.
Everything else (assembly, ``_columnwise``, the gates) stays on the
calling thread, and both models still pass through ``solve`` and
``linprog`` there, so a wrapper installed as either sees every model.
Only a second model of at least ``_PAIR_MIN_ENTRIES`` (1,000) matrix
entries goes to a helper, and only when the process may run on two
CPUs.  On a 2-core machine, four K=4, L=7..9 gap LPs (2,842-5,994
entries) took 0.19-0.29 s one after the other and 0.15 s paired, while
handing over pairs of at most ~450 entries made 3-4 ms distance calls
12-45% slower.  Starting and joining the helper costs about 0.2 ms.
Dual simplex itself stays on one thread: HiGHS's parallel
dual ran 1.4x slower on these LPs.

The contract the rest of the package relies on:

- ``solve`` is deterministic for identical input (HiGHS, single thread
  per model; a model solved on a helper gets every bit it gets here),
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

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .config import LP_TOL
from .errors import NumericalFailure, ShapeMismatch

_CORE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, loaded from its file without running
    ``scipy/optimize/__init__.py``.

    That package pulls in ``scipy.linalg``, ``scipy.sparse`` and more, most
    of a cold ``import infodist``; the binding links none of it.  A binding
    already in ``sys.modules`` is reused, and a loaded one goes there under
    its full name, so a later ``import scipy.optimize`` reuses it too (its
    imports find it there; ``scipy.optimize._highspy`` gets no ``_core``
    attribute).
    """
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    # find_spec of a top-level name locates scipy without importing it.
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else ()
    where = [os.path.join(root, "optimize", "_highspy") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(_CORE, where)
    if spec is None:
        raise ImportError(f"no HiGHS binding {_CORE} in {where}: infodist needs scipy >= 1.17")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_CORE] = module
    return module


_highs = _load_highs()

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# HiGHS reports duals at slightly looser precision than primals on degenerate
# problems; the dual gate is therefore one order looser than LP_TOL.
_DUAL_GATE = LP_TOL * 10


def _highs_options() -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    # Silent dual simplex without presolve.  Presolve is a fixed pass per
    # solve that the package's LPs do not need: on the 13-row, 90-entry
    # LPs of small structures it took about 0.23 ms of a 0.50 ms HiGHS
    # call (2-core machine), and turning it off moved no status, gate or
    # objective beyond LP_TOL.
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "off"
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = float("nan")


@dataclass(frozen=True, eq=False)
class HighsResult:
    """One HiGHS run: status, primal ``x`` and ``row_dual`` (both empty
    unless OPTIMAL) and ``nit``, simplex plus IPM iterations."""

    status: str
    x: np.ndarray
    row_dual: np.ndarray
    nit: int


class _Local(threading.local):
    """Per-thread state: the thread's HiGHS instance, the spare one that
    its pairs' helper threads run on, and the model that ``solve_pair`` has
    handed to a helper, if any."""

    highs: _highs._Highs | None = None
    spare: _highs._Highs | None = None
    handoff: _Handoff | None = None


_THREAD = _Local()


def _new_highs() -> _highs._Highs:
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    return highs


def _thread_highs() -> _highs._Highs:
    """This thread's reused HiGHS instance.

    ``passModel`` clears the previous model, basis, solution and info, so a
    reused instance solves every model as a new one would; no instance
    runs two models at once.
    """
    if _THREAD.highs is None:
        _THREAD.highs = _new_highs()
    return _THREAD.highs


# A pair of models goes to two threads only when the second has at least
# this many matrix entries: below it, starting the helper costs more than
# the overlap saves (see the module docstring).
_PAIR_MIN_ENTRIES = 1000


class _Handoff:
    """A model whose HiGHS run is on a helper thread: the problem, its
    column-wise arrays, the ``linprog`` arguments, and the helper's result.

    The helper lives for this one run, on the calling thread's spare HiGHS
    instance, so no pair builds a new instance."""

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.prepared = _prepare(problem)
        self.args = self.prepared[3]
        self._result = None
        if _THREAD.spare is None:
            _THREAD.spare = _new_highs()
        self._helper = threading.Thread(
            target=self._help, args=(_THREAD.spare,), name="infodist-highs", daemon=True
        )
        self._helper.start()

    def _help(self, highs: _highs._Highs) -> None:
        try:
            self._result = _run(highs, *self.args)
        except Exception as exc:  # re-raised by the waiting caller
            self._result = exc

    def wait(self) -> HighsResult | Exception:
        """The helper's run or its exception, once the helper has ended."""
        self._helper.join()
        return self._result

    def result(self) -> HighsResult:
        result = self.wait()
        if isinstance(result, Exception):
            raise result
        return result


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run(
    highs: _highs._Highs,
    cost: np.ndarray,
    a: tuple[np.ndarray, np.ndarray, np.ndarray],
    row_bounds: tuple[np.ndarray, np.ndarray],
    col_bounds: tuple[np.ndarray, np.ndarray],
) -> HighsResult:
    """One model through ``highs``: ``passModel``, ``run``, the status, the
    iteration count and the solution (see ``linprog``)."""
    start, index, value = a
    n_cols = cost.size
    passed = highs.passModel(
        n_cols,
        row_bounds[0].size,
        value.size,
        _highs.MatrixFormat.kColwise,
        _highs.ObjSense.kMinimize,
        0.0,
        cost,
        *col_bounds,
        *row_bounds,
        start[:-1].astype(np.int32),
        index.astype(np.int32),
        value,
        # All columns continuous; HiGHS rejects an empty integrality array.
        np.zeros(n_cols, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        model_status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    # Two reads, not a copy of the whole HighsInfo.  Without a run the info
    # is unavailable and the values read are not set: no iterations.
    nit = 0
    for name in ("simplex_iteration_count", "ipm_iteration_count"):
        read, count = highs.getInfoValue(name)
        nit += max(count, 0) if read == _highs.HighsStatus.kOk else 0
    status = _STATUS.get(model_status) or highs.modelStatusToString(model_status)
    if status != OPTIMAL:
        return HighsResult(status, np.zeros(0), np.zeros(0), nit)
    solution = highs.getSolution()
    return HighsResult(status, np.array(solution.col_value), np.array(solution.row_dual), nit)


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
    reads its ``nit``.  For the model that ``solve_pair`` handed to a
    helper (the same ``a``), it waits for the helper's run and returns it.
    """
    handoff = _THREAD.handoff
    if handoff is not None and a is handoff.args[1]:
        _THREAD.handoff = None
        return handoff.result()
    return _run(_thread_highs(), cost, a, row_bounds, col_bounds)


def _columnwise(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A's entries in column-wise order: ``(start, rows, cols, values)``.

    The canonical CSC that ``scipy.sparse`` builds from the triplets:
    sorted by (column, row), entries at one (row, column) summed, explicit
    zeros kept.  HiGHS rejects a model with a repeated (row, column).
    Column j's entries are ``start[j]:start[j + 1]``; ``cols`` repeats j
    for each of them, for the residual gates.
    """
    # One int64 key per entry, in (column, row) order, sorted stably so that
    # entries at one (row, column) are summed in input order.
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
    cols, rows = np.divmod(key, n_rows)
    start = np.searchsorted(cols, np.arange(problem.n_vars + 1))
    return start, rows, cols, vals


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


def _prepare(problem: LpProblem):
    """``(rows, cols, vals, args)``: A's column-wise entries for the gates,
    and the ``linprog`` arguments of the minimization HiGHS solves."""
    start, rows, cols, vals = _columnwise(problem)
    cost = -problem.objective if problem.maximize else problem.objective
    args = (
        cost,
        (start, rows, vals),
        (problem.row_lower, problem.row_upper),
        (problem.col_lower, problem.col_upper),
    )
    return rows, cols, vals, args


def solve(problem: LpProblem) -> LpSolution:
    """Solve with HiGHS; returns status, primal, row duals, objective."""
    handoff = _THREAD.handoff
    if handoff is not None and handoff.problem is problem:
        rows, cols, vals, args = handoff.prepared
    else:
        rows, cols, vals, args = _prepare(problem)
    res = linprog(*args)
    if res.status in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=res.status)
    if res.status != OPTIMAL:
        raise NumericalFailure(f"HiGHS failed: {res.status}")

    # HiGHS solved the minimization, so its row duals are duals_min.
    duals_min = res.row_dual
    primal_res, dual_res, gap = _residuals(problem, rows, cols, vals, res.x, duals_min)
    if primal_res > LP_TOL or dual_res > _DUAL_GATE or gap > LP_TOL:
        raise NumericalFailure(
            f"residuals beyond gates: primal={primal_res:g} dual={dual_res:g} gap={gap:g}"
        )

    objective = float(problem.objective @ res.x)
    duals = -duals_min if problem.maximize else duals_min
    return LpSolution(status=OPTIMAL, primal=res.x, dual=duals, objective=objective)


def solve_pair(first: LpProblem, second: LpProblem) -> tuple[LpSolution, LpSolution]:
    """``(solve(first), solve(second))`` for two independent problems.

    When ``second`` has at least ``_PAIR_MIN_ENTRIES`` matrix entries and
    the process may run on two CPUs, its HiGHS run goes to a helper
    thread while this thread solves ``first``; otherwise the two solve one
    after the other.  Either way both pass through this module's ``solve``
    and ``linprog`` on this thread, in that order, and the results are
    bit-identical.  The first exception raised propagates, after the
    helper has ended.
    """
    if second.coefficients.size < _PAIR_MIN_ENTRIES or _cpu_count() < 2:
        return solve(first), solve(second)
    handoff = _THREAD.handoff = _Handoff(second)
    try:
        return solve(first), solve(second)
    finally:
        _THREAD.handoff = None
        handoff.wait()


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
