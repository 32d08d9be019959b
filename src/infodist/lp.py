"""Deterministic linear programming with primal and dual extraction.

Thin adapter over the HiGHS solver that scipy vendors, called through its
private binding ``scipy.optimize._highspy._core`` (the package's only use
of scipy; scipy >= 1.17).  ``_load_highs`` loads that one extension from
its file, without importing ``scipy.optimize``, whose own imports were
most of a cold ``import infodist`` (1.01 s -> 0.36 s, 2-core machine).

An LP takes two forms.  An ``LpProblem`` is plain arrays: the constraint
matrix as (row, column, value) triplets in HiGHS's column-wise order, and
``row_lower <= A.x <= row_upper``, ``col_lower <= x <= col_upper`` with
infinite entries for absent bounds.  Building one checks it and adds, with
numpy (no ``scipy.sparse``), the column starts and the minimization cost,
so the triplets are the model HiGHS solves.  ``linprog`` hands those
arrays to the binding's flat ``passModel``, with no ``HighsLp``
object in between: each thread reuses one instance, given the options
once, for every model.  HiGHS runs dual simplex without presolve, a fixed
pass per solve that these small LPs do not need.  ``linprog`` returns the
``LpSolution``, the second form: already oriented as the problem is posed,
with HiGHS's iteration count.  ``solve`` then gates it.  The residual gates
read the problem's own triplets, so they check the matrix HiGHS
solved: A.x and A^T.lam are one ``np.bincount`` each over its entries, and
each gate is one maximum over all its violations.

HiGHS solves each model as posed, without scaling it.  The package scales
its LPs itself: each row of the gap and value LPs is divided by its
signal's mass, so rows hold beliefs in [0, 1], the witness is boxed in
[-1, 1] and the costs are masses.  HiGHS's equilibration on top of that
made the solves slower, most of all on the Blackwell gap LPs: on the 200 LPs of one catalog-sweep pass of ops (2-core machine), HiGHS
took 194 ms and 9,920 iterations unscaled against 261 ms and 11,326
scaled.  Neither choice suits every LP: unscaled,
the Blackwell (18,16) -> (16,16) gap LP misses the gap gate (1.6e-8), and
scaled, a 5-row max-norm LP misses the primal gate (9e-7).  So ``solve``
keeps an unscaled answer only when it is OPTIMAL within the gates.  Any
other outcome, a failed gate or any status but OPTIMAL, is solved once
more on the thread's second HiGHS instance, at HiGHS's own scaling (the
options every solve ran at before), and that answer stands.  The second
instance is made at the thread's first fallback; one pass of ops and
checks of each benchmark workload took none.

A solve does only per-call work: it runs HiGHS and gates the answer.
An ``LpProblem`` takes its triplets sorted by (column, row), each (row,
column) once, and raises ``ShapeMismatch`` otherwise, so building one sorts
and sums nothing: it checks the order, the indices, the shapes, values and
bounds, and takes the column starts from one ``searchsorted``.  The
package's two builders emit that order by construction, from index arrays
that depend on the shape alone: the gap LP takes them from
``distance._gap_pattern``, and ``best_response`` from
``_best_response_pattern``, each cached per shape for an LP of at most
``_CACHE_ENTRIES`` (1,024) matrix entries.  On a 2-core machine, building
a K=4, L=9 gap LP (5,994 entries) took 131 us against 202 us when
``LpProblem`` sorted the triplets, and a K=3, 3x3 one (180 entries) 45 us
against 38 us when a layout cache skipped the index checks and the sort.

``solve_pair`` solves two independent problems, such as the two
directions of a distance, on two threads at once.  The binding releases
the interpreter lock in ``run``, so a daemon helper thread, started for
the pair and joined before it returns, runs the second model's
``passModel``/``run``/``getSolution`` on its own thread's HiGHS instance
while the calling thread solves the first.  Each problem's HiGHS arrays
are built with the problem, so the helper and ``linprog`` read the same
ones.  Everything else (assembly, the gates) stays on the calling thread,
and both models still pass through ``solve`` and ``linprog`` there, so a
wrapper installed as either sees every model.
The helper runs the unscaled solve; a fallback runs on the calling
thread.  Only a second model of at least ``_PAIR_MIN_ENTRIES`` (1,000) matrix
entries goes to a helper, and only when the process may run on two
CPUs.  On a 2-core machine, four K=4, L=7..9 gap LPs (2,842-5,994
entries) took 0.19-0.29 s one after the other and 0.15 s paired, while
handing over pairs of at most ~450 entries made 3-4 ms distance calls
12-45% slower.  Starting and joining the helper costs about 0.2 ms, and
its new HiGHS instance about 0.06 ms.
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
  gates.  A model whose unscaled answer is not OPTIMAL within them is
  solved once more with HiGHS's scaling, the package's only re-solve, and
  that answer's status, gates and ``NumericalFailure`` stand.

For a minimization problem the Lagrange multiplier of a ``<=`` row is
``-dual[i] >= 0``; for a maximization it is ``dual[i] >= 0``.  One rule,
``_stochastic``, turns multipliers into ``best_response``'s strategies and
the gap LP's garblings.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .config import LP_TOL, NORM_TOL
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


def _highs_options(scaled: bool) -> _highs.HighsOptions:
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
    if not scaled:
        # The package scales its LPs itself (rows of beliefs, masses as
        # costs), and HiGHS's equilibration on top of that made the
        # solves slower (see the module docstring).
        options.simplex_scale_strategy = 0
    return options


# Every model is first solved as posed; only a solve whose answer ``solve``
# cannot keep is run again at HiGHS's own scaling (see the module docstring).
_HIGHS_OPTIONS = _highs_options(scaled=False)
_SCALED_OPTIONS = _highs_options(scaled=True)

# HiGHS model status -> solve status, as ``scipy.optimize.linprog`` maps it;
# any other status is a NumericalFailure.
_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kModelError: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


# Reductions without the ndarray methods' wrappers, which cost more than
# the reductions on these small arrays.
_max = np.maximum.reduce
_sum = np.add.reduce

_FLOAT_FIELDS = ("objective", "coefficients", "row_lower", "row_upper", "col_lower", "col_upper")


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min/max c.x  s.t.  row_lower <= A.x <= row_upper,  col_lower <= x <= col_upper.

    ``(row_idx, col_idx, coefficients)`` hold A in HiGHS's column-wise
    order: triplets sorted by (column, row), each (row, column) once.  An
    infinite bound is an absent bound: a ``<=`` row has ``row_lower =
    -inf``, an ``==`` row equal bounds.  Every row needs a finite bound.
    Building a problem checks it and adds what HiGHS needs besides the
    triplets: ``_start``, where each column's entries start, and the
    minimization cost ``_cost``.
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
        floats = [np.asarray(getattr(self, name), dtype=float) for name in _FLOAT_FIELDS]
        c, vals, row_lower, row_upper, col_lower, col_upper = floats
        rows = np.asarray(self.row_idx, dtype=int)
        cols = np.asarray(self.col_idx, dtype=int)
        if not rows.shape == cols.shape == vals.shape:
            raise ShapeMismatch("triplet arrays differ in length")
        if row_lower.shape != row_upper.shape:
            raise ShapeMismatch("row bound lengths differ")
        if col_lower.shape != c.shape or col_upper.shape != c.shape:
            raise ShapeMismatch("column bounds and objective lengths differ")
        if not _max(np.abs(np.concatenate((c, vals))), initial=0.0) < np.inf:
            raise ShapeMismatch("LP coefficients must be finite")
        # A maximum is NaN over a NaN, else finite exactly when every entry is.
        magnitudes = np.abs(np.concatenate((row_lower, row_upper, col_lower, col_upper)))
        if np.isnan(_max(magnitudes, initial=0.0)):
            raise ShapeMismatch("LP bounds must not be NaN")
        n_rows = row_lower.size
        if not _max(np.minimum(magnitudes[:n_rows], magnitudes[n_rows : 2 * n_rows]), initial=0.0) < np.inf:
            raise ShapeMismatch("every row needs a finite bound")
        # A negative index viewed as unsigned exceeds every size.
        if rows.size and not (_max(rows.view(np.uintp)) < n_rows and _max(cols.view(np.uintp)) < c.size):
            raise ShapeMismatch("triplet index outside the matrix")
        # Column-wise order is a strictly increasing (column, row) key;
        # HiGHS rejects a model with a repeated (row, column).
        key = cols * n_rows + rows
        if not (key[:-1] < key[1:]).all():
            raise ShapeMismatch("triplets must be sorted by (column, row), each (row, column) once")
        # Past the frozen dataclass's __setattr__, as object.__setattr__ goes.
        self.__dict__.update(
            zip(_FLOAT_FIELDS, floats),
            row_idx=rows,
            col_idx=cols,
            _start=cols.searchsorted(np.arange(c.size + 1)),
            _cost=-c if self.maximize else c,
        )

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.row_lower.size


@dataclass(frozen=True, eq=False)
class LpSolution:
    """One HiGHS run's answer, oriented as its problem is posed: the
    ``primal`` x, the row duals and the objective c.x (empty and NaN unless
    ``status`` is OPTIMAL), and ``nit``, simplex plus IPM iterations."""

    status: str
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    objective: float = float("nan")
    nit: int = 0


class _Local(threading.local):
    """Per-thread state: the thread's HiGHS instances, as posed and scaled
    (the latter made at the thread's first fallback), and the model that
    ``solve_pair`` has handed to a helper, if any."""

    highs: _highs._Highs | None = None
    scaled: _highs._Highs | None = None
    handoff: _Handoff | None = None


_THREAD = _Local()


def _thread_highs(scaled: bool = False) -> _highs._Highs:
    """This thread's reused HiGHS instance at ``_HIGHS_OPTIONS``, or at
    ``_SCALED_OPTIONS`` when ``scaled``; the only place one is made.

    ``passModel`` clears the previous model, basis, solution and info, so a
    reused instance solves every model as a new one would; no instance
    runs two models at once.
    """
    name = "scaled" if scaled else "highs"
    highs = getattr(_THREAD, name)
    if highs is None:
        highs = _highs._Highs()
        highs.passOptions(_SCALED_OPTIONS if scaled else _HIGHS_OPTIONS)
        setattr(_THREAD, name, highs)
    return highs


# A pair of models goes to two threads only when the second has at least
# this many matrix entries: below it, starting the helper costs more than
# the overlap saves (see the module docstring).
_PAIR_MIN_ENTRIES = 1000


class _Handoff(threading.Thread):
    """A helper thread, started for one problem's unscaled HiGHS run on the
    thread's own instance: the problem and the run's result."""

    def __init__(self, problem: LpProblem):
        super().__init__(name="infodist-highs", daemon=True)
        self.problem = problem
        self._result = None
        self.start()

    def run(self) -> None:
        try:
            self._result = _run(_thread_highs(), self.problem)
        except Exception as exc:  # re-raised by the waiting caller
            self._result = exc

    def result(self) -> LpSolution:
        """The run's result, once the helper has ended; its exception is raised."""
        self.join()
        if isinstance(self._result, Exception):
            raise self._result
        return self._result


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run(highs: _highs._Highs, problem: LpProblem) -> LpSolution:
    """``problem``'s model through ``highs``: ``passModel``, ``run``, the
    status, the iteration count and the oriented solution (see
    ``linprog``)."""
    n_cols = problem.n_vars
    passed = highs.passModel(
        n_cols,
        problem.n_rows,
        problem.coefficients.size,
        _highs.MatrixFormat.kColwise,
        _highs.ObjSense.kMinimize,
        0.0,
        problem._cost,
        problem.col_lower,
        problem.col_upper,
        problem.row_lower,
        problem.row_upper,
        problem._start[:-1].astype(np.int32),
        problem.row_idx.astype(np.int32),
        problem.coefficients,
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
        return LpSolution(status, nit=nit)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    # HiGHS solved the minimization, so its row duals are duals_min.
    duals_min = np.array(solution.row_dual)
    duals = -duals_min if problem.maximize else duals_min
    return LpSolution(status, x, duals, float(problem.objective @ x), nit)


def linprog(problem: LpProblem, scaled: bool = False) -> LpSolution:
    """One HiGHS run of ``problem``, without the gates.

    The one function that talks to HiGHS.  HiGHS minimizes ``_cost`` as
    posed, or with its own scaling when ``scaled`` (``solve``'s fallback),
    and the answer comes back oriented as ``problem`` is posed: the
    objective is c.x, and a maximization's row duals are negated.
    ``status`` is OPTIMAL, INFEASIBLE, UNBOUNDED or else HiGHS's own name
    for its model status.  ``solve`` calls it through this module's
    global, so a wrapper installed as ``lp.linprog`` (the benchmark's
    tracer) times every HiGHS call, fallbacks included, and reads its
    ``nit``.  For the problem that ``solve_pair`` handed to a helper, the
    first call, ``solve``'s unscaled one, waits for the helper's run and
    returns it.
    """
    handoff = _THREAD.handoff
    if handoff is not None and problem is handoff.problem:
        _THREAD.handoff = None
        return handoff.result()
    return _run(_thread_highs(scaled), problem)


# An LP of at most this many matrix entries keeps the arrays that depend on
# its shape alone in a cache of 256 entries: distance._gap_pattern's and
# _best_response_pattern's, whose triplet indices take 16 bytes an entry.
# That bounds each cache to about 4 MB.  Larger LPs, such as the chain
# structures' gap LPs or the normal-form oracle's matrix games of up to a
# budget's 10**6 entries, build them per call: caching every size raised
# catalog-sweep's peak RSS from 93 to 111 MB (2-core machine) and sped up
# no workload.
_CACHE_ENTRIES = 1024


def _per_shape(cached, n_entries: int, *args):
    """``cached(*args)`` from its cache for an LP of at most
    ``_CACHE_ENTRIES`` matrix entries; for a larger one the function is run
    afresh, and nothing is kept."""
    return (cached if n_entries <= _CACHE_ENTRIES else cached.__wrapped__)(*args)


def _residuals(
    problem: LpProblem, x: np.ndarray, duals_min: np.ndarray, objective: float
) -> tuple[float, float, float]:
    """(primal, dual-sign, relative-gap) residuals, minimization orientation.

    ``objective`` is ``problem.objective @ x``, which ``solve`` reports too.
    A.x and A^T.lam are one ``np.bincount`` each over the problem's
    column-wise arrays, the ones HiGHS was given, so the gates check the
    matrix HiGHS solved.  Each of the first two residuals is one maximum
    over all its violations; a column's stationarity violation is the
    bound multiplier it would need on a bound it lacks.
    """
    row_lower, row_upper = problem.row_lower, problem.row_upper
    lower, upper = problem.col_lower, problem.col_upper
    rows, cols, vals = problem.row_idx, problem.col_idx, problem.coefficients
    lam = -duals_min  # legal: >= 0 on <= rows, <= 0 on >= rows
    ax = np.bincount(rows, weights=x[cols] * vals, minlength=problem.n_rows)
    at_lam = np.bincount(cols, weights=lam[rows] * vals, minlength=problem.n_vars)
    primal = _max(np.concatenate((row_lower - ax, ax - row_upper, lower - x, x - upper)), initial=0.0)

    reduced = problem._cost + at_lam  # c_min + A^T.lam
    # Row 0 is about the lower column bounds, row 1 the upper ones: the
    # bound multipliers max(+-reduced, 0) and which bounds are absent.  A
    # column lacking a bound cannot take its multiplier, which is then a
    # stationarity violation.
    rho = np.maximum(np.array((reduced, -reduced)), 0.0)
    bounds = np.array((lower, upper))
    free = np.isinf(bounds)
    leq = row_lower == -np.inf
    geq = row_upper == np.inf
    dual_sign = _max(np.concatenate((duals_min[leq], lam[geq], rho[free])), initial=0.0)

    # The bound lam prices: a one-sided row's finite one, whatever lam's
    # sign (a wrong sign shows in dual_sign); a two-sided row's upper bound
    # when lam > 0, else its lower.
    rhs = np.where(leq | (lam > 0) & ~geq, row_upper, row_lower)
    dual_obj = -(rhs @ lam)
    lower_term, upper_term = _sum(np.where(free, 0.0, bounds) * rho, axis=1)
    dual_obj += float(lower_term)
    dual_obj -= float(upper_term)
    primal_obj = -objective if problem.maximize else objective
    gap = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))
    return float(primal), float(dual_sign), gap


def _gate_failure(problem: LpProblem, solution: LpSolution) -> str | None:
    """Why an OPTIMAL ``solution``'s residuals fail the gates, or None when
    they pass."""
    duals_min = -solution.dual if problem.maximize else solution.dual
    primal, dual, gap = _residuals(problem, solution.primal, duals_min, solution.objective)
    if primal > LP_TOL or dual > _DUAL_GATE or gap > LP_TOL:
        return f"residuals beyond gates: primal={primal:g} dual={dual:g} gap={gap:g}"
    return None


def solve(problem: LpProblem) -> LpSolution:
    """Solve with HiGHS; returns status, primal, row duals, objective.

    The model is solved as posed, and that answer is kept when it is
    OPTIMAL within the gates.  Any other outcome is solved again with
    HiGHS's scaling, and that answer stands: INFEASIBLE, UNBOUNDED, or
    OPTIMAL within the gates, else ``NumericalFailure``.
    """
    solution = linprog(problem)
    if solution.status == OPTIMAL and _gate_failure(problem, solution) is None:
        return solution
    solution = linprog(problem, scaled=True)
    if solution.status in (INFEASIBLE, UNBOUNDED):
        return solution
    if solution.status != OPTIMAL:
        raise NumericalFailure(f"HiGHS failed: {solution.status}")
    failure = _gate_failure(problem, solution)
    if failure is not None:
        raise NumericalFailure(failure)
    return solution


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
        handoff.join()


@functools.lru_cache(maxsize=256)
def _best_response_pattern(n_d: int, n_j: int, n_x: int, n_blocks: int):
    """``best_response``'s arrays that depend on the shape alone.

    Returns ``(row_idx, col_idx, row_lower, row_upper, col_lower,
    col_upper, zeros)``: the triplet indices in column-wise order, each x
    column's (d, j) rows and then its block row, then each z_d column's
    (d, j) rows; the (d, j) rows' bounds, to which the block rows' masses
    are appended; the column bounds; and x's part of the objective.
    Shared by every call on the shape, so none is writable.
    """
    n_rows = n_d * n_j
    rows = np.arange(n_rows)
    x_rows = np.column_stack((np.tile(rows, (n_x, 1)), n_rows + np.arange(n_x) // (n_x // n_blocks)))
    arrays = (
        np.concatenate((x_rows.ravel(), rows)),
        np.concatenate((np.repeat(np.arange(n_x), n_rows + 1), n_x + rows // n_j)),
        np.full(n_rows, -np.inf),
        np.zeros(n_rows),
        np.concatenate((np.zeros(n_x), np.full(n_d, -np.inf))),
        np.full(n_x + n_d, np.inf),
        np.zeros(n_x),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _stochastic(weights: np.ndarray) -> np.ndarray:
    """LP multipliers as row-stochastic rows, the one rule for every strategy
    and garbling read off an LP: negative entries clip to 0, a row summing
    to at most NORM_TOL (a signal the optimum leaves free) becomes uniform,
    and each row is divided by its sum."""
    rows = np.maximum(weights, 0.0)
    sums = _sum(rows, axis=1)
    flat = sums <= NORM_TOL
    rows[flat] = 1.0
    sums[flat] = rows.shape[1]
    return rows / sums[:, None]


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
    given).  Variables are x, then the free z.  Returns the objective and
    both players' strategies through ``_stochastic``: x's blocks over their
    masses, and the (D, J) duals of the (d, j) rows over w_d (>= 0 and
    summing to w_d for each d by stationarity in z_d).  The index arrays
    and bounds come from ``_best_response_pattern`` for the shape.
    """
    n_d, n_j, n_x = payoff.shape
    n_rows = n_d * n_j
    rows, cols, row_lower, row_upper, col_lower, col_upper, zeros = _per_shape(
        _best_response_pattern, payoff.size + n_rows + n_x, n_d, n_j, n_x, n_blocks
    )
    # Each x column's -payoff entries and its block row's 1, then z's ones.
    values = np.ones(rows.size)
    values[: n_x * (n_rows + 1)].reshape(n_x, -1)[:, :n_rows] = -payoff.reshape(n_rows, n_x).T
    mass = np.ones(n_blocks) if block_mass is None else block_mass
    w = np.ones(n_d) if weights is None else weights
    problem = LpProblem(
        objective=np.concatenate((zeros, w)),
        row_idx=rows,
        col_idx=cols,
        coefficients=values,
        row_lower=np.concatenate((row_lower, mass)),
        row_upper=np.concatenate((row_upper, mass)),
        col_lower=col_lower,
        col_upper=col_upper,
        maximize=True,
    )
    sol = solve(problem)
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"best-response LP ended with status {sol.status}")
    x = sol.primal[:n_x].reshape(n_blocks, -1) / mass[:, None]
    y = sol.dual[:n_rows].reshape(n_d, n_j) / w[:, None]
    return sol.objective, _stochastic(x), _stochastic(y)


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
    value, x, y = best_response(a.T[np.newaxis], 1)
    return value, x[0], y[0]
