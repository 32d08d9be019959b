import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import OptimizeWarning, linprog  # the oracle for lp.solve only
from scipy.optimize._highspy import _core as _highs

from infodist import BlackwellSpec, blackwell_structure, distance, games, lp
from infodist.config import LP_TOL
from infodist.errors import NumericalFailure, ShapeMismatch

import gate_oracle
from conftest import columnwise_problem, random_game, random_structure
from workloads import catalog_members


def _one_variable_problem(objective, rows):
    """max objective * x over x >= 0 with rows ``coefficient * x <= rhs``."""
    return lp.LpProblem(
        objective=[objective],
        row_idx=np.arange(len(rows)),
        col_idx=np.zeros(len(rows), dtype=int),
        coefficients=[coefficient for coefficient, _ in rows],
        row_lower=np.full(len(rows), -np.inf),
        row_upper=[rhs for _, rhs in rows],
        col_lower=[0.0],
        col_upper=[np.inf],
    )


def _simple_problem(scale=1.0):
    return _one_variable_problem(scale, [(1.0, 3.0)])


def test_bounded_maximum():
    sol = lp.solve(_simple_problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
    # shadow price of the binding constraint
    assert sol.dual[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("objective, bound", [(1.0, 3.0), (-1.0, 1.0)])
def test_two_sided_row(objective, bound):
    # 1 <= x <= 3 as one row: max x and max -x (min x) each price their
    # active bound, with the derivative of the objective c.x.
    sol = lp.solve(
        lp.LpProblem(
            objective=[objective],
            row_idx=[0],
            col_idx=[0],
            coefficients=[1.0],
            row_lower=[1.0],
            row_upper=[3.0],
            col_lower=[-np.inf],
            col_upper=[np.inf],
        )
    )
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(objective * bound, abs=1e-9)
    assert sol.dual[0] == pytest.approx(objective, abs=1e-8)


@pytest.mark.parametrize(
    "change",
    [
        {"row_idx": [1]},  # row outside the matrix
        {"col_idx": [-1]},  # column outside the matrix
        {"coefficients": [1.0, 2.0]},  # triplet arrays of unequal length
        {"row_lower": [-np.inf], "row_upper": [np.inf]},  # no finite row bound
        {"col_upper": [np.nan]},
        {"col_lower": [0.0, 0.0]},
        {"coefficients": [np.inf]},
        # Out of column-wise order: columns, then rows within a column.
        {"objective": [1.0, 1.0], "col_lower": [0.0, 0.0], "col_upper": [1.0, 1.0],
         "row_idx": [0, 0], "col_idx": [1, 0], "coefficients": [1.0, 1.0]},
        {"row_idx": [1, 0], "col_idx": [0, 0], "coefficients": [1.0, 1.0],
         "row_lower": [-np.inf, -np.inf], "row_upper": [3.0, 3.0]},
        {"row_idx": [0, 0], "col_idx": [0, 0], "coefficients": [0.5, 0.5]},  # a repeated (row, column)
        {"row_lower": [-np.inf, -np.inf]},  # row bounds of unequal length
    ],
)
def test_malformed_problem_is_rejected(change):
    fields = dict(
        objective=[1.0],
        row_idx=[0],
        col_idx=[0],
        coefficients=[1.0],
        row_lower=[-np.inf],
        row_upper=[3.0],
        col_lower=[0.0],
        col_upper=[np.inf],
    )
    lp.LpProblem(**fields)
    with pytest.raises(ShapeMismatch):
        lp.LpProblem(**{**fields, **change})


def test_matrix_game_needs_a_matrix():
    with pytest.raises(ShapeMismatch):
        lp.solve_matrix_game(np.zeros(3))


def test_only_small_problems_are_cached():
    # A problem of an earlier one's shape reads its pattern from the cache;
    # one of more than _CACHE_ENTRIES matrix entries builds its pattern
    # afresh and keeps none.
    lp._best_response_pattern.cache_clear()
    distance._gap_pattern.cache_clear()
    rng = np.random.default_rng(5)
    # best_response takes its payoff as (x, d, j).
    lp.best_response(rng.uniform(-1.0, 1.0, (2, 3, 4)).transpose(2, 0, 1), 2)
    lp.best_response(rng.uniform(-1.0, 1.0, (2, 3, 4)).transpose(2, 0, 1), 2, block_mass=np.array([0.5, 0.5]))
    assert lp._best_response_pattern.cache_info()[:2] == (1, 1)
    lp.best_response(rng.uniform(-1.0, 1.0, (1, 40, 30)).transpose(2, 0, 1), 1)  # 1,270 entries
    assert lp._best_response_pattern.cache_info()[:2] == (1, 1)
    u, v = random_structure(rng, 2, 3, 2), random_structure(rng, 2, 2, 3)
    distance._gap_problem(u, v)
    distance._gap_problem(u, v)
    assert distance._gap_pattern.cache_info()[:2] == (1, 1)
    u, v = random_structure(rng, 4, 7, 7), random_structure(rng, 4, 7, 7)
    assert distance._gap_problem(u, v)[0].coefficients.size == 2842
    assert distance._gap_pattern.cache_info()[:2] == (1, 1)


def test_infeasible_detected():
    sol = lp.solve(_one_variable_problem(0.0, [(1.0, -1.0)]))
    assert sol.status == lp.INFEASIBLE


def test_unbounded_detected():
    sol = lp.solve(_one_variable_problem(1.0, []))
    assert sol.status == lp.UNBOUNDED


def test_matching_pennies_matrix_game():
    value, x, y = lp.solve_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)
    assert np.allclose(y, [0.5, 0.5], atol=1e-8)


def test_deterministic_resolve(rng):
    matrix = rng.uniform(-1, 1, (6, 5))
    first = lp.solve_matrix_game(matrix)
    second = lp.solve_matrix_game(matrix)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(first[2], second[2])


def test_scale_invariance_of_argmax():
    a = _simple_problem(1.0)
    b = _simple_problem(2.0)
    xa = lp.solve(a).primal
    xb = lp.solve(b).primal
    assert np.abs(xa - xb).max() <= 1e-7


def test_complementary_slackness(rng):
    for _ in range(10):
        matrix = rng.uniform(-1, 1, (4, 4))
        # Variables (v, x_1..x_4); max v s.t. v <= x.A[:, j], sum x = 1.
        problem = columnwise_problem(
            objective=[1.0, 0.0, 0.0, 0.0, 0.0],
            row_idx=np.concatenate((np.repeat(np.arange(4), 5), np.full(4, 4))),
            col_idx=np.concatenate((np.tile(np.arange(5), 4), 1 + np.arange(4))),
            coefficients=np.concatenate(
                (np.column_stack((np.ones(4), -matrix.T)).ravel(), np.ones(4))
            ),
            row_lower=[-np.inf] * 4 + [1.0],
            row_upper=[0.0, 0.0, 0.0, 0.0, 1.0],
            col_lower=[-np.inf] + [0.0] * 4,
            col_upper=[np.inf] * 5,
        )
        sol = lp.solve(problem)
        assert sol.status == lp.OPTIMAL
        # max over the <= rows of |dual_i * slack_i|
        ax = np.zeros(problem.n_rows)
        np.add.at(ax, problem.row_idx, problem.coefficients * sol.primal[problem.col_idx])
        slack = problem.row_upper - ax
        leq = np.isneginf(problem.row_lower)
        assert np.abs(slack * sol.dual)[leq].max(initial=0.0) <= 1e-7


def test_value_duality_through_player_swap(rng):
    # Independent check of dual consistency: the same Bayesian game solved
    # from player 2's perspective has the negated value.
    from infodist import ZeroSumGame, value

    for _ in range(10):
        u = random_structure(rng, 2, 3, 3)
        g = random_game(rng, 2, 3, 2)
        direct = value(u, g).value
        swapped_structure = np.transpose(u.probs, (0, 2, 1))
        swapped_game = -np.transpose(g.payoffs, (0, 2, 1))
        import infodist

        mirrored = value(
            infodist.validate_structure(swapped_structure), ZeroSumGame(swapped_game)
        ).value
        assert direct == pytest.approx(-mirrored, abs=1e-7)


def _linprog_oracle(problem, presolve=False):
    """``problem`` through ``scipy.optimize.linprog`` at the options
    ``lp.solve`` first gives HiGHS, unscaled (unless ``presolve`` is set,
    which keeps scipy's scaling too): ``<=`` and sign-flipped ``>=`` rows
    as A_ub, ``==`` rows as A_eq, minimizing -c.  Returns (status,
    primal, duals, objective), the duals negated to the maximization's, as
    ``lp.solve`` reports them."""
    a = sp.csr_matrix(
        (problem.coefficients, (problem.row_idx, problem.col_idx)),
        shape=(problem.n_rows, problem.n_vars),
    )
    lower, upper = problem.row_lower, problem.row_upper
    assert np.all(np.isneginf(lower) | np.isposinf(upper) | (lower == upper))
    ub = np.flatnonzero(lower != upper)
    eq = np.flatnonzero(lower == upper)
    geq = np.isposinf(upper[ub])
    sign = np.where(geq, -1.0, 1.0)
    options = {
        "presolve": presolve,
        "primal_feasibility_tolerance": LP_TOL / 10,
        "dual_feasibility_tolerance": LP_TOL / 10,
    }
    if not presolve:
        # Not a linprog option: scipy warns and hands it to HiGHS as it is.
        options["simplex_scale_strategy"] = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
        res = linprog(
            -problem.objective,
            A_ub=sp.diags(sign) @ a[ub] if ub.size else None,
            b_ub=np.where(geq, -lower[ub], upper[ub]) if ub.size else None,
            A_eq=a[eq] if eq.size else None,
            b_eq=lower[eq] if eq.size else None,
            bounds=np.column_stack((problem.col_lower, problem.col_upper)),
            method="highs",
            options=options,
        )
    status = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[res.status]
    if status != lp.OPTIMAL:
        return status, None, None, None
    duals = np.zeros(problem.n_rows)
    duals[ub] = sign * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    return status, res.x, -duals, float(problem.objective @ res.x)


def _recorded_problems(monkeypatch, call):
    """The LpProblems ``call()`` hands to ``lp.solve``."""
    problems = []
    solve = lp.solve

    def recording_solve(problem):
        problems.append(problem)
        return solve(problem)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve", recording_solve)
        call()
    return problems


def _oracle_problems(monkeypatch):
    """The LPs the solver checks replay: gap LPs, the game value's
    best-response LPs and small hand-built problems."""
    rng = np.random.default_rng(20261018)
    problems = []
    # Gap LPs: unequal signal counts, zero cells, one-signal players.
    for shape_u, shape_v, zeros in [
        ((2, 3, 2), (2, 2, 3), 0.0),
        ((3, 4, 2), (3, 2, 4), 0.3),
        ((2, 1, 3), (2, 3, 1), 0.0),
        ((3, 3, 3), (3, 2, 2), 0.4),
        ((4, 2, 3), (4, 3, 3), 0.2),
        ((4, 7, 7), (4, 7, 7), 0.0),  # dense, as large-random's pairs
    ]:
        u = random_structure(rng, *shape_u, zeros=zeros)
        v = random_structure(rng, *shape_v, zeros=zeros)
        problems.append(distance._gap_problem(u, v)[0])
        problems.append(distance._gap_problem(v, u)[0])
    # A degenerate catalog-sweep pair, about 160 rows each way.
    members = {label: generate for label, generate, _, _ in catalog_members()}
    u, v = members["blackwell (9,7)-(7,7)"]()
    problems.append(distance._gap_problem(u, v)[0])
    problems.append(distance._gap_problem(v, u)[0])
    # games.value's best-response LP, zero cells included.
    for shape, actions in [((2, 3, 2), (2, 3)), ((3, 2, 4), (3, 2))]:
        u = random_structure(rng, *shape, zeros=0.3)
        g = random_game(rng, shape[0], *actions)
        problems += _recorded_problems(monkeypatch, lambda: games.value(u, g))
    # Small problems, one with >= and == rows.
    problems.append(_simple_problem())
    problems.append(_one_variable_problem(1.0, [(1.0, 3.0), (-2.0, 1.0)]))
    problems.append(
        columnwise_problem(
            objective=[-1.0, -2.0],
            row_idx=[0, 0, 1, 1],
            col_idx=[0, 1, 0, 1],
            coefficients=[1.0, 1.0, 1.0, -1.0],
            row_lower=[1.0, 0.2],
            row_upper=[np.inf, 0.2],
            col_lower=[0.0, -np.inf],
            col_upper=[np.inf, 5.0],
        )
    )
    return problems


def test_solve_matches_linprog(monkeypatch):
    # The direct HiGHS model and linprog's A_ub/A_eq split hand HiGHS the
    # same LP at the same options, so every number agrees bit for bit.
    problems = _oracle_problems(monkeypatch)
    assert len(problems) > 15
    for problem in problems:
        sol = lp.solve(problem)
        status, primal, duals, objective = _linprog_oracle(problem)
        assert sol.status == status == lp.OPTIMAL
        assert np.array_equal(sol.primal, primal)
        assert np.array_equal(sol.dual, duals)
        assert sol.objective == objective


def _blackwell_gap_problems():
    """The degenerate gap LPs between the Blackwell (n+2, n) and (n, n)
    members, both ways, for n = 9..16."""
    problems = []
    for n in range(9, 17):
        a = blackwell_structure(BlackwellSpec(n + 2, n, 0.75, 0.75))
        b = blackwell_structure(BlackwellSpec(n, n, 0.75, 0.75))
        problems += [distance._gap_problem(a, b)[0], distance._gap_problem(b, a)[0]]
    return problems


def test_solve_agrees_with_presolved_linprog(monkeypatch):
    # lp.solve runs HiGHS without presolve; linprog's default presolve
    # reaches the same status and, within the gap gate, the same objective,
    # on the oracle problems and on the degenerate Blackwell gap LPs.
    problems = _oracle_problems(monkeypatch) + _blackwell_gap_problems()
    for problem in problems:
        sol = lp.solve(problem)
        status, _, _, objective = _linprog_oracle(problem, presolve=True)
        assert sol.status == status == lp.OPTIMAL
        assert abs(sol.objective - objective) <= LP_TOL * (1.0 + abs(objective))


def test_gates_match_the_reference_residuals(monkeypatch):
    # lp._residuals returns gate_oracle's triple on the solved points and
    # on perturbed ones, whose residuals fail the gates, so every solve
    # passes or fails its gates as it did.  The floats are equal; only a
    # zero's sign may differ, as the maxima reduce in another order.
    rng = np.random.default_rng(20261019)
    failing = 0
    for problem in _oracle_problems(monkeypatch) + _blackwell_gap_problems():
        sol = lp.linprog(problem)
        assert sol.status == lp.OPTIMAL
        x, dual = sol.primal, sol.dual
        points = [(x, dual)]
        for scale in (1e-9, 1e-6, 1e-2):
            points.append((x + scale * rng.normal(size=x.size), dual))
            points.append((x, dual + scale * rng.normal(size=dual.size)))
        # Every row dual of the wrong sign, and x beyond its bounds.
        points.append((x, -dual))
        points.append((np.where(rng.random(x.size) < 0.5, 2.0 * x + 1.0, x), dual))
        arrays = problem.row_idx, problem.col_idx, problem.coefficients
        for x, dual in points:
            got = lp._residuals(problem, x, dual, float(problem.objective @ x))
            want = gate_oracle._residuals(problem, *arrays, x, dual)
            assert got == want
            failing += want[0] > LP_TOL or want[1] > 10 * LP_TOL or want[2] > LP_TOL
    assert failing > 100


def _recorded_linprog(monkeypatch):
    """The ``scaled`` flag of every ``lp.linprog`` call, in order."""
    calls = []
    linprog = lp.linprog

    def recording_linprog(problem, scaled=False):
        calls.append(scaled)
        return linprog(problem, scaled=scaled)

    monkeypatch.setattr(lp, "linprog", recording_linprog)
    return calls


def _gates_pass(problem, sol):
    """``sol`` is inside every gate of gate_oracle's residuals."""
    arrays = problem.row_idx, problem.col_idx, problem.coefficients
    primal, dual, gap = gate_oracle._residuals(problem, *arrays, sol.primal, sol.dual)
    return primal <= LP_TOL and dual <= 10 * LP_TOL and gap <= LP_TOL


@pytest.mark.parametrize(
    "problem, status",
    [
        (_one_variable_problem(0.0, [(1.0, -1.0)]), lp.INFEASIBLE),
        (_one_variable_problem(1.0, []), lp.UNBOUNDED),
        (_one_variable_problem(1.0, [(-1.0, 1.0)]), lp.UNBOUNDED),
    ],
)
def test_infeasible_and_unbounded_match_linprog(monkeypatch, problem, status):
    # Only an optimum is kept unscaled: the scaled re-solve's status stands.
    calls = _recorded_linprog(monkeypatch)
    assert lp.solve(problem).status == _linprog_oracle(problem)[0] == status
    assert calls == [False, True]


def test_badly_scaled_max_norm_lp_solves():
    # min s s.t. |p - sum_j lambda_j c_j|_max <= s, lambda in the simplex,
    # from p = (0, 0.1) to the cloud (-1e-6, 0), (0.1, 1e-6), posed as
    # max -s: HiGHS's scaled solve of it left a primal residual of 9e-7.
    point, cloud = np.array([0.0, 0.1]), np.array([[-1e-6, 0.0], [0.1, 1e-6]])
    signs, coords = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0, 1, 0, 1])
    problem = columnwise_problem(
        objective=-np.array([0.0, 0.0, 1.0]),
        row_idx=np.concatenate((np.repeat(np.arange(4), 2), np.arange(4), [4, 4])),
        col_idx=np.concatenate((np.tile([0, 1], 4), np.full(4, 2), [0, 1])),
        coefficients=np.concatenate(((signs[:, None] * cloud[:, coords].T).ravel(), -np.ones(4), np.ones(2))),
        row_lower=np.append(np.full(4, -np.inf), 1.0),
        row_upper=np.append(signs * point[coords], 1.0),
        col_lower=np.zeros(3),
        col_upper=np.full(3, np.inf),
    )
    sol = lp.solve(problem)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(-0.099999, abs=1e-8)
    assert _gates_pass(problem, sol)


def _recorded_options(monkeypatch):
    """The options passed to every HiGHS instance made from here on, in
    order: (instance number, options object)."""
    made, passed = [], []

    class RecordingHighs(_highs._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

        def passOptions(self, options):
            passed.append((made.index(self), options))
            return super().passOptions(options)

    monkeypatch.setattr(lp._highs, "_Highs", RecordingHighs)
    return passed


def test_well_scaled_lps_never_make_the_scaled_instance(monkeypatch):
    # The package's LPs and the small hand-built ones keep their unscaled
    # answers: one linprog call each, and a new thread solving all of them
    # makes one HiGHS instance and passes it _HIGHS_OPTIONS once, never the
    # scaled options.
    problems = _oracle_problems(monkeypatch)
    calls = _recorded_linprog(monkeypatch)
    passed = _recorded_options(monkeypatch)
    _solve_in_new_thread(problems)
    assert passed == [(0, lp._HIGHS_OPTIONS)]
    assert calls == [False] * len(problems)


def test_a_gate_failure_falls_back_to_the_scaled_solve(monkeypatch):
    # The Blackwell (18,16) -> (16,16) gap LP unscaled misses the gap gate;
    # solve then returns, bit for bit, HiGHS's scaled solve at the options
    # every solve ran before (HiGHS's default scaling).
    a = blackwell_structure(BlackwellSpec(18, 16, 0.75, 0.75))
    b = blackwell_structure(BlackwellSpec(16, 16, 0.75, 0.75))
    problem = distance._gap_problem(a, b)[0]
    assert lp._gate_failure(problem, lp.linprog(problem)).startswith("residuals beyond gates")
    options = _highs.HighsOptions()
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "off"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = LP_TOL / 10
    options.dual_feasibility_tolerance = LP_TOL / 10
    highs = _highs._Highs()
    highs.passOptions(options)
    want = lp._run(highs, problem)
    calls = _recorded_linprog(monkeypatch)
    sol = lp.solve(problem)
    assert calls == [False, True]
    assert want.status == lp.OPTIMAL
    assert _same(sol, want) and sol.nit == want.nit
    assert _gates_pass(problem, sol)


def test_after_a_fallback_the_thread_solves_as_a_fresh_instance(monkeypatch):
    # A new thread solves the Blackwell (18,16) -> (16,16) gap LP, which
    # falls back, then a small gap LP.  It makes one HiGHS instance, passes
    # it the scaled options for the fallback and the unscaled ones back for
    # the next model, which gets every bit, and the iteration count, of its
    # solve on a fresh instance.
    a = blackwell_structure(BlackwellSpec(18, 16, 0.75, 0.75))
    b = blackwell_structure(BlackwellSpec(16, 16, 0.75, 0.75))
    fallback = distance._gap_problem(a, b)[0]
    rng = np.random.default_rng(20261025)
    small = distance._gap_problem(random_structure(rng, 3, 3, 4), random_structure(rng, 3, 4, 3))[0]
    fresh = _solve_in_new_thread([small])[0]
    calls = _recorded_linprog(monkeypatch)
    passed = _recorded_options(monkeypatch)
    got = _solve_in_new_thread([fallback, small])
    assert calls == [False, True, False]
    assert passed == [(0, lp._HIGHS_OPTIONS), (0, lp._SCALED_OPTIONS), (0, lp._HIGHS_OPTIONS)]
    assert got[0].status == fresh.status == lp.OPTIMAL
    assert _same(got[1], fresh) and got[1].nit == fresh.nit


def _fallback_answers(monkeypatch, answer):
    """``lp.linprog`` replaced by ``answer(problem)`` for the unscaled and
    the scaled run alike; the ``scaled`` flag of every call, in order."""
    calls = []

    def fake_linprog(problem, scaled=False):
        calls.append(scaled)
        return answer(problem)

    monkeypatch.setattr(lp, "linprog", fake_linprog)
    return calls


def test_a_scaled_fallback_that_ends_not_optimal_raises(monkeypatch):
    calls = _fallback_answers(monkeypatch, lambda problem: lp.LpSolution("Time limit reached"))
    with pytest.raises(NumericalFailure, match="HiGHS failed: Time limit reached"):
        lp.solve(_simple_problem())
    assert calls == [False, True]


def test_a_scaled_fallback_that_misses_a_gate_raises(monkeypatch):
    # x = 4 breaks the row x <= 3 by 1, far outside the primal gate.
    off = lp.LpSolution(lp.OPTIMAL, np.array([4.0]), np.array([1.0]), 4.0)
    calls = _fallback_answers(monkeypatch, lambda problem: off)
    with pytest.raises(NumericalFailure, match="residuals beyond gates: primal=1 "):
        lp.solve(_simple_problem())
    assert calls == [False, True]


@pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED])
def test_best_response_raises_unless_the_solve_is_optimal(monkeypatch, status):
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpSolution(status))
    with pytest.raises(NumericalFailure, match=f"best-response LP ended with status {status}"):
        lp.best_response(np.ones((2, 1, 2)), 1)


def _same(a, b):
    """Two solutions agree bit for bit."""
    return (
        a.status == b.status
        and a.primal.tobytes() == b.primal.tobytes()
        and a.dual.tobytes() == b.dual.tobytes()
        and np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    )


def test_a_problem_keeps_no_zero_coefficient(rng):
    # A matrix game max z s.t. z <= x.A[:, j], sum x = 1, whose A has zero
    # entries, posed with its explicit zeros (both +0 and -0) and without
    # them: the problems hold the same triplets and solve bit for bit alike.
    n_x, n_j = 4, 5
    a = rng.uniform(-1.0, 1.0, (n_x, n_j))
    a[rng.random(a.shape) < 0.4] = 0.0
    a[0, 0] = 0.0
    rows = np.concatenate((np.tile(np.arange(n_j + 1), n_x), np.arange(n_j)))
    cols = np.repeat(np.arange(n_x + 1), [n_j + 1] * n_x + [n_j])
    values = np.concatenate((np.column_stack((-a, np.ones(n_x))).ravel(), np.ones(n_j)))
    fields = dict(
        objective=np.append(np.zeros(n_x), 1.0),
        row_lower=np.append(np.full(n_j, -np.inf), 1.0),
        row_upper=np.append(np.zeros(n_j), 1.0),
        col_lower=np.append(np.zeros(n_x), -np.inf),
        col_upper=np.full(n_x + 1, np.inf),
    )
    keep = values != 0.0
    with_zeros = lp.LpProblem(row_idx=rows, col_idx=cols, coefficients=values, **fields)
    without = lp.LpProblem(row_idx=rows[keep], col_idx=cols[keep], coefficients=values[keep], **fields)
    assert with_zeros.coefficients.size == keep.sum() < values.size
    for name in ("row_idx", "col_idx", "coefficients", "_start"):
        assert np.array_equal(getattr(with_zeros, name), getattr(without, name)), name
    first, second = lp.solve(with_zeros), lp.solve(without)
    assert first.status == lp.OPTIMAL and _same(first, second)


def test_threads_solve_as_one_thread_does():
    # Each thread reuses its own HiGHS instance.  Two threads solving
    # different gap LPs in lockstep get every bit of the sequential solves.
    rng = np.random.default_rng(20261019)
    problems = [
        distance._gap_problem(
            random_structure(rng, n_k, *rng.integers(2, 5, 2), zeros=0.2),
            random_structure(rng, n_k, *rng.integers(2, 5, 2), zeros=0.2),
        )[0]
        for n_k in rng.integers(2, 4, 40)
    ]
    expected = [lp.solve(problem) for problem in problems]
    results = [None] * len(problems)
    turn = threading.Barrier(2, timeout=60)

    def work(offset):
        for i in range(offset, len(problems), 2):
            turn.wait()
            results[i] = lp.solve(problems[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,), daemon=True) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(_same(got, want) for got, want in zip(results, expected))


def _solve_in_new_thread(problems):
    """``lp.solve`` on each problem in turn, in one new thread (so on one
    new HiGHS instance)."""
    results = []
    thread = threading.Thread(target=lambda: results.extend(map(lp.solve, problems)), daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(results) == len(problems)
    return results


def test_reused_instance_solves_any_size_as_a_fresh_one_does():
    # One instance solves a small gap LP, a gap LP of more than 5000 matrix
    # entries, then the small one again, and each result is every bit of
    # that model's solve on an instance of its own.
    rng = np.random.default_rng(20261020)
    small = distance._gap_problem(random_structure(rng, 2, 3, 2), random_structure(rng, 2, 2, 3))[0]
    large = distance._gap_problem(random_structure(rng, 4, 9, 9), random_structure(rng, 4, 9, 9))[0]
    assert large.coefficients.size > 5000
    sequence = [small, large, small]
    fresh = [_solve_in_new_thread([problem])[0] for problem in sequence]
    reused = _solve_in_new_thread(sequence)
    assert all(got.status == lp.OPTIMAL for got in fresh)
    assert all(_same(got, want) for got, want in zip(reused, fresh))


def _linprog_through_highs_lp(problem):
    """``lp.linprog`` with the problem's model handed to a fresh HiGHS
    instance as a ``HighsLp`` object, filled field by field.  Returns the
    status, HiGHS's x and row duals, and the iteration count."""
    n_rows, n_cols = problem.n_rows, problem.n_vars
    model = _highs.HighsLp()
    model.num_col_ = n_cols
    model.num_row_ = n_rows
    model.col_cost_ = problem._cost
    model.col_lower_, model.col_upper_ = problem.col_lower, problem.col_upper
    model.row_lower_, model.row_upper_ = problem.row_lower, problem.row_upper
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = problem._start
    matrix.index_ = problem.row_idx
    matrix.value_ = problem.coefficients
    highs = _highs._Highs()
    highs.passOptions(lp._HIGHS_OPTIONS)
    assert highs.passModel(model) != _highs.HighsStatus.kError
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    nit = max(info.simplex_iteration_count, 0) + max(info.ipm_iteration_count, 0)
    status = lp._STATUS.get(model_status) or highs.modelStatusToString(model_status)
    if status != lp.OPTIMAL:
        return status, np.zeros(0), np.zeros(0), nit
    solution = highs.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_dual), nit


def test_flat_model_solves_as_a_highs_lp_object_does(monkeypatch):
    # linprog passes the column-wise arrays straight to passModel; HiGHS
    # gets the same model as from a HighsLp object and solves it the same.
    rng = np.random.default_rng(20261022)
    large = distance._gap_problem(random_structure(rng, 4, 9, 9), random_structure(rng, 4, 9, 9))[0]
    assert large.coefficients.size > 5000
    problems = _oracle_problems(monkeypatch) + [
        large,
        _one_variable_problem(0.0, [(1.0, -1.0)]),
        _one_variable_problem(1.0, []),
    ]
    statuses = set()
    for problem in problems:
        got = lp.linprog(problem)
        status, x, row_dual, nit = _linprog_through_highs_lp(problem)
        assert (got.status, got.nit) == (status, nit)
        assert got.primal.tobytes() == x.tobytes()
        assert got.dual.tobytes() == (-row_dual).tobytes()
        statuses.add(got.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_a_rejected_model_reports_no_iterations():
    # HiGHS rejects a coefficient of at least 1e15 in passModel and runs
    # nothing; its iteration counts are then unavailable, not the last
    # solve's.
    assert lp.solve(_simple_problem()).status == lp.OPTIMAL
    res = lp.linprog(_one_variable_problem(-1.0, [(1e15, 1.0)]))
    assert (res.status, res.nit) == (lp.INFEASIBLE, 0)


def _large_gap_pairs(seed, signals=range(5, 10)):
    """Both directions' gap LPs of dense K=4, L x L pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in signals:
        u, v = random_structure(rng, 4, n, n), random_structure(rng, 4, n, n)
        pairs.append((distance._gap_problem(u, v)[0], distance._gap_problem(v, u)[0]))
    return pairs


@pytest.fixture
def handoffs(monkeypatch, two_cpus):
    """Sizes of the models ``solve_pair`` hands to a helper, in order."""
    sizes = []
    handoff = lp._Handoff

    class CountingHandoff(handoff):
        def __init__(self, problem):
            sizes.append(problem.coefficients.size)
            super().__init__(problem)

    monkeypatch.setattr(lp, "_Handoff", CountingHandoff)
    return sizes


def test_paired_solves_are_the_serial_solves(handoffs):
    # K=4, L=5..9: every second model has 1,050 to 5,994 entries, so each
    # pair solves on two threads, and gets every bit of the serial solves.
    pairs = _large_gap_pairs(20261021)
    serial = [(lp.solve(first), lp.solve(second)) for first, second in pairs]
    paired = [lp.solve_pair(first, second) for first, second in pairs]
    assert handoffs == [second.coefficients.size for _, second in pairs]
    assert min(handoffs) >= lp._PAIR_MIN_ENTRIES
    for want, got in zip(serial, paired):
        assert want[0].status == want[1].status == lp.OPTIMAL
        assert _same(got[0], want[0]) and _same(got[1], want[1])
    assert lp._THREAD.handoff is None


def test_small_or_single_cpu_pairs_solve_in_series(monkeypatch, handoffs):
    # Below _PAIR_MIN_ENTRIES, or on one CPU, solve_pair is two solves on
    # this thread and starts no helper.  With no affinity call and no CPU
    # count, the process is taken to have one CPU.
    rng = np.random.default_rng(20261022)
    u, v = random_structure(rng, 3, 4, 4), random_structure(rng, 3, 4, 4)
    small = (distance._gap_problem(u, v)[0], distance._gap_problem(v, u)[0])
    assert small[1].coefficients.size < lp._PAIR_MIN_ENTRIES
    large = _large_gap_pairs(20261023, [6])[0]
    want = {pair: (lp.solve(pair[0]), lp.solve(pair[1])) for pair in (small, large)}

    def one_cpu():
        monkeypatch.setattr(lp.os, "sched_getaffinity", lambda pid: {0})

    def no_cpu_count():
        monkeypatch.delattr(lp.os, "sched_getaffinity")
        monkeypatch.setattr(lp.os, "cpu_count", lambda: None)

    for pair, limit in ((small, None), (large, one_cpu), (large, no_cpu_count)):
        if limit:
            limit()
        got = lp.solve_pair(*pair)
        assert _same(got[0], want[pair][0]) and _same(got[1], want[pair][1])
    assert lp._cpu_count() == 1
    assert handoffs == []


def test_a_failed_helper_run_propagates_and_the_next_pair_solves(monkeypatch, handoffs):
    # An exception in one pair's helper thread reaches the caller from
    # linprog, and the next pair starts a new helper that solves it.
    first, second = _large_gap_pairs(20261024, [6])[0]
    want = (lp.solve(first), lp.solve(second))
    run = lp._run

    def fail_on_helper(*args):
        if threading.current_thread().name == "infodist-highs":
            raise RuntimeError("injected")
        return run(*args)

    monkeypatch.setattr(lp, "_run", fail_on_helper)
    with pytest.raises(RuntimeError, match="injected"):
        lp.solve_pair(first, second)
    assert lp._THREAD.handoff is None
    monkeypatch.setattr(lp, "_run", run)
    got = lp.solve_pair(first, second)
    assert _same(got[0], want[0]) and _same(got[1], want[1])
    assert len(handoffs) == 2


def test_callers_on_three_threads_each_start_their_own_helpers(handoffs):
    # Three threads, more than the cores, each start one helper thread per
    # large pair, at a short switch interval: every result is still the
    # serial solve of its own model.
    pairs = _large_gap_pairs(20261027, [5, 5, 6, 5, 6, 5])
    expected = [(lp.solve(first), lp.solve(second)) for first, second in pairs]
    results = [None] * len(pairs)

    def work(offset):
        for i in range(offset, len(pairs), 3):
            results[i] = lp.solve_pair(*pairs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,), daemon=True) for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(handoffs) == len(pairs)
    for got, want in zip(results, expected):
        assert _same(got[0], want[0]) and _same(got[1], want[1])
