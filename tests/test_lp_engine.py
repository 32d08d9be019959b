import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog  # the oracle for lp.solve only

from infodist import distance, games, lp
from infodist.config import LP_TOL

from conftest import random_game, random_structure


def _one_variable_problem(objective, rows, maximize):
    """Problem in x >= 0 with rows ``coefficient * x <= rhs``."""
    return lp.LpProblem(
        objective=[objective],
        row_idx=np.arange(len(rows)),
        col_idx=np.zeros(len(rows), dtype=int),
        coefficients=[coefficient for coefficient, _ in rows],
        senses=(lp.LEQ,) * len(rows),
        rhs=[rhs for _, rhs in rows],
        bounds=((0.0, None),),
        maximize=maximize,
    )


def _simple_problem(scale=1.0):
    return _one_variable_problem(scale, [(1.0, 3.0)], maximize=True)


def test_bounded_maximum():
    sol = lp.solve(_simple_problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
    # shadow price of the binding constraint
    assert sol.dual[0] == pytest.approx(1.0, abs=1e-8)


def test_infeasible_detected():
    sol = lp.solve(_one_variable_problem(0.0, [(1.0, -1.0)], maximize=False))
    assert sol.status == lp.INFEASIBLE


def test_unbounded_detected():
    sol = lp.solve(_one_variable_problem(1.0, [], maximize=True))
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
        problem = lp.LpProblem(
            objective=[1.0, 0.0, 0.0, 0.0, 0.0],
            row_idx=np.concatenate((np.repeat(np.arange(4), 5), np.full(4, 4))),
            col_idx=np.concatenate((np.tile(np.arange(5), 4), 1 + np.arange(4))),
            coefficients=np.concatenate(
                (np.column_stack((np.ones(4), -matrix.T)).ravel(), np.ones(4))
            ),
            senses=(lp.LEQ,) * 4 + (lp.EQ,),
            rhs=[0.0, 0.0, 0.0, 0.0, 1.0],
            bounds=((None, None),) + ((0.0, None),) * 4,
            maximize=True,
        )
        sol = lp.solve(problem)
        assert sol.status == lp.OPTIMAL
        assert lp.complementary_slackness(problem, sol) <= 1e-7


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


def _linprog_oracle(problem):
    """``problem`` through ``scipy.optimize.linprog`` at the tolerances
    ``lp.solve`` gives HiGHS: ``<=`` and sign-flipped ``>=`` rows as A_ub,
    ``==`` rows as A_eq.  Returns (status, primal, duals, objective), the
    duals oriented as ``lp.solve`` reports them."""
    a = problem.matrix().tocsr()
    senses = np.asarray(problem.senses)
    ub = np.flatnonzero(senses != lp.EQ)
    eq = np.flatnonzero(senses == lp.EQ)
    sign = np.where(senses[ub] == lp.GEQ, -1.0, 1.0)
    res = linprog(
        -problem.objective if problem.maximize else problem.objective,
        A_ub=sp.diags(sign) @ a[ub] if ub.size else None,
        b_ub=sign * problem.rhs[ub] if ub.size else None,
        A_eq=a[eq] if eq.size else None,
        b_eq=problem.rhs[eq] if eq.size else None,
        bounds=list(problem.bounds),
        method="highs",
        options={"primal_feasibility_tolerance": LP_TOL / 10, "dual_feasibility_tolerance": LP_TOL / 10},
    )
    status = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[res.status]
    if status != lp.OPTIMAL:
        return status, None, None, None
    duals = np.zeros(problem.n_rows)
    duals[ub] = sign * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    if problem.maximize:
        duals = -duals
    return status, res.x, duals, float(problem.objective @ res.x)


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
    rng = np.random.default_rng(20261018)
    problems = []
    # Gap LPs: unequal signal counts, zero cells, one-signal players.
    for shape_u, shape_v, zeros in [
        ((2, 3, 2), (2, 2, 3), 0.0),
        ((3, 4, 2), (3, 2, 4), 0.3),
        ((2, 1, 3), (2, 3, 1), 0.0),
        ((3, 3, 3), (3, 2, 2), 0.4),
        ((4, 2, 3), (4, 3, 3), 0.2),
    ]:
        u = random_structure(rng, *shape_u, zeros=zeros)
        v = random_structure(rng, *shape_v, zeros=zeros)
        problems.append(distance._gap_problem(u, v)[0])
        problems.append(distance._gap_problem(v, u)[0])
    # games.value's best-response LP, zero cells included.
    for shape, actions in [((2, 3, 2), (2, 3)), ((3, 2, 4), (3, 2))]:
        u = random_structure(rng, *shape, zeros=0.3)
        g = random_game(rng, shape[0], *actions)
        problems += _recorded_problems(monkeypatch, lambda: games.value(u, g))
    # The coordinate-ascent LPs of diameter_bounds.
    p, q = rng.dirichlet(np.ones(4), size=2)
    problems += _recorded_problems(
        monkeypatch, lambda: distance._ascend_overlap(p, q, p.copy(), q.copy())
    )
    # Small problems, one with >= and == rows.
    problems.append(_simple_problem())
    problems.append(_one_variable_problem(-1.0, [(1.0, 3.0), (-2.0, 1.0)], maximize=False))
    problems.append(
        lp.LpProblem(
            objective=[1.0, 2.0],
            row_idx=[0, 0, 1, 1],
            col_idx=[0, 1, 0, 1],
            coefficients=[1.0, 1.0, 1.0, -1.0],
            senses=(lp.GEQ, lp.EQ),
            rhs=[1.0, 0.2],
            bounds=((0.0, None), (None, 5.0)),
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


@pytest.mark.parametrize(
    "problem, status",
    [
        (_one_variable_problem(0.0, [(1.0, -1.0)], maximize=False), lp.INFEASIBLE),
        (_one_variable_problem(1.0, [], maximize=True), lp.UNBOUNDED),
        (_one_variable_problem(-1.0, [(-1.0, 1.0)], maximize=False), lp.UNBOUNDED),
    ],
)
def test_infeasible_and_unbounded_match_linprog(problem, status):
    assert lp.solve(problem).status == _linprog_oracle(problem)[0] == status
