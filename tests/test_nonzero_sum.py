import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infodist as inf
from infodist import PLAYER1, lp
from infodist.catalog import parity_coordination_game
from infodist.payoffs import best_common_payoff, clip_polygon_to_halfplane, point_to_polygon_distance

from conftest import random_ci_structure, random_garbling, random_structure


def _random_bimatrix(rng, n_k, n_i, n_j):
    return inf.BimatrixGame(
        rng.uniform(-1, 1, (n_k, n_i, n_j)), rng.uniform(-1, 1, (n_k, n_i, n_j))
    )


def _public_structure(rng, n_k, n_s):
    joint = rng.random((n_k, n_s)) + 0.05
    joint /= joint.sum()
    probs = np.zeros((n_k, n_s, n_s))
    probs[:, np.arange(n_s), np.arange(n_s)] = joint
    return inf.validate_structure(probs)


def _one_sided_structure(rng, n_k, n_d):
    joint = rng.random((n_k, n_d)) + 0.05
    joint /= joint.sum()
    probs = np.zeros((n_k, n_k * n_d, n_d))
    for k in range(n_k):
        for d in range(n_d):
            probs[k, k * n_d + d, d] = joint[k, d]
    return inf.validate_structure(probs)


def test_constant_bimatrix_single_point(rng):
    u = random_structure(rng, 2, 2, 2)
    g = inf.BimatrixGame(np.full((2, 2, 2), 0.3), np.full((2, 2, 2), -0.1))
    polygon = inf.feasible_set(u, g)
    assert len(polygon.vertices) == 1
    assert np.allclose(polygon.vertices[0], [0.3, -0.1])


def test_i4_feasible_sets():
    pairs = inf.counterexample_pairs()["split_secret"]
    g = parity_coordination_game()
    f_u = inf.feasible_set(pairs["u"], g)
    f_v = inf.feasible_set(pairs["v"], g)
    assert f_u.contains([1.0, 1.0])
    assert np.abs(f_v.vertices).max() <= 1e-12  # only (0, 0) feasible
    assert inf.hausdorff_max(f_u, f_v) >= 1.0 - 1e-6


def test_hausdorff_examples():
    pa = inf.PayoffPolygon(np.array([[0.0, 0.0]]))
    assert inf.hausdorff_max(pa, pa) == 0.0
    pb = inf.PayoffPolygon(np.array([[1.0, 0.5]]))
    assert inf.hausdorff_max(pa, pb) == pytest.approx(1.0)
    square = inf.PayoffPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
    shifted = inf.PayoffPolygon(square.vertices + np.array([0.3, 0.1]))
    assert inf.hausdorff_max(square, shifted) == pytest.approx(0.3)


def test_hausdorff_metric_properties(rng):
    polygons = [
        inf.PayoffPolygon(rng.uniform(-1, 1, (6, 2))) for _ in range(6)
    ]
    for p in polygons:
        assert inf.hausdorff_max(p, p) <= 1e-12
    for a in polygons[:3]:
        for b in polygons[3:]:
            assert inf.hausdorff_max(a, b) == pytest.approx(
                inf.hausdorff_max(b, a), abs=1e-9
            )
    a, b, c = polygons[:3]
    assert inf.hausdorff_max(a, c) <= inf.hausdorff_max(a, b) + inf.hausdorff_max(
        b, c
    ) + 1e-9


def test_polygon_degenerate_inputs():
    with pytest.raises(inf.ShapeMismatch):
        inf.PayoffPolygon(np.zeros((0, 2)))
    segment = inf.PayoffPolygon(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
    assert len(segment.vertices) == 2
    assert point_to_polygon_distance(np.array([0.5, 0.5]), segment) <= 1e-12


_SQUARE = inf.PayoffPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: inf.PayoffPolygon([[np.nan, 0.0], [1.0, 1.0]]), inf.NotNormalized),
        (lambda: inf.PayoffPolygon([[np.inf, 0.0], [1.0, 1.0], [0.0, 1.0]]), inf.NotNormalized),
        (lambda: _SQUARE.contains([np.nan, 0.2]), inf.NotNormalized),
        (lambda: _SQUARE.contains([0.5, 0.5, 0.5]), inf.ShapeMismatch),
        (lambda: _SQUARE.contains([0.5]), inf.ShapeMismatch),
    ],
    ids=["nan-vertex", "inf-vertex", "nan-point", "3d-point", "1d-point"],
)
def test_malformed_payoffs_are_rejected(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "x, error", [([0.1, 0.1, 0.1], inf.ShapeMismatch), ([np.nan, np.nan], inf.NotNormalized)]
)
def test_ir_bound_rejects_a_malformed_point(rng, x, error):
    u = random_ci_structure(rng, 2, 2, 2)
    with pytest.raises(error):
        inf.verify_ir_bound(u, u, _random_bimatrix(rng, 2, 2, 2), x)


@pytest.mark.parametrize("coordinate", [2, -1, 1.0])
def test_clip_rejects_a_coordinate_outside_the_plane(coordinate):
    with pytest.raises(inf.ShapeMismatch):
        clip_polygon_to_halfplane(_SQUARE, coordinate, 0.0)


def test_unknown_bound_case_is_invalid_parameters(rng):
    u = random_ci_structure(rng, 2, 2, 2)
    with pytest.raises(inf.InvalidParameters, match="bogus"):
        inf.verify_feasible_bound(u, u, _random_bimatrix(rng, 2, 2, 2), "bogus")


def test_clip_polygon_to_halfplane():
    point = inf.PayoffPolygon([[0.5, 0.25]])
    assert clip_polygon_to_halfplane(point, 1, 0.25).vertices.tolist() == [[0.5, 0.25]]
    assert clip_polygon_to_halfplane(point, 0, 0.75) is None
    segment = inf.PayoffPolygon([[0.0, 0.0], [1.0, 2.0]])
    assert clip_polygon_to_halfplane(segment, 1, 1.0).vertices.tolist() == [[0.5, 1.0], [1.0, 2.0]]
    assert clip_polygon_to_halfplane(segment, 0, 0.25).vertices.tolist() == [[0.25, 0.5], [1.0, 2.0]]
    assert clip_polygon_to_halfplane(_SQUARE, 0, 0.5).vertices.tolist() == [
        [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]
    ]
    assert clip_polygon_to_halfplane(_SQUARE, 1, 1.5) is None


def _lp_distance(point, cloud) -> float:
    """min s s.t. |point - sum_j lambda_j cloud_j|_max <= s, lambda in the simplex.

    Posed with the point moved to the origin: a right-hand side such as 0.2
    against cloud entries of 1e-6 leaves HiGHS's scaled solve outside the
    residual gates of ``lp.solve``.
    """
    n = len(cloud)
    cloud = cloud - np.asarray(point)
    signs, coords = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0, 1, 0, 1])
    problem = lp.LpProblem(
        objective=np.append(np.zeros(n), 1.0),
        row_idx=np.concatenate((np.repeat(np.arange(4), n), np.arange(4), np.full(n, 4))),
        col_idx=np.concatenate((np.tile(np.arange(n), 4), np.full(4, n), np.arange(n))),
        coefficients=np.concatenate(((signs[:, None] * cloud[:, coords].T).ravel(), -np.ones(4), np.ones(n))),
        row_lower=np.append(np.full(4, -np.inf), 1.0),
        row_upper=np.append(np.zeros(4), 1.0),
        col_lower=np.zeros(n + 1),
        col_upper=np.full(n + 1, np.inf),
    )
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    return solution.objective


# Coordinates on a 1e-6 grid or rounded to 0.1: a polygon merges vertices
# closer than NORM_TOL, which the oracle's cloud does not.
_COORD = st.one_of(st.integers(-10**6, 10**6).map(lambda k: k / 1e6), st.integers(-10, 10).map(lambda k: k / 10))
_POINT = st.tuples(_COORD, _COORD)


@st.composite
def _clouds(draw):
    """One point, a segment, a collinear cloud, or 1-8 free points."""
    kind = draw(st.sampled_from(["one", "segment", "collinear", "free"]))
    if kind == "collinear":
        a, b = np.array(draw(_POINT)), np.array(draw(_POINT))
        ts = draw(st.lists(st.integers(-10, 20), min_size=1, max_size=8))
        return a + np.array(ts)[:, None] / 10 * (b - a)
    size = {"one": 1, "segment": 2}.get(kind) or draw(st.integers(1, 8))
    return np.array(draw(st.lists(_POINT, min_size=size, max_size=size)))


@given(_clouds(), _clouds(), _POINT, st.integers(0, 7))
# The same examples in every run, whichever tests ran before, so that two
# runs pose the same oracle LPs.
@settings(derandomize=True, database=None)
# A collinear cloud whose rounding once left a zero-area triangle that
# called every point on its line inside.
@example(np.array([[0.0, 0.0]]), np.array([[3e-7, 1e-7], [6e-7, 2e-7], [1.5e-6, 5e-7]]), (0.0, 0.0), 0)
# An oracle LP that HiGHS left beyond the gates when posed at the point 0.1.
@example(np.array([[0.0, 0.1]]), np.array([[-1e-6, 0.0], [0.1, 1e-6]]), (0.0, 0.0), 0)
def test_max_norm_distances_match_an_lp(cloud_a, cloud_b, point, vertex):
    pa, pb = inf.PayoffPolygon(cloud_a), inf.PayoffPolygon(cloud_b)
    for p in [point, *cloud_a, cloud_b[vertex % len(cloud_b)], pb.vertices[vertex % len(pb.vertices)]]:
        assert abs(point_to_polygon_distance(p, pb) - _lp_distance(p, cloud_b)) <= 1e-9
    want = max(max(_lp_distance(p, cloud_b) for p in cloud_a), max(_lp_distance(p, cloud_a) for p in cloud_b))
    assert abs(inf.hausdorff_max(pa, pb) - want) <= 1e-9


def test_point_beyond_a_sharp_vertex_is_outside():
    thin = inf.PayoffPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]]))
    assert len(thin.vertices) == 3
    assert point_to_polygon_distance((-1e-4, 0.0), thin) == pytest.approx(1e-4, abs=1e-12)
    assert not thin.contains((-1e-4, 0.0))


def test_garbled_feasible_set_contained(rng):
    u = random_structure(rng, 2, 3, 2)
    g = _random_bimatrix(rng, 2, 2, 2)
    garbled = inf.garble(u, PLAYER1, random_garbling(rng, 3, 3))
    f_original = inf.feasible_set(u, g)
    f_garbled = inf.feasible_set(garbled, g)
    for vertex in f_garbled.vertices:
        assert point_to_polygon_distance(vertex, f_original) <= 1e-9


def test_budget_guard(rng):
    u = random_structure(rng, 2, 3, 3)
    g = _random_bimatrix(rng, 2, 3, 3)
    with pytest.raises(inf.BudgetExceeded):
        inf.feasible_set(u, g, budget=10)


def test_non_positive_budget_is_invalid_parameters(rng):
    u = random_structure(rng, 2, 2, 2)
    with pytest.raises(inf.InvalidParameters, match="budget must be positive"):
        inf.value_normal_form(u, inf.ZeroSumGame(rng.uniform(-1, 1, (2, 2, 2))), budget=0)
    with pytest.raises(inf.InvalidParameters, match="budget must be positive"):
        inf.feasible_set(u, _random_bimatrix(rng, 2, 2, 2), budget=-3)


@pytest.mark.parametrize("budget", [2.5, np.float64(4.0)])
def test_non_integer_budget_is_invalid_parameters(rng, budget):
    # A float budget is refused as such, not compared with a profile count.
    u = random_structure(rng, 2, 2, 2)
    with pytest.raises(inf.InvalidParameters, match="budget must be an integer"):
        inf.value_normal_form(u, inf.ZeroSumGame(rng.uniform(-1, 1, (2, 2, 2))), budget=budget)
    with pytest.raises(inf.InvalidParameters, match="budget must be an integer"):
        inf.feasible_set(u, _random_bimatrix(rng, 2, 2, 2), budget=budget)


def test_verify_bound_equal_structures(rng):
    u = random_ci_structure(rng, 2, 2, 2)
    g = _random_bimatrix(rng, 2, 2, 2)
    report = inf.verify_feasible_bound(u, u, g, "cond_indep")
    assert report.passed
    assert report.hausdorff <= 1e-9


def test_verify_bound_conditionally_independent(rng):
    for _ in range(5):
        u = random_ci_structure(rng, 2, 2, 2)
        v = random_ci_structure(rng, 2, 2, 2)
        g = _random_bimatrix(rng, 2, 2, 2)
        report = inf.verify_feasible_bound(u, v, g, "cond_indep")
        assert report.multiplier == 3.0
        assert report.passed, (report.hausdorff, report.distance)


def test_verify_bound_public_signals(rng):
    for _ in range(5):
        u = _public_structure(rng, 2, 3)
        v = _public_structure(rng, 2, 2)
        g = _random_bimatrix(rng, 2, 2, 2)
        report = inf.verify_feasible_bound(u, v, g, "public")
        assert report.multiplier == 1.0
        assert report.passed, (report.hausdorff, report.distance)


def test_verify_bound_one_sided(rng):
    for _ in range(5):
        u = _one_sided_structure(rng, 2, 2)
        v = _one_sided_structure(rng, 2, 2)
        g = _random_bimatrix(rng, 2, 2, 2)
        report = inf.verify_feasible_bound(u, v, g, "one_sided")
        assert report.multiplier == 1.0
        assert report.passed, (report.hausdorff, report.distance)


def test_verify_bound_hypothesis_gates(rng):
    i4 = inf.counterexample_pairs()["split_secret"]
    g = parity_coordination_game()
    for case in ("cond_indep", "public", "one_sided"):
        with pytest.raises(inf.HypothesisViolated):
            inf.verify_feasible_bound(i4["u"], i4["v"], g, case)


def test_ir_bound_identical_structures(rng):
    u = random_ci_structure(rng, 2, 2, 2)
    g = _random_bimatrix(rng, 2, 2, 2)
    f_u = inf.feasible_set(u, g)
    m = inf.minmax_levels(u, g)
    candidates = [v for v in f_u.vertices if v[0] >= m[0] and v[1] >= m[1]]
    if not candidates:
        pytest.skip("no individually rational vertex for this draw")
    report = inf.verify_ir_bound(u, u, g, candidates[0])
    assert report.passed
    assert report.point_distance <= 1e-9


def test_ir_bound_nearby_structures(rng):
    checked = 0
    for _ in range(10):
        u = random_ci_structure(rng, 2, 2, 2)
        # small conditionally independent perturbation keeps d(u, v) tiny
        pk = u.state_marginal()
        c_given_k = u.probs.sum(axis=2) / pk[:, None]
        d_given_k = u.probs.sum(axis=1) / pk[:, None]
        noise = np.full((2, 2), 0.5)
        c_mixed = 0.97 * c_given_k + 0.03 * noise
        v = inf.validate_structure(np.einsum("k,kc,kd->kcd", pk, c_mixed, d_given_k))
        g = _random_bimatrix(rng, 2, 2, 2)
        d = inf.value_distance(u, v)
        f_u = inf.feasible_set(u, g)
        m_u = inf.minmax_levels(u, g)
        ok = [
            x
            for x in f_u.vertices
            if x[0] >= m_u[0] + 4 * d and x[1] >= m_u[1] + 4 * d
        ]
        if not ok:
            continue
        report = inf.verify_ir_bound(u, v, g, ok[0])
        assert report.passed, report
        checked += 1
    assert checked >= 3


def test_ir_bound_hypothesis_gate(rng):
    u = random_ci_structure(rng, 2, 2, 2)
    g = _random_bimatrix(rng, 2, 2, 2)
    with pytest.raises(inf.HypothesisViolated):
        inf.verify_ir_bound(u, u, g, np.array([5.0, 5.0]))  # infeasible point


def test_common_interest_best_payoff_gap(rng):
    for _ in range(5):
        u = random_ci_structure(rng, 2, 2, 2)
        v = random_ci_structure(rng, 2, 2, 2)
        payoff = rng.uniform(-1, 1, (2, 2, 2))
        g = inf.BimatrixGame(payoff, payoff)
        d = inf.value_distance(u, v)
        best_u = best_common_payoff(inf.feasible_set(u, g))
        best_v = best_common_payoff(inf.feasible_set(v, g))
        assert abs(best_u - best_v) <= 3 * d + 1e-6
