"""Feasible-payoff polygons and their distance bounds.

The feasible set of a two-player Bayesian game is the convex hull of the
expected payoff pairs over all pure decision-rule profiles.  Hulls live in
the plane under the max norm, where the Hausdorff distance between convex
polygons is attained at vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import NORM_TOL, DIST_TOL, ZERO_TOL, resolve_budget
from .distance import value_distance
from .errors import BudgetExceeded, EmptyInput, HypothesisViolated, ShapeMismatch
from .games import BimatrixGame, minmax_levels
from .structures import HYPOTHESIS_TOL, InformationStructure, check_signals_cond_indep


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise hull via monotone chain; collinear points dropped.

    Handles degenerate clouds (single point, segment) by returning the
    distinct extreme points.
    """
    pts = np.unique(np.round(points, 12), axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.asarray(lower[:-1] + upper[:-1])
    if len(hull) == 0:
        return pts[:1]
    return hull


@dataclass(frozen=True, eq=False)
class PayoffPolygon:
    """Convex polygon of feasible payoff pairs, vertices counter-clockwise."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ShapeMismatch(f"vertices must be (m, 2), got {pts.shape}")
        hull = _convex_hull(pts)
        if len(hull) > 1:
            keep = [0]
            for i in range(1, len(hull)):
                if np.abs(hull[i] - hull[keep[-1]]).max() > NORM_TOL:
                    keep.append(i)
            if len(keep) > 1 and np.abs(hull[keep[-1]] - hull[keep[0]]).max() <= NORM_TOL:
                keep.pop()
            hull = hull[keep]
        hull = np.ascontiguousarray(hull)
        hull.setflags(write=False)
        object.__setattr__(self, "vertices", hull)

    @staticmethod
    def from_points(points) -> "PayoffPolygon":
        return PayoffPolygon(np.asarray(points, dtype=float))

    def contains(self, point, tol: float = NORM_TOL) -> bool:
        return point_to_polygon_distance(np.asarray(point, float), self) <= tol


def _segment_nearest(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """min over t in [0,1] of || p - (a + t (b-a)) ||_max, and the point
    a + t (b-a) of the first candidate t attaining it.

    The objective is piecewise-linear convex in t; candidates are the ends,
    the per-coordinate zeros, and the crossings |dx(t)| = |dy(t)|.
    """
    d = b - a
    r = p - a
    candidates = [0.0, 1.0]
    for i in range(2):
        if abs(d[i]) > ZERO_TOL:
            candidates.append(r[i] / d[i])
    # |r0 - t d0| = |r1 - t d1| crossings
    for s1, s2 in ((1, 1), (1, -1)):
        denom = s1 * d[0] - s2 * d[1]
        if abs(denom) > ZERO_TOL:
            candidates.append((s1 * r[0] - s2 * r[1]) / denom)
    best, best_t = np.inf, 0.0
    for t in candidates:
        t = min(max(t, 0.0), 1.0)
        diff = r - t * d
        dist = max(abs(diff[0]), abs(diff[1]))
        if dist < best:
            best, best_t = dist, t
    return float(best), a + best_t * d


def _nearest(point: np.ndarray, polygon: PayoffPolygon) -> tuple[float, np.ndarray]:
    """Max-norm distance from a point to a convex polygon (0 inside), and a
    nearest point of the polygon."""
    verts = polygon.vertices
    if len(verts) == 1:
        return float(np.abs(point - verts[0]).max()), verts[0].copy()
    if _inside(point, verts):
        return 0.0, point.copy()
    m = len(verts)
    return min(
        (_segment_nearest(point, verts[i], verts[(i + 1) % m]) for i in range(m)),
        key=lambda found: found[0],
    )


def point_to_polygon_distance(point: np.ndarray, polygon: PayoffPolygon) -> float:
    """Max-norm distance from a point to a convex polygon (0 inside)."""
    return _nearest(point, polygon)[0]


def _inside(point: np.ndarray, verts: np.ndarray) -> bool:
    if len(verts) < 3:
        return False
    m = len(verts)
    for i in range(m):
        a = verts[i]
        b = verts[(i + 1) % m]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        if cross < -ZERO_TOL:
            return False
    return True


def hausdorff_max(pa: PayoffPolygon, pb: PayoffPolygon) -> float:
    """Hausdorff distance under the max norm.

    For convex sets the directed sup of the (convex) distance-to-set
    function is attained at a vertex, so scanning both vertex lists is
    exact.
    """
    if len(pa.vertices) == 0 or len(pb.vertices) == 0:
        raise EmptyInput("polygons must be non-empty")
    d_ab = max(point_to_polygon_distance(v, pb) for v in pa.vertices)
    d_ba = max(point_to_polygon_distance(v, pa) for v in pb.vertices)
    return max(d_ab, d_ba)


def feasible_set(
    u: InformationStructure, g: BimatrixGame, budget: int | None = None
) -> PayoffPolygon:
    """Convex hull of expected payoff pairs over pure decision-rule profiles."""
    if u.state_count != g.state_count:
        raise ShapeMismatch(
            f"structure has {u.state_count} states, game has {g.state_count}"
        )
    budget = resolve_budget(budget)
    n_c, n_d = u.signals1_count, u.signals2_count
    n_i, n_j = g.actions1_count, g.actions2_count
    n_rules1 = n_i**n_c
    n_rules2 = n_j**n_d
    if n_rules1 * n_rules2 > budget:
        raise BudgetExceeded(
            f"{n_rules1} x {n_rules2} pure profiles exceed budget {budget}"
        )
    # coeff[m, c, i, d, j] = sum_k u(k,c,d) g_m(k,i,j)
    stacked = np.stack([g.payoffs1, g.payoffs2])
    coeff = np.einsum("kcd,mkij->mcidj", u.probs, stacked)
    rules2 = np.asarray(list(itertools.product(range(n_j), repeat=n_d)), dtype=int)
    points = np.empty((n_rules1 * n_rules2, 2))
    row = 0
    for rule1 in itertools.product(range(n_i), repeat=n_c):
        # (m, d, j) payoffs after fixing player 1's rule
        fixed = coeff[:, np.arange(n_c), rule1, :, :].sum(axis=1)
        by_rule2 = fixed[:, np.arange(n_d)[None, :], rules2].sum(axis=2)
        points[row : row + n_rules2] = by_rule2.T
        row += n_rules2
    return PayoffPolygon.from_points(points)


def clip_polygon_to_halfplane(
    polygon: PayoffPolygon, coordinate: int, minimum: float
) -> PayoffPolygon | None:
    """Intersect with {y: y[coordinate] >= minimum}; None when empty."""
    verts = polygon.vertices
    if len(verts) == 1:
        return polygon if verts[0][coordinate] >= minimum - ZERO_TOL else None
    out: list[np.ndarray] = []
    m = len(verts)
    closed = m > 2
    edges = range(m) if closed else range(m - 1)
    for i in edges:
        a, b = verts[i], verts[(i + 1) % m]
        a_in = a[coordinate] >= minimum - ZERO_TOL
        b_in = b[coordinate] >= minimum - ZERO_TOL
        if a_in:
            out.append(a)
        if a_in != b_in:
            t = (minimum - a[coordinate]) / (b[coordinate] - a[coordinate])
            out.append(a + t * (b - a))
    if not closed and len(verts) == 2 and verts[-1][coordinate] >= minimum - ZERO_TOL:
        out.append(verts[-1])
    if not out:
        return None
    return PayoffPolygon.from_points(np.asarray(out))


@dataclass(frozen=True)
class FeasibleBoundReport:
    case: str
    distance: float
    hausdorff: float
    multiplier: float
    passed: bool


def _check_case(u: InformationStructure, v: InformationStructure, case: str) -> float:
    """Validate the structural hypothesis; returns the bound multiplier."""
    if case == "cond_indep":
        check_signals_cond_indep(u, v)
        return 3.0
    if case == "public":
        for s in (u, v):
            if s.signals1_count != s.signals2_count:
                raise HypothesisViolated("public signals need equal signal spaces")
            off = s.probs.sum() - np.trace(s.probs.sum(axis=0))
            if off > ZERO_TOL:
                raise HypothesisViolated(f"off-diagonal signal mass {off:g}")
        return 1.0
    if case == "one_sided":
        for s in (u, v):
            flat = s.probs.transpose(1, 0, 2).reshape(s.signals1_count, -1)
            mass = flat.sum(axis=1)
            live = mass > ZERO_TOL
            peak = flat[live].max(axis=1) / mass[live]
            if peak.min(initial=1.0) < 1.0 - HYPOTHESIS_TOL:
                raise HypothesisViolated(
                    "player 1's signal does not determine (state, opponent signal)"
                )
        return 1.0
    raise HypothesisViolated(f"unknown case {case!r}")


def verify_feasible_bound(
    u: InformationStructure,
    v: InformationStructure,
    g: BimatrixGame,
    case: str,
    budget: int | None = None,
) -> FeasibleBoundReport:
    """Check Hausdorff(F(u,g), F(v,g)) <= multiplier * d(u,v) for the three
    structural cases: conditionally independent signals (multiplier 3),
    public signals (1), one-sided full information (1)."""
    multiplier = _check_case(u, v, case)
    d = value_distance(u, v)
    h = hausdorff_max(feasible_set(u, g, budget), feasible_set(v, g, budget))
    return FeasibleBoundReport(
        case=case,
        distance=d,
        hausdorff=h,
        multiplier=multiplier,
        passed=h <= multiplier * d + DIST_TOL,
    )


@dataclass(frozen=True)
class IrBoundReport:
    distance: float
    point_distance: float
    nearest: tuple[float, float] | None
    minmax_u: tuple[float, float]
    minmax_v: tuple[float, float]
    passed: bool


def verify_ir_bound(
    u: InformationStructure,
    v: InformationStructure,
    g: BimatrixGame,
    x,
    case: str = "cond_indep",
    budget: int | None = None,
) -> IrBoundReport:
    """A feasible payoff of one game that clears both minmax levels with a
    4 d(u,v) margin is 3 d(u,v)-close to a feasible individually rational
    payoff of the other."""
    _check_case(u, v, case)
    x = np.asarray(x, dtype=float)
    d = value_distance(u, v)
    f_u = feasible_set(u, g, budget)
    if point_to_polygon_distance(x, f_u) > NORM_TOL:
        raise HypothesisViolated("x is not feasible in the first game")
    m_u = minmax_levels(u, g)
    m_v = minmax_levels(v, g)
    for i in range(2):
        if x[i] < m_u[i] + 4.0 * d - NORM_TOL:
            raise HypothesisViolated(
                f"x[{i}] = {x[i]:g} below minmax + 4d = {m_u[i] + 4 * d:g}"
            )
    clipped = feasible_set(v, g, budget)
    region: PayoffPolygon | None = clipped
    for i in range(2):
        region = clip_polygon_to_halfplane(region, i, m_v[i]) if region else None
    if region is None:
        return IrBoundReport(d, np.inf, None, m_u, m_v, False)
    dist, nearest = _nearest(x, region)
    return IrBoundReport(
        distance=d,
        point_distance=dist,
        nearest=(float(nearest[0]), float(nearest[1])),
        minmax_u=m_u,
        minmax_v=m_v,
        passed=dist <= 3.0 * d + DIST_TOL,
    )


def best_common_payoff(polygon: PayoffPolygon) -> float:
    """Best payoff for player 1 over the polygon; for common-interest games
    this is the best equilibrium payoff."""
    return float(polygon.vertices[:, 0].max())
