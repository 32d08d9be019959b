"""Feasible-payoff polygons and their distance bounds.

The feasible set of a two-player Bayesian game is the convex hull of the
expected payoff pairs over all pure decision-rule profiles.  Hulls live in
the plane under the max norm, where the Hausdorff distance between convex
polygons is attained at vertices.

One array kernel, ``_nearest``, gives every max-norm distance here: from
many points to one polygon at once, each point against every edge (a
one-vertex polygon is one edge of length 0).  A payoff point must have
shape (2,) and a polygon's vertices shape (m, 2), and a clipping
coordinate must be 0 or 1, or ``ShapeMismatch`` is raised; a non-finite
coordinate raises ``NotNormalized``, as does a NaN clipping bound (an
infinite one clips to nothing or to the whole polygon), and a bound case
other than "cond_indep", "public" or "one_sided" raises
``InvalidParameters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NORM_TOL, DIST_TOL, ZERO_TOL, resolve_budget
from .distance import value_distance
from .errors import BudgetExceeded, HypothesisViolated, InvalidParameters, NotNormalized, ShapeMismatch
from .games import BimatrixGame, _fold, minmax_levels
from .structures import HYPOTHESIS_TOL, InformationStructure, check_signals_cond_indep


def _chain(points: list) -> list:
    """One monotone chain over the sorted ``points``, without its last point.

    A point within ZERO_TOL of the line through its neighbours is dropped:
    the rounding of a collinear cloud must not leave a zero-area polygon.
    """
    chain: list = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2:]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > ZERO_TOL * math.hypot(x - ox, y - oy):
                break
            chain.pop()
        chain.append((x, y))
    return chain[:-1]


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise hull via monotone chain; collinear points dropped.

    Handles degenerate clouds (single point, segment) by returning the
    distinct extreme points.
    """
    pts = np.unique(np.round(points, 12), axis=0)
    if len(pts) <= 2:
        return pts
    rows = pts.tolist()
    return np.asarray(_chain(rows) + _chain(rows[::-1]))


def _point(point) -> np.ndarray:
    """A payoff pair as a float array of shape (2,), finite."""
    p = np.asarray(point, dtype=float)
    if p.shape != (2,):
        raise ShapeMismatch(f"a payoff point must have shape (2,), got {p.shape}")
    if not np.isfinite(p).all():
        raise NotNormalized("payoff point has non-finite coordinates")
    return p


@dataclass(frozen=True, eq=False)
class PayoffPolygon:
    """Convex polygon of feasible payoff pairs, vertices counter-clockwise."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ShapeMismatch(f"vertices must be (m, 2), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NotNormalized("polygon vertices have non-finite coordinates")
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

    def contains(self, point, tol: float = NORM_TOL) -> bool:
        return point_to_polygon_distance(point, self) <= tol


def _nearest(points: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm distances from points (n, 2) to the convex polygon with these
    vertices (0 inside), and a nearest point of the polygon for each.

    On edge i -> i + 1, a + t (b - a) for t in [0, 1], the distance is convex
    piecewise-linear in t, so its minimum is at one of six candidates: the
    ends, the per-coordinate zeros and the crossings |dx(t)| = |dy(t)|, each
    skipped when its denominator is at most ZERO_TOL.  The first minimum over
    edges, then candidates, wins.  A point is inside only if it lies on the
    inner side of every edge with no tolerance: a point on the boundary gets
    its (zero) edge distance either way, while a tolerance would take in
    points far beyond a sharp vertex.
    """
    d = np.roll(vertices, -1, axis=0) - vertices  # (m, 2)
    r = points[:, None, :] - vertices  # (n, m, 2)
    r0, r1, d0, d1 = r[..., 0], r[..., 1], d[:, 0], d[:, 1]
    num = np.stack([np.zeros_like(r0), np.ones_like(r0), r0, r1, r0 - r1, r0 + r1], -1)
    den = np.stack([np.ones_like(d0), np.ones_like(d0), d0, d1, d0 - d1, d0 + d1], -1)
    live = np.abs(den) > ZERO_TOL
    t = np.clip(num / np.where(live, den, 1.0), 0.0, 1.0)  # (n, m, 6)
    off = np.abs(r[:, :, None, :] - t[..., None] * d[:, None, :]).max(axis=3)
    edge, pick = np.divmod(np.where(live, off, np.inf).reshape(len(points), -1).argmin(axis=1), 6)
    rows = np.arange(len(points))
    dist = off[rows, edge, pick]
    nearest = vertices[edge] + t[rows, edge, pick][:, None] * d[edge]
    if len(vertices) >= 3:
        inside = (d0 * r1 - d1 * r0 >= 0).all(axis=1)
        dist[inside] = 0.0
        nearest[inside] = points[inside]
    return dist, nearest


def point_to_polygon_distance(point, polygon: PayoffPolygon) -> float:
    """Max-norm distance from a point to a convex polygon (0 inside)."""
    return float(_nearest(_point(point)[None], polygon.vertices)[0][0])


def hausdorff_max(pa: PayoffPolygon, pb: PayoffPolygon) -> float:
    """Hausdorff distance under the max norm.

    For convex sets the directed sup of the (convex) distance-to-set
    function is attained at a vertex, so scanning both vertex lists is
    exact.
    """
    d_ab = _nearest(pa.vertices, pb.vertices)[0].max()
    d_ba = _nearest(pb.vertices, pa.vertices)[0].max()
    return float(max(d_ab, d_ba))


def feasible_set(
    u: InformationStructure, g: BimatrixGame, budget: int | None = None
) -> PayoffPolygon:
    """Convex hull of expected payoff pairs over pure decision-rule profiles, each
    summed by the normal-form oracle's kernel ``games._fold``, one signal at a time."""
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
    # (m, c, i, d, j) -> (m, s, d, j) -> (m, s, t)
    return PayoffPolygon(_fold(_fold(coeff, 1), 2).reshape(2, -1).T)


def clip_polygon_to_halfplane(
    polygon: PayoffPolygon, coordinate: int, minimum: float
) -> PayoffPolygon | None:
    """Intersect with {y: y[coordinate] >= minimum}; None when empty.

    A ``minimum`` of +inf gives None and one of -inf the whole polygon; a
    NaN raises ``NotNormalized``."""
    if not (isinstance(coordinate, (int, np.integer)) and coordinate in (0, 1)):
        raise ShapeMismatch(f"coordinate must be 0 or 1, got {coordinate!r}")
    if math.isnan(minimum):
        raise NotNormalized("clipping bound is NaN")
    verts = polygon.vertices
    out: list[np.ndarray] = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        a_in = a[coordinate] >= minimum - ZERO_TOL
        b_in = b[coordinate] >= minimum - ZERO_TOL
        if a_in:
            out.append(a)
        if a_in != b_in:
            t = (minimum - a[coordinate]) / (b[coordinate] - a[coordinate])
            out.append(a + t * (b - a))
    if not out:
        return None
    return PayoffPolygon(np.asarray(out))


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
    raise InvalidParameters(f"unknown case {case!r}")


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
    x = _point(x)
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
    region: PayoffPolygon | None = feasible_set(v, g, budget)
    for i in range(2):
        region = clip_polygon_to_halfplane(region, i, m_v[i]) if region else None
    if region is None:
        return IrBoundReport(d, np.inf, None, m_u, m_v, False)
    dists, nearest = _nearest(x[None], region.vertices)
    dist = float(dists[0])
    return IrBoundReport(
        distance=d,
        point_distance=dist,
        nearest=tuple(nearest[0].tolist()),
        minmax_u=m_u,
        minmax_v=m_v,
        passed=dist <= 3.0 * d + DIST_TOL,
    )


def best_common_payoff(polygon: PayoffPolygon) -> float:
    """Best payoff for player 1 over the polygon; for common-interest games
    this is the best equilibrium payoff."""
    return float(polygon.vertices[:, 0].max())
