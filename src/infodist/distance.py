"""Value-based distance between information structures.

The distance is the largest gap in zero-sum game values over all payoff
functions bounded by 1.  The one-sided gap is one linear program in game
space,

    sup_g (val(v,g) - val(u,g))
        = max_g sum_d min_f <v(.,.,d), g(.,.,f)> - sum_c max_e <u(.,c,.), g(.,e,.)>
        = min_{q1,q2} || q1.u - v.q2 ||,

over g in [-1,1]^{K*l1*l2}, whose LP dual is the garbling problem.  The
garblings have their natural shapes: q1 maps u's player-1 signals to v's
(l1 = v's player-1 signal count) and q2 maps v's player-2 signals to u's
(l2 = u's player-2 signal count), so the witness g has player-1 actions
for v's player-1 signals and player-2 actions for u's player-2 signals.
Signals of mass at most ZERO_TOL are left out of the LP, and each row is
divided by its signal's mass (see ``_gap_problem``).  One solve gives all
three: the optimum is the gap, the primal g is a witness game, and the row
duals are the attaining garblings q1 and q2.  The full distance is the max
of the two one-sided gaps.

Weak duality brackets every game's gap between two exact numbers that need
no LP: the identity strategies guarantee val(v,g) - val(u,g) from below, and
the garblings' || q1.u - v.q2 || caps it, and the supremum too, from above.
``witness_game`` accepts its game only if that bracket lies within
WITNESS_TOL of the LP gap.

Calls on the same pair of structure objects share one gap solve:
``one_sided_gap``, ``value_distance``, ``witness_game`` and ``is_better``
read the last few (u, v) solves from a small LRU memo.  An entry holds the
LP solution, its layout and the ``GapCertificate``, which the first
``one_sided_gap`` call builds and every later one returns.
``value_distance`` reads the objective alone and builds no garbling; when
the memo holds neither direction it solves both as one ``lp.solve_pair``,
which may run them on two threads, and stores both.  The
memo is keyed on object identity, not content.  A structure's tensor is
read-only, so the same pair of objects always has the same gap, and
comparing identities costs nothing where hashing the tensors would read
both on every call.  A structure rebuilt from the same tensor is solved
afresh.  Apart from the memo, the gap LP's index arrays and bounds are
built once per shape (see ``_gap_pattern``).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .config import DIST_TOL, NORM_TOL, WITNESS_TOL, ZERO_TOL
from .errors import HypothesisViolated, NotNormalized, NumericalFailure, ShapeMismatch
from .games import ZeroSumGame, guarantee, value
from .structures import (
    ConditionalQuery,
    Garbling,
    InformationStructure,
    PLAYER1,
    PLAYER2,
    eps_conditional_independence,
    garble,
    l1_distance,
    marginalize,
    validate_structure,
)


@dataclass(frozen=True)
class GapCertificate:
    """Attaining garblings for one one-sided gap.

    ``direction`` records which gap this certifies; for
    ``one_sided_gap(u, v)`` it is ``"sup_g val(v,g)-val(u,g)"``.  q1 maps
    u's player-1 signals to v's and q2 maps v's player-2 signals to u's, so
    q1.u and v.q2 have the same shape and ``|| q1.u - v.q2 || = gap``.
    """

    gap: float
    q1: Garbling
    q2: Garbling
    direction: str

    def recheck(self, u: InformationStructure, v: InformationStructure) -> float:
        """Recompute || q1.u - v.q2 || from the stored garblings."""
        return l1_distance(garble(u, PLAYER1, self.q1), garble(v, PLAYER2, self.q2))


@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Probability vector over states."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeMismatch(f"state distribution must be a vector, got {arr.shape}")
        # NaN would pass both checks below, since every comparison with it is false.
        if not np.isfinite(arr).all():
            raise NotNormalized("state distribution contains non-finite entries")
        if arr.min(initial=0.0) < -ZERO_TOL:
            raise ShapeMismatch("state distribution has a negative entry")
        if abs(arr.sum() - 1.0) > NORM_TOL:
            raise ShapeMismatch(f"state distribution sums to {arr.sum()!r}")
        arr = np.clip(arr, 0.0, None)
        arr = arr / arr.sum()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class DiameterBounds:
    lower: float
    upper: float
    heuristic: bool


class _GapLayout(NamedTuple):
    """Where the gap LP's variables and rows sit.

    ``shape`` is the witness g's (K, l1, l2); ``live1`` and ``mass1`` are
    u's player-1 signals of mass above ZERO_TOL and their masses m_c, one
    block of (c,e) rows each; ``live2`` and ``mass2`` are v's player-2
    signals and masses n_d, one block of (d,f) rows each.
    """

    shape: tuple[int, int, int]
    live1: np.ndarray
    mass1: np.ndarray
    live2: np.ndarray
    mass2: np.ndarray


def _live_signals(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    live = np.flatnonzero(masses > ZERO_TOL)
    return live, masses[live]


@functools.lru_cache(maxsize=256)
def _gap_pattern(n_k: int, n1: int, l1: int, n2: int, l2: int):
    """The gap LP's triplet indices and bounds for every cell, by shape.

    Returns ``(rows, cols, tail, row_lower, row_upper, col_lower,
    col_upper)``: one (row, column) per cell of u's beliefs (K, n1, l2) in
    C order, each repeated over e, then one per cell of v's beliefs
    (K, l1, n2), each repeated over f, then the ``tail`` entries -a_c and
    +b_d, whose coefficients ``tail`` holds.  ``_gap_problem`` keeps the
    cells of positive belief, so the pattern depends on the shape alone.
    Every array is shared by all calls on the shape, so none is writable.
    """
    n_cells = n_k * l1 * l2
    n_q1 = n1 * l1
    k, c, f = np.indices((n_k, n1, l2)).reshape(3, -1)
    e = np.arange(l1)
    u_rows = (c[:, None] * l1 + e).ravel()
    u_cols = ((k[:, None] * l1 + e) * l2 + f[:, None]).ravel()
    k, e, d = np.indices((n_k, l1, n2)).reshape(3, -1)
    f = np.arange(l2)
    v_rows = (n_q1 + d[:, None] * l2 + f).ravel()
    v_cols = ((k[:, None] * l1 + e[:, None]) * l2 + f).ravel()

    # -a_c in every (c,e) row, +b_d in every (d,f) row.
    ce = np.arange(n_q1)
    df = np.arange(n2 * l2)
    n_rows = n_q1 + df.size
    arrays = (
        np.concatenate((u_rows, v_rows, ce, n_q1 + df)),
        np.concatenate((u_cols, v_cols, n_cells + ce // l1, n_cells + n1 + df // l2)),
        np.concatenate((-np.ones(n_q1), np.ones(df.size))),
        np.full(n_rows, -np.inf),
        np.zeros(n_rows),
        np.concatenate((np.full(n_cells, -1.0), np.full(n1 + n2, -np.inf))),
        np.concatenate((np.ones(n_cells), np.full(n1 + n2, np.inf))),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _gap_problem(u: InformationStructure, v: InformationStructure):
    """Game-space LP for sup_g (val(v,g) - val(u,g)), scaled by signal mass:

        max  sum_d n_d b_d - sum_c m_c a_c
        s.t. <u(.,c,.), g(.,e,.)> / m_c - a_c <= 0   for every (c, e),
             b_d - <v(.,.,d), g(.,.,f)> / n_d <= 0   for every (d, f),
             g in [-1, 1]^{K*l1*l2}, a and b free,

    with e over v's l1 player-1 signals, f over u's l2 player-2 signals, c
    over u's player-1 signals of mass m_c > ZERO_TOL and d over v's
    player-2 signals of mass n_d > ZERO_TOL.  Player-1 actions for which v
    has no signal, and player-2 actions for which u has none, cannot raise
    the gap, so g needs none.  Dividing each row by its signal's mass makes
    the rows hold beliefs, not raw masses that reach 1e-9 on the Blackwell
    members; a_c and b_d are the unscaled per-signal terms over m_c and n_d.

    Variable order: g(k,e,f) at (k*l1 + e)*l2 + f, then a_c, then b_d, in
    the order of ``live1`` and ``live2``.  Row order: the (c,e) rows at
    i*l1 + e for the i-th live c, then the (d,f) rows at n1*l1 + j*l2 + f
    for the j-th live d, n1 = len(live1).  The primal g is the witness game;
    the row duals sum to m_c (resp. n_d) per block, so q1(c,e) is the
    (c,e) row dual over m_c and q2(d,f) the (d,f) row dual over n_d.

    The index arrays and bounds come from ``_gap_pattern`` for the shape;
    each call keeps one triplet per positive belief of u (resp. v) and per
    e (resp. f), in ``np.nonzero`` order.
    """
    if u.state_count != v.state_count:
        raise ShapeMismatch(
            f"state counts differ: {u.state_count} vs {v.state_count}"
        )
    n_k = u.state_count
    l1 = v.signals1_count
    l2 = u.signals2_count
    live1, mass1 = _live_signals(u.probs.sum(axis=(0, 2)))
    live2, mass2 = _live_signals(v.probs.sum(axis=(0, 1)))
    rows, cols, tail, row_lower, row_upper, col_lower, col_upper = _gap_pattern(
        n_k, live1.size, l1, live2.size, l2
    )
    u_beliefs = (u.probs[:, live1, :] / mass1[:, None]).ravel()
    v_beliefs = (v.probs[:, :, live2] / mass2).ravel()
    keep = np.concatenate(
        (np.repeat(u_beliefs > 0.0, l1), np.repeat(v_beliefs > 0.0, l2), np.ones(tail.size, bool))
    )
    values = np.concatenate((np.repeat(u_beliefs, l1), np.repeat(-v_beliefs, l2), tail))
    problem = lp.LpProblem(
        objective=np.concatenate((np.zeros(n_k * l1 * l2), -mass1, mass2)),
        row_idx=rows[keep],
        col_idx=cols[keep],
        coefficients=values[keep],
        row_lower=row_lower,
        row_upper=row_upper,
        col_lower=col_lower,
        col_upper=col_upper,
        maximize=True,
    )
    return problem, _GapLayout((n_k, l1, l2), live1, mass1, live2, mass2)


@dataclass
class _GapSolve:
    """One memoised gap solve: the LP solution, its layout, and the
    certificate, which ``one_sided_gap`` builds on its first call and every
    later call returns."""

    solution: lp.LpSolution
    layout: _GapLayout
    certificate: GapCertificate | None = None

    @property
    def gap(self) -> float:
        return max(self.solution.objective, 0.0)


def _gap_solve(sol: lp.LpSolution, layout: _GapLayout) -> _GapSolve:
    if sol.status != lp.OPTIMAL:
        raise NumericalFailure(f"gap LP ended with status {sol.status}")
    # Every caller gets this same solution, so none may write into it.
    sol.primal.setflags(write=False)
    sol.dual.setflags(write=False)
    return _GapSolve(sol, layout)


# The last _GAP_MEMO_SIZE gap solves by (u, v) identity, least recent first.
# The memo holds its structures, so an id cannot be reused while an entry lives.
_GAP_MEMO_SIZE = 4
_gap_memo: dict[tuple[InformationStructure, InformationStructure], _GapSolve] = {}
_gap_memo_lock = threading.Lock()


def _recall(u, v) -> _GapSolve | None:
    with _gap_memo_lock:
        solve = _gap_memo.pop((u, v), None)
        if solve is not None:
            _gap_memo[u, v] = solve
    return solve


def _remember(u, v, solve: _GapSolve) -> None:
    with _gap_memo_lock:
        _gap_memo.pop((u, v), None)
        _gap_memo[u, v] = solve
        while len(_gap_memo) > _GAP_MEMO_SIZE:
            del _gap_memo[next(iter(_gap_memo))]


def _solve_gap(u, v) -> _GapSolve:
    """The (u, v) gap LP's solve, shared by calls on the same objects.

    A raised NumericalFailure is not cached: the next call solves again.
    Neither is a solve whose witness fails its bracket in ``witness_game``.
    """
    solve = _recall(u, v)
    if solve is None:
        problem, layout = _gap_problem(u, v)
        solve = _gap_solve(lp.solve(problem), layout)
        _remember(u, v, solve)
    return solve


def _garbling(duals: np.ndarray, live: np.ndarray, mass: np.ndarray, n_source: int) -> Garbling:
    """Garbling rows from one block of row duals: each live signal's duals
    over its mass, normalized; a dropped signal's row is uniform (any
    distribution would do, as the signal carries at most ZERO_TOL)."""
    q = np.clip(duals.reshape(live.size, -1) / mass[:, None], 0.0, None)
    rows = np.full((n_source, q.shape[1]), 1.0 / q.shape[1])
    rows[live] = q / q.sum(axis=1, keepdims=True)
    return Garbling(rows)


def one_sided_gap(
    u: InformationStructure, v: InformationStructure
) -> GapCertificate:
    """min_{q1,q2} || q1.u - v.q2 || = sup_g (val(v,g) - val(u,g)).

    The garblings are the row duals of the game-space gap LP over the
    signal masses; each row sums to 1 by stationarity in a and b, up to the
    LP's dual gate.  q1 maps u's player-1 signals to v's, q2 maps v's
    player-2 signals to u's.  Calls on the same (u, v) objects return the
    same certificate object, built once per solve.
    """
    solve = _solve_gap(u, v)
    if solve.certificate is None:
        sol, layout = solve.solution, solve.layout
        n_q1 = layout.live1.size * layout.shape[1]
        solve.certificate = GapCertificate(
            gap=solve.gap,
            q1=_garbling(sol.dual[:n_q1], layout.live1, layout.mass1, u.signals1_count),
            q2=_garbling(sol.dual[n_q1:], layout.live2, layout.mass2, v.signals2_count),
            direction="sup_g val(v,g)-val(u,g)",
        )
    return solve.certificate


def value_distance(u: InformationStructure, v: InformationStructure) -> float:
    """max of the two one-sided gaps; pseudo-metric value in [0, 2].

    Reads the two gap solves' objectives and builds no garbling.  When the
    memo holds neither direction, the two independent gap LPs go to
    ``lp.solve_pair``, which runs the (v, u) LP's HiGHS solve on a second
    thread while this one solves (u, v) if the LPs are large enough (see
    ``lp``); the results are the serial solves' bit for bit, and both
    directions enter the memo.
    """
    if _recall(u, v) is None and _recall(v, u) is None:
        problem_uv, layout_uv = _gap_problem(u, v)
        problem_vu, layout_vu = _gap_problem(v, u)
        sol_uv, sol_vu = lp.solve_pair(problem_uv, problem_vu)
        uv = _gap_solve(sol_uv, layout_uv)
        _remember(u, v, uv)
        vu = _gap_solve(sol_vu, layout_vu)
        _remember(v, u, vu)
        return max(uv.gap, vu.gap)
    return max(_solve_gap(u, v).gap, _solve_gap(v, u).gap)


def witness_game(u: InformationStructure, v: InformationStructure) -> ZeroSumGame:
    """Payoff function achieving sup_g (val(v,g) - val(u,g)).

    The witness is the primal g of the gap LP, so one gap solve gives both
    the target and the witness, and on the same (u, v) objects it is the
    solve that ``value_distance``, ``one_sided_gap`` and ``is_better`` use
    (see the module docstring).  Its shape is (K, v's player-1 signal
    count, u's player-2 signal count).  The witness is certified without an
    LP by an exact bracket:

        lower = guarantee(v, g, identity, PLAYER1) - guarantee(u, g, identity, PLAYER2)
             <= val(v,g) - val(u,g)
             <= sup_g' (val(v,g') - val(u,g'))
             <= || q1.u - v.q2 || = upper

    by weak duality for any g and for the garblings of the same solve.  A
    target farther than WITNESS_TOL from either end means the witness
    misses the target or the target misses the supremum, and this raises.
    """
    solve = _solve_gap(u, v)
    target = solve.gap
    n_k, l1, l2 = solve.layout.shape
    g = solve.solution.primal[: n_k * l1 * l2].reshape(solve.layout.shape)
    game = ZeroSumGame(np.clip(g, -1.0, 1.0))
    lower = guarantee(v, game, Garbling.identity(l1), PLAYER1) - guarantee(
        u, game, Garbling.identity(l2), PLAYER2
    )
    upper = one_sided_gap(u, v).recheck(u, v)
    miss = max(upper - target, target - lower)
    if miss > WITNESS_TOL:
        # The solve failed its certificate: no later call may read it back.
        with _gap_memo_lock:
            _gap_memo.clear()
        raise NumericalFailure(
            f"witness recheck failed: target {target!r} is {miss:.2e} from "
            f"an end of its bracket [{lower!r}, {upper!r}]"
        )
    return game


def is_better(
    u: InformationStructure, v: InformationStructure
) -> tuple[bool, GapCertificate | None]:
    """Does player 1 prefer u to v in every game (u >= v)?

    True iff sup_g (val(v,g) - val(u,g)) <= 1e-6, i.e. there are garblings
    with q1.u = v.q2; the certificate pair is returned when true.
    """
    cert = one_sided_gap(u, v)
    if cert.gap <= DIST_TOL:
        return True, cert
    return False, None


def single_agent_distance(
    u: InformationStructure, v: InformationStructure
) -> float:
    """Distance over player-1 decision problems:

        d1(u,v) = max{ min_q ||u' - q.v'||, min_q ||q.u' - v'|| }

    on the marginals u', v' over (state, player-1 signal).  That is the
    value distance of u' and v' as structures with a single player-2
    signal: there q2 is trivial and the gap LP reduces to min over q1 of
    ||q1.u' - v'||.  Always <= value_distance(u, v).
    """
    return value_distance(
        InformationStructure(u.probs.sum(axis=2, keepdims=True)),
        InformationStructure(v.probs.sum(axis=2, keepdims=True)),
    )


def _min_overlap_value(p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray) -> float:
    return float(np.minimum(p * q2, p2 * q).sum())


def _ascend_overlap(p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray):
    """Alternating coordinate ascent on sum_k min(p_k q2_k, p2_k q_k).

    Each half-step is exact (a tiny LP), so the loop is monotone; the result
    certifies a lower estimate of the maximum.
    """
    k = p.size

    def best_response(weights_const: np.ndarray, weights_var: np.ndarray) -> np.ndarray:
        # max sum_k min(const_k, w_k x_k) over the simplex in x, as the
        # best-response LP z_k <= const_k sum(x), z_k <= w_k x_k.
        payoff = np.stack(
            (np.repeat(weights_const[:, np.newaxis], k, axis=1), np.diag(weights_var)), axis=1
        )
        _, x, _ = lp.best_response(payoff, 1)
        x = np.clip(x, 0.0, None)
        return x / x.sum()

    best = _min_overlap_value(p, q, p2, q2)
    for _ in range(50):
        p2 = best_response(p * q2, q)
        q2 = best_response(p2 * q, p)
        current = _min_overlap_value(p, q, p2, q2)
        if current <= best + 1e-12:
            break
        best = current
    return best


def diameter_bounds(p: StateDistribution, q: StateDistribution) -> DiameterBounds:
    """Tight bounds on d(u,v) over structures with state marginals p and q:

        sum_k |p_k - q_k|  <=  d(u,v)  <=  2 (1 - max_{p',q'} sum_k
                                             min(p_k q'_k, p'_k q_k)).

    Exact for p = q (upper = 2(1 - max_k p_k)) and for |K| = 2 (the maximum
    is attained at p'=q'=(1,0), p'=q'=(0,1) or (p',q')=(p,q)).  For |K| >= 3
    with p != q the inner maximum is neither concave nor convex; a vertex
    scan plus alternating ascent certifies a lower estimate of it, so the
    returned upper bound is valid but possibly loose, and ``heuristic`` is
    set.
    """
    pk = p.probs
    qk = q.probs
    if pk.size != qk.size:
        raise ShapeMismatch("state distributions have different lengths")
    n = pk.size
    lower = float(np.abs(pk - qk).sum())
    if np.abs(pk - qk).max() <= ZERO_TOL:
        return DiameterBounds(lower, 2.0 * (1.0 - pk.max()), False)
    if n == 2:
        candidates = [
            (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            (pk, qk),
        ]
        best = max(_min_overlap_value(pk, qk, a, b) for a, b in candidates)
        return DiameterBounds(lower, 2.0 * (1.0 - best), False)
    best = 0.0
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            best = max(best, _min_overlap_value(pk, qk, eye[i], eye[j]))
    best = max(best, _min_overlap_value(pk, qk, pk, qk))
    best = max(best, _ascend_overlap(pk, qk, pk.copy(), qk.copy()))
    for i in range(n):
        best = max(best, _ascend_overlap(pk, qk, eye[i].copy(), eye[i].copy()))
    return DiameterBounds(lower, 2.0 * (1.0 - best), True)


def dw(
    u: InformationStructure,
    v: InformationStructure,
    games: list[ZeroSumGame],
) -> float:
    """Pointwise metric slice: sum_n 2^-(n+1) |val(u,g_n) - val(v,g_n)| over
    the supplied game list."""
    total = 0.0
    for n, g in enumerate(games):
        gap = abs(value(u, g).value - value(v, g).value)
        total += gap / 2.0 ** (n + 1)
    return total


# ---------------------------------------------------------------------------
# Verification harnesses for the comparative-statics results.  Each
# takes a joint tensor with a documented axis order, checks the hypothesis
# through the conditional-independence measurement, and evaluates the claimed
# inequality on structures derived by marginalization.
# ---------------------------------------------------------------------------

_HYPOTHESIS_TOL = 1e-9


@dataclass(frozen=True)
class CondIndepCollapseReport:
    """Conditionally independent information with equal (K x D) marginals
    collapses the distance to the single-agent distance."""

    d: float
    d1: float
    passed: bool


@dataclass(frozen=True)
class SubstitutesReport:
    """Removing an independent signal c1 can only increase the marginal value
    of c2: d(u', v') >= d(u, v)."""

    d_with_c1: float
    d_without_c1: float
    passed: bool


@dataclass(frozen=True)
class ComplementsReport:
    """Dropping the opponent's extra signal d1 can only decrease the marginal
    value of c1: d(u', v') <= d(u, v)."""

    d_with_d1: float
    d_without_d1: float
    passed: bool


@dataclass(frozen=True)
class JointInformationReport:
    """Jointly shared information is worthless: d(u, v) <= measured eps."""

    eps1: float
    eps2: float
    eps: float
    distance: float
    passed: bool


def _structure_from_axes(
    joint: np.ndarray, p1_axes: tuple[int, ...], p2_axes: tuple[int, ...]
) -> InformationStructure:
    """Structure with player signals formed by grouping joint-tensor axes.

    Axis 0 of ``joint`` is the state; unlisted axes are marginalized out.
    """
    keep = (0,) + tuple(p1_axes) + tuple(p2_axes)
    marg = marginalize(joint, keep)
    n1 = int(np.prod([joint.shape[a] for a in p1_axes])) if p1_axes else 1
    n2 = int(np.prod([joint.shape[a] for a in p2_axes])) if p2_axes else 1
    return validate_structure(marg.reshape(joint.shape[0], n1, n2))


def cond_indep_collapse_report(
    u: InformationStructure, v: InformationStructure
) -> CondIndepCollapseReport:
    """Collapse harness: for conditionally independent u, v with equal
    marginals over (state, player-2 signal), d(u,v) = d1(u,v)."""
    for s in (u, v):
        ci = eps_conditional_independence(s.probs, ConditionalQuery((1,), (2,), (0,)))
        if ci > _HYPOTHESIS_TOL:
            raise HypothesisViolated(f"signals not conditionally independent: {ci:g}")
    mu = u.probs.sum(axis=1)
    mv = v.probs.sum(axis=1)
    if mu.shape != mv.shape or np.abs(mu - mv).max() > _HYPOTHESIS_TOL:
        raise HypothesisViolated("marginals over (K x D) differ")
    d = value_distance(u, v)
    d1 = single_agent_distance(u, v)
    return CondIndepCollapseReport(d, d1, abs(d - d1) <= DIST_TOL)


def substitutes_report(joint: np.ndarray) -> SubstitutesReport:
    """Substitutes harness on a joint tensor with axes (k, c, c1, c2, d).

    Hypothesis: c1 conditionally independent from (c, c2, d) given k.
    Conclusion: d(u', v') >= d(u, v) where u/v keep c1 and u'/v' drop it,
    with v-structures also dropping c2.
    """
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != 5:
        raise ShapeMismatch("expected axes (k, c, c1, c2, d)")
    ci = eps_conditional_independence(arr, ConditionalQuery((2,), (1, 3, 4), (0,)))
    if ci > _HYPOTHESIS_TOL:
        raise HypothesisViolated(f"c1 not conditionally independent given k: {ci:g}")
    u_full = _structure_from_axes(arr, (1, 2, 3), (4,))
    v_full = _structure_from_axes(arr, (1, 2), (4,))
    u_prime = _structure_from_axes(arr, (1, 3), (4,))
    v_prime = _structure_from_axes(arr, (1,), (4,))
    d_with = value_distance(u_full, v_full)
    d_without = value_distance(u_prime, v_prime)
    return SubstitutesReport(d_with, d_without, d_without >= d_with - DIST_TOL)


def complements_report(joint: np.ndarray) -> ComplementsReport:
    """Complements harness on a joint tensor with axes (k, c, c1, d, d1).

    Hypothesis: (c, c1) conditionally independent from d given k.
    Conclusion: d(u', v') <= d(u, v) where u/v keep the opponent signal d1
    and u'/v' drop it.
    """
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != 5:
        raise ShapeMismatch("expected axes (k, c, c1, d, d1)")
    ci = eps_conditional_independence(
        marginalize(arr, (0, 1, 2, 3)), ConditionalQuery((1, 2), (3,), (0,))
    )
    if ci > _HYPOTHESIS_TOL:
        raise HypothesisViolated(
            f"(c, c1) not conditionally independent of d given k: {ci:g}"
        )
    u_full = _structure_from_axes(arr, (1, 2), (3, 4))
    v_full = _structure_from_axes(arr, (1,), (3, 4))
    u_prime = _structure_from_axes(arr, (1, 2), (3,))
    v_prime = _structure_from_axes(arr, (1,), (3,))
    d_with = value_distance(u_full, v_full)
    d_without = value_distance(u_prime, v_prime)
    return ComplementsReport(d_with, d_without, d_without <= d_with + DIST_TOL)


def joint_information_report(joint: np.ndarray) -> JointInformationReport:
    """Joint-information harness on a joint tensor with axes (k, c, c1, d, d1).

    eps1 measures c1 against (k, d) given c; eps2 measures d1 against (k, c)
    given d; then d(u, v) <= max(eps1, eps2) where v drops both extras.
    """
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != 5:
        raise ShapeMismatch("expected axes (k, c, c1, d, d1)")
    eps1 = eps_conditional_independence(
        marginalize(arr, (0, 1, 2, 3)), ConditionalQuery((2,), (0, 3), (1,))
    )
    eps2 = eps_conditional_independence(
        marginalize(arr, (0, 1, 3, 4)), ConditionalQuery((3,), (0, 1), (2,))
    )
    eps = max(eps1, eps2)
    u_full = _structure_from_axes(arr, (1, 2), (3, 4))
    v_marg = _structure_from_axes(arr, (1,), (3,))
    d = value_distance(u_full, v_marg)
    return JointInformationReport(eps1, eps2, eps, d, d <= eps + DIST_TOL)
