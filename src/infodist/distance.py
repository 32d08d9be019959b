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
Signals of mass at most ZERO_TOL are left out of the LP and get uniform
garbling rows, by the rules ``lp._live_signals`` and ``lp._lift`` that the
game-value LP follows too, and each row is divided by its signal's mass
(see ``_gap_problem``).  One solve gives all
three: the optimum is the gap, the primal g is a witness game, and the row
duals are the attaining garblings q1 and q2.  The full distance is the max
of the two one-sided gaps.

Weak duality brackets every game's gap between two exact numbers that need
no LP: the identity strategies guarantee val(v,g) - val(u,g) from below, and
the garblings' || q1.u - v.q2 || caps it, and the supremum too, from above.
``witness_game`` accepts its game only if that bracket lies within
WITNESS_TOL of the LP gap.  The lower end is two einsums on the witness
and the upper end two on the garblings; no identity garbling and no
garbled structure is built.

Some pairs need only the single-agent LP.  Say u and v have the same
number of player-2 signals, more than one, and

    delta = eps_CI(u) + eps_CI(v) + sum_{k,d} |sum_c u(k,c,d) - sum_c v(k,c,d)|
         <= ZERO_TOL,

with eps_CI the ``eps_conditional_independence`` of the two signals given
the state.  At delta = 0 each structure's two signals are conditionally
independent given the state, their (state, player-2 signal) marginals are
equal, and the gap is the single-agent gap of the player-1 marginals u'
and v' (see ``single_agent_distance``): with q2 the identity,
|| q1.u - v || = || q1.u' - v' ||, so the gap is at most the single-agent
gap, and a game that ignores player 2's action reaches the single-agent
gap, so the gap is at least as large.  On such a pair the gap LP is posed
on (u', v'), with one (d,f) row where the full LP has one per pair of
player-2 signals, and its answer is lifted: the gap is its optimum, q1
comes from its duals, q2 is the identity, and the witness is g(k,e,f) =
g1(k,e) for every f.  For delta > 0: every game value is 1-Lipschitz in
l1, and moving u and v to an exact such pair with the same u' and v'
moves them by at most eps_CI(u) + eps_CI(v) + 2 * (the marginal term) <=
2 delta, so the true gap lies between the returned gap and that plus
2 delta.  (A state of mass below ZERO_TOL, which
``eps_conditional_independence`` skips, adds at most twice its mass.)
The lifted witness's bracket is still checked against u and v
themselves.  Every other pair poses the full gap LP.

Calls on the same structure objects share their gap solves: a small LRU
memo keys each solve on the structures its LP is posed on, (u, v) or, on a
collapsed pair, the player-1 marginals (u', v'), which are built once per
structure object.  So no public function here solves an LP again that
another has just solved.  An entry holds the LP solution, its layout and
the ``GapCertificate``, which the first ``one_sided_gap`` call builds and
every later one returns.  The distances read the objective alone and build
no garbling; when the memo holds neither direction they solve both as one
``lp.solve_pair``, which may run them on two threads, and store both.  The
memo is keyed on object identity, not content.  A structure's tensor is
read-only, so the same pair of objects always has the same gap, and
comparing identities costs nothing where hashing the tensors would read
both on every call.  A structure rebuilt from the same tensor is solved
afresh.  Apart from the memo, the gap LP's index arrays and bounds are
built once per shape for an LP of at most ``lp._CACHE_ENTRIES`` (1,024)
entries, and per call for a larger one (see ``_gap_pattern``).  They are
in HiGHS's column-wise order, which ``lp.LpProblem`` takes as it is.  Per
call, ``_gap_problem`` reads the signal masses and writes the beliefs into
that order, and ``lp.LpProblem`` checks the problem and drops its zero
coefficients, as it does for every LP.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .config import DIST_TOL, NORM_TOL, WITNESS_TOL, ZERO_TOL
from .errors import HypothesisViolated, NotNormalized, NumericalFailure, ShapeMismatch
from .games import ZeroSumGame, value
from .structures import (
    ConditionalQuery,
    Garbling,
    HYPOTHESIS_TOL,
    InformationStructure,
    PLAYER1,
    PLAYER2,
    _check_nonnegative,
    _check_same_states,
    _frozen,
    _garbled_probs,
    _SIGNALS_GIVEN_STATE,
    check_signals_cond_indep,
    eps_conditional_independence,
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
        """Recompute || q1.u - v.q2 || from the stored garblings.

        The garbled tensors are ``garble``'s, but are subtracted as they
        are: no structure is built, validated and renormalized from them.
        """
        left = _garbled_probs(u, PLAYER1, self.q1)
        right = _garbled_probs(v, PLAYER2, self.q2)
        if left.shape != right.shape:
            raise ShapeMismatch(f"q1.u has shape {left.shape} and v.q2 {right.shape}")
        return float(np.abs(left - right).sum())


@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Probability vector over states."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeMismatch(f"state distribution must be a vector, got {arr.shape}")
        arr = _check_nonnegative(arr, "state distribution")
        total = arr.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise NotNormalized(f"state distribution sums to {float(total)!r}")
        object.__setattr__(self, "probs", _frozen(arr / total))


@dataclass(frozen=True)
class DiameterBounds:
    """Bounds on d(u,v) over structures with the given state marginals,
    both computed exactly by ``diameter_bounds``."""

    lower: float
    upper: float


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


# Each memo below holds one public call's entries: a call on (u, v) poses
# at most four gap LPs and reads _collapses(u, v), _marginal(u) and
# _marginal(v).  A memo holds its structures, so ids stay unique in it.
_GAP_MEMO_SIZE = 4


@functools.lru_cache(maxsize=_GAP_MEMO_SIZE)
def _collapses(u: InformationStructure, v: InformationStructure) -> bool:
    """Does the (u, v) gap collapse to the single-agent gap of the player-1
    marginals?  True when u and v have the same number of player-2 signals,
    more than one, and delta <= ZERO_TOL (see the module docstring).  The
    marginal term is read first: it rejects most pairs in one subtraction.
    The test is symmetric in u and v."""
    n2 = u.signals2_count
    if n2 < 2 or v.signals2_count != n2 or u.state_count != v.state_count:
        return False
    delta = float(np.abs(u.probs.sum(axis=1) - v.probs.sum(axis=1)).sum())
    if delta > ZERO_TOL:
        return False
    delta += eps_conditional_independence(u.probs, _SIGNALS_GIVEN_STATE)
    delta += eps_conditional_independence(v.probs, _SIGNALS_GIVEN_STATE)
    return delta <= ZERO_TOL


@functools.lru_cache(maxsize=_GAP_MEMO_SIZE)
def _marginal(u: InformationStructure) -> InformationStructure:
    """u's marginal u' over (state, player-1 signal), as a structure with
    one player-2 signal; one object per u, so the gap memo keeps its LPs."""
    return InformationStructure(u.probs.sum(axis=2, keepdims=True), u.state_labels)


def _posed(u: InformationStructure, v: InformationStructure):
    """The structures whose gap LP is solved for the (u, v) gap."""
    return (_marginal(u), _marginal(v)) if _collapses(u, v) else (u, v)


@functools.lru_cache(maxsize=256)
def _gap_pattern(n_k: int, n1: int, l1: int, n2: int, l2: int):
    """The gap LP's triplet indices and bounds for every cell, by shape.

    Returns ``(rows, cols, row_lower, row_upper, col_lower, col_upper,
    zeros)``.  The triplets are in HiGHS's column-wise order: the column of
    each g(k,e,f), in C order, holds the (c,e) rows of u's n1 live signals
    c and then the (d,f) rows of v's n2 live signals d; each a_c column
    holds its l1 (c,e) rows and each b_d column its l2 (d,f) rows.
    ``zeros`` is g's part of the objective.  ``lp.LpProblem`` drops the
    entries of zero coefficient, so the pattern depends on the shape alone,
    and reads it through ``lp._per_shape``, so only the pattern of an LP of
    at most ``lp._CACHE_ENTRIES`` entries is kept.  Every array is shared by
    all calls on the shape, so none is writable.
    """
    n_cells = n_k * l1 * l2
    n_q1 = n1 * l1
    e, f = np.indices((l1, l2))
    u_rows = np.arange(n1) * l1 + e[..., None]
    v_rows = n_q1 + np.arange(n2) * l2 + f[..., None]
    ce = np.arange(n_q1)
    df = np.arange(n2 * l2)
    n_rows = n_q1 + df.size
    arrays = (
        np.concatenate((np.tile(np.concatenate((u_rows, v_rows), axis=2).ravel(), n_k), ce, n_q1 + df)),
        np.concatenate((np.repeat(np.arange(n_cells), n1 + n2), n_cells + ce // l1, n_cells + n1 + df // l2)),
        np.full(n_rows, -np.inf),
        np.zeros(n_rows),
        np.concatenate((np.full(n_cells, -1.0), np.full(n1 + n2, -np.inf))),
        np.concatenate((np.ones(n_cells), np.full(n1 + n2, np.inf))),
        np.zeros(n_cells),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _beliefs(probs: np.ndarray, live: np.ndarray, mass: np.ndarray, axis: int) -> np.ndarray:
    """``probs`` over the live signals on ``axis`` (1 or 2), divided by
    ``mass``, one entry per live signal."""
    if live.size < probs.shape[axis]:
        probs = probs.take(live, axis=axis)
    return probs / mass[:, None] if axis == 1 else probs / mass


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

    The index arrays and bounds come from ``_gap_pattern`` for the shape,
    in column-wise order.  Per call, the beliefs are written into that
    order, and ``lp.LpProblem`` drops the triplets of zero coefficient.
    """
    _check_same_states(u, v)
    n_k = u.state_count
    l1 = v.signals1_count
    l2 = u.signals2_count
    live1, mass1 = lp._live_signals(u.probs.sum(axis=(0, 2)))
    live2, mass2 = lp._live_signals(v.probs.sum(axis=(0, 1)))
    n1, n2 = live1.size, live2.size
    n_entries = n_k * l1 * l2 * (n1 + n2) + n1 * l1 + n2 * l2
    rows, cols, row_lower, row_upper, col_lower, col_upper, zeros = lp._per_shape(
        _gap_pattern, n_entries, n_k, n1, l1, n2, l2
    )
    # Each g(k,e,f) column's entries: u's beliefs u(k,c,f) / m_c, then v's
    # negated beliefs -v(k,e,d) / n_d (x / -m is -(x / m) to the bit).
    values = np.empty(rows.size)
    cells = values[: zeros.size * (n1 + n2)].reshape(n_k, l1, l2, n1 + n2)
    cells[..., :n1] = _beliefs(u.probs, live1, mass1, 1).transpose(0, 2, 1)[:, None]
    cells[..., n1:] = _beliefs(v.probs, live2, -mass2, 2)[:, :, None]
    # The tails: -a_c in every (c,e) row, +b_d in every (d,f) row.
    values[cells.size : cells.size + n1 * l1] = -1.0
    values[cells.size + n1 * l1 :] = 1.0
    problem = lp.LpProblem(
        objective=np.concatenate((zeros, -mass1, mass2)),
        row_idx=rows,
        col_idx=cols,
        coefficients=values,
        row_lower=row_lower,
        row_upper=row_upper,
        col_lower=col_lower,
        col_upper=col_upper,
    )
    return problem, _GapLayout((n_k, l1, l2), live1, mass1, live2, mass2)


@dataclass
class _GapSolve:
    """One memoised gap solve: the LP solution, its layout and the
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
    """The gap LP posed on (u, v), shared by calls on the same objects.

    A raised NumericalFailure is not cached: the next call solves again.
    Neither is a solve whose witness fails its bracket in ``witness_game``.
    """
    solve = _recall(u, v)
    if solve is None:
        problem, layout = _gap_problem(u, v)
        solve = _gap_solve(lp.solve(problem), layout)
        _remember(u, v, solve)
    return solve


def _solve_gaps(u, v) -> tuple[_GapSolve, _GapSolve]:
    """The gap LPs posed on (u, v) and (v, u).  When the memo holds neither
    and u is not v, they are solved as one ``lp.solve_pair`` and both are
    remembered."""
    if u is v or _recall(u, v) is not None or _recall(v, u) is not None:
        return _solve_gap(u, v), _solve_gap(v, u)
    problem_uv, layout_uv = _gap_problem(u, v)
    problem_vu, layout_vu = _gap_problem(v, u)
    sol_uv, sol_vu = lp.solve_pair(problem_uv, problem_vu)
    uv, vu = _gap_solve(sol_uv, layout_uv), _gap_solve(sol_vu, layout_vu)
    _remember(u, v, uv)
    _remember(v, u, vu)
    return uv, vu


def _garbling(duals: np.ndarray, live: np.ndarray, mass: np.ndarray, n_source: int) -> Garbling:
    """Garbling rows from one block of row duals: each live signal's duals
    over its mass, made row-stochastic by ``lp._stochastic``, and a dropped
    signal's uniform row from ``lp._lift``, as in ``games.value``."""
    rows = lp._stochastic(duals.reshape(live.size, -1) / mass[:, None])
    return Garbling(lp._lift(rows, live, n_source))


def one_sided_gap(
    u: InformationStructure, v: InformationStructure
) -> GapCertificate:
    """min_{q1,q2} || q1.u - v.q2 || = sup_g (val(v,g) - val(u,g)).

    The garblings are the row duals of the game-space gap LP over the
    signal masses; each row sums to 1 by stationarity in a and b, up to the
    LP's dual gate.  q1 maps u's player-1 signals to v's, q2 maps v's
    player-2 signals to u's; on a collapsed pair (see the module
    docstring) q1 comes from the single-agent LP and q2 is the identity.
    Calls on the same (u, v) objects return the same certificate object,
    built once per solve.
    """
    solve = _solve_gap(*_posed(u, v))
    if solve.certificate is None:
        sol, layout = solve.solution, solve.layout
        n_q1 = layout.live1.size * layout.shape[1]
        q1 = _garbling(sol.dual[:n_q1], layout.live1, layout.mass1, u.signals1_count)
        if _collapses(u, v):
            q2 = Garbling.identity(v.signals2_count)
        else:
            q2 = _garbling(sol.dual[n_q1:], layout.live2, layout.mass2, v.signals2_count)
        solve.certificate = GapCertificate(solve.gap, q1, q2, "sup_g val(v,g)-val(u,g)")
    return solve.certificate


def value_distance(u: InformationStructure, v: InformationStructure) -> float:
    """max of the two one-sided gaps; pseudo-metric value in [0, 2].

    Reads the two gap solves' objectives and builds no garbling.  When the
    memo holds neither direction, the two independent gap LPs go to
    ``lp.solve_pair``, which runs the (v, u) LP's HiGHS solve on a second
    thread while this one solves (u, v) if the LPs are large enough (see
    ``lp``); the results are the serial solves' bit for bit, and both
    directions enter the memo.  On a collapsed pair (see the module
    docstring) those are ``single_agent_distance``'s LPs.  On one object,
    ``value_distance(u, u)`` solves the one gap LP once.
    """
    return max(solve.gap for solve in _solve_gaps(*_posed(u, v)))


def witness_game(u: InformationStructure, v: InformationStructure) -> ZeroSumGame:
    """Payoff function achieving sup_g (val(v,g) - val(u,g)).

    The witness is the primal g of the gap LP (on a collapsed pair, the
    single-agent LP's g1, repeated over player 2's actions), so one gap
    solve gives both the target and the witness, and on the same (u, v)
    objects it is the solve that ``value_distance``, ``one_sided_gap`` and
    ``is_better`` use (see the module docstring).  Its shape is (K, v's player-1 signal
    count, u's player-2 signal count).  The witness is certified without an
    LP by an exact bracket:

        lower = sum_d min_f <v(.,.,d), g(.,.,f)> - sum_c max_e <u(.,c,.), g(.,e,.)>
             <= val(v,g) - val(u,g)
             <= sup_g' (val(v,g') - val(u,g'))
             <= || q1.u - v.q2 || = upper

    by weak duality for any g and for the garblings of the same solve:
    ``lower`` is what the identity strategies guarantee (``games.guarantee``
    with ``Garbling.identity``), each one einsum on the witness.  A target
    farther than WITNESS_TOL from either end means the witness misses the
    target or the target misses the supremum, and this raises.
    """
    solve = _solve_gap(*_posed(u, v))
    target = solve.gap
    n_k, l1, l2 = solve.layout.shape
    g = solve.solution.primal[: n_k * l1 * l2].reshape(solve.layout.shape)
    if _collapses(u, v):
        # g1(k,e) for every player-2 action f.
        g = np.repeat(g, u.signals2_count, axis=2)
    game = ZeroSumGame(np.clip(g, -1.0, 1.0))
    v_by_df = np.einsum("ked,kef->df", v.probs, game.payoffs)
    u_by_ce = np.einsum("kcf,kef->ce", u.probs, game.payoffs)
    lower = float(v_by_df.min(axis=1).sum()) - float(u_by_ce.max(axis=1).sum())
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
    ||q1.u' - v'||.  Always <= value_distance(u, v).  u' and v' are built
    once per structure object, so their two gap LPs share the memo: on a
    collapsed pair they are ``value_distance``'s.
    """
    return max(solve.gap for solve in _solve_gaps(_marginal(u), _marginal(v)))


def diameter_bounds(p: StateDistribution, q: StateDistribution) -> DiameterBounds:
    """Tight bounds on d(u,v) over structures with state marginals p and q:

        sum_k |p_k - q_k|  <=  d(u,v)  <=  2 (1 - max_{p',q'} sum_k
                                             min(p_k q'_k, p'_k q_k)).

    With t_k = min(p'_k / p_k, q'_k / q_k) the maximum is the LP

        max sum_k p_k q_k t_k  s.t.  p.t <= 1, q.t <= 1, t >= 0,

    whose optimum sits at a vertex with at most two nonzero t_k, so both
    bounds are exact for every K and no LP is solved.  One nonzero t_i =
    1 / max(p_i, q_i) is worth min(p_i, q_i).  A pair (i, j) with both rows
    tight has t_i = (q_j - p_j) / det and t_j = (p_i - q_i) / det, det =
    p_i q_j - q_i p_j = x + y for x = p_i (q_j - p_j) and y = p_j (p_i -
    q_i); it is a vertex when det != 0 and the two gaps have det's sign.
    Its p-masses p_i t_i and p_j t_j are x / det and y / det, so it is worth
    the mixture (x q_i + y q_j) / (x + y) of q_i and q_j.  That form never
    divides by a separately rounded det, which cancels when q is close to
    p, and x and y are formed from mantissas and exponents, so a product of
    two small masses cannot underflow: the result is within a few ulps of
    the exact maximum for the given floats.
    """
    pk = p.probs
    qk = q.probs
    if pk.size != qk.size:
        raise ShapeMismatch("state distributions have different lengths")
    lower = float(np.abs(pk - qk).sum())
    best = float(np.minimum(pk, qk).max())
    # Every ordered pair: (j, i) is the vertex (i, j), and (i, i) never is one.
    i, j = np.indices((pk.size, pk.size)).reshape(2, -1)
    gaps = np.stack((qk[j] - pk[j], pk[i] - qk[i]))
    (m1, e1), (m2, e2) = np.frexp(np.stack((pk[i], pk[j]))), np.frexp(np.abs(gaps))
    mantissa, exponent = m1 * m2, e1 + e2
    vertex = ((gaps >= 0.0).all(axis=0) | (gaps <= 0.0).all(axis=0)) & (mantissa > 0.0).any(axis=0)
    if vertex.any():
        mantissa, exponent = mantissa[:, vertex], exponent[:, vertex]
        # Scale x and y by one power of two that puts the larger in [1/4, 1).
        top = np.where(mantissa > 0.0, exponent, np.iinfo(exponent.dtype).min).max(axis=0)
        x, y = np.ldexp(mantissa, exponent - top)
        best = max(best, float(((x * qk[i[vertex]] + y * qk[j[vertex]]) / (x + y)).max()))
    return DiameterBounds(lower, 2.0 * (1.0 - best))


def dw(
    u: InformationStructure,
    v: InformationStructure,
    games: list[ZeroSumGame],
) -> float:
    """Pointwise metric slice: sum_n 2^-(n+1) |val(u,g_n) - val(v,g_n)| over
    the supplied game list, of any length: each term is scaled by
    ``math.ldexp``, as ``2.0 ** (n + 1)`` overflows from n = 1023 on."""
    total = 0.0
    for n, g in enumerate(games):
        gap = abs(value(u, g).value - value(v, g).value)
        total += math.ldexp(gap, -(n + 1))
    return total


# ---------------------------------------------------------------------------
# Verification harnesses for the comparative-statics results.  Each
# takes a joint tensor with a documented axis order, checks the hypothesis
# through the conditional-independence measurement, and evaluates the claimed
# inequality on structures derived by marginalization.
# ---------------------------------------------------------------------------


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
    marginals over (state, player-2 signal), d(u,v) = d1(u,v).

    d comes from the full gap LPs posed on (u, v), never from the
    single-agent LPs that ``value_distance`` solves on such pairs, so the
    report checks the theorem that path relies on; d1 is
    ``single_agent_distance``'s."""
    check_signals_cond_indep(u, v)
    mu = u.probs.sum(axis=1)
    mv = v.probs.sum(axis=1)
    if mu.shape != mv.shape or np.abs(mu - mv).max() > HYPOTHESIS_TOL:
        raise HypothesisViolated("marginals over (K x D) differ")
    d = max(solve.gap for solve in _solve_gaps(u, v))
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
    if ci > HYPOTHESIS_TOL:
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
    if ci > HYPOTHESIS_TOL:
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
