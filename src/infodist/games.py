"""Values and optimal behavioral strategies of finite zero-sum Bayesian games.

A game pairs a payoff tensor ``g(k, i, j)`` in [-1, 1] with an information
structure; play is simultaneous after each player observes their signal.  The
value LP uses the per-signal best-response decomposition (polynomial size):

    max sum_d z_d   s.t.   z_d <= sum_{k,c,i} u(k,c,d) sigma(i|c) g(k,i,j)
                            for every (d, j), sigma rows in the simplex,

whose duals on the (d, j) rows are player 2's optimal behavioral strategy.
``value`` solves it scaled by the players' signal masses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import lp
from .config import ZERO_TOL, resolve_budget
from .errors import BudgetExceeded, NotNormalized, ShapeMismatch
from .structures import Garbling, InformationStructure, PLAYER1, PLAYER2, _json_floats, _json_object


@dataclass(frozen=True, eq=False)
class ZeroSumGame:
    """Payoff tensor g(k, i, j), player 1 maximizing, entries in [-1, 1]."""

    payoffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.payoffs, dtype=float)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeMismatch(f"payoffs must be a (K, I, J) tensor, got {arr.shape}")
        # The largest |entry| is NaN or infinite exactly when some entry is.
        largest = np.abs(arr).max()
        if not largest < np.inf:
            raise NotNormalized("payoffs contain non-finite entries")
        if largest > 1.0 + ZERO_TOL:
            raise NotNormalized(f"|payoffs| reach {largest:g} > bound 1")
        out = np.ascontiguousarray(arr)
        out.setflags(write=False)
        object.__setattr__(self, "payoffs", out)

    @property
    def state_count(self) -> int:
        return self.payoffs.shape[0]

    @property
    def actions1_count(self) -> int:
        return self.payoffs.shape[1]

    @property
    def actions2_count(self) -> int:
        return self.payoffs.shape[2]

    def negate(self) -> "ZeroSumGame":
        return ZeroSumGame(-self.payoffs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "states": self.state_count,
                "actions1": self.actions1_count,
                "actions2": self.actions2_count,
                "payoffs": self.payoffs.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "ZeroSumGame":
        payload = _json_object(text, "game", "states", "actions1", "actions2", "payoffs")
        arr = _json_floats(payload["payoffs"], "payoffs")
        expected = (payload["states"], payload["actions1"], payload["actions2"])
        if arr.shape != expected:
            raise ShapeMismatch(f"payoffs shape {arr.shape} != declared {expected}")
        return ZeroSumGame(arr)


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """Pair of payoff tensors (g1, g2) on a common action grid."""

    payoffs1: np.ndarray
    payoffs2: np.ndarray

    def __post_init__(self):
        g1 = ZeroSumGame(self.payoffs1)
        g2 = ZeroSumGame(self.payoffs2)
        if g1.payoffs.shape != g2.payoffs.shape:
            raise ShapeMismatch("payoffs1 and payoffs2 must share a shape")
        object.__setattr__(self, "payoffs1", g1.payoffs)
        object.__setattr__(self, "payoffs2", g2.payoffs)

    @property
    def state_count(self) -> int:
        return self.payoffs1.shape[0]

    @property
    def actions1_count(self) -> int:
        return self.payoffs1.shape[1]

    @property
    def actions2_count(self) -> int:
        return self.payoffs1.shape[2]

    def component(self, which: int) -> ZeroSumGame:
        return ZeroSumGame(self.payoffs1 if which == 1 else self.payoffs2)

    def to_json(self) -> str:
        return json.dumps(
            {
                "states": self.state_count,
                "actions1": self.actions1_count,
                "actions2": self.actions2_count,
                "payoffs1": self.payoffs1.tolist(),
                "payoffs2": self.payoffs2.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "BimatrixGame":
        payload = _json_object(text, "bimatrix game", "payoffs1", "payoffs2")
        return BimatrixGame(
            _json_floats(payload["payoffs1"], "payoffs1"),
            _json_floats(payload["payoffs2"], "payoffs2"),
        )


@dataclass(frozen=True)
class ValueResult:
    value: float
    strategy1: Garbling  # rows: player-1 signals -> mixed actions
    strategy2: Garbling  # rows: player-2 signals -> mixed actions


def _check_compatible(u: InformationStructure, g: ZeroSumGame) -> None:
    if u.state_count != g.state_count:
        raise ShapeMismatch(
            f"structure has {u.state_count} states, game has {g.state_count}"
        )


def _coefficients(u: InformationStructure, g: ZeroSumGame) -> np.ndarray:
    """M[c, i, d, j] = sum_k u(k,c,d) g(k,i,j)."""
    return np.einsum("kcd,kij->cidj", u.probs, g.payoffs)


def _signal_scale(masses: np.ndarray) -> np.ndarray:
    """Each signal's mass, or 1 for a signal of mass at most ZERO_TOL."""
    return np.where(masses > ZERO_TOL, masses, 1.0)


def value(u: InformationStructure, g: ZeroSumGame) -> ValueResult:
    """Value of the zero-sum Bayesian game and optimal behavioral strategies.

    The LP is scaled by signal mass: the variables are x(c,i) = m_c
    sigma(c,i), each (d,j) row is divided by n_d, and z_d = n_d w_d, so

        max sum_d n_d w_d   s.t.   w_d <= sum_{k,c,i} u(k,c,d) g(k,i,j) x(c,i) / (m_c n_d),
                                   sum_i x(c,i) = m_c.

    The binomial cells of the Blackwell members reach 1e-9, and unscaled
    rows of such masses fail the dual gate.  m_c and n_d are the players'
    signal masses, or 1 for a signal of mass at most ZERO_TOL.  sigma (x
    over m_c) and tau (the (d, j) duals over n_d) are ``lp.best_response``'s.
    """
    _check_compatible(u, g)
    n_c, n_d, n_j = u.signals1_count, u.signals2_count, g.actions2_count
    coeff = _coefficients(u, g)
    m = _signal_scale(u.probs.sum(axis=(0, 2)))
    n = _signal_scale(u.probs.sum(axis=(0, 1)))

    # Variables: x(c, i) flattened, then w(d); rows (d, j).
    payoff = coeff.transpose(2, 3, 0, 1) / (n[:, None, None, None] * m[:, None])
    objective, sigma, tau = lp.best_response(payoff.reshape(n_d, n_j, -1), n_c, block_mass=m, weights=n)
    return ValueResult(objective, Garbling(sigma), Garbling(tau))


def guarantee(
    u: InformationStructure, g: ZeroSumGame, strategy: Garbling, side: str
) -> float:
    """Exact payoff the fixed strategy guarantees against a best-responding
    opponent (per-signal argmin/argmax decomposition, no LP)."""
    _check_compatible(u, g)
    if side == PLAYER1:
        if strategy.rows.shape != (u.signals1_count, g.actions1_count):
            raise ShapeMismatch(
                f"strategy shape {strategy.rows.shape} != "
                f"({u.signals1_count}, {g.actions1_count})"
            )
        by_dj = np.einsum("kcd,ci,kij->dj", u.probs, strategy.rows, g.payoffs)
        return float(by_dj.min(axis=1).sum())
    if side == PLAYER2:
        if strategy.rows.shape != (u.signals2_count, g.actions2_count):
            raise ShapeMismatch(
                f"strategy shape {strategy.rows.shape} != "
                f"({u.signals2_count}, {g.actions2_count})"
            )
        by_ci = np.einsum("kcd,dj,kij->ci", u.probs, strategy.rows, g.payoffs)
        return float(by_ci.max(axis=1).sum())
    raise ShapeMismatch(f"side must be {PLAYER1!r} or {PLAYER2!r}, got {side!r}")


def transport_strategy(strategy: Garbling, q: Garbling) -> Garbling:
    """Play ``strategy`` on a signal drawn from ``q``: rows(c) = sum_c'
    q(c'|c) strategy(c').  Transports optimal strategies between structures
    linked by a distance-attaining garbling pair."""
    if q.target_count != strategy.source_count:
        raise ShapeMismatch(
            f"garbling target {q.target_count} != strategy source {strategy.source_count}"
        )
    return Garbling(q.rows @ strategy.rows)


def minmax_levels(u: InformationStructure, g: BimatrixGame) -> tuple[float, float]:
    """Independent minmax levels m1 = val(u, g1), m2 = -val(u, -g2)."""
    m1 = value(u, g.component(1)).value
    m2 = -value(u, g.component(2).negate()).value
    return m1, m2


def _pure_rules(n_signals: int, n_actions: int) -> np.ndarray:
    """Every map from signals to actions, one a row, in ``itertools.product`` order."""
    return np.indices((n_actions,) * n_signals).reshape(n_signals, -1).T


def _fold(coeff: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the signal axis ``axis`` under every pure rule of the action axis
    after it: out[..., r, ...] = sum_s coeff[..., s, rules[r, s], ...], with rules
    ``_pure_rules`` of the two axes.  Adds one signal at a time to zeros, in signal
    order, so no temporary is larger than the output."""
    rules = _pure_rules(*coeff.shape[axis : axis + 2])
    shape = coeff.shape[:axis] + (len(rules),) + coeff.shape[axis + 2 :]
    out = np.zeros(shape)
    for s in range(coeff.shape[axis]):
        out += coeff.take(s, axis).take(rules[:, s], axis)
    return out


def value_normal_form(
    u: InformationStructure, g: ZeroSumGame, budget: int | None = None
) -> float:
    """Brute-force oracle: value via the exponential normal form.

    Enumerates pure decision rules.  When both players' rule spaces fit the
    budget, solves the full |I|^|C| x |J|^|D| matrix game.  Otherwise
    enumerates the smaller side's rules and keeps the per-signal best-response
    decomposition for the other side, which is still independent of the
    behavioral-LP path used by :func:`value`.  Every pure-rule payoff comes
    from one kernel, ``_fold``, which sums one player's signals one at a time.
    """
    _check_compatible(u, g)
    budget = resolve_budget(budget)
    n_c, n_d = u.signals1_count, u.signals2_count
    n_i, n_j = g.actions1_count, g.actions2_count
    n_rules1 = n_i**n_c
    n_rules2 = n_j**n_d
    coeff = _coefficients(u, g)  # (c, i, d, j)

    if n_rules1 * n_rules2 <= budget:
        # M[s, t] = sum_c sum_d coeff[c, s(c), d, t(d)]: (c, i, d, j) -> (s, d, j) -> (s, t)
        val, _, _ = lp.solve_matrix_game(_fold(_fold(coeff, 0), 1))
        return val

    if min(n_rules1, n_rules2) > budget:
        raise BudgetExceeded(
            f"{n_rules1} x {n_rules2} pure-rule profiles exceed budget {budget}"
        )

    if n_rules2 <= n_rules1:
        # min over mixtures y of player 2's pure rules of
        # sum_c max_i sum_t y_t A[c, i, t], A[c, i, t] = sum_d coeff[c, i, d, t(d)].
        # That is minus the best-response LP on the negated payoff.
        return -lp.best_response(-_fold(coeff, 2), 1)[0]

    # Symmetric case: enumerate player 1's rules, decompose player 2.
    # a[d, j, s] = sum_c coeff[c, s(c), d, j]
    return lp.best_response(_fold(coeff.transpose(2, 3, 0, 1), 2), 1)[0]
