"""Generators for the named example families, with closed-form answers.

Everything here is a pure constructor returning validated structures, plus
the closed-form single-agent distance for repeated binary experiments, which
doubles as an executable oracle for the LP path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, ShapeMismatch
from .structures import InformationStructure, validate_structure

BLUE, RED = "Blue", "Red"


def uniform_support(
    n_states: int,
    n_signals1: int,
    n_signals2: int,
    atoms: list[tuple[int, int, int]],
    state_labels=None,
) -> InformationStructure:
    """Uniform distribution over the listed (state, c, d) atoms."""
    if not atoms:
        raise InvalidParameters("uniform support needs at least one atom")
    probs = np.zeros((n_states, n_signals1, n_signals2))
    for k, c, d in atoms:
        if not (0 <= k < n_states and 0 <= c < n_signals1 and 0 <= d < n_signals2):
            raise ShapeMismatch(f"atom {(k, c, d)} lies outside the shape {probs.shape}")
        probs[k, c, d] += 1.0
    return validate_structure(probs / len(atoms), state_labels)


def canonical_examples() -> dict[str, InformationStructure]:
    """The three two-state structures used to illustrate the distance.

    - ``u1``: four equiprobable atoms; neither player ever learns the state,
      but second-order beliefs differ across signals.
    - ``u2``: player 1 knows the state, player 2 knows nothing.
    - ``u2prime``: the mirror image, player 2 knows the state.
    """
    labels = (BLUE, RED)
    u1 = uniform_support(2, 3, 2, [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)], labels)
    u2 = uniform_support(2, 2, 1, [(0, 0, 0), (1, 1, 0)], labels)
    u2prime = uniform_support(2, 1, 2, [(0, 0, 0), (1, 0, 1)], labels)
    return {"u1": u1, "u2": u2, "u2prime": u2prime}


def no_information(state_probs) -> InformationStructure:
    arr = np.asarray(state_probs, dtype=float)
    return validate_structure(arr.reshape(-1, 1, 1))


def common_knowledge(state_probs) -> InformationStructure:
    """Both players learn the state: v(k, k, k) = p_k."""
    arr = np.asarray(state_probs, dtype=float)
    n = arr.size
    probs = np.zeros((n, n, n))
    probs[np.arange(n), np.arange(n), np.arange(n)] = arr
    return validate_structure(probs)


@dataclass(frozen=True)
class BlackwellSpec:
    """n and m repeated binary experiments with accuracies p and r."""

    n: int
    m: int
    p: float
    r: float

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise InvalidParameters("experiment counts must be nonnegative")
        for value in (self.p, self.r):
            if not 0.5 < value < 1.0:
                raise InvalidParameters(f"accuracy {value} outside (1/2, 1)")


def _binomial_count_pmf(n: int, success: float) -> np.ndarray:
    return np.array(
        [math.comb(n, c) * success**c * (1 - success) ** (n - c) for c in range(n + 1)]
    )


def blackwell_structure(spec: BlackwellSpec) -> InformationStructure:
    """Binary uniform state; player 1 sees n experiment outcomes of accuracy
    p, player 2 sees m outcomes of accuracy r, all independent given the
    state.  Signals count the observed 1s, so the structure is
    (n+1) x (m+1) and conditionally independent by construction."""
    ones_given_k0_p1 = _binomial_count_pmf(spec.n, 1 - spec.p)
    ones_given_k1_p1 = _binomial_count_pmf(spec.n, spec.p)
    ones_given_k0_p2 = _binomial_count_pmf(spec.m, 1 - spec.r)
    ones_given_k1_p2 = _binomial_count_pmf(spec.m, spec.r)
    probs = 0.5 * np.stack(
        [
            np.outer(ones_given_k0_p1, ones_given_k0_p2),
            np.outer(ones_given_k1_p1, ones_given_k1_p2),
        ]
    )
    return validate_structure(probs)


def _surplus_tails(n: int, p: float, d: int) -> tuple[float, float]:
    """(P(D_n > d), P(D_n < -d)) for D_n = 2 S_n - n, S_n ~ Binomial(n, p)."""
    terms = [(2 * s - n, math.comb(n, s) * p**s * (1 - p) ** (n - s)) for s in range(n + 1)]
    return sum(t for x, t in terms if x > d), sum(t for x, t in terms if x < -d)


def _blackwell_gammas(n: int, l: int, p: float) -> list[float]:
    """gamma_d for d = 0..l, as ``blackwell_d1_closed_form`` defines them."""
    if not (isinstance(n, int) and isinstance(l, int)) or not n > l >= 0:
        raise InvalidParameters(f"need integers n > l >= 0, got n={n}, l={l}")
    if not 0.5 < p < 1.0:
        raise InvalidParameters(f"accuracy {p} outside (1/2, 1)")
    gammas = []
    for d in range(l + 1):
        q_d = p**d / (p**d + (1 - p) ** d)
        gt_n, lt_n = _surplus_tails(n, p, d)
        gt_l, lt_l = _surplus_tails(l, p, d)
        gamma = 2 * (1 - q_d) * (gt_n - gt_l)
        gamma -= 2 * q_d * (lt_n - lt_l)
        gammas.append(gamma)
    return gammas


def blackwell_d1_closed_form(n: int, l: int, p: float) -> float:
    """Single-agent distance between n and l repeated experiments:

        d1(u_n, u_l) = max_{d in {0..l}} gamma_d,
        gamma_d = 2 (1 - q_d) (P(D_n > d) - P(D_l > d))
                  - 2 q_d (P(D_n < -d) - P(D_l < -d)),

    with q_d = p^d / (p^d + (1-p)^d) the belief after a success surplus of d
    and D_n the surplus of successes over failures in n experiments.  Agrees
    with the LP-computed d1 on the corresponding structures.
    """
    return float(max(_blackwell_gammas(n, l, p)))


def blackwell_conjecture_report(n: int, l: int, p: float) -> dict:
    """Numeric report on where the maximum over d is attained (the n even /
    l odd case is conjectured to peak at d* = 1; never asserted)."""
    gammas = _blackwell_gammas(n, l, p)
    argmax = int(np.argmax(gammas))
    return {
        "n": n,
        "l": l,
        "p": p,
        "gammas": gammas,
        "argmax": argmax,
        "n_even_l_odd": n % 2 == 0 and l % 2 == 1,
    }


def ladder_structure(n: int) -> InformationStructure:
    """Uniform structure on 2(n+1) atoms: Blue on signal pairs (i, i) and Red
    on (i, i+1).  Player 2's extreme signals reveal the state; everything
    else carries only belief-about-belief information, so the family drifts
    toward no information as n grows."""
    if n < 0:
        raise InvalidParameters("n must be nonnegative")
    atoms = [(0, i, i) for i in range(n + 1)] + [(1, i, i + 1) for i in range(n + 1)]
    return uniform_support(2, n + 1, n + 2, atoms, (BLUE, RED))


def email_game(eps: float, p: float, truncation: int) -> InformationStructure:
    """Email-game structure truncated at M message rounds.

    State 1 has prior p; player 1 observes the state.  In state 1 a message
    bounces between the players, each traversal lost independently with
    probability eps; each player's signal counts the messages they received.
    Player 1's signal also encodes the state (index 0 = state 0, index 1+m =
    state 1 with m messages received), so it determines the state in every
    atom.  Deliveries beyond 2M are lumped onto the final signal pair, which
    preserves the state marginal exactly.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidParameters(f"loss probability {eps} outside (0, 1]")
    if not 0.0 < p < 1.0:
        raise InvalidParameters(f"prior {p} outside (0, 1)")
    if truncation < 1:
        raise InvalidParameters("truncation must be >= 1")
    cap = 2 * truncation
    probs = np.zeros((2, truncation + 2, truncation + 1))
    probs[0, 0, 0] = 1.0 - p
    for deliveries in range(cap + 1):
        if deliveries < cap:
            mass = p * (1.0 - eps) ** deliveries * eps
        else:
            mass = p * (1.0 - eps) ** cap
        c = 1 + deliveries // 2
        d = (deliveries + 1) // 2
        probs[1, c, d] += mass
    return validate_structure(probs)


@dataclass(frozen=True)
class ApproxKnowledgePair:
    u: InformationStructure
    v: InformationStructure
    eps_prime: float


def knowledge_level(u: InformationStructure, kappa1, kappa2) -> float:
    """Smallest eps such that u exhibits eps-knowledge of the state under the
    signal-to-state labelings kappa1, kappa2: each player assigns probability
    >= 1 - eps to their labeled state with probability >= 1 - eps."""
    levels = []
    for player, kappa in ((1, kappa1), (2, kappa2)):
        axis = 2 if player == 1 else 1
        joint = u.probs.sum(axis=axis)  # (k, signal)
        mass = joint.sum(axis=0)
        kappa = np.asarray(kappa)
        in_range = kappa.dtype.kind in "iu" and np.isin(kappa, range(u.state_count)).all()
        if kappa.shape != mass.shape or not in_range:
            raise ShapeMismatch(f"player {player} needs a state index per signal, got {kappa}")
        beliefs = np.ones(mass.size)
        live = mass > 0
        idx = np.arange(mass.size)
        beliefs[live] = joint[kappa[live], idx[live]] / mass[live]
        # eps must cover both 1 - belief on qualifying signals and the mass
        # of non-qualifying ones; scan candidate thresholds.
        candidates = sorted(set(np.concatenate(([0.0, 1.0], 1.0 - beliefs[live]))))
        feasible = [
            max(t, mass[live][beliefs[live] < 1.0 - t].sum()) for t in candidates
        ]
        levels.append(min(feasible))
    return float(max(levels))


def approx_knowledge_pair(eps: float) -> ApproxKnowledgePair:
    """Binary uniform state; each player's signal equals the state with
    probability 1 - eps, independently.  Paired with the common-knowledge
    structure on the same state marginal; the reported eps' is the exact
    knowledge level of the noisy structure under identity labeling."""
    if not 0.0 <= eps < 0.5:
        raise InvalidParameters(f"eps {eps} outside [0, 1/2)")
    flip = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    probs = 0.5 * np.einsum("kc,kd->kcd", flip, flip)
    u = validate_structure(probs)
    v = common_knowledge([0.5, 0.5])
    return ApproxKnowledgePair(u, v, knowledge_level(u, (0, 1), (0, 1)))


def counterexample_pairs() -> dict[str, dict]:
    """The negative examples, as named fixtures.

    - ``f3``: player 1's extra signal is independent of the state yet
      correlated with the opponent's signal: d1 = 0 < d.
    - ``f4_xor``: k = c1 xor c2; the substitutes conclusion reverses when c1
      is correlated with (k, d).
    - ``f5``: player 2 learning the state perfectly kills the value of c1;
      the complements conclusion reverses without conditional independence.
    - ``i4``: k = c xor d against no information: d = 0 although the
      feasible-payoff sets are far apart.
    """
    out: dict[str, dict] = {}

    f3 = np.zeros((2, 2, 2))  # axes (k, c-prime, d)
    for k in range(2):
        for c in range(2):
            f3[k, c, 1] = 0.25 * (k + c) / 2
            f3[k, c, 0] = 0.25 * (1 - (k + c) / 2)
    u_f3 = validate_structure(f3)
    v_f3 = validate_structure(f3.sum(axis=1, keepdims=True))
    out["opponent_correlation"] = {"u": u_f3, "v": v_f3}

    xor = np.zeros((2, 2, 2, 1))  # axes (k, c1, c2, d-trivial)
    for c1 in range(2):
        for c2 in range(2):
            xor[(c1 + c2) % 2, c1, c2, 0] = 0.25
    out["xor_state"] = {
        "u": validate_structure(xor.reshape(2, 4, 1)),  # sees (c1, c2)
        "v": validate_structure(xor.sum(axis=2)),  # sees c1
        "u_prime": validate_structure(xor.sum(axis=1)),  # sees c2
        "v_prime": validate_structure(xor.sum(axis=(1, 2)).reshape(2, 1, 1)),
    }

    f5 = np.zeros((2, 2, 2, 2))  # axes (k, c1, d, d1)
    for k in range(2):
        for d in range(2):
            prob = 0.5 * (2.0 / 3.0 if d == k else 1.0 / 3.0)
            c1 = 1 if d == k else 0
            f5[k, c1, d, k] = prob
    out["signal_quality"] = {
        "u": validate_structure(f5.reshape(2, 2, 4)),  # P2 sees (d, d1)
        "v": validate_structure(f5.sum(axis=1).reshape(2, 1, 4)),
        "u_prime": validate_structure(f5.sum(axis=3)),  # P2 sees d only
        "v_prime": validate_structure(f5.sum(axis=(1, 3)).reshape(2, 1, 2)),
    }

    i4 = np.zeros((2, 2, 2))
    for c in range(2):
        for d in range(2):
            i4[(c + d) % 2, c, d] = 0.25
    out["split_secret"] = {
        "u": validate_structure(i4),
        "v": validate_structure(np.array([[[0.5]], [[0.5]]])),
    }
    return out


def parity_coordination_game():
    """Common-interest payoff for the I.4 counterexample: both players earn 1
    when k = i + j mod 2 and -1 otherwise."""
    from .games import BimatrixGame

    g = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                g[k, i, j] = 1.0 if (i + j) % 2 == k else -1.0
    return BimatrixGame(g, g)
