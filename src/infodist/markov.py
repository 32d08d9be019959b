"""Desk-scale replication of the large-space Markov construction.

A Markov chain on symbols {1..N} starts uniform and moves uniformly over the
N/2 successors listed in a row of a boolean mixing matrix S.  The level-l
chain structure reveals the odd-position symbols to player 1 and the
even-position symbols to player 2; the state is 1 with probability
c_1/(N+1).  The round-p revelation game pays a base quadratic score for
reporting the first symbol plus a small bonus/penalty for keeping the
interleaved report sequence inside the chain's support ("nice").

The ladder comes from one atom array (``_atoms``: the support sequences,
each of chain mass (1/N) (2/N)^(2l-1) at length 2l) and one bonus table
(``_bonus_table``: every report pair's bonus, from the first dead
transition of its interleaving).  Chain structures place the atoms' mass,
revelation games add the base score to the table, and truthful guarantees
sum the atoms' table rows per signal, within a budget on atoms x N^p.

Full-scale parameters (N in the tens of millions) are unreachable here; the
module is a faithful small-N implementation plus seeded statistical evidence
at N in the thousands, with separation-level assertions gated on the mixing
conditions actually holding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import resolve_budget
from .errors import BudgetExceeded, InvalidParameters, InvalidSymbol
from .games import ZeroSumGame
from .structures import Garbling, InformationStructure, PLAYER1, PLAYER2, validate_structure

NICE = "nice"
NOT_NICE_P1 = "not-nice-player1"
NOT_NICE_P2 = "not-nice-player2"

DEFAULT_ALPHA = 1.0 / 25.0

# The seven ratio conditions of the concentration event, keyed by the
# statistics they compare (subscripts index columns of S, superscripts rows).
E_CONDITIONS = (
    ("Y_ab/Y_a", "Y_ab", "Y_a"),
    ("Y_ab_c/Y_a_c", "Y_ab_c", "Y_a_c"),
    ("Y_a_cd/Y_a_c", "Y_a_cd", "Y_a_c"),
    ("Y_ab_cd/Y_a_cd", "Y_ab_cd", "Y_a_cd"),
    ("Y_cd/Y_c", "Y_cd", "Y_c"),
    ("Y_a_c/Y_c", "Y_a_c", "Y_c"),
    ("Y_a_cd/Y_cd", "Y_a_cd", "Y_cd"),
)

Y_FAMILIES = ("Y_a", "Y_c", "Y_ab", "Y_cd", "Y_a_c", "Y_ab_c", "Y_a_cd", "Y_ab_cd")


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as little-endian bit sets in uint64 words, zero-padded."""
    padded = np.zeros((rows.shape[0], -(-rows.shape[1] // 64) * 64), dtype=bool)
    padded[:, : rows.shape[1]] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Boolean successor matrix: S[a-1, b-1] says the chain may move a -> b;
    every row has exactly N/2 successors.

    Alongside the read-only ``S`` it keeps, for the counting statistics, the
    successor sets (rows of S) and the predecessor sets (columns of S)
    packed into uint64 words by ``_pack``, and their sizes ``row_sums`` and
    ``col_sums``; all four are read-only and computed once, from S alone.
    """

    S: np.ndarray
    successor_words: np.ndarray = field(init=False, repr=False)
    predecessor_words: np.ndarray = field(init=False, repr=False)
    row_sums: np.ndarray = field(init=False, repr=False)
    col_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.S, dtype=bool)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InvalidParameters(f"S must be square, got {s.shape}")
        n = s.shape[0]
        if n % 2 != 0 or n < 2:
            raise InvalidParameters(f"N must be even and >= 2, got {n}")
        succ, pred = _pack(s), _pack(s.T)
        derived = {
            "S": s.copy(),
            "successor_words": succ,
            "predecessor_words": pred,
            # A set's size is the popcount of its words (padding bits are 0).
            "row_sums": np.bitwise_count(succ).sum(axis=1, dtype=np.int64),
            "col_sums": np.bitwise_count(pred).sum(axis=1, dtype=np.int64),
        }
        if not np.all(derived["row_sums"] == n // 2):
            raise InvalidParameters("every row must have exactly N/2 successors")
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.S.shape[0]

    def successors(self, symbol: int) -> np.ndarray:
        """1-based successors of a 1-based symbol."""
        return np.flatnonzero(self.S[symbol - 1]) + 1


@dataclass(frozen=True)
class MarkovWorld:
    """Mixing matrix plus the payoff parameters (alpha, epsilon)."""

    matrix: MixingMatrix
    alpha: float = DEFAULT_ALPHA
    epsilon: float | None = None

    def __post_init__(self):
        n = self.matrix.N
        cap = 1.0 / (10.0 * (n + 1) ** 2)
        eps = self.epsilon if self.epsilon is not None else cap / 2.0
        if not 0.0 < eps < cap:
            raise InvalidParameters(f"epsilon {eps:g} outside (0, {cap:g}) for N={n}")
        if not 0.0 < self.alpha < 0.5:
            raise InvalidParameters(f"alpha {self.alpha} outside (0, 1/2)")
        object.__setattr__(self, "epsilon", eps)

    @property
    def N(self) -> int:
        return self.matrix.N


def sample_S(N: int, seed: int) -> MixingMatrix:
    """Each row drawn independently and uniformly from the N/2-subsets."""
    if N % 2 != 0 or N < 4:
        raise InvalidParameters(f"N must be even and >= 4, got {N}")
    rng = np.random.default_rng(seed)
    scores = rng.random((N, N))
    chosen = np.argpartition(scores, N // 2, axis=1)[:, : N // 2]
    s = np.zeros((N, N), dtype=bool)
    np.put_along_axis(s, chosen, True, axis=1)
    return MixingMatrix(s)


def is_nice(sequence, matrix: MixingMatrix) -> str:
    """Classify a symbol sequence by the first prefix outside the chain's
    support: odd break position blames player 1, even blames player 2."""
    n = matrix.N
    seq = list(sequence)
    if not seq:
        raise InvalidSymbol("sequence must have length >= 1")
    for a in seq:
        if not (isinstance(a, (int, np.integer)) and 1 <= a <= n):
            raise InvalidSymbol(f"symbol {a!r} outside 1..{n}")
    for i in range(len(seq) - 1):
        if not matrix.S[seq[i] - 1, seq[i + 1] - 1]:
            first_dead = i + 2  # 1-based length of the first zero-probability prefix
            return NOT_NICE_P1 if first_dead % 2 == 1 else NOT_NICE_P2
    return NICE


def chain_probability(world: MarkovWorld, sequence) -> float:
    """nu of a symbol sequence: (1/N) (2/N)^(len-1) on the support, else 0."""
    if is_nice(sequence, world.matrix) != NICE:
        return 0.0
    n = world.N
    return (1.0 / n) * (2.0 / n) ** (len(list(sequence)) - 1)


def _atoms(matrix: MixingMatrix, length: int) -> np.ndarray:
    """The support sequences of a length, one row of 0-based symbols each,
    in lexicographic order: N (N/2)^(length-1) rows."""
    n = matrix.N
    succ = np.nonzero(matrix.S)[1].reshape(n, n // 2)  # each row's successors, ascending
    atoms = np.arange(n)[:, None]
    for _ in range(length - 1):
        atoms = np.column_stack((atoms.repeat(n // 2, axis=0), succ[atoms[:, -1]].ravel()))
    return atoms


def _index(symbols: np.ndarray, n: int) -> np.ndarray:
    """Big-endian index of each row of 0-based symbols (0 for empty rows)."""
    return symbols @ n ** np.arange(symbols.shape[1] - 1, -1, -1)


def _bonus_table(world: MarkovWorld, p: int) -> np.ndarray:
    """bonus[i, j] for player 1's report i (p symbols) and player 2's report
    j (p-1 symbols), both big-endian: eps when the interleaved report
    c1 d1 c2 ... cp is nice, +5 eps when its first dead transition enters a
    d (player 2's fault), -5 eps when it enters a c (player 1's)."""
    n, s, eps = world.N, world.matrix.S, world.epsilon
    c = np.arange(n**p)[:, None, None] // n ** np.arange(p - 1, -1, -1) % n
    d = np.arange(n ** (p - 1))[None, :, None] // n ** np.arange(p - 2, -1, -1) % n
    bonus = np.full((n**p, n ** (p - 1)), eps)
    # Latest transition first, so that the first dead one writes last.
    for m in reversed(range(p - 1)):
        bonus[~s[d[..., m], c[..., m + 1]]] = -5.0 * eps
        bonus[~s[c[..., m], d[..., m]]] = 5.0 * eps
    return bonus


def nice_sequences(world: MarkovWorld, length: int) -> list[tuple[int, ...]]:
    """All support sequences of the given length, lexicographic order."""
    if length < 1:
        raise InvalidParameters("length must be >= 1")
    return list(zip(*(_atoms(world.matrix, length) + 1).T.tolist()))


def chain_structure(
    world: MarkovWorld, l: int, budget: int | None = None
) -> InformationStructure:
    """Dense structure of the first l signal rounds.

    Player 1's signal indexes C^l (big-endian over symbols), player 2's D^l;
    only the N (N/2)^(2l-1) nice interleavings carry mass; state 1 has
    conditional probability c_1/(N+1).
    """
    if l < 1:
        raise InvalidParameters("l must be >= 1")
    n = world.N
    cells = 2 * n ** (2 * l)
    budget = resolve_budget(budget)
    if cells > budget:
        raise BudgetExceeded(f"{cells} tensor cells exceed budget {budget}")
    atoms = _atoms(world.matrix, 2 * l)
    c_idx, d_idx = _index(atoms[:, 0::2], n), _index(atoms[:, 1::2], n)
    atom_mass = (1.0 / n) * (2.0 / n) ** (2 * l - 1)
    p1 = (atoms[:, 0] + 1) / (n + 1)
    probs = np.zeros((2, n**l, n**l))
    probs[1, c_idx, d_idx] = atom_mass * p1
    probs[0, c_idx, d_idx] = atom_mass * (1.0 - p1)
    return validate_structure(probs, ("0", "1"))


def base_score(world: MarkovWorld, k, report):
    """Quadratic scoring of the first-symbol report; the additive constant
    makes the truthful decision problem worth exactly 0.  Broadcasts over
    arrays of states and reports."""
    n = world.N
    return -((k - report / (n + 1)) ** 2) + (n + 2) / (6.0 * (n + 1))


def revelation_game(
    world: MarkovWorld, p: int, budget: int | None = None
) -> ZeroSumGame:
    """Revelation game: player 1 reports p symbols, player 2 reports p-1.

    Payoff = base score of the first reported symbol + niceness bonus of the
    interleaved report.  All payoffs verified within the 8/9 bound.
    """
    if p < 1:
        raise InvalidParameters("p must be >= 1")
    n = world.N
    n_i = n**p
    n_j = n ** (p - 1)
    budget = resolve_budget(budget)
    if 2 * n_i * n_j > budget:
        raise BudgetExceeded(f"{2 * n_i * n_j} payoff cells exceed budget {budget}")
    first = np.arange(n_i) // n_j + 1
    base = base_score(world, np.arange(2)[:, None, None], first[:, None])
    payoffs = base + _bonus_table(world, p)
    bound = 5.0 / 6.0 + 5.0 * world.epsilon
    assert np.abs(payoffs).max() <= bound <= 8.0 / 9.0
    return ZeroSumGame(payoffs)


# ---------------------------------------------------------------------------
# Counting statistics, the concentration event, and mixing conditions.
# ---------------------------------------------------------------------------


# Each statistic counts the symbols i in an intersection of successor sets
# {i : S[c, i]}, written "c>", and predecessor sets {i : S[i, a]}, written
# ">a".  Per family of ``_StatKernel.stats``: scale and intersected sets.
_STAT_SETS = {
    "Y_a": (2.0, (">a",)),
    "Y_c": (2.0, ("c>",)),
    "Y_ab": (4.0, (">a", ">b")),
    "Y_cd": (4.0, ("c>", "d>")),
    "Y_a_c": (4.0, (">a", "c>")),
    "Y_ab_c": (8.0, (">a", ">b", "c>")),
    "Y_a_cd": (8.0, (">a", "c>", "d>")),
    "Y_ab_cd": (16.0, (">a", ">b", "c>", "d>")),
}

# Per kind of ``_StatKernel.conditional_ratio``: the sets of the
# conditioning constraints on i, and the set of the one more constraint.
_RATIO_SETS = {
    "aligned": (("a>",), ">e"),  # successor i of a; P(i precedes e)
    "pair-sup": (("a>",), "b>"),  # successor i of a; P(i also succeeds b)
    "pair-sub": ((">a",), ">b"),  # predecessor i of a; P(i also precedes b)
    "generic-tail": (("a>", "b>"), ">e"),  # i succeeds a and b; P(i precedes e)
    "continuation": (("a>", ">e"), "b>"),  # i succeeds a, precedes e; P(i succeeds b)
    "triple": (("c>", ">a"), ">b"),  # i succeeds c, precedes a; P(i precedes b)
    "quad": (("c>", "d>", ">a"), ">b"),  # i succeeds c and d, precedes a; P(i precedes b)
}


def _meet_plan(terms: dict[str, tuple[str, ...]]):
    """How to form every intersection of several sets among ``terms`` once.

    Returns the distinct set names (word-buffer slots 0, 1, ...), the steps
    ``(slot, base, extras)`` in order of size, and each multi-set term's
    slot.  A step ANDs the largest intersection formed before it inside its
    term (a single set at worst) with the term's remaining sets, so
    ``_STAT_SETS`` takes 6 ANDs: ab, cd, a_c, then ab_c, a_cd, ab_cd.
    """
    sets = list(dict.fromkeys(name for members in terms.values() for name in members))
    formed = {frozenset((name,)): slot for slot, name in enumerate(sets)}
    steps = []
    slot_of = {}
    for key, members in sorted(terms.items(), key=lambda item: len(item[1])):
        want = frozenset(members)
        if len(want) == 1:
            continue
        if want not in formed:
            base = max((meet for meet in formed if meet < want), key=len)
            extras = [formed[frozenset((name,))] for name in members if name not in base]
            formed[want] = len(formed)
            steps.append((formed[want], formed[base], extras))
        slot_of[key] = formed[want]
    return sets, steps, slot_of


class _StatKernel:
    """Batched evaluation of counting statistics over index tuples.

    Reads the packed successor and predecessor words (N/64 rounded up per
    set) and the set sizes that the matrix keeps; it packs nothing.  A term
    of one set is that set's size, a gather.  A term of several sets is a
    popcount of ANDed word rows, an exact integer, and each distinct
    intersection is formed once per tuple (``_meet_plan``).  Tuples go
    ``block`` at a time, ``BLOCK_WORDS`` words per set, through one buffer
    of a word row per set and per intersection: 10 x 128 KB for ``stats``
    at any N (512 tuples at N=2000), which stays in a core's L2 whatever
    the number of tuples.  Indices must lie in 0..N-1: the word gathers
    clip rather than check them.
    """

    BLOCK_WORDS = 16_384

    def __init__(self, matrix: MixingMatrix):
        self.succ = matrix.successor_words
        self.pred = matrix.predecessor_words
        self.row_sums = matrix.row_sums
        self.col_sums = matrix.col_sums
        self.block = max(1, self.BLOCK_WORDS // self.succ.shape[1])

    def _set_table(self, name: str) -> tuple[np.ndarray, np.ndarray, str]:
        """A set name's packed words, set sizes, and the index role it reads."""
        if name.endswith(">"):
            return self.succ, self.row_sums, name[0]
        return self.pred, self.col_sums, name[1]

    def _counts(
        self, terms: dict[str, tuple[str, ...]], idx: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Per tuple, the size of each term's intersection of sets, as float."""
        size = next(iter(idx.values())).size
        sets, steps, slot_of = _meet_plan(terms)
        out = {}
        for key, members in terms.items():
            if key not in slot_of:
                _, sums, role = self._set_table(members[0])
                out[key] = sums[idx[role]].astype(float)
        first = len(sets)
        counts = np.empty((len(steps), size))
        n_words = self.succ.shape[1]
        block = max(1, min(self.block, size))  # zero tuples: empty counts, no pass
        words = np.empty((first + len(steps), block, n_words), np.uint64)
        # Word popcounts, in a dtype that holds a whole set's count.
        bits = np.empty((len(steps), block, n_words), np.min_scalar_type(64 * n_words))
        for start in range(0, size if steps else 0, block):
            stop = min(start + block, size)
            if stop - start < block:
                words, bits = words[:, : stop - start], bits[:, : stop - start]
            for slot, name in enumerate(sets):
                table, _, role = self._set_table(name)
                np.take(table, idx[role][start:stop], axis=0, out=words[slot], mode="clip")
            for slot, base, extras in steps:
                np.bitwise_and(words[base], words[extras[0]], out=words[slot])
                for extra in extras[1:]:
                    np.bitwise_and(words[slot], words[extra], out=words[slot])
            np.bitwise_count(words[first:], out=bits)
            counts[:, start:stop] = np.einsum("sbw->sb", bits)
        for key, slot in slot_of.items():
            out[key] = counts[slot - first]
        return {key: out[key] for key in terms}

    def stats(self, a, b, c, d) -> dict[str, np.ndarray]:
        """The eight scaled statistics, each with mean ~ N under uniform S."""
        counts = self._counts(
            {name: sets for name, (_, sets) in _STAT_SETS.items()},
            {"a": a, "b": b, "c": c, "d": d},
        )
        return {name: scale * counts[name] for name, (scale, _) in _STAT_SETS.items()}

    def conditional_ratio(self, kind: str, idx: dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form truth-telling conditional probabilities.

        Each is P(one more transition constraint holds | the listed
        constraints), reduced through the Markov property to a ratio of
        counting sums; NaN marks empty conditioning sets.
        """
        if kind not in _RATIO_SETS:
            raise InvalidParameters(f"unknown ratio kind {kind!r}")
        given, extra = _RATIO_SETS[kind]
        counts = self._counts({"den": given, "num": given + (extra,)}, idx)
        den = counts["den"]
        out = np.full(den.size, np.nan)
        ok = den > 0
        out[ok] = counts["num"][ok] / den[ok]
        return out


def _distinct_pairs(rng: np.random.Generator, n: int, size: int):
    first = rng.integers(0, n, size)
    second = (first + rng.integers(1, n, size)) % n
    return first, second


def _ratio_deviation(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    dev = np.full(num.shape, np.inf)
    ok = den > 0
    dev[ok] = np.abs(num[ok] / den[ok] - 1.0)
    return dev


def _tuple_arrays(matrix: MixingMatrix, sample_budget: int, seed: int):
    n = matrix.N
    if n**4 <= sample_budget:
        grid = np.arange(n)
        a, b, c, d = (g.ravel() for g in np.meshgrid(grid, grid, grid, grid, indexing="ij"))
        keep = (a != b) & (c != d)
        return a[keep], b[keep], c[keep], d[keep], True
    rng = np.random.default_rng(seed)
    a, b = _distinct_pairs(rng, n, sample_budget)
    c, d = _distinct_pairs(rng, n, sample_budget)
    return a, b, c, d, False


def _event_e(matrix: MixingMatrix, alpha: float, sample_budget: int, seed: int):
    """The tuples' eight statistics, which tuples pass each E condition and
    which pass all seven (are in event E), and whether the tuples are all
    distinct-index tuples (N^4 fits the budget) or a uniform sample."""
    if not 0.0 < alpha < 0.5:
        raise InvalidParameters(f"alpha {alpha} outside (0, 1/2)")
    if sample_budget < 1:
        raise InvalidParameters("sample budget must be >= 1")
    a, b, c, d, exhaustive = _tuple_arrays(matrix, sample_budget, seed)
    stats = _StatKernel(matrix).stats(a, b, c, d)
    passed = {
        name: _ratio_deviation(stats[num], stats[den]) <= 2.0 * alpha
        for name, num, den in E_CONDITIONS
    }
    return stats, passed, np.logical_and.reduce(list(passed.values())), exhaustive


@dataclass(frozen=True)
class ConcentrationReport:
    """Concentration diagnostics over sampled (a, b, c, d) index tuples."""

    n: int
    alpha: float
    n_tuples: int
    exhaustive: bool
    family_max_dev: dict[str, float]
    condition_pass_fraction: dict[str, float]
    all_pass_fraction: float
    seed: int | None = None


def concentration_report(
    matrix: MixingMatrix,
    alpha: float = DEFAULT_ALPHA,
    sample_budget: int = 100_000,
    seed: int = 0,
) -> ConcentrationReport:
    """Evaluate the seven ratio conditions tuple by tuple.

    Exhaustive over all distinct-index tuples when N^4 fits the budget,
    uniformly sampled otherwise (flagged via ``exhaustive``).  Also reports,
    per statistic family, the worst relative deviation of the statistic from
    its target N.
    """
    stats, passed, e_pass, exhaustive = _event_e(matrix, alpha, sample_budget, seed)
    return ConcentrationReport(
        n=matrix.N,
        alpha=alpha,
        n_tuples=int(stats["Y_a"].size),
        exhaustive=exhaustive,
        family_max_dev={
            name: float(np.abs(stats[name] / matrix.N - 1.0).max()) for name in Y_FAMILIES
        },
        condition_pass_fraction={name: float(p.mean()) for name, p in passed.items()},
        all_pass_fraction=float(e_pass.mean()),
        seed=None if exhaustive else seed,
    )


@dataclass(frozen=True)
class MixingImplicationReport:
    """Tuples checked, tuples passing every E condition, and the E-passing
    tuples with a half-ratio outside [1/2 - alpha, 1/2 + alpha]."""

    n_tuples: int
    n_e_pass: int
    n_violations: int


def mixing_implication_check(
    matrix: MixingMatrix,
    alpha: float = DEFAULT_ALPHA,
    sample_budget: int = 100_000,
    seed: int = 0,
) -> MixingImplicationReport:
    """Check "concentration implies truthful mixing" on the E statistics.

    Each truth-telling ratio of ``check_mixing`` is half of one E-condition
    ratio r = num/den under a renaming of roles, so this halves the seven E
    ratios of every tuple and counts the E-passing tuples with some
    |r/2 - 1/2| > alpha.  That is |r - 1| > 2 alpha, the negation of the E
    test on the same ratio, and halving is exact in floating point, so
    ``n_violations`` is 0 by construction: the check shows that the two
    formulas agree, not that a matrix mixes.  What varies with the matrix
    is ``n_e_pass``, the number of tuples in event E (``all_pass_fraction``
    of ``concentration_report`` on the same arguments, as a count).
    """
    stats, _, e_pass, _ = _event_e(matrix, alpha, sample_budget, seed)
    violations = np.zeros(e_pass.size, dtype=bool)
    for _, num, den in E_CONDITIONS:
        ratio = np.full(e_pass.size, np.nan)
        ok = stats[den] > 0
        ratio[ok] = 0.5 * stats[num][ok] / stats[den][ok]
        violations |= np.abs(ratio - 0.5) > alpha
    return MixingImplicationReport(
        n_tuples=int(e_pass.size),
        n_e_pass=int(e_pass.sum()),
        n_violations=int((violations & e_pass).sum()),
    )


# Truth-telling conditional probabilities reduce, through the Markov
# property, to closed-form half-ratio families.  Per family: name, minimum l
# at which the configuration occurs, ratio kind, index roles, and which role
# pairs must be distinct.
_MIXING_FAMILIES = (
    # Guessed continuation e after an honest final report (last true symbol a).
    ("p1-guess-after-honest-tail", 1, "aligned", ("a", "e"), ()),
    # Guessed continuation e after a misreported final symbol b != a.
    ("p1-guess-after-misreport", 2, "generic-tail", ("a", "b", "e"), (("a", "b"),)),
    # Player 2 misreports his first signal (true a, report b).
    ("p2-first-round-misreport", 2, "pair-sub", ("a", "b"), (("a", "b"),)),
    # Interior misreport b at true a, previous true/reported symbols equal (c).
    ("misreport-prev-equal", 2, "triple", ("a", "b", "c"), (("a", "b"),)),
    # Interior misreport, previous true c and reported d distinct.
    ("misreport-prev-distinct", 2, "quad", ("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
    # Opponent's next true symbol after a misreport b at a, continuation e.
    ("opponent-continuation", 2, "continuation", ("a", "b", "e"), (("a", "b"),)),
    # Opponent's final true symbol lands on the misreported branch.
    ("p1-final-round-misreport", 2, "pair-sup", ("a", "b"), (("a", "b"),)),
)


@dataclass(frozen=True)
class MixingConditionStat:
    name: str
    n_checked: int
    n_pass: int
    worst_deviation: float


@dataclass(frozen=True)
class MixingReport:
    n: int
    l: int
    alpha: float
    exhaustive: bool
    conditions: tuple[MixingConditionStat, ...]

    @property
    def vacuous(self) -> bool:
        return all(c.n_checked == 0 for c in self.conditions)

    @property
    def worst_deviation(self) -> float:
        devs = [c.worst_deviation for c in self.conditions if c.n_checked]
        return max(devs) if devs else 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.n_pass == c.n_checked for c in self.conditions)


def check_mixing(
    world: MarkovWorld,
    l: int,
    sample_budget: int = 100_000,
    seed: int = 0,
) -> MixingReport:
    """Evaluate the truth-telling mixing conditions at level l through their
    closed-form counting ratios.

    Per condition family: checked/passing tuple counts and the worst
    deviation from 1/2.  Ratios are enumerated over symbol tuples
    (exhaustively when the tuple space fits the budget, sampled otherwise);
    tuples whose conditioning set is empty are vacuous and skipped.  With a
    single report round the opponent-side conditions are empty and the
    report is vacuous-pass.
    """
    if l < 1:
        raise InvalidParameters("l must be >= 1")
    if sample_budget < 1:
        raise InvalidParameters("sample budget must be >= 1")
    n = world.N
    kernel = _StatKernel(world.matrix)
    rng = np.random.default_rng(seed)
    stats: list[MixingConditionStat] = []
    exhaustive_overall = True
    for name, min_l, kind, roles, distinct in _MIXING_FAMILIES:
        if l < min_l:
            continue
        count = n ** len(roles)
        if count <= sample_budget:
            grids = np.meshgrid(*([np.arange(n)] * len(roles)), indexing="ij")
            idx = {r: g.ravel() for r, g in zip(roles, grids)}
        else:
            exhaustive_overall = False
            idx = {r: rng.integers(0, n, sample_budget) for r in roles}
        keep = np.ones(next(iter(idx.values())).size, dtype=bool)
        for r1, r2 in distinct:
            keep &= idx[r1] != idx[r2]
        idx = {r: v[keep] for r, v in idx.items()}
        ratio = kernel.conditional_ratio(kind, idx)
        valid = ~np.isnan(ratio)
        dev = np.abs(ratio[valid] - 0.5)
        stats.append(
            MixingConditionStat(
                name=name,
                n_checked=int(valid.sum()),
                n_pass=int((dev <= world.alpha).sum()),
                worst_deviation=float(dev.max()) if dev.size else 0.0,
            )
        )
    return MixingReport(
        n=n,
        l=l,
        alpha=world.alpha,
        exhaustive=exhaustive_overall,
        conditions=tuple(stats),
    )


# ---------------------------------------------------------------------------
# Truthful reporting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthfulGuarantee:
    """Exact best-response payoffs against a truthful reporter.

    ``lower`` is what truthful player 1 guarantees in the p-round game
    (defined for p <= l); ``upper`` is what a best-responding player 1 gets
    against truthful player 2 (defined for p <= l+1).  Under the mixing
    conditions these bracket the value away from zero: lower >= eps for
    p <= l and upper <= -eps for p = l+1.
    """

    lower: float | None
    upper: float


def truthful_strategy(world: MarkovWorld, l: int, p: int, side: str) -> Garbling:
    """Deterministic report of the first p (player 1) or p-1 (player 2)
    observed symbols, as a behavioral strategy on the dense signal space."""
    n = world.N
    if side == PLAYER1:
        if p > l:
            raise InvalidParameters("player 1 cannot truthfully report p > l symbols")
        keep = p
    elif side == PLAYER2:
        if p - 1 > l:
            raise InvalidParameters("player 2 cannot truthfully report p-1 > l symbols")
        keep = p - 1
    else:
        raise InvalidParameters(f"side must be {PLAYER1!r} or {PLAYER2!r}")
    rows = np.zeros((n**l, max(n**keep, 1)))
    rows[np.arange(n**l), np.arange(n**l) // (n ** (l - keep))] = 1.0
    return Garbling(rows)


def _expected_base_score(world: MarkovWorld, c1_true, report):
    q = c1_true / (world.N + 1)
    return q * base_score(world, 1, report) + (1 - q) * base_score(world, 0, report)


def _per_signal(signals: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum of the atoms' rows over each distinct signal (a row of symbols)."""
    _, group = np.unique(_index(signals, n), return_inverse=True)
    table = np.zeros((group.max() + 1, rows.shape[1]))
    np.add.at(table, group, rows)
    return table


def truthful_guarantee(
    world: MarkovWorld, l: int, p: int, budget: int | None = None
) -> TruthfulGuarantee:
    """Exact best-response payoffs against the truthful reporter.

    This is ``games.guarantee`` on u^l and G_p, decomposed per signal over
    the N (N/2)^(2l-1) support atoms (all of chain mass (1/N) (2/N)^(2l-1)):
    the truthful side's report is fixed by its signal, and each signal of
    the other side takes its min (lower) or max (upper) over reports.  The
    per-atom tables hold atoms x N^p entries, and that count, like the
    report space N^(2p-1), must fit the budget.
    """
    if p < 1 or p > l + 1:
        raise InvalidParameters(f"need 1 <= p <= l+1, got p={p}, l={l}")
    n = world.N
    budget = resolve_budget(budget)
    if n ** (2 * p - 1) > budget:
        raise BudgetExceeded(f"report space {n ** (2 * p - 1)} exceeds budget {budget}")
    cells = n * (n // 2) ** (2 * l - 1) * n**p
    if cells > budget:
        raise BudgetExceeded(f"{cells} atom-report cells exceed budget {budget}")
    atoms = _atoms(world.matrix, 2 * l)
    c, d = atoms[:, 0::2], atoms[:, 1::2]
    mass = (1.0 / n) * (2.0 / n) ** (2 * l - 1)
    bonus = _bonus_table(world, p)

    lower = None
    if p <= l:
        # Truthful player 1; player 2 with signal d picks the report
        # minimizing the expected bonus (the base score does not involve it).
        honest = _expected_base_score(world, c[:, 0] + 1, c[:, 0] + 1).sum()
        worst = _per_signal(d, bonus[_index(c[:, :p], n)], n).min(axis=1).sum()
        lower = float(mass * (honest + worst))

    # Truthful player 2; player 1 with signal c maximizes base + bonus.
    first = np.arange(n**p) // n ** (p - 1) + 1
    gain = _expected_base_score(world, c[:, :1] + 1, first) + bonus[:, _index(d[:, : p - 1], n)].T
    upper = float(mass * _per_signal(c, gain, n).max(axis=1).sum())
    return TruthfulGuarantee(lower=lower, upper=upper)
