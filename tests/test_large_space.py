import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infodist as inf
from infodist import PLAYER1, PLAYER2, markov
from infodist.games import guarantee
from infodist.markov import NICE, NOT_NICE_P1, NOT_NICE_P2


@pytest.fixture(scope="module")
def world4():
    return inf.MarkovWorld(inf.sample_S(4, 0))


def test_sample_row_sums_and_determinism():
    s1 = inf.sample_S(4, 7)
    s2 = inf.sample_S(4, 7)
    assert np.array_equal(s1.S, s2.S)
    assert np.all(s1.S.sum(axis=1) == 2)
    assert not np.array_equal(inf.sample_S(4, 8).S, s1.S)
    with pytest.raises(inf.InvalidParameters):
        inf.sample_S(5, 0)


def test_pairwise_intersection_concentration():
    matrix = inf.sample_S(1000, 1)
    rng = np.random.default_rng(2)
    a = rng.integers(0, 1000, 10_000)
    b = (a + rng.integers(1, 1000, 10_000)) % 1000
    x = matrix.S.astype(np.float32)
    counts = np.einsum("ni,ni->n", x[a], x[b])
    deviation = np.abs(counts - 250)
    assert deviation.max() <= 75  # loose 30% band; the mean is much tighter
    assert deviation.mean() <= 20


def test_world_parameter_validation():
    matrix = inf.sample_S(4, 0)
    world = inf.MarkovWorld(matrix)
    assert 0 < world.epsilon < 1 / (10 * 25)
    with pytest.raises(inf.InvalidParameters):
        inf.MarkovWorld(matrix, epsilon=1.0)
    with pytest.raises(inf.InvalidParameters):
        inf.MarkovWorld(matrix, alpha=0.7)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, -0.1, float("nan")])
def test_concentration_checks_reject_alpha_outside_the_band(alpha):
    # As MarkovWorld does: the E band |r - 1| <= 2 alpha is meant for
    # 0 < alpha < 1/2 only.
    matrix = inf.sample_S(4, 0)
    with pytest.raises(inf.InvalidParameters, match="alpha"):
        inf.concentration_report(matrix, alpha)
    with pytest.raises(inf.InvalidParameters, match="alpha"):
        inf.mixing_implication_check(matrix, alpha)


def test_is_nice_classification(world4):
    matrix = world4.matrix
    for a in range(1, 5):
        assert inf.is_nice([a], matrix) == NICE
    seqs2 = markov.nice_sequences(world4, 2)
    assert len(seqs2) == 16 // 2  # N^2 / 2 nice length-2 sequences
    # a break at the second position blames player 2
    a = 1
    bad_b = int(np.flatnonzero(~matrix.S[0])[0]) + 1
    assert inf.is_nice([a, bad_b], matrix) == NOT_NICE_P2
    good_b = int(np.flatnonzero(matrix.S[0])[0]) + 1
    bad_c = int(np.flatnonzero(~matrix.S[good_b - 1])[0]) + 1
    assert inf.is_nice([a, good_b, bad_c], matrix) == NOT_NICE_P1
    with pytest.raises(inf.InvalidSymbol):
        inf.is_nice([0, 1], matrix)


def test_chain_probability(world4):
    seqs = markov.nice_sequences(world4, 3)
    total = sum(markov.chain_probability(world4, s) for s in seqs)
    assert total == pytest.approx(1.0)
    dead = [1, int(np.flatnonzero(~world4.matrix.S[0])[0]) + 1]
    assert markov.chain_probability(world4, dead) == 0.0


def test_markov_property_of_chain(world4):
    # conditional of the next symbol given the full past is uniform on the
    # successor row of the last symbol
    seqs = markov.nice_sequences(world4, 4)
    mass = {}
    for seq in seqs:
        mass[seq] = markov.chain_probability(world4, seq)
    by_prefix = {}
    for seq, m in mass.items():
        by_prefix.setdefault(seq[:3], {})[seq[3]] = m
    for prefix, nexts in by_prefix.items():
        total = sum(nexts.values())
        successors = set(int(b) for b in world4.matrix.successors(prefix[-1]))
        assert set(nexts) == successors
        for value in nexts.values():
            assert value / total == pytest.approx(0.5, abs=1e-15)


def test_structure_marginals(world4):
    u1 = inf.chain_structure(world4, 1)
    assert np.allclose(u1.state_marginal(), [0.5, 0.5], atol=1e-12)
    u2 = inf.chain_structure(world4, 2)
    folded = u2.probs.reshape(2, 4, 4, 4, 4).sum(axis=(2, 4))
    assert np.abs(folded - u1.probs).max() <= 1e-15


def test_structure_budget(world4):
    with pytest.raises(inf.BudgetExceeded):
        inf.chain_structure(world4, 3, budget=100)


def test_base_score_example_n2():
    matrix = inf.MixingMatrix(np.eye(2, dtype=bool))
    world = inf.MarkovWorld(matrix, epsilon=1e-4)
    assert markov.base_score(world, 1, 2) == pytest.approx(1.0 / 9.0)


def test_truthful_first_report_decision_value(world4):
    n = world4.N
    total = sum(
        markov._expected_base_score(world4, c1, c1) for c1 in range(1, n + 1)
    ) / n
    assert total == pytest.approx(0.0, abs=1e-15)


def test_misreport_loss_bound(world4):
    n = world4.N
    for c1 in range(1, n + 1):
        honest = markov._expected_base_score(world4, c1, c1)
        for rep in range(1, n + 1):
            if rep == c1:
                continue
            loss = honest - markov._expected_base_score(world4, c1, rep)
            assert loss >= 1.0 / (n + 1) ** 2 - 1e-12
            assert loss >= 10 * world4.epsilon - 1e-12


def test_game_bonus_matches_niceness(world4):
    g = inf.revelation_game(world4, 2)
    n = world4.N
    eps = world4.epsilon
    for i in range(n**2):
        c_syms = markov._decode(i, 2, n)
        for j in range(n):
            d_syms = markov._decode(j, 1, n)
            h = g.payoffs[0, i, j] - markov.base_score(world4, 0, c_syms[0])
            label = inf.is_nice(markov._interleave(c_syms, d_syms), world4.matrix)
            expected = {NICE: eps, NOT_NICE_P2: 5 * eps, NOT_NICE_P1: -5 * eps}[label]
            assert h == pytest.approx(expected, abs=1e-12)
    assert np.abs(g.payoffs).max() <= 8.0 / 9.0


def test_concentration_report_small_n(world4):
    report = inf.concentration_report(world4.matrix)
    assert report.exhaustive
    assert report.n_tuples == 4 * 3 * 4 * 3
    assert report.family_max_dev["Y_c"] == 0.0
    assert 0.0 <= report.all_pass_fraction <= 1.0
    for name in markov.Y_FAMILIES:
        assert report.family_max_dev[name] >= 0.0


def test_check_mixing_level1_has_no_opponent_conditions(world4):
    report = inf.check_mixing(world4, 1)
    names = [c.name for c in report.conditions]
    assert names == ["p1-guess-after-honest-tail"]
    assert not report.vacuous
    # at desk scale deviations exceed alpha: reported, not asserted
    assert report.worst_deviation >= 0.0


def test_check_mixing_level2_families(world4):
    report = inf.check_mixing(world4, 2)
    names = {c.name for c in report.conditions}
    assert "p2-first-round-misreport" in names
    assert "misreport-prev-distinct" in names
    assert len(report.conditions) == 7


def test_check_mixing_sampled_at_larger_n():
    world = inf.MarkovWorld(inf.sample_S(300, 0))
    report = inf.check_mixing(world, 2, sample_budget=5000, seed=0)
    assert not report.exhaustive  # 300^2 pairs already exceed the budget
    assert 0.0 < report.worst_deviation < 0.5
    concentration = inf.concentration_report(world.matrix, sample_budget=5000, seed=0)
    assert 0.0 < concentration.all_pass_fraction <= 1.0


def test_mixing_implication_exhaustive(world4):
    report = inf.mixing_implication_check(world4.matrix)
    assert report.n_violations == 0


def test_mixing_implication_larger_n():
    matrix = inf.sample_S(100, 0)
    report = inf.mixing_implication_check(matrix, sample_budget=20_000)
    assert report.n_tuples == 20_000
    assert report.n_violations == 0


def test_mixing_ratios_match_brute_force_conditionals(world4):
    # The closed-form counting ratios must equal the true truth-telling
    # conditionals computed directly from the chain's support.
    kernel = markov._StatKernel(world4.matrix)
    n = world4.N
    seqs2 = markov.nice_sequences(world4, 2)
    seqs4 = markov.nice_sequences(world4, 4)
    x = world4.matrix.S

    # guess after an honest tail: P(next symbol e is reachable | c_1)
    for c1 in range(1, n + 1):
        for e in range(1, n + 1):
            group = [s for s in seqs2 if s[0] == c1]
            brute = sum(1 for s in group if x[s[1] - 1, e - 1]) / len(group)
            ratio = kernel.conditional_ratio(
                "aligned", {"a": np.array([c1 - 1]), "e": np.array([e - 1])}
            )[0]
            assert brute == pytest.approx(ratio, abs=1e-12)

    # player 2 misreports his first signal: conditional over player 1's seq
    for d_syms in {s[1::2] for s in seqs4}:
        group = [s for s in seqs4 if s[1::2] == d_syms]
        total = len(group)
        for rep in range(1, n + 1):
            if rep == d_syms[0]:
                continue
            brute = sum(1 for s in group if x[s[0] - 1, rep - 1]) / total
            ratio = kernel.conditional_ratio(
                "pair-sub",
                {"a": np.array([d_syms[0] - 1]), "b": np.array([rep - 1])},
            )[0]
            assert brute == pytest.approx(ratio, abs=1e-12)

    # player 1 misreports the second symbol, previous reports honest:
    # P(the opponent's first symbol reaches the misreported branch | c)
    for c_syms in {s[0::2] for s in seqs4}:
        group = [s for s in seqs4 if s[0::2] == c_syms]
        total = len(group)
        for rep in range(1, n + 1):
            brute = sum(1 for s in group if x[s[1] - 1, rep - 1]) / total
            ratio = kernel.conditional_ratio(
                "triple",
                {
                    "a": np.array([c_syms[1] - 1]),
                    "b": np.array([rep - 1]),
                    "c": np.array([c_syms[0] - 1]),
                },
            )[0]
            assert brute == pytest.approx(ratio, abs=1e-12)


def truthful_guarantee_dense(world, l, p):
    """``truthful_guarantee``'s quantities through the generic
    ``guarantee()`` on the dense chain structure and revelation game."""
    u = inf.chain_structure(world, l)
    g = inf.revelation_game(world, p)
    lower = None
    if p <= l:
        lower = guarantee(u, g, markov.truthful_strategy(world, l, p, PLAYER1), PLAYER1)
    upper = guarantee(u, g, markov.truthful_strategy(world, l, p, PLAYER2), PLAYER2)
    return markov.TruthfulGuarantee(lower=lower, upper=upper)


def test_truthful_guarantee_matches_dense(world4):
    for l, p in [(1, 1), (2, 1), (2, 2), (1, 2), (2, 3)]:
        fast = inf.truthful_guarantee(world4, l, p)
        dense = truthful_guarantee_dense(world4, l, p)
        if fast.lower is not None:
            assert fast.lower == pytest.approx(dense.lower, abs=1e-12)
        assert fast.upper == pytest.approx(dense.upper, abs=1e-12)


def test_truthful_guarantee_brackets_value(world4):
    u1 = inf.chain_structure(world4, 1)
    g1 = inf.revelation_game(world4, 1)
    val = inf.value(u1, g1).value
    tg = inf.truthful_guarantee(world4, 1, 1)
    assert tg.lower <= val + 1e-9
    assert val <= tg.upper + 1e-9
    # one-round game: reporting the first signal truthfully is exactly optimal
    assert val == pytest.approx(world4.epsilon, abs=1e-9)


def test_truthful_guarantee_validation(world4):
    with pytest.raises(inf.InvalidParameters):
        inf.truthful_guarantee(world4, 1, 3)
    with pytest.raises(inf.BudgetExceeded):
        inf.truthful_guarantee(world4, 2, 3, budget=10)


def test_truthful_strategy_shapes(world4):
    s1 = markov.truthful_strategy(world4, 2, 1, inf.PLAYER1)
    assert s1.rows.shape == (16, 4)
    s2 = markov.truthful_strategy(world4, 2, 1, inf.PLAYER2)
    assert s2.rows.shape == (16, 1)
    with pytest.raises(inf.InvalidParameters):
        markov.truthful_strategy(world4, 1, 2, inf.PLAYER1)


def test_reports_pinned_at_n300():
    # Recorded from the dense float32 kernel that the packed one replaced.
    # The statistics are integer counts, so no kernel may move these values.
    matrix = inf.sample_S(300, 0)
    assert inf.concentration_report(matrix, sample_budget=5000, seed=0) == (
        markov.ConcentrationReport(
            n=300,
            alpha=0.04,
            n_tuples=5000,
            exhaustive=False,
            family_max_dev={
                "Y_a": 0.21333333333333337,
                "Y_c": 0.0,
                "Y_ab": 0.3866666666666667,
                "Y_cd": 0.22666666666666668,
                "Y_a_c": 0.3600000000000001,
                "Y_ab_c": 0.6799999999999999,
                "Y_a_cd": 0.4933333333333334,
                "Y_ab_cd": 0.76,
            },
            condition_pass_fraction={
                "Y_ab/Y_a": 0.666,
                "Y_ab_c/Y_a_c": 0.5,
                "Y_a_cd/Y_a_c": 0.566,
                "Y_ab_cd/Y_a_cd": 0.3848,
                "Y_cd/Y_c": 0.818,
                "Y_a_c/Y_c": 0.66,
                "Y_a_cd/Y_cd": 0.5026,
            },
            all_pass_fraction=0.045,
            seed=0,
        )
    )
    assert inf.mixing_implication_check(matrix, sample_budget=5000, seed=0) == (
        markov.MixingImplicationReport(n_tuples=5000, n_e_pass=225, n_violations=0)
    )


@pytest.mark.parametrize("n", [70, 128, 300])
def test_stat_kernel_matches_integer_products(n):
    # N=70 leaves part of the last 64-bit word as padding, N=128 fills whole
    # words; 5000 tuples cross a gather-block boundary.
    matrix = inf.sample_S(n, n)
    x = matrix.S.astype(np.int64)
    kernel = markov._StatKernel(matrix)
    rng = np.random.default_rng(n)
    a, b, c, d, e = rng.integers(0, n, (5, 5000))

    def succ(i):
        return x[i]

    def pred(i):
        return x[:, i].T

    def common(*rows):
        return np.einsum(",".join(["ti"] * len(rows)) + "->t", *rows)

    common_pred = x.T @ x  # [a, b] = #i with i -> a and i -> b
    common_succ = x @ x.T  # [c, d] = #i with c -> i and d -> i
    succ_pred = x @ x  # [c, a] = #i with c -> i -> a
    stats = kernel.stats(a, b, c, d)
    expected = {
        "Y_a": 2 * x.sum(axis=0)[a],
        "Y_c": 2 * x.sum(axis=1)[c],
        "Y_ab": 4 * common_pred[a, b],
        "Y_cd": 4 * common_succ[c, d],
        "Y_a_c": 4 * succ_pred[c, a],
        "Y_ab_c": 8 * common(pred(a), pred(b), succ(c)),
        "Y_a_cd": 8 * common(pred(a), succ(c), succ(d)),
        "Y_ab_cd": 16 * common(pred(a), pred(b), succ(c), succ(d)),
    }
    assert list(stats) == list(markov.Y_FAMILIES)
    for name in markov.Y_FAMILIES:
        assert stats[name].dtype == np.float64
        np.testing.assert_array_equal(stats[name], expected[name].astype(float), err_msg=name)

    # (numerator, denominator) counts of each closed-form conditional ratio
    quad_base = common(succ(c), succ(d), pred(a))
    counts = {
        "aligned": (succ_pred[a, e], x.sum(axis=1)[a]),
        "pair-sup": (common_succ[a, b], x.sum(axis=1)[a]),
        "pair-sub": (common_pred[a, b], x.sum(axis=0)[a]),
        "generic-tail": (common(succ(a), succ(b), pred(e)), common_succ[a, b]),
        "continuation": (common(succ(a), pred(e), succ(b)), succ_pred[a, e]),
        "triple": (common(succ(c), pred(a), pred(b)), succ_pred[c, a]),
        "quad": (common(succ(c), succ(d), pred(a), pred(b)), quad_base),
    }
    idx = {"a": a, "b": b, "c": c, "d": d, "e": e}
    for kind, (num, den) in counts.items():
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(den > 0, num / den, np.nan)
        np.testing.assert_array_equal(kernel.conditional_ratio(kind, idx), ratio, err_msg=kind)
    with pytest.raises(inf.InvalidParameters):
        kernel.conditional_ratio("no-such-kind", idx)


def _integer_stats(matrix, a, b, c, d):
    """The eight statistics as integer products of S's rows and columns."""
    x = matrix.S.astype(np.int64)

    def common(*rows):
        return np.einsum(",".join(["ti"] * len(rows)) + "->t", *rows)

    pa, pb, sc, sd = x[:, a].T, x[:, b].T, x[c], x[d]
    return {
        "Y_a": 2 * x.sum(axis=0)[a],
        "Y_c": 2 * x.sum(axis=1)[c],
        "Y_ab": 4 * common(pa, pb),
        "Y_cd": 4 * common(sc, sd),
        "Y_a_c": 4 * common(pa, sc),
        "Y_ab_c": 8 * common(pa, pb, sc),
        "Y_a_cd": 8 * common(pa, sc, sd),
        "Y_ab_cd": 16 * common(pa, pb, sc, sd),
    }


def _assert_stats_match(matrix, a, b, c, d):
    stats = markov._StatKernel(matrix).stats(a, b, c, d)
    expected = _integer_stats(matrix, a, b, c, d)
    assert list(stats) == list(markov.Y_FAMILIES)
    for name in markov.Y_FAMILIES:
        np.testing.assert_array_equal(stats[name], expected[name].astype(float), err_msg=name)


@pytest.mark.parametrize("n", [70, 128, 300])
def test_packed_words_are_the_matrix_own(n):
    matrix = inf.sample_S(n, n)
    s = matrix.S
    pairs = (
        (matrix.successor_words, markov._pack(s)),
        (matrix.predecessor_words, markov._pack(s.T)),
        (matrix.row_sums, s.sum(axis=1)),
        (matrix.col_sums, s.sum(axis=0)),
    )
    for stored, expected in pairs:
        np.testing.assert_array_equal(stored, expected)
        assert not stored.flags.writeable
    assert not s.flags.writeable
    kernel = markov._StatKernel(matrix)
    assert kernel.succ is matrix.successor_words and kernel.pred is matrix.predecessor_words


@pytest.mark.parametrize("n", [70, 300])
def test_stat_kernel_block_edges(n):
    # Tuple counts on both sides of the kernel's block boundaries: one
    # tuple, one whole block, one more, and a last block one short.
    matrix = inf.sample_S(n, 1)
    block = markov._StatKernel(matrix).block
    rng = np.random.default_rng(n)
    for size in (1, block, block + 1, 3 * block - 1):
        _assert_stats_match(matrix, *rng.integers(0, n, (4, size)))


@given(
    half_n=st.integers(2, 100),
    size=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_stat_kernel_matches_integer_products_property(half_n, size, seed):
    n = 2 * half_n
    rng = np.random.default_rng(seed)
    _assert_stats_match(inf.sample_S(n, seed), *rng.integers(0, n, (4, size)))


def test_stat_sets_form_each_intersection_once():
    # The six multi-set statistics take one AND each, each from an
    # intersection formed before it or from a gathered set.
    sets, steps, slot_of = markov._meet_plan(
        {name: members for name, (_, members) in markov._STAT_SETS.items()}
    )
    assert sorted(sets) == sorted([">a", ">b", "c>", "d>"])
    assert len(steps) == 6 and all(len(extras) == 1 for _, _, extras in steps)
    assert sorted(slot_of) == sorted(set(markov.Y_FAMILIES) - {"Y_a", "Y_c"})


@pytest.mark.parametrize("n, budget", [(4, 100_000), (300, 5000)])
def test_implication_counts_the_concentration_event(n, budget):
    matrix = inf.sample_S(n, 0)
    report = inf.concentration_report(matrix, sample_budget=budget, seed=3)
    implication = inf.mixing_implication_check(matrix, sample_budget=budget, seed=3)
    assert implication.n_tuples == report.n_tuples
    assert implication.n_e_pass == round(report.all_pass_fraction * report.n_tuples)
    assert implication.n_violations == 0
