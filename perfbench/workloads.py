"""The benchmark's four workloads: seeded inputs, ops and answer checks.

Every workload yields its ops in passes.  A pass is a fixed mix of op
sizes, so a run that completes whole passes measures the same mix on every
seed; the seed and the pass index only draw the random entries (or, for the
deterministic catalog families, the order of the members).  A source's
``pass_seconds`` is the scaled op time of one pass (run.py), as measured at
the commit that added the benchmark; run.py sizes a run with it, so that a
run measures about ``--seconds`` of scaled op time.  Ops call infodist through the
module attributes the tracer wraps (``distance.value_distance`` and so on),
never through names copied out of those modules.

An op returns everything its checks need.  The checks run after the timed
region and return a list of problems, empty when every answer is right.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from infodist import catalog, distance, games, hierarchy, markov, payoffs, structures
from infodist.config import DIST_TOL, WITNESS_TOL

SHAPES = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
LARGE_STATES = 4
LARGE_SIGNALS = (7, 8, 9)
BLACKWELL_P = 0.75
MARKOV_N = 2000
MARKOV_TUPLES = 25_000


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


class Source:
    """Seeded inputs of one workload run: a warm-up op and the timed passes.

    ``probe`` names the speed probe of speed.py that does the ops' kind of
    work; ``pass_seconds`` is the op time of one pass.
    """

    probe = "lp"
    pass_seconds: float

    def warmup(self) -> None:
        raise NotImplementedError

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError


def _random_probs(rng: np.random.Generator, shape) -> np.ndarray:
    probs = rng.random(shape)
    return probs / probs.sum()


def _near(a: float, b: float, tol: float, what: str) -> list[str]:
    return [] if abs(a - b) <= tol else [f"{what}: {a!r} vs {b!r} (tol {tol:g})"]


def _gap_checks(u, v, d: float, game, cert_uv=None, cert_vu=None, d1=None) -> list[str]:
    """Certificates recheck, d is their max, the witness attains the gap,
    and d1 <= d.  Certificates and d1 not produced by the op are solved
    here."""
    cert_uv = cert_uv or distance.one_sided_gap(u, v)
    cert_vu = cert_vu or distance.one_sided_gap(v, u)
    problems = _near(cert_uv.recheck(u, v), cert_uv.gap, DIST_TOL, "recheck u->v")
    problems += _near(cert_vu.recheck(v, u), cert_vu.gap, DIST_TOL, "recheck v->u")
    problems += _near(d, max(cert_uv.gap, cert_vu.gap), DIST_TOL, "d vs max gap")
    u_emb, v_emb = structures.common_embedding(u, v)
    achieved = games.value(v_emb, game).value - games.value(u_emb, game).value
    problems += _near(achieved, cert_uv.gap, WITNESS_TOL, "witness gap")
    d1 = distance.single_agent_distance(u, v) if d1 is None else d1
    if d1 > d + DIST_TOL:
        problems.append(f"d1 {d1!r} > d {d!r}")
    return problems


# ---------------------------------------------------------------------------
# small-random: K in {2,3}, signal counts in {2,3,4}, one op = 9 LP solves.


def _small_op(raw_u, raw_v, payoffs_g) -> dict:
    u = structures.validate_structure(raw_u)
    v = structures.validate_structure(raw_v)
    game = games.ZeroSumGame(payoffs_g)
    return {
        "u": u,
        "v": v,
        "game": game,
        "d": distance.value_distance(u, v),
        "witness": distance.witness_game(u, v),
        "d1": distance.single_agent_distance(u, v),
        "value": games.value(u, game).value,
    }


def _small_check(out: dict) -> list[str]:
    problems = _gap_checks(out["u"], out["v"], out["d"], out["witness"], d1=out["d1"])
    oracle = games.value_normal_form(out["u"], out["game"])
    problems += _near(out["value"], oracle, DIST_TOL, "value vs normal form")
    return problems


class SmallRandom(Source):
    """A pass is 18 pairs: each (K, player-1 shape) once, player-2 shapes a
    seeded permutation of the same nine shapes."""

    pass_seconds = 0.6

    def __init__(self, seed: int):
        self.seed = seed

    def _pair(self, rng, n_k, shape_u, shape_v):
        n_i, n_j = (int(x) for x in rng.integers(2, 4, size=2))
        return (
            _random_probs(rng, (n_k, *shape_u)),
            _random_probs(rng, (n_k, *shape_v)),
            rng.uniform(-1.0, 1.0, (n_k, n_i, n_j)),
        )

    def warmup(self) -> None:
        rng = np.random.default_rng([self.seed, 1 << 20])
        _small_op(*self._pair(rng, 2, (2, 2), (2, 2)))

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for n_k in (2, 3):
            order = rng.permutation(len(SHAPES))
            for shape_u, j in zip(SHAPES, order):
                shape_v = SHAPES[j]
                args = self._pair(rng, n_k, shape_u, shape_v)
                label = f"K{n_k} {shape_u}x{shape_v}"
                ops.append(Op(label, lambda a=args: _small_op(*a), _small_check))
        return ops


# ---------------------------------------------------------------------------
# large-random: dense K=4 pairs, one op = value_distance then witness_game.


def _large_op(raw_u, raw_v) -> dict:
    u = structures.validate_structure(raw_u)
    v = structures.validate_structure(raw_v)
    return {
        "u": u,
        "v": v,
        "d": distance.value_distance(u, v),
        "witness": distance.witness_game(u, v),
    }


def _large_check(out: dict) -> list[str]:
    return _gap_checks(out["u"], out["v"], out["d"], out["witness"])


class LargeRandom(Source):
    """A pass is one dense pair at each signal count in LARGE_SIGNALS, in a
    seeded order."""

    pass_seconds = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> None:
        rng = np.random.default_rng([self.seed, 1 << 20])
        shape = (LARGE_STATES, 2, 2)
        _large_op(_random_probs(rng, shape), _random_probs(rng, shape))

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for n in rng.permutation(LARGE_SIGNALS):
            shape = (LARGE_STATES, int(n), int(n))
            args = (_random_probs(rng, shape), _random_probs(rng, shape))
            ops.append(Op(f"K4 L{n}", lambda a=args: _large_op(*a), _large_check))
        return ops


# ---------------------------------------------------------------------------
# catalog-sweep: the paper's example families, one op per family member.


def _catalog_op(generate, extra=None) -> dict:
    u, v = generate()
    cert_uv = distance.one_sided_gap(u, v)
    cert_vu = distance.one_sided_gap(v, u)
    out = {
        "u": u,
        "v": v,
        "cert_uv": cert_uv,
        "cert_vu": cert_vu,
        "witness": distance.witness_game(u, v),
        "better": distance.is_better(u, v)[0],
        "reduced": hierarchy.reduce_redundancy(u),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ck_decompose warns on redundant input
        out["components"] = len(hierarchy.ck_decompose(u).components)
    out.update({
        "dnzs": hierarchy.dnzs(u, v),
        "diameter": distance.diameter_bounds(
            distance.StateDistribution(u.state_marginal()),
            distance.StateDistribution(v.state_marginal()),
        ),
    })
    if extra is not None:
        out.update(extra(u, v))
    return out


def _catalog_check(expect=None):
    def check(out: dict) -> list[str]:
        u, v = out["u"], out["v"]
        cert_uv, cert_vu = out["cert_uv"], out["cert_vu"]
        d = max(cert_uv.gap, cert_vu.gap)
        problems = _gap_checks(u, v, d, out["witness"], cert_uv, cert_vu, out.get("d1"))
        if out["better"] != (cert_uv.gap <= DIST_TOL):
            problems.append(f"is_better {out['better']} with gap {cert_uv.gap!r}")
        bounds = out["diameter"]
        if not bounds.lower - DIST_TOL <= d <= bounds.upper + DIST_TOL:
            problems.append(f"d {d!r} outside diameter bounds {bounds}")
        if not 0.0 <= out["dnzs"] <= 2.0 + DIST_TOL:
            problems.append(f"dnzs {out['dnzs']!r} outside [0, 2]")
        if abs(out["reduced"].probs.sum() - 1.0) > DIST_TOL:
            problems.append("reduced structure lost mass")
        if expect is not None:
            problems += expect(out, d)
        return problems

    return check


def _blackwell(n: int, m: int):
    return catalog.blackwell_structure(catalog.BlackwellSpec(n, m, BLACKWELL_P, BLACKWELL_P))


def _bimatrix(n_k: int) -> games.BimatrixGame:
    """A fixed payoff pair for the feasible-payoff bound."""
    grid = np.arange(n_k * 4, dtype=float).reshape(n_k, 2, 2)
    return games.BimatrixGame(np.cos(grid), np.sin(1.0 + 2.0 * grid))


def _experiments_extra(n: int, l: int):
    def extra(u, v):
        report = payoffs.verify_feasible_bound(u, v, _bimatrix(2), "cond_indep")
        return {
            "d1": distance.single_agent_distance(u, v),
            "closed_form": catalog.blackwell_d1_closed_form(n, l, BLACKWELL_P),
            "feasible_passed": report.passed,
        }

    return extra


def _experiments_expect(out, d):
    problems = _near(out["d1"], out["closed_form"], DIST_TOL, "d1 vs closed form")
    if not out["feasible_passed"]:
        problems.append("feasible-payoff bound failed")
    return problems


def _split_secret_extra(u, v):
    g = catalog.parity_coordination_game()
    return {"hausdorff": payoffs.hausdorff_max(payoffs.feasible_set(u, g), payoffs.feasible_set(v, g))}


def _split_secret_expect(out, d):
    problems = [] if d <= DIST_TOL else [f"split secret d {d!r} > 0"]
    if out["hausdorff"] < 1.0 - DIST_TOL:
        problems.append(f"split secret Hausdorff {out['hausdorff']!r} < 1")
    return problems


def _canonical_expect(out, d):
    return _near(d, 0.5, DIST_TOL, "d(u1,u2)")


def _approx_expect(eps_prime):
    def expect(out, d):
        return [] if d <= 20 * eps_prime + DIST_TOL else [f"d {d!r} > 20 eps' {eps_prime!r}"]

    return expect


def catalog_members() -> list[tuple[str, Callable, Callable | None, Callable | None]]:
    """(label, generate, extra, expect) for every family member swept.

    Blackwell (n+2, n) vs (n, n) stops at n = 11: at n = 12 one gap LP alone
    takes 10 s or more, longer than a whole run.
    """
    members = []

    def canonical(a, b):
        def generate():
            examples = catalog.canonical_examples()
            return examples[a], examples[b]

        return generate

    names = ("u1", "u2", "u2prime")
    for a in names:
        for b in names:
            if a != b:
                expect = _canonical_expect if {a, b} == {"u1", "u2"} else None
                members.append((f"canonical {a}-{b}", canonical(a, b), None, expect))

    for n in range(2, 12):
        pair = lambda n=n: (_blackwell(n + 2, n), _blackwell(n, n))
        members.append((f"blackwell ({n + 2},{n})-({n},{n})", pair, None, None))
        members.append((f"blackwell ({n},{n})-({n + 2},{n})", lambda p=pair: p()[::-1], None, None))

    for n in range(1, 6):
        for l in range(n):
            pair = lambda n=n, l=l: (_blackwell(n, 0), _blackwell(l, 0))
            members.append(
                (f"experiments ({n},0)-({l},0)", pair, _experiments_extra(n, l), _experiments_expect)
            )

    ck = lambda: catalog.common_knowledge([0.5, 0.5])
    for m in range(5, 21):
        members.append((f"email M={m}", lambda m=m: (catalog.email_game(0.1, 0.5, m), ck()), None, None))

    no_info = lambda: catalog.no_information([0.5, 0.5])
    for n in range(1, 17):
        members.append((f"ladder n={n}", lambda n=n: (catalog.ladder_structure(n), no_info()), None, None))

    for eps in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4):
        eps_prime = catalog.approx_knowledge_pair(eps).eps_prime

        def approx(eps=eps):
            pair = catalog.approx_knowledge_pair(eps)
            return pair.u, pair.v

        members.append((f"approx eps={eps}", approx, None, _approx_expect(eps_prime)))

    for name, fixture in catalog.counterexample_pairs().items():
        keys = [("u", "v")] + ([("u_prime", "v_prime")] if "u_prime" in fixture else [])
        for a, b in keys:
            def pair(name=name, a=a, b=b):
                fixture = catalog.counterexample_pairs()[name]
                return fixture[a], fixture[b]

            split = name == "split_secret"
            members.append(
                (
                    f"counterexample {name} {a}-{b}",
                    pair,
                    _split_secret_extra if split else None,
                    _split_secret_expect if split else None,
                )
            )
    return members


class CatalogSweep(Source):
    """A pass is every member once, in a seeded order."""

    pass_seconds = 6.5

    def __init__(self, seed: int):
        self.seed = seed
        self.members = catalog_members()

    def _op(self, label, generate, extra, expect) -> Op:
        return Op(label, lambda: _catalog_op(generate, extra), _catalog_check(expect))

    def warmup(self) -> None:
        self._op(*self.members[0]).run()

    def make_pass(self, index: int) -> list[Op]:
        order = np.random.default_rng([self.seed, index]).permutation(len(self.members))
        return [self._op(*self.members[i]) for i in order]


# ---------------------------------------------------------------------------
# markov-stats: the counting statistics on one sampled N=2000 matrix.


def _markov_check(first: dict):
    """Finite, full-size reports, bit-identical to the first of their kind."""

    def check(out: dict) -> list[str]:
        report = out["report"]
        problems = []
        if report.n_tuples != MARKOV_TUPLES:
            problems.append(f"n_tuples {report.n_tuples} != {MARKOV_TUPLES}")
        numbers = []
        if isinstance(report, markov.ConcentrationReport):
            numbers = [report.all_pass_fraction, *report.family_max_dev.values()]
            numbers += list(report.condition_pass_fraction.values())
        if not all(math.isfinite(x) for x in numbers):
            problems.append("non-finite statistic")
        reference = first.setdefault(out["kind"], report)
        if report != reference:
            problems.append(f"{out['kind']} differs from its first run")
        return problems

    return check


class MarkovStats(Source):
    """A pass is one concentration report and one implication check."""

    probe = "gather"
    pass_seconds = 2.15

    def __init__(self, seed: int):
        self.seed = seed
        self.matrix = markov.sample_S(MARKOV_N, seed)
        self.check = _markov_check({})

    def _call(self, kind: str, budget: int) -> dict:
        fn = getattr(markov, kind)
        return {"kind": kind, "report": fn(self.matrix, sample_budget=budget, seed=self.seed)}

    def warmup(self) -> None:
        for kind in ("concentration_report", "mixing_implication_check"):
            self._call(kind, 1000)

    def make_pass(self, index: int) -> list[Op]:
        return [
            Op(kind, lambda k=kind: self._call(k, MARKOV_TUPLES), self.check)
            for kind in ("concentration_report", "mixing_implication_check")
        ]


WORKLOADS = {
    "small-random": SmallRandom,
    "large-random": LargeRandom,
    "catalog-sweep": CatalogSweep,
    "markov-stats": MarkovStats,
}
