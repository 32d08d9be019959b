"""Command-line surface: file I/O, experiment runners, table emitters.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  Randomized commands take --seed; omitting it falls back to
seed 0 with a printed notice so runs stay reproducible by default.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import catalog as cat
from . import distance as dist
from . import games as gm
from . import hierarchy as hi
from . import markov as mk
from . import payoffs as po
from . import structures as st
from .config import BUDGET_ENV_VAR, default_budget
from .errors import InfoDistError, InvalidParameters

_FORMATS = ("text", "json", "csv")

_Table = tuple[list[str], list[list]]
_Output = tuple[dict, _Table | None]  # what each command returns for main() to emit


class _UsageError(Exception):
    """Arguments that parse but do not fit together: exit code 2."""


def _fmt_num(x) -> str:
    return "%.12g" % float(x)


def _emit(fmt: str, payload: dict, table: _Table | None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if fmt == "text" and table is None:
        if len(payload) == 1:
            print(_format_value(next(iter(payload.values()))))
        else:
            for key, value in payload.items():
                print(f"{key}: {_format_value(value)}")
        return
    # A table; csv without one prints the payload as a one-row table.
    headers, rows = table if table is not None else (list(payload), [list(payload.values())])
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    for row in [headers] + cells:
        print("  ".join(row))


def _cell(v) -> str:
    """A table cell: numbers to 12 significant digits, lists as JSON."""
    if isinstance(v, (int, float)):
        return _fmt_num(v)
    if isinstance(v, list):
        return json.dumps(v)
    return str(v)


def _format_value(v) -> str:
    if isinstance(v, float):
        return _fmt_num(v)
    return str(v)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParameters(f"{path} is not UTF-8 text: {exc}") from None


def _write(path: str | None, text: str):
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))


def _load(path: str, parse):
    """``parse`` of the file's text; a domain error names the file."""
    text = _read(path)
    try:
        return parse(text)
    except InfoDistError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_structure(path: str) -> st.InformationStructure:
    return _load(path, st.InformationStructure.from_json)


def _load_game(path: str) -> gm.ZeroSumGame:
    return _load(path, gm.ZeroSumGame.from_json)


def _load_bimatrix(path: str) -> gm.BimatrixGame:
    return _load(path, gm.BimatrixGame.from_json)


def _state_vector(text: str) -> dist.StateDistribution:
    what = "state distribution"
    return dist.StateDistribution(st._json_floats(st._parse_json(text, what), what))


def _load_state_vector(path: str) -> dist.StateDistribution:
    return _load(path, _state_vector)


def _resolve_seed(args) -> int:
    if args.seed is None:
        print("no --seed given; defaulting to seed 0", file=sys.stderr)
        return 0
    return args.seed


def _resolve_budget(args) -> int:
    """--budget, else INFODIST_BUDGET, else 10^6; a bad variable is a usage error."""
    if args.budget is not None:
        return args.budget
    try:
        return default_budget()
    except InvalidParameters as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns its payload and, for commands
# with tabular output, the table; main() emits them.
# ---------------------------------------------------------------------------


def _cmd_value(args) -> _Output:
    u = _load_structure(args.structure)
    g = _load_game(args.game)
    result = gm.value(u, g)
    payload = {"value": result.value}
    if args.strategies:
        payload["strategy1"] = result.strategy1.rows.tolist()
        payload["strategy2"] = result.strategy2.rows.tolist()
    return payload, None


def _cmd_distance(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"distance": dist.value_distance(u, v)}, None


def _cmd_compare(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    # Solves both directions as one pair; the gaps then come from the memo.
    dist.value_distance(u, v)
    gap_vu = dist.one_sided_gap(u, v).gap  # sup_g val(v,g) - val(u,g)
    gap_uv = dist.one_sided_gap(v, u).gap
    tol = args.tolerance
    if gap_vu <= tol and gap_uv <= tol:
        relation = "equivalent"
    elif gap_vu <= tol:
        relation = "u>=v"
    elif gap_uv <= tol:
        relation = "v>=u"
    else:
        relation = "incomparable"
    return {"relation": relation, "gain_moving_to_v": gap_vu, "gain_moving_to_u": gap_uv}, None


def _cmd_witness(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    game = dist.witness_game(u, v)
    _write(args.output, game.to_json())
    # witness_game has bracketed the game's gap within WITNESS_TOL of this one.
    return {"gap": dist.one_sided_gap(u, v).gap}, None


def _cmd_d1(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"d1": dist.single_agent_distance(u, v)}, None


def _cmd_diameter(args) -> _Output:
    p = _load_state_vector(args.p)
    q = _load_state_vector(args.q)
    bounds = dist.diameter_bounds(p, q)
    return {"lower": bounds.lower, "upper": bounds.upper, "heuristic": bounds.heuristic}, None


def _cmd_dw(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    games = [_load_game(path) for path in args.games]
    return {"dw": dist.dw(u, v, games)}, None


def _cmd_reduce(args) -> _Output:
    u = _load_structure(args.structure)
    reduced = hi.reduce_redundancy(u)
    _write(args.output, reduced.to_json())
    return {"signals1": reduced.signals1_count, "signals2": reduced.signals2_count}, None


def _cmd_decompose(args) -> _Output:
    u = _load_structure(args.structure)
    decomposition = hi.ck_decompose(u)
    items = [
        {"weight": w, "structure": json.loads(s.to_json())}
        for w, s in decomposition.components
    ]
    _write(args.output, json.dumps(items))
    return {"components": len(items)}, None


def _cmd_dnzs(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"dnzs": hi.dnzs(u, v)}, None


def _cmd_feasible(args) -> _Output:
    budget = _resolve_budget(args)
    u = _load_structure(args.structure)
    g = _load_bimatrix(args.game)
    polygon = po.feasible_set(u, g, budget)
    _write(args.output, json.dumps({"vertices": polygon.vertices.tolist()}))
    return {"vertices": len(polygon.vertices)}, None


def _cmd_verify_bound(args) -> _Output:
    budget = _resolve_budget(args)
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    g = _load_bimatrix(args.game)
    report = po.verify_feasible_bound(u, v, g, args.case, budget)
    payload = {
        "case": report.case,
        "distance": report.distance,
        "hausdorff": report.hausdorff,
        "multiplier": report.multiplier,
        "passed": report.passed,
    }
    return payload, None


_CATALOG_NAMES = (
    "u1",
    "u2",
    "u2prime",
    "no-info",
    "common-knowledge",
    "ladder",
    "email",
    "blackwell",
    "approx-knowledge",
    "opponent_correlation",
    "f4-xor",
    "signal_quality",
    "split_secret",
)

# CLI name -> ``counterexample_pairs()`` fixture.
_FIXTURES = {
    "opponent_correlation": "opponent_correlation",
    "f4-xor": "xor_state",
    "signal_quality": "signal_quality",
    "split_secret": "split_secret",
}


# catalog's builder options, as argparse reads them.
_BUILDER_ARGS = {
    "n": {"type": int},
    "m": {"type": int},
    "p": {"type": float, "action": "append"},
    "r": {"type": float},
    "eps": {"type": float},
    "prior": {"type": float},
    "truncation": {"type": int},
    "states": {"type": float, "nargs": "+"},
}

# The builder options each catalog name reads, with their defaults; a name
# not listed reads none.
_BUILDER_OPTIONS = {
    "no-info": {"states": [0.5, 0.5]},
    "common-knowledge": {"states": [0.5, 0.5]},
    "ladder": {"n": 1},
    "email": {"eps": 0.05, "prior": 0.5, "truncation": 12},
    "blackwell": {"n": 1, "m": 0, "p": [0.75], "r": 0.75},
    "approx-knowledge": {"eps": 0.05},
}


def _builder_options(args) -> argparse.Namespace:
    """The named builder's options, defaults filled in; an option it does
    not read is a usage error."""
    reads = _BUILDER_OPTIONS.get(args.name, {})
    given = {opt: getattr(args, opt) for opt in _BUILDER_ARGS if getattr(args, opt) is not None}
    stray = [f"--{opt}" for opt in given if opt not in reads]
    if stray:
        raise _UsageError(f"{args.name} does not read {', '.join(stray)}")
    return argparse.Namespace(**{**reads, **given})


def _catalog_members(args) -> dict[str, st.InformationStructure]:
    """The named structure as {member: structure}; a single structure is
    member "u"."""
    name = args.name
    opts = _builder_options(args)
    if name in ("u1", "u2", "u2prime"):
        return {"u": cat.canonical_examples()[name]}
    if name == "no-info":
        return {"u": cat.no_information(opts.states)}
    if name == "common-knowledge":
        return {"u": cat.common_knowledge(opts.states)}
    if name == "ladder":
        return {"u": cat.ladder_structure(opts.n)}
    if name == "email":
        return {"u": cat.email_game(opts.eps, opts.prior, opts.truncation)}
    if name == "blackwell":
        return {"u": cat.blackwell_structure(cat.BlackwellSpec(opts.n, opts.m, opts.p[0], opts.r))}
    if name == "approx-knowledge":
        pair = cat.approx_knowledge_pair(opts.eps)
        return {"u": pair.u, "v": pair.v}
    return cat.counterexample_pairs()[_FIXTURES[name]]


def _cmd_catalog(args) -> _Output:
    members = _catalog_members(args)
    which = args.which or "u"
    if which not in members:
        raise _UsageError(f"{args.name} has no member {which!r}; it has {', '.join(members)}")
    structure = members[which]
    _write(args.output, structure.to_json())
    return {"states": structure.state_count, "signals1": structure.signals1_count, "signals2": structure.signals2_count}, None


def _cmd_blackwell_table(args) -> _Output:
    ps = args.p or [0.6, 0.75, 0.9]
    headers = ["p", "n", "l", "d1_closed_form"] + (["d1_lp"] if args.lp else [])
    rows = []
    for p in ps:
        for n in range(1, args.nmax + 1):
            for l in range(0, n):
                row = [p, n, l, cat.blackwell_d1_closed_form(n, l, p)]
                if args.lp:
                    un = cat.blackwell_structure(cat.BlackwellSpec(n, 0, p, p))
                    ul = cat.blackwell_structure(cat.BlackwellSpec(l, 0, p, p))
                    row.append(dist.single_agent_distance(un, ul))
                rows.append(row)
    return {"rows": len(rows)}, (headers, rows)


def _cmd_repro_canonical_examples(args) -> _Output:
    structures = cat.canonical_examples()
    rows = [
        ["d(u1,u2)", dist.value_distance(structures["u1"], structures["u2"]), 0.5],
        ["d(u1,u2prime)", dist.value_distance(structures["u1"], structures["u2prime"]), 1.0],
    ]
    return {r[0]: r[1] for r in rows}, (["quantity", "value", "expected"], rows)


def _markov_matrix(args) -> tuple[mk.MixingMatrix, int]:
    seed = _resolve_seed(args)
    return mk.sample_S(args.N, seed), seed


def _cmd_markov_sample(args) -> _Output:
    matrix, seed = _markov_matrix(args)
    rows = [sorted(int(b) for b in matrix.successors(a)) for a in range(1, matrix.N + 1)]
    _write(args.output, json.dumps({"N": matrix.N, "seed": seed, "rows": rows}))
    return {"N": matrix.N, "seed": seed}, None


def _cmd_markov_check_e(args) -> _Output:
    matrix, seed = _markov_matrix(args)
    report = mk.concentration_report(matrix, args.alpha, args.tuples, seed)
    payload = {
        "N": report.n,
        "alpha": report.alpha,
        "tuples": report.n_tuples,
        "exhaustive": report.exhaustive,
        "all_pass_fraction": report.all_pass_fraction,
    }
    payload.update({f"pass[{k}]": v for k, v in report.condition_pass_fraction.items()})
    table = (
        ["condition", "pass_fraction"],
        [[k, v] for k, v in report.condition_pass_fraction.items()]
        + [["all", report.all_pass_fraction]],
    )
    return payload, table


def _cmd_markov_check_ui(args) -> _Output:
    matrix, seed = _markov_matrix(args)
    world = mk.MarkovWorld(matrix, alpha=args.alpha)
    report = mk.check_mixing(world, args.level, args.tuples, seed)
    rows = [[c.name, c.n_checked, c.n_pass, c.worst_deviation] for c in report.conditions]
    payload = {
        "N": report.n,
        "l": report.l,
        "vacuous": report.vacuous,
        "all_pass": report.all_pass,
        "worst_deviation": report.worst_deviation,
    }
    return payload, (["condition", "checked", "passed", "worst_dev"], rows)


def _cmd_markov_games(args) -> _Output:
    budget = _resolve_budget(args)
    matrix, _ = _markov_matrix(args)
    world = mk.MarkovWorld(matrix, alpha=args.alpha)
    u = mk.chain_structure(world, args.level, budget)
    g = mk.revelation_game(world, args.p, budget)
    guarantees = mk.truthful_guarantee(world, args.level, args.p, budget)
    payload = {
        "value": gm.value(u, g).value,
        "truthful_lower": guarantees.lower,
        "truthful_upper": guarantees.upper,
        "epsilon": world.epsilon,
    }
    return payload, None


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < 1e-2:
        raise argparse.ArgumentTypeError(f"tolerance must lie in (0, 1e-2), got {text!r}")
    return value


def _add_format(sp):
    sp.add_argument("--format", choices=_FORMATS, default="text")


def _add_budget(sp):
    sp.add_argument("--budget", type=_int_at_least(1, "budget"), default=None, help=f"enumeration budget (default {BUDGET_ENV_VAR} or 10^6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodist",
        description="Value-based distance between information structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("value", help="value of a zero-sum Bayesian game")
    sp.add_argument("structure")
    sp.add_argument("game")
    sp.add_argument("--strategies", action="store_true")
    _add_format(sp)
    sp.set_defaults(func=_cmd_value)

    sp = sub.add_parser("distance", help="value-based distance")
    sp.add_argument("u")
    sp.add_argument("v")
    _add_format(sp)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("compare", help="comparison order with certificates")
    sp.add_argument("u")
    sp.add_argument("v")
    _add_format(sp)
    sp.add_argument("--tolerance", type=_tolerance, default=1e-6, help="comparison tolerance in (0, 1e-2) (default 1e-6)")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("witness", help="extract a gap-achieving payoff function")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("-o", "--output", default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("d1", help="single-agent distance")
    sp.add_argument("u")
    sp.add_argument("v")
    _add_format(sp)
    sp.set_defaults(func=_cmd_d1)

    sp = sub.add_parser("diameter", help="distance bounds from state marginals")
    sp.add_argument("p")
    sp.add_argument("q")
    _add_format(sp)
    sp.set_defaults(func=_cmd_diameter)

    sp = sub.add_parser("dw", help="pointwise metric over a game list")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("games", nargs="+")
    _add_format(sp)
    sp.set_defaults(func=_cmd_dw)

    sp = sub.add_parser("reduce", help="merge hierarchy-equivalent signals")
    sp.add_argument("structure")
    sp.add_argument("-o", "--output", default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("decompose", help="common-knowledge decomposition")
    sp.add_argument("structure")
    sp.add_argument("-o", "--output", default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("dnzs", help="nonzero-sum payoff-set distance")
    sp.add_argument("u")
    sp.add_argument("v")
    _add_format(sp)
    sp.set_defaults(func=_cmd_dnzs)

    sp = sub.add_parser("feasible", help="feasible payoff polygon")
    sp.add_argument("structure")
    sp.add_argument("game")
    sp.add_argument("-o", "--output", default=None)
    _add_format(sp)
    _add_budget(sp)
    sp.set_defaults(func=_cmd_feasible)

    sp = sub.add_parser("verify-bound", help="feasible-set distance bounds")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("game")
    sp.add_argument("--case", choices=("cond_indep", "public", "one_sided"), required=True)
    _add_format(sp)
    _add_budget(sp)
    sp.set_defaults(func=_cmd_verify_bound)

    sp = sub.add_parser("catalog", help="generate a named example structure")
    sp.add_argument("name", choices=_CATALOG_NAMES)
    for opt, kwargs in _BUILDER_ARGS.items():  # each name reads its own (_BUILDER_OPTIONS)
        sp.add_argument(f"--{opt}", **kwargs)
    sp.add_argument("--which", default=None, help="u (default), v, u_prime or v_prime for paired fixtures")
    sp.add_argument("-o", "--output", default=None)
    _add_format(sp)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("blackwell-table", help="closed-form d1 table as CSV")
    sp.add_argument("--p", type=float, action="append", default=None)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--lp", action="store_true", help="add the LP-computed column")
    _add_format(sp)
    sp.set_defaults(func=_cmd_blackwell_table)

    sp = sub.add_parser("repro-appendix-f", help="reproduce the distance table")
    _add_format(sp)
    sp.set_defaults(func=_cmd_repro_canonical_examples)

    sp = sub.add_parser("markov", help="large-space construction")
    msub = sp.add_subparsers(dest="markov_command", required=True)
    markov_commands = {
        "sample": _cmd_markov_sample,
        "check-e": _cmd_markov_check_e,
        "check-ui": _cmd_markov_check_ui,
        "games": _cmd_markov_games,
    }
    for name, func in markov_commands.items():
        ms = msub.add_parser(name)
        ms.add_argument("-N", "--N", dest="N", type=int, required=True)
        ms.add_argument("--seed", type=_int_at_least(0, "seed"), default=None)
        if name == "sample":
            ms.add_argument("-o", "--output", default=None)
        else:
            ms.add_argument("--alpha", type=float, default=mk.DEFAULT_ALPHA)
        if name in ("check-e", "check-ui"):
            ms.add_argument("--tuples", type=_int_at_least(1, "tuples"), default=100_000)
        if name in ("check-ui", "games"):
            ms.add_argument("-l", "--level", type=int, required=True)
        if name == "games":
            ms.add_argument("-p", type=int, required=True)
        _add_format(ms)
        if name == "games":
            _add_budget(ms)
        ms.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # blackwell-table's text output is its CSV table.
    fmt = "csv" if args.func is _cmd_blackwell_table and args.format == "text" else args.format
    try:
        payload, table = args.func(args)
        _emit(fmt, payload, table)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except InfoDistError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
