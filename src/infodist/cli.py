"""Command-line surface: file I/O, experiment runners, table emitters.

Each command is declared once, beside its handler: ``@_command`` registers
its name, help text and arguments, and ``build_parser`` builds the parser
from that registry.  A name with a space, such as "markov sample", is a
command of the nested ``markov`` group.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  Randomized commands take --seed; omitting it falls back to
seed 0 with a printed notice so runs stay reproducible by default.  A
command that writes a document (witness, reduce, decompose, feasible,
catalog, markov sample) writes it to -o, else to stdout; in that case its
summary goes to stderr, so stdout holds only the document.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from collections.abc import Callable

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
_Arg = tuple[tuple[str, ...], dict]  # one add_argument call: flags, keyword arguments


class _UsageError(Exception):
    """Arguments that parse but do not fit together: exit code 2."""


def _fmt_num(x) -> str:
    return "%.12g" % float(x)


def _emit(fmt: str, payload: dict, table: _Table | None, out):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    if fmt == "text" and table is None:
        if len(payload) == 1:
            print(_format_value(next(iter(payload.values()))), file=out)
        else:
            for key, value in payload.items():
                print(f"{key}: {_format_value(value)}", file=out)
        return
    # A table; csv without one prints the payload as a one-row table.
    headers, rows = table if table is not None else (list(payload), [list(payload.values())])
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    for row in [headers] + cells:
        print("  ".join(row), file=out)


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


def _resolve_budget(args) -> int:
    """--budget, else INFODIST_BUDGET, else 10^6; a bad variable is a usage error."""
    if args.budget is not None:
        return args.budget
    try:
        return default_budget()
    except InvalidParameters as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# The command registry and the arguments commands share.
# ---------------------------------------------------------------------------

# Command name -> (help, arguments, handler), in registration order.
_COMMANDS: dict[str, tuple[str, tuple[_Arg, ...], Callable[[argparse.Namespace], _Output]]] = {}

# Help text of each command group.
_GROUPS = {"markov": "large-space construction"}


def _command(name: str, help: str, *args: _Arg):
    """Register the decorated handler as command ``name`` ("group command"
    inside a group), with its help and arguments; each command also takes
    --format.  The handler returns its payload and, for tabular output, its
    table; main() emits them."""

    def register(func):
        _COMMANDS[name] = (help, args, func)
        return func

    return register


def _arg(*flags: str, **kwargs) -> _Arg:
    return flags, kwargs


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


_U, _V = _arg("u"), _arg("v")
_STRUCTURE, _GAME = _arg("structure"), _arg("game")
_OUTPUT = _arg("-o", "--output", default=None)
_FORMAT = _arg("--format", choices=_FORMATS, default="text")
_BUDGET = _arg("--budget", type=_int_at_least(1, "budget"), default=None,
               help=f"enumeration budget (default {BUDGET_ENV_VAR} or 10^6)")
_MATRIX = (  # every markov command samples S from -N and --seed
    _arg("-N", "--N", dest="N", type=int, required=True),
    _arg("--seed", type=_int_at_least(0, "seed"), default=None),
)
_ALPHA = _arg("--alpha", type=float, default=mk.DEFAULT_ALPHA)
_TUPLES = _arg("--tuples", type=_int_at_least(1, "tuples"), default=100_000)
_LEVEL = _arg("-l", "--level", type=int, required=True)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


@_command("value", "value of a zero-sum Bayesian game", _STRUCTURE, _GAME, _arg("--strategies", action="store_true"))
def _cmd_value(args) -> _Output:
    u = _load_structure(args.structure)
    g = _load_game(args.game)
    result = gm.value(u, g)
    payload = {"value": result.value}
    if args.strategies:
        payload["strategy1"] = result.strategy1.rows.tolist()
        payload["strategy2"] = result.strategy2.rows.tolist()
    return payload, None


@_command("distance", "value-based distance", _U, _V)
def _cmd_distance(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"distance": dist.value_distance(u, v)}, None


# (v gains nothing over u, u gains nothing over v) -> the order of u and v.
_RELATIONS = {
    (True, True): "equivalent", (True, False): "u>=v", (False, True): "v>=u", (False, False): "incomparable"
}


@_command(
    "compare", "comparison order with certificates", _U, _V,
    _arg("--tolerance", type=_tolerance, default=1e-6, help="comparison tolerance in (0, 1e-2) (default 1e-6)"),
)
def _cmd_compare(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    # Solves both directions as one pair; the gaps then come from the memo.
    dist.value_distance(u, v)
    gap_vu = dist.one_sided_gap(u, v).gap  # sup_g val(v,g) - val(u,g)
    gap_uv = dist.one_sided_gap(v, u).gap
    relation = _RELATIONS[gap_vu <= args.tolerance, gap_uv <= args.tolerance]
    return {"relation": relation, "gain_moving_to_v": gap_vu, "gain_moving_to_u": gap_uv}, None


@_command("witness", "extract a gap-achieving payoff function", _U, _V, _OUTPUT)
def _cmd_witness(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    game = dist.witness_game(u, v)
    _write(args.output, game.to_json())
    # witness_game has bracketed the game's gap within WITNESS_TOL of this one.
    return {"gap": dist.one_sided_gap(u, v).gap}, None


@_command("d1", "single-agent distance", _U, _V)
def _cmd_d1(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"d1": dist.single_agent_distance(u, v)}, None


@_command("diameter", "distance bounds from state marginals", _arg("p"), _arg("q"))
def _cmd_diameter(args) -> _Output:
    p = _load_state_vector(args.p)
    q = _load_state_vector(args.q)
    return dataclasses.asdict(dist.diameter_bounds(p, q)), None


@_command("dw", "pointwise metric over a game list", _U, _V, _arg("games", nargs="+"))
def _cmd_dw(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    games = [_load_game(path) for path in args.games]
    return {"dw": dist.dw(u, v, games)}, None


@_command("reduce", "merge hierarchy-equivalent signals", _STRUCTURE, _OUTPUT)
def _cmd_reduce(args) -> _Output:
    u = _load_structure(args.structure)
    reduced = hi.reduce_redundancy(u)
    _write(args.output, reduced.to_json())
    return {"signals1": reduced.signals1_count, "signals2": reduced.signals2_count}, None


@_command("decompose", "common-knowledge decomposition", _STRUCTURE, _OUTPUT)
def _cmd_decompose(args) -> _Output:
    u = _load_structure(args.structure)
    decomposition = hi.ck_decompose(u)
    items = [
        {"weight": w, "structure": json.loads(s.to_json())}
        for w, s in decomposition.components
    ]
    _write(args.output, json.dumps(items))
    return {"components": len(items)}, None


@_command("dnzs", "nonzero-sum payoff-set distance", _U, _V)
def _cmd_dnzs(args) -> _Output:
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    return {"dnzs": hi.dnzs(u, v)}, None


@_command("feasible", "feasible payoff polygon", _STRUCTURE, _GAME, _OUTPUT, _BUDGET)
def _cmd_feasible(args) -> _Output:
    budget = _resolve_budget(args)
    u = _load_structure(args.structure)
    g = _load_bimatrix(args.game)
    polygon = po.feasible_set(u, g, budget)
    _write(args.output, json.dumps({"vertices": polygon.vertices.tolist()}))
    return {"vertices": len(polygon.vertices)}, None


@_command(
    "verify-bound", "feasible-set distance bounds", _U, _V, _GAME,
    _arg("--case", choices=("cond_indep", "public", "one_sided"), required=True), _BUDGET,
)
def _cmd_verify_bound(args) -> _Output:
    budget = _resolve_budget(args)
    u = _load_structure(args.u)
    v = _load_structure(args.v)
    g = _load_bimatrix(args.game)
    report = po.verify_feasible_bound(u, v, g, args.case, budget)
    return dataclasses.asdict(report), None


def _approx_knowledge(eps: float) -> dict[str, st.InformationStructure]:
    pair = cat.approx_knowledge_pair(eps)
    return {"u": pair.u, "v": pair.v}


# Catalog name -> (the builder options it reads, with their defaults; the
# function from those options to the structure, or to a paired fixture's
# {member: structure}).
_CATALOG = {
    "u1": ({}, lambda: cat.canonical_examples()["u1"]),
    "u2": ({}, lambda: cat.canonical_examples()["u2"]),
    "u2prime": ({}, lambda: cat.canonical_examples()["u2prime"]),
    "no-info": ({"states": [0.5, 0.5]}, lambda states: cat.no_information(states)),
    "common-knowledge": ({"states": [0.5, 0.5]}, lambda states: cat.common_knowledge(states)),
    "ladder": ({"n": 1}, lambda n: cat.ladder_structure(n)),
    "email": ({"eps": 0.05, "prior": 0.5, "truncation": 12},
              lambda eps, prior, truncation: cat.email_game(eps, prior, truncation)),
    "blackwell": ({"n": 1, "m": 0, "p": 0.75, "r": 0.75},
                  lambda n, m, p, r: cat.blackwell_structure(cat.BlackwellSpec(n, m, p, r))),
    "approx-knowledge": ({"eps": 0.05}, _approx_knowledge),
    "opponent_correlation": ({}, lambda: cat.counterexample_pairs()["opponent_correlation"]),
    "f4-xor": ({}, lambda: cat.counterexample_pairs()["xor_state"]),
    "signal_quality": ({}, lambda: cat.counterexample_pairs()["signal_quality"]),
    "split_secret": ({}, lambda: cat.counterexample_pairs()["split_secret"]),
}
_CATALOG_NAMES = tuple(_CATALOG)

# catalog's builder options, as argparse reads them.
_BUILDER_ARGS = {
    "n": {"type": int},
    "m": {"type": int},
    "p": {"type": float},
    "r": {"type": float},
    "eps": {"type": float},
    "prior": {"type": float},
    "truncation": {"type": int},
    "states": {"type": float, "nargs": "+"},
}


def _catalog_members(args) -> dict[str, st.InformationStructure]:
    """The named entry as {member: structure}, a single structure as member
    "u"; an option its builder does not read is a usage error."""
    reads, build = _CATALOG[args.name]
    given = {opt: getattr(args, opt) for opt in _BUILDER_ARGS if getattr(args, opt) is not None}
    stray = [f"--{opt}" for opt in given if opt not in reads]
    if stray:
        raise _UsageError(f"{args.name} does not read {', '.join(stray)}")
    built = build(**{**reads, **given})
    return built if isinstance(built, dict) else {"u": built}


@_command(
    "catalog", "generate a named example structure",
    _arg("name", choices=_CATALOG_NAMES),
    *(_arg(f"--{opt}", **kwargs) for opt, kwargs in _BUILDER_ARGS.items()),
    _arg("--which", default=None, help="u (default), v, u_prime or v_prime for paired fixtures"),
    _OUTPUT,
)
def _cmd_catalog(args) -> _Output:
    members = _catalog_members(args)
    which = args.which or "u"
    if which not in members:
        raise _UsageError(f"{args.name} has no member {which!r}; it has {', '.join(members)}")
    structure = members[which]
    _write(args.output, structure.to_json())
    return {"states": structure.state_count, "signals1": structure.signals1_count, "signals2": structure.signals2_count}, None


@_command(
    "blackwell-table", "closed-form d1 table as CSV",
    _arg("--p", type=float, action="append", default=None),
    _arg("--nmax", type=_int_at_least(1, "nmax"), default=4),
    _arg("--lp", action="store_true", help="add the LP-computed column"),
)
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


@_command("repro-appendix-f", "reproduce the distance table")
def _cmd_repro_canonical_examples(args) -> _Output:
    structures = cat.canonical_examples()
    rows = [
        ["d(u1,u2)", dist.value_distance(structures["u1"], structures["u2"]), 0.5],
        ["d(u1,u2prime)", dist.value_distance(structures["u1"], structures["u2prime"]), 1.0],
    ]
    return {r[0]: r[1] for r in rows}, (["quantity", "value", "expected"], rows)


def _markov_matrix(args) -> tuple[mk.MixingMatrix, int]:
    """S for -N and --seed, and the seed: 0, with a notice, if none is given."""
    seed = args.seed
    if seed is None:
        print("no --seed given; defaulting to seed 0", file=sys.stderr)
        seed = 0
    return mk.sample_S(args.N, seed), seed


@_command("markov sample", "sample a mixing matrix", *_MATRIX, _OUTPUT)
def _cmd_markov_sample(args) -> _Output:
    matrix, seed = _markov_matrix(args)
    rows = [matrix.successors(a).tolist() for a in range(1, matrix.N + 1)]
    _write(args.output, json.dumps({"N": matrix.N, "seed": seed, "rows": rows}))
    return {"N": matrix.N, "seed": seed}, None


@_command("markov check-e", "concentration of the E statistics", *_MATRIX, _ALPHA, _TUPLES)
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


@_command("markov check-ui", "truth-telling mixing conditions", *_MATRIX, _ALPHA, _TUPLES, _LEVEL)
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


@_command(
    "markov games", "chain game value and truthful guarantees",
    *_MATRIX, _ALPHA, _LEVEL, _arg("-p", type=int, required=True), _BUDGET,
)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodist",
        description="Value-based distance between information structures",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help, args, func) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            sp = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = sp.add_subparsers(dest=f"{group}_command", required=True)
        sp = subparsers[group].add_parser(leaf, help=help)
        for flags, kwargs in args + (_FORMAT,):
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func, prog=sp.prog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # blackwell-table's text output is its CSV table.
    fmt = "csv" if args.func is _cmd_blackwell_table and args.format == "text" else args.format
    # Without -o a document goes to stdout, so the summary goes to stderr.
    out = sys.stderr if vars(args).get("output", "") is None else sys.stdout
    try:
        payload, table = args.func(args)
        _emit(fmt, payload, table, out)
    except _UsageError as exc:
        print(f"{args.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (InfoDistError, OSError) as exc:
        error = type(exc).__name__ if isinstance(exc, InfoDistError) else "IOError"
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
