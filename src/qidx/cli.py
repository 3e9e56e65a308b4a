"""Command-line front end.

Subcommands (the table ``_COMMANDS``): expand, verify, verify-all,
count-reps, list. One loop reads a command line against that table: an
option is ``--name value`` or ``--name=value``, a unique prefix names it,
options may come before or after the positionals and the last repeat wins.
``--`` ends the options, and any other token that does not start with
``--`` (``-h`` aside) is a positional, so an expression may start with a
minus. ``-h``/``--help`` prints the table's help on stdout.

Exit codes: 0 success / all equal; 1 at least one mismatch; 2 usage, parse,
constraint or any other error, reported on stderr as ``error: ...``.
`--json` switches machine-readable reports onto stdout; diagnostics always
go to stderr. QIDX_SEED in the environment overrides --seed.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import List, Optional

from .errors import ExprSyntaxError, QidxError
from .exprs import MAX_ORDER, eval_expr, parse_expr, parse_spec_string
from .identities import (
    CheckReport,
    ParamAssignment,
    check_identity,
    get_descriptor,
    list_identities,
    run_suite,
    suite_ok,
)
from .numtheory import predicted_rep_count, rep_count, signed_divisor_sum


class UsageError(QidxError):
    """A problem with the command line itself (reported on stderr, exit 2)."""


def _assignment_for(ident: str, base: Optional[int], spec_text: str) -> ParamAssignment:
    try:
        desc = get_descriptor(ident)
    except KeyError:
        known = ", ".join(row["identity"] for row in list_identities())
        raise UsageError(f"unknown identity {ident!r} (known: {known})") from None
    params = parse_spec_string(spec_text)
    required = set(desc.params)
    given = set(params)
    if given - required:
        extra = ", ".join(sorted(given - required))
        raise UsageError(
            f"identity {ident} does not take parameter(s): {extra}"
            + (f" (takes {', '.join(desc.params)})" if desc.params else " (takes none)")
        )
    if required - given:
        missing = ", ".join(n for n in desc.params if n not in given)
        raise UsageError(f"identity {ident} needs --spec values for: {missing}")
    if base is None:
        if desc.fixed_base is not None:
            base = desc.fixed_base
        else:
            raise UsageError(f"identity {ident} needs --base")
    return ParamAssignment(base, params)


def _check_range(flag: str, value: int, lo: int, hi: Optional[int] = MAX_ORDER) -> None:
    if value < lo:
        raise UsageError(f"{flag} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise UsageError(f"{flag} must be at most {hi}, got {value}")


def _report_line(r: CheckReport) -> str:
    spec = r.spec if r.spec else "-"
    head = f"{r.identity:<10} base={r.base:<3} order={r.order_requested:<4} spec={spec}"
    if r.status == "equal":
        return f"[ ok ] {head}"
    if r.status == "mismatch":
        fm = r.first_mismatch
        return (
            f"[FAIL] {head}  first mismatch at q^{fm[0]}: "
            f"lhs={fm[1]} rhs={fm[2]}"
        )
    detail = f": {r.detail}" if r.detail else ""
    return f"[ -- ] {head}  constraint-violation{detail}"


def _print_json(obj) -> None:
    import json  # only the --json branches need it

    print(json.dumps(obj, indent=2))


def _print_reports(reports: List[CheckReport], as_json: bool) -> None:
    if as_json:
        _print_json([r.to_json_dict() for r in reports])
        return
    for r in reports:
        print(_report_line(r))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_expand(args) -> int:
    _check_range("--order", args.order, 0)
    assign = ParamAssignment(args.base, parse_spec_string(args.spec))
    ast = parse_expr(args.expr)
    series = eval_expr(ast, assign, args.order)
    print(series)
    return 0


def _cmd_verify(args) -> int:
    _check_range("--order", args.order, 0)
    assign = _assignment_for(args.identity, args.base, args.spec)
    report = check_identity(args.identity, assign, args.order)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print(_report_line(report))
    if report.status == "equal":
        return 0
    if report.status == "mismatch":
        return 1
    print(f"error: {report.detail or 'constraint violated'}", file=sys.stderr)
    return 2


def _cmd_verify_all(args) -> int:
    _check_range("--order", args.order, 0)
    _check_range("--trials", args.trials, 0, None)
    seed = os.environ.get("QIDX_SEED", args.seed)
    reports = run_suite(order=args.order, trials=args.trials, seed=seed)
    ok = suite_ok(reports)
    _print_reports(reports, args.json)
    if not args.json:
        n_eq = sum(1 for r in reports if r.status == "equal")
        n_mm = sum(1 for r in reports if r.status == "mismatch")
        n_cv = len(reports) - n_eq - n_mm
        print(
            f"{len(reports)} checks: {n_eq} equal, {n_mm} mismatched, "
            f"{n_cv} skipped; suite {'ok' if ok else 'FAILED'}"
        )
    return 0 if ok else 1


def _cmd_count_reps(args) -> int:
    _check_range("--max", args.max, 1)
    rows = []
    for n in range(1, args.max + 1):
        reps = rep_count(n)
        pred = predicted_rep_count(n)
        rows.append(
            {
                "n": n,
                "rep_count": reps,
                "divisor_sum": signed_divisor_sum(n),
                "predicted": pred,
                "match": reps == pred,
            }
        )
    if args.json:
        _print_json(rows)
    else:
        print(f"{'N':>5} {'reps':>6} {'divsum':>7} {'predicted':>10} match")
        for row in rows:
            print(
                f"{row['n']:>5} {row['rep_count']:>6} {row['divisor_sum']:>7} "
                f"{row['predicted']:>10} {str(row['match']).lower()}"
            )
    return 0 if all(row["match"] for row in rows) else 1


def _cmd_list(args) -> int:
    rows = list_identities()
    if args.json:
        _print_json(rows)
        return 0
    for row in rows:
        params = ",".join(row["params"]) if row["params"] else "-"
        base = row["base"] if row["base"] is not None else "any"
        print(f"{row['identity']:<10} params={params:<10} base={base:<4} {row['constraints']}")
    return 0


# ---------------------------------------------------------------------------
# the command table and its reader

_JSON = (bool, False, "machine-readable output")
_HELP = ("-h", "--help")

# command -> (handler, {positional: help}, {option: (type, default, help)}, help line);
# an option of type bool is a flag, which takes no value
_COMMANDS = {
    "expand": (_cmd_expand, {"expr": "expression, e.g. 'poch(q)*theta(-q)'"}, {
        "base": (int, 1, "base scale m in q^m (default 1)"),
        "order": (int, 20, "truncation order (default 20)"),
        "spec": (str, "", "parameter values, e.g. 'b=q^2,c=~q^1'"),
    }, "evaluate an expression and print the series"),
    "verify": (_cmd_verify, {"identity": "registry id, e.g. 1.3"}, {
        "base": (int, None, "base scale m"),
        "spec": (str, "", "parameter values, e.g. 'a=-q^1,b=-q^2'"),
        "order": (int, 100, "truncation order (default 100)"),
        "json": _JSON,
    }, "check one identity under one assignment"),
    "verify-all": (_cmd_verify_all, {}, {
        "order": (int, 100, "truncation order (default 100)"),
        "trials": (int, 25, "random specs per identity (default 25)"),
        "seed": (str, "0", "seed for randomized specs (default 0)"),
        "json": _JSON,
    }, "run the full verification suite"),
    "count-reps": (_cmd_count_reps, {}, {
        "max": (int, 20, "largest N to tabulate (default 20)"),
        "json": _JSON,
    }, "representation-count table"),
    "list": (_cmd_list, {}, {"json": _JSON}, "print the identity registry"),
}


def _cmd_help(args) -> int:
    """Print the commands, or the arguments of one command, from _COMMANDS."""
    if args.command is None:
        print("usage: qidx <command> [options]", "commands:", sep="\n\n")
        rows = [(name, row[3]) for name, row in _COMMANDS.items()]
    else:
        _, positionals, options, about = _COMMANDS[args.command]
        usage = " ".join(["usage: qidx", args.command, *positionals, "[options]"])
        print(usage, about, "arguments:", sep="\n\n")
        rows = list(positionals.items())
        for name, (kind, _, text) in options.items():
            rows.append((f"--{name}" if kind is bool else f"--{name} {name.upper()}", text))
    for left, text in rows + [("-h, --help", "show this help and exit")]:
        print(f"  {left:<18}{text}")
    return 0


def _read(argv: List[str]):
    """The handler and the values of one command line, read against _COMMANDS."""
    command = argv[0] if argv else None
    if command in _HELP:
        return _cmd_help, SimpleNamespace(command=None)
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if argv else "a command is required"
        raise UsageError(f"{what} (one of {', '.join(_COMMANDS)})")
    fn, positionals, options, _ = _COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return _cmd_help, SimpleNamespace(command=command)
        if token == "--" or not token.startswith("--"):
            given += tokens if token == "--" else [token]  # "--": the rest are positionals
            continue
        flag, eq, value = token[2:].partition("=")
        matches = [name for name in options if flag and name.startswith(flag)]
        if len(matches) != 1:
            raise UsageError(f"{'ambiguous' if matches else 'unknown'} option '--{flag}'")
        name, kind = matches[0], options[matches[0]][0]
        if kind is bool and eq:
            raise UsageError(f"--{name} takes no value")
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"--{name} needs a value")
        try:
            values[name] = True if kind is bool else kind(value)
        except ValueError:
            raise UsageError(f"--{name} needs an integer, got {value!r}") from None
    names = list(positionals)
    if len(given) > len(names):
        raise UsageError(f"unexpected argument {given[len(names)]!r}")
    if len(given) < len(names):
        raise UsageError(f"missing argument {names[len(given)]!r}")
    return fn, SimpleNamespace(**values, **dict(zip(names, given)))


def main(argv: Optional[List[str]] = None) -> int:
    try:
        fn, args = _read(sys.argv[1:] if argv is None else argv)
        return fn(args)
    except ExprSyntaxError as exc:
        where = f" at offset {exc.position}" if exc.position >= 0 else ""
        print(f"error: syntax error{where}: {exc}", file=sys.stderr)
        return 2
    except QidxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a mismatch; anything else that goes wrong is exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
