"""Expression-language and command-line behavior tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qidx import exprs
from qidx.cli import MAX_ORDER, main
from qidx.errors import (
    ArityError,
    ExprSyntaxError,
    UnboundParameterError,
    UnknownFunctionError,
)
from qidx.exprs import (
    Add,
    Call,
    Mul,
    Neg,
    Num,
    Pow,
    QPow,
    Ref,
    Sub,
    eval_expr,
    format_expr,
    parse_expr,
    parse_spec_string,
)
from qidx.identities import ParamAssignment

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one command line; ``SystemExit(n)``
    counts as exit code n."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_mul_of_poch_calls():
    ast = parse_expr("poch(q) * poch(-q)")
    assert isinstance(ast, Mul)
    assert ast.left == Call("poch", (QPow(1),))
    assert ast.right == Call("poch", (Neg(QPow(1)),))


def test_parse_sub_of_two_calls():
    ast = parse_expr("f(a,b) - l(b)")
    assert ast == Sub(Call("f", (Ref("a"), Ref("b"))), Call("l", (Ref("b"),)))


def test_parse_precedence_and_power():
    ast = parse_expr("1 + 2*q^3")
    assert ast == Add(Num(1), Mul(Num(2), QPow(3)))
    # power binds tighter than unary minus
    assert parse_expr("-q^2") == Neg(QPow(2))


def test_parse_decimal_digits_of_any_script():
    # str.isdecimal accepts exactly the digits int() reads
    assert parse_expr("q^\u0663") == QPow(3)
    assert parse_expr("\u0661\u0662") == Num(12)


def test_parse_parenthesized_power():
    ast = parse_expr("(1-q)^2")
    assert ast == Pow(Sub(Num(1), QPow(1)), 2)
    assert parse_expr("f(a,b)^-1") == Pow(Call("f", (Ref("a"), Ref("b"))), -1)


def test_unterminated_call_reports_offset_7():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("poch(q")
    assert info.value.position == 7


def test_syntax_error_positions():
    cases = [
        ("poch(q))", 8),  # trailing paren
        ("1 +", 4),  # missing operand
        ("q @ 2", 3),  # bad character
        ("", 1),  # empty input
        ("poch(q,)", 8),  # dangling comma
        ("q^\u00b2", 3),  # a superscript digit is not a decimal digit
    ]
    for text, pos in cases:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == pos, text


def test_unknown_function_and_arity():
    with pytest.raises(UnknownFunctionError):
        parse_expr("nosuch(q)")
    assign = ParamAssignment(5, {})
    with pytest.raises(ArityError):
        eval_expr(parse_expr("poch(q, q)"), assign, 10)
    with pytest.raises(ArityError):
        eval_expr(parse_expr("glam(1, q, 2, 0, 1)"), assign, 10)
    with pytest.raises(ArityError):
        # series where a monomial argument is required
        eval_expr(parse_expr("poch(phi())"), assign, 10)


ROUND_TRIP_CORPUS = [
    "q",
    "q^2",
    "q^-3",
    "17",
    "b",
    "-q",
    "-q^4 + 1",
    "1 + q",
    "1 - q",
    "1 - q - q^2",
    "2*q^3",
    "q*q^2*q^3",
    "(1 + q)*(1 - q)",
    "(1 - q)^2",
    "(1 - q)^-1",
    "1 - (q - q^2)",
    "-(1 - q)",
    "poch(q)",
    "poch(-q)",
    "poch(q^2)",
    "poch(b)",
    "poch(q)*poch(-q)",
    "poch(q) * poch(-q) * poch(q^2)",
    "pochn(q, 3)",
    "pochn(-q^2, 5)",
    "theta(q)",
    "theta(-q^2)",
    "theta(b)^2",
    "pf(-q^0)",
    "pf(z)",
    "f(a, b)",
    "f(a,b) - l(b)",
    "f(-q, -q^2)",
    "f(a, b)^3",
    "fa(a, b)",
    "fa(-q, q^2) + f(-q, q^2)",
    "l(b)",
    "l(b) - l(c)",
    "l(b)*l(c)",
    "l(b)^2 + l(c)^2",
    "(l(b) - l(c))^2",
    "glam(1, q, 2, 0, 1, 0)",
    "glam(b, c, 1, 1, 0, 1)",
    "glam(-q^2, -q, 2, 2, 2, 1)",
    "chilam(1, 1)",
    "chilam(1,1)*(1 + chilam(2,1))",
    "chilam(3, 2)",
    "phi()",
    "phi()^2",
    "2^-1*pf(-q^0)",
    "1 + l(a) + l(b) + l(c) - l(a*b*c)",
    "f(a, b*c)*(l(a) - l(a*b*c))",
    "poch(q)*theta(-q) - phi()",
    "q^2*f(a, b)",
    "-poch(q) + 1",
    "(f(a,b) - f(b,a))^2*q",
    "theta(q)*(1 - q)^-2",
]


def test_round_trip_corpus_size():
    assert len(ROUND_TRIP_CORPUS) >= 50


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_format_parse_round_trip(text):
    ast = parse_expr(text)
    printed = format_expr(ast)
    assert parse_expr(printed) == ast


def test_format_wraps_negation_inside_binary_ops():
    # a - (-b) must not print as "a - -b"
    ast = Sub(QPow(1), Neg(Ref("b")))
    printed = format_expr(ast)
    assert parse_expr(printed) == ast


# ---------------------------------------------------------------------------
# evaluation


def test_eval_phi_base_1():
    series = eval_expr(parse_expr("phi()"), ParamAssignment(1, {}), 4)
    assert [series.coeff(n) for n in range(5)] == [1, -2, 0, 0, 2]


def test_eval_l_at_q_squared():
    assign = ParamAssignment(5, parse_spec_string("b=q^2"))
    series = eval_expr(parse_expr("l(b)"), assign, 4)
    assert [series.coeff(n) for n in range(5)] == [0, 0, 1, -1, 1]


def test_eval_unbound_parameter():
    assign = ParamAssignment(5, parse_spec_string("b=q^2"))
    with pytest.raises(UnboundParameterError):
        eval_expr(parse_expr("f(a,b)"), assign, 10)


def test_eval_number_arithmetic_stays_exact():
    series = eval_expr(parse_expr("2^-1*pf(-q^0)"), ParamAssignment(3, {}), 6)
    half = eval_expr(parse_expr("pf(-q^0)"), ParamAssignment(3, {}), 6).scale(
        Fraction(1, 2)
    )
    ok, first = series.eq_upto(half, 6)
    assert ok, first


def test_eval_monomial_powers_and_negation():
    assign = ParamAssignment(7, parse_spec_string("b=-q^2"))
    # (-q^2)^3 = -q^6 fed through l() both ways
    lhs = eval_expr(parse_expr("l(b^3)"), assign, 30)
    rhs = eval_expr(
        parse_expr("l(c)"), ParamAssignment(7, parse_spec_string("c=-q^6")), 30
    )
    ok, first = lhs.eq_upto(rhs, 30)
    assert ok, first


def test_eval_series_power_negative_exponent():
    assign = ParamAssignment(1, {})
    series = eval_expr(parse_expr("(1 - q)^-2"), assign, 8)
    assert [series.coeff(n) for n in range(9)] == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_eval_symbolic_spec_round_trips_through_expr():
    assign = ParamAssignment(5, parse_spec_string("b=~q^1,c=~q^2"))
    lhs = eval_expr(parse_expr("f(b,c)"), assign, 12)
    rhs = eval_expr(parse_expr("f(c,b)"), assign, 12)
    ok, first = lhs.eq_upto(rhs, 12)
    assert ok, first


# ---------------------------------------------------------------------------
# spec strings


def test_spec_string_forms():
    params = parse_spec_string("a=-q^1,b=~q^2, c=q, z=+q^3")
    assert params["a"].unit.sign == -1 and params["a"].qexp == 1
    assert params["b"].unit.symbolic and params["b"].qexp == 2
    assert params["c"].unit.sign == 1 and params["c"].qexp == 1
    assert params["z"].qexp == 3
    assert parse_spec_string("") == {}
    assert parse_spec_string("b=q^-2")["b"].qexp == -2


SPEC_STRING_ERRORS = [
    ("x=q^2", "unknown parameter 'x' (expected one of a, b, c, d, z)", 1),
    ("b=q,b=q", "parameter 'b' assigned twice", 5),
    ("b=r", "expected 'q' in spec value, found 'r'", 3),
    ("b=2", "expected 'NAME' in spec string, found '2'", 3),
    ("b=-~q", "expected 'NAME' in spec string, found '~'", 4),
    ("b=q^", "expected 'NUMBER' in spec string, found 'end of input'", 5),
    ("b=q^--2", "expected 'NUMBER' in spec string, found '-'", 6),
    ("b=q^+2", "expected 'NUMBER' in spec string, found '+'", 5),
    ("b=q,", "expected 'NAME' in spec string, found 'end of input'", 5),
    (" a = q ^ - 3 , ,", "expected 'NAME' in spec string, found ','", 16),
    ("b=q^2 c=q", "expected ',' in spec string, found 'c'", 7),
    ("b=q^2x", "expected ',' in spec string, found 'x'", 6),
    ("b", "expected '=' in spec string, found 'end of input'", 2),
    ("b=$", "unexpected character '$'", 3),
    ("a=-q^\u00b9,b=-q^2,c=-q^4", "unexpected character '\u00b9'", 6),
]


def test_spec_string_rejects_garbage():
    for text, message, offset in SPEC_STRING_ERRORS:
        with pytest.raises(ExprSyntaxError) as info:
            parse_spec_string(text)
        assert (str(info.value), info.value.position) == (message, offset), text


def test_spec_string_matches_assignment_printing():
    text = "a=-q^1,b=q^2,c=~q^3"
    assign = ParamAssignment(7, parse_spec_string(text))
    assert assign.spec_string() == text


# ---------------------------------------------------------------------------
# the command line itself


def test_cli_expand_phi(capsys):
    code, out, _ = run_cli(capsys, "expand", "phi()", "--base", "1", "--order", "4")
    assert code == 0
    assert out.strip() == "1 - 2*q + 2*q^4 + O(q^5)"


def test_cli_expand_with_spec(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "l(b)", "--base", "5", "--order", "4", "--spec", "b=q^2"
    )
    assert code == 0
    assert out.strip() == "q^2 - q^3 + q^4 + O(q^5)"


def test_cli_expand_syntax_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "poch(q", "--base", "1")
    assert code == 2
    assert "offset 7" in err


def test_cli_expand_unbound_parameter_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "l(b)", "--base", "5")
    assert code == 2
    assert "not bound" in err


EXPAND_ERRORS = {
    "0^-1": "error: 0 raised to the negative power -1 at offset 4\n",
    # 2q^11 is unknown through q^10, not zero
    "(2*q^11)^-1": "error: cannot invert a series with no nonzero coefficient through q^10\n",
    "chilam(1, 3)": "error: denominator power must be 1 or 2\n",
    "glam(1, q, 0, 1, 3, 0)": "error: denominator power must be 1 or 2\n",
    # two bad arguments: the first in argument order is reported
    "glam(q + 1, q, q, 0, 1, 0)": (
        "error: glam numerator monomial must be a signed or symbolic monomial in q\n"
    ),
}


@pytest.mark.parametrize("expr", list(EXPAND_ERRORS))
def test_cli_expand_arithmetic_and_argument_errors_are_exit_2(capsys, expr):
    code, out, err = run_cli(capsys, "expand", expr, "--order", "10")
    assert code == 2
    assert out == ""
    assert err == EXPAND_ERRORS[expr]


@pytest.mark.parametrize("expr", ["l(q)", "f(q, q^2)", "glam(1, q, 0, 1, 1, 0)"])
def test_cli_expand_base_below_one_is_exit_2(capsys, expr):
    code, out, err = run_cli(capsys, "expand", expr, "--base", "0", "--order", "10")
    assert code == 2
    assert out == ""
    assert err == "error: base scale must be a positive integer\n"


@pytest.mark.parametrize("base", ["0", "-1"])
def test_cli_verify_base_below_one_is_a_constraint_violation(capsys, base):
    # 1.2's pole-unit rule reduces ord(z) mod the base; the base is checked first
    argv = ("verify", "1.2", "--base", base, "--spec", "z=-q^0", "--order", "5")
    message = "base scale must be a positive integer"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out.rstrip().endswith(f"constraint-violation: {message}")
    assert err == f"error: {message}\n"
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    row = json.loads(out)
    assert (row["base"], row["status"], row["detail"]) == (int(base), "constraint-violation", message)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "phi()", "--order", "-1"),
        ("verify", "1.3", "--base", "7", "--spec", "a=-q^1,b=-q^2,c=-q^4", "--order", "-1"),
        ("verify", "1.3", "--base", "7", "--spec", "a=-q^1,b=-q^2,c=-q^4", "--order", "-1", "--json"),
        ("verify-all", "--order", "-3", "--trials", "1"),
    ],
)
def test_cli_negative_order_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--order must be at least 0" in err


# ---------------------------------------------------------------------------
# the usage contract: how a command line is read


COMMAND_ARGUMENTS = {
    "expand": ["expr", "--base", "--order", "--spec"],
    "verify": ["identity", "--base", "--spec", "--order", "--json"],
    "verify-all": ["--order", "--trials", "--seed", "--json"],
    "count-reps": ["--max", "--json"],
    "list": ["--json"],
}

INT_OPTIONS = [
    (("expand", "q"), "--order"),
    (("expand", "q"), "--base"),
    (("verify", "1.3"), "--order"),
    (("verify", "1.3"), "--base"),
    (("verify-all",), "--order"),
    (("verify-all",), "--trials"),
    (("count-reps",), "--max"),
]

USAGE_ERRORS = [
    ((), ["command"]),
    (("bogus",), ["bogus"]),
    (("list", "--bogus"), ["--bogus"]),
    (("verify", "1.3", "--bogus", "5"), ["--bogus"]),
    (("verify", "1.3", "--base", "7", "--order"), ["--order"]),
    (("count-reps", "--max"), ["--max"]),
    (("expand",), ["expr"]),
    (("verify", "--base", "7"), ["identity"]),
    (("expand", "q", "extra"), ["extra"]),
    (("list", "extra"), ["extra"]),
]
USAGE_ERRORS += [((*head, opt, "five"), [opt, "five"]) for head, opt in INT_OPTIONS]
USAGE_ERRORS += [((*head, f"{opt}=five"), [opt, "five"]) for head, opt in INT_OPTIONS]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS)
def test_cli_usage_errors_are_exit_2_and_name_the_argument(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    for word in named:
        assert word in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_top_level_help_lists_every_command(capsys, flag):
    code, out, err = run_cli(capsys, flag)
    assert (code, err) == (0, "")
    for command in COMMAND_ARGUMENTS:
        assert command in out


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(COMMAND_ARGUMENTS))
def test_cli_command_help_lists_every_argument(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag)
    assert (code, err) == (0, "")
    for name in COMMAND_ARGUMENTS[command]:
        assert name in out


VERIFY_1_3 = ("verify", "1.3", "--base", "7", "--spec", "a=-q^1,b=-q^2,c=-q^4")


@pytest.mark.parametrize("order", [("--order", "-1"), ("--order=-1",)])
def test_cli_negative_order_value_reaches_the_range_check(capsys, order):
    code, out, err = run_cli(capsys, *VERIFY_1_3, *order)
    assert (code, out) == (2, "")
    assert err == "error: --order must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "argv, same",
    [
        ((*VERIFY_1_3, "--order=5"), (*VERIFY_1_3, "--order", "5")),
        ((*VERIFY_1_3, "--ord", "5"), (*VERIFY_1_3, "--order", "5")),
        (("verify", "--order", "5", "1.3", "--spec=a=-q^1,b=-q^2,c=-q^4", "--base=7"),
         (*VERIFY_1_3, "--order", "5")),
        ((*VERIFY_1_3, "--order", "9", "--order", "5"), (*VERIFY_1_3, "--order", "5")),
        (("expand", "--ord=6", "phi()", "--bas", "2"), ("expand", "phi()", "--base", "2", "--order", "6")),
        (("count-reps", "--m", "3", "--js"), ("count-reps", "--max", "3", "--json")),
    ],
)
def test_cli_option_spellings_give_the_same_output(capsys, argv, same):
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first == run_cli(capsys, *same)


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "-q^2", "--order", "3"),
        ("expand", "--order", "3", "-q^2"),
        ("expand", "--order", "3", "--", "-q^2"),
    ],
)
def test_cli_expression_may_start_with_a_minus(capsys, argv):
    assert run_cli(capsys, *argv) == (0, "-q^2 + O(q^4)\n", "")


def test_cli_double_dash_ends_the_options(capsys):
    code, out, err = run_cli(capsys, "expand", "--order", "3", "--", "--order")
    assert (code, out) == (2, "")
    assert err == "error: syntax error at offset 2: expected a value, found '-'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "poch(q)", "--order", "100000000"),
        ("verify", "1.3", "--base", "7", "--spec", "a=-q^1,b=-q^2,c=-q^4", "--order", "10001"),
        ("verify-all", "--order", "100000000", "--trials", "1"),
    ],
)
def test_cli_order_above_the_ceiling_is_exit_2(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert out == ""
    order = argv[argv.index("--order") + 1]
    assert err == f"error: --order must be at most {MAX_ORDER}, got {order}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-all", "--trials", "-1"), "--trials must be at least 0, got -1"),
        (("count-reps", "--max", "0"), "--max must be at least 1, got 0"),
        (
            ("count-reps", "--max", str(MAX_ORDER + 1)),
            f"--max must be at most {MAX_ORDER}, got {MAX_ORDER + 1}",
        ),
    ],
)
def test_cli_counts_out_of_range_are_exit_2(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_import_leaves_out_the_modules_only_some_commands_need():
    """Every qidx call is a fresh process, so ``import qidx.cli`` should load
    neither ``dataclasses`` (with ``inspect``) nor ``json`` and ``random``,
    which only ``--json`` and the randomized suite use.  ``-S`` skips the
    ``site`` module: ``.pth`` files of installed packages (certifi's, for
    one) may import ``random`` and others before qidx is imported."""
    src = os.path.dirname(os.path.dirname(exprs.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qidx.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'random'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_cli_commands_run_without_argparse_gettext_or_locale():
    """Reading a command line must not load ``argparse``, nor the
    ``gettext`` and ``locale`` it pulls in: each is start-up time that every
    ``qidx`` process pays."""
    src = os.path.dirname(os.path.dirname(exprs.__file__))
    verify = ["verify", "1.3", "--base", "7", "--spec", "a=-q^1,b=-q^2,c=-q^4", "--order", "10"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from qidx.cli import main; "
        f"codes = [main(['list']), main({verify!r})]; "
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_cli_order_ceiling_is_the_expression_window_bound():
    assert MAX_ORDER is exprs.MAX_ORDER


@pytest.mark.parametrize(
    "expr, lowest",
    [
        ("q^-99999999999", -99999999999),  # a monomial becoming a series
        ("q^-6000*q^-6000", -12000),
        ("(1 + q^-5000)*(1 + q^-5001)", -10001),  # a series product
        ("(1 + q^-2)^99999999", -199999998),  # a series power
        ("(q + q^2)^-99999999", -99999999),
    ],
)
def test_cli_expand_window_below_the_bound_is_exit_2(capsys, expr, lowest):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", expr, "--order", "5")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert out == ""
    assert err == f"error: series would start at q^{lowest}, below q^-{MAX_ORDER}\n"


def test_cli_expand_window_at_the_bound(capsys):
    half = f"q^-{MAX_ORDER // 2}"
    code, out, _ = run_cli(capsys, "expand", f"{half}*{half}", "--order", "0")
    assert (code, out) == (0, f"q^-{MAX_ORDER} + O(q^1)\n")


@pytest.mark.parametrize(
    "expr, base, lowest",
    [
        ("theta(q^-99999999)", "5", -1000000030000000),
        ("theta(q^99999999)", "5", -999999930000001),  # its n = -1 term
        ("theta(q^202)", "2", -10100),  # lowest term at n = -100
    ],
)
def test_cli_expand_theta_window_below_the_bound_is_exit_2(capsys, expr, base, lowest):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", expr, "--base", base, "--order", "5")
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert err == f"error: series would start at q^{lowest}, below q^-{MAX_ORDER}\n"


def test_cli_expand_theta_window_at_the_bound(capsys):
    # at base 2, theta(q^201) has q^(n^2 + 200n): least, -10000, at n = -100
    code, out, _ = run_cli(capsys, "expand", "theta(q^201)", "--base", "2", "--order", "0")
    assert code == 0
    assert out.startswith(f"q^-{MAX_ORDER} - 2*q^-9999 + ")


@pytest.mark.parametrize(
    "expr, offset",
    [
        ("2^99999999", 3),
        ("10^99999999", 4),  # refused before the power is built
        ("2^-99999999", 4),
        ("10^5000", 4),
        ("10^4300", 4),
        ("2^14285", 3),  # 4301 digits
        ("10^4000*10^4000", 8),  # a product of two printable numbers
    ],
)
def test_cli_expand_number_too_large_to_print_is_exit_2(capsys, expr, offset):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", expr, "--order", "5")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: the number at offset {offset} would have more than 4300 digits\n"


def test_cli_expand_numbers_at_the_digit_bound(capsys):
    for expr, value in (("10^4299", 10**4299), ("2^14284", 2**14284), ("2^-14284", None)):
        code, out, _ = run_cli(capsys, "expand", expr, "--order", "0")
        want = f"1/{2**14284}" if value is None else str(value)
        assert (code, out) == (0, f"{want} + O(q^1)\n")
    code, out, err = run_cli(capsys, "expand", "1" * 4301)
    assert (code, out) == (2, "")
    assert err == "error: syntax error at offset 1: number longer than 4300 digits\n"


@pytest.mark.parametrize(
    "expr, spec",
    [
        ("(1 + 10^4000*q)^2", ""),
        ("(1 + 10^2150*q)^2", ""),  # 10^4300 at q^2: 4301 digits
        ("(1 - 2^-8000*q)^-1", ""),  # a denominator
        ("a*(1 + 10^2150*q)^2", "a=~q^0"),  # a tau-polynomial coefficient
    ],
)
def test_cli_expand_coefficient_too_large_to_print_is_exit_2(capsys, expr, spec):
    code, out, err = run_cli(capsys, "expand", expr, "--spec", spec, "--order", "5")
    assert (code, out) == (2, "")
    assert err == "error: the coefficient of q^2 has more than 4300 digits\n"


def test_cli_expand_coefficient_at_the_digit_bound(capsys):
    code, out, _ = run_cli(capsys, "expand", "(1 + 10^2149*q)^2", "--order", "2")
    assert (code, out) == (0, f"1 + {2 * 10**2149}*q + {10**4298}*q^2 + O(q^3)\n")


@pytest.mark.parametrize(
    "expr, what",
    [
        ("l(q^99999999)", "Lambert tail"),
        # at base 5 the walk of 1/b closes at the first r with 5r - E > 5:
        # E = 1000001 and 1000004 close one step past the limit
        ("l(q^1000001)", "Lambert tail"),
        ("l(q^1000004)", "Lambert tail"),
        ("pf(q^99999999)", "partial-fraction window"),
        ("f(q, q^-99999999)", "bilateral window"),
    ],
)
def test_cli_expand_window_that_cannot_close_fails_before_walking(capsys, expr, what):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", expr, "--base", "5", "--order", "5")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: {what} failed to close\n"


def test_cli_expand_window_that_closes_at_the_loop_limit(capsys):
    # E = 999999 closes on the last step the limit allows, so it builds
    code, out, _ = run_cli(capsys, "expand", "l(q^999999)", "--base", "5", "--order", "5")
    assert (code, out) == (0, "199999 - q - q^2 - q^3 - q^5 + O(q^6)\n")


def test_glam_argument_order_is_m_x_u_v_s_r0():
    # glam(M, x, u, v, s, r0): weight W(r) = u*r + v, denominator power s
    order = 30
    got = eval_expr(parse_expr("glam(1, q, 2, 0, 1, 0)"), ParamAssignment(1, {}), order)
    # sum over r >= 0 of 2r q^(r+1) / (1 - q^(r+1))
    want = {
        n: sum(2 * (d - 1) for d in range(2, n + 1) if n % d == 0)
        for n in range(order + 1)
    }
    assert got.order == order
    assert {n: got.coeff(n) for n in range(order + 1)} == want


def test_cli_verify_fixed_spec_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "1.3",
        "--base",
        "7",
        "--spec",
        "a=-q^1,b=-q^2,c=-q^4",
        "--order",
        "50",
    )
    assert code == 0
    assert "[ ok ]" in out


def test_cli_verify_constraint_violation_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "1.4", "--base", "5", "--spec", "b=q^6,c=q^1")
    assert code == 2
    assert "error:" in err


def test_cli_verify_mismatch_is_exit_1(capsys):
    # printed transcription with a known first divergence at q^10
    code, out, _ = run_cli(capsys, "verify", "3.4", "--order", "30")
    assert code == 1
    assert "q^10" in out


def test_cli_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "9.9", "--base", "5")
    assert code == 2
    assert "unknown identity" in err


def test_cli_verify_missing_base(capsys):
    code, _, err = run_cli(capsys, "verify", "phi")
    assert code == 2
    assert "--base" in err


def test_cli_verify_pinned_base_is_implied(capsys):
    code, out, _ = run_cli(capsys, "verify", "3.1", "--order", "40")
    assert code == 0
    assert "base=7" in out


def test_cli_verify_rejects_wrong_parameters(capsys):
    code, _, err = run_cli(
        capsys, "verify", "1.4", "--base", "5", "--spec", "a=q^1,b=q^1,c=q^2"
    )
    assert code == 2
    assert "does not take" in err

    code, _, err = run_cli(capsys, "verify", "1.4", "--base", "5", "--spec", "b=q^1")
    assert code == 2
    assert "needs --spec values for: c" in err


def test_cli_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "1.3",
        "--base",
        "7",
        "--spec",
        "a=-q^1,b=-q^2,c=-q^4",
        "--order",
        "50",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "identity",
        "base",
        "spec",
        "order_requested",
        "order_compared",
        "status",
        "first_mismatch",
        "runtime_ms",
        "seed",
    }
    assert report["status"] == "equal"
    assert report["first_mismatch"] is None


def _normalized(json_text):
    data = json.loads(json_text)
    rows = data if isinstance(data, list) else [data]
    for row in rows:
        if "runtime_ms" in row:
            row["runtime_ms"] = 0
    return data


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as handle:
        return json.load(handle)


def test_cli_verify_golden_equal(capsys):
    _, out, _ = run_cli(
        capsys,
        "verify",
        "1.3",
        "--base",
        "7",
        "--spec",
        "a=-q^1,b=-q^2,c=-q^4",
        "--order",
        "50",
        "--json",
    )
    assert _normalized(out) == _golden("verify_1_3_base7.json")


def test_cli_verify_golden_mismatch(capsys):
    _, out, _ = run_cli(capsys, "verify", "3.4", "--order", "30", "--json")
    assert _normalized(out) == _golden("verify_3_4_printed.json")


def test_cli_count_reps_golden(capsys):
    code, out, _ = run_cli(capsys, "count-reps", "--max", "12", "--json")
    assert code == 0
    assert json.loads(out) == _golden("count_reps_12.json")


def test_cli_count_reps_text_all_match(capsys):
    code, out, _ = run_cli(capsys, "count-reps", "--max", "20")
    assert code == 0
    lines = [line for line in out.strip().splitlines()[1:] if line]
    assert len(lines) == 20
    assert all(line.endswith("true") for line in lines)


def test_cli_list_contains_registry(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for ident in ("1.1", "1.4", "2.10", "3.9", "phi"):
        assert ident in out

    code, out, _ = run_cli(capsys, "list", "--json")
    rows = json.loads(out)
    assert {"identity", "params", "base", "constraints"} <= set(rows[0])
    assert any(row["identity"] == "3.1" and row["base"] == 7 for row in rows)


def test_cli_list_json_golden(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    with open(os.path.join(GOLDEN, "list.json")) as handle:
        assert out == handle.read()


def test_cli_verify_all_reduced_is_deterministic(capsys):
    args = ("verify-all", "--order", "25", "--trials", "2", "--seed", "42", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert _normalized(out1) == _normalized(out2)
    # and the normalized serialization is byte-identical
    dump1 = json.dumps(_normalized(out1), sort_keys=True)
    dump2 = json.dumps(_normalized(out2), sort_keys=True)
    assert dump1 == dump2


def verify_all_seed0():
    """`verify-all --seed 0 --json` without runtime_ms: one line of values
    per row under one shared key list.

    Regenerate with
    PYTHONPATH=src:tests python -c "import test_cli as t;
    print(t.verify_all_seed0(), end='')" > tests/golden/verify_all_seed0.json
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify-all", "--seed", "0", "--json"]) == 0
    rows = json.loads(out.getvalue())
    keys = [k for k in rows[0] if k != "runtime_ms"]
    lines = []
    for row in rows:
        assert [k for k in row if k != "runtime_ms"] == keys, row
        lines.append(json.dumps([row[k] for k in keys]))
    return '{"keys": %s,\n"rows": [\n%s\n]}\n' % (json.dumps(keys), ",\n".join(lines))


def test_cli_verify_all_seed0_golden():
    # the seeded sweep stays byte-identical up to timings, so no refactor
    # may move a random_spec draw or a verdict
    with open(os.path.join(GOLDEN, "verify_all_seed0.json")) as handle:
        assert verify_all_seed0() == handle.read()


# negative powers of signed, symbolic and fractional series, with nonzero
# offsets, leads other than +-1 and a lead that is not a unit
EXPAND_INVERSE = [
    ("poch(q)^-1", "--order", "200"),
    ("phi()^-1", "--order", "200"),
    ("theta(-q^0)^-2", "--order", "120"),
    ("theta(-q^0)^-3", "--order", "200"),
    ("(2*q^3 + q^4)^-2", "--order", "30"),
    ("(2 - q)^-3", "--order", "40"),
    ("(q^-1 + 1)^-1", "--order", "20"),
    ("poch(b)^-1", "--base", "3", "--order", "150", "--spec", "b=-q^2"),
    ("l(b)^-1", "--base", "3", "--order", "100", "--spec", "b=-q^2"),
    ("pf(b)^-2", "--base", "3", "--order", "60", "--spec", "b=-q^2"),
    ("f(a, b)^-3", "--base", "5", "--order", "100", "--spec", "a=-q^1,b=-q^2"),
    ("theta(b)^-2", "--base", "2", "--order", "100", "--spec", "b=q^1"),
    ("poch(b)^-1", "--base", "3", "--order", "60", "--spec", "b=~q^2"),
    ("l(b)^-1", "--base", "3", "--order", "30", "--spec", "b=~q^2"),
    ("theta(b)^-1", "--base", "3", "--order", "40", "--spec", "b=~q^2"),
    ("(1 - b)^-3", "--order", "40", "--spec", "b=~q^1"),
    ("(2*b + q^5)^-1", "--order", "40", "--spec", "b=~q^0"),
    ("(b - 3*q)^-2", "--order", "30", "--spec", "b=~q^0"),
    ("(poch(a)*theta(b))^-2", "--base", "2", "--order", "30", "--spec", "a=-q^1,b=~q^1"),
    ("f(a, b)^-1", "--base", "3", "--order", "10", "--spec", "a=~q^1,b=~q^2"),
]


def expand_inverse_outputs():
    """The exit code and stdout of `qidx expand` for each EXPAND_INVERSE case.

    Regenerate with
    PYTHONPATH=src:tests python -c "import test_cli as t;
    print(t.expand_inverse_outputs(), end='')" > tests/golden/expand_inverse.json
    """
    rows = []
    for argv in EXPAND_INVERSE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["expand", *argv])
        rows.append({"argv": list(argv), "exit": code, "stdout": out.getvalue()})
    return json.dumps(rows, indent=1) + "\n"


def test_cli_expand_inverse_golden():
    with open(os.path.join(GOLDEN, "expand_inverse.json")) as handle:
        assert expand_inverse_outputs() == handle.read()


def test_cli_verify_all_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("QIDX_SEED", "fromenv")
    _, out, _ = run_cli(
        capsys, "verify-all", "--order", "20", "--trials", "1", "--seed", "42", "--json"
    )
    seeds = {row["seed"] for row in json.loads(out) if row["seed"]}
    assert seeds and all(seed.startswith("fromenv") for seed in seeds)


def test_cli_verify_all_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--order", "20", "--trials", "1")
    assert code == 0
    assert "suite ok" in out
