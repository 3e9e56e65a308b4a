"""Expression-language and command-line behavior tests."""

import json
import os
import time
from fractions import Fraction

import pytest

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
    code = main(list(argv))
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


def test_spec_string_rejects_garbage():
    for bad in ("x=q^2", "b=q^", "b=2", "b=q,b=q", "b=q^2 c=q", "b"):
        with pytest.raises(ExprSyntaxError):
            parse_spec_string(bad)


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
