"""The contract of qidx's small value classes: which compare and hash by
value, which reject bad input, and which hold fresh containers per instance.

The parser, the ``poch_inf`` cache and the constraint rules rely on these
properties, so this file pins them."""

from fractions import Fraction

import pytest

from qidx.constructors import AffineWeight, SpecMonomial, Unit, _poch_inf_cached, poch_inf
from qidx.exactalg import LaurentPoly
from qidx.exprs import BinOp, Call, Neg, Num, Pow, QPow, Ref, parse_expr
from qidx.identities import CheckReport, IdentityDescriptor, ParamAssignment, get_descriptor
from qidx.numtheory import RangeReport


def test_ast_equality_is_type_aware_and_ignores_pos():
    assert Num(1) == Num(1, 7)
    assert Num(1) != QPow(1)
    assert Num(1) != Num(2)
    assert BinOp("+", Num(1), Ref("a"), 3) == BinOp("+", Num(1), Ref("a"), 9)
    assert BinOp("+", Num(1), Ref("a")) != BinOp("-", Num(1), Ref("a"))
    assert BinOp("+", Num(1), Ref("a")) != BinOp("*", Num(1), Ref("a"))
    assert Call("l", (Ref("b"),)) != Call("l", (Ref("c"),))
    assert Pow(QPow(1), 2) != Pow(QPow(1), 3)
    assert Neg(Num(1)) != Num(-1)
    parsed = parse_expr("  poch(q) - l(b)")
    assert parsed == BinOp("-", Call("poch", (QPow(1),)), Call("l", (Ref("b"),)))


def test_ast_nodes_hash_by_their_compared_fields():
    nodes = [Num(1, 4), Num(1, 9), QPow(1), Neg(QPow(1)), Pow(Ref("a"), -1, 2), Pow(Ref("a"), -1)]
    assert hash(Num(1, 4)) == hash(Num(1, 9))
    assert hash(Pow(Ref("a"), -1, 2)) == hash(Pow(Ref("a"), -1))
    assert len(set(nodes)) == 4


def test_unit_rejects_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(ValueError):
        Unit(2)
    with pytest.raises(ValueError):
        Unit(0, (1, 0, 0, 0))


def test_units_and_monomials_compare_and_hash_by_value():
    assert Unit(-1) == Unit(-1, (0, 0, 0, 0))
    assert Unit(-1) != Unit(1)
    assert Unit(1, (1, 0, 0, 0)) != Unit(1)
    assert hash(Unit(-1)) == hash(Unit(-1))
    x, y = SpecMonomial(Unit(-1, (0, 1, 0, 0)), 3), SpecMonomial(Unit(-1, (0, 1, 0, 0)), 3)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != SpecMonomial(Unit(-1, (0, 1, 0, 0)), 4)
    assert x != SpecMonomial(Unit(1, (0, 1, 0, 0)), 3)
    assert len({x, y, SpecMonomial.signed(-1, 3), SpecMonomial.signed(-1, 3)}) == 2
    assert SpecMonomial.signed(1, 2).mul(SpecMonomial.signed(-1, 1)) == SpecMonomial.signed(-1, 3)
    assert AffineWeight(1, 0)(5) == 5


def test_a_constant_polynomial_hashes_as_the_scalar_it_equals():
    for scalar in (1, 0, Fraction(1, 2), -7):
        poly = LaurentPoly.const(scalar)
        assert poly == scalar and hash(poly) == hash(scalar)
        assert len({poly, scalar}) == 1
    assert len({LaurentPoly.zero(), 0, Fraction(0)}) == 1
    tau_a = LaurentPoly.var(0)
    assert tau_a != 1 and hash(tau_a) == hash(LaurentPoly.monomial((1, 0, 0, 0)))


def test_an_equal_monomial_hits_the_poch_inf_cache():
    _poch_inf_cached.cache_clear()
    first = poch_inf(SpecMonomial.signed(-1, 2), 3, 30)
    hits = _poch_inf_cached.cache_info().hits
    again = poch_inf(SpecMonomial(Unit(-1), 2), 3, 30)
    assert _poch_inf_cached.cache_info().hits == hits + 1
    assert again is first


def test_mutable_fields_are_fresh_per_instance():
    p1, p2 = ParamAssignment(7), ParamAssignment(7)
    p1.params["a"] = SpecMonomial.signed(1, 1)
    assert p2.params == {}
    r1, r2 = RangeReport(5), RangeReport(5)
    r1.mismatches.append(3)
    r1.theta_mismatches.append(4)
    assert r2.mismatches == [] and r2.theta_mismatches == []
    assert r1.n_max == 5 and not r1.ok and r2.ok


def test_descriptor_note_defaults_from_its_constraint_or_fixed_base():
    parent = get_descriptor("2.1")
    assert IdentityDescriptor("x", parent.build, parent.constraint).note == parent.constraint.note
    assert IdentityDescriptor("y", parent.build, fixed_base=7).note == "fixed base 7"
    assert IdentityDescriptor("z", parent.build).note == "any base >= 1"
    assert IdentityDescriptor("w", parent.build).symbolic_trials == 5


def test_check_report_is_mutable():
    rep = CheckReport(
        identity="1.3",
        base=7,
        spec="",
        order_requested=20,
        order_compared=20,
        status="equal",
        first_mismatch=None,
        runtime_ms=1.0,
    )
    assert rep.seed is None and rep.detail is None and rep.ok
    rep.spec = "a=-q^1"
    assert rep.to_json_dict()["spec"] == "a=-q^1"
