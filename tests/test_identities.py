"""Registry-level checks: fixed regression specs, sampling, reports, and the
suite runner's gating semantics."""

import ast
import itertools
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from qidx import identities
from qidx.cli import main
from qidx.constructors import SpecMonomial
from qidx.errors import (
    ConstraintViolationError,
    DomainError,
    EmptyConstraintSetError,
    OrderExceededError,
)
from qidx.exprs import parse_spec_string
from qidx.qring import QSeries
from qidx.identities import (
    COROLLARY_PARENTS,
    PRINTED_COROLLARIES,
    CheckReport,
    ParamAssignment,
    build_sides,
    check_identity,
    derived_corollary_reports,
    get_descriptor,
    list_identities,
    random_spec,
    run_suite,
    suite_ok,
    symbolic_param,
)


def assign(base, **kw):
    return ParamAssignment(base, dict(kw))


PARAMETERISED = [row["identity"] for row in list_identities() if row["params"]]


# ---------------------------------------------------------------------------
# registry shape


def test_registry_contents():
    ids = [row["identity"] for row in list_identities()]
    assert len(ids) >= 24
    for needed in ("1.1", "1.2", "1.3", "1.4", "1.5", "3.9"):
        assert needed in ids
    # stable order: repeated calls agree
    assert ids == [row["identity"] for row in list_identities()]


def test_descriptor_lookup_unknown():
    with pytest.raises(KeyError):
        get_descriptor("9.99")


# ---------------------------------------------------------------------------
# fixed regression specs


def test_1_3_boundary_base7():
    spec = ParamAssignment(7, parse_spec_string("a=-q^1,b=-q^2,c=-q^4"))
    rep = check_identity("1.3", spec, 50)
    assert rep.status == "equal"
    assert rep.order_compared >= 50


def test_1_3_interior_base9():
    spec = ParamAssignment(9, parse_spec_string("a=q^1,b=q^2,c=q^3"))
    rep = check_identity("1.3", spec, 50)
    assert rep.status == "equal"


def test_2_8_fixed_base7():
    spec = assign(7, a=SpecMonomial.signed(-1, 1), b=SpecMonomial.signed(-1, 2))
    rep = check_identity("2.8", spec, 100)
    assert rep.status == "equal"


def test_1_1_symbolic():
    rep = check_identity("1.1", assign(5, z=symbolic_param("z", 0)), 30)
    assert rep.status == "equal"


def test_3_9_fixed():
    rep = check_identity("3.9", ParamAssignment(13, {}), 100)
    assert rep.status == "equal"


@pytest.mark.parametrize("ident,base", [("3.1", 7), ("3.3", 9), ("3.6", 5), ("3.7", 7)])
def test_printed_corollaries_hold(ident, base):
    rep = check_identity(ident, ParamAssignment(base, {}), 60)
    assert rep.status == "equal"


def test_printed_3_4_transcription_discrepancy():
    # the printed final term lacks the squared denominator its derivation
    # requires; the faithful transcription first diverges at q^10
    rep = check_identity("3.4", ParamAssignment(5, {}), 60)
    assert rep.status == "mismatch"
    assert rep.first_mismatch == (10, "-1", "1")


def test_printed_3_5_transcription_discrepancy():
    rep = check_identity("3.5", ParamAssignment(5, {}), 60)
    assert rep.status == "mismatch"
    assert rep.first_mismatch == (10, "3", "5")


def test_derived_twins_pass_where_printed_does_not():
    for ident in ("3.4", "3.5"):
        reps = derived_corollary_reports(ident, 60)
        derived = [r for r in reps if r.derives == ident]
        printed = [r for r in reps if r.spec == "printed"]
        assert derived and all(r.status == "equal" for r in derived)
        assert printed and all(r.status == "mismatch" and r.derives is None for r in printed)


def test_3_6_rows_build_the_printed_sides_once(monkeypatch):
    desc = get_descriptor("3.6")
    real, calls = desc.build, []

    def counting_build(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(desc, "build", counting_build)
    reports = derived_corollary_reports("3.6", 30)
    assert [(r.spec, r.status, r.derives) for r in reports] == [
        ("printed", "equal", None),
        ("derived-lhs", "equal", "3.6"),
        ("derived-rhs", "equal", "3.6"),
    ]
    assert len(calls) == 1


def test_corollary_parent_map_is_total():
    assert set(COROLLARY_PARENTS) == {"3.1", "3.3", "3.4", "3.5", "3.7", "3.9"}


@pytest.mark.parametrize("ident", sorted(PRINTED_COROLLARIES))
def test_each_corollary_derivation_has_one_printed_row(ident):
    printed = [r for r in derived_corollary_reports(ident, 12) if r.spec == "printed"]
    assert [(r.identity, r.base) for r in printed] == [(ident, get_descriptor(ident).fixed_base)]


@pytest.mark.parametrize("error", DomainError.__subclasses__(), ids=lambda e: e.__name__)
def test_a_domain_error_from_a_builder_is_a_constraint_row(monkeypatch, error):
    def failing_build(m, order, a, b):
        raise error(f"{error.__name__} from the builder")

    monkeypatch.setattr(get_descriptor("2.1"), "build", failing_build)
    spec = assign(5, a=SpecMonomial.signed(1, 1), b=SpecMonomial.signed(1, 2))
    rep = check_identity("2.1", spec, 20)
    assert (rep.status, rep.order_compared, rep.first_mismatch) == (
        "constraint-violation", None, None,
    )
    assert rep.detail == f"{error.__name__} from the builder"


def test_the_domain_errors_are_the_six_refusals():
    names = {e.__name__ for e in DomainError.__subclasses__()}
    assert names == {
        "ConstraintViolationError", "DivergentTailError", "EmptyConstraintSetError",
        "NegativeOrderArgumentError", "PoleError", "SymbolicNonUnitError",
    }


# ---------------------------------------------------------------------------
# constraint handling


def test_constraint_violation_report():
    spec = assign(5, b=SpecMonomial.signed(1, 6), c=SpecMonomial.signed(1, 1))
    rep = check_identity("1.4", spec, 40)
    assert rep.status == "constraint-violation"
    assert rep.order_compared is None
    assert rep.first_mismatch is None


@pytest.mark.parametrize(
    "ident, names, detail",
    [
        ("2.1", "abc", "identity 2.1 does not take parameter(s): c (takes a, b)"),
        ("2.1", "a", "identity 2.1 needs --spec values for: b"),
        ("3.4", "b", "identity 3.4 does not take parameter(s): b (takes none)"),
    ],
)
def test_a_missing_or_extra_parameter_is_a_constraint_row(ident, names, detail):
    # refused before any bound or builder reads a parameter
    base = get_descriptor(ident).fixed_base or 5
    spec = assign(base, **{n: SpecMonomial.signed(1, 1) for n in names})
    with pytest.raises(ConstraintViolationError, match=re.escape(detail)):
        build_sides(ident, spec, 10)
    rep = check_identity(ident, spec, 10)
    assert (rep.status, rep.order_compared, rep.detail) == ("constraint-violation", None, detail)


def test_only_identities_states_the_parameter_name_messages():
    # check_names is the rule's one statement; the CLI calls it
    homes = {
        path.name
        for path in Path(identities.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ("does not take parameter" in node.value or "needs --spec values" in node.value)
    }
    assert homes == {"identities.py"}


def _on_vacuous_locus(ident, m, spec):
    """The closed form of where both sides vanish identically: theta(z) has
    the factors (1 - z) and (1 - q^m/z), and f(a, b)'s product form has
    (q^m/(ab); q^m)."""
    if ident == "1.1":
        return spec["z"].unit.is_plus_one() and spec["z"].qexp in (0, m)
    a, b = spec["a"], spec["b"]
    return a.qexp + b.qexp == m and a.unit.mul(b.unit).is_plus_one()


@pytest.mark.parametrize("ident", ["1.1", "2.1", "2.2", "2.3", "2.5"])
def test_both_sides_vanish_exactly_on_the_closed_form_loci(ident):
    # every signed spec of the region at bases 1-13, each sign choice
    constraint, zero = get_descriptor(ident).constraint, QSeries.zero(30)
    names = constraint.names
    for m in range(1, 14):
        for orders in constraint.region(m):
            for signs in itertools.product((1, -1), repeat=len(names)):
                spec = {n: SpecMonomial.signed(s, e) for n, s, e in zip(names, signs, orders)}
                sides = build_sides(ident, ParamAssignment(m, spec), 30)
                vanish = [side.eq_upto(zero, 30)[0] for side in sides]
                assert vanish == [_on_vacuous_locus(ident, m, spec)] * 2, (m, spec)


def test_empty_constraint_set():
    with pytest.raises(EmptyConstraintSetError):
        random_spec("1.3", 3, "any")


@pytest.mark.parametrize("base", [0, -1])
def test_random_spec_and_run_suite_reject_a_base_below_one(base):
    # 1.2's pole-unit rule takes e % base, so the base is checked first
    message = "base scale must be a positive integer"
    for ident in ("1.2", "1.1", "phi"):
        with pytest.raises(ConstraintViolationError, match=message):
            random_spec(ident, base, "seed")
    with pytest.raises(ConstraintViolationError, match=message):
        run_suite(order=10, trials=1, bases=(base,), idents=["1.2"])


def test_wrong_base_for_pinned_corollary():
    rep = check_identity("3.4", ParamAssignment(7, {}), 30)
    assert rep.status == "constraint-violation"


def test_1_2_unit_sign_constraint():
    # at ord(z) = 0 mod base the unit must be -1
    rep = check_identity("1.2", assign(5, z=SpecMonomial.signed(1, 5)), 30)
    assert rep.status == "constraint-violation"
    rep = check_identity("1.2", assign(5, z=SpecMonomial.signed(-1, 5)), 30)
    assert rep.status == "equal"


THETA_HIGH = "z must satisfy 0 <= ord <= base, got ord 6 at base 5"

# one violating spec per constraint family and rule, at base 5, with the
# exact message; where a spec breaks two rules the first one checked wins
CONSTRAINT_MESSAGES = [
    ("1.1", "z=q^6", THETA_HIGH),
    ("1.1", "z=-q^-1", "z must satisfy 0 <= ord <= base, got ord -1 at base 5"),
    ("1.1", "z=~q^2", "symbolic z must sit at q^0, got q^2"),
    ("1.2", "z=-q^6", THETA_HIGH),
    ("1.2", "z=~q^1", "symbolic z must sit at q^0, got q^1"),
    ("1.2", "z=q^5", "z at order 0 mod base must carry a -1 unit"),
    ("1.2", "z=q^0", "z at order 0 mod base must carry a -1 unit"),
    ("1.3", "a=q^0,b=q^1,c=q^1", "a must have positive order, got 0"),
    ("1.3", "a=q^1,b=q^1,c=-q^-2", "c must have positive order, got -2"),
    ("1.3", "a=q^2,b=q^2,c=q^3", "orders of a, b, c must sum to at most the base; got 7 > 5"),
    ("1.3", "a=q^0,b=q^9,c=q^9", "a must have positive order, got 0"),
    ("1.3", "a=-q^1,b=-q^1,c=q^3", "at the boundary sum == base, abc must carry a -1 unit"),
    ("1.3", "a=~q^1,b=~q^1,c=~q^3", "at the boundary sum == base, abc must carry a -1 unit"),
    ("1.4", "b=q^0,c=q^1", "b must have positive order, got 0"),
    ("1.5", "b=q^1,c=q^-1", "c must have positive order, got -1"),
    ("2.11", "b=q^2,c=q^3", "orders of b and c must sum to less than the base; got 5 >= 5"),
    ("2.13", "b=~q^4,c=~q^4", "orders of b and c must sum to less than the base; got 8 >= 5"),
    ("2.1", "a=q^0,b=q^1", "a must satisfy 0 < ord < base, got ord 0 at base 5"),
    ("2.6", "a=q^1,b=~q^5", "b must satisfy 0 < ord < base, got ord 5 at base 5"),
    ("2.7", "a=q^0,b=q^1", "a must have positive order, got 0"),
    ("2.8", "a=q^3,b=q^3", "orders of a and b must sum to at most the base; got 6 > 5"),
    ("2.7", "a=q^2,b=q^3", "at the boundary sum == base, ab must not carry a +1 unit"),
    ("2.8", "a=-q^2,b=-q^3", "at the boundary sum == base, ab must not carry a +1 unit"),
    ("2.9", "a=q^5,b=q^0,c=q^1", "a must satisfy 0 < ord < base, got ord 5 at base 5"),
    ("2.10", "a=q^1,b=q^1,c=q^0", "c must have positive order, got 0"),
    ("2.9", "a=q^1,b=q^2,c=q^2", "orders of a, b, c must sum to less than the base; got 5 >= 5"),
    ("2.12", "b=-q^-3", "b must satisfy 0 < ord < base, got ord -3 at base 5"),
    ("3.8", "a=q^1,b=q^1,c=q^1,d=q^0", "d must have positive order, got 0"),
    (
        "3.8",
        "a=q^2,b=q^3,c=q^4,d=q^4",
        "orders of a and b must sum to less than the base; got 5 >= 5",
    ),
    (
        "3.8",
        "a=q^1,b=q^1,c=~q^1,d=~q^4",
        "orders of c and d must sum to less than the base; got 5 >= 5",
    ),
]


@pytest.mark.parametrize("ident,spec,message", CONSTRAINT_MESSAGES)
def test_constraint_messages(ident, spec, message):
    with pytest.raises(ConstraintViolationError) as err:
        build_sides(ident, ParamAssignment(5, parse_spec_string(spec)), 10)
    assert str(err.value) == message


@pytest.mark.parametrize("ident", PARAMETERISED)
def test_all_minus_region_tuples_validate(ident):
    # random_spec repairs a rejected signed draw to all -1 units
    desc = get_descriptor(ident)
    for base in range(1, 14):
        for expos in desc.constraint.region(base):
            params = {name: SpecMonomial.signed(-1, e) for name, e in zip(desc.params, expos)}
            desc.constraint.validate(params, base)


# ---------------------------------------------------------------------------
# randomized sampling


def test_random_spec_deterministic():
    a1 = random_spec("1.3", 9, "seed-17")
    a2 = random_spec("1.3", 9, "seed-17")
    assert a1.base == a2.base == 9
    assert a1.spec_string() == a2.spec_string()


def test_random_spec_respects_constraints():
    for t in range(60):
        a = random_spec("3.8", 7, f"t{t}")
        desc = get_descriptor("3.8")
        desc.constraint.validate(a.params, a.base)  # must not raise


def test_random_spec_symbolic_mode():
    a = random_spec("2.7", 9, "s", symbolic=True)
    assert all(x.unit.symbolic for x in a.params.values())
    rep = check_identity("2.7", a, 25)
    assert rep.status == "equal"


def test_symbolic_tuples_are_the_violation_filtered_region(monkeypatch):
    # symbolic draws read the signed region with every THETA exponent at 0
    # and validate no tuple; that is the violation-filtered region in
    # content and order, so every seeded draw is unchanged
    original = identities.Constraint.violation
    calls = []
    monkeypatch.setattr(
        identities.Constraint, "violation", lambda *args: calls.append(args) or original(*args)
    )
    identities._feasible.cache_clear()
    try:
        for t in range(20):
            random_spec("2.7", 11, f"s{t}", symbolic=True)
        assert calls == []
        for ident in PARAMETERISED:
            c = get_descriptor(ident).constraint
            values = [[symbolic_param(name, e) for e in range(30)] for name in c.names]
            for base in range(1, 30):
                region = c.region(base)
                assert list(identities._feasible(ident, base, True)) == [
                    t for t in region
                    if original(c, dict(zip(c.names, map(list.__getitem__, values, t))), base)
                    is None
                ], (ident, base)
    finally:
        identities._feasible.cache_clear()


def test_random_spec_symbolic_theta_forces_origin():
    for t in range(10):
        a = random_spec("1.1", 7, f"s{t}", symbolic=True)
        assert a.params["z"].qexp == 0


@pytest.mark.parametrize(
    "ident", ["1.4", "2.1", "2.2", "2.3", "2.5", "2.6", "2.9", "2.10", "2.11", "2.12"]
)
def test_randomized_smoke(ident):
    for t in range(4):
        a = random_spec(ident, (5, 7, 9, 11)[t % 4], f"smoke{t}")
        rep = check_identity(ident, a, 30, seed=f"smoke{t}")
        assert rep.status == "equal", (ident, rep.spec, rep.first_mismatch)


def test_symbolic_smoke():
    for ident in ("1.3", "1.5", "2.1", "2.12", "3.8"):
        a = random_spec(ident, 9, "sym-smoke", symbolic=True)
        rep = check_identity(ident, a, 20)
        assert rep.status == "equal", (ident, rep.spec, rep.first_mismatch)


# ---------------------------------------------------------------------------
# spec-level invariants


def test_scale_covariance_k2():
    # checking at base m with exponents e matches base 2m with exponents 2e,
    # with coefficients transported along q -> q^2
    cases = [
        ("1.4", 5, {"b": (1, 1), "c": (-1, 2)}),
        ("2.7", 7, {"a": (-1, 2), "b": (1, 3)}),
        ("2.1", 5, {"a": (1, 1), "b": (-1, 3)}),
    ]
    for ident, m, raw in cases:
        small = assign(m, **{k: SpecMonomial.signed(s, e) for k, (s, e) in raw.items()})
        big = assign(2 * m, **{k: SpecMonomial.signed(s, 2 * e) for k, (s, e) in raw.items()})
        ls, rs = build_sides(ident, small, 20)
        lb, rb = build_sides(ident, big, 40)
        assert check_identity(ident, big, 40).status == "equal"
        for n in range(0, 21):
            assert lb.coeff(2 * n) == ls.coeff(n)
            assert rb.coeff(2 * n) == rs.coeff(n)
        for n in range(1, 41, 2):
            assert lb.coeff(n) == 0
            assert rb.coeff(n) == 0


def test_1_4_and_2_11_pass_together():
    # the two statements are seriewise rearrangements of each other
    for t in range(6):
        a = random_spec("1.4", 9, f"pair{t}")
        r1 = check_identity("1.4", a, 40)
        r2 = check_identity("2.11", a, 40)
        assert r1.status == "equal" and r2.status == "equal"


def test_rearrangement_identity_seriewise():
    from qidx.constructors import l_func

    b, c = SpecMonomial.signed(1, 2), SpecMonomial.signed(-1, 3)
    m, order = 9, 40
    lb = l_func(b, m, order)
    lc = l_func(c, m, order)
    lbc = l_func(b.mul(c), m, order)
    lhs = (lbc - lb) * (lbc - lc)
    rhs = lbc * lbc - lbc * (lb + lc) + lb * lc
    k = min(lhs.order, rhs.order)
    ok, first = lhs.eq_upto(rhs, k)
    assert ok, first


# ---------------------------------------------------------------------------
# reports and the suite runner


def test_report_json_shape():
    rep = check_identity("1.1", assign(5, z=SpecMonomial.signed(-1, 2)), 30, seed="json")
    d = rep.to_json_dict()
    assert set(d) == {
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
    assert d["status"] == "equal"
    assert d["first_mismatch"] is None
    assert d["seed"] == "json"


def test_report_json_mismatch_shape():
    rep = check_identity("3.4", ParamAssignment(5, {}), 30)
    d = rep.to_json_dict()
    assert d["first_mismatch"] == {"exponent": 10, "lhs": "-1", "rhs": "1"}


def test_suite_gating():
    reports = run_suite(order=25, symbolic_order=15, trials=2, seed="gate")
    assert suite_ok(reports)
    bad = [r for r in reports if not r.ok]
    # the only tolerated failures are printed-transcription rows
    assert bad and all(
        r.spec == "printed" and r.identity in ("3.4", "3.5") for r in bad
    )
    # a mismatching theorem row must gate
    poisoned = list(reports)
    poisoned.append(
        type(reports[0])(
            identity="2.1",
            base=5,
            spec="a=q^1,b=q^1",
            order_requested=25,
            order_compared=25,
            status="mismatch",
            first_mismatch=(3, "1", "0"),
            runtime_ms=0.0,
        )
    )
    assert not suite_ok(poisoned)


def _row(identity, spec, status, derives=None):
    rep = CheckReport(identity, 5, spec, 20, 20, status, None, 0.0)
    rep.derives = derives
    return rep


def test_a_printed_row_is_tolerated_only_when_its_derivations_pass():
    printed = _row("3.4", "printed", "mismatch")
    passing, failing = (_row("3.4<-1.4", "", status, "3.4") for status in ("equal", "mismatch"))
    other = _row("3.5<-1.4", "", "equal", "3.5")
    assert suite_ok([passing, printed])
    assert not suite_ok([printed])
    assert not suite_ok([other, printed])
    assert not suite_ok([passing, failing, printed])
    # a row that looks like a derivation but derives nothing tolerates nothing
    assert not suite_ok([_row("3.4<-1.4", "derived-lhs", "equal"), printed])


def test_build_sides_rejects_a_short_builder(monkeypatch, capsys):
    desc = get_descriptor("2.1")
    full_build = desc.build

    def short_build(m, order, a, b):
        lhs, rhs = full_build(m, order, a, b)
        return lhs, rhs.truncate(order - 1)

    monkeypatch.setattr(desc, "build", short_build)
    spec = assign(5, a=SpecMonomial.signed(1, 1), b=SpecMonomial.signed(1, 2))
    with pytest.raises(OrderExceededError, match="only through q\\^19, asked for q\\^20"):
        build_sides("2.1", spec, 20)
    with pytest.raises(OrderExceededError):
        check_identity("2.1", spec, 20)
    argv = ["verify", "2.1", "--base", "5", "--spec", "a=q^1,b=q^2", "--order", "20"]
    assert main(argv) == 2
    assert "built its sides only through q^19" in capsys.readouterr().err


def test_suite_emits_each_printed_row_once():
    reports = run_suite(order=12, symbolic_order=8, trials=1, seed="once")
    printed = [(r.identity, r.spec) for r in reports if r.spec == "printed"]
    assert len(printed) == len(set(printed))
    assert {ident for ident, _ in printed} == PRINTED_COROLLARIES


def test_suite_deterministic():
    r1 = run_suite(order=20, symbolic_order=12, trials=2, seed="det", idents=["1.4", "2.1"])
    r2 = run_suite(order=20, symbolic_order=12, trials=2, seed="det", idents=["1.4", "2.1"])
    strip = lambda rows: [
        {k: v for k, v in r.to_json_dict().items() if k != "runtime_ms"} for r in rows
    ]
    assert strip(r1) == strip(r2)


# ---------------------------------------------------------------------------
# pinned side coefficients

SIDES_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sides.json")


def builder_sides():
    """str() of both sides of every registry id at one seeded spec: signed
    through q^20 and, for an id with parameters, symbolic through q^16.

    Regenerate with
    PYTHONPATH=src:tests python -c "import json, test_identities as t;
    print(json.dumps(t.builder_sides(), indent=1))" > tests/golden/sides.json
    """
    out = {}
    for row in list_identities():
        ident = row["identity"]
        tiers = [("signed", False, 20)]
        if row["params"]:
            tiers.append(("symbolic", True, 16))
        for tag, symbolic, order in tiers:
            spec = random_spec(ident, 7, "golden", symbolic=symbolic)
            lhs, rhs = build_sides(ident, spec, order)
            out[f"{ident} {tag}"] = {
                "spec": spec.spec_string(),
                "lhs": str(lhs.truncate(order)),
                "rhs": str(rhs.truncate(order)),
            }
    return out


def test_builder_sides_match_golden():
    # both sides are pinned, since a builder mistake made the same way on
    # both sides still verifies as equal
    with open(SIDES_GOLDEN) as handle:
        assert builder_sides() == json.load(handle)


# ---------------------------------------------------------------------------
# symbolic builds specialize to signed builds


@st.composite
def specializations(draw):
    """An id, a base, an order <= 24, a symbolic spec from the id's own
    region and one sign per parameter."""
    ident = draw(st.sampled_from(PARAMETERISED))
    bases = [m for m in range(1, 14) if identities._feasible(ident, m, True)]
    base = draw(st.sampled_from(bases))
    expos = draw(st.sampled_from(identities._feasible(ident, base, True)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(expos), max_size=len(expos)))
    return ident, base, draw(st.integers(0, 24)), expos, signs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specializations())
def test_symbolic_build_specializes_to_the_signed_build(case):
    # tau -> +-1 is a ring homomorphism, so substituting each parameter's
    # sign into the symbolic sides must give the signed sides exactly
    ident, base, order, expos, signs = case
    names = get_descriptor(ident).params
    signed = {n: SpecMonomial.signed(s, e) for n, s, e in zip(names, signs, expos)}
    try:
        signed_sides = build_sides(ident, ParamAssignment(base, signed), order)
    except DomainError:
        reject()
    symbolic = {n: symbolic_param(n, e) for n, e in zip(names, expos)}
    symbolic_sides = build_sides(ident, ParamAssignment(base, symbolic), order)
    for sym, sgn in zip(symbolic_sides, signed_sides):
        for name, s in zip(names, signs):
            sym = sym.subst_unit(identities._PARAM_VARS[name], s)
        assert [sym.coeff(n) for n in range(order + 1)] == [
            sgn.coeff(n) for n in range(order + 1)
        ], (ident, base, order, signed)
