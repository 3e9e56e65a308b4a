"""Acceptance checklist: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
success). Every criterion recomputes what it claims from scratch — fixed
specs, randomized trials, and the independent arithmetic oracles.
"""

import json
import random
import time
from fractions import Fraction

from qidx.constructors import (
    SpecMonomial,
    W_ONE,
    generalized_lambert,
    l_func,
    pf_sum,
    poch_fin,
    poch_inf,
)
from qidx.exactalg import VAR_B, LaurentPoly
from qidx.identities import (
    DEFAULT_BASES,
    PRINTED_COROLLARIES,
    ParamAssignment,
    check_identity,
    derived_corollary_reports,
    random_spec,
    run_suite,
    suite_ok,
    symbolic_param,
)
from qidx.numtheory import lattice_rep_sum, signed_theta_quotient, verify_rep_range
from qidx.qring import QSeries


def _check(num, label, ok, detail):
    print(f"acceptance {num:>2} {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {num} {label}: {detail}"


def _spread(ident, trials, order, seed_tag, symbolic=False):
    """Randomized specs across the default bases; returns failing reports."""
    bad = []
    for t in range(trials):
        base = DEFAULT_BASES[t % len(DEFAULT_BASES)]
        assign = random_spec(ident, base=base, seed=f"{seed_tag}:{t}", symbolic=symbolic)
        report = check_identity(ident, assign, order)
        if not report.ok:
            bad.append((ident, base, assign.spec_string(), report.status))
    return bad


def test_criterion_01_triple_product():
    start = time.perf_counter()
    sym = check_identity("1.1", ParamAssignment(5, {"z": symbolic_param("z", 0)}), 40)
    bad = [] if sym.ok else [("symbolic", sym.status)]
    for t in range(50):
        base = DEFAULT_BASES[t % len(DEFAULT_BASES)]
        assign = random_spec("1.1", base=base, seed=f"acc1:{t}")
        report = check_identity("1.1", assign, 200)
        if not report.ok:
            bad.append((base, assign.spec_string()))
    elapsed = time.perf_counter() - start
    _check(
        1,
        "triple product",
        not bad and elapsed < 5.0,
        f"symbolic@40 + 50 signed specs@200 in {elapsed:.2f}s (budget 5s); fails={bad}",
    )


def test_criterion_02_partial_fraction():
    sym = check_identity("1.2", ParamAssignment(3, {"z": symbolic_param("z", 0)}), 40)
    spot = pf_sum(SpecMonomial.signed(-1, 0), 1, 8, cleared=False).coeff(0)
    ok = sym.ok and spot == Fraction(1, 2)
    _check(
        2,
        "partial fraction",
        ok,
        f"cross-multiplied symbolic@40 {sym.status}; raw q^0 at unit -1 = {spot} (want 1/2)",
    )


def test_criterion_03_two_parameter_chain():
    idents = ("2.1", "2.2", "2.3", "2.5", "2.7", "2.8", "2.9", "2.10")
    bad = []
    for ident in idents:
        bad += _spread(ident, 25, 100, f"acc3:{ident}")
        bad += _spread(ident, 5, 40, f"acc3s:{ident}", symbolic=True)
    _check(
        3,
        "two-parameter chain",
        not bad,
        f"{len(idents)} identities x (25 signed@100 + 5 symbolic@40); fails={bad}",
    )


def test_criterion_04_three_parameter_product():
    fixed7 = ParamAssignment(
        7, {name: SpecMonomial.signed(-1, e) for name, e in zip("abc", (1, 2, 4))}
    )
    fixed9 = ParamAssignment(
        9, {name: SpecMonomial.signed(1, e) for name, e in zip("abc", (1, 2, 3))}
    )
    bad = []
    for assign in (fixed7, fixed9):
        report = check_identity("1.3", assign, 200)
        if not report.ok:
            bad.append((assign.base, assign.spec_string(), report.status))
    bad += _spread("1.3", 25, 100, "acc4")
    bad += _spread("1.3", 5, 60, "acc4s", symbolic=True)
    _check(
        4,
        "three-parameter product",
        not bad,
        f"two fixed specs@200 + 25 signed@100 + 5 symbolic@60; fails={bad}",
    )


def test_criterion_05_lambert_squares():
    idents = ("1.4", "1.5", "2.11", "2.12", "2.13", "3.8")
    bad = []
    for ident in idents:
        bad += _spread(ident, 25, 100, f"acc5:{ident}")
    # independent route to the first bracket of 2.12: coefficientwise Euler
    # operator applied to l(b) in symbolic-unit mode
    euler_bad = []
    for t in range(10):
        base = DEFAULT_BASES[t % len(DEFAULT_BASES)]
        rng = random.Random(f"acc5e:{t}")
        b = SpecMonomial.symbolic(VAR_B, rng.randrange(1, base))
        lb = l_func(b, base, 40)
        bracket = generalized_lambert(
            SpecMonomial.one(), b, 2, W_ONE, 0, base, 40
        ) + generalized_lambert(
            SpecMonomial.one(), b.inv(), 2, W_ONE, 1, base, 40
        )
        euler = lb.euler(VAR_B)
        assert euler.order >= 40 and bracket.order >= 40
        equal, first = euler.eq_upto(bracket, 40)
        if not equal:
            euler_bad.append((base, b.qexp, first))
    _check(
        5,
        "lambert squares",
        not bad and not euler_bad,
        f"6 identities x 25 signed@100; 10 Euler-operator cross-checks@40; "
        f"fails={bad + euler_bad}",
    )


def test_criterion_06_pinned_corollaries():
    derived_bad = []
    localized = {}
    for ident in sorted(PRINTED_COROLLARIES):
        for report in derived_corollary_reports(ident, 200):
            if report.derives is not None and not report.ok:
                derived_bad.append((report.identity, report.spec, report.first_mismatch))
            if report.spec == "printed" and report.first_mismatch:
                localized[ident] = report.first_mismatch[0]
    expected = {"3.4": 10, "3.5": 10}  # transcription gaps in the source text
    ok = not derived_bad and localized == expected
    _check(
        6,
        "pinned corollaries",
        ok,
        f"substitution-derived forms equal@200; printed-form discrepancies "
        f"localized to first exponent: {localized or 'none'} (derived fails: "
        f"{derived_bad or 'none'})",
    )


def test_criterion_07_representation_counts():
    start = time.perf_counter()
    full = verify_rep_range(1000)
    elapsed = time.perf_counter() - start
    theta = verify_rep_range(300, theta_order=300)
    quotient = signed_theta_quotient(300)
    quotient_bad = [
        n for n in range(301) if quotient.coeff(n) != lattice_rep_sum(n)
    ]
    ok = (
        full.ok
        and elapsed < 10.0
        and theta.ok
        and not quotient_bad
    )
    _check(
        7,
        "representation counts",
        ok,
        f"count=prediction for N<=1000 in {elapsed:.2f}s (budget 10s); theta "
        f"lattice cross-check N<=300; signed product quotient N<=300; "
        f"mismatches={full.mismatches + theta.theta_mismatches + quotient_bad}",
    )


def test_criterion_08_pentagonal_signs():
    series = poch_inf(SpecMonomial.signed(1, 1), 1, 200)
    expected = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= 200:
        sign = -1 if k % 2 else 1
        expected[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 <= 200:
            expected[k * (3 * k + 1) // 2] = sign
        k += 1
    bad = [n for n in range(201) if series.coeff(n) != expected.get(n, 0)]
    _check(
        8,
        "pentagonal signs",
        not bad,
        f"poch(q)@200: +/-1 exactly at {len(expected) - 1} generalized "
        f"pentagonal exponents, 0 elsewhere; fails={bad}",
    )


def _random_laurent(rng):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        mono = tuple(rng.randrange(-2, 3) for _ in range(4))
        terms[mono] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return LaurentPoly(terms)


def _random_series(rng, order):
    out = QSeries.zero(order)
    for _ in range(rng.randrange(1, 5)):
        out = out + QSeries.monomial(
            rng.randrange(-4, 5), rng.randrange(-3, order + 1), order
        )
    return out


def test_criterion_09_randomized_property_suites():
    # coefficient ring: distributivity and commutativity
    rng = random.Random("acc9:laurent")
    for _ in range(1000):
        p, s, t = (_random_laurent(rng) for _ in range(3))
        assert p * (s + t) == p * s + p * t
        assert p * s == s * p

    # series ring: bilinearity and associativity at a fixed window
    rng = random.Random("acc9:series")
    for _ in range(1000):
        x, y, z = (_random_series(rng, 12) for _ in range(3))
        lhs = (x + y) * z
        rhs = x * z + y * z
        ok, first = lhs.eq_upto(rhs, min(lhs.order, rhs.order))
        assert ok, first
        a = (x * y) * z
        b = x * (y * z)
        ok, first = a.eq_upto(b, min(a.order, b.order))
        assert ok, first

    # product constructors: stripping the leading factor shifts the argument
    rng = random.Random("acc9:poch")
    for _ in range(1000):
        m = rng.randrange(1, 9)
        x = SpecMonomial.signed(rng.choice((1, -1)), rng.randrange(0, 7))
        whole = poch_inf(x, m, 20)
        shifted = poch_fin(x, 1, m, 20) * poch_inf(x.times_qpow(m), m, 20)
        ok, first = whole.eq_upto(shifted, 20)
        assert ok, first

    _check(
        9,
        "randomized property suites",
        True,
        "1000 coefficient-ring + 1000 series-ring + 1000 constructor cases",
    )


def test_criterion_10_full_suite_determinism():
    start = time.perf_counter()
    first = run_suite()
    elapsed = time.perf_counter() - start
    second = run_suite()

    def strip(reports):
        rows = [r.to_json_dict() for r in reports]
        for row in rows:
            row["runtime_ms"] = 0
        return json.dumps(rows, sort_keys=True)

    ok = suite_ok(first) and elapsed < 60.0 and strip(first) == strip(second)
    _check(
        10,
        "full suite",
        ok,
        f"{len(first)} checks in {elapsed:.1f}s (budget 60s); suite verdict "
        f"{'pass' if suite_ok(first) else 'FAIL'}; repeat run byte-identical "
        f"after dropping timings",
    )
