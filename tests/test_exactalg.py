"""Property tests for the exact Laurent-polynomial coefficient ring and its
storage form."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qidx
from qidx.errors import NonUnitLeadingError
from qidx.exactalg import (
    MONO_ONE,
    NVARS,
    VAR_A,
    VAR_B,
    LaurentPoly,
    canon,
    coerce,
    column,
    inverse,
    mono_inv,
    mono_mul,
)


def random_poly(rng, max_terms=5, max_exp=3, frac_chance=0.15):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randint(-max_exp, max_exp) for _ in range(NVARS))
        if rng.random() < frac_chance:
            c = Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4]))
        else:
            c = rng.randint(-9, 9)
        terms[mono] = terms.get(mono, 0) + c
    return LaurentPoly(terms)


def test_ring_axioms_random():
    """Associativity, commutativity, distributivity, identities, inverses."""
    rng = random.Random(20260819)
    zero = LaurentPoly.zero()
    one = LaurentPoly.const(1)
    for _ in range(1000):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == zero
        assert p + zero == p
        assert p * one == p
        assert p * zero == zero


def test_canonical_form():
    # zero coefficients are dropped, integral fractions collapse to int
    p = LaurentPoly({(1, 0, 0, 0): Fraction(4, 2), (0, 1, 0, 0): 0})
    assert p.terms == {(1, 0, 0, 0): 2}
    assert isinstance(p.terms[(1, 0, 0, 0)], int)
    assert canon(Fraction(6, 3)) == 2
    assert isinstance(canon(Fraction(6, 3)), int)
    assert canon(Fraction(1, 2)) == Fraction(1, 2)


def test_equality_with_scalars():
    assert LaurentPoly.const(5) == 5
    assert LaurentPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert LaurentPoly.zero() == 0
    assert LaurentPoly.var(VAR_A) != 1
    assert 5 + LaurentPoly.const(-5) == 0


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng, max_terms=3, max_exp=2)
        acc = LaurentPoly.const(1)
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_negative_pow_of_unit():
    u = LaurentPoly.monomial((2, -1, 0, 0), Fraction(3, 2))
    w = u**-2
    assert w * u * u == 1
    assert w == LaurentPoly.monomial((-4, 2, 0, 0), Fraction(4, 9))
    with pytest.raises(ValueError):
        (LaurentPoly.var(VAR_A) + 1) ** -1


def test_as_unit_detection():
    assert LaurentPoly.monomial((1, 2, 0, -1), -3).as_unit() == ((1, 2, 0, -1), -3)
    assert LaurentPoly.const(7).as_unit() == (MONO_ONE, 7)
    assert LaurentPoly.zero().as_unit() is None
    assert (LaurentPoly.var(VAR_A) + 1).as_unit() is None


def test_mono_helpers():
    assert mono_mul((1, 2, 0, 0), (0, -2, 3, 1)) == (1, 0, 3, 1)
    assert mono_inv((1, -2, 0, 4)) == (-1, 2, 0, -4)


def test_euler_weights_exponents():
    # euler of var acts as c * mono -> (exponent of var) * c * mono
    p = LaurentPoly({(2, -1, 0, 0): 2, MONO_ONE: 3})
    assert p.euler(VAR_A) == LaurentPoly({(2, -1, 0, 0): 4})
    assert p.euler(VAR_B) == LaurentPoly({(2, -1, 0, 0): -2})


def test_euler_is_a_derivation():
    """Leibniz rule: E(pq) = E(p) q + p E(q) for every variable."""
    rng = random.Random(99)
    for _ in range(250):
        p = random_poly(rng, max_terms=4)
        q = random_poly(rng, max_terms=4)
        for v in range(NVARS):
            assert (p * q).euler(v) == p.euler(v) * q + p * q.euler(v)


def test_subst_unit_is_a_ring_hom():
    rng = random.Random(123)
    for _ in range(250):
        p = random_poly(rng, max_terms=4)
        q = random_poly(rng, max_terms=4)
        v = rng.randrange(NVARS)
        s = rng.choice([1, -1])
        assert (p + q).subst_unit(v, s) == p.subst_unit(v, s) + q.subst_unit(v, s)
        assert (p * q).subst_unit(v, s) == p.subst_unit(v, s) * q.subst_unit(v, s)


def test_subst_unit_examples():
    p = LaurentPoly({(3, 0, 0, 0): 1, (1, 0, 0, 0): 1})  # ta^3 + ta
    assert p.subst_unit(VAR_A, -1) == -2
    assert p.subst_unit(VAR_A, 1) == 2
    q = LaurentPoly({(1, 1, 0, 0): 1, (0, 1, 0, 0): 1})  # ta tb + tb
    assert q.subst_unit(VAR_A, -1) == LaurentPoly.zero()


def test_str_rendering():
    p = LaurentPoly({(2, -1, 0, 0): 2, MONO_ONE: 3})
    assert str(p) == "3 + 2*ta^2*tb^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.var(VAR_A) - 1) == "-1 + ta"
    assert str(LaurentPoly.const(Fraction(-1, 2))) == "-1/2"


# ---------------------------------------------------------------------------
# the storage form

monomials = st.tuples(*[st.integers(-2, 2)] * NVARS) | st.just(MONO_ONE)
scalars = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
nonzero = scalars.filter(bool)
pairs = st.lists(st.tuples(monomials, scalars), max_size=4)


@st.composite
def term_dicts(draw):
    """Terms as arithmetic leaves them: zero and integral Fraction values,
    terms that cancel, and dicts of the constant monomial alone."""
    terms = draw(pairs | pairs.map(lambda ps: [(MONO_ONE, c) for _, c in ps]))
    terms += [(mono, -c) for mono, c in terms if draw(st.booleans())]
    out = {}
    for mono, c in terms:
        out[mono] = out.get(mono, 0) + c
    return out


def typed(c):
    """A coefficient with its exact type, and each term's type if a polynomial."""
    if type(c) is LaurentPoly:
        return LaurentPoly, sorted((mono, type(v), v) for mono, v in c.terms.items())
    return type(c), c


@settings(max_examples=300, deadline=None)
@given(term_dicts())
def test_column_of_the_nonzero_terms_is_the_coerced_polynomial(raw):
    poly = LaurentPoly(raw)
    built = column({mono: canon(c) for mono, c in raw.items() if c})
    assert typed(built) == typed(coerce(poly))
    for c in [poly, built, *raw.values()]:
        assert typed(canon(canon(c))) == typed(canon(c))


@settings(max_examples=300, deadline=None)
@given(monomials, nonzero, monomials, nonzero)
def test_inverse_inverts_exactly_the_units(mono, c, other, d):
    u = coerce(LaurentPoly({mono: c}))
    assert typed(canon(inverse(u) * u)) == (int, 1)
    for zero in (0, Fraction(0), LaurentPoly.zero()):
        with pytest.raises(NonUnitLeadingError):
            inverse(zero)
    if other != mono:
        with pytest.raises(NonUnitLeadingError):
            inverse(LaurentPoly({mono: c, other: d}))


def test_only_exactalg_builds_polynomials_from_raw_terms():
    callers = {
        path.name
        for path in Path(qidx.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_raw"
    }
    assert callers == {"exactalg.py"}
