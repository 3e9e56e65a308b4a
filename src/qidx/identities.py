"""Registry of two-sided series identities and the checking machinery.

Each entry pairs a builder (producing left and right truncated series for a
parameter assignment) with a ``Constraint``: one datum per family stating the
parameter window, from which validation and the sampling region are derived.
The note ``qidx list`` shows is not derived: each ``Constraint`` states it as
a literal ``note=`` string beside its rules.  The same descriptor drives fixed
regression specs, randomized trials, and the CLI.

Identity ids are short string labels ("1.1", "2.7", "phi", ...) fixed by the
public interface; parameters are monomial substitutions q^e with a sign or a
symbolic unit attached, constrained to windows where every constituent series
is a well-defined unit-leading truncation.

A builder writes each linear combination of one-sided Lambert sums on its
sides as one list of ``lambert_sum`` terms (c, M, x, s, W, r0), with the
terms of c * l(b) from ``_l_terms``; constants are added and products taken
on the finished series, the two-sided products (x)(q^m/x) through
``poch_pair``.  Term coefficients stay integers: a fractional factor scales
the combined series once.

``_report`` makes and times every ``CheckReport``, for ``check_identity``
and for the two rows of the 3.6 derivation.  The printed corollaries are the
fixed-base rows; each parent is checked at its corollary's base.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial, reduce
from operator import itemgetter
from fractions import Fraction

from .constructors import (
    W_ONE,
    W_R,
    AffineWeight,
    SpecMonomial,
    Unit,
    _l_terms,
    char_lambert,
    check_base,
    jk_partial_a,
    jk_product_form,
    jordan_kronecker,
    l_func,
    lambert_sum,
    n_weighted_sum,
    phi_minus,
    pf_sum,
    poch_fin,
    poch_inf,
    poch_pair,
    term_series,
    theta_sum,
    times_spec_monomial,
)
from .errors import (
    ConstraintViolationError,
    DivergentTailError,
    EmptyConstraintSetError,
    NegativeOrderArgumentError,
    OrderExceededError,
    PoleError,
    SymbolicNonUnitError,
)
from .numtheory import CHI1, CHI2, CHI3
from .qring import QSeries

# ---------------------------------------------------------------------------
# parameter assignments

_PARAM_VARS = {"a": 0, "b": 1, "c": 2, "d": 3, "z": 0}

_DOMAIN_ERRORS = (
    ConstraintViolationError,
    DivergentTailError,
    EmptyConstraintSetError,
    NegativeOrderArgumentError,
    PoleError,
    SymbolicNonUnitError,
)


class ParamAssignment:
    """A base q -> q^m together with monomial values for named parameters."""

    __slots__ = ("base", "params")

    def __init__(self, base: int, params: dict[str, SpecMonomial] | None = None):
        self.base = base
        self.params = {} if params is None else params

    def spec_string(self) -> str:
        parts = []
        for name in sorted(self.params):
            x = self.params[name]
            if x.unit.symbolic:
                parts.append(f"{name}=~q^{x.qexp}")
            elif x.unit.sign < 0:
                parts.append(f"{name}=-q^{x.qexp}")
            else:
                parts.append(f"{name}=q^{x.qexp}")
        return ",".join(parts)


def symbolic_param(name: str, qexp: int) -> SpecMonomial:
    """Parameter value tau_name * q^qexp with a fresh commuting unit."""
    return SpecMonomial.symbolic(_PARAM_VARS[name], qexp)


# ---------------------------------------------------------------------------
# check reports


class CheckReport:
    """One check's outcome; ``status`` is "equal", "mismatch" or
    "constraint-violation", and ``first_mismatch`` (exponent, lhs, rhs)."""

    __slots__ = (
        "identity", "base", "spec", "order_requested", "order_compared", "status",
        "first_mismatch", "runtime_ms", "seed", "detail",
    )

    def __init__(
        self, identity: str, base: int, spec: str, order_requested: int,
        order_compared: int | None, status: str,
        first_mismatch: tuple[int, str, str] | None, runtime_ms: float,
        seed: str | None = None, detail: str | None = None,
    ):
        self.identity, self.base, self.spec = identity, base, spec
        self.order_requested, self.order_compared = order_requested, order_compared
        self.status, self.first_mismatch, self.runtime_ms = status, first_mismatch, runtime_ms
        self.seed, self.detail = seed, detail

    @property
    def ok(self) -> bool:
        return self.status == "equal"

    def to_json_dict(self) -> dict:
        """The fields in slot order, ``detail`` only when set."""
        out = {name: getattr(self, name) for name in self.__slots__}
        if (fm := self.first_mismatch) is not None:
            out["first_mismatch"] = {"exponent": fm[0], "lhs": fm[1], "rhs": fm[2]}
        out["runtime_ms"] = round(self.runtime_ms, 3)
        if self.detail is None:
            del out["detail"]
        return out


# ---------------------------------------------------------------------------
# parameter constraints

# order bounds on one parameter
THETA = "0 <= ord <= base"  # a symbolic value sits at q^0
INTERIOR = "0 < ord < base"
POSITIVE = "positive order"

# boundary-unit rules: the unit a sum group's product needs to reach the base
UNIT_MINUS = "must carry a -1 unit"
UNIT_NOT_PLUS = "must not carry a +1 unit"
_BOUNDARY_OK = {
    UNIT_MINUS: lambda u: u == Unit(-1),
    UNIT_NOT_PLUS: lambda u: not u.is_plus_one(),
}


class Constraint:
    """The parameter window of one identity family, stated once: validation,
    the sampling region and the ``list`` note all read it.

    ``names`` spells the parameters one letter each, with one bound per
    parameter in ``bounds``.  Each group of ``sums`` has orders summing
    below the base; a ``boundary`` rule lets it reach the base when its
    product's unit obeys the rule.  ``pole_unit`` asks a signed THETA
    parameter at order 0 mod base to carry unit -1.
    """

    __slots__ = ("names", "bounds", "sums", "boundary", "pole_unit", "note")

    def __init__(
        self, names: str, bounds: tuple[str, ...], sums: tuple[str, ...] = (),
        boundary: str | None = None, pole_unit: bool = False, note: str = "",
    ):
        self.names, self.bounds, self.sums = names, bounds, sums
        self.boundary, self.pole_unit, self.note = boundary, pole_unit, note

    def violation(self, params: dict[str, SpecMonomial], m: int) -> str | None:
        """The first rule the assignment breaks, as a message, or None."""
        for name, bound in zip(self.names, self.bounds):
            x = params[name]
            e = x.qexp
            if bound == THETA:
                if x.unit.symbolic:
                    if e != 0:
                        return f"symbolic {name} must sit at q^0, got q^{e}"
                elif not 0 <= e <= m:
                    return f"{name} must satisfy {THETA}, got ord {e} at base {m}"
                elif self.pole_unit and e % m == 0 and x.unit.sign != -1:
                    return f"{name} at order 0 mod base {UNIT_MINUS}"
            elif bound == INTERIOR:
                if not 0 < e < m:
                    return f"{name} must satisfy {INTERIOR}, got ord {e} at base {m}"
            elif e < 1:
                return f"{name} must have {POSITIVE}, got {e}"
        for group in self.sums:
            s = sum(params[name].qexp for name in group)
            if s < m:
                continue
            orders = " and ".join(group) if len(group) == 2 else ", ".join(group)
            if self.boundary is None:
                return f"orders of {orders} must sum to less than the base; got {s} >= {m}"
            if s > m:
                return f"orders of {orders} must sum to at most the base; got {s} > {m}"
            unit = reduce(Unit.mul, (params[name].unit for name in group))
            if not _BOUNDARY_OK[self.boundary](unit):
                return f"at the boundary sum == base, {group} {self.boundary}"
        return None

    def validate(self, params: dict[str, SpecMonomial], m: int) -> None:
        msg = self.violation(params, m)
        if msg is not None:
            raise ConstraintViolationError(msg)

    def region(self, m: int) -> list[tuple[int, ...]]:
        """Every exponent tuple with strict sums, in lexicographic order; each
        sum group prunes the tuples as soon as its last parameter is placed."""
        tuples = [()]
        for name, bound in zip(self.names, self.bounds):
            r = range(0, m + 1) if bound == THETA else range(1, m)
            tuples = [t + (e,) for t in tuples for e in r]
            for group in (g for g in self.sums if g[-1] == name):
                orders = itemgetter(*map(self.names.index, group))
                tuples = [t for t in tuples if sum(orders(t)) < m]
        return tuples


# ---------------------------------------------------------------------------
# descriptor plumbing

class IdentityDescriptor:
    """One registry entry.  ``build(params, m, order)`` takes the parameter
    dict (name -> ``SpecMonomial``), the base and the order, and returns the
    (left, right) pair of truncated ``QSeries``."""

    __slots__ = ("ident", "build", "constraint", "note", "fixed_base", "symbolic_trials")

    def __init__(
        self, ident: str, build, constraint: Constraint | None = None,
        note: str | None = None,  # defaults to the constraint's, else "fixed base N"
        fixed_base: int | None = None,  # corollaries pin their own base
        symbolic_trials: int = 5,
    ):
        self.ident, self.build, self.constraint = ident, build, constraint
        if note is None:
            note = constraint.note if constraint else f"fixed base {fixed_base}"
        self.note, self.fixed_base, self.symbolic_trials = note, fixed_base, symbolic_trials

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.constraint.names) if self.constraint else ()


def get_descriptor(ident: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise KeyError(f"unknown identity id {ident!r}") from None


def list_identities() -> list[dict]:
    """Stable-order summaries of every registered identity."""
    return [
        {
            "identity": d.ident,
            "params": list(d.params),
            "base": d.fixed_base,
            "constraints": d.note,
        }
        for d in _REGISTRY.values()
    ]


# ---------------------------------------------------------------------------
# builder helpers


def _Pq(m: int, order: int) -> QSeries:
    return poch_inf(SpecMonomial.signed(1, m), m, order)


def _q(j: int) -> SpecMonomial:
    return SpecMonomial.signed(1, j)


_ONE = _q(0)


def _cross_terms(b: SpecMonomial, c: SpecMonomial) -> list:
    """The lambert_sum terms of the sum over n >= 1 of (b^n + b^-n + c^n +
    c^-n - (bc)^n - (bc)^-n - 2) q^{mn} / (1 - q^{mn})^2."""
    bc = b.mul(c)
    signed = ((b, 1), (b.inv(), 1), (c, 1), (c.inv(), 1), (bc, -1), (bc.inv(), -1))
    return [(sgn, x, _ONE, 2, W_ONE, 1) for x, sgn in signed + ((_ONE, -2),)]


# ---------------------------------------------------------------------------
# builders: theta and partial-fraction expansions


def _build_1_1(params, m, order):
    z = params["z"]
    lhs = _Pq(m, order) * poch_pair(z, m, order)
    rhs = theta_sum(z, m, order)
    return lhs, rhs


def _build_1_2(params, m, order):
    z = params["z"]
    pq = _Pq(m, order)
    lhs = pq * pq
    rhs = (
        pf_sum(z, m, order)
        * poch_inf(z.times_qpow(m), m, order)
        * poch_inf(z.inv().times_qpow(m), m, order)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# builders: the three-parameter product identity


def _build_1_3(params, m, order):
    a, b, c = params["a"], params["b"], params["c"]
    abc = a.mul(b).mul(c)
    pq = _Pq(m, order)
    lhs = pq * pq
    for pairarg in (a.mul(b), a.mul(c), b.mul(c)):
        lhs = lhs * poch_pair(pairarg, m, order)
    brace = _l_terms(m, [(a, 1), (b, 1), (c, 1), (abc, -1)])
    rhs = QSeries.const(1, order) + lambert_sum(brace, m, order)
    for x in (a, b, c, abc):
        rhs = rhs * poch_pair(x, m, order)
    return lhs, rhs


# ---------------------------------------------------------------------------
# builders: two-parameter Lambert product identities


def _build_1_4(params, m, order):
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    left, right = (lambert_sum(_l_terms(m, [(x, 1), (bc, -1)]), m, order) for x in (b, c))
    terms = [(1, x, _ONE, 1, W_R, 1) for x in (bc, bc.inv())] + _cross_terms(b, c)
    rhs = term_series(bc, 2, order) + lambert_sum(terms, m, order)
    return left * right, rhs


def _build_1_5(params, m, order):
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    brace = lambert_sum(_l_terms(m, [(b, 1), (c, 1), (bc, -1)]), m, order)
    brace = QSeries.const(Fraction(1, 2), order) + brace
    terms = [(1, _ONE, x, 2, W_ONE, 0) for x in (b, c, bc)]
    terms += [(1, _ONE, x.inv(), 2, W_ONE, 1) for x in (b, c, bc)]
    terms.append((-6, _ONE, _ONE, 2, W_ONE, 1))
    rhs = QSeries.const(Fraction(1, 4), order) + lambert_sum(terms, m, order)
    return brace * brace, rhs


def _build_2_11(params, m, order):
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    lb, lc, lbc = (l_func(x, m, order) for x in (b, c, bc))
    terms = _cross_terms(b, c) + [(1, _ONE, bc, 2, W_ONE, 0), (1, _ONE, bc.inv(), 2, W_ONE, 1)]
    rhs = lbc * (lb + lc - lbc) + lambert_sum(terms, m, order)
    return lb * lc, rhs


def _build_2_12(params, m, order):
    b = params["b"]
    lb = l_func(b, m, order)
    terms = [(1, _ONE, b, 2, W_ONE, 0), (1, _ONE, b.inv(), 2, W_ONE, 1)]
    terms += _l_terms(m, [(b, -1)])
    terms += [(-2, x, _ONE, 2, W_ONE, 1) for x in (b, b.inv(), _ONE)]
    return lb * lb, lambert_sum(terms, m, order)


# ---------------------------------------------------------------------------
# builders: bilateral-series family


def _build_2_1(params, m, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order)
    rhs = jordan_kronecker(b, a, m, order)
    return lhs, rhs


def _build_2_2(params, m, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order)
    inner = jordan_kronecker(a.inv().times_qpow(m), b.inv(), m, order + b.qexp)
    rhs = -times_spec_monomial(inner, b.inv())
    return lhs, rhs


def _build_2_3(params, m, order):
    a, b = params["a"], params["b"]
    pad = order + m
    oma = poch_fin(a, 1, m, pad)
    omb = poch_fin(b, 1, m, pad)
    lhs = jordan_kronecker(a, b, m, pad) * oma * omb
    terms = [(1, a, b, 1, W_ONE, 1), (-1, a.inv(), b.inv(), 1, W_ONE, 1)]
    rhs = poch_fin(a.mul(b), 1, m, pad) + oma * omb * lambert_sum(terms, m, pad)
    return lhs, rhs


def _build_2_5(params, m, order):
    a, b = params["a"], params["b"]
    lhs = times_spec_monomial(
        jordan_kronecker(a, b.times_qpow(m), m, order), a
    )
    rhs = jordan_kronecker(a, b, m, order)
    return lhs, rhs


def _build_2_6(params, m, order):
    a, b = params["a"], params["b"]
    lhs = n_weighted_sum(a, b, m, order)
    rhs = times_spec_monomial(jk_partial_a(a, b, m, order), a)
    return lhs, rhs


def _build_2_7(params, m, order):
    a, b = params["a"], params["b"]
    pq = _Pq(m, order)
    lhs = pq * poch_pair(a, m, order) * poch_pair(b, m, order)
    lhs = lhs * jordan_kronecker(a, b, m, order)
    rhs = pq * pq * pq * poch_pair(a.mul(b), m, order)
    return lhs, rhs


def _build_2_8(params, m, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order)
    rhs = jk_product_form(a, b, m, order)
    return lhs, rhs


def _build_2_9(params, m, order):
    a, b, c = params["a"], params["b"], params["c"]
    bc = b.mul(c)
    lhs = n_weighted_sum(a, bc, m, order)
    brace = lambert_sum(_l_terms(m, [(a, 1), (a.mul(bc), -1)]), m, order)
    rhs = jordan_kronecker(a, bc, m, order) * brace
    return lhs, rhs


def _build_2_10(params, m, order):
    a, b, c = params["a"], params["b"], params["c"]
    bc = b.mul(c)
    lhs = jordan_kronecker(a, b, m, order) * jordan_kronecker(a, c, m, order)
    brace = _l_terms(m, [(a, 1), (b, 1), (c, 1), (a.mul(bc), -1)])
    brace = QSeries.const(1, order) + lambert_sum(brace, m, order)
    rhs = jordan_kronecker(a, bc, m, order) * brace
    return lhs, rhs


# ---------------------------------------------------------------------------
# builders: four-parameter identity


def _build_3_8(params, m, order):
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    ab, cd = a.mul(b), c.mul(d)
    first = _l_terms(m, [(a, 1), (b, 1), (c, -1), (d, -1), (ab, -1), (cd, 1)])
    second = _l_terms(m, [(a, 1), (b, 1), (c, 1), (d, 1), (ab, -1), (cd, -1)])
    lhs = lambert_sum(first, m, order) * (
        QSeries.const(1, order) + lambert_sum(second, m, order)
    )
    signed = ((a, 1), (b, 1), (ab, 1), (c, -1), (d, -1), (cd, -1))
    terms = [(sgn, _ONE, x, 2, W_ONE, 0) for x, sgn in signed]
    terms += [(sgn, _ONE, x.inv(), 2, W_ONE, 1) for x, sgn in signed]
    return lhs, lambert_sum(terms, m, order)


# ---------------------------------------------------------------------------
# builders: fixed-base corollaries


def _build_3_1(params, m, order):
    del params
    # the printed 2 * (1/2 + the signed sums), with the 2 taken into the terms
    signed = ((1, 1), (2, 1), (4, 1), (3, -1), (5, -1), (6, -1))
    terms = [(2 * sgn, _ONE, SpecMonomial.signed(-1, j), 1, W_ONE, 0) for j, sgn in signed]
    s = QSeries.const(1, order) + lambert_sum(terms, 7, order)
    neg7 = poch_inf(SpecMonomial.signed(-1, 7), 7, order)
    neg1 = poch_inf(SpecMonomial.signed(-1, 1), 1, order)
    lhs = s * neg7 * neg1
    rhs = _Pq(7, order) * _Pq(1, order)
    return lhs, rhs


def _build_3_3(params, m, order):
    del params
    terms = []
    for j, w in ((1, 1), (2, 1), (3, 2)):
        terms += [(w, _ONE, _q(j), 1, W_ONE, 0), (-w, _ONE, _q(9 - j), 1, W_ONE, 0)]
    s = QSeries.const(1, order) + lambert_sum(terms, 9, order)
    lhs = s * _Pq(1, order)
    cube = (
        _Pq(9, order)
        * poch_inf(SpecMonomial.signed(1, 4), 9, order)
        * poch_inf(SpecMonomial.signed(1, 5), 9, order)
    )
    rhs = cube * cube * cube
    return lhs, rhs


def _build_3_4_5(k, params, m, order):
    """3.4 (k = 1) and 3.5 (k = 2): one identity under the residue map
    j -> k*j mod 5, which acts on the brace signs and on every q^j of the
    right side."""
    del params
    signed = ((1, 1), (2, -1), (3, 1), (4, -1))
    brace = lambert_sum(
        [(sgn, _ONE, _q(k * j % 5), 1, W_ONE, 0) for j, sgn in signed], 5, order
    )
    terms = [(1, _ONE, _q(k * j % 5), 2, W_ONE, 0) for j in (2, 3)]
    for j, weight, r0, sgn in (
        (1, AffineWeight(2, 0), 1, 1),
        (2, AffineWeight(1, 0), 1, -1),
        (4, AffineWeight(2, 2), 0, 1),
        (3, AffineWeight(1, 1), 0, -1),
    ):
        terms.append((sgn, _ONE, _q(k * j % 5), 1, weight, r0))
    terms.append((-2, _ONE, _ONE, 1, W_ONE, 1))
    return brace * brace, lambert_sum(terms, 5, order)


def _build_3_6(params, m, order):
    del params

    def g(j: int, c: int = 1):
        return (c, _ONE, _q(j), 1, W_ONE, 0)

    lhs = lambert_sum([g(1), g(4, -1)], 5, order) * lambert_sum([g(2), g(3, -1)], 5, order)
    # four times the printed right side, kept in integer coefficients
    terms = [(sgn, _ONE, _q(j), 2, W_ONE, 0) for j, sgn in ((1, 1), (2, -1), (3, -1), (4, 1))]
    terms += [(3 * sgn, _ONE, _q(j), 1, W_R, 1) for j, sgn in ((2, 1), (1, -1), (3, 1), (4, -1))]
    terms += [g(1, -1), g(4, -2), g(3, 3)]
    return lhs, lambert_sum(terms, 5, order).scale(Fraction(1, 4))


def _build_3_7(params, m, order):
    del params
    signed = ((1, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1))
    s = lambert_sum([(sgn, _ONE, _q(j), 1, W_ONE, 0) for j, sgn in signed], 7, order)
    s = QSeries.const(Fraction(1, 2), order) + s
    # the two printed sums run in different bases, q and q^7
    rhs = QSeries.const(Fraction(1, 4), order)
    rhs = rhs + lambert_sum([(1, _ONE, _ONE, 1, W_R, 1)], 1, order)
    rhs = rhs + lambert_sum([(-7, _ONE, _ONE, 1, W_R, 1)], 7, order)
    return s * s, rhs


def _build_3_9(params, m, order):
    del params
    s1 = char_lambert(CHI1, 1, order)
    s2 = char_lambert(CHI2, 1, order)
    s3 = char_lambert(CHI3, 2, order)
    lhs = s1 * (QSeries.const(1, order) + s2)
    return lhs, s3


def _build_phi(params, m, order):
    del params
    lhs = _Pq(m, order)
    rhs = phi_minus(m, order) * poch_inf(SpecMonomial.signed(-1, m), m, order)
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry

_THETA_Z = Constraint("z", (THETA,), note="0 <= ord(z) <= base (symbolic z at q^0)")
_THETA_Z_POLE = Constraint(
    "z", (THETA,), pole_unit=True,
    note="0 <= ord(z) <= base; at ord 0 mod base the unit must be -1",
)
_ABC_PRODUCT = Constraint(
    "abc", (POSITIVE,) * 3, ("abc",), UNIT_MINUS,
    note="ord(a), ord(b), ord(c) > 0 with sum < base (= base allowed when abc has unit -1)",
)
_BC = Constraint(
    "bc", (POSITIVE,) * 2, ("bc",), note="ord(b), ord(c) > 0 with ord(b) + ord(c) < base"
)
_AB = Constraint("ab", (INTERIOR,) * 2, note="0 < ord(a), ord(b) < base")
_AB_PRODUCT = Constraint(
    "ab", (POSITIVE,) * 2, ("ab",), UNIT_NOT_PLUS,
    note="ord(a), ord(b) > 0 with sum < base (= base allowed unless ab has unit +1)",
)
_ABC = Constraint(
    "abc", (INTERIOR, POSITIVE, POSITIVE), ("abc",),
    note="0 < ord(a) < base; ord(b), ord(c) > 0; sum of orders < base",
)
_B_INTERIOR = Constraint("b", (INTERIOR,), note="0 < ord(b) < base")
_ABCD = Constraint(
    "abcd", (POSITIVE,) * 4, ("ab", "cd"),
    note="all orders > 0; ord(a) + ord(b) < base; ord(c) + ord(d) < base",
)

_REGISTRY: dict[str, IdentityDescriptor] = {
    d.ident: d
    for d in (
        IdentityDescriptor("1.1", _build_1_1, _THETA_Z, symbolic_trials=1),
        IdentityDescriptor("1.2", _build_1_2, _THETA_Z_POLE, symbolic_trials=1),
        IdentityDescriptor("1.3", _build_1_3, _ABC_PRODUCT),
        IdentityDescriptor("1.4", _build_1_4, _BC),
        IdentityDescriptor("1.5", _build_1_5, _BC),
        IdentityDescriptor("2.1", _build_2_1, _AB),
        IdentityDescriptor("2.2", _build_2_2, _AB),
        IdentityDescriptor("2.3", _build_2_3, _AB),
        IdentityDescriptor("2.5", _build_2_5, _AB),
        IdentityDescriptor("2.6", _build_2_6, _AB),
        IdentityDescriptor("2.7", _build_2_7, _AB_PRODUCT),
        IdentityDescriptor("2.8", _build_2_8, _AB_PRODUCT),
        IdentityDescriptor("2.9", _build_2_9, _ABC),
        IdentityDescriptor("2.10", _build_2_10, _ABC),
        IdentityDescriptor("2.11", _build_2_11, _BC),
        IdentityDescriptor("2.12", _build_2_12, _B_INTERIOR),
        IdentityDescriptor("2.13", _build_1_5, _BC),
        IdentityDescriptor("3.1", _build_3_1, fixed_base=7),
        IdentityDescriptor("3.3", _build_3_3, fixed_base=9),
        IdentityDescriptor("3.4", partial(_build_3_4_5, 1), fixed_base=5),
        IdentityDescriptor("3.5", partial(_build_3_4_5, 2), fixed_base=5),
        IdentityDescriptor("3.6", _build_3_6, fixed_base=5),
        IdentityDescriptor("3.7", _build_3_7, fixed_base=7),
        IdentityDescriptor("3.8", _build_3_8, _ABCD),
        IdentityDescriptor("3.9", _build_3_9, fixed_base=13),
        IdentityDescriptor("phi", _build_phi, note="any base >= 1"),
    )
}


# ---------------------------------------------------------------------------
# checking


def build_sides(
    ident: str, assign: ParamAssignment, order: int
) -> tuple[QSeries, QSeries]:
    """Build both sides, each known through at least the requested order."""
    desc = get_descriptor(ident)
    if desc.fixed_base is not None and assign.base != desc.fixed_base:
        raise ConstraintViolationError(
            f"identity {ident} is pinned to base {desc.fixed_base}, "
            f"got base {assign.base}"
        )
    check_base(assign.base)
    if desc.constraint is not None:
        desc.constraint.validate(assign.params, assign.base)
    lhs, rhs = desc.build(assign.params, assign.base, order)
    known = min(lhs.order, rhs.order)
    if known < order:
        raise OrderExceededError(
            f"identity {ident} built its sides only through q^{known}, asked for q^{order}"
        )
    return lhs, rhs


def _report(ident, base, spec, order, t0, sides, seed=None) -> CheckReport:
    """The report of a check started at ``t0``: ``sides`` is the pair of
    series to compare through q^order, or the domain error that stopped the
    build.  The runtime runs from ``t0`` to the end of the comparison."""
    if isinstance(sides, Exception):
        status, compared, mismatch, detail = "constraint-violation", None, None, str(sides)
    else:
        equal, where = sides[0].eq_upto(sides[1], order)
        mismatch = None if equal else (where[0], str(where[1]), str(where[2]))
        status = "equal" if equal else "mismatch"
        compared, detail = order, None
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckReport(ident, base, spec, order, compared, status, mismatch, ms, seed, detail)


def check_identity(
    ident: str,
    assign: ParamAssignment,
    order: int,
    seed: str | None = None,
) -> CheckReport:
    """Build both sides and compare coefficients through the requested order,
    reporting the first mismatch if any."""
    t0 = time.perf_counter()
    try:
        sides = build_sides(ident, assign, order)
    except _DOMAIN_ERRORS as exc:
        sides = exc
    return _report(ident, assign.base, assign.spec_string(), order, t0, sides, seed)


# ---------------------------------------------------------------------------
# randomized specs

@lru_cache(maxsize=256)
def _feasible(ident: str, base: int, symbolic: bool) -> tuple[tuple[int, ...], ...]:
    """The region's exponent tuples in region order; with ``symbolic``, only
    those with every THETA parameter at q^0: in a region of strict sums that
    is the one rule of the constraint a symbolic assignment can break."""
    c = get_descriptor(ident).constraint
    if not symbolic:
        return tuple(c.region(base))
    theta = [i for i, bound in enumerate(c.bounds) if bound == THETA]
    region = _feasible(ident, base, False)
    return tuple(t for t in region if not any(t[i] for i in theta)) if theta else region


def random_spec(
    ident: str, base: int, seed: str, symbolic: bool = False
) -> ParamAssignment:
    """Deterministically sample a valid parameter assignment for an identity.

    The same (identity, base, seed, symbolic) quadruple always produces the
    same assignment. Raises EmptyConstraintSetError when no exponent tuple
    satisfies the constraints at this base.
    """
    desc = get_descriptor(ident)
    if desc.fixed_base is not None:
        base = desc.fixed_base
    check_base(base)
    c = desc.constraint
    if c is None:
        return ParamAssignment(base=base, params={})
    feasible = _feasible(ident, base, symbolic)
    if not feasible:
        raise EmptyConstraintSetError(
            f"no valid parameter exponents for identity {ident} at base {base}"
        )
    import random  # here, not at module level: the other commands never need it

    tag = "sym" if symbolic else "signed"
    rng = random.Random(f"qidx:{ident}:{base}:{seed}:{tag}")
    expos = rng.choice(feasible)
    if symbolic:
        return ParamAssignment(base, dict(zip(c.names, map(symbolic_param, c.names, expos))))
    params = {
        name: SpecMonomial.signed(rng.choice((1, -1)), e) for name, e in zip(c.names, expos)
    }
    if c.violation(params, base) is not None:
        # sign-sensitive boundary rejected: flip to the safe all-minus choice
        params = {name: SpecMonomial.signed(-1, e) for name, e in zip(c.names, expos)}
        c.validate(params, base)
    return ParamAssignment(base, params)


# ---------------------------------------------------------------------------
# corollary derivations

def _signed_spec(sign: int, **qexps: int) -> dict[str, SpecMonomial]:
    return {name: SpecMonomial.signed(sign, e) for name, e in qexps.items()}


# printed corollary -> (parent id, substitution at the corollary's own base)
COROLLARY_PARENTS: dict[str, tuple[str, dict[str, SpecMonomial]]] = {
    "3.1": ("1.3", _signed_spec(-1, a=1, b=2, c=4)),
    "3.3": ("1.3", _signed_spec(1, a=1, b=2, c=3)),
    "3.4": ("1.4", _signed_spec(1, b=1, c=1)),
    "3.5": ("1.4", _signed_spec(1, b=2, c=2)),
    "3.7": ("1.5", _signed_spec(1, b=1, c=2)),
    "3.9": ("3.8", _signed_spec(1, a=1, b=3, c=2, d=6)),
}


def derived_corollary_reports(ident: str, order: int) -> list[CheckReport]:
    """Re-derive a fixed-base corollary from its general parent: check the
    parent identity at the corollary's substitution, then check the printed
    form itself. "3.6" is instead compared side-by-side against the exact
    combination -1/4 (parent at b=c=q  minus  parent at b=c=q^2)."""
    base = get_descriptor(ident).fixed_base
    if ident == "3.6":
        t0 = time.perf_counter()
        l1, r1 = build_sides("1.4", ParamAssignment(base, COROLLARY_PARENTS["3.4"][1]), order)
        l2, r2 = build_sides("1.4", ParamAssignment(base, COROLLARY_PARENTS["3.5"][1]), order)
        lp, rp = build_sides(ident, ParamAssignment(base, {}), order)
        quarter = Fraction(-1, 4)
        sides = {"lhs": (lp, (l1 - l2).scale(quarter)), "rhs": (rp, (r1 - r2).scale(quarter))}
        return [
            _report(ident, base, f"derived-{tag}", order, t0, pair) for tag, pair in sides.items()
        ]

    parent, sub = COROLLARY_PARENTS[ident]
    rep = check_identity(parent, ParamAssignment(base, dict(sub)), order)
    rep.identity = f"{ident}<-{parent}"
    printed = check_identity(ident, ParamAssignment(base, {}), order)
    printed.spec = "printed"
    return [rep, printed]


# ---------------------------------------------------------------------------
# suite runner

DEFAULT_BASES: tuple[int, ...] = (5, 7, 9, 11, 13)

# the fixed-base corollaries, whose registry entry is a transcription of the
# printed source text; acceptance rests on their substitution-derived twins
PRINTED_COROLLARIES = frozenset(
    d.ident for d in _REGISTRY.values() if d.fixed_base is not None
)


def suite_ok(reports: list[CheckReport]) -> bool:
    """Whether a suite run passes: every acceptance-bearing check is equal.

    As-printed transcription rows for the fixed-base corollaries do not gate
    the outcome on their own; a typographical discrepancy in the source is
    reported in the row but tolerated as long as the corollary's
    substitution-derived twin rows all pass.
    """
    derived_ok: dict[str, bool] = {}
    for r in reports:
        if "<-" in r.identity or r.spec.startswith("derived-"):
            key = r.identity.split("<-")[0]
            derived_ok[key] = derived_ok.get(key, True) and r.ok
    for r in reports:
        if r.ok:
            continue
        if r.identity in PRINTED_COROLLARIES and r.spec == "printed":
            if derived_ok.get(r.identity, False):
                continue
        return False
    return True


def run_suite(
    order: int = 100,
    symbolic_order: int = 40,
    trials: int = 25,
    seed: str = "0",
    bases: tuple[int, ...] = DEFAULT_BASES,
    idents: list[str] | None = None,
) -> list[CheckReport]:
    """Run the full verification sweep: randomized signed trials, a symbolic
    tier, the fixed-base corollaries, and the corollary re-derivations."""
    reports: list[CheckReport] = []
    for ident in idents if idents is not None else list(_REGISTRY):
        desc = get_descriptor(ident)
        if desc.params:
            tiers = (
                (False, trials, order, ""),
                (True, desc.symbolic_trials, symbolic_order, "sym:"),
            )
            for symbolic, count, tier_order, mark in tiers:
                for t in range(count):
                    base = bases[t % len(bases)]
                    tag = f"{seed}:{mark}{t}"
                    try:
                        assign = random_spec(ident, base, tag, symbolic=symbolic)
                    except EmptyConstraintSetError:
                        continue
                    reports.append(check_identity(ident, assign, tier_order, seed=tag))
        elif ident not in COROLLARY_PARENTS:
            # a corollary with a parent gets its printed row from the derivation
            base = desc.fixed_base if desc.fixed_base is not None else bases[0]
            rep = check_identity(ident, ParamAssignment(base, {}), order)
            if ident in PRINTED_COROLLARIES:
                rep.spec = "printed"
            reports.append(rep)
            if ident == "phi":
                for extra in (1, 2):
                    reports.append(
                        check_identity(ident, ParamAssignment(extra, {}), order)
                    )
        if ident in COROLLARY_PARENTS or ident == "3.6":
            reports.extend(derived_corollary_reports(ident, order))
    return reports
