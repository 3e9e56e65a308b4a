"""Registry of two-sided series identities and the checking machinery.

Each entry pairs a builder (producing left and right truncated series for a
parameter assignment) with a validator and a sampling region, so the same
descriptor drives fixed regression specs, randomized trials, and the CLI.

Identity ids are short string labels ("1.1", "2.7", "phi", ...) fixed by the
public interface; parameters are monomial substitutions q^e with a sign or a
symbolic unit attached, constrained to windows where every constituent series
is a well-defined unit-leading truncation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .constructors import (
    W_ONE,
    W_R,
    AffineWeight,
    SpecMonomial,
    char_lambert,
    generalized_lambert,
    jk_partial_a,
    jk_product_form,
    jordan_kronecker,
    l_func,
    n_weighted_sum,
    one_minus,
    phi_minus,
    pf_sum,
    poch_inf,
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
from .qring import RATIONAL, SYMBOLIC, CoeffRing, QSeries

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


@dataclass
class ParamAssignment:
    """A base q -> q^m together with monomial values for named parameters."""

    base: int
    params: Dict[str, SpecMonomial] = field(default_factory=dict)

    def get(self, name: str) -> SpecMonomial:
        return self.params[name]

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

    def ring(self) -> CoeffRing:
        for x in self.params.values():
            if x.unit.symbolic:
                return SYMBOLIC
        return RATIONAL


def symbolic_param(name: str, qexp: int) -> SpecMonomial:
    """Parameter value tau_name * q^qexp with a fresh commuting unit."""
    return SpecMonomial.symbolic(_PARAM_VARS[name], qexp)


def signed_param(sign: int, qexp: int) -> SpecMonomial:
    return SpecMonomial.signed(sign, qexp)


# ---------------------------------------------------------------------------
# check reports


@dataclass
class CheckReport:
    identity: str
    base: int
    spec: str
    order_requested: int
    order_compared: Optional[int]
    status: str  # "equal" | "mismatch" | "constraint-violation"
    first_mismatch: Optional[Tuple[int, str, str]]
    runtime_ms: float
    seed: Optional[str] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "equal"

    def to_json_dict(self) -> dict:
        fm = None
        if self.first_mismatch is not None:
            fm = {
                "exponent": self.first_mismatch[0],
                "lhs": self.first_mismatch[1],
                "rhs": self.first_mismatch[2],
            }
        out = {
            "identity": self.identity,
            "base": self.base,
            "spec": self.spec,
            "order_requested": self.order_requested,
            "order_compared": self.order_compared,
            "status": self.status,
            "first_mismatch": fm,
            "runtime_ms": round(self.runtime_ms, 3),
            "seed": self.seed,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# descriptor plumbing

Builder = Callable[[Dict[str, SpecMonomial], int, CoeffRing, int], Tuple[QSeries, QSeries]]
Validator = Callable[[Dict[str, SpecMonomial], int], None]
Region = Callable[[int], List[Tuple[int, ...]]]


@dataclass
class IdentityDescriptor:
    ident: str
    params: Tuple[str, ...]
    build: Builder
    validate: Optional[Validator] = None
    region: Optional[Region] = None
    note: Optional[str] = None  # defaults to "fixed base N"
    fixed_base: Optional[int] = None  # corollaries pin their own base
    symbolic_trials: int = 5

    def __post_init__(self):
        if self.note is None:
            self.note = f"fixed base {self.fixed_base}"


def get_descriptor(ident: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise KeyError(f"unknown identity id {ident!r}") from None


def list_identities() -> List[dict]:
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
# shared validation helpers


def _fail(msg: str) -> None:
    raise ConstraintViolationError(msg)


def _require_interior(name: str, x: SpecMonomial, m: int) -> None:
    if not 0 < x.qexp < m:
        _fail(f"{name} must satisfy 0 < ord < base, got ord {x.qexp} at base {m}")


def _require_positive(name: str, x: SpecMonomial) -> None:
    if x.qexp < 1:
        _fail(f"{name} must have positive order, got {x.qexp}")


def _theta_window(name: str, x: SpecMonomial, m: int) -> None:
    if x.unit.symbolic:
        if x.qexp != 0:
            _fail(f"symbolic {name} must sit at q^0, got q^{x.qexp}")
    elif not 0 <= x.qexp <= m:
        _fail(f"{name} must satisfy 0 <= ord <= base, got ord {x.qexp} at base {m}")


# ---------------------------------------------------------------------------
# builder helpers


def _P(x: SpecMonomial, m: int, ring: CoeffRing, order: int) -> QSeries:
    return poch_inf(x, m, order, ring=ring)


def _Pq(m: int, ring: CoeffRing, order: int) -> QSeries:
    return poch_inf(SpecMonomial.signed(1, m), m, order, ring=ring)


def _pair(x: SpecMonomial, m: int, ring: CoeffRing, order: int) -> QSeries:
    """(x)_inf * (x^-1 q^m)_inf, the two-sided product attached to x."""
    return _P(x, m, ring, order) * _P(x.inv().times_qpow(m), m, ring, order)


def _const(val, ring: CoeffRing, order: int) -> QSeries:
    return QSeries.const(ring, val, order)


def _lam2(x: SpecMonomial, r0: int, m: int, ring: CoeffRing, order: int) -> QSeries:
    """Sum over r >= r0 of x q^{mr} / (1 - x q^{mr})^2."""
    return generalized_lambert(SpecMonomial.one(), x, 2, W_ONE, r0, m, order, ring=ring)


def _half_brace(params, m, ring, order) -> QSeries:
    """1/2 + l(b) + l(c) - l(bc) for the squared two-parameter identities."""
    b, c = params["b"], params["c"]
    s = _const(Fraction(1, 2), ring, order)
    s = s + l_func(b, m, order, ring=ring) + l_func(c, m, order, ring=ring)
    return s - l_func(b.mul(c), m, order, ring=ring)


def _square_rhs(params, m, ring, order) -> QSeries:
    """The Lambert-sum side shared by the squared-brace identities."""
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    total = _const(Fraction(1, 4), ring, order)
    for x in (b, c, bc):
        total = total + _lam2(x, 0, m, ring, order)
    for x in (b.inv(), c.inv(), bc.inv()):
        total = total + _lam2(x, 1, m, ring, order)
    unit_tail = _lam2(SpecMonomial.one(), 1, m, ring, order)
    return total - unit_tail.scale(6)


def _cross_sums(params, m, ring, order) -> QSeries:
    """Sum over n >= 1 of (b^n + b^-n + c^n + c^-n - (bc)^n - (bc)^-n - 2)
    q^{mn} / (1 - q^{mn})^2, assembled from weighted geometric tails."""
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    total = None
    for x, sgn in (
        (b, 1),
        (b.inv(), 1),
        (c, 1),
        (c.inv(), 1),
        (bc, -1),
        (bc.inv(), -1),
    ):
        g = generalized_lambert(x, SpecMonomial.one(), 2, W_ONE, 1, m, order, ring=ring)
        total = g.scale(sgn) if total is None else total + g.scale(sgn)
    tail = generalized_lambert(
        SpecMonomial.one(), SpecMonomial.one(), 2, W_ONE, 1, m, order, ring=ring
    )
    return total - tail.scale(2)


# ---------------------------------------------------------------------------
# builders: theta and partial-fraction expansions


def _build_1_1(params, m, ring, order):
    z = params["z"]
    lhs = _Pq(m, ring, order) * _P(z, m, ring, order) * _P(
        z.inv().times_qpow(m), m, ring, order
    )
    rhs = theta_sum(z, m, order, ring=ring)
    return lhs, rhs


def _validate_1_1(params, m):
    _theta_window("z", params["z"], m)


def _build_1_2(params, m, ring, order):
    z = params["z"]
    pq = _Pq(m, ring, order)
    lhs = pq * pq
    rhs = (
        pf_sum(z, m, order, ring=ring)
        * _P(z.times_qpow(m), m, ring, order)
        * _P(z.inv().times_qpow(m), m, ring, order)
    )
    return lhs, rhs


def _validate_1_2(params, m):
    z = params["z"]
    _theta_window("z", z, m)
    if not z.unit.symbolic and z.qexp % m == 0 and z.unit.sign != -1:
        _fail("z at order 0 mod base must carry a -1 unit")


# ---------------------------------------------------------------------------
# builders: the three-parameter product identity


def _brace_1_3(params, m, ring, order) -> QSeries:
    a, b, c = params["a"], params["b"], params["c"]
    s = _const(1, ring, order)
    for x in (a, b, c):
        s = s + l_func(x, m, order, ring=ring)
    return s - l_func(a.mul(b).mul(c), m, order, ring=ring)


def _build_1_3(params, m, ring, order):
    a, b, c = params["a"], params["b"], params["c"]
    abc = a.mul(b).mul(c)
    pq = _Pq(m, ring, order)
    lhs = pq * pq
    for pairarg in (a.mul(b), a.mul(c), b.mul(c)):
        lhs = lhs * _pair(pairarg, m, ring, order)
    rhs = _brace_1_3(params, m, ring, order)
    for x in (a, b, c, abc):
        rhs = rhs * _pair(x, m, ring, order)
    return lhs, rhs


def _validate_1_3(params, m):
    a, b, c = params["a"], params["b"], params["c"]
    for name, x in (("a", a), ("b", b), ("c", c)):
        _require_positive(name, x)
    s = a.qexp + b.qexp + c.qexp
    if s > m:
        _fail(f"orders of a, b, c must sum to at most the base; got {s} > {m}")
    if s == m:
        u = a.unit.mul(b.unit).mul(c.unit)
        if u.symbolic or u.sign != -1:
            _fail("at the boundary sum == base, abc must carry a -1 unit")


# ---------------------------------------------------------------------------
# builders: two-parameter Lambert product identities


def _build_1_4(params, m, ring, order):
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    lb = l_func(b, m, order, ring=ring)
    lc = l_func(c, m, order, ring=ring)
    lbc = l_func(bc, m, order, ring=ring)
    lhs = (lb - lbc) * (lc - lbc)

    rhs = term_series(bc, 2, order, ring=ring)
    for x in (bc, bc.inv()):
        rhs = rhs + generalized_lambert(
            x, SpecMonomial.one(), 1, W_R, 1, m, order, ring=ring
        )
    rhs = rhs + _cross_sums(params, m, ring, order)
    return lhs, rhs


def _validate_bc(params, m):
    b, c = params["b"], params["c"]
    _require_positive("b", b)
    _require_positive("c", c)
    if b.qexp + c.qexp >= m:
        _fail(
            f"orders of b and c must sum to less than the base; "
            f"got {b.qexp + c.qexp} >= {m}"
        )


def _build_1_5(params, m, ring, order):
    brace = _half_brace(params, m, ring, order)
    return brace * brace, _square_rhs(params, m, ring, order)


def _build_2_11(params, m, ring, order):
    b, c = params["b"], params["c"]
    bc = b.mul(c)
    lb = l_func(b, m, order, ring=ring)
    lc = l_func(c, m, order, ring=ring)
    lbc = l_func(bc, m, order, ring=ring)
    lhs = lb * lc
    rhs = lbc * (lb + lc - lbc)
    rhs = rhs + _cross_sums(params, m, ring, order)
    rhs = rhs + _lam2(bc, 0, m, ring, order)
    rhs = rhs + _lam2(bc.inv(), 1, m, ring, order)
    return lhs, rhs


def _build_2_12(params, m, ring, order):
    b = params["b"]
    lb = l_func(b, m, order, ring=ring)
    lhs = lb * lb
    euler = _lam2(b, 0, m, ring, order) + _lam2(b.inv(), 1, m, ring, order)
    rhs = euler - lb
    for x in (b, b.inv()):
        rhs = rhs - generalized_lambert(
            x, SpecMonomial.one(), 2, W_ONE, 1, m, order, ring=ring
        ).scale(2)
    rhs = rhs - generalized_lambert(
        SpecMonomial.one(), SpecMonomial.one(), 2, W_ONE, 1, m, order, ring=ring
    ).scale(2)
    return lhs, rhs


def _validate_2_12(params, m):
    _require_interior("b", params["b"], m)


# ---------------------------------------------------------------------------
# builders: bilateral-series family


def _validate_ab_interior(params, m):
    _require_interior("a", params["a"], m)
    _require_interior("b", params["b"], m)


def _build_2_1(params, m, ring, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order, ring=ring)
    rhs = jordan_kronecker(b, a, m, order, ring=ring)
    return lhs, rhs


def _build_2_2(params, m, ring, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order, ring=ring)
    inner = jordan_kronecker(
        a.inv().times_qpow(m), b.inv(), m, order + b.qexp, ring=ring
    )
    rhs = times_spec_monomial(inner, b.inv()).scale(-1)
    return lhs, rhs


def _build_2_3(params, m, ring, order):
    a, b = params["a"], params["b"]
    pad = order + m
    oma = one_minus(a, ring, pad)
    omb = one_minus(b, ring, pad)
    lhs = jordan_kronecker(a, b, m, pad, ring=ring) * oma * omb
    s1 = generalized_lambert(a, b, 1, W_ONE, 1, m, pad, ring=ring)
    s2 = generalized_lambert(a.inv(), b.inv(), 1, W_ONE, 1, m, pad, ring=ring)
    rhs = one_minus(a.mul(b), ring, pad) + oma * omb * (s1 - s2)
    return lhs, rhs


def _build_2_5(params, m, ring, order):
    a, b = params["a"], params["b"]
    lhs = times_spec_monomial(
        jordan_kronecker(a, b.times_qpow(m), m, order, ring=ring), a
    )
    rhs = jordan_kronecker(a, b, m, order, ring=ring)
    return lhs, rhs


def _build_2_6(params, m, ring, order):
    a, b = params["a"], params["b"]
    lhs = n_weighted_sum(a, b, m, order, ring=ring)
    rhs = times_spec_monomial(jk_partial_a(a, b, m, order, ring=ring), a)
    return lhs, rhs


def _build_2_7(params, m, ring, order):
    a, b = params["a"], params["b"]
    pq = _Pq(m, ring, order)
    lhs = pq * _pair(a, m, ring, order) * _pair(b, m, ring, order)
    lhs = lhs * jordan_kronecker(a, b, m, order, ring=ring)
    rhs = pq * pq * pq * _pair(a.mul(b), m, ring, order)
    return lhs, rhs


def _validate_product_pair(params, m):
    a, b = params["a"], params["b"]
    _require_positive("a", a)
    _require_positive("b", b)
    s = a.qexp + b.qexp
    if s > m:
        _fail(f"orders of a and b must sum to at most the base; got {s} > {m}")
    if s == m:
        u = a.unit.mul(b.unit)
        if u.is_plus_one():
            _fail("at the boundary sum == base, ab must not carry a +1 unit")


def _build_2_8(params, m, ring, order):
    a, b = params["a"], params["b"]
    lhs = jordan_kronecker(a, b, m, order, ring=ring)
    rhs = jk_product_form(a, b, m, order, ring=ring)
    return lhs, rhs


def _build_2_9(params, m, ring, order):
    a, b, c = params["a"], params["b"], params["c"]
    bc = b.mul(c)
    lhs = n_weighted_sum(a, bc, m, order, ring=ring)
    brace = l_func(a, m, order, ring=ring) - l_func(a.mul(bc), m, order, ring=ring)
    rhs = jordan_kronecker(a, bc, m, order, ring=ring) * brace
    return lhs, rhs


def _build_2_10(params, m, ring, order):
    a, b, c = params["a"], params["b"], params["c"]
    bc = b.mul(c)
    lhs = jordan_kronecker(a, b, m, order, ring=ring) * jordan_kronecker(
        a, c, m, order, ring=ring
    )
    brace = _const(1, ring, order)
    for x in (a, b, c):
        brace = brace + l_func(x, m, order, ring=ring)
    brace = brace - l_func(a.mul(bc), m, order, ring=ring)
    rhs = jordan_kronecker(a, bc, m, order, ring=ring) * brace
    return lhs, rhs


def _validate_abc_strict(params, m):
    a, b, c = params["a"], params["b"], params["c"]
    _require_interior("a", a, m)
    _require_positive("b", b)
    _require_positive("c", c)
    if a.qexp + b.qexp + c.qexp >= m:
        _fail(
            f"orders of a, b, c must sum to less than the base; "
            f"got {a.qexp + b.qexp + c.qexp} >= {m}"
        )


# ---------------------------------------------------------------------------
# builders: four-parameter identity


def _build_3_8(params, m, ring, order):
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    ab, cd = a.mul(b), c.mul(d)
    la = l_func(a, m, order, ring=ring)
    lb = l_func(b, m, order, ring=ring)
    lc = l_func(c, m, order, ring=ring)
    ld = l_func(d, m, order, ring=ring)
    lab = l_func(ab, m, order, ring=ring)
    lcd = l_func(cd, m, order, ring=ring)
    first = la + lb - lc - ld - lab + lcd
    second = _const(1, ring, order) + la + lb + lc + ld - lab - lcd
    lhs = first * second

    rhs = None
    for x, sgn in ((a, 1), (b, 1), (ab, 1), (c, -1), (d, -1), (cd, -1)):
        g = _lam2(x, 0, m, ring, order).scale(sgn)
        rhs = g if rhs is None else rhs + g
    for x, sgn in ((a, 1), (b, 1), (ab, 1), (c, -1), (d, -1), (cd, -1)):
        rhs = rhs + _lam2(x.inv(), 1, m, ring, order).scale(sgn)
    return lhs, rhs


def _validate_3_8(params, m):
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    for name, x in (("a", a), ("b", b), ("c", c), ("d", d)):
        _require_positive(name, x)
    if a.qexp + b.qexp >= m:
        _fail("orders of a and b must sum to less than the base")
    if c.qexp + d.qexp >= m:
        _fail("orders of c and d must sum to less than the base")


# ---------------------------------------------------------------------------
# builders: fixed-base corollaries


def _g_sum(j: int, sign: int, m: int, ring, order) -> QSeries:
    """Sum over r >= 0 of u q^{mr+j} / (1 - u q^{mr+j}) with u = sign."""
    return generalized_lambert(
        SpecMonomial.one(),
        SpecMonomial.signed(sign, j),
        1,
        W_ONE,
        0,
        m,
        order,
        ring=ring,
    )


def _build_3_1(params, m, ring, order):
    del params
    half = _const(Fraction(1, 2), ring, order)
    s = half
    for j in (1, 2, 4):
        s = s + _g_sum(j, -1, 7, ring, order)
    for j in (3, 5, 6):
        s = s - _g_sum(j, -1, 7, ring, order)
    neg7 = poch_inf(SpecMonomial.signed(-1, 7), 7, order, ring=ring)
    neg1 = poch_inf(SpecMonomial.signed(-1, 1), 1, order, ring=ring)
    lhs = s.scale(2) * neg7 * neg1
    rhs = _Pq(7, ring, order) * _Pq(1, ring, order)
    return lhs, rhs


def _build_3_3(params, m, ring, order):
    del params
    s = _const(1, ring, order)
    for j, w in ((1, 1), (2, 1), (3, 2)):
        s = s + _g_sum(j, 1, 9, ring, order).scale(w)
        s = s - _g_sum(9 - j, 1, 9, ring, order).scale(w)
    lhs = s * _Pq(1, ring, order)
    cube = (
        _Pq(9, ring, order)
        * poch_inf(SpecMonomial.signed(1, 4), 9, order, ring=ring)
        * poch_inf(SpecMonomial.signed(1, 5), 9, order, ring=ring)
    )
    rhs = cube * cube * cube
    return lhs, rhs


def _q5(j: int) -> SpecMonomial:
    return SpecMonomial.signed(1, j)


def _build_3_4_5(k, params, m, ring, order):
    """3.4 (k = 1) and 3.5 (k = 2): one identity under the residue map
    j -> k*j mod 5, which acts on the brace signs and on every q^j of the
    right side."""
    del params
    brace = None
    for j, sgn in ((1, 1), (2, -1), (3, 1), (4, -1)):
        g = _g_sum(k * j % 5, 1, 5, ring, order).scale(sgn)
        brace = g if brace is None else brace + g
    lhs = brace * brace
    rhs = _lam2(_q5(2 * k % 5), 0, 5, ring, order) + _lam2(_q5(3 * k % 5), 0, 5, ring, order)
    for j, weight, r0, sgn in (
        (1, AffineWeight(2, 0), 1, 1),
        (2, AffineWeight(1, 0), 1, -1),
        (4, AffineWeight(2, 2), 0, 1),
        (3, AffineWeight(1, 1), 0, -1),
    ):
        g = generalized_lambert(
            SpecMonomial.one(), _q5(k * j % 5), 1, weight, r0, 5, order, ring=ring
        )
        rhs = rhs + g.scale(sgn)
    rhs = rhs - generalized_lambert(
        SpecMonomial.one(), SpecMonomial.one(), 1, W_ONE, 1, 5, order, ring=ring
    ).scale(2)
    return lhs, rhs


def _build_3_6(params, m, ring, order):
    del params
    g1 = _g_sum(1, 1, 5, ring, order)
    g2 = _g_sum(2, 1, 5, ring, order)
    g3 = _g_sum(3, 1, 5, ring, order)
    g4 = _g_sum(4, 1, 5, ring, order)
    lhs = (g1 - g4) * (g2 - g3)

    quarter = Fraction(1, 4)
    rhs = (
        _lam2(_q5(1), 0, 5, ring, order)
        - _lam2(_q5(2), 0, 5, ring, order)
        - _lam2(_q5(3), 0, 5, ring, order)
        + _lam2(_q5(4), 0, 5, ring, order)
    ).scale(quarter)

    def wsum(j: int) -> QSeries:
        return generalized_lambert(
            SpecMonomial.one(), _q5(j), 1, AffineWeight(1, 0), 1, 5, order, ring=ring
        )

    rhs = rhs + (wsum(2) - wsum(1)).scale(Fraction(3, 4))
    rhs = rhs + (wsum(3) - wsum(4)).scale(Fraction(3, 4))
    rhs = rhs - g1.scale(quarter) - g4.scale(Fraction(1, 2)) + g3.scale(Fraction(3, 4))
    return lhs, rhs


def _build_3_7(params, m, ring, order):
    del params
    s = _const(Fraction(1, 2), ring, order)
    for j, sgn in ((1, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1)):
        s = s + _g_sum(j, 1, 7, ring, order).scale(sgn)
    lhs = s * s
    rhs = _const(Fraction(1, 4), ring, order)
    rhs = rhs + generalized_lambert(
        SpecMonomial.one(),
        SpecMonomial.one(),
        1,
        AffineWeight(1, 0),
        1,
        1,
        order,
        ring=ring,
    )
    rhs = rhs - generalized_lambert(
        SpecMonomial.one(),
        SpecMonomial.one(),
        1,
        AffineWeight(7, 0),
        1,
        7,
        order,
        ring=ring,
    )
    return lhs, rhs


def _build_3_9(params, m, ring, order):
    del params
    s1 = char_lambert(CHI1, 1, order, ring=ring)
    s2 = char_lambert(CHI2, 1, order, ring=ring)
    s3 = char_lambert(CHI3, 2, order, ring=ring)
    lhs = s1 * (_const(1, ring, order) + s2)
    return lhs, s3


def _build_phi(params, m, ring, order):
    del params
    lhs = _Pq(m, ring, order)
    rhs = phi_minus(m, order, ring=ring) * poch_inf(
        SpecMonomial.signed(-1, m), m, order, ring=ring
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# sampling regions


def _region_theta(m: int) -> List[Tuple[int, ...]]:
    return [(e,) for e in range(0, m + 1)]


def _region_open1(m: int) -> List[Tuple[int, ...]]:
    return [(e,) for e in range(1, m)]


def _region_open2(m: int) -> List[Tuple[int, ...]]:
    return [(i, j) for i in range(1, m) for j in range(1, m)]


def _region_pair_sum(m: int) -> List[Tuple[int, ...]]:
    return [(i, j) for i in range(1, m) for j in range(1, m) if i + j < m]


def _region_abc(m: int) -> List[Tuple[int, ...]]:
    return [
        (i, j, k)
        for i in range(1, m)
        for j in range(1, m)
        for k in range(1, m)
        if i + j + k < m
    ]


def _region_abcd(m: int) -> List[Tuple[int, ...]]:
    return [
        (i, j, k, l)
        for i in range(1, m)
        for j in range(1, m)
        if i + j < m
        for k in range(1, m)
        for l in range(1, m)
        if k + l < m
    ]


# ---------------------------------------------------------------------------
# registry

# constraint families: a validator, its sampling region and the note `list` shows
_THETA_Z = (_validate_1_1, _region_theta, "0 <= ord(z) <= base (symbolic z at q^0)")
_THETA_Z_POLE = (
    _validate_1_2,
    _region_theta,
    "0 <= ord(z) <= base; at ord 0 mod base the unit must be -1",
)
_ABC_PRODUCT = (
    _validate_1_3,
    _region_abc,
    "ord(a), ord(b), ord(c) > 0 with sum < base (= base allowed when abc has unit -1)",
)
_BC = (_validate_bc, _region_pair_sum, "ord(b), ord(c) > 0 with ord(b) + ord(c) < base")
_AB = (_validate_ab_interior, _region_open2, "0 < ord(a), ord(b) < base")
_AB_PRODUCT = (
    _validate_product_pair,
    _region_pair_sum,
    "ord(a), ord(b) > 0 with sum < base (= base allowed unless ab has unit +1)",
)
_ABC = (
    _validate_abc_strict,
    _region_abc,
    "0 < ord(a) < base; ord(b), ord(c) > 0; sum of orders < base",
)
_B_INTERIOR = (_validate_2_12, _region_open1, "0 < ord(b) < base")
_ABCD = (
    _validate_3_8,
    _region_abcd,
    "all orders > 0; ord(a) + ord(b) < base; ord(c) + ord(d) < base",
)

_REGISTRY: Dict[str, IdentityDescriptor] = {
    d.ident: d
    for d in (
        IdentityDescriptor("1.1", ("z",), _build_1_1, *_THETA_Z, symbolic_trials=1),
        IdentityDescriptor("1.2", ("z",), _build_1_2, *_THETA_Z_POLE, symbolic_trials=1),
        IdentityDescriptor("1.3", ("a", "b", "c"), _build_1_3, *_ABC_PRODUCT),
        IdentityDescriptor("1.4", ("b", "c"), _build_1_4, *_BC),
        IdentityDescriptor("1.5", ("b", "c"), _build_1_5, *_BC),
        IdentityDescriptor("2.1", ("a", "b"), _build_2_1, *_AB),
        IdentityDescriptor("2.2", ("a", "b"), _build_2_2, *_AB),
        IdentityDescriptor("2.3", ("a", "b"), _build_2_3, *_AB),
        IdentityDescriptor("2.5", ("a", "b"), _build_2_5, *_AB),
        IdentityDescriptor("2.6", ("a", "b"), _build_2_6, *_AB),
        IdentityDescriptor("2.7", ("a", "b"), _build_2_7, *_AB_PRODUCT),
        IdentityDescriptor("2.8", ("a", "b"), _build_2_8, *_AB_PRODUCT),
        IdentityDescriptor("2.9", ("a", "b", "c"), _build_2_9, *_ABC),
        IdentityDescriptor("2.10", ("a", "b", "c"), _build_2_10, *_ABC),
        IdentityDescriptor("2.11", ("b", "c"), _build_2_11, *_BC),
        IdentityDescriptor("2.12", ("b",), _build_2_12, *_B_INTERIOR),
        IdentityDescriptor("2.13", ("b", "c"), _build_1_5, *_BC),
        IdentityDescriptor("3.1", (), _build_3_1, fixed_base=7),
        IdentityDescriptor("3.3", (), _build_3_3, fixed_base=9),
        IdentityDescriptor("3.4", (), partial(_build_3_4_5, 1), fixed_base=5),
        IdentityDescriptor("3.5", (), partial(_build_3_4_5, 2), fixed_base=5),
        IdentityDescriptor("3.6", (), _build_3_6, fixed_base=5),
        IdentityDescriptor("3.7", (), _build_3_7, fixed_base=7),
        IdentityDescriptor("3.8", ("a", "b", "c", "d"), _build_3_8, *_ABCD),
        IdentityDescriptor("3.9", (), _build_3_9, fixed_base=13),
        IdentityDescriptor("phi", (), _build_phi, note="any base >= 1"),
    )
}


# ---------------------------------------------------------------------------
# checking


def build_sides(
    ident: str, assign: ParamAssignment, order: int
) -> Tuple[QSeries, QSeries]:
    """Build both sides, each known through at least the requested order."""
    desc = get_descriptor(ident)
    if desc.fixed_base is not None and assign.base != desc.fixed_base:
        raise ConstraintViolationError(
            f"identity {ident} is pinned to base {desc.fixed_base}, "
            f"got base {assign.base}"
        )
    if desc.validate is not None:
        desc.validate(assign.params, assign.base)
    lhs, rhs = desc.build(assign.params, assign.base, assign.ring(), order)
    known = min(lhs.order, rhs.order)
    if known < order:
        raise OrderExceededError(
            f"identity {ident} built its sides only through q^{known}, asked for q^{order}"
        )
    return lhs, rhs


def _first_mismatch(lhs: QSeries, rhs: QSeries, order: int):
    """None if the two series agree through q^order, else the first differing
    exponent with both coefficients as strings."""
    equal, where = lhs.eq_upto(rhs, order)
    return None if equal else (where[0], str(where[1]), str(where[2]))


def check_identity(
    ident: str,
    assign: ParamAssignment,
    order: int,
    seed: Optional[str] = None,
) -> CheckReport:
    """Build both sides and compare coefficients through the requested order,
    reporting the first mismatch if any."""
    t0 = time.perf_counter()
    spec_str = assign.spec_string()
    try:
        lhs, rhs = build_sides(ident, assign, order)
    except _DOMAIN_ERRORS as exc:
        ms = (time.perf_counter() - t0) * 1000.0
        return CheckReport(
            identity=ident,
            base=assign.base,
            spec=spec_str,
            order_requested=order,
            order_compared=None,
            status="constraint-violation",
            first_mismatch=None,
            runtime_ms=ms,
            seed=seed,
            detail=str(exc),
        )
    mismatch = _first_mismatch(lhs, rhs, order)
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckReport(
        identity=ident,
        base=assign.base,
        spec=spec_str,
        order_requested=order,
        order_compared=order,
        status="equal" if mismatch is None else "mismatch",
        first_mismatch=mismatch,
        runtime_ms=ms,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# randomized specs

@lru_cache(maxsize=256)
def _feasible(ident: str, base: int, symbolic: bool) -> Tuple[Tuple[int, ...], ...]:
    """The region's exponent tuples in region order; with ``symbolic``, only
    those whose symbolic-unit assignment passes the identity's validator."""
    desc = get_descriptor(ident)
    region = tuple(desc.region(base))
    if symbolic:
        return tuple(t for t in region if _symbolic_tuple_ok(desc, base, t))
    return region


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
    if not desc.params:
        return ParamAssignment(base=base, params={})
    feasible = _feasible(ident, base, symbolic)
    if not feasible:
        raise EmptyConstraintSetError(
            f"no valid parameter exponents for identity {ident} at base {base}"
        )
    tag = "sym" if symbolic else "signed"
    rng = random.Random(f"qidx:{ident}:{base}:{seed}:{tag}")
    expos = rng.choice(feasible)
    params: Dict[str, SpecMonomial] = {}
    for name, e in zip(desc.params, expos):
        if symbolic:
            params[name] = symbolic_param(name, e)
        else:
            params[name] = SpecMonomial.signed(rng.choice((1, -1)), e)
    assign = ParamAssignment(base=base, params=params)
    try:
        desc.validate(assign.params, base)
    except ConstraintViolationError:
        # sign-sensitive boundary rejected: flip to the safe all-minus choice
        repaired = {
            name: SpecMonomial.signed(-1, x.qexp) for name, x in params.items()
        }
        assign = ParamAssignment(base=base, params=repaired)
        desc.validate(assign.params, base)
    return assign


def _symbolic_tuple_ok(
    desc: IdentityDescriptor, base: int, expos: Tuple[int, ...]
) -> bool:
    trial = {name: symbolic_param(name, e) for name, e in zip(desc.params, expos)}
    try:
        desc.validate(trial, base)
    except ConstraintViolationError:
        return False
    return True


# ---------------------------------------------------------------------------
# corollary derivations

def _signed_spec(sign: int, **qexps: int) -> Dict[str, SpecMonomial]:
    return {name: SpecMonomial.signed(sign, e) for name, e in qexps.items()}


# printed corollary -> (parent id, base, substitution)
COROLLARY_PARENTS: Dict[str, Tuple[str, int, Dict[str, SpecMonomial]]] = {
    "3.1": ("1.3", 7, _signed_spec(-1, a=1, b=2, c=4)),
    "3.3": ("1.3", 9, _signed_spec(1, a=1, b=2, c=3)),
    "3.4": ("1.4", 5, _signed_spec(1, b=1, c=1)),
    "3.5": ("1.4", 5, _signed_spec(1, b=2, c=2)),
    "3.7": ("1.5", 7, _signed_spec(1, b=1, c=2)),
    "3.9": ("3.8", 13, _signed_spec(1, a=1, b=3, c=2, d=6)),
}


def derived_corollary_reports(ident: str, order: int) -> List[CheckReport]:
    """Re-derive a fixed-base corollary from its general parent: check the
    parent identity at the corollary's substitution, then check the printed
    form itself. "3.6" is instead compared side-by-side against the exact
    combination -1/4 (parent at b=c=q  minus  parent at b=c=q^2)."""
    reports: List[CheckReport] = []
    if ident == "3.6":
        t0 = time.perf_counter()
        l1, r1 = build_sides("1.4", ParamAssignment(5, COROLLARY_PARENTS["3.4"][2]), order)
        l2, r2 = build_sides("1.4", ParamAssignment(5, COROLLARY_PARENTS["3.5"][2]), order)
        lp, rp = build_sides("3.6", ParamAssignment(5, {}), order)
        quarter = Fraction(-1, 4)
        dl = (l1 - l2).scale(quarter)
        dr = (r1 - r2).scale(quarter)
        for tag, printed, derived in (("lhs", lp, dl), ("rhs", rp, dr)):
            mismatch = _first_mismatch(printed, derived, order)
            ms = (time.perf_counter() - t0) * 1000.0
            reports.append(
                CheckReport(
                    identity="3.6",
                    base=5,
                    spec=f"derived-{tag}",
                    order_requested=order,
                    order_compared=order,
                    status="equal" if mismatch is None else "mismatch",
                    first_mismatch=mismatch,
                    runtime_ms=ms,
                )
            )
        return reports

    parent, base, sub = COROLLARY_PARENTS[ident]
    rep = check_identity(parent, ParamAssignment(base, dict(sub)), order)
    rep.identity = f"{ident}<-{parent}"
    reports.append(rep)
    printed = check_identity(ident, ParamAssignment(base, {}), order)
    printed.spec = "printed"
    reports.append(printed)
    return reports


# ---------------------------------------------------------------------------
# suite runner

DEFAULT_BASES: Tuple[int, ...] = (5, 7, 9, 11, 13)

# fixed-base corollaries whose registry entry is a transcription of the
# printed source text; acceptance rests on their substitution-derived twins
PRINTED_COROLLARIES = frozenset({"3.1", "3.3", "3.4", "3.5", "3.6", "3.7", "3.9"})


def suite_ok(reports: Sequence[CheckReport]) -> bool:
    """Whether a suite run passes: every acceptance-bearing check is equal.

    As-printed transcription rows for the fixed-base corollaries do not gate
    the outcome on their own; a typographical discrepancy in the source is
    reported in the row but tolerated as long as the corollary's
    substitution-derived twin rows all pass.
    """
    derived_ok: Dict[str, bool] = {}
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
    bases: Sequence[int] = DEFAULT_BASES,
    idents: Optional[Sequence[str]] = None,
) -> List[CheckReport]:
    """Run the full verification sweep: randomized signed trials, a symbolic
    tier, the fixed-base corollaries, and the corollary re-derivations."""
    reports: List[CheckReport] = []
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
