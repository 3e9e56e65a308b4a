"""Series constructors: Pochhammer products, theta and partial-fraction sums,
the bilateral f-function family, and generalized Lambert sums.

Parameters are specialized to monomials u * q^e where the unit u is a sign or
a symbolic unit monomial (an invertible generator of the coefficient ring).
Every reciprocal 1/(1-v)^s goes through one three-case expansion:

  ord(v) > 0   geometric/binomial expansion in v,
  ord(v) < 0   flipped expansion in v^-1 (series in positive powers of q),
  ord(v) = 0   exact constants for u = -1, an error for u = +1 or symbolic.

Bilateral sums enumerate a finite window of indices; the first excluded term
on each side provably exceeds the truncation order.  Every such constructor
takes a ``pad`` argument adding extra window terms, so tests can double the
window and check the result does not move.  One generator (``_window``)
walks every window, and every term writes its expansion straight into one
per-exponent accumulator (``_Acc``), so a sum builds its series once.

Each shape of series has one code path.  Sums of W(n) A^n / (1 - x q^{mn})^s
go through ``_lambert_window``: f(a, b), its a-derivative form and the
n-weighted sum share ``_bilateral``, ``pf_sum`` writes its terms through it,
and ``lambert_sum`` sums a list of one-sided terms (c, M, x, s, W, r0) for
``generalized_lambert``, ``l_func``, ``char_lambert`` and the identity
builders.  ``phi_minus`` is ``theta_sum`` at z = q^m in base q^{2m}.  Finite
and infinite Pochhammer products share ``_factors``, which applies each
factor to one coefficient list in place; ``poch_pair`` is the two-sided
product (x)(q^m/x).  ``check_base`` is the one base-scale check.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    ConstraintViolationError,
    DivergentTailError,
    NegativeOrderArgumentError,
    PoleError,
    RingMismatchError,
    SymbolicNonUnitError,
)
from .exactalg import (
    MONO_ONE,
    LaurentPoly,
    Monomial,
    Scalar,
    mono_inv,
    mono_mul,
    mono_pow,
    mono_str,
    normalize_scalar,
)
from .qring import QSeries, RATIONAL, SYMBOLIC, CoeffRing

_LOOP_LIMIT = 200_000
MAX_ORDER = 10_000  # no series may start below q^-MAX_ORDER (see ``qidx.exprs``)


def _check_window(lowest: int) -> None:
    if lowest < -MAX_ORDER:
        raise ConstraintViolationError(f"series would start at q^{lowest}, below q^-{MAX_ORDER}")


class Unit:
    """An invertible coefficient: sign times a symbolic unit monomial.
    Equal and hashed by value."""

    __slots__ = ("sign", "mono")

    def __init__(self, sign: int = 1, mono: Monomial = MONO_ONE):
        if sign not in (1, -1):
            raise ValueError("unit sign must be +1 or -1")
        self.sign, self.mono = sign, mono

    def __eq__(self, other):
        return type(other) is Unit and self.sign == other.sign and self.mono == other.mono

    def __hash__(self):
        return hash((self.sign, self.mono))

    @property
    def symbolic(self) -> bool:
        return self.mono != MONO_ONE

    def is_plus_one(self) -> bool:
        return self.sign == 1 and self.mono == MONO_ONE

    def mul(self, other: "Unit") -> "Unit":
        return Unit(self.sign * other.sign, mono_mul(self.mono, other.mono))

    def inv(self) -> "Unit":
        return Unit(self.sign, mono_inv(self.mono))

    def pow(self, k: int) -> "Unit":
        s = self.sign if k % 2 else 1
        return Unit(s, mono_pow(self.mono, k))

    def value(self) -> Union[int, LaurentPoly]:
        """The unit as a coefficient-ring element."""
        if self.mono == MONO_ONE:
            return self.sign
        return LaurentPoly.monomial(self.mono, self.sign)

    def __str__(self):
        if self.mono == MONO_ONE:
            return "+1" if self.sign == 1 else "-1"
        body = mono_str(self.mono)
        return body if self.sign == 1 else "-" + body


class SpecMonomial:
    """A parameter specialization u * q^e, equal and hashed by value (it keys
    the ``poch_inf`` cache)."""

    __slots__ = ("unit", "qexp")

    def __init__(self, unit: Unit, qexp: int):
        self.unit, self.qexp = unit, qexp

    def __eq__(self, other):
        return type(other) is SpecMonomial and self.qexp == other.qexp and self.unit == other.unit

    def __hash__(self):
        return hash((self.unit, self.qexp))

    @classmethod
    def signed(cls, sign: int, e: int) -> "SpecMonomial":
        return cls(Unit(sign), e)

    @classmethod
    def symbolic(cls, var: int, e: int, sign: int = 1) -> "SpecMonomial":
        mono = tuple(1 if i == var else 0 for i in range(4))
        return cls(Unit(sign, mono), e)

    @classmethod
    def one(cls) -> "SpecMonomial":
        return cls(Unit(), 0)

    def mul(self, other: "SpecMonomial") -> "SpecMonomial":
        return SpecMonomial(self.unit.mul(other.unit), self.qexp + other.qexp)

    def inv(self) -> "SpecMonomial":
        return SpecMonomial(self.unit.inv(), -self.qexp)

    def pow(self, k: int) -> "SpecMonomial":
        return SpecMonomial(self.unit.pow(k), self.qexp * k)

    def times_qpow(self, k: int) -> "SpecMonomial":
        return SpecMonomial(self.unit, self.qexp + k)

    def __str__(self):
        u = str(self.unit)
        if self.qexp == 0:
            return u
        q = "q" if self.qexp == 1 else f"q^{self.qexp}"
        if u == "+1":
            return q
        if u == "-1":
            return "-" + q
        return f"{u}*{q}"


class AffineWeight:
    """Term weight W(r) = u*r + v with exact rational u, v."""

    __slots__ = ("u", "v")

    def __init__(self, u: Scalar = 0, v: Scalar = 1):
        self.u, self.v = u, v

    def __call__(self, r: int) -> Scalar:
        return self.u * r + self.v


W_ONE = AffineWeight(0, 1)
W_R = AffineWeight(1, 0)


def infer_ring(*xs: Optional[SpecMonomial]) -> CoeffRing:
    for x in xs:
        if x is not None and x.unit.symbolic:
            return SYMBOLIC
    return RATIONAL


_ONE = Unit()
_Q0 = SpecMonomial.one()
_BILATERAL = ((0, 1), (-1, -1))


def check_base(m: int) -> None:
    """Every sum and product runs in steps of q^m, so m must be at least 1."""
    if m < 1:
        raise ConstraintViolationError("base scale must be a positive integer")


def _lead(g: int, k: int, s: int) -> int:
    """The lowest q-exponent in the expansion of v^k/(1-v)^s, ord(v) = g."""
    return k * g if g > 0 else (s - k) * -g


class _Acc:
    """Exact coefficients of a sum of terms, accumulated per exponent up to
    ``order`` and made into one series at the end.

    Scalar parts live in a dense list over [lo, order]; parts that carry a
    symbolic monomial live in a dict keyed by (exponent, monomial).
    """

    __slots__ = ("ring", "order", "lo", "num", "sym")

    def __init__(self, ring: CoeffRing, order: int):
        self.ring = ring
        self.order = order
        self.lo = order + 1
        self.num: list = []
        self.sym: dict = {}

    def _reach(self, e: int) -> None:
        if e < self.lo:
            self.num[:0] = [0] * (self.lo - e)
            self.lo = e

    def _need_symbolic(self) -> None:
        if not self.ring.symbolic:
            raise RingMismatchError("symbolic coefficient in a rational-ring series")

    def add(self, e: int, c: Scalar, mono: Monomial = MONO_ONE) -> None:
        """Add c * mono * q^e."""
        if e > self.order:
            return
        self._reach(e)
        if mono == MONO_ONE:
            self.num[e - self.lo] += c
        else:
            self._need_symbolic()
            self.sym[e, mono] = self.sym.get((e, mono), 0) + c

    def add_term(
        self, c: Scalar, unit: Unit, shift: int, v: SpecMonomial, k: int, s: int
    ) -> None:
        """Add c * unit * q^shift * v^k / (1-v)^s, for k in {0, 1}, s in {1, 2}.

        With v = u q^g the expansion is
          g > 0:  sum over j >= k of C(j-k+s-1, s-1) u^j q^(jg),
          g < 0:  (-1)^s times the sum over j >= s-k of C(j+k-1, s-1) u^-j q^(-jg),
          g = 0:  the constant (-1)^k / 2^s for u = -1, an error otherwise.
        """
        if s not in (1, 2):
            raise ValueError("s must be 1 or 2")
        g, u = v.qexp, v.unit
        if g == 0:
            what = f"term {v}/(1-{v})^{s}" if k else f"1/(1-{v})^{s}"
            if u.symbolic:
                raise SymbolicNonUnitError(
                    f"{what} has a non-Laurent constant coefficient"
                    if k
                    else f"{what} is not Laurent in q"
                )
            if u.sign == 1:
                raise PoleError(f"{what} hits the pole at 1")
        if unit.symbolic:
            self._need_symbolic()
        if g == 0:
            self.add(shift, c * unit.sign * Fraction((-1) ** k, 2**s), unit.mono)
            return
        if g > 0:
            step, us, um, j, lead, d = g, u.sign, u.mono, k, 1, 1 - k
        else:
            ui = u.inv()
            step, us, um, j, lead, d = -g, ui.sign, ui.mono, s - k, (-1) ** s, k - 1
        # the binomial factor C(., s-1) of the j-th term is 1, or j + d for s = 2
        e = shift + j * step
        n = max((self.order - e) // step + 1, 0)
        if um != MONO_ONE and n > (0 if j else 1):
            self._need_symbolic()
        if not n:
            return
        self._reach(e)
        c0 = c * lead * unit.sign * (us if j % 2 else 1)
        mono = mono_mul(unit.mono, mono_pow(um, j))
        if mono == MONO_ONE and um == MONO_ONE:
            cs = [c0, c0 * us]
            if s == 1:
                terms = cs * (n // 2 + 1)
            else:
                terms = [cs[i & 1] * b for i, b in enumerate(range(j + d, j + d + n))]
            window = slice(e - self.lo, None, step)
            self.num[window] = list(map(operator.add, self.num[window], terms))
            return
        sym = self.sym
        for b in range(j + d, j + d + n):
            sym[e, mono] = sym.get((e, mono), 0) + (c0 if s == 1 else c0 * b)
            e += step
            c0 *= us
            mono = mono_mul(mono, um)

    def series(self) -> QSeries:
        num, lo = self.num, self.lo
        cols: dict = {}
        for (e, mono), c in self.sym.items():
            if mono == MONO_ONE:
                num[e - lo] += c
            elif c:
                cols.setdefault(e, {})[mono] = normalize_scalar(c)
        coeffs = [c if type(c) is int else normalize_scalar(c) for c in num]
        for e, terms in cols.items():
            if coeffs[e - lo]:
                terms[MONO_ONE] = coeffs[e - lo]
            coeffs[e - lo] = LaurentPoly._raw(terms)
        return QSeries._raw(self.ring, lo, coeffs, self.order)


def _window(order: int, pad: int, min_order, grows, starts, what: str):
    """Yield the indices of a summation window, walking from each (start,
    step) of ``starts``.  A direction closes at the first index whose term
    lies wholly above ``order`` while ``grows(n, step)`` says every later
    term does too; ``pad`` more indices are taken past that point."""
    for n, step in starts:
        extra = pad
        for _ in range(_LOOP_LIMIT + 1):
            if min_order(n) > order and grows(n, step):
                if extra <= 0:
                    break
                extra -= 1
            yield n
            n += step
        else:
            raise DivergentTailError(f"{what} failed to close")


def _lambert_window(
    acc, pad, starts, what, v_unit, g0, m, k, s, shift, prefactor, c=1
) -> None:
    """Add to ``acc`` the sum over the window of c * w * unit * q^shift(n) *
    v^k / (1-v)^s with v = v_unit q^(g0 + m n) and (w, unit) = prefactor(n);
    w = 0 skips n, but c = 0 still writes (and ring-checks) every term."""

    def min_order(n: int) -> int:
        return shift(n) + _lead(g0 + m * n, k, s)

    def grows(n: int, step: int) -> bool:
        return (g0 + m * n) * step > 0

    for n in _window(acc.order, pad, min_order, grows, starts, what):
        w, unit = prefactor(n)
        if w:
            acc.add_term(c * w, unit, shift(n), SpecMonomial(v_unit, g0 + m * n), k, s)


def term_series(
    v: SpecMonomial, s: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """Expand v/(1-v)^s exactly, for s in {1, 2}."""
    acc = _Acc(ring or infer_ring(v), order)
    acc.add_term(1, _ONE, 0, v, 1, s)
    return acc.series()


def recip_series(
    v: SpecMonomial, s: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """Expand 1/(1-v)^s exactly, for s in {1, 2}."""
    acc = _Acc(ring or infer_ring(v), order)
    acc.add_term(1, _ONE, 0, v, 0, s)
    return acc.series()


def times_spec_monomial(qs: QSeries, x: SpecMonomial, weight: Scalar = 1) -> QSeries:
    """Multiply a series by weight * u * q^e."""
    c = x.unit.value()
    if weight != 1:
        c = c * weight
    return qs.scale(c).shifted(x.qexp)


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def _factors(x: SpecMonomial, n: int, m: int, order: int, ring: CoeffRing) -> QSeries:
    """The product of (1 - x*q^{m*i}) for 0 <= i < n through q^order: the
    factors past q^order are 1 there.  Each factor (1 - u q^d) updates one
    fresh list in place: a[k] -= u * a[k - d] for k >= d, from old values."""
    if order < 0:
        return QSeries.zero(ring, order)
    a = [1] + [0] * order
    exps = range(x.qexp, order + 1, m)[:n]
    if exps:
        u = ring.coerce(x.unit.value())
        for d in exps:
            if u == 1:
                a[d:] = map(operator.sub, a[d:], a[: order + 1 - d])
            elif u == -1:
                a[d:] = map(operator.add, a[d:], a[: order + 1 - d])
            else:
                a[d:] = [c - u * b if b else c for c, b in zip(a[d:], a)]
        if type(u) is LaurentPoly:
            a = [ring.coerce(c) for c in a]
    return QSeries._raw(ring, 0, a, order)


# Bounded: a full verify-all uses about 230 distinct products.
@functools.lru_cache(maxsize=512)
def _poch_inf_cached(x: SpecMonomial, m: int, order: int, symbolic: bool) -> QSeries:
    # order + 1 factors reach past q^order at every base
    return _factors(x, order + 1, m, order, SYMBOLIC if symbolic else RATIONAL)


def poch_inf(
    x: SpecMonomial, m: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """The infinite product of (1 - x*q^{m*i}) for i >= 0, truncated."""
    check_base(m)
    if x.qexp < 0:
        raise NegativeOrderArgumentError(
            f"infinite product needs ord(x) >= 0, got ord = {x.qexp}"
        )
    return _poch_inf_cached(x, m, order, (ring or infer_ring(x)).symbolic)


def poch_fin(
    x: SpecMonomial, n: int, m: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """The finite product of (1 - x*q^{m*i}) for 0 <= i < n."""
    check_base(m)
    if n < 0:
        raise ConstraintViolationError("factor count must be nonnegative")
    if x.qexp < 0:
        raise NegativeOrderArgumentError(
            f"finite product needs ord(x) >= 0, got ord = {x.qexp}"
        )
    return _factors(x, n, m, order, ring or infer_ring(x))


def poch_pair(
    x: SpecMonomial, m: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """The two-sided product (x; q^m)_inf * (x^-1 q^m; q^m)_inf."""
    return poch_inf(x, m, order, ring) * poch_inf(x.inv().times_qpow(m), m, order, ring)


# ---------------------------------------------------------------------------
# bilateral sums
# ---------------------------------------------------------------------------


def theta_sum(
    z: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 0,
) -> QSeries:
    """The alternating bilateral sum of z^n * q^{m(n^2-n)/2}."""
    check_base(m)
    e = z.qexp

    def expo(n):
        return m * (n * n - n) // 2 + n * e

    # the lowest term sits at an integer next to the vertex n = 1/2 - e/m
    vertex = (m - 2 * e) // (2 * m)
    _check_window(min(expo(vertex), expo(vertex + 1)))
    acc = _Acc(ring or infer_ring(z), order)

    def past_vertex(n, step):
        return n != 0 and expo(n) >= expo(n - step)

    for n in _window(order, pad, expo, past_vertex, _BILATERAL, "theta window"):
        u = z.unit.pow(n)
        acc.add(expo(n), u.sign if n % 2 == 0 else -u.sign, u.mono)
    return acc.series()


def phi_minus(m: int, order: int, ring: Optional[CoeffRing] = None) -> QSeries:
    """The bilateral sum of (-1)^n q^{m n^2}: the theta sum at z = q^m in
    base q^{2m}."""
    return theta_sum(SpecMonomial.signed(1, m), 2 * m, order, ring)


def pf_sum(
    z: SpecMonomial,
    m: int,
    order: int,
    cleared: bool = True,
    ring: Optional[CoeffRing] = None,
    pad: int = 0,
) -> QSeries:
    """The partial-fraction bilateral sum over n of
    (-1)^n q^{m(n^2+n)/2} * (1-z) / (1 - z q^{mn}).

    With ``cleared`` (the identity-contract form) each term carries the
    factor (1-z) and the n = 0 term is the exact constant 1.  With
    ``cleared=False`` the bare sum of reciprocals is returned instead.
    """
    check_base(m)
    if z.unit.symbolic:
        if z.qexp != 0:
            raise ConstraintViolationError(
                "symbolic partial-fraction argument needs ord(z) = 0"
            )
    elif z.qexp < 0:
        raise ConstraintViolationError(
            f"partial-fraction argument needs ord(z) >= 0, got {z.qexp}"
        )
    acc = _Acc(ring or infer_ring(z), order)
    e = z.qexp
    # numerator 1, then -z when cleared; the cleared n = 0 term is exactly 1
    parts = [(1, _ONE, 0)]
    if cleared:
        if z.unit.symbolic:
            acc._need_symbolic()  # the factor (1 - z) itself
        parts.append((-1, z.unit, e))
        acc.add(0, 1)
    for c, unit, de in parts:
        _lambert_window(
            acc, pad, _BILATERAL, "partial-fraction window", z.unit, e, m, 0, 1,
            shift=lambda n: m * (n * n + n) // 2 + de,
            prefactor=lambda n: (0 if cleared and n == 0 else (-1) ** (n % 2), unit),
            c=c,
        )
    return acc.series()


def _check_f_args(a: SpecMonomial, m: int, name: str):
    check_base(m)
    if not 0 < a.qexp < m:
        raise ConstraintViolationError(
            f"{name} needs 0 < ord < m, got ord = {a.qexp} with m = {m}"
        )


def _check_pole_guard(b: SpecMonomial, m: int, name: str):
    """An argument whose order is divisible by m must carry unit -1."""
    if b.qexp % m == 0:
        if b.unit.symbolic:
            raise SymbolicNonUnitError(
                f"{name} has a symbolic unit at an order divisible by {m}"
            )
        if b.unit.sign == 1:
            raise PoleError(f"{name} = {b} hits a pole of the sum")


def _bilateral(W, A, x, s, m, order, ring, pad) -> QSeries:
    """The bilateral sum of W(n) * A^n / (1 - x q^{mn})^s."""
    acc = _Acc(ring or infer_ring(A, x), order)
    _lambert_window(
        acc, pad, _BILATERAL, "bilateral window", x.unit, x.qexp, m, 0, s,
        shift=lambda n: A.qexp * n,
        prefactor=lambda n: (W(n), A.unit.pow(n)),
    )
    return acc.series()


def jordan_kronecker(
    a: SpecMonomial,
    b: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """The bilateral sum of a^n / (1 - b q^{mn}).

    Requires 0 < ord(a) < m; ord(b) may be any integer whose pole guard
    holds (unit -1 whenever ord(b) is divisible by m).
    """
    _check_f_args(a, m, "first argument")
    _check_pole_guard(b, m, "second argument")
    return _bilateral(W_ONE, a, b, 1, m, order, ring, pad)


def jk_partial_a(
    a: SpecMonomial,
    b: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """The bilateral sum of b^n q^{mn} / (1 - a q^{mn})^2."""
    _check_f_args(a, m, "first argument")
    _check_f_args(b, m, "second argument")
    return _bilateral(W_ONE, b.times_qpow(m), a, 2, m, order, ring, pad)


def n_weighted_sum(
    a: SpecMonomial,
    x: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """The bilateral sum of n * a^n / (1 - x q^{mn})."""
    _check_f_args(a, m, "first argument")
    if x.qexp <= 0:
        raise ConstraintViolationError(
            f"second argument needs positive order, got {x.qexp}"
        )
    _check_pole_guard(x, m, "second argument")
    return _bilateral(W_R, a, x, 1, m, order, ring, pad)


def lambert_sum(
    terms: Sequence[tuple],
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """The sum over terms (c, M, x, s, W, r0) of c times the one-sided
    Lambert sum of W(r) * M^r * x q^{mr} / (1 - x q^{mr})^s over r >= r0.

    Terms are checked in turn, each just before its window is written into
    the one accumulator every term shares.
    """
    check_base(m)
    if ring is None:
        ring = infer_ring(*(y for t in terms for y in t[1:3]))
    acc = _Acc(ring, order)
    for c, M, x, s, W, r0 in terms:
        if r0 not in (0, 1):
            raise ConstraintViolationError("lower summation index must be 0 or 1")
        if s not in (1, 2):
            raise ConstraintViolationError("denominator power must be 1 or 2")
        mu, xi = M.qexp, x.qexp
        if mu + m <= 0:
            raise DivergentTailError(
                f"term order slope ord(M) + m = {mu + m} is not positive"
            )
        # a pole inside the summation range is an error unless its weight vanishes
        if xi % m == 0:
            rstar = -xi // m
            if rstar >= r0 and W(rstar) != 0:
                v = SpecMonomial(x.unit, 0)
                if x.unit.symbolic:
                    raise SymbolicNonUnitError(
                        f"Lambert term at r = {rstar} has unit argument {v}"
                    )
                if x.unit.sign == 1:
                    raise PoleError(f"Lambert term at r = {rstar} hits the pole at 1")
        _lambert_window(
            acc, pad, ((r0, 1),), "Lambert tail", x.unit, xi, m, 1, s,
            shift=lambda r: mu * r,
            prefactor=lambda r: (W(r), M.unit.pow(r)),
            c=c,
        )
    return acc.series()


def generalized_lambert(
    M: SpecMonomial,
    x: SpecMonomial,
    s: int,
    W: AffineWeight,
    r0: int,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """The one-sided Lambert sum of W(r) * M^r * x q^{mr} / (1 - x q^{mr})^s
    over r >= r0."""
    return lambert_sum([(1, M, x, s, W, r0)], m, order, ring, pad)


def _l_terms(m: int, weighted) -> list:
    """The lambert_sum terms of the sum of c * l(b) over (b, c) in
    ``weighted``, each b checked as ``l_func`` checks its argument."""
    check_base(m)
    terms = []
    for b, c in weighted:
        if b.qexp <= 0:
            raise ConstraintViolationError(
                f"Lambert difference needs positive order, got {b.qexp}"
            )
        _check_pole_guard(b, m, "argument")
        terms += [(c, _Q0, b, 1, W_ONE, 0), (-c, _Q0, b.inv(), 1, W_ONE, 1)]
    return terms


def l_func(
    b: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
    pad: int = 2,
) -> QSeries:
    """l(b): the difference of the two one-sided Lambert sums of b and 1/b."""
    return lambert_sum(_l_terms(m, [(b, 1)]), m, order, ring, pad)


def char_lambert(
    table: Sequence[int], s: int, order: int, ring: Optional[CoeffRing] = None
) -> QSeries:
    """The Lambert sum of table[r mod k] * q^r / (1 - q^r)^s over r >= 1."""
    k = len(table)
    if k < 1:
        raise ConstraintViolationError("character table must be non-empty")
    if any(v not in (-1, 0, 1) for v in table):
        raise ConstraintViolationError("character table entries must be -1, 0 or +1")
    terms = [
        (table[j % k], _Q0, SpecMonomial.signed(1, j), s, W_ONE, 0)
        for j in range(1, k + 1)
        if table[j % k]
    ]
    return lambert_sum(terms, k, order, ring or RATIONAL)


def jk_product_form(
    a: SpecMonomial,
    b: SpecMonomial,
    m: int,
    order: int,
    ring: Optional[CoeffRing] = None,
) -> QSeries:
    """The product representation of the bilateral f-sum, computed by series
    division: (q)^2 (ab) (1/(ab) q) / ((a)(q/a)(b)(q/b)), all in base q^m."""
    _check_f_args(a, m, "first argument")
    _check_f_args(b, m, "second argument")
    ab = a.mul(b)
    if ab.qexp > m:
        raise ConstraintViolationError(
            f"needs ord(a) + ord(b) <= m, got {ab.qexp} with m = {m}"
        )
    if ab.qexp == m and ab.unit.is_plus_one():
        raise ConstraintViolationError(
            "ord(a) + ord(b) = m with unit(ab) = +1 makes the numerator vanish"
        )
    ring = ring or infer_ring(a, b)
    num = poch_inf(SpecMonomial.signed(1, m), m, order, ring) ** 2 * poch_pair(ab, m, order, ring)
    den = poch_pair(a, m, order, ring) * poch_pair(b, m, order, ring)
    return num * den.inv()
