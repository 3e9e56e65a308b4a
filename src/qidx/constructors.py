"""Series constructors: Pochhammer products, theta and partial-fraction sums,
the bilateral f-function family, and generalized Lambert sums.

Parameters are specialized to monomials u * q^e where the unit u is a sign or
a symbolic unit monomial (an invertible generator of the coefficient ring).
There is one coefficient ring, so no constructor takes a ring: a series
holds tau-coefficients exactly where its arguments' symbolic units put them,
and mixes freely with series that hold none.  Its coefficients are put in
storage form by ``exactalg`` (``canon``, ``column``).
Every reciprocal 1/(1-v)^s goes through one three-case expansion:

  ord(v) > 0   geometric/binomial expansion in v,
  ord(v) < 0   flipped expansion in v^-1 (series in positive powers of q),
  ord(v) = 0   exact constants for u = -1, an error for u = +1 or symbolic.

Bilateral sums enumerate a finite window of indices; each side stops at its
first index whose term lies wholly above the truncation order, and every
index past it lies higher still.  Every sum writes each term's expansion
straight into one per-exponent accumulator (``_Acc``), so it builds its
series once; one integer walker serves every Lambert window.

Each shape of series has one code path.  Sums of W(n) A^n / (1 - x q^{mn})^s
go through ``_lambert_window``: f(a, b), its a-derivative form and the
n-weighted sum share ``_bilateral``, ``pf_sum`` writes its terms through it,
and ``lambert_sum`` sums a list of one-sided terms (c, M, x, s, W, r0) for
``generalized_lambert``, ``l_func``, ``char_lambert`` and the identity
builders.  ``phi_minus`` is ``theta_sum`` at z = q^m in base q^{2m}.  Finite
and infinite Pochhammer products share ``_factors``: one shift and one add
per factor on one packed int, in digits as wide as the coefficient bound
2*exp(pi*sqrt(order/(3m))).  ``poch_pair``, (x)(q^m/x), at x = u q^e with
0 <= e <= m is one pass over both progressions e + mi and m - e + mi, in
digits for their bound 4*exp(pi*sqrt(2*order/(3m))); for a tau-unit u the
digits of a q slot run from u^-n2 to u^n1, plus a guard digit, and e = m
is the same pair at x^-1 q^m.  Outside [0, m] it raises the error of
``poch_inf``.  ``check_base`` is the one base-scale check.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, count, cycle, repeat, takewhile

from .errors import (
    ConstraintViolationError,
    DivergentTailError,
    NegativeOrderArgumentError,
    PoleError,
    SymbolicNonUnitError,
)
from .exactalg import MONO_ONE, LaurentPoly, canon, column, mono_inv, mono_mul, mono_pow, mono_str
from .qring import QSeries, _unpack

_LOOP_LIMIT = 200_000
MAX_ORDER = 10_000  # no series may start below q^-MAX_ORDER (see ``qidx.exprs``)


def _check_window(lowest: int) -> None:
    if lowest < -MAX_ORDER:
        raise ConstraintViolationError(f"series would start at q^{lowest}, below q^-{MAX_ORDER}")


class Unit:
    """An invertible coefficient: sign times a symbolic unit monomial.
    Equal and hashed by value."""

    __slots__ = ("sign", "mono")

    def __init__(self, sign: int = 1, mono: tuple[int, ...] = MONO_ONE):
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

    def value(self) -> int | LaurentPoly:
        """The unit as a coefficient-ring element."""
        return column({self.mono: self.sign})

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

    def __init__(self, u: int | Fraction = 0, v: int | Fraction = 1):
        self.u, self.v = u, v

    def __call__(self, r: int) -> int | Fraction:
        return self.u * r + self.v


W_ONE = AffineWeight(0, 1)
W_R = AffineWeight(1, 0)


_ONE = Unit()
_Q0 = SpecMonomial.one()
_MINUS = SpecMonomial.signed(-1, 0)
_BILATERAL = ((0, 1), (-1, -1))


def check_base(m: int) -> None:
    """Every sum and product runs in steps of q^m, so m must be at least 1."""
    if m < 1:
        raise ConstraintViolationError("base scale must be a positive integer")


def _unit_pole(u: Unit, what: str) -> None:
    """Refuse 1/(1-u) at q-order 0 unless u = -1, where it is the constant
    1/2: u = +1 is the pole at 1, and a symbolic u is not Laurent in q."""
    if u.symbolic:
        raise SymbolicNonUnitError(f"{what}: 1/(1-{u}) is not Laurent in q")
    if u.sign == 1:
        raise PoleError(f"{what} hits the pole at 1")


class _Acc:
    """Exact coefficients of a sum of terms, accumulated per exponent up to
    ``order`` and made into one series at the end.

    The scalar parts live in a dense list ``num`` over [lo, order]; the walker
    of ``_lambert_window`` adds each signed term into it as one slice.
    ``add_term`` writes a term one coefficient at a time into a dict ``sym``
    keyed by (exponent, monomial), whose scalar entries ``series`` folds
    into ``num``.
    """

    __slots__ = ("order", "lo", "num", "sym")

    def __init__(self, order: int):
        self.order = order
        self.lo = order + 1
        self.num: list = []
        self.sym: dict = {}

    def _reach(self, e: int) -> None:
        if e < self.lo:
            self.num[:0] = [0] * (self.lo - e)
            self.lo = e

    def add(self, e: int, c: int | Fraction, mono: tuple[int, ...] = MONO_ONE) -> None:
        """Add c * mono * q^e."""
        if e > self.order:
            return
        self._reach(e)
        if mono == MONO_ONE:
            self.num[e - self.lo] += c
        else:
            self.sym[e, mono] = self.sym.get((e, mono), 0) + c

    def add_term(
        self, c: int | Fraction, unit: Unit, shift: int, v: SpecMonomial, k: int, s: int
    ) -> None:
        """Add c * unit * q^shift * v^k / (1-v)^s, for k in {0, 1}, s in {1, 2},
        one coefficient at a time into ``sym``.

        With v = u q^g the expansion is
          g > 0:  sum over j >= k of C(j-k+s-1, s-1) u^j q^(jg),
          g < 0:  (-1)^s times the sum over j >= s-k of C(j+k-1, s-1) u^-j q^(-jg),
          g = 0:  the constant (-1)^k / 2^s for u = -1, an error otherwise.
        """
        if s not in (1, 2):
            raise ValueError("s must be 1 or 2")
        g, u = v.qexp, v.unit
        if g == 0:
            _unit_pole(u, f"term {v}/(1-{v})^{s}" if k else f"1/(1-{v})^{s}")
            self.add(shift, c * unit.sign * Fraction((-1) ** k, 2**s), unit.mono)
            return
        if g > 0:
            step, j, lead = g, k, 1
        else:
            step, u, j, lead = -g, u.inv(), s - k, (-1) ** s
        e = shift + j * step
        if e > self.order:
            return
        self._reach(e)
        c0 = c * lead * unit.sign * (u.sign if j % 2 else 1)
        mono = mono_mul(unit.mono, mono_pow(u.mono, j))
        # the binomial factor C(., s-1) of the j-th term is 1, or b for s = 2
        sym = self.sym
        for b in range(1, (self.order - e) // step + 2):
            sym[e, mono] = sym.get((e, mono), 0) + (c0 if s == 1 else c0 * b)
            e += step
            c0 *= u.sign
            mono = mono_mul(mono, u.mono)

    def series(self) -> QSeries:
        num, lo = self.num, self.lo
        cols: dict = {}
        for (e, mono), c in self.sym.items():
            if mono == MONO_ONE:
                num[e - lo] += c
            elif c:
                cols.setdefault(e, {})[mono] = canon(c)
        coeffs = [c if type(c) is int else canon(c) for c in num]
        for e, terms in cols.items():
            if coeffs[e - lo]:
                terms[MONO_ONE] = coeffs[e - lo]
            coeffs[e - lo] = column(terms)
        return QSeries(lo, coeffs, self.order)


def _lambert_window(order, starts, what, x, m, k, s, R, W=W_ONE, c=1, P=_Q0, h=0):
    """The function that adds to an accumulator the sum over the window of
    c * W(n) * P * R^n * q^(h n(n+1)/2) * v^k / (1-v)^s with v = x q^(m n).

    Each (start, step) of ``starts`` walks one direction.  At each index n
    the walker computes g = ord(v), the term's lowest exponent and the close
    test from ints: a direction closes at the first index whose term lies
    wholly above ``order`` while g has the sign of the step; every later
    term lies higher still, so the walk stops there.
    Where every unit is a sign and g != 0, the term's expansion is one
    progression of step |g| and ratio +-1, added into ``_Acc.num`` as one
    slice; tau-units and the g = 0 constant go through ``_Acc.add_term``.
    A zero c * W(n) skips n.  DivergentTailError, before anything is
    written, if a walk of the window would not close within _LOOP_LIMIT
    steps."""
    g0, e0, mu, wu, wv = x.qexp, P.qexp, R.qexp, W.u, W.v
    for n, step in starts:
        # past its turn a walk's terms only rise, so it closes in time
        # exactly when the index _LOOP_LIMIT steps out closes it
        n += _LOOP_LIMIT * step
        g = g0 + m * n
        low = e0 + mu * n + h * (n * n + n) // 2 + (k * g if g > 0 else (k - s) * g)
        if g * step <= 0 or low <= order:
            raise DivergentTailError(f"{what} failed to close")
    xs, rs = x.unit.sign, R.unit.sign
    signed = not (x.unit.symbolic or R.unit.symbolic or P.unit.symbolic)
    # the sign of a term's first coefficient over that of c * W(n) * P * R^n,
    # for g > 0 and g < 0; the coefficients after it go on in ratio xs
    first = (xs**k, xs ** (s - k) * (-1) ** s)

    def write(acc: _Acc) -> None:
        num = acc.num
        for n, step in starts:
            sign = P.unit.sign * rs ** (n % 2)
            while True:
                g = g0 + m * n
                shift = e0 + mu * n + h * (n * n + n) // 2
                # the lowest exponent in the expansion of v^k/(1-v)^s
                low = shift + (k * g if g > 0 else (k - s) * g)
                if g * step > 0 and low > order:
                    break
                w = c * (wu * n + wv)
                if signed and g:
                    if w and low <= order:
                        if low < acc.lo:
                            acc._reach(low)
                        c0 = w * sign * first[g < 0]
                        terms = repeat(c0) if xs == 1 else cycle((c0, -c0))
                        if s == 2:
                            terms = map(operator.mul, terms, count(1))
                        window = slice(low - acc.lo, None, abs(g))
                        num[window] = map(operator.add, num[window], terms)
                elif w:
                    unit = P.unit.mul(R.unit.pow(n))
                    acc.add_term(w, unit, shift, SpecMonomial(x.unit, g), k, s)
                n += step
                sign *= rs

    return write


def term_series(v: SpecMonomial, s: int, order: int) -> QSeries:
    """Expand v/(1-v)^s exactly, for s in {1, 2}."""
    acc = _Acc(order)
    acc.add_term(1, _ONE, 0, v, 1, s)
    return acc.series()


def recip_series(v: SpecMonomial, s: int, order: int) -> QSeries:
    """Expand 1/(1-v)^s exactly, for s in {1, 2}."""
    acc = _Acc(order)
    acc.add_term(1, _ONE, 0, v, 0, s)
    return acc.series()


def times_spec_monomial(qs: QSeries, x: SpecMonomial) -> QSeries:
    """Multiply a series by u * q^e."""
    return qs.scale(x.unit.value()).shifted(x.qexp)


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def _factors(x: SpecMonomial, n: int, m: int, order: int, pair: bool = False) -> QSeries:
    """The product of (1 - x*q^{m*i}) for 0 <= i < n, and of (1 - x^-1*q^{m+m*i})
    if ``pair`` (0 <= e < m), through q^order (the factors past q^order are
    1 there), for x = sign * mono * q^e, on one int of signed W-bit digits:
    digit k*S + n2 + j is the coefficient of mono^j q^k.  S = 1 for a sign
    unit; for a tau-unit, S = n1 + n2 + 1 (n1, n2 the most factors of each
    progression whose exponents sum inside the window), plus for a pair a
    guard digit that takes what an x^-1 factor shifts up from below q^order.
    Each factor shifts and adds the digits that stay inside; what lands
    above is never read."""
    if order < 0:
        return QSeries.zero(order)
    runs = range(x.qexp, order + 1, m)[:n], range(m - x.qexp, order + 1, m)[: n * pair]
    mono, op = x.unit.mono, operator.sub if x.unit.sign == 1 else operator.add
    tau = mono != MONO_ONE
    n1, n2 = (len(list(takewhile(order.__ge__, accumulate(r)))) * tau for r in runs)
    S = n1 + n2 + 1 + pair if tau else 1
    # |digit| <= [q^k] prod (1 + q^(s+m*i)) over p progressions < 2^p*exp(pi*sqrt(p*order/(3m))),
    # at q = e^-t, t = pi/sqrt(12*m*order/p), as each sum_i log(1 + e^(-t(s+m*i))) <= log 2
    # + pi^2/(12*m*t); partial products stay below.  p bits, a sign bit and a float bit
    p = 1 + pair
    nbytes = (int(math.pi * math.sqrt(p * order / (3 * m)) / math.log(2)) + 10 + p) // 8
    W = 8 * nbytes
    shifts = [(d, d * S + t) for r, t in zip(runs, (tau, -tau)) for d in r]
    # a bit above all the factors can add or take keeps a positive (& is slower on
    # a negative int); it is never shifted and never read
    a = (1 << n2 * W) + (1 << (order + 2) * S * W + len(shifts).bit_length())
    window = (1 << (order + 1) * S * W) - 1
    for d, s in shifts:
        a = op(a, (a & (window >> d * S * W)) << s * W)
    a = _unpack(a, (order + 1) * S, nbytes)
    if tau:
        pows = [mono_pow(mono, j) for j in reversed(range(-n2, n1 + 1))]
        a = [column({pw: c for pw, c in zip(pows, reversed(a[k : k + n1 + n2 + 1])) if c})
             for k in range(0, len(a), S)]
    return QSeries(0, a, order)


# Bounded: a full verify-all uses about 230 distinct products.
@functools.lru_cache(maxsize=512)
def _poch_inf_cached(x: SpecMonomial, m: int, order: int, pair: bool = False) -> QSeries:
    # order + 1 factors reach past q^order at every base
    return _factors(x, order + 1, m, order, pair)


def poch_inf(x: SpecMonomial, m: int, order: int) -> QSeries:
    """The infinite product of (1 - x*q^{m*i}) for i >= 0, truncated."""
    check_base(m)
    if x.qexp < 0:
        raise NegativeOrderArgumentError(
            f"infinite product needs ord(x) >= 0, got ord = {x.qexp}"
        )
    return _poch_inf_cached(x, m, order)


def poch_fin(x: SpecMonomial, n: int, m: int, order: int) -> QSeries:
    """The finite product of (1 - x*q^{m*i}) for 0 <= i < n."""
    check_base(m)
    if n < 0:
        raise ConstraintViolationError("factor count must be nonnegative")
    if x.qexp < 0:
        raise NegativeOrderArgumentError(
            f"finite product needs ord(x) >= 0, got ord = {x.qexp}"
        )
    return _factors(x, n, m, order)


def poch_pair(x: SpecMonomial, m: int, order: int) -> QSeries:
    """(x; q^m)_inf * (x^-1 q^m; q^m)_inf, 0 <= ord(x) <= m, in one pass (module docstring)."""
    check_base(m)
    if not 0 <= x.qexp <= m:
        raise NegativeOrderArgumentError(f"pair needs 0 <= ord(x) <= m, got {x.qexp}, m = {m}")
    if x.qexp == m:
        x = x.inv().times_qpow(m)  # the same pair, with no x^-1 factor at q^0
    return _poch_inf_cached(x, m, order, True)


# ---------------------------------------------------------------------------
# bilateral sums
# ---------------------------------------------------------------------------


def theta_sum(z: SpecMonomial, m: int, order: int) -> QSeries:
    """The alternating bilateral sum of z^n * q^{m(n^2-n)/2}."""
    check_base(m)
    e = z.qexp

    def expo(n):
        return m * (n * n - n) // 2 + n * e

    # the lowest term sits at an integer next to the vertex n = 1/2 - e/m;
    # each step out from it raises the exponent, so a walk closes at the
    # first term above ``order``
    vertex = (m - 2 * e) // (2 * m)
    _check_window(min(expo(vertex), expo(vertex + 1)))
    acc = _Acc(order)
    for n, step in ((vertex + 1, 1), (vertex, -1)):
        while (x := expo(n)) <= order:
            u = z.unit.pow(n)
            acc.add(x, u.sign if n % 2 == 0 else -u.sign, u.mono)
            n += step
    return acc.series()


def phi_minus(m: int, order: int) -> QSeries:
    """The bilateral sum of (-1)^n q^{m n^2}: the theta sum at z = q^m in
    base q^{2m}."""
    return theta_sum(SpecMonomial.signed(1, m), 2 * m, order)


def pf_sum(z: SpecMonomial, m: int, order: int, cleared: bool = True) -> QSeries:
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
    # numerator 1, then -z when cleared; the cleared n = 0 term is exactly 1
    parts = [(1, _Q0), (-1, z)] if cleared else [(1, _Q0)]
    starts = ((1, 1), (-1, -1)) if cleared else _BILATERAL
    writes = [
        _lambert_window(
            order, starts, "partial-fraction window", z, m, 0, 1, _MINUS, c=c, P=P, h=m
        )
        for c, P in parts
    ]
    acc = _Acc(order)
    if cleared:
        acc.add(0, 1)
    for write in writes:
        write(acc)
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
        _unit_pole(b.unit, f"{name} = {b}")


def _bilateral(W, A, x, s, m, order) -> QSeries:
    """The bilateral sum of W(n) * A^n / (1 - x q^{mn})^s."""
    acc = _Acc(order)
    _lambert_window(order, _BILATERAL, "bilateral window", x, m, 0, s, A, W)(acc)
    return acc.series()


def jordan_kronecker(a: SpecMonomial, b: SpecMonomial, m: int, order: int) -> QSeries:
    """The bilateral sum of a^n / (1 - b q^{mn}).

    Requires 0 < ord(a) < m; ord(b) may be any integer whose pole guard
    holds (unit -1 whenever ord(b) is divisible by m).
    """
    _check_f_args(a, m, "first argument")
    _check_pole_guard(b, m, "second argument")
    return _bilateral(W_ONE, a, b, 1, m, order)


def jk_partial_a(a: SpecMonomial, b: SpecMonomial, m: int, order: int) -> QSeries:
    """The bilateral sum of b^n q^{mn} / (1 - a q^{mn})^2."""
    _check_f_args(a, m, "first argument")
    _check_f_args(b, m, "second argument")
    return _bilateral(W_ONE, b.times_qpow(m), a, 2, m, order)


def n_weighted_sum(a: SpecMonomial, x: SpecMonomial, m: int, order: int) -> QSeries:
    """The bilateral sum of n * a^n / (1 - x q^{mn})."""
    _check_f_args(a, m, "first argument")
    if x.qexp <= 0:
        raise ConstraintViolationError(
            f"second argument needs positive order, got {x.qexp}"
        )
    _check_pole_guard(x, m, "second argument")
    return _bilateral(W_R, a, x, 1, m, order)


def lambert_sum(terms: list[tuple], m: int, order: int) -> QSeries:
    """The sum over terms (c, M, x, s, W, r0) of c times the one-sided
    Lambert sum of W(r) * M^r * x q^{mr} / (1 - x q^{mr})^s over r >= r0.

    Every term is checked, its window included, before any is written into
    the one accumulator the terms share.
    """
    check_base(m)
    acc = _Acc(order)
    for write in [_lambert_term(term, m, order) for term in terms]:
        write(acc)
    return acc.series()


def _lambert_term(term: tuple, m: int, order: int):
    """Check one ``lambert_sum`` term and return the function that writes it."""
    c, M, x, s, W, r0 = term
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
            _unit_pole(x.unit, f"Lambert term at r = {rstar}")
    return _lambert_window(order, ((r0, 1),), "Lambert tail", x, m, 1, s, M, W, c)


def generalized_lambert(
    M: SpecMonomial,
    x: SpecMonomial,
    s: int,
    W: AffineWeight,
    r0: int,
    m: int,
    order: int,
) -> QSeries:
    """The one-sided Lambert sum of W(r) * M^r * x q^{mr} / (1 - x q^{mr})^s
    over r >= r0."""
    return lambert_sum([(1, M, x, s, W, r0)], m, order)


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


def l_func(b: SpecMonomial, m: int, order: int) -> QSeries:
    """l(b): the difference of the two one-sided Lambert sums of b and 1/b."""
    return lambert_sum(_l_terms(m, [(b, 1)]), m, order)


def char_lambert(table: tuple[int, ...], s: int, order: int) -> QSeries:
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
    return lambert_sum(terms, k, order)


def jk_product_form(a: SpecMonomial, b: SpecMonomial, m: int, order: int) -> QSeries:
    """The product form of the bilateral f-sum, (q)^2 (ab) (1/(ab) q) /
    ((a)(q/a)(b)(q/b)) in base q^m: with tau-units the quotient is sparse,
    and ``/`` finds it by long division without a dense inverse."""
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
    num = poch_inf(SpecMonomial.signed(1, m), m, order) ** 2 * poch_pair(ab, m, order)
    den = poch_pair(a, m, order) * poch_pair(b, m, order)
    return num / den
