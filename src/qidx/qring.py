"""Truncated Laurent series in q with an explicit knowledge window.

A QSeries stores exact coefficients for every exponent in [offset, order]
(both inclusive).  Exponents below the offset are exactly zero; exponents
above the order are unknown.  ``offset <= order + 1`` always holds, with the
empty window encoding the zero series known through ``order``.

Coefficients live in one of two rings (see ``exactalg``): plain rationals,
or Laurent polynomials in the four unit symbols.  In both cases scalar
entries are stored as int/Fraction; symbolic entries as LaurentPoly.

Multiplication picks one of three exact kernels from what the operands hold:

  * either operand has a tau-monomial coefficient: a sparse term product.
    Symbolic windows are sparse (a few hundred nonzero terms spread over
    about a hundred tau-monomials), so every pair of nonzero terms whose
    q exponents land inside the window is multiplied once and accumulated
    under one int key that folds the q exponent and the four tau exponents;
  * scalar coefficients, one side with at most two nonzero terms: a
    schoolbook loop over the nonzero terms of the short side;
  * scalar coefficients otherwise: Kronecker substitution.  Both windows
    are scaled to a common denominator, packed into one big integer each
    with byte-aligned signed digits, and multiplied once; packing and
    unpacking are linear-time byte conversions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from operator import mul
from typing import List, Tuple

from .errors import (
    NonUnitLeadingError,
    OrderExceededError,
    RingMismatchError,
)
from .exactalg import (
    MONO_ONE,
    NVARS,
    LaurentPoly,
    Monomial,
    mono_inv,
    normalize_scalar,
)


class CoeffRing:
    """Tag object naming the coefficient ring of a series."""

    __slots__ = ("name", "symbolic")

    def __init__(self, name: str, symbolic: bool):
        self.name = name
        self.symbolic = symbolic

    def __repr__(self):
        return f"<ring {self.name}>"

    def coerce(self, c):
        if isinstance(c, LaurentPoly):
            if not self.symbolic:
                raise RingMismatchError(
                    "symbolic coefficient in a rational-ring series"
                )
            cv = c.constant_value()
            return c if cv is None else cv
        if isinstance(c, (int, Fraction)):
            return normalize_scalar(c)
        raise TypeError(f"unsupported coefficient type: {type(c).__name__}")

    def inv_coeff(self, c):
        """Invert a coefficient; NonUnitLeadingError if it is not a unit."""
        if isinstance(c, LaurentPoly):
            if not self.symbolic:
                raise RingMismatchError("symbolic coefficient in rational ring")
            u = c.as_unit()
            if u is None:
                raise NonUnitLeadingError(
                    f"leading coefficient is not a single-term unit: {c}"
                )
            mono, cc = u
            return LaurentPoly.monomial(mono_inv(mono), Fraction(1, 1) / cc)
        if c == 0:
            raise NonUnitLeadingError("leading coefficient is zero")
        return normalize_scalar(Fraction(1, 1) / Fraction(c))


RATIONAL = CoeffRing("rational", symbolic=False)
SYMBOLIC = CoeffRing("symbolic", symbolic=True)


def _canon(c):
    """The storage form of a coefficient an arithmetic op produced: an
    integral Fraction becomes an int, a constant LaurentPoly its scalar."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if type(c) is LaurentPoly:
        cv = c.constant_value()
        return c if cv is None else cv
    return c


def _check_same_ring(x: "QSeries", y: "QSeries"):
    if x.ring is not y.ring:
        raise RingMismatchError(
            f"cannot combine series over {x.ring.name} and {y.ring.name}"
        )


# ---------------------------------------------------------------------------
# product kernels (the module docstring says which one a product uses)
# ---------------------------------------------------------------------------


def _lcm_den(values) -> int:
    return math.lcm(*{c.denominator for c in values if type(c) is Fraction})


def _bias(count: int, nbytes: int) -> int:
    """The int whose ``count`` base-256**nbytes digits are all 2**(8*nbytes-1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(arr: List[int], nbytes: int) -> int:
    """sum(arr[i] * 256**(nbytes*i)) for digits |arr[i]| < 2**(8*nbytes-1).

    Each digit is biased to be non-negative, so the digits' bytes join into
    one int in a single pass; one subtraction takes the bias off again.
    """
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((a + half).to_bytes(nbytes, "little") for a in arr)
    return int.from_bytes(raw, "little") - _bias(len(arr), nbytes)


def _unpack(v: int, count: int, nbytes: int) -> List[int]:
    """The lowest ``count`` signed base-256**nbytes digits of ``v``, each of
    which must satisfy |digit| < 2**(8*nbytes-1)."""
    half = 1 << (8 * nbytes - 1)
    size = nbytes * count
    raw = ((v + _bias(count, nbytes)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [
        int.from_bytes(raw[k : k + nbytes], "little") - half
        for k in range(0, size, nbytes)
    ]


def _packed_product(x: List, y: List, out_len: int) -> List:
    """The first out_len coefficients of the product of two scalar windows:
    both are scaled to integers, packed into one int each and multiplied
    once (Kronecker substitution)."""
    x, y = x[:out_len], y[:out_len]
    dx, dy = _lcm_den(x), _lcm_den(y)
    if dx > 1:
        x = [int(c * dx) for c in x]
    if dy > 1:
        y = [int(c * dy) for c in y]
    bound = out_len * max(map(abs, x)) * max(map(abs, y))
    nbytes = (bound.bit_length() + 8) // 8
    digits = _unpack(_pack(x, nbytes) * _pack(y, nbytes), out_len, nbytes)
    den = dx * dy
    if den == 1:
        return digits
    return [normalize_scalar(Fraction(d, den)) if d else 0 for d in digits]


def _terms(coeffs: List) -> Tuple[List[Tuple[int, Monomial, int]], int]:
    """Every nonzero (index, tau-monomial, coefficient) of a window, with the
    coefficients multiplied by their common denominator, and that denominator."""
    out = []
    for i, c in enumerate(coeffs):
        if type(c) is LaurentPoly:
            out.extend((i, mono, cc) for mono, cc in c.terms.items())
        elif c:
            out.append((i, MONO_ONE, c))
    den = _lcm_den(t[2] for t in out)
    if den > 1:
        out = [(i, mono, int(c * den)) for i, mono, c in out]
    return out, den


def _term_product(x: List, y: List, out_len: int) -> List:
    """The first out_len coefficients of the product of two windows with
    tau-Laurent coefficients, by sparse term accumulation.

    A term's q index and four tau exponents fold into one int key, a mixed-
    radix number whose strides come from the spans of the result's
    exponents, so the key of a product of two terms is the sum of their
    keys.  Term products accumulate in one dict; each key is decoded once.
    """
    (tx, dx), (ty, dy) = _terms(x[:out_len]), _terms(y[:out_len])
    lows, spans, strides = [], [], []
    stride = out_len
    for v in range(NVARS):
        ex = [mono[v] for _, mono, _ in tx]
        ey = [mono[v] for _, mono, _ in ty]
        lows.append(min(ex) + min(ey))
        spans.append(max(ex) + max(ey) - lows[v] + 1)
        strides.append(stride)
        stride *= spans[v]
    base = sum(map(mul, lows, strides))
    jy = [j for j, _, _ in ty]
    ky = [(j + sum(map(mul, mono, strides)), c) for j, mono, c in ty]
    acc = defaultdict(int)
    for i, mono, c1 in tx:
        k1 = i + sum(map(mul, mono, strides))
        # y terms are in index order: stop where i + j leaves the window
        for k2, c2 in ky[: bisect_left(jy, out_len - i)]:
            acc[k1 + k2] += c1 * c2
    den = dx * dy
    cols: List = [None] * out_len
    for k, c in acc.items():
        if not c:
            continue
        k, i = divmod(k - base, out_len)
        mono = []
        for low, span in zip(lows, spans):
            k, e = divmod(k, span)
            mono.append(low + e)
        if den > 1:
            c = normalize_scalar(Fraction(c, den))
        if cols[i] is None:
            cols[i] = {}
        cols[i][tuple(mono)] = c
    return [
        0 if col is None
        else col[MONO_ONE] if len(col) == 1 and MONO_ONE in col
        else LaurentPoly._raw(col)
        for col in cols
    ]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated Laurent series over a tagged coefficient ring."""

    __slots__ = ("ring", "offset", "coeffs", "order")

    def __init__(self, ring: CoeffRing, offset: int, coeffs: list, order: int):
        # Internal constructor: prefer the make/zero/const/monomial helpers.
        self.ring = ring
        self.offset = offset
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def make(cls, ring: CoeffRing, offset: int, coeffs: list, order: int) -> "QSeries":
        """Canonical constructor: validates the window, trims leading zeros."""
        if len(coeffs) != order - offset + 1:
            raise ValueError(
                f"window [{offset},{order}] needs {order - offset + 1} "
                f"coefficients, got {len(coeffs)}"
            )
        coeffs = [ring.coerce(c) for c in coeffs]
        return cls._raw(ring, offset, coeffs, order)

    @classmethod
    def _raw(cls, ring: CoeffRing, offset: int, coeffs: list, order: int) -> "QSeries":
        # Internal: caller guarantees a matching window of canonical
        # coefficients of the ring; only leading zeros are trimmed.
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        if k:
            coeffs = coeffs[k:]
            offset += k
        return cls(ring, offset, coeffs, order)

    @classmethod
    def zero(cls, ring: CoeffRing, order: int) -> "QSeries":
        return cls(ring, order + 1, [], order)

    @classmethod
    def const(cls, ring: CoeffRing, c, order: int) -> "QSeries":
        if order < 0:
            return cls.zero(ring, order)
        return cls._raw(ring, 0, [ring.coerce(c)] + [0] * order, order)

    @classmethod
    def monomial(cls, ring: CoeffRing, c, exp: int, order: int) -> "QSeries":
        if exp > order:
            return cls.zero(ring, order)
        return cls._raw(ring, exp, [ring.coerce(c)] + [0] * (order - exp), order)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int):
        """The exact coefficient of q^n; OrderExceededError above the order."""
        if n > self.order:
            raise OrderExceededError(
                f"coefficient of q^{n} requested but series is only known "
                f"through q^{self.order}"
            )
        if n < self.offset:
            return 0
        return self.coeffs[n - self.offset]

    def _get(self, n: int):
        if n < self.offset or n > self.order:
            return 0
        return self.coeffs[n - self.offset]

    def nonzero_items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        _check_same_ring(self, other)
        order = min(self.order, other.order)
        lo = min(self.offset, other.offset)
        if lo > order:
            return QSeries.zero(self.ring, order)
        out = [0] * (order - lo + 1)
        n = order - self.offset + 1
        if n > 0:
            out[self.offset - lo : self.offset - lo + n] = self.coeffs[:n]
        n = order - other.offset + 1
        for i, c in enumerate(other.coeffs[: max(n, 0)], other.offset - lo):
            if c:
                prev = out[i]
                if prev:
                    c = prev + c
                    if type(c) is not int:
                        c = _canon(c)
                out[i] = c
        return QSeries._raw(self.ring, lo, out, order)

    def __neg__(self):
        return QSeries(self.ring, self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        _check_same_ring(self, other)
        if not self.coeffs or not other.coeffs:
            if not self.coeffs:
                order = self.order + other.offset
            else:
                order = other.order + self.offset
            return QSeries.zero(self.ring, order)
        out_offset = self.offset + other.offset
        order = min(self.order + other.offset, other.order + self.offset)
        out_len = order - out_offset + 1
        x, y = self.coeffs, other.coeffs
        if self.ring.symbolic and (
            any(type(c) is LaurentPoly for c in x)
            or any(type(c) is LaurentPoly for c in y)
        ):
            out = _term_product(x, y, out_len)
            return QSeries._raw(self.ring, out_offset, out, order)
        nnz_self = sum(1 for c in x if c)
        nnz_other = sum(1 for c in y if c)
        if min(nnz_self, nnz_other) <= 2:
            sp, dn = (self, other) if nnz_self <= nnz_other else (other, self)
            out = [0] * out_len
            for i, ci in enumerate(sp.coeffs):
                if not ci:
                    continue
                top = min(len(dn.coeffs), out_len - i)
                for j in range(top):
                    cj = dn.coeffs[j]
                    if cj:
                        prev = out[i + j]
                        t = ci * cj
                        out[i + j] = t if isinstance(prev, int) and prev == 0 else prev + t
            out = [c if type(c) is int else _canon(c) for c in out]
            return QSeries._raw(self.ring, out_offset, out, order)
        out = _packed_product(x, y, out_len)
        return QSeries._raw(self.ring, out_offset, out, order)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply every coefficient by a scalar or unit polynomial."""
        c = self.ring.coerce(c)
        if c == 0:
            return QSeries.zero(self.ring, self.order)
        if c == 1:
            return self
        coeffs = [_canon(c * cc) for cc in self.coeffs]
        return QSeries._raw(self.ring, self.offset, coeffs, self.order)

    def shifted(self, k: int) -> "QSeries":
        """Multiply by q^k (shift the window by k)."""
        return QSeries(self.ring, self.offset + k, self.coeffs, self.order + k)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return QSeries.const(self.ring, 1, self.order)
        # square-and-multiply from the base itself: a product with const(1)
        # would cut the known window of a series whose offset is not 0
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inv(self) -> "QSeries":
        """Multiplicative inverse; requires an invertible lowest coefficient."""
        if not self.coeffs:
            raise NonUnitLeadingError("cannot invert the zero series")
        o = self.offset
        rel = self.coeffs
        u = self.ring.inv_coeff(rel[0])
        n = len(rel)
        b = [u]
        for k in range(1, n):
            acc = 0
            for i in range(1, k + 1):
                ri = rel[i]
                if ri:
                    bi = b[k - i]
                    if bi:
                        acc = acc + ri * bi
            if isinstance(acc, (int, Fraction)) and acc == 0:
                b.append(0)
            else:
                b.append(_canon(-acc if u == 1 else -(u * acc)))
        return QSeries._raw(self.ring, -o, b, self.order - 2 * o)

    # -- comparison ---------------------------------------------------------

    def eq_upto(self, other: "QSeries", k: int):
        """Compare coefficients for all exponents <= k.

        Returns (True, None) or (False, (exponent, own, other)) for the first
        mismatching exponent.  OrderExceededError if k exceeds either order.
        """
        _check_same_ring(self, other)
        if k > self.order or k > other.order:
            raise OrderExceededError(
                f"comparison up to q^{k} exceeds known orders "
                f"({self.order}, {other.order})"
            )
        lo = min(self.offset, other.offset)
        for e in range(lo, k + 1):
            a = self._get(e)
            b = other._get(e)
            if a != b:
                return False, (e, a, b)
        return True, None

    def truncate(self, k: int) -> "QSeries":
        """Forget all coefficients above q^k."""
        if k >= self.order:
            return self
        if k < self.offset:
            return QSeries.zero(self.ring, k)
        return QSeries(self.ring, self.offset, self.coeffs[: k - self.offset + 1], k)

    # -- symbolic-coefficient helpers ----------------------------------------

    def euler(self, var: int) -> "QSeries":
        """Apply the Euler operator of one unit symbol to every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.euler(var))
            else:
                out.append(0)
        return QSeries.make(self.ring, self.offset, out, self.order)

    def subst_unit(self, var: int, sign: int) -> "QSeries":
        """Substitute one unit symbol by +-1 in every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.subst_unit(var, sign))
            else:
                out.append(c)
        return QSeries.make(self.ring, self.offset, out, self.order)

    def to_rational(self) -> "QSeries":
        """Reinterpret a symbolic series with constant coefficients."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                cv = c.constant_value()
                if cv is None:
                    raise RingMismatchError(
                        "series has genuinely symbolic coefficients"
                    )
                out.append(cv)
            else:
                out.append(c)
        return QSeries.make(RATIONAL, self.offset, out, self.order)

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"QSeries[{self.ring.name}, window {self.offset}..{self.order}]({self})"


def format_coeff(c) -> Tuple[str, bool]:
    """Render one coefficient; returns (body-without-sign, is_negative)."""
    if isinstance(c, LaurentPoly):
        cv = c.constant_value()
        if cv is None:
            return "(" + str(c) + ")", False
        c = cv
    if c < 0:
        return str(-c), True
    return str(c), False


def format_series(qs: QSeries) -> str:
    tail = f"O(q^{qs.order + 1})"
    parts: List[str] = []
    for e, c in qs.nonzero_items():
        body, neg = format_coeff(c)
        if e == 0:
            term = body
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            term = qpart if body == "1" else f"{body}*{qpart}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    if not parts:
        return "0 + " + tail
    return " ".join(parts) + " + " + tail
