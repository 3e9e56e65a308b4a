"""Truncated Laurent series in q with an explicit knowledge window.

A QSeries stores exact coefficients for every exponent in [offset, order]
(both inclusive).  Exponents below the offset are exactly zero; exponents
above the order are unknown.  ``offset <= order + 1`` always holds, with the
empty window encoding the zero series known through ``order``.

Coefficients live in one ring (see ``exactalg``): Laurent polynomials over
the rationals in the four unit symbols.  A scalar coefficient is stored as
int/Fraction and any other as a LaurentPoly, so a series of scalars and one
of tau-coefficients combine freely.  Every window is canonical: its
coefficients are in storage form and its leading zeros are trimmed when
the series is built.

Multiplication picks one of two exact kernels from what the operands hold:

  * either operand has a tau-monomial coefficient: a sparse term product.
    Symbolic windows are sparse in q and in tau (a slow product pairs some
    thousand terms with a few dozen), so every pair of nonzero terms whose
    q exponents land inside the window is multiplied once, the shorter side
    walked outside, and accumulated under one int key that folds the q
    exponent and the four tau exponents; the strides and each monomial's
    code are found, and each code decoded, once per distinct tau-monomial;
  * scalar coefficients: Kronecker substitution.  Both windows are scaled
    to a common denominator, packed into one big integer each with
    byte-aligned signed digits, and multiplied once; a window multiplied by
    itself is packed once and squared.  Packing and unpacking are
    linear-time byte conversions, which for digits of up to 8 bytes run in
    C: little-endian int64 words from ``struct``, strided slice copies and
    byte tables, with no digit touched in Python.

Division x / y has the window and values of x * y.inv().  With a
tau-coefficient on either side it is sparse long division, whose cost
follows the terms of the quotient, not those of a dense inverse, and the
inverse of a window with a tau-coefficient is the quotient 1 / a.  A scalar
window is inverted by Newton's iteration b <- b*(2 - a*b), which doubles the
number of known coefficients of 1/a with each step through the packed
kernel, and scalar windows divide through that inverse.
Pochhammer factors (1 - u q^d) do not come here: the constructors apply
them to one packed int of their own and read it back through ``_unpack``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import NonUnitLeadingError, OrderExceededError
from .exactalg import (
    MONO_ONE,
    LaurentPoly,
    mono_inv,
    normalize_scalar,
)


def _coerce(c):
    """The storage form (``_canon``) of a coefficient from outside."""
    if not isinstance(c, (int, Fraction, LaurentPoly)):
        raise TypeError(f"unsupported coefficient type: {type(c).__name__}")
    return _canon(c)


def _inv_coeff(c):
    """Invert a coefficient; NonUnitLeadingError if it is not a unit."""
    if isinstance(c, LaurentPoly):
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


def _canon(c):
    """The storage form of a coefficient an arithmetic op produced: an
    integral Fraction becomes an int, a constant LaurentPoly its scalar."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if type(c) is LaurentPoly:
        cv = c.constant_value()
        return c if cv is None else cv
    return c


# ---------------------------------------------------------------------------
# product kernels (the module docstring says which one a product uses)
# ---------------------------------------------------------------------------


def _integral(x: list) -> tuple[list[int], int]:
    """A scalar window scaled to ints by its common denominator, and that
    denominator; any Fraction, even an integral one, is converted."""
    if Fraction not in map(type, x):
        return x, 1
    den = math.lcm(*{c.denominator for c in x if type(c) is Fraction})
    return [int(c * den) for c in x], den


def _bias(count: int, nbytes: int) -> int:
    """The int whose ``count`` base-256**nbytes digits are all 2**(8*nbytes-1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


# per byte value: that byte with its top bit flipped, and the sign-fill byte
# (0x00 or 0xff) of a two's-complement top byte
_FLIP = bytes(range(128, 256)) + bytes(range(128))
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _pack(arr: list[int], nbytes: int) -> int:
    """sum(arr[i] * 256**(nbytes*i)) for digits |arr[i]| < 2**(8*nbytes-1).

    Each digit is biased by 2**(8*nbytes-1) to be non-negative, so the
    digits' bytes join into one int; one subtraction takes the bias off
    again.  Up to 8 bytes no digit is touched in Python: ``struct`` gives
    every digit as a little-endian int64 word on any host, strided slice
    copies cut each word to ``nbytes`` bytes, and one ``translate`` flips
    the top bit of each digit's top byte, which adds the bias.  Wider
    digits are converted one at a time.
    """
    if nbytes > 8:
        half = 1 << (8 * nbytes - 1)
        raw = b"".join((a + half).to_bytes(nbytes, "little") for a in arr)
    else:
        words = struct.pack("<%dq" % len(arr), *arr)
        raw = bytearray(nbytes * len(arr))
        for k in range(nbytes - 1):
            raw[k::nbytes] = words[k::8]
        raw[nbytes - 1 :: nbytes] = words[nbytes - 1 :: 8].translate(_FLIP)
    return int.from_bytes(raw, "little") - _bias(len(arr), nbytes)


def _unpack(v: int, count: int, nbytes: int) -> list[int]:
    """The lowest ``count`` signed base-256**nbytes digits of ``v``, each of
    which must satisfy |digit| < 2**(8*nbytes-1).

    The biased digits' bytes come out of one conversion.  Up to 8 bytes
    they are undone as ``_pack`` made them: each digit's top bit is
    flipped back, its bytes are copied into a little-endian int64 word and
    sign-filled from a byte table, and ``struct`` reads the words.
    """
    size = nbytes * count
    raw = ((v + _bias(count, nbytes)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    if nbytes > 8:
        half = 1 << (8 * nbytes - 1)
        return [
            int.from_bytes(raw[k : k + nbytes], "little") - half
            for k in range(0, size, nbytes)
        ]
    words = bytearray(8 * count)
    for k in range(nbytes - 1):
        words[k::8] = raw[k::nbytes]
    top = raw[nbytes - 1 :: nbytes].translate(_FLIP)
    words[nbytes - 1 :: 8] = top
    fill = top.translate(_SIGN_FILL)
    for k in range(nbytes, 8):
        words[k::8] = fill
    return list(struct.unpack("<%dq" % count, words))


def _packed_product(x: list, y: list, out_len: int) -> list:
    """The first out_len coefficients of the product of two scalar windows:
    both are scaled to integers, packed into one int each and multiplied
    once (Kronecker substitution).  When x is y the window is packed once
    and the int squared, which CPython does faster than a product."""
    square = x is y
    x, dx = _integral(x[:out_len])
    y, dy = (x, dx) if square else _integral(y[:out_len])
    mx = max(map(abs, x))
    my = mx if square else max(map(abs, y))
    # each digit of the inputs and of the product must fit its width
    bound = max(out_len * mx * my, mx, my)
    nbytes = (bound.bit_length() + 8) // 8
    px = _pack(x, nbytes)
    digits = _unpack(px * px if square else px * _pack(y, nbytes), out_len, nbytes)
    den = dx * dy
    if den == 1:
        return digits
    return [normalize_scalar(Fraction(d, den)) if d else 0 for d in digits]


def _term_product(x: list, y: list, out_len: int) -> list:
    """The first out_len coefficients of the product of two windows with
    tau-Laurent coefficients, by sparse term accumulation.

    A term's q index and four tau exponents fold into one int key, a mixed-
    radix number whose strides span twice the range of each exponent over
    the distinct tau-monomials of both sides, so the key of a product of two
    terms is the sum of their keys.  Each side's terms become one list of
    (key, coefficient), scaled to ints by the side's common denominator.
    The side with fewer terms is walked outside, over the prefix of the
    other side that stays inside the window.  Each product key is split
    once into index and monomial code, and each code is decoded once.
    """
    sides, monos = [], set()
    for w in (x, y):
        cols = [(i, c.terms if type(c) is LaurentPoly else {MONO_ONE: c})
                for i, c in enumerate(w[:out_len]) if c]
        monos.update(*[terms for _, terms in cols])
        sides.append(cols)
    if not sides[0] or not sides[1]:
        # a window whose leading zeros fill the product window
        return [0] * out_len
    # every product of two of the monomials has its exponents in this box
    lows = [2 * min(es) for es in zip(*monos)]
    spans = [2 * (max(es) - min(es)) + 1 for es in zip(*monos)]
    strides = list(accumulate(spans[:-1], mul, initial=1))
    code = {mono: out_len * sum(map(mul, mono, strides)) for mono in monos}
    keyed, den = [], 1
    for cols in sides:
        coeffs, d = _integral([c for _, terms in cols for c in terms.values()])
        pairs = zip([i + code[mono] for i, terms in cols for mono in terms], coeffs)
        # ends[i]: how many of the side's terms have an index below i
        ends = [0] * (out_len + 1)
        for i, terms in cols:
            ends[i + 1] = len(terms)
        keyed.append((cols, list(accumulate(ends)), list(pairs)))
        den *= d
    (cx, ex, kx), (_, ey, ky) = sorted(keyed, key=lambda side: len(side[2]))
    acc = {}
    get = acc.get
    for i, _ in cx:
        # the long side is in index order: stop where i + j leaves the window
        inner = ky[: ey[out_len - i]]
        for k1, c1 in kx[ex[i] : ex[i + 1]]:
            for k2, c2 in inner:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    base = sum(map(mul, lows, strides))
    decoded = {}
    out = [{} for _ in range(out_len)]
    for k, c in acc.items():
        if not c:
            continue
        k, i = divmod(k, out_len)
        mono = decoded.get(k)
        if mono is None:
            rest, mono = k - base, []
            for low, span in zip(lows, spans):
                rest, e = divmod(rest, span)
                mono.append(low + e)
            mono = decoded[k] = tuple(mono)
        if den > 1:
            c = normalize_scalar(Fraction(c, den))
        out[i][mono] = c
    return [_column(col) for col in out]


def _column(terms: dict):
    """A coefficient in storage form from its nonzero canonical terms."""
    return (0 if not terms else terms[MONO_ONE] if len(terms) == 1 and MONO_ONE in terms
            else LaurentPoly._raw(terms))


def _term_quotient(x: list, y: list, out_len: int) -> list:
    """x / y through out_len terms, y[0] a unit, by sparse long division:
    out[k] = (x[k] - sum_{j>=1} y[j] * out[k-j]) * inv, with inv = 1/y[0]
    coded as a third window.  Codes sum(e_i * R**i) add as monomials multiply;
    no exponent met passes E = (2*out_len + 2)*b, b the largest in x and y."""
    sides = [[(i, c.terms if type(c) is LaurentPoly else {MONO_ONE: c})
              for i, c in enumerate(w[:out_len]) if c] for w in (x, y, [_inv_coeff(y[0])])]
    E = (2 * out_len + 2) * max(abs(e) for cols in sides for _, t in cols for m in t for e in m)
    R = 2 * E + 1
    strides = (1, R, R * R, R**3)
    xs, ys, inv = ({i: [(sum(map(mul, mono, strides)), c) for mono, c in t.items()]
                    for i, t in cols} for cols in sides)
    ys, ((ikey, ic),), out = list(ys.items())[1:], inv[0], []
    for k in range(out_len):
        acc = dict(xs.get(k, ()))
        get = acc.get
        for j, ty in ys:
            if j > k:
                break
            for k2, c2 in out[k - j]:
                for k1, c1 in ty:
                    acc[k1 + k2] = get(k1 + k2, 0) - c1 * c2
        out.append([(key + ikey, c * ic) for key, c in acc.items() if c])
    shift = E * sum(strides)
    return [_column({tuple((key + shift) // s % R - E for s in strides): normalize_scalar(c)
                     for key, c in col}) for col in out]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated Laurent series with exact scalar or tau-Laurent coefficients."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: list, order: int):
        # Internal: caller guarantees a matching window of canonical
        # coefficients (prefer make/zero/const/monomial); leading zeros are
        # trimmed, so a series' offset is that of its lowest nonzero term.
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        if k:
            coeffs = coeffs[k:]
            offset += k
        self.offset = offset
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def make(cls, offset: int, coeffs: list, order: int) -> "QSeries":
        """Canonical constructor: validates the window, trims leading zeros."""
        if len(coeffs) != order - offset + 1:
            raise ValueError(
                f"window [{offset},{order}] needs {order - offset + 1} "
                f"coefficients, got {len(coeffs)}"
            )
        return cls(offset, [_coerce(c) for c in coeffs], order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order + 1, [], order)

    @classmethod
    def const(cls, c, order: int) -> "QSeries":
        if order < 0:
            return cls.zero(order)
        return cls(0, [_coerce(c)] + [0] * order, order)

    @classmethod
    def monomial(cls, c, exp: int, order: int) -> "QSeries":
        if exp > order:
            return cls.zero(order)
        return cls(exp, [_coerce(c)] + [0] * (order - exp), order)

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
        order = min(self.order, other.order)
        lo = min(self.offset, other.offset)
        if lo > order:
            return QSeries.zero(order)
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
        return QSeries(lo, out, order)

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            if not self.coeffs:
                order = self.order + other.offset
            else:
                order = other.order + self.offset
            return QSeries.zero(order)
        out_offset = self.offset + other.offset
        order = min(self.order + other.offset, other.order + self.offset)
        out_len = order - out_offset + 1
        x, y = self.coeffs, other.coeffs
        if LaurentPoly in map(type, x) or LaurentPoly in map(type, y):
            out = _term_product(x, y, out_len)
        else:
            out = _packed_product(x, y, out_len)
        return QSeries(out_offset, out, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self * other.inv() in window and value (see the module docstring)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = self.coeffs, other.coeffs
        if not x or not y or LaurentPoly not in map(type, x + y):
            return self * other.inv()
        n = min(len(x), len(y))
        return QSeries(0, _term_quotient(x, y, n), n - 1).shifted(self.offset - other.offset)

    def scale(self, c):
        """Multiply every coefficient by a scalar or unit polynomial."""
        c = _coerce(c)
        if c == 0:
            return QSeries.zero(self.order)
        if c == 1:
            return self
        return QSeries(self.offset, [_canon(c * cc) for cc in self.coeffs], self.order)

    def shifted(self, k: int) -> "QSeries":
        """Multiply by q^k (shift the window by k)."""
        return QSeries(self.offset + k, self.coeffs, self.order + k)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return QSeries.const(1, self.order)
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
            raise NonUnitLeadingError(
                f"cannot invert a series with no nonzero coefficient through q^{self.order}"
            )
        a = self.coeffs
        if LaurentPoly in map(type, a):
            return QSeries.const(1, self.order - self.offset) / self
        b = QSeries(0, [_inv_coeff(a[0])], 0)
        k = 1
        while k < len(a):
            # b is 1/a through q^(k-1); with a*b = 1 - r, the step b + b*r
            # = b*(2 - a*b) leaves an error of r^2, so b's unknown terms
            # through q^(2k-1) may be taken as zero
            k = min(2 * k, len(a))
            b = QSeries(0, b.coeffs + [0] * (k - len(b.coeffs)), k - 1)
            r = QSeries.const(1, k - 1) - QSeries(0, a[:k], k - 1) * b
            b = b + b * r
        return b.shifted(-self.offset)

    # -- comparison ---------------------------------------------------------

    def eq_upto(self, other: "QSeries", k: int):
        """Compare coefficients for all exponents <= k.

        Returns (True, None) or (False, (exponent, own, other)) for the first
        mismatching exponent.  OrderExceededError if k exceeds either order.
        """
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
            return QSeries.zero(k)
        return QSeries(self.offset, self.coeffs[: k - self.offset + 1], k)

    # -- symbolic-coefficient helpers ----------------------------------------

    def euler(self, var: int) -> "QSeries":
        """Apply the Euler operator of one unit symbol to every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.euler(var))
            else:
                out.append(0)
        return QSeries.make(self.offset, out, self.order)

    def subst_unit(self, var: int, sign: int) -> "QSeries":
        """Substitute one unit symbol by +-1 in every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.subst_unit(var, sign))
            else:
                out.append(c)
        return QSeries.make(self.offset, out, self.order)

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"QSeries[window {self.offset}..{self.order}]({self})"


def format_coeff(c) -> tuple[str, bool]:
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
    parts: list[str] = []
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
