"""Exact coefficient arithmetic: rationals and sparse Laurent polynomials.

Series coefficients live in one ring: Laurent polynomials over the
rationals in a fixed alphabet of four unit symbols ``ta, tb, tc, td``
(invertible placeholders that track the multiplicative parameters of an
identity).  Its scalars, the rationals, are stored as plain ``int`` where
possible and ``fractions.Fraction`` otherwise (both interoperate
transparently); every other element is a ``LaurentPoly``.

A Laurent polynomial is a dict mapping an exponent 4-tuple (one signed
integer per symbol) to a nonzero rational coefficient.  The empty dict is
zero.  No greatest-common-divisor machinery exists or is needed: the only
inverses ever taken are of single-term polynomials.

A series stores each coefficient in one *storage form*: an integral
``Fraction`` is an ``int`` and a constant ``LaurentPoly`` is its scalar.
This module is that rule's one home: ``canon`` puts a coefficient an
arithmetic operation produced into storage form, ``coerce`` does the same
for a coefficient from outside (``TypeError`` if it is not in the ring),
``column`` builds one from its nonzero canonical terms, and ``inverse``
inverts a unit (``NonUnitLeadingError`` otherwise).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonUnitLeadingError

NVARS = 4
VAR_NAMES = ("ta", "tb", "tc", "td")
VAR_A, VAR_B, VAR_C, VAR_D = range(NVARS)

MONO_ONE = (0, 0, 0, 0)


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def mono_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    return (-a[0], -a[1], -a[2], -a[3])


def mono_pow(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    return (a[0] * k, a[1] * k, a[2] * k, a[3] * k)


def mono_str(m: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(VAR_NAMES[i])
        elif e != 0:
            parts.append(f"{VAR_NAMES[i]}^{e}")
    return "*".join(parts)


class LaurentPoly:
    """Sparse Laurent polynomial in the four unit symbols.

    ``terms`` maps exponent tuples to nonzero int/Fraction coefficients.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = canon(c)
                if c != 0:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # Internal: caller guarantees canonical terms (no zeros, normalized).
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c: int | Fraction) -> "LaurentPoly":
        c = canon(c)
        return cls._raw({MONO_ONE: c} if c != 0 else {})

    @classmethod
    def var(cls, idx: int, exp: int = 1) -> "LaurentPoly":
        if not 0 <= idx < NVARS:
            raise ValueError(f"variable index out of range: {idx}")
        mono = tuple(exp if i == idx else 0 for i in range(NVARS))
        return cls._raw({mono: 1} if exp != 0 else {MONO_ONE: 1})

    @classmethod
    def monomial(cls, mono: tuple[int, ...], coeff: int | Fraction = 1) -> "LaurentPoly":
        coeff = canon(coeff)
        return cls._raw({tuple(mono): coeff} if coeff != 0 else {})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, mono: tuple[int, ...]) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def constant_value(self) -> int | Fraction | None:
        """The scalar value if this polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and MONO_ONE in self.terms:
            return self.terms[MONO_ONE]
        return None

    def as_unit(self) -> tuple[tuple[int, ...], int | Fraction] | None:
        """Return (monomial, coefficient) if this is a single-term unit."""
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            return mono, c
        return None

    def items(self):
        """Iterate over the (monomial, coefficient) pairs."""
        return iter(self.terms.items())

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            cv = self.constant_value()
            return cv is not None and cv == other
        return NotImplemented

    def __hash__(self):
        cv = self.constant_value()  # a constant equals, so hashes as, its scalar
        return hash(frozenset(self.terms.items()) if cv is None else cv)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = canon(s)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly._raw({})
            if other == 1:
                return self
            return LaurentPoly._raw(
                {m: canon(c * other) for m, c in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                s = out.get(mono, 0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        for mono, c in out.items():
            out[mono] = canon(c)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            u = self.as_unit()
            if u is None:
                raise ValueError("negative power of a non-unit Laurent polynomial")
            mono, c = u
            inv = LaurentPoly.monomial(mono_inv(mono), Fraction(1, 1) / c)
            return inv ** (-n)
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- the two structural operators --------------------------------------

    def euler(self, var: int) -> "LaurentPoly":
        """Euler operator in one symbol: coefficient times that exponent.

        Term-by-term, c*m maps to (e*c)*m where e is the exponent of the
        chosen symbol in m.  Linear, and satisfies the Leibniz rule.
        """
        if not 0 <= var < NVARS:
            raise ValueError(f"variable index out of range: {var}")
        out = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e:
                out[mono] = canon(e * c)
        return LaurentPoly._raw(out)

    def subst_unit(self, var: int, sign: int) -> "LaurentPoly":
        """Substitute one symbol by +1 or -1 (a ring homomorphism)."""
        if not 0 <= var < NVARS:
            raise ValueError(f"variable index out of range: {var}")
        if sign not in (1, -1):
            raise ValueError("unit substitution value must be +1 or -1")
        out: dict = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if sign == -1 and e % 2:
                c = -c
            new = tuple(0 if i == var else mono[i] for i in range(NVARS))
            s = out.get(new, 0) + c
            if s == 0:
                out.pop(new, None)
            else:
                out[new] = canon(s)
        return LaurentPoly._raw(out)

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            ms = mono_str(mono)
            if not ms:
                body = str(c)
            elif c == 1:
                body = ms
            elif c == -1:
                body = "-" + ms
            else:
                body = f"{c}*{ms}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("- " + body[1:])
            else:
                parts.append("+ " + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# ---------------------------------------------------------------------------
# the storage form (see the module docstring)


def canon(c):
    """The storage form of a coefficient an arithmetic op produced: an
    integral Fraction becomes an int, a constant LaurentPoly its scalar."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if type(c) is LaurentPoly:
        cv = c.constant_value()
        return c if cv is None else cv
    return c


def coerce(c):
    """The storage form of a coefficient from outside."""
    if not isinstance(c, (int, Fraction, LaurentPoly)):
        raise TypeError(f"unsupported coefficient type: {type(c).__name__}")
    return canon(c)


def column(terms: dict):
    """A coefficient in storage form from its nonzero canonical terms."""
    return (0 if not terms else terms[MONO_ONE] if len(terms) == 1 and MONO_ONE in terms
            else LaurentPoly._raw(terms))


def inverse(c):
    """1/c in storage form; NonUnitLeadingError if c is not a unit."""
    mono = MONO_ONE
    if isinstance(c, LaurentPoly):
        u = c.as_unit()
        if u is None:
            raise NonUnitLeadingError(f"leading coefficient is not a single-term unit: {c}")
        mono, c = u
    elif c == 0:
        raise NonUnitLeadingError("leading coefficient is zero")
    return column({mono_inv(mono): canon(Fraction(1, 1) / c)})
