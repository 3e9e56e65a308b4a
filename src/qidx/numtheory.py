"""Integer-side oracles: signed divisor sums, representation counts for the
quadratic form 7a^2 + b^2, and the three mod-13 sign tables.

Everything here is elementary brute-force arithmetic, kept independent of the
series machinery so the two sides can be cross-checked against each other.
"""

from __future__ import annotations

from math import isqrt

from .errors import NonIntegerResultError
from .qring import QSeries

# sign tables indexed by residue mod 13; residue 0 maps to 0
CHI1: tuple[int, ...] = (0, 1, -1, 1, -1, -1, -1, 1, 1, 1, -1, 1, -1)
CHI2: tuple[int, ...] = (0, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, -1, -1)
CHI3: tuple[int, ...] = (0, 1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1)

# residue classes mod 7 entering the signed divisor sum with weight +1 / -1
_PLUS_RESIDUES = frozenset({1, 2, 4})
_MINUS_RESIDUES = frozenset({3, 5, 6})


def signed_divisor_sum(n: int) -> int:
    """Sum of (-1)^(n/d) over divisors d of n, weighted +1 for
    d = 1, 2, 4 (mod 7) and -1 for d = 3, 5, 6 (mod 7)."""
    if n < 1:
        raise ValueError("argument must be a positive integer")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        for div in {d, n // d}:
            r = div % 7
            if r in _PLUS_RESIDUES:
                sign = 1
            elif r in _MINUS_RESIDUES:
                sign = -1
            else:
                continue
            total += sign * (-1 if (n // div) % 2 else 1)
    return total


def rep_count(n: int) -> int:
    """Number of pairs (a, b) of positive integers with 7a^2 + b^2 = n."""
    if n < 1:
        raise ValueError("argument must be a positive integer")
    # b >= 1 leaves 7a^2 <= n - 1
    return sum(_is_square(n - 7 * a * a) for a in range(1, isqrt((n - 1) // 7) + 1))


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def predicted_rep_count(n: int) -> int:
    """The closed-form prediction for rep_count(n): (-1)^n/2 times the signed
    divisor sum, corrected by (-1)^(n-1) when n or n/7 is a perfect square."""
    if n < 1:
        raise ValueError("argument must be a positive integer")
    val = signed_divisor_sum(n)
    if _is_square(n) or (n % 7 == 0 and _is_square(n // 7)):
        val += -1 if n % 2 == 0 else 1
    signed = -val if n % 2 else val
    if signed % 2:
        raise NonIntegerResultError(
            f"prediction for {n} is half of the odd integer {signed}"
        )
    return signed // 2


def lattice_rep_sum(n: int) -> int:
    """Sum of (-1)^(a+b) over all integer pairs with 7a^2 + b^2 = n."""
    total = 0
    a = 0
    while 7 * a * a <= n:
        rest = n - 7 * a * a
        b = isqrt(rest)
        if b * b == rest:
            v = -1 if (a + b) % 2 else 1
            v *= (1 if b == 0 else 2)
            total += v * (1 if a == 0 else 2)
        a += 1
    return total


class RangeReport:
    """Outcome of checking the representation-count formula over 1..n_max."""

    __slots__ = ("n_max", "mismatches", "theta_mismatches")

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.mismatches: list[int] = []
        self.theta_mismatches: list[int] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.theta_mismatches


def theta_product_series(order: int) -> QSeries:
    """The product of the unit-argument theta series at bases 1 and 7, whose
    q^N coefficient is the signed lattice sum over 7a^2 + b^2 = N."""
    from .constructors import phi_minus

    return phi_minus(1, order) * phi_minus(7, order)


def signed_theta_quotient(order: int) -> QSeries:
    """(q;q)(q^7;q^7) / ((-q;q)(-q^7;q^7)) as an exact truncated series;
    equals theta_product_series termwise."""
    from .constructors import SpecMonomial, poch_inf

    num = poch_inf(SpecMonomial.signed(1, 1), 1, order) * poch_inf(
        SpecMonomial.signed(1, 7), 7, order
    )
    den = poch_inf(SpecMonomial.signed(-1, 1), 1, order) * poch_inf(
        SpecMonomial.signed(-1, 7), 7, order
    )
    return num / den


def verify_rep_range(n_max: int, theta_order: int = 0) -> RangeReport:
    """Compare rep_count against predicted_rep_count for every n <= n_max;
    when ``theta_order`` > 0, additionally compare the theta-product
    coefficients against the signed lattice sums up to that order."""
    if n_max < 1:
        raise ValueError("range bound must be a positive integer")
    report = RangeReport(n_max)
    for n in range(1, n_max + 1):
        if rep_count(n) != predicted_rep_count(n):
            report.mismatches.append(n)
    if theta_order > 0:
        prod = theta_product_series(theta_order)
        for n in range(0, theta_order + 1):
            if prod.coeff(n) != lattice_rep_sum(n):
                report.theta_mismatches.append(n)
    return report
