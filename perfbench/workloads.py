"""The four workloads: each turns a seed and a pass number into a deck of
qidx requests.

A deck is the list of requests one pass sends.  Its shape is fixed per
workload: which identity or expression template, at which base and order,
and for each verify slot the multiset of parameter exponents.  The seed and
the pass number draw how the exponents are assigned to the parameters, the
signs, and the arguments of each expression, so every pass of a run samples
fresh inputs of the same shape.  The suite's pass ``i`` runs ``verify-all``
with seed ``100 * seed + i``.  Free exponent draws moved a check's time two- to four-fold; a fixed
shape keeps one seed's figures comparable with another's.  The ROADMAP
ladder anchors are fixed specs with names of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from oracle import Dense, OracleError, evaluate, render

# Parameterised identities, their parameters, and the constraint on their
# exponents (the domains documented by ``qidx list``):
#   theta     0 <= ord(z) <= base; a -1 unit where ord(z) is 0 mod base
#   sum       every ord >= 1, orders summing to less than the base
#   interior  every ord strictly between 0 and the base
#   pairs     ord(a) + ord(b) < base and ord(c) + ord(d) < base, all >= 1
IDENTITIES = {
    "1.1": ("z", "theta"),
    "1.2": ("z", "theta"),
    "1.3": ("abc", "sum"),
    "1.4": ("bc", "sum"),
    "1.5": ("bc", "sum"),
    "2.1": ("ab", "interior"),
    "2.2": ("ab", "interior"),
    "2.3": ("ab", "interior"),
    "2.5": ("ab", "interior"),
    "2.6": ("ab", "interior"),
    "2.7": ("ab", "sum"),
    "2.8": ("ab", "sum"),
    "2.9": ("abc", "sum"),
    "2.10": ("abc", "sum"),
    "2.11": ("bc", "sum"),
    "2.12": ("b", "interior"),
    "2.13": ("bc", "sum"),
    "3.8": ("abcd", "pairs"),
}

# deep-signed: (identity, base, order, exponents) per slot; every
# parameterised identity over bases 5-13 and orders 200-500, each at a size
# where one check takes about a tenth of a second, so that a 25 s run sends
# the whole deck four or more times.
SIGNED_SLOTS = (
    ("1.1", 5, 500, (2,)),
    ("1.2", 9, 500, (4,)),
    ("1.3", 9, 200, (1, 2, 3)),
    ("1.4", 5, 200, (1, 2)),
    ("1.5", 5, 200, (1, 2)),
    ("2.1", 5, 300, (2, 3)),
    ("2.2", 5, 300, (2, 3)),
    ("2.3", 5, 300, (2, 3)),
    ("2.5", 7, 300, (2, 4)),
    ("2.6", 11, 300, (3, 7)),
    ("2.7", 5, 200, (1, 2)),
    ("2.8", 11, 300, (3, 5)),
    ("2.9", 5, 200, (1, 1, 2)),
    ("2.10", 11, 200, (2, 3, 4)),
    ("2.11", 7, 200, (2, 3)),
    ("2.12", 7, 300, (3,)),
    ("2.13", 13, 300, (4, 6)),
    ("3.8", 13, 300, (2, 3, 4, 5)),
)
# The ROADMAP 1.3 ladder without its 800 rung: that one check takes over
# 2 s, a quarter of the deck, and would leave room for too few passes.
SIGNED_LADDER = tuple(
    (f"ladder-1.3-b7-o{order}", "1.3", 7, "a=-q^1,b=-q^2,c=-q^4", order)
    for order in (100, 200, 400)
)

# symbolic: the identities whose checks multiply tau-polynomial series, at
# orders 60-120.  Cheaper symbolic checks (1.1, 1.2, 2.1-2.6, 2.12) stay on
# rational coefficients in practice and are left to the suite's symbolic tier.
SYMBOLIC_SLOTS = (
    ("1.3", 13, 80, (2, 3, 3)),
    ("1.4", 7, 90, (2, 3)),
    ("1.5", 11, 120, (3, 5)),
    ("2.7", 7, 120, (2, 3)),
    ("2.8", 11, 90, (3, 5)),
    ("2.9", 9, 90, (2, 2, 3)),
    ("2.10", 9, 60, (1, 2, 3)),
    ("2.11", 13, 90, (3, 6)),
    ("2.13", 9, 90, (2, 4)),
    ("3.8", 11, 60, (2, 3, 4, 5)),
)
SYMBOLIC_LADDER = tuple(
    (f"ladder-sym-1.3-b11-o{order}", "1.3", 11, "a=~q^1,b=~q^2,c=~q^4", order)
    for order in (40, 80)
)

# suite: verify-all at its default orders (100 signed, 40 symbolic) with 5
# random trials per identity instead of 25, about 200 checks instead of 556.
# The default suite takes 13 s, so a run would hold one pass; a 5-8 s pass
# fits two to four times.
SUITE_TRIALS = 5

# expand: (base, order) per expression slot, bases 5-13 and orders 200-800.
EXPAND_SLOTS = tuple(
    (5 + i % 9, (200, 300, 400, 500, 600, 800)[i % 6]) for i in range(24)
)
POWERS = (-2, -1, 2, 3)


@dataclass
class Request:
    """One qidx command line and what its answer must be."""

    name: str
    kind: str  # "verify" | "suite" | "expand"
    argv: list
    identity: Optional[str] = None
    base: Optional[int] = None
    spec: str = ""
    order: Optional[int] = None
    ring: str = "rational"
    expected: Optional[Dense] = None  # expand: the oracle's series

    def row(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "identity": self.identity,
            "base": self.base,
            "spec": self.spec,
            "order": self.order,
            "ring": self.ring,
            "argv": self.argv,
        }


def _spec_string(params: dict, symbolic: bool) -> str:
    parts = []
    for name in sorted(params):
        sign, e = params[name]
        unit = "~" if symbolic else ("-" if sign < 0 else "")
        parts.append(f"{name}={unit}q^{e}")
    return ",".join(parts)


def _valid(region: str, expos, m: int) -> bool:
    if region == "theta":
        return 0 <= expos[0] <= m
    if region == "interior":
        return all(0 < e < m for e in expos)
    if region == "sum":
        return min(expos) >= 1 and sum(expos) < m
    return min(expos) >= 1 and expos[0] + expos[1] < m and expos[2] + expos[3] < m


def draw_params(ident: str, base: int, expos, rng: random.Random, symbolic: bool) -> dict:
    """Assign the slot's exponents to the identity's parameters in a seeded
    order, with a seeded sign each (signed only)."""
    names, region = IDENTITIES[ident]
    expos = list(expos)
    while True:
        rng.shuffle(expos)
        if _valid(region, expos, base):
            break
    params = {}
    for name, e in zip(names, expos):
        sign = 1 if symbolic else rng.choice((1, -1))
        if region == "theta" and not symbolic and e % base == 0:
            sign = -1
        params[name] = (sign, e)
    return params


def _verify(name, ident, base, spec, order, ring) -> Request:
    argv = ["verify", ident, "--base", str(base), "--spec", spec, "--order", str(order), "--json"]
    return Request(name, "verify", argv, ident, base, spec, order, ring)


def _verify_deck(slots, ladder, seed: int, symbolic: bool, draw: int) -> list:
    """The ladder, then one seeded spec of every slot."""
    ring = "symbolic" if symbolic else "rational"
    deck = [_verify(*anchor, ring) for anchor in ladder]
    for ident, base, order, expos in slots:
        rng = random.Random(f"perfbench:{ident}:{base}:{order}:{ring}:{seed}:{draw}")
        spec = _spec_string(draw_params(ident, base, expos, rng, symbolic), symbolic)
        name = f"{ident}-b{base}-o{order}-d{draw}"
        deck.append(_verify(name, ident, base, spec, order, ring))
    return deck


# ---------------------------------------------------------------------------
# expand


def _draw_mono(rng: random.Random, m: int, kind: str):
    """A signed monomial valid as the argument of ``kind``."""
    if kind == "poch":
        return rng.choice((1, -1)), rng.randint(1, m + 2)
    if kind == "theta":
        sign, e = rng.choice((1, -1)), rng.randint(0, m)
        return (-1 if e % m == 0 else sign), e
    # l
    sign, e = rng.choice((1, -1)), rng.randint(1, 2 * m)
    return (-1 if e % m == 0 else sign), e


def _draw_expression(rng: random.Random, m: int, slot: int):
    """One atom of each function in the slot's fixed template
    (A * B^k1) + C - (D * E^k2); the seed draws the arguments."""
    params: dict = {}
    names = iter("abcdz")

    def bind(mono):
        name = next(names)
        params[name] = mono
        return name

    atoms = [(kind, bind(_draw_mono(rng, m, kind))) for kind in ("poch", "theta", "l")]
    atoms.append(("phi",))
    u, v = ((0, 1), (1, 0), (1, 1), (2, -1), (-1, 3))[slot % 5]
    s, r0, mu = 1 + slot % 2, (slot // 2) % 2, slot % 3
    xi = rng.randint(-m, 2 * m)
    x_sign = rng.choice((1, -1))
    if xi % m == 0 and -xi // m >= r0 and u * (-xi // m) + v != 0:
        x_sign = -1  # the term at r = -xi/m would sit on the pole at 1
    M = bind((rng.choice((1, -1)), mu))
    X = bind((x_sign, xi))
    atoms.append(("glam", M, X, u, v, s, r0))
    turn = slot % 5
    a, b, c, d, e = atoms[turn:] + atoms[:turn]
    k1, k2 = POWERS[slot % 4], POWERS[(slot // 4) % 4]
    left = ("mul", a, ("pow", b, k1))
    right = ("mul", d, ("pow", e, k2))
    return ("sub", ("add", left, c), right), params


def _expand_deck(seed: int, draw: int) -> list:
    deck = []
    for slot, (base, order) in enumerate(EXPAND_SLOTS):
        rng = random.Random(f"perfbench:expand:{slot}:{base}:{order}:{seed}:{draw}")
        while True:
            expr, params = _draw_expression(rng, base, slot)
            try:
                expected = evaluate(expr, params, base, order)
            except OracleError:
                continue
            if not expected.is_zero():
                break
        spec = _spec_string(params, symbolic=False)
        text = render(expr)
        argv = ["expand", text, "--base", str(base), "--order", str(order), "--spec", spec]
        deck.append(
            Request(f"expand-{slot}-b{base}-o{order}-d{draw}", "expand", argv, None, base, spec,
                    order, "rational", expected)
        )
    return deck


# ---------------------------------------------------------------------------


def build_deck(workload: str, seed: int, draw: int = 0) -> list:
    """The deck of pass ``draw`` of a run with ``seed``."""
    if workload == "suite":
        suite_seed = 100 * seed + draw
        argv = ["verify-all", "--json", "--seed", str(suite_seed), "--trials", str(SUITE_TRIALS)]
        return [Request(f"verify-all-seed{suite_seed}", "suite", argv, spec=f"seed={suite_seed}",
                        order=100)]
    if workload == "deep-signed":
        return _verify_deck(SIGNED_SLOTS, SIGNED_LADDER, seed, symbolic=False, draw=draw)
    if workload == "symbolic":
        return _verify_deck(SYMBOLIC_SLOTS, SYMBOLIC_LADDER, seed, symbolic=True, draw=draw)
    if workload == "expand":
        return _expand_deck(seed, draw)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("suite", "deep-signed", "symbolic", "expand")
