"""Mutation adequacy of the identity checks: a check that passes means
something only if a wrong side fails at the same order (mutation analysis:
DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).

Signed tier: every registry id is checked at one seeded signed spec, at
order 100 and base 7 (or the id's fixed base).  Symbolic tier: every id
with parameters among those below is checked at one seeded symbolic-unit
spec, at order 40 and base 7.  Each term (c, M, x, s, W, r0) that its
builder passes to ``identities.lambert_sum`` is mutated in turn: c negated,
s flipped (1 <-> 2), r0 flipped (0 <-> 1).  Every mutant must end in a
mismatch or a domain error, except the equivalent mutants named below.

The printed rows of 3.4 and 3.5 mismatch at q^10 before any mutation, so a
mismatch kills nothing there: one of their mutants is killed when it builds
sides that differ from the unmutated ones through the order.
"""

import time

import pytest

from qidx import identities
from qidx.identities import (
    build_sides,
    check_identity,
    get_descriptor,
    list_identities,
    random_spec,
)

ORDER = 100
SYMBOLIC_ORDER = 40
BASE = 7
SEED = "mutation-adequacy"

MUTATIONS = {
    "negate c": lambda t: (-t[0],) + t[1:],
    "flip s": lambda t: t[:3] + (3 - t[3],) + t[4:],
    "flip r0": lambda t: t[:5] + (1 - t[5],),
}

# (id, position of the term among the check's lambert_sum terms, mutation)
_ZERO_WEIGHT = "r0 1 -> 0 adds only the r = 0 term, and W(r) = r there is 0"
_ZERO_WEIGHT_2R = "r0 1 -> 0 adds only the r = 0 term, and W(r) = 2r there is 0"
EQUIVALENT = {
    ("1.4", 8, "flip r0"): _ZERO_WEIGHT,
    ("1.4", 9, "flip r0"): _ZERO_WEIGHT,
    ("3.4", 6, "flip r0"): _ZERO_WEIGHT_2R,
    ("3.4", 7, "flip r0"): _ZERO_WEIGHT,
    ("3.5", 6, "flip r0"): _ZERO_WEIGHT_2R,
    ("3.5", 7, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 8, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 9, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 10, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 11, "flip r0"): _ZERO_WEIGHT,
    ("3.7", 6, "flip r0"): _ZERO_WEIGHT,
    ("3.7", 7, "flip r0"): _ZERO_WEIGHT,
}

# symbolic tier (the ids with parameters): the same two terms of 1.4
SYMBOLIC_EQUIVALENT = {key: why for key, why in EQUIVALENT.items() if key[0] == "1.4"}

# symbolic tier: killed, but at q^20 or above, every other mutant dying
# below it.  Flipping s first changes a term M^r v/(1 - v)^s, v = x q^(mr),
# at M^r0 v^2: its lowest exponent plus that of v at r0 (2.3: 17 + 13,
# 2.12: 13 + 7)
LATE = {("2.3", 0, "flip s"): 30, ("2.12", 4, "flip s"): 20}

LAMBERT_IDS = (
    "1.3", "1.4", "1.5", "2.3", "2.9", "2.10", "2.11", "2.12", "2.13",
    "3.1", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8",
)

# the printed 3.4 and 3.5 drop the square of their last term's denominator
PRINTED_MISMATCH = {"3.4", "3.5"}
REPAIRS = {("3.4", 10, "flip s"), ("3.5", 10, "flip s")}


class Mutator:
    """Stands in for ``identities.lambert_sum``: counts the terms passed to
    it since ``reset`` and applies ``mutation`` to the one at ``position``."""

    def __init__(self):
        self.real = identities.lambert_sum
        self.reset()

    def reset(self, position=None, mutation=None):
        self.position, self.mutation, self.terms = position, mutation, []

    def __call__(self, terms, m, order):
        terms = list(terms)
        for i, term in enumerate(terms):
            if len(self.terms) == self.position:
                terms[i] = self.mutation(term)
            self.terms.append(term)
        return self.real(terms, m, order)


def same_sides(a, b):
    return all(x.eq_upto(y, ORDER)[0] for x, y in zip(a, b))


@pytest.fixture
def mutator(monkeypatch):
    mut = Mutator()
    monkeypatch.setattr(identities, "lambert_sum", mut)
    return mut


def test_every_signed_check_kills_its_lambert_term_mutants(mutator):
    t0 = time.perf_counter()
    survivors, repaired, exponents, ids = set(), set(), [], set()
    for row in list_identities():
        ident = row["identity"]
        assign = random_spec(ident, BASE, SEED)
        mutator.reset()
        base = check_identity(ident, assign, ORDER)
        terms = len(mutator.terms)
        if ident in PRINTED_MISMATCH:
            assert base.status == "mismatch" and base.first_mismatch[0] == 10
            mutator.reset()
            base_sides = build_sides(ident, assign, ORDER)
        else:
            assert base.ok, (ident, base.status, base.first_mismatch)
        for pos in range(terms):
            ids.add(ident)
            for name, mutation in MUTATIONS.items():
                mutator.reset(pos, mutation)
                report = check_identity(ident, assign, ORDER)
                if report.status == "mismatch":
                    exponents.append(report.first_mismatch[0])
                if ident in PRINTED_MISMATCH:
                    if report.ok:
                        repaired.add((ident, pos, name))
                    mutator.reset(pos, mutation)
                    try:
                        killed = not same_sides(build_sides(ident, assign, ORDER), base_sides)
                    except identities._DOMAIN_ERRORS:
                        killed = True
                else:
                    killed = not report.ok
                if not killed:
                    survivors.add((ident, pos, name))
    elapsed = time.perf_counter() - t0

    # the ids whose builders pass terms to identities.lambert_sum; the
    # others build theta, bilateral, product or character sums only
    assert ids == set(LAMBERT_IDS)
    assert survivors == set(EQUIVALENT)
    # restoring the dropped square is the one mutant that makes a printed row hold
    assert repaired == REPAIRS
    assert max(exponents) < 50
    assert elapsed < 5.0, elapsed


def test_every_symbolic_check_kills_its_lambert_term_mutants(mutator):
    survivors, refused, late, ids = set(), set(), {}, set()
    for ident in LAMBERT_IDS:
        if not get_descriptor(ident).params:
            continue
        ids.add(ident)
        assign = random_spec(ident, BASE, SEED, symbolic=True)
        mutator.reset()
        base = check_identity(ident, assign, SYMBOLIC_ORDER)
        assert base.ok, (ident, base.status, base.first_mismatch)
        for pos in range(len(mutator.terms)):
            for name, mutation in MUTATIONS.items():
                mutator.reset(pos, mutation)
                report = check_identity(ident, assign, SYMBOLIC_ORDER)
                if report.ok:
                    survivors.add((ident, pos, name))
                elif report.status != "mismatch":
                    refused.add((ident, pos, name))
                elif report.first_mismatch[0] >= 20:
                    late[ident, pos, name] = report.first_mismatch[0]

    assert ids == set(LAMBERT_IDS) - {"3.1", "3.3", "3.4", "3.5", "3.6", "3.7"}
    assert survivors == set(SYMBOLIC_EQUIVALENT)
    assert late == LATE
    # a domain error comes only from an r0 flip that puts r = 0 on the pole at 1
    assert refused and {name for _, _, name in refused} == {"flip r0"}


@pytest.mark.parametrize("key", sorted(EQUIVALENT))
def test_equivalent_mutants_start_a_zero_weight_term_at_zero(mutator, key):
    ident, pos, name = key
    check_identity(ident, random_spec(ident, BASE, SEED), ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    assert name == "flip r0" and r0 == 1 and W(0) == 0


@pytest.mark.parametrize("key", sorted(SYMBOLIC_EQUIVALENT))
def test_symbolic_equivalent_mutants_start_a_zero_weight_term_at_zero(mutator, key):
    ident, pos, name = key
    check_identity(ident, random_spec(ident, BASE, SEED, symbolic=True), SYMBOLIC_ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    assert name == "flip r0" and r0 == 1 and W(0) == 0


@pytest.mark.parametrize("key", sorted(LATE))
def test_late_symbolic_mutants_flip_s_of_a_term_that_starts_high(mutator, key):
    ident, pos, name = key
    assign = random_spec(ident, BASE, SEED, symbolic=True)
    check_identity(ident, assign, SYMBOLIC_ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    # the term's lowest exponent and that of v at r = r0
    v = x.qexp + BASE * r0
    lowest = M.qexp * r0 + v
    assert name == "flip s" and LATE[key] == lowest + v
