"""Self-test of the benchmark's known-answer checks.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``.

Each case plants one wrong answer and asserts that ``checks.check`` counts
it as failed; each paired control asserts that the right answer passes.
The last case sends a real ``qidx expand`` request through a child and
plants the wrong answer in the oracle's expected series instead.  Exits 0
when every planted answer is caught and every control passes.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from oracle import Dense  # noqa: E402
from run import Runner  # noqa: E402
from workloads import IDENTITIES, build_deck  # noqa: E402


def format_dense(s: Dense) -> str:
    """Print a Dense series the way ``qidx expand`` does."""
    parts = []
    for e, c in sorted(s.terms().items()):
        neg = c < 0
        body = str(abs(Fraction(c)))
        if e == 0:
            term = body
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            term = qpart if body == "1" else f"{body}*{qpart}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    head = " ".join(parts) if parts else "0"
    return f"{head} + O(q^{s.order + 1})"


def verify_record(req, **changes) -> dict:
    report = {
        "identity": req.identity,
        "base": req.base,
        "spec": req.spec,
        "order_requested": req.order,
        "order_compared": req.order,
        "status": "equal",
        "first_mismatch": None,
        "runtime_ms": 1.0,
        "seed": None,
    }
    code = changes.pop("exit_code", 0)
    report.update(changes)
    return {"exit_code": code, "stdout": json.dumps(report)}


def suite_record(plant=None) -> dict:
    rows = []
    for ident in IDENTITIES:
        rows.append({"identity": ident, "spec": "a=q^1", "status": "equal",
                     "order_requested": 100, "order_compared": 100})
    for ident in ("3.4", "3.5"):
        rows.append({"identity": ident, "spec": "printed", "status": "mismatch",
                     "first_mismatch": {"exponent": 10}, "order_requested": 100,
                     "order_compared": 100})
    if plant is not None:
        plant(rows)
    return {"exit_code": 0, "stdout": json.dumps(rows)}


def main() -> int:
    verify = build_deck("deep-signed", 0)[0]
    suite = build_deck("suite", 0)[0]
    expand = build_deck("expand", 0)[0]
    good_text = format_dense(expand.expected)
    bumped = dict(expand.expected.terms())
    e0 = max(bumped)
    bumped[e0] += 1
    bad_text = format_dense(Dense.from_terms(bumped, expand.expected.order))
    short = Dense.from_terms(expand.expected.terms(), expand.expected.order - 1)

    def set_row(i, **kv):
        return lambda rows: rows[i].update(kv)

    cases = [
        ("verify: right answer", verify, verify_record(verify), False),
        ("verify: wrong verdict", verify, verify_record(verify, status="mismatch", exit_code=1), True),
        ("verify: equal but exit 1", verify, verify_record(verify, exit_code=1), True),
        ("verify: compared short", verify, verify_record(verify, order_compared=verify.order - 1), True),
        ("verify: crash", verify, {"error": "Traceback\nZeroDivisionError: boom"}, True),
        ("verify: wrong identity echoed", verify, verify_record(verify, identity="2.1"), True),
        ("suite: right answer", suite, suite_record(), False),
        ("suite: printed 3.4 equal", suite, suite_record(set_row(-2, status="equal")), True),
        ("suite: 3.5 mismatch elsewhere", suite,
         suite_record(set_row(-1, first_mismatch={"exponent": 11})), True),
        ("suite: a parent row mismatches", suite, suite_record(set_row(0, status="mismatch")), True),
        ("suite: constraint row", suite,
         suite_record(set_row(3, status="constraint-violation")), True),
        ("suite: identity missing", suite, suite_record(lambda rows: rows.pop(0)), True),
        ("expand: right answer", expand, {"exit_code": 0, "stdout": good_text + "\n"}, False),
        ("expand: one coefficient off", expand, {"exit_code": 0, "stdout": bad_text}, True),
        ("expand: short order", expand, {"exit_code": 0, "stdout": format_dense(short)}, True),
        ("expand: exit 2", expand, {"exit_code": 2, "stdout": ""}, True),
    ]

    # A real child answering a request whose expected series was corrupted.
    runner = Runner(Path.cwd())
    record = runner.spawn(expand.argv)
    planted = copy.copy(expand)
    planted.expected = Dense.from_terms(bumped, expand.expected.order)
    cases.append(("expand via qidx: real answer", expand, record, False))
    cases.append(("expand via qidx: planted oracle error", planted, record, True))

    caught = 0
    for label, req, rec, should_fail in cases:
        verdict, failure = check(req, rec)
        ok = bool(failure) == should_fail
        caught += ok
        state = "counted as failed" if failure else "passed"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {state}" + (f" ({failure})" if failure else ""))
    print(f"{caught}/{len(cases)} cases behave as planted")
    return 0 if caught == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
