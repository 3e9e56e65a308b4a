"""Known-answer checks: decide whether one child's answer is right.

Every check returns ``(verdict, failure)``: the verdict qidx gave (or
``crash``/``error``) and ``None`` when the answer is right, else a one-line
reason.  The expected answers come from the paper, not from qidx: every
identity holds (``equal``) except the printed transcriptions of corollaries
3.4 and 3.5, which differ from their parents first at ``q^10``; and every
``expand`` result must match the dense oracle in ``oracle.py``.
"""

from __future__ import annotations

import json

from oracle import compare_printed
from workloads import IDENTITIES

PRINTED_MISMATCHES = {"3.4": 10, "3.5": 10}


def check(request, record: dict):
    if record.get("error"):
        return "crash", "raised " + record["error"].strip().splitlines()[-1]
    code = record.get("exit_code")
    if request.kind == "expand":
        if code != 0:
            return "error", f"exit code {code}"
        return "result", compare_printed(record["stdout"], request.expected)
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return "error", f"exit code {code}, output is not JSON"
    if request.kind == "verify":
        return _check_verify(request, report, code)
    return _check_suite(report, code)


def _check_verify(request, report: dict, code):
    status = report.get("status")
    for key, want in (
        ("identity", request.identity),
        ("base", request.base),
        ("spec", request.spec),
        ("order_requested", request.order),
    ):
        if report.get(key) != want:
            return status, f"{key} is {report.get(key)!r}, expected {want!r}"
    if status != "equal":
        return status, f"verdict {status}, expected equal"
    compared = report.get("order_compared")
    if compared is None or compared < request.order:
        return status, f"compared only through q^{compared}, asked for q^{request.order}"
    if code != 0:
        return status, f"exit code {code} for an equal verdict"
    return status, None


def _check_suite(rows: list, code):
    if code != 0:
        return "error", f"exit code {code}"
    seen = set()
    printed = dict.fromkeys(PRINTED_MISMATCHES, 0)
    for row in rows:
        ident, status = row["identity"], row["status"]
        where = f"{ident} spec={row['spec']}"
        if ident in PRINTED_MISMATCHES and row["spec"] == "printed":
            fm = row.get("first_mismatch") or {}
            if status != "mismatch" or fm.get("exponent") != PRINTED_MISMATCHES[ident]:
                return "error", f"{where}: {status} at {fm.get('exponent')}, expected mismatch at q^10"
            printed[ident] += 1
        elif status != "equal":
            return "error", f"{where}: verdict {status}, expected equal"
        compared = row.get("order_compared")
        if compared is None or compared < row["order_requested"]:
            return "error", f"{where}: compared only through q^{compared}"
        seen.add(ident)
    missing = sorted(set(IDENTITIES) - seen) + [i for i, n in printed.items() if not n]
    if missing:
        return "error", "no rows for " + ", ".join(missing)
    return "ok", None
