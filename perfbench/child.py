"""One benchmark request, run in a fresh interpreter.

Usage: ``python3 -I perfbench/child.py '<json config>'``.  The config names
the source directory, the spawn time on the monotonic clock, the qidx
command line (empty for a set-up probe), and, for a traced run, the request
id and the span file.  The child imports ``qidx.cli`` (which builds the
identity registry), runs the request with stdout captured, and prints one
JSON record on its real stdout.

A traced child calls ``qidx.cli.main`` under the tracer.  An untraced child
times the reference loop of ``reference.py`` once qidx is imported (a
set-up probe stops there) and again after each piece of work, and reports
the work as segments, each with the loop's time just before and just after
it.  A ``verify``/``expand`` request is one segment around
``qidx.cli.main``.  ``verify-all`` runs for several seconds, longer than
the host keeps one speed, so the untraced child runs it as the command
does, through the public ``run_suite`` over the registry in order, but a
few identities at a time, timing the loop between them; it then builds the
command's JSON output and exit code itself.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout

SEGMENT_S = 0.5  # verify-all: time the loop again after this much work


def peak_rss_kb() -> int:
    """This interpreter's peak resident set in KiB.  ``VmHWM`` counts only
    memory since exec; ``ru_maxrss``, the fallback where there is no
    ``/proc``, also counts the parent's resident set at fork."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(main, argv, before, time_reference):
    """``main(argv)`` with stdout captured: (output, exit code, segments).
    ``before`` is the loop time just before, or None when not timing it."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - t0
    after = time_reference() if before is not None else None
    return buf.getvalue(), code, [[seconds, before, after, 1]]


def run_verify_all(argv, before, time_reference):
    """``qidx verify-all --json`` in segments: (output, exit code, segments).

    A segment is ``[seconds, loop before, loop after, checks]``; the last
    one builds the JSON output.  ``before`` is the loop time just before."""
    from qidx.identities import list_identities, run_suite, suite_ok

    rest = [a for a in argv[1:] if a != "--json"]
    opts = dict(zip(rest[0::2], rest[1::2]))
    order = int(opts.get("--order", 100))
    trials = int(opts.get("--trials", 25))
    seed = opts.get("--seed", "0")

    reports, segments = [], []
    ref = before
    seconds, checks = 0.0, 0
    idents = [d["identity"] for d in list_identities()]
    for i, ident in enumerate(idents):
        t0 = time.perf_counter()
        part = run_suite(order=order, trials=trials, seed=seed, idents=[ident])
        seconds += time.perf_counter() - t0
        reports.extend(part)
        checks += len(part)
        if seconds >= SEGMENT_S or i == len(idents) - 1:
            after = time_reference()
            segments.append([seconds, ref, after, checks])
            ref, seconds, checks = after, 0.0, 0
    t0 = time.perf_counter()
    out = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    code = 0 if suite_ok(reports) else 1
    seconds = time.perf_counter() - t0
    segments.append([seconds, ref, time_reference(), 0])
    return out, code, segments


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    import qidx.cli

    setup_s = time.monotonic() - cfg["spawn"]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    record = {"setup_s": setup_s}
    argv = cfg.get("argv")
    tracer = time_reference = loop = None
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer(cfg["request_id"])
        tracer.install()
    else:
        from reference import time_reference

        loop = record["setup_loop_s"] = time_reference()
    if argv is None:
        record["peak_rss_kb"] = peak_rss_kb()
        print(json.dumps(record))
        return

    out, code, segments, error = "", None, [], None
    try:
        if tracer is None and argv[0] == "verify-all":
            out, code, segments = run_verify_all(argv, loop, time_reference)
        else:
            out, code, segments = run_cli(qidx.cli.main, argv, loop, time_reference)
    except Exception:
        error = traceback.format_exc(limit=4)

    record.update(
        latency_s=sum(s[0] for s in segments) if segments else None,
        segments=segments,
        exit_code=code,
        error=error,
        stdout=out,
        stdout_bytes=len(out.encode()),
        peak_rss_kb=peak_rss_kb(),
    )
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(cfg["spans"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
