"""qidx benchmark: cold-start requests through the public CLI, checked
against known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: suite, deep-signed, symbolic, expand (see README.md).  One
client sends the requests of a workload's deck one after another (a closed
loop); each request runs in a fresh interpreter (``child.py``), started on
the core that is quicker at that moment.  Passes, each with a deck of its
own, repeat while one more still fits in ``--seconds``.  Request times are reported in multiples of a
reference loop (``reference.py``) timed by the same child around its work.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  Per-request rows,
run metadata and (traced) the span file go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from reference import NOMINAL_S, pin_to_quickest_cpu  # noqa: E402
from tracer import CONSTRUCTORS  # noqa: E402
from workloads import WORKLOADS, build_deck  # noqa: E402

PROBES = 5  # set-up-only children per run, so setup_s has samples even for the suite
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "latency_gmean_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    [
        "exactalg.lp_mul.calls",
        "exactalg.lp_mul.self_s",
        "exactalg.lp_add.calls",
        "exactalg.lp_add.self_s",
        "qring.make.calls",
        "qring.make.coeffs",
        "qring.make.self_s",
        "qring.add.calls",
        "qring.add.self_s",
        "qring.mul.calls",
        "qring.mul.self_s",
        "qring.mul.out_terms",
        "qring.mul.tau_key_pairs",
        "qring.inv.calls",
        "qring.inv.self_s",
        "qring.pow.self_s",
        "qring.format.self_s",
    ]
    + [f"constructors.{fn}.{k}" for fn in CONSTRUCTORS for k in ("calls", "self_s")]
    + [
        "constructors.poch_inf.repeat_ratio",
        "identities.check_identity.calls",
        "identities.check_identity.self_s",
        "identities.build_sides.self_s",
        "identities.random_spec.self_s",
        "identities.verdicts.equal",
        "identities.verdicts.mismatch",
        "identities.verdicts.constraint",
        "exprs.parse_expr.self_s",
        "exprs.eval_expr.self_s",
        "exprs.parse_spec_string.self_s",
        "cli.main.self_s",
        "cli.stdout_bytes",
        "trace.overhead_s",
    ]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Runner:
    """Spawns children from the checkout root and collects their records."""

    def __init__(self, root: Path, spans: Path | None = None):
        self.root = root
        self.spans = spans
        self.next_id = 0

    def spawn(self, argv, trace: bool = False) -> dict:
        request_id = self.next_id
        self.next_id += 1
        cpu = pin_to_quickest_cpu()
        cfg = {
            "src": str(self.root / "src"),
            "spawn": time.monotonic(),
            "argv": argv,
            "trace": trace,
            "request_id": request_id,
            "spans": str(self.spans) if self.spans else None,
        }
        cmd = [sys.executable, "-I", str(HERE / "child.py"), json.dumps(cfg)]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return {"request_id": request_id, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            record = {"error": "child failed: " + tail[0]}
        record["request_id"] = request_id
        record["cpu"] = cpu
        return record


def run_passes(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    """Send passes, pass ``i`` sending ``build_deck(workload, seed, i)``.
    After the first pass, which always completes, send each further request
    only while it, as long as the mean request so far, still ends within
    ``seconds``; the last pass may stop part way.  Returns one list of
    (request, record, verdict, failure) per pass."""
    passes = []
    sent = 0
    start = time.monotonic()
    while True:
        deck = build_deck(workload, seed, len(passes))
        results = []
        for req in deck:
            elapsed = time.monotonic() - start
            if passes and elapsed + elapsed / sent > seconds:
                break
            record = runner.spawn(req.argv, trace)
            verdict, failure = check(req, record)
            results.append((req, record, verdict, failure))
            sent += 1
        if results:
            passes.append(results)
        if len(results) < len(deck):
            return passes


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def pass_wall(results) -> float:
    return sum(rec.get("latency_s", 0.0) for _, rec, _, _ in results)


def verdict_times(req, rec) -> list:
    """(seconds, loop seconds) for each verdict of one untraced request:
    the request itself, or for the suite each check's ``runtime_ms``, each
    with the mean reference-loop time around the segment that ran it."""
    segments = rec["segments"]
    if req.kind != "suite":
        seconds, before, after, _ = segments[0]
        return [(seconds, (before + after) / 2)]
    rows = iter(json.loads(rec["stdout"]))
    return [
        (next(rows)["runtime_ms"] / 1000.0, (before + after) / 2)
        for _, before, after, checks in segments
        for _ in range(checks)
    ]


def end_to_end(passes, probes):
    """The end-to-end metrics, and the figures kept only in the rows file.

    The host's speed swings by up to 2.4x for seconds to minutes at a time
    (see README.md, Noise), so work is reported in multiples of the
    reference loop (``reference.py``) that the same child timed just before
    and after it.  A failed request has no timing and is left out; it
    already counts in ``failed``."""
    records = probes + [rec for results in passes for _, rec, _, _ in results]
    setups = [(r["setup_s"], r["setup_loop_s"]) for r in records if "setup_loop_s" in r]
    peaks = [r["peak_rss_kb"] for r in records if "peak_rss_kb" in r]
    lat_s, lat_ref, loops = [], [], []
    # Per slot (position in the deck): work time of each pass in seconds and
    # in ref, and the log of each verdict's time in ref.  The last pass may
    # be partial, so figures are averaged per slot first.
    slot_s, slot_ref, slot_logs = {}, {}, {}
    for results in passes:
        for slot, (req, rec, _, failure) in enumerate(results):
            if failure or not rec.get("segments"):
                continue
            seconds = units = 0.0
            for t, before, after, _ in rec["segments"]:
                seconds += t
                units += t / ((before + after) / 2)
                loops += [before, after]
            slot_s.setdefault(slot, []).append(seconds)
            slot_ref.setdefault(slot, []).append(units)
            for t, ref in verdict_times(req, rec):
                lat_s.append(t)
                lat_ref.append(t / ref)
                slot_logs.setdefault(slot, []).append(math.log(t / ref))
    if not lat_s or not setups or not peaks:
        raise RuntimeError("no request gave a timing; see the rows file")
    setup_plain = [t for t, _ in setups]
    metrics = {
        # Set-up time in ref, given in seconds at the loop's nominal speed.
        "setup_s": statistics.median(t / loop for t, loop in setups) * NOMINAL_S,
        "wall_ref": sum(statistics.fmean(v) for v in slot_ref.values()),
        "latency_gmean_ref": math.exp(
            statistics.fmean(statistics.fmean(v) for v in slot_logs.values())
        ),
        "peak_rss_mb": max(peaks) / 1024.0,
    }
    # The median and p90 move with which slot lands at that rank more than
    # the geometric mean does, so they are recorded but not reported.
    info = {
        "latency_samples": len(lat_ref),
        "latency_p50_ref": statistics.median(lat_ref),
        "latency_p90_ref": percentile(lat_ref, 90),
        "wall_s": sum(statistics.fmean(v) for v in slot_s.values()),
        "latency_p50_ms": statistics.median(lat_s) * 1000.0,
        "latency_p90_ms": percentile(lat_s, 90) * 1000.0,
        "setup_min_s": min(setup_plain),
        "setup_median_s": statistics.median(setup_plain),
        "reference_median_s": statistics.median(loops),
    }
    return metrics, info


def per_layer(traced, untraced) -> dict:
    """Per-pass layer figures (median over complete traced passes)."""
    per_pass = []
    for results in (r for r in traced if len(r) == len(traced[0])):
        calls, self_s, counters = {}, {}, {}
        out_bytes = 0
        for _, rec, _, _ in results:
            tr = rec.get("trace")
            if tr is None:
                raise RuntimeError("a traced child gave no trace; see the rows file")
            for name, n in tr["calls"].items():
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + tr["self_s"][name]
            for key, n in tr["counters"].items():
                counters[key] = counters.get(key, 0) + n
            out_bytes += rec.get("stdout_bytes", 0)
        fig = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                fig[metric] = calls.get(layer, 0)
            elif kind == "self_s":
                fig[metric] = self_s.get(layer, 0.0)
            elif metric == "constructors.poch_inf.repeat_ratio":
                n = calls.get("constructors.poch_inf", 0)
                fig[metric] = counters.get("constructors.poch_inf.repeats", 0) / n if n else 0.0
            elif metric == "cli.stdout_bytes":
                fig[metric] = out_bytes
            elif metric != "trace.overhead_s":
                fig[metric] = counters.get(metric, 0)
        per_pass.append(fig)
    out = {m: statistics.median(f[m] for f in per_pass) for m in per_pass[0]}
    # The untraced rerun sends the same deck as the first traced pass.
    out["trace.overhead_s"] = pass_wall(traced[0]) - pass_wall(untraced[0])
    return out


def src_fingerprint(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def rows_of(passes, traced: bool) -> list:
    rows = []
    for index, results in enumerate(passes):
        for req, rec, verdict, failure in results:
            row = req.row()
            row.update(
                pass_index=index,
                traced=traced,
                request_id=rec.get("request_id"),
                setup_s=rec.get("setup_s"),
                time_s=rec.get("latency_s"),
                segments=rec.get("segments"),
                peak_rss_kb=rec.get("peak_rss_kb"),
                cpu=rec.get("cpu"),
                exit_code=rec.get("exit_code"),
                verdict=verdict,
                failure=failure,
            )
            rows.append(row)
    return rows


def measure(root: Path, stem: Path, args):
    """Run passes untraced (end-to-end metrics), or traced and then the
    first pass once more untraced (per-layer metrics).  Returns passes,
    metrics, rows and extra metadata for the rows file."""
    if not args.trace:
        runner = Runner(root)
        probes = [runner.spawn(None) for _ in range(PROBES)]
        passes = run_passes(runner, args.workload, args.seed, args.seconds, trace=False)
        metrics, info = end_to_end(passes, probes)
        extra = {"probe_setup_s": [p.get("setup_s") for p in probes], **info}
        return passes, metrics, rows_of(passes, False), extra
    spans = stem.with_suffix(".spans")
    spans.unlink(missing_ok=True)
    runner = Runner(root, spans)
    traced = run_passes(runner, args.workload, args.seed, args.seconds, trace=True)
    untraced = run_passes(runner, args.workload, args.seed, 0, trace=False)
    metrics = per_layer(traced, untraced)
    names = next(rec["trace"]["names"] for _, rec, _, _ in traced[0])
    extra = {"span_file": spans.name, "span_record": "<iiiidd", "span_names": names}
    return traced + untraced, metrics, rows_of(traced, True) + rows_of(untraced, False), extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qidx" / "cli.py").is_file():
        print(f"error: no qidx sources under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        passes, metrics, rows, extra = measure(root, out_dir / tag, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, _, _, failure in p if failure)
    unit = END_TO_END if not args.trace else {m: unit_of(m) for m in PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "failed_share": failed / attempted,
        "machine": {
            "nproc": os.cpu_count(),
            "arch": os.uname().machine,
            "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
        },
        **src_fingerprint(root),
        **extra,
        "result": result,
        "rows": rows,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(details, indent=1))
    for row in rows:
        if row["failure"]:
            print(f"FAILED {row['name']}: {row['failure']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
