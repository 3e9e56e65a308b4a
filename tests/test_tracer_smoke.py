"""The benchmark's span tracer still finds and wraps the constructors it
names: a traced CLI run counts a span for each of them."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, {perfbench!r})
from tracer import Tracer
tracer = Tracer(0)
tracer.install()
import qidx.cli
codes = [
    qidx.cli.main(["verify", "1.1", "--base", "5", "--spec", "z=-q^2", "--order", "20"]),
    qidx.cli.main(["expand", "phi()*pf(-q^0)", "--order", "20"]),
]
print(json.dumps({{"codes": codes, "calls": tracer.summary()["calls"]}}))
"""


def test_traced_cli_run_counts_constructor_spans():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0]
    calls = result["calls"]
    for name in ("poch_inf", "theta_sum", "pf_sum"):
        assert calls[f"constructors.{name}"] > 0, name
