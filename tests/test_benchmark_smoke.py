"""The committed benchmark runs against the program in this checkout.

perfbench/run.py imports the program from src/ and calls it through a fixed
set of names (see perfbench/workloads.py and perfbench/tracer.py); a renamed
function, a changed signature or a result that a tracer hook cannot read
shows up here as a failed run rather than only when the benchmark is next
measured.  Every workload runs once, traced, and the cheapest one also runs
untraced through the host-speed-scaled rounds that give the end-to-end
metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench_run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def traced_run(workload):
    bench_run(workload, 0, 1)


def test_traced_poisson_posterior_run_is_correct():
    traced_run("jeffreys-posterior-poisson")


def test_untraced_poisson_posterior_rounds_are_correct():
    # a round shorter than the host-speed sampling interval fails this run
    bench_run("jeffreys-posterior-poisson", 1, 0)


@pytest.mark.parametrize("workload", ["weyl-posterior-g1", "weyl-field-mv2",
                                      "identity-suite"])
def test_traced_run_is_correct(workload):
    traced_run(workload)
