"""The committed benchmark runs against the program in this checkout.

perfbench/run.py imports the program from src/ and calls it through a fixed
set of names (see perfbench/workloads.py and perfbench/tracer.py); a renamed
function or changed signature shows up here as a failed run rather than only
when the benchmark is next measured.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_poisson_posterior_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "jeffreys-posterior-poisson", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
