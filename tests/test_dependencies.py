"""The program runs on NumPy alone; SciPy is a test-only oracle."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# imports the CLI and runs two Poisson commands, then reports every loaded
# module whose top-level package is scipy
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from weylprior import cli
data, out = sys.argv[2], sys.argv[3]
codes = [cli.main(["tensor", "--model", "poisson", "--theta", "3"]),
         cli.main(["posterior", "--model", "poisson", "--grid", "lam=1:6:11",
                   "--data", data, "--out", out])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text("".join(f"{k}\n" for k in (0, 2, 3, 3, 5, 8)))
    out = tmp_path / "post.csv"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(data), str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "scipy": []}
    assert len(out.read_text().splitlines()) == 12


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])
