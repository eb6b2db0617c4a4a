"""The README's library quick tour runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_blocks():
    """The Python code blocks of the README's library quick tour, in order."""
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quick_tour_runs_as_written():
    blocks = quick_tour_blocks()
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)
    # the values the tour's comments state
    np.testing.assert_allclose(scope["g"], [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)
    assert abs(scope["C"][1, 1, 1] - 1.0) < 1e-10
    np.testing.assert_allclose(scope["phi"], [0.0, 1.5], atol=1e-10)
    assert abs(scope["om"] - 1.5 * np.log(4.0)) < 1e-10
    np.testing.assert_allclose(scope["field"].values, 1.0 / np.sqrt(2.0), rtol=1e-10)
    assert abs(scope["post"].masses.sum() - 1.0) < 1e-12
