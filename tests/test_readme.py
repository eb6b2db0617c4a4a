"""The README's library quick tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from weylprior.cli import main

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


def cli_commands():
    """The ``weylprior ...`` commands of the README's CLI block, each as an
    argument list, with continuation lines joined and comments dropped."""
    text = README.read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"```sh\n(.*?)```", section, flags=re.S)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("weylprior ")]


def test_cli_block_runs_as_written(tmp_path, capsys):
    commands = cli_commands()
    assert [argv[0] for argv in commands] == [
        "tensor", "check", "prior", "posterior", "posterior", "tensor",
        "verify-all", "verify-all"]
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == 0, argv
        capsys.readouterr()
