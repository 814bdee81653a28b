"""The library example in README.md runs and prints what it promises."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_the_family_constant(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the constant of the (2, 1) member of the einstein-lambda1 family: lam * alpha^3
    assert float(lines[2]) == pytest.approx(8.0, rel=1e-12)
