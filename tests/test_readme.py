"""The README's Python examples run and print what their comments say."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _expected(block: str) -> list[str]:
    """The ``# <expected>`` comment of each ``print(...)`` line, in order."""
    return re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)


def test_the_readme_has_python_examples():
    assert BLOCKS and all(_expected(block) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block, tmp_path, monkeypatch, capsys):
    # Files the example writes land in a throwaway directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(ROOT / "README.md"), "exec"), {})
    assert capsys.readouterr().out.splitlines() == _expected(block)
