"""Every ```python block of README.md runs and prints what it shows.

Each line a block prints must appear in that block as a ``# <line>``
comment, so the example output in the README stays the library's output.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs_and_prints_what_it_shows(index, capsys):
    block = BLOCKS[index]
    exec(compile(block, f"README.md python block {index + 1}", "exec"), {})
    shown = {line.strip() for line in block.splitlines()}
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if f"# {line}" not in shown] == []
