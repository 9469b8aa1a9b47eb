"""The README's library example runs as written, so a public name it uses
cannot disappear from the package unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first fenced python block under the "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "G0001 E3" in out and "kern1" in out and "main" in out
