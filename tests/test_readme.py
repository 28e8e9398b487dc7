"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert 0.0 <= float(lines[0]) <= 0.5  # a Hausdorff distance between subsets of [0, 1]
    assert lines[1].startswith("[0, ")
