"""The library example of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("PASS main k=3 m=-1 "), out
    assert "closed_form" in out
