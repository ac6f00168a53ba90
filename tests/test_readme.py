"""The README's library example runs and prints what its comments show."""

import re
from pathlib import Path


def test_library_quick_start_prints_what_its_comments_show(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(
        r"^## Library quick start\n\n```python\n(.*?)^```$", readme.read_text(), re.M | re.S
    ).group(1)
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) >= 4
