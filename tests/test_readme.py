"""The README's Library block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["witness"].k == names["value"] == 13
    assert names["best"].value == 5
    assert names["out"].status == "factored"
    assert names["coloring"].k <= 7
