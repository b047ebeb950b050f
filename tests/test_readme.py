"""The README's Library and Command line blocks run as written."""

import re
import shlex
from pathlib import Path

from sierpack.cli import main

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


def test_command_line_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 8
    for argv in lines:
        assert argv[0] == "sierpack"
        assert main(argv[1:]) == 0, argv
