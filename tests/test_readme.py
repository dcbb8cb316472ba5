"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from speechprint.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed == ["no", "match"] or printed[0] == "5"
    assert (tmp_path / "announcements.idx").is_file()


def test_command_lines_parse():
    """Every line of the "Command line" block parses with the CLI's own
    parser, so the documented flags are the real ones."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("speechprint ") for line in lines)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
