"""Boundaries that AST scans keep. The file boundary: only
``speechprint.fileio`` opens, reads or writes a file, so every failed read
or write of a path the caller names becomes one ``IoError``. The session
driver: only ``Session.run`` feeds and finishes a session, so the server
cannot grow a second copy of the CLI's loop."""

import ast
from pathlib import Path

import speechprint

FILE_METHODS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}


def file_calls(source: str) -> list[int]:
    """Lines of the calls to ``open(`` and to the file methods of ``Path``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in FILE_METHODS
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_file_calls_finds_each_kind():
    source = "\n".join([
        "open(p)",
        "Path(p).read_bytes()",
        "p.read_text(encoding='utf-8')",
        "p.write_bytes(b'')",
        "p.write_text('')",
        "p.open('w')",
        "read_bytes(p, 'audio')",
        "write_atomic(p, b'', 'index')",
    ])
    assert file_calls(source) == [1, 2, 3, 4, 5, 6]


def test_only_fileio_touches_files():
    package = Path(speechprint.__file__).parent
    calls = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "fileio.py"
        for line in file_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls == [], "read and write files through speechprint.fileio"


def test_server_drives_sessions_only_through_run():
    source = (Path(speechprint.__file__).parent / "server.py").read_text(encoding="utf-8")
    calls = [
        f"server.py:{node.lineno}: .{node.func.attr}("
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"feed", "finish"}
    ]
    assert calls == [], "drive a session with Session.run"
