"""Boundaries that AST scans keep. The file boundary: only
``speechprint.fileio`` opens, reads or writes a file, so every failed read
or write of a path the caller names becomes one ``IoError``. The session
driver: only ``Session.run`` feeds and finishes a session, so the server
cannot grow a second copy of the CLI's loop. The reference oracles: they
live in ``tests/oracle.py``, and the package neither defines them nor
imports from the tests."""

import ast
from pathlib import Path

import speechprint

FILE_METHODS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
ORACLES = {
    "blocks",
    "ihaar2d",
    "_ihaar_axis",
    "stft_magnitude",
    "band_select_linear",
    "mel_filterbank",
    "n_frames_for",
}


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


def module_names(source: str) -> set[str]:
    """Names a module binds at its top level: definitions, assignments
    and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def imported_modules(source: str) -> list[str]:
    """The modules a source imports, in order."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return modules


def test_scans_find_names_and_imports():
    source = "\n".join([
        "import tests.oracle",
        "from oracle import blocks as b",
        "from .spectral import make_image",
        "def stft_magnitude(audio):",
        "    n_frames_for = 1",
        "N_MEL: int = 40",
    ])
    assert imported_modules(source) == ["tests.oracle", "oracle", "spectral"]
    assert module_names(source) == {"tests", "b", "make_image", "stft_magnitude", "N_MEL"}


def test_oracles_live_only_in_tests():
    """The whole-array reference paths have no production caller, so the
    package ships none of them and reaches into no test module."""
    package = Path(speechprint.__file__).parent
    defined, imports = [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined += [f"{path.name}: {n}" for n in sorted(module_names(source) & ORACLES)]
        imports += [
            f"{path.name}: {m}"
            for m in imported_modules(source)
            if m.split(".")[0] in {"tests", "oracle", "conftest"}
        ]
    assert defined == [], "reference oracles belong in tests/oracle.py"
    assert imports == [], "the package must not import from the tests"
    oracle = (Path(__file__).parent / "oracle.py").read_text(encoding="utf-8")
    assert ORACLES <= module_names(oracle)


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
