"""Every import in the library, its tests and the bench scripts is used:
a static check with the stdlib ast module. Package re-exports (__init__.py) and
__future__ imports are exempt. And the program itself imports no cryptography."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ivtp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The tests and the bench scripts.
TESTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps as d\n"
        "sys.exit()\n"
    )
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def test_the_program_loads_no_cryptography():
    """Ed25519 is libsodium's: importing the CLI and the simulator pulls in
    no cryptography module (the tests keep it as their reference)."""
    probe = (
        "import sys, ivtp.cli, ivtp.sim; "
        "print(sorted(m for m in sys.modules if m.startswith('cryptography')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
