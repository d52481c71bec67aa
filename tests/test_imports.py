"""Every import in the library, its tests and the bench scripts is used:
a static check with the stdlib ast module. Package re-exports (__init__.py) and
__future__ imports are exempt. Every exception class the library defines is
caught somewhere in it, by the same kind of check. The program itself
imports no cryptography, and the session protocol (arbitration) neither the
network nor any signing. Importing ivtp generates, per dataclass, only the
methods the shared ==, hash and repr (identity.frozen, identity.mutable)
do not replace. Every parameter of a library function is read, but for
those a protocol fixes."""

import ast
import builtins
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import ivtp_dataclasses

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


def unused_parameters(source: str) -> list[tuple[str, str]]:
    """(qualified name, parameter) of each parameter of a function or
    lambda that its body, nested functions included, never loads. self,
    cls and names that start with _ are exempt, and so is every parameter
    of a function whose body is only a docstring, `...` or pass."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, prefix)
                continue
            name = prefix + getattr(child, "name", "<lambda>")
            body = child.body if isinstance(child.body, list) else [child.body]
            stub = isinstance(child.body, list) and all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in body
            )
            loaded = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            a = child.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            found.extend(
                (name, p.arg) for p in params
                if not stub and p.arg not in loaded and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            )
            visit(child, name + ".")

    visit(ast.parse(source), "")
    return found


def test_checker_flags_an_unused_parameter():
    source = (
        "def active_vehicles(chain, now, window_ms, beacons):\n"
        "    lo = now - window_ms\n"
        "    return {veh for veh, tf in beacons.items() if lo <= tf <= now}\n"
        "class C:\n"
        "    def documented(self, a):\n        'Only a docstring.'\n"
        "    def passes(self, a):\n        pass\n"
        "    @classmethod\n"
        "    def make(cls, _unused, b, *args, key, **kw):\n"
        "        return lambda x, y: (y, b, key)\n"
        "def outer(a):\n    def inner():\n        return a\n    return inner\n"
    )
    assert unused_parameters(source) == [
        ("active_vehicles", "chain"),
        ("C.make", "args"),
        ("C.make", "kw"),
        ("C.make.<lambda>", "x"),
    ]


# Parameters a protocol fixes: argparse's handler, the descriptor
# protocol, netsim.Participant and the dispatch table's handler signature.
PROTOCOL_PARAMETERS = [
    ("cli", "_cmd_vectors", "args"),
    ("identity", "once.__get__", "owner"),
    ("sim", "LedgerHost.handle_timer", "tag"),
    ("sim", "LedgerHost.handle_timer", "now"),
    ("vehicle", "_SignOnRead.__get__", "owner"),
    ("vehicle", "Endpoint._on_beacon", "now"),
]


def test_every_parameter_is_read():
    """A parameter no body reads is an argument every caller passes for
    nothing: drop it, unless a protocol fixes it (PROTOCOL_PARAMETERS)."""
    found = [
        (path.stem, name, param)
        for path in MODULES for name, param in unused_parameters(path.read_text())
    ]
    assert found == PROTOCOL_PARAMETERS


def _name(node: ast.expr) -> str | None:
    """The last part of a Name or dotted Attribute, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_error(base: ast.expr, errors: list[str]) -> bool:
    name = _name(base)
    builtin = getattr(builtins, name or "", None)
    return name in errors or (isinstance(builtin, type) and issubclass(builtin, BaseException))


def uncaught_error_classes(sources: list[str]) -> list[str]:
    """Exception classes defined in sources that no except clause names.
    A class is an exception class if a base is a built-in exception or
    another exception class the sources define."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    pending = [node for node in nodes if isinstance(node, ast.ClassDef)]
    errors: list[str] = []
    while True:  # until no class is found to derive from an exception
        found = [node for node in pending if any(_is_error(base, errors) for base in node.bases)]
        if not found:
            break
        errors += [node.name for node in found]
        pending = [node for node in pending if node not in found]
    caught = set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {_name(kind) for kind in kinds}
    return [name for name in errors if name not in caught]


def test_checker_flags_an_uncaught_error_class():
    source = (
        "class Caught(ValueError): pass\n"
        "class Uncaught(KeyError): pass\n"
        "class Derived(Caught): pass\n"
        "class Plain: pass\n"
        "try:\n    pass\nexcept (m.Caught, OSError):\n    pass\n"
    )
    assert uncaught_error_classes([source]) == ["Uncaught", "Derived"]


def test_every_error_class_is_caught():
    """An exception class that no caller catches is a built-in error with
    a longer name: the guard should raise the built-in type it subclasses."""
    assert uncaught_error_classes([path.read_text() for path in MODULES]) == []


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


def test_arbitration_is_pure():
    """The session protocol (arbitration.step) runs with no network and no
    cryptography: arbitration imports neither the network, the vehicle
    nor the simulator, and calls no sign or verify."""
    tree = ast.parse((SRC / "arbitration.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {"netsim", "vehicle", "sim"} & {name.rsplit(".", 1)[-1] for name in imported}
    calls = {_name(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not {"sign", "verify"} & calls


def generated_methods(cls: type) -> list[str]:
    """The functions in cls's own __dict__ that dataclasses compiled from
    source (exec'd code, whose file is "<string>"), wrappers followed."""
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and inspect.unwrap(value).__code__.co_filename == "<string>"
    ]


def test_dataclasses_generate_only_init_and_frozen_guards():
    """Each ivtp dataclass shares identity's ==, hash and repr and has a
    docstring of its own, so dataclasses compiles only __init__ and, for a
    frozen class, its __setattr__ and __delattr__ guards: 61 functions for
    the 25 classes, not 129 (and no inspect.signature for a docstring)."""
    classes = ivtp_dataclasses()
    generated = {cls.__name__: generated_methods(cls) for cls in classes}
    undocumented = [
        cls.__name__ for cls in classes
        if not cls.__doc__ or cls.__doc__.startswith(f"{cls.__name__}(")
    ]
    assert (sum(map(len, generated.values())), undocumented) == (61, [])
    assert generated == {
        cls.__name__: ["__init__"]
        + (["__setattr__", "__delattr__"] if cls.__dataclass_params__.frozen else [])
        for cls in classes
    }
