"""Every name a module imports is used, and every constant is read.

No linter ships with the package, so this parses each module of `src/`
(except `__init__.py`, whose imports are the public API) and fails on an
imported name the module never reads.  An import that is kept on purpose
carries `# noqa: F401` on its line.  It also fails on a module-level
UPPER_CASE constant that no module of `src/` reads, so a tolerance whose
last use was deleted goes with it, and on a private function, class or
method (`_name`, not `__dunder__`) that no module of `src/` reads, so a
helper whose last caller was deleted goes too.  A public module-level
function must be exported by `__init__.py` or read by a module of `src/`,
`demos/` or `bench/`: one that only tests call is a test oracle, and
belongs in `tests/reference.py`.
"""

import ast
import re
from pathlib import Path

import moebius_systems

SRC = Path(moebius_systems.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
KEEP = "# noqa: F401"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if KEEP in lines[alias.lineno - 1] or KEEP in lines[node.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_unused_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .arcs import (\n"
        "    ArcSet,\n"
        "    image,  # noqa: F401\n"
        "    EPS_ANGLE,\n"
        ")\n"
        "def f(x: ArcSet):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (7, "EPS_ANGLE")]


def test_no_unused_imports_in_src():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (hits := unused_imports(path.read_text()))
    }
    assert found == {}


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def unread_constants(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level UPPER_CASE constant that
    no module reads, by name or as an attribute; its definition is no read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [(module, node.lineno, name.id) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name) and CONSTANT.match(name.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [hit for hit in defined if hit[2] not in read]


def test_checker_flags_unread_constants_only():
    sources = {
        "a.py": "EPS_USED = 1e-9\n_CAP = 3\nEPS_LEFT = 1e-12\nlower = 2\nX, Y = 1, 2\n"
                "def f(z):\n    return z < EPS_USED + Y\n",
        "b.py": "from . import a\nLIMIT: int = 4\ndef g():\n    return a._CAP\n",
    }
    assert unread_constants(sources) == [
        ("a.py", 3, "EPS_LEFT"), ("a.py", 5, "X"), ("b.py", 2, "LIMIT")]


def test_no_unread_constants_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def unread_private_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private function, class or method, at
    any nesting, that no module reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [hit for hit in defined if hit[2] not in read]


def test_checker_flags_unread_private_definitions_only():
    sources = {
        "a.py": "def _used():\n    return 1\ndef _left():\n    return _used()\n"
                "class _Kept:\n    def __init__(self):\n        pass\n"
                "    def _orphan(self):\n        return _Kept\n    def public(self):\n"
                "        def _inner():\n            return 2\n        return 3\n",
        "b.py": "from . import a\ndef _helper():\n    return a._left\nx = _helper\n",
    }
    assert unread_private_definitions(sources) == [
        ("a.py", 8, "_orphan"), ("a.py", 11, "_inner")]


def test_no_unread_private_definitions_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def unread_public_functions(sources: dict[str, str],
                            readers: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public module-level function of the
    package `sources` that `__init__.py` does not import and that no module
    of `sources` or `readers` reads, by name or as an attribute.  cli's
    cmd_* functions, which main looks up by name, are exempt."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        if module == "__init__.py":
            read.update(alias.asname or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names)
        defined += [(module, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and not (module == "cli.py" and node.name.startswith("cmd_"))]
    for source in [*sources.values(), *readers.values()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [hit for hit in defined if hit[2] not in read]


def test_checker_flags_unread_public_functions_only():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    return 1\ndef used():\n    return 2\n"
                "def oracle():\n    return used()\ndef by_attribute():\n    return 3\n"
                "def by_demo():\n    return 4\ndef _private():\n    return 5\n"
                "class Kept:\n    def method(self):\n        return 6\n",
        "b.py": "from . import a\nx = a.by_attribute\n",
        "cli.py": "def cmd_run(args):\n    return 7\ndef helper():\n    return 8\n",
    }
    readers = {"demo.py": "from pkg.a import by_demo\nby_demo()\n"}
    assert unread_public_functions(sources, readers) == [
        ("a.py", 5, "oracle"), ("cli.py", 3, "helper")]


def test_no_public_function_is_a_test_oracle():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path.relative_to(ROOT)): path.read_text()
               for folder in ("demos", "bench") for path in sorted((ROOT / folder).rglob("*.py"))}
    assert readers
    assert unread_public_functions(sources, readers) == []
