"""Every name a module imports is used.

No linter ships with the package, so this parses each module of `src/`
(except `__init__.py`, whose imports are the public API) and fails on an
imported name the module never reads.  An import that is kept on purpose
carries `# noqa: F401` on its line.
"""

import ast
from pathlib import Path

import moebius_systems

SRC = Path(moebius_systems.__file__).parent
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
