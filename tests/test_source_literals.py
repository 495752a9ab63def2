"""Every small tolerance in the package is named once, and every module
parses at the declared Python floor.

A float literal with 0 < |x| < 1e-3 is a tolerance.  It may appear only
as the value of a module-level constant (where it gets its name and a
one-line reason), as a parameter default, or as an argparse default;
anywhere else it is a bare tolerance that the next reader cannot find.
A module-level EPS_* constant carries its reason as a trailing comment.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import moebius_systems

SRC = Path(moebius_systems.__file__).parent
SMALL = 1e-3
FLOOR = (3, 10)  # pyproject.toml's requires-python


def _allowed_nodes(tree: ast.Module) -> set[int]:
    """ids of the nodes under which a small literal is allowed."""
    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            allowed.add(id(stmt.value))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            allowed.update(id(d) for d in args.defaults + args.kw_defaults if d is not None)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            allowed.update(id(k.value) for k in node.keywords if k.arg == "default")
    return allowed


def bare_tolerances(source: str) -> list[tuple[int, float]]:
    """(line, value) of each small float literal outside the allowed places."""
    tree = ast.parse(source)
    allowed = _allowed_nodes(tree)
    found = []

    def visit(node, inside):
        inside = inside or id(node) in allowed
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0.0 < abs(node.value) < SMALL and not inside):
            found.append((node.lineno, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_checker_flags_bare_tolerances_only():
    source = (
        "EPS = 1e-9\n"
        "def f(x, tol=1e-6):\n"
        "    p.add_argument('--eps', default=1e-7)\n"
        "    return abs(x) < 1e-12 or x > 0.5\n"
    )
    assert bare_tolerances(source) == [(4, 1e-12)]


def test_no_bare_tolerance_literals_in_src():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := bare_tolerances(path.read_text()))
    }
    assert found == {}


def uncommented_tolerances(source: str) -> list[str]:
    """Names of the module-level EPS_* constants whose assignment has no
    trailing comment."""
    commented = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.COMMENT}
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        found += [t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.startswith("EPS_") and stmt.end_lineno not in commented]
    return found


def test_checker_flags_tolerances_without_a_reason():
    source = (
        "EPS_A = 1e-9  # endpoint slack\n"
        "EPS_B = 1e-9\n"
        "# a comment above is not trailing\n"
        "EPS_C: float = 1e-6\n"
        "EPS_D = (\n"
        "    1e-6)  # a reason on the last line\n"
        "OTHER = 1\n"
        "def f():\n"
        "    EPS_E = 1e-9\n"
    )
    assert uncommented_tolerances(source) == ["EPS_B", "EPS_C"]


def test_every_tolerance_constant_gives_its_reason():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := uncommented_tolerances(path.read_text()))
    }
    assert found == {}


def test_floor_is_pyprojects_requires_python():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert tuple(map(int, declared.groups())) == FLOOR


def test_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


def test_every_module_parses_at_the_python_floor():
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=FLOOR)
