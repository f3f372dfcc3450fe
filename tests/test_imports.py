"""Every name a library module imports is used by that module.

`__init__.py` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "e8jacobi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Every name the module reads, including those inside quoted
    annotations such as -> "Poly"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(quoted)
                    if isinstance(n, ast.Name)}
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"construct.py", "grading.py",
                                          "generators.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, "%s imports unused %s" % (path.name,
                                                 ", ".join(unused))
