"""Every name a library module imports is used by that module, and
every function, class and method the library defines is read somewhere.

`__init__.py` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "e8jacobi"
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


def defined_names(tree):
    """Name of each top-level function or class and of each method that is
    not a dunder -> line of its definition."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    out["%s.%s" % (node.name, item.name)] = item.lineno
    return out


def read_names(tree):
    """Every name the module reads as a name or as an attribute; an
    import binds a name but does not read it."""
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


def test_no_unread_definitions():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unread = sorted("%s: %s (line %d)" % (path.name, name, line)
                    for path in sources if path.parent == PACKAGE
                    for name, line in defined_names(trees[path]).items()
                    if name.rpartition(".")[2] not in read)
    assert not unread, "defined but never read: %s" % ", ".join(unread)
