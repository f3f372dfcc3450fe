"""Every name a library module imports is used by that module, no
module imports a way to run work outside its own thread, and every
function, class and method the library defines is read by the library
itself, unless `READ_OUTSIDE_SRC` lists it with its reason.

`__init__.py` is left out of the unused-import check: its imports are the
package's re-exports.
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


def imported_modules(tree):
    """Top-level package of each absolute import -> line of the import,
    imports inside functions included."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out[node.module.partition(".")[0]] = node.lineno
    return out


# the construction is exact and single-process: no pool, thread or child
CONCURRENCY = {"concurrent", "multiprocessing", "threading", "subprocess"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_single_process(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted("%s (line %d)" % (name, line)
                   for name, line in imported_modules(tree).items()
                   if name in CONCURRENCY)
    assert not found, "%s imports %s" % (path.name, ", ".join(found))


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


# Definitions that no library module reads, each with the reason it stays.
READ_OUTSIDE_SRC = {
    "clear_cache": "README library API: drops the in-process bases",
    "BiDegree.scaled": "README library API",
    "Alphabet.degree": "README library API",
    "Poly.monomial": "README library API",
    "Poly.gen_exponent_range": "README library API",
    "basis_from_json": "README library API: reads a basis document back",
    "holomorphic_images": "test reference: the table the roundtrips invert",
    "p12_5_over_ab": "test reference: criterion 7's weight-12 form",
    "echelonize": "pinned by perfbench/spans.py; span_basis reference",
    "primitive_vector": "pinned by perfbench/spans.py; span_basis reference",
    "poly_from_compact": "pinned by perfbench/spans.py",
    "sub_ab_to_AB": "pinned by perfbench/spans.py; lowest-terms reference",
    "orbit_character": "pinned by perfbench/spans.py; README library API",
    "coefficient_equations":
        "pinned by perfbench/spans.py; system-row reference",
    "ParamPoly.mul_poly": "pinned by perfbench/spans.py; system-row reference",
}


def test_no_unread_definitions():
    sources = sorted(PACKAGE.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unread = {name: "%s: %s (line %d)" % (path.name, name, line)
              for path in sources
              for name, line in defined_names(trees[path]).items()
              if name.rpartition(".")[2] not in read}
    unlisted = sorted(unread[name] for name in unread.keys()
                      - READ_OUTSIDE_SRC.keys())
    assert not unlisted, "defined but never read: %s" % ", ".join(unlisted)
    stale = sorted(READ_OUTSIDE_SRC.keys() - unread.keys())
    assert not stale, "listed but read by the library or gone: %s" \
        % ", ".join(stale)
