"""`tools/code_lines.py`, the counter in which the "less code" numbers of
CHANGES.md and ROADMAP.md are stated."""

import importlib.util

from helpers import TOOLS

spec = importlib.util.spec_from_file_location("code_lines",
                                              TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# five code lines: the import, the def, the two lines of the string that
# is not a docstring and the return
SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment


def f(x):
    """A function docstring."""
    # a comment line
    text = """a multi-line string
that is not a docstring"""

    return os.sep + text + x
'''


def test_counts_a_small_source():
    assert code_lines.code_lines(SOURCE) == 5


def test_total_is_the_sum_of_the_modules(capsys):
    code_lines.main()
    *modules, total, physical = capsys.readouterr().out.splitlines()
    names = sorted(path.name for path in code_lines.SRC.glob("*.py"))
    assert [line.split()[1] for line in modules] == names
    assert total.endswith("code lines in total")
    assert int(total.split()[0]) == sum(int(line.split()[0])
                                        for line in modules)
    assert physical.endswith("lines in total (wc -l)")
