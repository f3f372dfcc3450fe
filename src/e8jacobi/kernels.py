"""Fraction-free row reduction over the integers.

`echelon_int_rows` is the one elimination routine of the package.  Rows
come in and go out as dense lists of Python ints; inside, each row is a
sparse dict {column: int} of its nonzeros, and the rows are reduced
sparsest first.  Every step cross-multiplies two rows over the pivot
row's nonzeros and divides by the content gcd, which keeps the entries
small without ever forming a fraction.  The output is the reduced
echelon form, which depends only on the row space: neither the order of
the rows nor repeated or zero rows change it.
"""

from math import gcd
from operator import itemgetter

# The kernel is plain Python; the benchmark reports this name.
BACKEND = "python"


def _eliminate(row, pivot_row, col):
    """Cross-multiply `row` in place so that it vanishes in `col`, where
    `pivot_row` has its positive pivot; divide by the content gcd."""
    g = gcd(row[col], pivot_row[col])
    fa, fb = pivot_row[col] // g, row[col] // g
    if fa != 1:
        for c in row:
            row[c] *= fa
    for c, y in pivot_row.items():
        x = row.get(c, 0) - fb * y
        if x:
            row[c] = x
        else:
            del row[c]
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def echelon_int_rows(rows, ncols):
    """Reduced echelon form of integer rows, keyed by pivot column.

    The result is a dict {pivot column: dense row of length `ncols`}.
    Every row is content-free with a positive pivot entry, its pivot is
    its smallest nonzero column, and it is zero in every other row's
    pivot column; that form depends only on the row space, so the output
    is canonical.  Zero and dependent rows are dropped; the input rows
    are not modified.
    """
    sparse = [dict(filter(itemgetter(1), enumerate(row))) for row in rows]
    pivots = {}
    for row in sorted(sparse, key=len):
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                g = gcd(*row.values())
                g = -g if row[lead] < 0 else g
                pivots[lead] = {c: x // g for c, x in row.items()} \
                    if g != 1 else row
                break
            _eliminate(row, p, lead)
    # Back-eliminate bottom-up, so every pivot row used is already reduced
    # and clearing one pivot column never refills another.
    out = {}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in (row.keys() & pivots.keys()) - {lead}:
            _eliminate(row, pivots[c], c)
        dense = out[lead] = [0] * ncols
        for c, x in row.items():
            dense[c] = x
    return out
