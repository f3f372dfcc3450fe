"""Fraction-free row reduction over the integers.

A row is a sparse dict {column: int} of its nonzeros.  `extend`, the one
elimination routine of the package, adds a row to a reduced echelon form
{pivot column: row}, whose rows are content-free with a positive entry at
their pivot, their smallest column, and zero at every other pivot; that
form depends only on the row space.  Every step cross-multiplies two
rows over the pivot row's nonzeros and divides by the content gcd, which
keeps the entries small without ever forming a fraction.
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


def extend(pivots, row):
    """Add `row` to the reduced echelon form `pivots`; return its new
    pivot column, or None when the row is in their span, which leaves
    `pivots` as they were.  A pivot row is zero at the other pivots, so
    the row is cleared once at each pivot it meets; what is left becomes
    the pivot row of its smallest column, which is then cleared from the
    other pivot rows.  `row` is reduced in place and may be stored."""
    for c in row.keys() & pivots.keys():
        _eliminate(row, pivots[c], c)
    if not row:
        return None
    lead = min(row)
    g = gcd(*row.values())
    g = -g if row[lead] < 0 else g
    if g != 1:
        row = {c: x // g for c, x in row.items()}
    for other in pivots.values():
        if lead in other:
            _eliminate(other, row, lead)
    pivots[lead] = row
    return lead


def echelon(rows):
    """The reduced echelon form of sparse `rows`, extended sparsest first,
    which keeps the pivot rows small; the rows may be stored in it."""
    pivots = {}
    for row in sorted(rows, key=len):
        extend(pivots, row)
    return pivots


def echelon_int_rows(rows, ncols):
    """`echelon` of dense integer rows, as {pivot column: dense row of
    length `ncols`}; the input rows are not modified."""
    pivots = echelon([dict(filter(itemgetter(1), enumerate(row)))
                      for row in rows])
    return {lead: [row.get(c, 0) for c in range(ncols)]
            for lead, row in pivots.items()}
