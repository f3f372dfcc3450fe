"""Fraction-free row reduction over the integers.

Rows are dense lists of Python ints.  `echelon_int_rows` is the one
elimination routine of the package: every step is an integer
cross-multiplication of two rows followed by division by the content
gcd, which keeps the entries small without ever forming a fraction.
"""

from math import gcd

# The kernel is plain Python; the benchmark reports this name.
BACKEND = "python"


def normalize_int_row(row):
    """Divide by the content gcd; make the leading entry positive.

    Returns None for an all-zero row.
    """
    g = 0
    lead = 0
    for x in row:
        if x:
            if not g:
                lead = x
            g = gcd(g, x if x > 0 else -x)
            if g == 1 and lead > 0:
                return row
    if g == 0:
        return None
    if lead < 0:
        g = -g
    if g != 1:
        return [x // g for x in row]
    return row


def _eliminate(row, pivot_row, col):
    """Cross-multiply so that `row` vanishes in `col`, where `pivot_row`
    has its positive pivot; the result is normalized."""
    a = row[col]
    b = pivot_row[col]
    g = gcd(a if a > 0 else -a, b)
    fa = b // g
    fb = a // g
    return normalize_int_row([fa * x - fb * y for x, y in zip(row, pivot_row)])


def echelon_int_rows(rows, ncols):
    """Reduced echelon form of integer rows, keyed by pivot column.

    The result is a dict {pivot column: row}.  Every row is content-free
    with a positive pivot entry and is zero in every other row's pivot
    column; that form depends only on the row space, so the output is
    canonical.  Zero and dependent rows are dropped.
    """
    pivots = {}
    for row in rows:
        row = normalize_int_row(list(row))
        start = 0
        while row is not None:
            lead = -1
            for c in range(start, ncols):
                if row[c]:
                    lead = c
                    break
            if lead < 0:
                break
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = row
                break
            row = _eliminate(row, p, lead)
            start = lead + 1
    # Back-eliminate bottom-up, so every pivot row used is already reduced
    # and clearing one pivot column never refills another.
    cols = sorted(pivots)
    for i in range(len(cols) - 2, -1, -1):
        row = pivots[cols[i]]
        for c in cols[i + 1:]:
            if row[c]:
                row = _eliminate(row, pivots[c], c)
        pivots[cols[i]] = row
    return pivots
