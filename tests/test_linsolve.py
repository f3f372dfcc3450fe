"""Exact nullspace solving, checked against an independent naive RREF."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from e8jacobi.kernels import echelon_int_rows
from e8jacobi.linsolve import LinearSystem, echelonize, nullspace


def naive_rref(rows, n):
    """Textbook rational Gauss-Jordan, written independently of the
    production kernel: nonzero rows of the RREF (leading entries 1) and
    their pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def naive_primitive(vec):
    """Coprime integers with positive leading entry, same direction."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def naive_nullspace(rows, n):
    """Canonical nullspace basis: the free-column solutions of the naive
    RREF, re-reduced over the unknown order and primitive scaled."""
    mat, pivots = naive_rref(rows, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return [naive_primitive(v) for v in naive_rref(basis, n)[0]]


def make_system(rows, n):
    names = tuple("x%d" % (i + 1) for i in range(n))
    sys_ = LinearSystem(names)
    sys_.extend([{names[j]: Fraction(v) for j, v in enumerate(row) if v}
                 for row in rows])
    return sys_


class TestNullspace:
    def test_zero_system(self):
        space = nullspace(make_system([], 3))
        assert space.rank == 0
        assert [list(map(int, v)) for v in space.basis] == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_system(self):
        space = nullspace(make_system([[1, 0], [0, 1]], 2))
        assert space.rank == 2 and space.dimension == 0

    def test_known_small_system(self):
        # x1 + x2 - x3 = 0, 2x1 - x2 = 0  ->  span{(1, 2, 3)}
        space = nullspace(make_system([[1, 1, -1], [2, -1, 0]], 3))
        assert space.basis == [(1, 2, 3)]


_entry = st.integers(min_value=-9, max_value=9)
_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestAgainstNaiveOracle:
    @given(st.integers(2, 7), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_rref(self, n, nrows, data):
        rows = [[data.draw(_entry) for _ in range(n)] for _ in range(nrows)]
        space = nullspace(make_system(rows, n))
        expected = naive_nullspace(rows, n)
        assert [list(v) for v in space.basis] == expected
        assert space.rank + space.dimension == n

    @given(st.integers(2, 6), st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_basis_vectors_solve_the_system(self, n, nrows, data):
        rows = [[data.draw(_entry) for _ in range(n)] for _ in range(nrows)]
        space = nullspace(make_system(rows, n))
        for v in space.basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_rational_coefficients(self):
        rows = [[Fraction(1, 3), Fraction(-1, 6), 0],
                [0, Fraction(2, 5), Fraction(-2, 5)]]
        space = nullspace(make_system(rows, 3))
        assert space.basis == [(1, 2, 2)]


class TestEchelon:
    @given(st.integers(1, 6), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_echelonize_matches_naive_rref(self, n, nrows, data):
        rows = [[data.draw(_rational) for _ in range(n)]
                for _ in range(nrows)]
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, nrows)), [Fraction(0)] * n)
        expected = [naive_primitive(r) for r in naive_rref(rows, n)[0]]
        assert echelonize(rows) == expected

    def test_echelonize_empty_and_zero_input(self):
        assert echelonize([]) == []
        assert echelonize([[0, 0, 0], [Fraction(0)] * 3]) == []

    @given(st.integers(1, 7), st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_echelon_int_rows_reduced_form(self, n, nrows, data):
        rows = [[data.draw(_entry) for _ in range(n)] for _ in range(nrows)]
        pivots = echelon_int_rows(rows, n)
        for c, row in pivots.items():
            assert len(row) == n
            assert not any(row[:c]) and row[c] > 0
            assert gcd(*row) == 1
            assert all(row[c2] == 0 for c2 in pivots if c2 != c)
        expected = [naive_primitive(r) for r in naive_rref(rows, n)[0]]
        assert [pivots[c] for c in sorted(pivots)] == expected
