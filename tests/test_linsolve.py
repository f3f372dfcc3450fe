"""Exact nullspace solving, checked against an independent naive RREF."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from e8jacobi.kernels import echelon, echelon_int_rows, extend
from e8jacobi.linsolve import (LinearSystem, echelonize, nullspace,
                               primitive_vector)

from helpers import dense


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
    """Positional system; each row is scaled to integers, which leaves
    its solutions unchanged."""
    int_rows = []
    for row in rows:
        row = [Fraction(v) for v in row]
        denom = lcm(*(v.denominator for v in row))
        int_rows.append({j: int(v * denom) for j, v in enumerate(row) if v})
    return LinearSystem(n, int_rows)


class TestNullspace:
    def test_zero_system(self):
        space = nullspace(make_system([], 3))
        assert space.rank == 0
        assert [dense(v, 3) for v in space.basis] == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_system(self):
        space = nullspace(make_system([[1, 0], [0, 1]], 2))
        assert space.rank == 2 and space.dimension == 0

    def test_known_small_system(self):
        # x1 + x2 - x3 = 0, 2x1 - x2 = 0  ->  span{(1, 2, 3)}
        space = nullspace(make_system([[1, 1, -1], [2, -1, 0]], 3))
        assert [dense(v, 3) for v in space.basis] == [[1, 2, 3]]


_entry = st.integers(min_value=-9, max_value=9)
_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestAgainstNaiveOracle:
    @given(st.integers(2, 7), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_rref(self, n, nrows, data):
        rows = [[data.draw(_entry) for _ in range(n)] for _ in range(nrows)]
        space = nullspace(make_system(rows, n))
        expected = naive_nullspace(rows, n)
        assert [dense(v, n) for v in space.basis] == expected
        assert space.rank + space.dimension == n
        for v in space.basis:
            assert all(type(x) is int for x in v.values())
            assert gcd(*v.values()) == 1

    @given(st.integers(2, 6), st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_basis_vectors_solve_the_system(self, n, nrows, data):
        rows = [[data.draw(_entry) for _ in range(n)] for _ in range(nrows)]
        space = nullspace(make_system(rows, n))
        for v in space.basis:
            for row in rows:
                assert sum(row[j] * x for j, x in v.items()) == 0

    def test_rational_coefficients(self):
        rows = [[Fraction(1, 3), Fraction(-1, 6), 0],
                [0, Fraction(2, 5), Fraction(-2, 5)]]
        space = nullspace(make_system(rows, 3))
        assert [dense(v, 3) for v in space.basis] == [[1, 2, 2]]


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

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_primitive_vector_matches_naive(self, n, data):
        vec = [data.draw(_rational) for _ in range(n)]
        if any(vec):
            assert list(primitive_vector(vec)) == naive_primitive(vec)
        else:
            assert primitive_vector(vec) == tuple(vec)

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


_sparse_entry = st.one_of(st.just(0), st.just(0), st.integers(-30, 30))


@st.composite
def _row_multisets(draw):
    """(n, rows, a permutation of rows), the rows with all-zero and
    repeated members mixed in."""
    n = draw(st.integers(1, 7))
    rows = [[draw(_sparse_entry) for _ in range(n)]
            for _ in range(draw(st.integers(0, 7)))]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * n)
    return n, rows, draw(st.permutations(rows))


class TestSparseVectors:
    @given(_row_multisets())
    @settings(max_examples=80, deadline=None)
    def test_nonzero_columns_ascending(self, case):
        """Each vector holds nonzero values only, its columns ascend, and
        it densifies to the naive basis vector."""
        n, rows, _ = case
        space = nullspace(make_system(rows, n))
        for v in space.basis:
            assert all(v.values()) and list(v) == sorted(v)
        assert [dense(v, n) for v in space.basis] == \
            naive_nullspace(rows, n)


class TestOrderInvariance:
    """The reduced echelon form depends only on the row space, so the
    order of the rows does not change the output."""

    @given(_row_multisets())
    @settings(max_examples=80, deadline=None)
    def test_echelon_int_rows(self, case):
        n, rows, shuffled = case
        assert sorted(echelon_int_rows(shuffled, n).items()) == \
            sorted(echelon_int_rows(rows, n).items())

    @given(_row_multisets())
    @settings(max_examples=80, deadline=None)
    def test_nullspace(self, case):
        n, rows, shuffled = case
        assert nullspace(make_system(shuffled, n)) == \
            nullspace(make_system(rows, n))

    @given(_row_multisets())
    @settings(max_examples=40, deadline=None)
    def test_system_rows_unmodified(self, case):
        n, rows, _ = case
        system = make_system(rows, n)
        copies = [dict(row) for row in system.rows]
        nullspace(system)
        assert system.rows == copies

    @given(_row_multisets())
    @settings(max_examples=40, deadline=None)
    def test_input_rows_unmodified(self, case):
        n, rows, _ = case
        copies = [list(row) for row in rows]
        pivots = echelon_int_rows(rows, n)
        assert rows == copies
        for row in pivots.values():
            assert all(row is not r for r in rows)
            row[:] = [7] * n
        assert rows == copies


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def assert_reduced(pivots):
    """Each pivot row is content-free, its smallest column is its pivot,
    with a positive entry, and it is zero at every other pivot."""
    for lead, row in pivots.items():
        assert all(row.values()) and min(row) == lead and row[lead] > 0
        assert gcd(*row.values()) == 1
        assert row.keys() & pivots.keys() == {lead}


def copied(pivots):
    return {c: dict(row) for c, row in pivots.items()}


class TestSparseKernel:
    """`extend` grows a reduced echelon form one row at a time."""

    @given(_row_multisets())
    @settings(max_examples=80, deadline=None)
    def test_extend_row_by_row_is_echelon(self, case):
        n, rows, shuffled = case
        pivots = {}
        for row in shuffled:
            before = copied(pivots)
            lead = extend(pivots, sparse(row))
            assert_reduced(pivots)
            if lead is None:
                assert pivots == before
            else:
                assert lead not in before
                assert pivots.keys() == before.keys() | {lead}
        assert pivots == echelon([sparse(row) for row in rows])

    @given(_row_multisets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_in_the_span_returns_none(self, case, data):
        n, rows, _ = case
        pivots = echelon([sparse(row) for row in rows])
        combination = [0] * n
        for row in rows:
            a = data.draw(_entry)
            combination = [x + a * y for x, y in zip(combination, row)]
        before = copied(pivots)
        assert extend(pivots, sparse(combination)) is None
        assert pivots == before

    @given(_row_multisets())
    @settings(max_examples=60, deadline=None)
    def test_echelon_matches_dense_adapter(self, case):
        n, rows, _ = case
        pivots = echelon([sparse(row) for row in rows])
        assert_reduced(pivots)
        assert {c: sparse(row) for c, row
                in echelon_int_rows(rows, n).items()} == pivots

    def test_extend_returns_the_new_pivot(self):
        pivots = echelon([{1: 2, 3: 4}])
        assert pivots == {1: {1: 1, 3: 2}}
        assert extend(pivots, {0: -3, 1: 3, 3: 9}) == 0
        assert pivots == {0: {0: 1, 3: -1}, 1: {1: 1, 3: 2}}
        assert extend(pivots, {0: 2, 1: -1, 3: -4}) is None


class TestKernelEdges:
    def test_no_rows(self):
        assert echelon_int_rows([], 4) == {}
        assert echelon_int_rows([[0, 0], [0, 0]], 2) == {}

    def test_negative_lead_negated_and_content_free(self):
        assert echelon_int_rows([[0, -6, 4, 0, -2]], 5) == \
            {1: [0, 3, -2, 0, 1]}

    def test_ncols_wider_than_the_support(self):
        pivots = echelon_int_rows([[0, 2, 4, 0, 0, 0], [1, 0, 3, 0, 0, 0]],
                                  6)
        assert pivots == {0: [1, 0, 3, 0, 0, 0], 1: [0, 1, 2, 0, 0, 0]}
        assert all(type(x) is int for row in pivots.values() for x in row)
