"""End-to-end construction of Weyl invariant E8 weak Jacobi forms.

The pipeline for a given (weight, index) runs in three stages.  `system`
builds the most general polynomial ansatz over the meromorphic alphabet,
pushes it through the substitution to the holomorphic side, clears the
Delta denominator, splits off the E4-denominator parts and demands that
each be the matching power of the weight-16 index-5 form times an
E4-free polynomial: one homogeneous integer system.  `nullspace` solves
it exactly.  The certificates are read off its basis, one per form, in
one normal form (`Certificate.of`): the form, integer rows of its S_l
parts over their lowest common denominator, and its remainder derived
from the form when read.  The basis is its certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add
from typing import Dict, List, Sequence, Tuple, Union

from .ansatz import build_ansatz, enumerate_monomials
from .generators import (_image, _lifted_columns, _rest_powers, e4_split,
                         p16_5)
from .grading import BiDegree, ParamPoly, Poly, S_ALPHABET, ab
from .kernels import echelon, extend
from .linsolve import LinearSystem, nullspace

SCHEMA_VERSION = 1


class ConsistencyError(RuntimeError):
    """An internal mathematical invariant failed; results are unusable."""


@dataclass(frozen=True, eq=False, slots=True)
class Certificate:
    """Witness that `form` is a Jacobi form: with P the weight-16 index-5
    form, Delta^n * (form over AB) = sum_l P^l S_l / E4^l + R, every S_l
    free of E4.

    It holds the form, n, the one denominator `den` and the S_l, in
    integers: each (l, mons, nums) of `s_rows` is S_l over S as its
    monomials and their numerators over den, and den is the lowest
    common denominator of the S_l, so 1 when there is none.  Its shape
    is checked here and nowhere else, and no field can be reassigned:
    n >= 0, den >= 1, the l strictly ascending from 1, each row
    non-empty (an S_l that is zero is left out), one nonzero numerator
    per monomial, no monomial twice and no factor common to den and
    every numerator; ValueError otherwise.  R is fixed by the form, n
    and the S_l, so it is not held: `r_rows()` derives it from the form
    on every read.  `serialize` writes R and the S_l as fractions.
    """

    form: Poly
    n: int
    den: int
    s_rows: tuple

    def __post_init__(self):
        if self.n < 0 or self.den < 1:
            raise ValueError("certificate Delta power %d < 0 or den %d < 1"
                             % (self.n, self.den))
        last = 0
        for l, mons, nums in self.s_rows:   # most certificates have none
            if l <= last or not nums or len(mons) != len(nums) \
                    or 0 in nums or len(set(mons)) < len(mons):
                raise ValueError("malformed S row at l = %r" % (l,))
            last = l
        if gcd(self.den, *(x for _, _, nums in self.s_rows
                           for x in nums)) != 1:
            raise ValueError("den %d is not the lowest common denominator "
                             "of the S rows" % self.den)

    @classmethod
    def of(cls, form: Poly, n: int, rows) -> "Certificate":
        """The certificate of `form` at Delta power n whose S_l are
        `rows`, each (l, monomials, their rational values), l ascending:
        den is the lcm of the values' denominators, and zero values, and
        rows left with none, are dropped."""
        den = lcm(*(v.denominator for _, _, vals in rows for v in vals))
        return cls(form, n, den, tuple(
            (l, [mon for mon, v in zip(mons, vals) if v],
             [v.numerator * (den // v.denominator) for v in vals if v])
            for l, mons, vals in rows if any(vals)))

    def r_rows(self) -> Tuple[list, list, int]:
        """(R's monomials, descending, their numerators, L): R over AB as
        `generators.e4_split` gives it from the form's full image
        T/(L E4^a Delta^n) (`generators._image` with no cut), the terms
        of T at E4 exponent >= a shifted down by a, over the image's own
        L.  The terms below a are the E4^(a-l) Q_l that the S_l account
        for.  ConsistencyError when Delta cannot be cancelled from the
        image down to Delta^n."""
        image = _image(self.form, self.n, full=True)
        if image is None:
            raise ConsistencyError("certificate Delta power %d is below "
                                   "the image's" % self.n)
        terms, L, a, _ = image
        _, r = e4_split(terms, a)
        mons = sorted(r, reverse=True)
        return mons, [r[mon] for mon in mons], L


@dataclass(frozen=True)
class Rejection:
    """Divisibility failure at the given denominator power: the input is
    in the ambient polynomial algebra but is not a Jacobi form."""

    failing_l: int


@dataclass
class JacobiBasis:
    """The forms of a target, echelonized, primitive-integer, over ab,
    as the certificates that hold them, in order."""

    target: BiDegree
    certificates: List[Certificate]

    @property
    def forms(self) -> List[Poly]:
        return [c.form for c in self.certificates]

    @property
    def dimension(self) -> int:
        return len(self.certificates)


_BASIS_CACHE: Dict[Tuple[int, int], JacobiBasis] = {}
_DISK_STORE = None


def set_disk_store(store) -> None:
    """Install a persistent store (see e8jacobi.cache); None disables."""
    global _DISK_STORE
    _DISK_STORE = store


def clear_cache() -> None:
    _BASIS_CACHE.clear()


def jacobi_basis(k: int, m: int) -> JacobiBasis:
    """All weak Jacobi forms of the given weight and index, with
    certificates; empty basis when none exist."""
    if m < 0:
        raise ValueError("index must be >= 0")
    key = (k, m)
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached
    if _DISK_STORE is not None:
        stored = _DISK_STORE.load(k, m)
        if stored is not None:
            _BASIS_CACHE[key] = stored
            return stored
    basis = _compute_basis(k, m)
    _BASIS_CACHE[key] = basis
    if _DISK_STORE is not None:
        _DISK_STORE.save(k, m, basis)
    return basis


def system(target: BiDegree) -> Tuple[ParamPoly, int, int, list, LinearSystem]:
    """(ansatz, n, L, s_cols, system): the integer system of `target`,
    its columns the ansatz's, then those of each S_l that s_cols lists
    as (l, monomials, (start, stop)), l ascending; n is the Delta power
    of its certificates and L the common den of its ansatz columns."""
    ansatz = build_ansatz(ab, target)
    # Over the common denominator E4^p Delta^n the system reads
    # sum_j c_j column_j = E4^p R + sum_l E4^(p-l) P^l S_l, and every
    # row is read off integer columns in one pass.  Ansatz column j is
    # the image of monomial j (`_lifted_columns`): int numerators over
    # its index part's den, and L is the lcm of those few dens, so
    # scaling each column to L makes every row integer (the S_l columns
    # absorb L).  Each term is split by its E4 exponent e (E4 leads AB):
    # e < p goes, E4 stripped, into the rows of Q_{p-e}, and e >= p only
    # into R, which the system leaves free and no row holds, so a
    # column's loop stops at its first term at p (its terms ascend in
    # E4 exponent, see `generators._lifted_terms`).  Then each
    # monomial s of each nonempty S_l ansatz (`s_ansatz`), l <= p, is
    # the column -P^l s over S (`_p_power`), all of it at E4 exponent
    # p - l, so in Q_l's rows.
    n, s_mons = s_ansatz(target)
    columns, p, _ = _lifted_columns(ansatz.terms)    # over E4^p Delta^n
    L = lcm(*{den for _, _, den, _ in columns})
    qs: List[Dict[tuple, Dict[int, int]]] = [{} for _ in range(p)]
    for j, (s4, s6, den, terms) in enumerate(columns):
        scale = L // den
        for e4, e6, tail, c in zip(*terms):
            e = e4 + s4
            if e >= p:
                break
            qs[p - e - 1].setdefault((e6 + s6,) + tail, {})[j] = c * scale
    n_cols = len(columns)
    s_cols = []
    for l, mons in s_mons.items():
        if l > p:
            break
        q = qs[l - 1]
        for j, s in enumerate(mons, n_cols):
            for mon, c in _p_power(l).terms.items():
                q.setdefault(tuple(map(add, s, mon)), {})[j] = -c
        s_cols.append((l, mons, (n_cols, n_cols + len(mons))))
        n_cols += len(mons)
    # Q_l's rows in descending monomial order, l ascending
    rows = [q[mon] for q in qs for mon in sorted(q, reverse=True)]
    return ansatz, n, L, s_cols, LinearSystem(n_cols, rows)


def _compute_basis(k: int, m: int) -> JacobiBasis:
    """The certificates read off `nullspace(system(target))`: each is a
    form's witness, n and the S_l read straight off its vector over
    g * L, as each S_l monomial has one column."""
    target = BiDegree(k, m)
    ansatz, n, L, s_cols, linear = system(target)
    n_c = len(ansatz.terms)
    certificates: List[Certificate] = []
    for vec in nullspace(linear).basis:
        c_part = [(j, x) for j, x in vec.items() if j < n_c]
        # d is determined by c, so a solution vanishing on the c-block
        # means the projection onto c would lose dimensions.
        g = gcd(*(x for _, x in c_part))
        if not g:
            raise ConsistencyError(
                "nullspace vector independent of the ansatz coefficients "
                "at weight %d index %d" % (k, m))
        # vec leads with a positive entry in the c-block, so the form
        # c / g is primitive with positive leading coefficient.
        form = ansatz.substitute({j: x // g for j, x in c_part})
        certificates.append(Certificate.of(form, n, [
            (l, mons, [Fraction(vec.get(j, 0), g * L) for j in range(*cols)])
            for l, mons, cols in s_cols]))
    return JacobiBasis(target, certificates)


@cache
def s_ansatz(target: BiDegree) -> Tuple[int, Dict[int, List[tuple]]]:
    """(n, {l: monomials}), memoised, so not to be mutated: the Delta
    power n of every certificate of `target` that `system` gives, the
    largest Delta power among the images of the target's monomials over
    ab (`_lifted_columns`'s), and for each l >= 1 with a nonempty S_l
    ansatz, the monomials of S_l over S at bidegree (k + 12n - 12l,
    m - 5l), in `enumerate_monomials` order, l ascending: the S columns
    of its system are those at l at most its E4 power.  The ansatz is
    empty where 5l > m."""
    k, m = target
    n = max((_rest_powers(mon[2:])[1]
             for mon in enumerate_monomials(ab, target)), default=0)
    return n, {l: mons for l in range(1, m // 5 + 1)
               if (mons := enumerate_monomials(
                   S_ALPHABET, BiDegree(k + 12 * n - 12 * l, m - 5 * l)))}


def jacobi_dim(k: int, m: int) -> int:
    return jacobi_basis(k, m).dimension


def certify(form: Poly) -> Union[Certificate, Rejection]:
    """Run the membership construction on one concrete polynomial over ab.

    Succeeds iff every E4-denominator part is exactly divisible by the
    matching power of the weight-16 index-5 form; a Rejection names the
    first failing denominator power.  The image's `int` terms over L
    below E4^a, with every Delta factor cancelled (`generators._image`,
    kept for `certificate_identity`: a nonzero value at a point of
    Delta = 0 proves in O(monomials) that there is none, and otherwise
    the image is summed whole and Delta cancelled from it), are split
    into the nonzero Q_l over S by `generators.e4_split`; R, the terms
    from E4^a on, is not summed when there is no Delta to cancel.  Each
    Q_l divided by P^l over S, the one step in Fractions, gives the row
    of S_l: its quotient's monomials and its coefficients over L.  The
    certificate is the witness over `form` at the Delta power left, in
    the normal form of `Certificate.of`; its R is derived when read.
    """
    form.bidegree()  # raises on inhomogeneous input
    terms, L, a, n = _image(form)
    qs, _ = e4_split(terms, a)
    s_rows = []
    for l in sorted(qs):
        s_l = Poly(S_ALPHABET, qs[l]).divexact(_p_power(l))
        if s_l is None:
            return Rejection(l)
        s_rows.append((l, list(s_l.terms),
                       [Fraction(c, L) for c in s_l.terms.values()]))
    return Certificate.of(form, n, s_rows)


@cache
def _p_power(l: int) -> Poly:
    """P^l over S, P the weight-16 index-5 form, with int coefficients.
    P is free of E4, so `generators.e4_split` of P/E4 gives P over S as
    its one part, Q_1; `p16_5()` itself stays over AB."""
    return Poly(S_ALPHABET, e4_split(p16_5().terms, 1)[0][1]) ** l


def certificate_identity(form: Poly, cert: Certificate) -> bool:
    """Exact check that the witness of `cert` (n, den and the S rows)
    certifies `form`, in integers; `cert.form` and R are not read.

    The image of `form` is T/(L E4^a Delta^n), the `int` terms of
    `generators._image` below E4^a: for the n of a `certify`
    certificate, the image that `certify` built for the same form
    object.  With Q_l over S the E4^(a-l) slice of T
    (`generators.e4_split`) and S_l over S the numerators of the S row
    at l over den, the witness holds when den Q_l == L P^l S_l for
    every nonzero Q_l or S_l, so an S_l above a meets a zero Q_l.  R,
    the slices of E4 exponent >= a over L, is a polynomial whatever the
    witness, so it is neither summed nor checked.  An n at or above the
    Delta power of the form's monomial images needs no cancelling, so
    no test at a point; an n from which Delta cannot be cancelled down
    to the image's fails the check.  The shape of the witness is the
    type's (`Certificate`).
    """
    image = _image(form, cert.n)
    if image is None:
        return False
    terms, L, a, _ = image
    qs, _ = e4_split(terms, a)
    for l, mons, nums in cert.s_rows:
        q_l = qs.pop(l, None)   # None for a zero Q_l: P^l is not built
        s_l = Poly(S_ALPHABET, {m: x * L for m, x in zip(mons, nums)})
        if q_l is None or {m: c * cert.den for m, c in q_l.items()} \
                != (s_l * _p_power(l)).terms:
            return False
    return not qs


def rank_series(m: int) -> int:
    """Rank of the free module of index-m forms over the modular forms."""
    return _rank_series_coeffs(m)[m]


@cache
def _rank_series_coeffs(limit: int) -> Tuple[int, ...]:
    # product of 1/(1-x^d) over the generator index multiset
    degrees = [1, 2, 2, 3, 3, 4, 4, 5, 6]
    coeffs = [1] + [0] * limit
    for d in degrees:
        for i in range(d, limit + 1):
            coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


@dataclass
class IndexProfile:
    index: int
    d: Dict[int, int]      # weight -> generator count (nonzero entries)
    dims: Dict[int, int]   # weight -> dim of the weight-k index-m space


def profile_weights(m: int) -> range:
    """The even weights of the index-m profile, ascending: -5m..0, or
    -5..4 at m = 1: the range the index fixes.

    Forms of index m have weight >= -5m; for m >= 2 all generators have
    non-positive weight, and for m <= 1 the single generator sits at
    weight 4, so the range ends there.
    """
    lo, hi = -5 * m, 0 if m >= 2 else 4
    return range(lo + lo % 2, hi + 1, 2)


def index_profile(m: int) -> IndexProfile:
    """The generator counts d_k of the free module of index-m forms over
    the weights of `profile_weights(m)`, checked against its rank."""
    if m < 1:
        raise ValueError("index must be >= 1")
    weights = profile_weights(m)
    # every weight below the range has dimension 0
    dims = {k: jacobi_dim(k, m) for k in weights}
    d = {}
    total = 0
    for k in weights:
        count = dims[k] - dims.get(k - 4, 0) - dims.get(k - 6, 0) \
            + dims.get(k - 10, 0)
        if count < 0:
            raise ConsistencyError(
                "negative generator count at weight %d index %d" % (k, m))
        if count:
            d[k] = count
            total += count
    if total != rank_series(m):
        raise ConsistencyError(
            "generator count %d does not match module rank %d at index %d"
            % (total, rank_series(m), m))
    return IndexProfile(m, d, dims)


def coefficient_row(form: Poly, pos: Dict[tuple, int]) -> Dict[int, int]:
    """The coefficients of `form` as a sparse row of ints, each keyed by
    the position `pos` gives its monomial: basis forms and their products
    are primitive integer polynomials."""
    row = {}
    for mon, c in form.terms.items():
        if c.denominator != 1:
            raise ConsistencyError("non-integral coefficient %s" % c)
        row[pos[mon]] = c.numerator
    return row


def _complement(candidates: List[Poly], spanned: List[Poly],
                mons: Sequence[tuple]) -> Tuple[int, List[Poly]]:
    """The rank of `spanned` and the members of `candidates` extending its
    span, reduced and primitive.  The span is the `kernels.echelon` of
    the coefficient rows of `spanned`; a candidate is new exactly when
    `kernels.extend` adds a pivot to it, and the new pivot row is the
    candidate reduced against the span."""
    pos = {mon: i for i, mon in enumerate(mons)}
    span = echelon([coefficient_row(f, pos) for f in spanned])
    rank = len(span)
    out = []
    for form in candidates:
        lead = extend(span, coefficient_row(form, pos))
        if lead is not None:
            out.append(Poly(ab, {mons[c]: x
                                 for c, x in sorted(span[lead].items())}))
    return rank, out


def module_generators(m: int) -> List[Tuple[int, List[Poly]]]:
    """Generators of the free module of index-m forms, weight ascending
    over `profile_weights(m)`: at each weight, a basis complementary to
    E4/E6 times lower weights."""
    profile = index_profile(m)
    e4 = Poly.gen(ab, "E4")
    e6 = Poly.gen(ab, "E6")
    out = []
    for k in profile_weights(m):
        basis_k = jacobi_basis(k, m)
        mons = enumerate_monomials(ab, BiDegree(k, m))
        # below the range every dimension is 0, so nothing is built there
        old = [g * f for g, j in ((e4, k - 4), (e6, k - 6))
               if j in profile.dims for f in jacobi_basis(j, m).forms]
        _, gens = _complement(basis_k.forms, old, mons)
        if len(gens) != profile.d.get(k, 0):
            raise ConsistencyError(
                "complement dimension %d != generator count %d at (%d,%d)"
                % (len(gens), profile.d.get(k, 0), k, m))
        if gens:
            out.append((k, gens))
    return out


@dataclass
class LbReport:
    """Generators and relations of the lowest-weight graded subalgebra
    (weight -4m at index m)."""

    max_index: int
    lb_dims: Dict[int, int]
    lb_gens: Dict[int, List[Poly]]
    relation_counts: Dict[int, int]

    @property
    def generator_counts(self) -> Dict[int, int]:
        return {m: len(g) for m, g in self.lb_gens.items()}


def _index_multisets(indices: List[int], total: int) -> List[tuple]:
    """Multisets of positions of `indices` (with repetition) whose indices
    sum to total, each a tuple of positions ascending."""
    out = [((), total)]     # (positions, index left)
    for pos, idx in enumerate(indices):
        out = [(chosen + (pos,) * e, left - e * idx) for chosen, left in out
               for e in range(left // idx + 1)]
    return [chosen for chosen, left in out if not left]


def lb_analysis(max_index: int) -> LbReport:
    if max_index < 1:
        raise ValueError("max index must be >= 1")
    lb_dims: Dict[int, int] = {}
    lb_gens: Dict[int, List[Poly]] = {}
    relation_counts: Dict[int, int] = {}
    gen_forms: List[Poly] = []
    gen_indices: List[int] = []
    for m in range(1, max_index + 1):
        basis = jacobi_basis(-4 * m, m)
        lb_dims[m] = basis.dimension
        mons = enumerate_monomials(ab, BiDegree(-4 * m, m))
        products = []
        for multiset in _index_multisets(gen_indices, m):
            prod = Poly.const(ab, 1)
            for gi in multiset:
                prod = prod * gen_forms[gi]
            products.append(prod)
        span_dim, new_gens = _complement(basis.forms, products, mons)
        d_lb = basis.dimension - span_dim
        if d_lb < 0:
            raise ConsistencyError(
                "product span exceeds the full space at index %d" % m)
        if len(new_gens) != d_lb:
            raise ConsistencyError(
                "complement dimension mismatch at index %d" % m)
        lb_gens[m] = new_gens
        relation_counts[m] = len(products) - span_dim
        gen_forms.extend(new_gens)
        gen_indices.extend([m] * len(new_gens))
    return LbReport(max_index, lb_dims, lb_gens, relation_counts)
