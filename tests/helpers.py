"""Shared builders and reference data for the test suite."""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

import mpmath
from mpmath import mp

from e8jacobi import cli
from e8jacobi.ansatz import build_ansatz, enumerate_monomials
from e8jacobi.construct import Rejection, profile_weights
from e8jacobi.e8 import SIMPLE_ROOTS, _closure
from e8jacobi.generators import (_lifted_columns, _sum_columns,
                                 _weighted_columns, e4_split,
                                 holomorphic_images, p16_5, sub_ab_to_AB)
from e8jacobi.grading import (AB, BiDegree, Frac, ParamPoly, Poly,
                              S_ALPHABET, ab, cancel_delta, delta_poly)
from e8jacobi.linsolve import (LinearSystem, coefficient_equations,
                               echelonize, primitive_vector)
from e8jacobi.oracle import (ComplexSample, _from_fixed, _gauss_powers,
                             _to_fixed, eval_poly)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def dense(vec, n):
    """The sparse vector {column: int} as a list of its n entries."""
    return [vec.get(j, 0) for j in range(n)]


def profile_targets(m):
    """The (weight, index) targets of the index-m profile, weight
    ascending."""
    return [(k, m) for k in profile_weights(m)]


def enumerate_monomials_reference(alphabet, target):
    """Reference enumeration: one bounded depth-first search per target
    over the index-carrying generators, each exponent capped by the index
    left, E4 and E6 filled in wherever the index is used up; the
    exponent vectors sorted descending, as a tuple."""
    symbols = alphabet.symbols
    has_e4 = "E4" in symbols
    e6_pos = symbols.index("E6")
    indexed = [(i, d) for i, d in enumerate(alphabet.degrees) if d.index > 0]
    results = []
    exps = [0] * len(alphabet)

    def descend(pos, index_left, weight_left):
        if pos == len(indexed):
            if index_left == 0:
                for b in range(weight_left // 6 + 1):
                    rest = weight_left - 6 * b
                    if rest % 4 == 0 and (has_e4 or rest == 0):
                        full = exps[:]
                        if has_e4:
                            full[symbols.index("E4")] = rest // 4
                        full[e6_pos] = b
                        results.append(tuple(full))
            return
        i, deg = indexed[pos]
        for e in range(index_left // deg.index + 1):
            exps[i] = e
            descend(pos + 1, index_left - e * deg.index,
                    weight_left - e * deg.weight)
        exps[i] = 0

    if target.index >= 0:
        descend(0, target.index, target.weight)
    return tuple(sorted(results, reverse=True))


def index_multisets_reference(indices, total):
    """Reference for `construct._index_multisets`: a depth-first search
    over the positions of `indices`, each taken 0, 1, ... times while
    the index left allows."""
    out = []

    def rec(pos, left, chosen):
        if left == 0:
            out.append(tuple(chosen))
        elif pos < len(indices):
            for e in range(left // indices[pos] + 1):
                rec(pos + 1, left - e * indices[pos], chosen + [pos] * e)

    rec(0, total, [])
    return out


def build(alphabet, terms):
    """Polynomial from [(coeff, {symbol: exponent}), ...]."""
    out = {}
    for coeff, exps in terms:
        vec = [0] * len(alphabet)
        for sym, e in exps.items():
            vec[alphabet.position(sym)] = e
        out[tuple(vec)] = Fraction(coeff)
    return Poly(alphabet, out)


def normalized_by_trial_division(num, e4_pow, delta_pow):
    """Reference lowest terms of num / (E4^e4_pow Delta^delta_pow): the
    least E4 exponent cancelled in one step, then Delta divided out one
    power at a time by `Poly.divexact` until it fails or delta_pow is
    used up."""
    if num.is_zero():
        return Frac(num, 0, 0)
    pos = num.alphabet.position("E4")
    k = min(e4_pow, min(m[pos] for m in num.terms))
    if k:
        num = Poly(num.alphabet,
                   {m[:pos] + (m[pos] - k,) + m[pos + 1:]: c
                    for m, c in num.terms.items()})
        e4_pow -= k
    delta = delta_poly(num.alphabet)
    while delta_pow > 0:
        q = num.divexact(delta)
        if q is None:
            break
        num = q
        delta_pow -= 1
    return Frac(num, e4_pow, delta_pow)


def frac_product(f, g):
    """Reference product of two fractions, in lowest terms."""
    return normalized_by_trial_division(
        f.num * g.num, f.e4_pow + g.e4_pow, f.delta_pow + g.delta_pow)


def frac_sum(f, g):
    """Reference sum of two fractions over AB, in lowest terms: both
    numerators brought over the larger powers of E4 and of Delta."""
    e4 = max(f.e4_pow, g.e4_pow)
    dl = max(f.delta_pow, g.delta_pow)
    E4, delta = Poly.gen(AB, "E4"), delta_poly(AB)
    a = f.num * E4 ** (e4 - f.e4_pow) * delta ** (dl - f.delta_pow)
    b = g.num * E4 ** (e4 - g.e4_pow) * delta ** (dl - g.delta_pow)
    return normalized_by_trial_division(a.unchecked_add(b), e4, dl)


def frac_bidegree(f):
    """The bidegree of num / (E4^p Delta^q): E4 has weight 4 and Delta
    weight 12, both index 0."""
    d = f.num.bidegree()
    return BiDegree(d.weight - 4 * f.e4_pow - 12 * f.delta_pow, d.index)


def rows(cert):
    """n, den, R's lists and its L, and the S rows of `cert`: all of what
    it certifies, R as derived from its form, read once."""
    return (cert.n, cert.den, *cert.r_rows(), cert.s_rows)


def s_parts(cert):
    """(l, S_l over S) for each row of `cert`, as Fraction polynomials."""
    return tuple((l, Poly(S_ALPHABET, {m: Fraction(a, cert.den)
                                       for m, a in zip(mons, nums)}))
                 for l, mons, nums in cert.s_rows)


def one_shape(cert, r_rows=None):
    """Whether `cert` has the shape of every certificate the library
    builds: R and each S_l list each monomial once with a nonzero
    numerator, the S_l come at strictly ascending l, each with a term,
    and den is the S_l's lowest common denominator, 1 when there is
    none.  R is read once, unless its `r_rows()` are given."""
    ls = [l for l, _, _ in cert.s_rows]
    r_mons, r_nums, _ = r_rows or cert.r_rows()
    rows = [(r_mons, r_nums), *((m, x) for _, m, x in cert.s_rows)]
    return ls == sorted(set(ls)) and all(x for _, _, x in cert.s_rows) \
        and all(len(mons) == len(set(mons)) == len(nums) and 0 not in nums
                for mons, nums in rows) \
        and cert.den == lcm(*(c.denominator for _, s in s_parts(cert)
                              for c in s.terms.values()))


def remainder(cert):
    """R of `cert` over AB, as a Fraction polynomial, read once."""
    mons, nums, L = cert.r_rows()
    return Poly(AB, {m: Fraction(a, L) for m, a in zip(mons, nums)})


def poly_doc_reference(alphabet, terms):
    """The per-term writer of a polynomial document: a new exponent map
    for every (exponent vector, "num/den") pair, descending."""
    symbols = alphabet.symbols
    return {"alphabet": alphabet.name,
            "terms": [{"exponents": {s: e for s, e in zip(symbols, exps)
                                     if e},
                       "coefficient": coeff} for exps, coeff in terms]}


def row_doc_reference(alphabet, mons, nums, den):
    """`poly_doc_reference` of the sum of nums[i]/den * mons[i]."""
    terms = []
    for exps, a in sorted(zip(mons, nums), reverse=True):
        g = math.gcd(a, den)
        terms.append((exps, "%d/%d" % (a // g, den // g)))
    return poly_doc_reference(alphabet, terms)


def basis_to_json_reference(basis):
    """`basis_to_json` written term by term, each exponent map its own."""
    return {"weight": basis.target.weight,
            "index": basis.target.index,
            "dimension": basis.dimension,
            "forms": [poly_doc_reference(f.alphabet, (
                (exps, "%d/%d" % (c.numerator, c.denominator))
                for exps, c in f.sorted_terms())) for f in basis.forms],
            "certificates": [
                {"n": c.n,
                 "s_parts": [{"l": l, "poly": row_doc_reference(
                     S_ALPHABET, mons, nums, c.den)}
                     for l, mons, nums in c.s_rows],
                 "remainder": row_doc_reference(AB, *c.r_rows())}
                for c in basis.certificates]}


def drop_e4(p):
    """p over AB, free of E4, as a polynomial over S."""
    assert all(m[0] == 0 for m in p.terms)
    return Poly(S_ALPHABET, {m[1:]: c for m, c in p.terms.items()})


def p_power_reference(l):
    """P^l over S, P the weight-16 index-5 form: raised over AB and then
    brought to S, independently of `construct._p_power`."""
    return drop_e4(p16_5() ** l)


def certify_reference(form):
    """Reference `certify` in Fraction polynomials: the image in lowest
    terms by `sub_ab_to_AB`, split by `e4_split` into the nonzero Q_l
    over S, and each Q_l divided by P^l over S with `Poly.divexact`.  A
    Rejection, or (n, den, the parts (l, S_l over S), R over AB), den
    the lcm of the denominators of the S_l."""
    frac = sub_ab_to_AB(form)
    qs, r = e4_split(frac.num.terms, frac.e4_pow)
    parts = []
    for l in sorted(qs):
        s_l = Poly(S_ALPHABET, qs[l]).divexact(p_power_reference(l))
        if s_l is None:
            return Rejection(l)
        parts.append((l, s_l))
    den = lcm(*(Fraction(c).denominator for _, s in parts
                for c in s.terms.values()))
    return frac.delta_pow, den, tuple(parts), Poly(AB, r)


def certificate_identity_reference(form, cert):
    """Reference `certificate_identity` in Fraction polynomials, from the
    witness alone: the image N/(E4^a Delta^d) in lowest terms by
    `sub_ab_to_AB`, False when n < d, and otherwise Delta^(n-d) N, split
    by `e4_split` at a into the Q_l over S and R, holds exactly when
    every l >= 1 has Q_l == P^l S_l over S (a part missing is zero, so
    an S_l above a meets a zero Q_l); R is not read."""
    image = sub_ab_to_AB(form)
    gap = cert.n - image.delta_pow
    if gap < 0:
        return False
    parts = dict(s_parts(cert))
    num = image.num * delta_poly(AB) ** gap if gap else image.num
    qs, _ = e4_split(num.terms, image.e4_pow)
    for l in sorted({*qs, *parts}):
        s_l = parts.get(l, Poly.zero(S_ALPHABET))
        if Poly(S_ALPHABET, qs.get(l, {})) != p_power_reference(l) * s_l:
            return False
    return True


def int_image(form, lift=0):
    """The whole image of `form` over AB as (terms, L, e4_pow,
    delta_pow), not reduced: the sum of its weighted columns with no
    cut, nonzero `int` terms over L E4^e4_pow Delta^delta_pow, with
    delta_pow the larger of `lift` and the largest Delta power of its
    monomial images."""
    columns, L, e4, dl = _weighted_columns(form, lift)
    return _sum_columns(columns), L, e4, dl


def full_image(form, n=None):
    """Reference `generators._image` with no cut and no test at a point:
    the whole image (`int_image`), lifted to Delta^n when n is above
    its Delta power, with Delta cancelled by `cancel_delta` down to n,
    or as far as it goes when n is None.  (terms, L, a, n'), or None
    when a given n is not reached."""
    terms, L, a, dl = int_image(form, n or 0)
    k, terms = cancel_delta(terms, dl if n is None else dl - n)
    if n is not None and dl - k != n:
        return None
    return terms, L, a, dl - k


def certify_full_reference(form):
    """Reference `certify` on the whole image (`full_image`), in the same
    integer steps: a Rejection, or (n, den, ((l, {S monomial: numerator
    over den}), ...)) with l ascending."""
    terms, L, a, n = full_image(form)
    qs, _ = e4_split(terms, a)
    parts = []
    for l in sorted(qs):
        s_l = Poly(S_ALPHABET, qs[l]).divexact(p_power_reference(l))
        if s_l is None:
            return Rejection(l)
        parts.append((l, {m: Fraction(c, L) for m, c in s_l.terms.items()}))
    den = lcm(*(c.denominator for _, s in parts for c in s.values()))
    return n, den, tuple((l, {m: int(c * den) for m, c in s.items()})
                         for l, s in parts)


def certificate_rows(cert):
    """A `certify` result in the shape of `certify_full_reference`."""
    if isinstance(cert, Rejection):
        return cert
    return cert.n, cert.den, tuple((l, dict(zip(mons, nums)))
                                   for l, mons, nums in cert.s_rows)


def identity_full_reference(form, cert):
    """Reference `certificate_identity` on the whole image at cert.n
    (`full_image`): False when Delta cannot be cancelled down to it, and
    otherwise whether den Q_l == L P^l S_l over S for every l, where an
    S_l above the image's E4 power meets a zero Q_l."""
    image = full_image(form, cert.n)
    if image is None:
        return False
    terms, L, a, _ = image
    qs, _ = e4_split(terms, a)
    parts = {l: Poly(S_ALPHABET, {m: x * L for m, x in zip(mons, nums)})
             for l, mons, nums in cert.s_rows}
    return all(
        Poly(S_ALPHABET, qs.get(l, {})).scale(cert.den)
        == parts.get(l, Poly.zero(S_ALPHABET)) * p_power_reference(l)
        for l in {*qs, *parts})


def remainders_reference(basis):
    """Reference R of each certificate of a computed `basis`, by the one
    integer column pass over the image columns that the construction
    made before R was derived from the form: each column's terms at E4
    exponent e >= p go, at exponent e - p, to R's part of the column,
    and each form's numerators over the columns' lcm L accumulate over
    the columns of its monomials.  One dict {AB monomial: nonzero
    Fraction} per certificate."""
    ansatz = build_ansatz(ab, basis.target)
    columns, p, _ = _lifted_columns(ansatz.terms)
    L = lcm(*{den for _, _, den, _ in columns})
    r_pos, r_cols = {}, {}
    for mon, (s4, s6, den, terms) in zip(ansatz.terms, columns):
        positions, nums = [], []
        for e4, e6, tail, c in zip(*terms):
            if e4 + s4 >= p:
                positions.append(r_pos.setdefault(
                    (e4 + s4 - p, e6 + s6) + tail, len(r_pos)))
                nums.append(c)
        r_cols[mon] = (L // den, positions, nums)
    r_mons = list(r_pos)
    out = []
    for form in basis.forms:
        acc = [0] * len(r_mons)
        for mon, c in form.terms.items():
            scale, positions, nums = r_cols[mon]
            x = int(c) * scale
            for pos, a in zip(positions, nums):
                acc[pos] += x * a
        out.append({mon: Fraction(a, L) for mon, a in zip(r_mons, acc) if a})
    return out


def expand_column(column):
    """A `_lifted_columns` column as its (AB exponent vector, int) terms:
    the index part's terms with the monomial's E4 and E6 shifts added."""
    s4, s6, _, terms = column
    return [((e4 + s4, e6 + s6) + tail, c)
            for e4, e6, tail, c in zip(*terms)]


def system_rows_reference(k, m):
    """Reference for the linear system that `construct.system` builds,
    as (system, the l of each S_l block).

    The ansatz's image columns are expanded, scaled to the lcm L of their
    dens and split by E4 exponent into the parametric polynomials Q_l
    over AB; each S_l ansatz is a ParamPoly over AB whose columns follow
    the c-block, multiplied by P^l with `ParamPoly.mul_poly`; and each
    l's rows are `coefficient_equations(Q_l, P^l S_l)`."""
    ansatz = build_ansatz(ab, BiDegree(k, m))
    columns, p, n = _lifted_columns(ansatz.terms)
    L = lcm(*{column[2] for column in columns})
    qs = [{} for _ in range(p)]
    for j, column in enumerate(columns):
        for mon, c in expand_column(column):
            if mon[0] < p:
                qs[p - mon[0] - 1].setdefault((0,) + mon[1:], {})[j] = \
                    c * (L // column[2])
    n_cols = len(columns)
    rows, blocks = [], []
    for l in range(1, p + 1):
        mons = enumerate_monomials(S_ALPHABET,
                                   BiDegree(k + 12 * n - 12 * l, m - 5 * l))
        s_l = ParamPoly(AB, {(0,) + s: {n_cols + i: 1}
                             for i, s in enumerate(mons)})
        if mons:
            blocks.append(l)
        n_cols += len(mons)
        rows.extend(coefficient_equations(ParamPoly(AB, qs[l - 1]),
                                          s_l.mul_poly(p16_5() ** l)))
    return LinearSystem(n_cols, rows), blocks


def span_basis(forms, k, m):
    """Canonical echelon basis of the span of coefficient vectors."""
    mons = enumerate_monomials(forms[0].alphabet, BiDegree(k, m))
    pos = {mon: i for i, mon in enumerate(mons)}
    vecs = []
    for f in forms:
        v = [Fraction(0)] * len(mons)
        for mon, c in f.terms.items():
            v[pos[mon]] = c
        vecs.append(v)
    return [primitive_vector(r) for r in echelonize(vecs)]


def spans_equal(forms_a, forms_b, k, m):
    return span_basis(forms_a, k, m) == span_basis(forms_b, k, m)


def theta_fixed_loop(half_powers, tau, wp, n_max):
    """Reference theta kernel: (theta1, theta2, theta3, theta4) at (z,
    tau) as fixed-point pairs at scale 2^wp, given the pairs of y^{1/2}
    = e^{pi i z} and y^{-1/2} at that scale, by one loop over h =
    1..2N+1 that steps y^{+-h/2} and sums the products g_h y^{+-h/2}
    term by term, exactly, into buckets by h mod 4; the g_h are the
    kernel's own (`_gauss_powers`)."""
    g_re, g_im = _gauss_powers(tau, wp, 2 * n_max + 1)
    (hr, hi), (kr, ki) = half_powers
    ur, ui, dr, di = hr, hi, kr, ki     # y^{h/2}, y^{-h/2} at h = 1
    # by parity of m, for h = 2m + 1 and h = 2m + 2
    ups_r, ups_i, downs_r, downs_i = [0, 0], [0, 0], [0, 0], [0, 0]
    evens_r, evens_i = [0, 0], [0, 0]
    for m in range(n_max):
        p = m & 1
        gr, gi = g_re[2 * m + 1], g_im[2 * m + 1]
        ups_r[p] += gr * ur - gi * ui
        ups_i[p] += gr * ui + gi * ur
        downs_r[p] += gr * dr - gi * di
        downs_i[p] += gr * di + gi * dr
        ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
        dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
        gr, gi = g_re[2 * m + 2], g_im[2 * m + 2]
        sr, si = ur + dr, ui + di
        evens_r[p] += gr * sr - gi * si
        evens_i[p] += gr * si + gi * sr
        ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
        dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
    gr, gi = g_re[2 * n_max + 1], g_im[2 * n_max + 1]
    downs_r[n_max & 1] += gr * dr - gi * di
    downs_i[n_max & 1] += gr * di + gi * dr
    # evens[0] holds the odd n = m + 1, evens[1] the even n
    one = 1 << (2 * wp)
    return (   # theta1 = i (downs[0] - downs[1] - ups[0] + ups[1])
        ((-downs_i[0] + downs_i[1] + ups_i[0] - ups_i[1]) >> wp,
         (downs_r[0] - downs_r[1] - ups_r[0] + ups_r[1]) >> wp),
        ((ups_r[0] + ups_r[1] + downs_r[0] + downs_r[1]) >> wp,
         (ups_i[0] + ups_i[1] + downs_i[0] + downs_i[1]) >> wp),
        ((one + evens_r[0] + evens_r[1]) >> wp,
         (evens_i[0] + evens_i[1]) >> wp),
        ((one - evens_r[0] + evens_r[1]) >> wp,
         (-evens_i[0] + evens_i[1]) >> wp))


def dot2(v, w):
    """True inner product of two doubled vectors (`e8.Vec2`)."""
    return Fraction(sum(a * b for a, b in zip(v, w)), 4)


@cache
def weyl_orbit(j):
    """Orbit of the j-th fundamental weight (1-based) under the Weyl
    group, sorted, by closure under the reflections in the simple roots;
    built once per j and kept, as exact integer data."""
    return _closure(j, SIMPLE_ROOTS, lambda v: v)


def orbit_character_loop(j, z, ctx):
    """Reference orbit character: the sum of prod_k x_k^{v_k}, x_k =
    e^{pi i z_k}, over the whole sorted orbit `weyl_orbit(j)` in fixed
    point, keeping the prefix products of the previous vector and
    redoing only those after its first changed coordinate."""
    orbit = weyl_orbit(j)
    reach = max(map(max, orbit))     # the orbit is closed under negation
    with mp.workdps(ctx.work_digits):
        growth = math.pi * reach * sum(abs(float(mpmath.im(zk))) for zk in z)
        wp = (mp.prec + math.ceil(growth / math.log(2))
              + (8 * reach + 8).bit_length() + len(orbit).bit_length() + 8)
        powers = []
        for zk in z:
            with mp.workprec(wp + 10):
                x = mpmath.expjpi(zk)
                xr, xi = _to_fixed(x, wp)
                yr, yi = _to_fixed(1 / x, wp)
            row = [(1 << wp, 0)] * (2 * reach + 1)   # row[reach + e] = x^e
            for e in range(1, reach + 1):
                ar, ai = row[reach + e - 1]
                row[reach + e] = ((ar * xr - ai * xi) >> wp,
                                  (ar * xi + ai * xr) >> wp)
                ar, ai = row[reach - e + 1]
                row[reach - e] = ((ar * yr - ai * yi) >> wp,
                                  (ar * yi + ai * yr) >> wp)
            powers.append(row)
        # prefix[k] = prod_{i<k} x_i^{v_i}
        prefix_r = [1 << wp] + [0] * 8
        prefix_i = [0] * 9
        previous = (None,) * 8
        total_r = total_i = 0
        for v in orbit:
            first = 0
            while v[first] == previous[first]:
                first += 1
            for k in range(first, 8):
                xr, xi = powers[k][reach + v[k]]
                ar, ai = prefix_r[k], prefix_i[k]
                prefix_r[k + 1] = (ar * xr - ai * xi) >> wp
                prefix_i[k + 1] = (ar * xi + ai * xr) >> wp
            total_r += prefix_r[8]
            total_i += prefix_i[8]
            previous = v
        return _from_fixed(total_r, total_i, wp)


def q_laurent_probe_loop(form, z, ctx, radius, count):
    """Reference q-Laurent probe: the DFT of `q_laurent_probe` with one
    exponential e^{-2 pi i t j / count} per coefficient t and point j."""
    with mp.workdps(ctx.work_digits):
        im_tau = -mpmath.log(mpmath.mpf(radius)) / (2 * mpmath.pi)
        values = [eval_poly(form, ComplexSample(
            mp.mpf(j) / count + mp.mpc(0, 1) * im_tau, tuple(z)), ctx)
            for j in range(count)]
        coeffs = {}
        for t in range(-2, 3):
            acc = mp.mpc(0)
            for j, v in enumerate(values):
                acc += v * mpmath.expjpi(mp.mpf(-2 * t * j) / count)
            coeffs[t] = acc / (count * mp.mpf(radius) ** t)
        return coeffs


def digest(doc) -> str:
    """The sha256 of the canonical JSON text of `doc`, as the golden
    files of `tools/` hold it."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> str:
    """The stdout of the CLI on `argv`, run in this process;
    RuntimeError on a nonzero exit."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("%s exited %d" % (" ".join(argv), code))
    return text.getvalue()


def stdout_digest(argv) -> str:
    """The sha256 of the stdout of `e8jacobi ARGV`, without its
    `elapsed_seconds` line: the digests of the golden files of
    `tools/`."""
    text = "".join(line for line in run(argv).splitlines(True)
                   if not line.startswith('  "elapsed_seconds": '))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def p12_5_over_ab() -> Poly:
    """The weight-12 index-5 quotient form as a polynomial over ab,
    P_{16,5}/E4 (criterion 7)."""
    g = {s: Poly.gen(ab, s) for s in ab.symbols}
    E4, E6 = g["E4"], g["E6"]
    a2, a3 = g["a2"], g["a3"]
    b1, b2, b3, b4, b5 = g["b1"], g["b2"], g["b3"], g["b4"], g["b5"]
    D = delta_poly(ab)
    return (24 * D * E4 ** 2 * E6 * a2 * b1 * b2
            - 18 * D * E4 ** 2 * E6 * a3 * b1 ** 2
            + 20736 * D * E4 ** 2 * a2 * b1 ** 3
            + 5 * D * E4 * E6 ** 2 * a2 ** 2 * b1
            - 28440 * E6 ** 2 * b1 ** 5
            - 336 * D ** 2 * E4 * E6 * a2 * a3
            + 4824 * D * E6 ** 2 * b1 ** 2 * b3
            - 1008 * D * E6 ** 2 * b1 * b2 ** 2
            - 991872 * D * E6 * b1 ** 3 * b2
            - 13436928 * D * b1 ** 5
            - 384 * D ** 2 * E6 ** 2 * b5
            + 27648 * D ** 2 * E6 * b1 * b4
            + 76032 * D ** 2 * E6 * b2 * b3
            - 12690432 * D ** 2 * b1 * b2 ** 2) / 9216


def second_power_form():
    """P_{12,5} (P_{12,5} + E4 A1 A4) over ab: P^2/E4^2 + P A1 A4 over
    AB, whose certificate has S_2 = 1 (see
    test_construct.py::TestCertificates::test_second_power_part)."""
    p12 = p12_5_over_ab()
    hol = holomorphic_images()
    return p12 * (p12 + Poly.gen(ab, "E4") * hol["A1"] * hol["A4"])


# Known bases: weight -16 index 5 (two forms) and the unique
# weight -26 index 7 generator.

def m16_5_pair():
    phi1 = build(ab, [
        (1, {"E4": 2, "b5": 1}),
        (Fraction(18, 5), {"E4": 1, "a2": 1, "b3": 1}),
        (Fraction(-24, 5), {"E4": 1, "a3": 1, "b2": 1}),
        (12, {"E4": 1, "a4": 1, "b1": 1}),
    ])
    phi2 = build(ab, [
        (1, {"E6": 1, "a2": 1, "a3": 1}),
        (Fraction(36, 5), {"E4": 1, "a2": 1, "b3": 1}),
        (Fraction(-108, 5), {"E4": 1, "a3": 1, "b2": 1}),
        (72, {"E4": 1, "a4": 1, "b1": 1}),
        (-72, {"a2": 2, "b1": 1}),
    ])
    return [phi1, phi2]


def m26_7_generator():
    return build(ab, [
        (25, {"E6": 1, "a2": 1, "b5": 1}),
        (-10, {"E6": 1, "a3": 1, "b4": 1}),
        (900, {"E4": 1, "b1": 1, "b6": 1}),
        (-180, {"E4": 1, "b2": 1, "b5": 1}),
        (36, {"E4": 1, "b3": 1, "b4": 1}),
        (-1080, {"a2": 1, "b1": 1, "b4": 1}),
        (216, {"a2": 1, "b2": 1, "b3": 1}),
        (1080, {"a3": 1, "b1": 1, "b3": 1}),
        (-432, {"a3": 1, "b2": 2}),
    ])


# Generator-count Laurent polynomials P^w_m for m = 1..6,
# as {weight: count}.
PROFILES = {
    1: {4: 1},
    2: {-4: 1, -2: 1, 0: 1},
    3: {-8: 1, -6: 1, -4: 1, -2: 1, 0: 1},
    4: {-16: 1, -14: 1, -12: 1, -10: 1, -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
    5: {-16: 2, -14: 2, -12: 3, -10: 2, -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
    6: {-24: 2, -22: 2, -20: 3, -18: 3, -16: 3, -14: 3, -12: 3,
        -10: 2, -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
}

# dim J_{-4m, m} for m = 0..10 and the new-generator / relation counts
# of the lowest-weight subalgebra for m = 1..10.
LOWEST_WEIGHT_DIMS = [1, 0, 0, 0, 1, 0, 2, 0, 2, 1, 4]
LB_GENERATOR_COUNTS = [0, 0, 0, 1, 0, 2, 0, 1, 1, 2]
