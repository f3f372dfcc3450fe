"""End-to-end construction: bases, certificates, profiles, subalgebra."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc

from e8jacobi import construct, generators
from e8jacobi.ansatz import enumerate_monomials
from e8jacobi.cache import DiskStore
from e8jacobi.construct import (Certificate, ConsistencyError, Rejection,
                                certificate_identity, certify, clear_cache,
                                index_profile, jacobi_basis, jacobi_dim,
                                lb_analysis, module_generators, rank_series)
from e8jacobi.generators import (_lifted_columns, e4_split, p16_5,
                                 sub_ab_to_AB)
from e8jacobi.grading import AB, BiDegree, Poly, S_ALPHABET, ab, delta_poly
from e8jacobi.linsolve import nullspace
from e8jacobi.oracle import ComplexSample, EvalContext, eval_poly
from e8jacobi.serialize import (certificate_from_json, certificate_to_json,
                                fraction_to_str, poly_to_json)

from helpers import (LB_GENERATOR_COUNTS, LOWEST_WEIGHT_DIMS, PROFILES,
                     certificate_identity_reference, certificate_rows,
                     certify_full_reference, certify_reference, dense,
                     drop_e4, identity_full_reference, int_image,
                     index_multisets_reference, m16_5_pair,
                     m26_7_generator, one_shape, profile_targets,
                     remainder, remainders_reference, s_parts,
                     second_power_form, span_basis, spans_equal,
                     system_rows_reference)

# every target of index 1..5 in its profile weight range (143 forms)
PROFILE_TARGETS = [t for m in range(1, 6) for t in profile_targets(m)]
# the ones with at least one monomial, so that one can be added
AMBIENT_TARGETS = [(k, m) for k, m in PROFILE_TARGETS
                   if enumerate_monomials(ab, BiDegree(k, m))]
# the index-6 target with the most monomials
LARGEST_6 = max(profile_targets(6),
                key=lambda t: len(enumerate_monomials(ab, BiDegree(*t))))


class TestWorkedExamples:
    def test_weight_m16_index_5(self):
        basis = jacobi_basis(-16, 5)
        assert basis.dimension == 2
        assert spans_equal(basis.forms, m16_5_pair(), -16, 5)

    def test_weight_m26_index_7(self):
        basis = jacobi_basis(-26, 7)
        assert basis.dimension == 1
        form = basis.forms[0]
        expected = m26_7_generator()
        # equal up to a nonzero rational scalar; both are primitive with
        # positive leading coefficient, so equal on the nose
        assert form == expected
        cert = basis.certificates[0]
        assert cert.n == 5
        assert [l for l, _ in s_parts(cert)] == [1]

    def test_dimensions(self):
        assert jacobi_dim(4, 1) == 1
        assert jacobi_dim(3, 7) == 0
        assert jacobi_dim(0, 0) == 1
        assert jacobi_dim(2, 0) == 0


class TestCertificates:
    def test_one_shape(self, tmp_path):
        """Every producer of certificates lists nonzero terms only, each
        monomial once, and only the S_l that are not zero, l ascending:
        `jacobi_basis`, `certify` on each form and on one seeded integer
        combination of them, the JSON round trip and the disk cache.
        Over every target of index <= 6."""
        store = DiskStore(str(tmp_path))
        rng = random.Random(30)
        for k, m in [t for m in range(7) for t in profile_targets(m)]:
            basis = jacobi_basis(k, m)
            store.save(k, m, basis)
            certs = [*basis.certificates, *map(certify, basis.forms),
                     *(certificate_from_json(certificate_to_json(c), f)
                       for f, c in zip(basis.forms, basis.certificates)),
                     *store.load(k, m).certificates]
            if basis.forms:
                combination = Poly.zero(ab)
                for form in basis.forms:
                    combination += form.scale(rng.randint(-9, 9))
                certs.append(certify(combination))
            for cert in certs:
                assert isinstance(cert, Certificate) and one_shape(cert)

    def test_emitted_forms_certify(self):
        checked = 0
        for k, m in PROFILE_TARGETS + [(-26, 7)]:
            basis = jacobi_basis(k, m)
            for form, cert in zip(basis.forms, basis.certificates):
                assert certificate_identity(form, cert)
                recomputed = certify(form)
                assert isinstance(recomputed, Certificate)
                assert certificate_identity(form, recomputed)
                checked += 1
        assert checked == 143 + 1

    def test_index_6_certificates_hold(self):
        checked = 0
        for k, m in profile_targets(6):
            basis = jacobi_basis(k, m)
            for form, cert in zip(basis.forms, basis.certificates):
                assert certificate_identity(form, cert), (k, m)
                checked += 1
        assert checked == 248

    def test_tampered_certificates_fail(self):
        """A changed witness fails; R is not part of it (a changed R is
        a document test, `test_serialize.TestChangedRemainder`)."""
        form = jacobi_basis(-26, 7).forms[0]
        cert = certify(form)
        assert cert.n == sub_ab_to_AB(form).delta_pow == 5
        assert certificate_identity(form, cert)
        # n below the true value leaves a Delta denominator; n above it
        # multiplies the image by Delta
        def altered(n=cert.n, s_rows=cert.s_rows):
            return Certificate(form, n, cert.den, s_rows)

        assert not certificate_identity(form, altered(n=cert.n - 1))
        assert not certificate_identity(form, altered(n=cert.n + 1))
        # S_1 moved to l = 2, and the S part dropped (den 1 with it)
        ((l, mons, nums),) = cert.s_rows
        assert not certificate_identity(form,
                                        altered(s_rows=((l + 1, mons, nums),)))
        assert not certificate_identity(form, Certificate(form, cert.n, 1, ()))
        # the zero form and its empty certificate
        zero = Poly.zero(ab)
        empty = Certificate(zero, 0, 1, ())
        assert certificate_to_json(certify(zero)) == \
            certificate_to_json(empty)
        assert certificate_identity(zero, empty)

    def test_second_power_part(self):
        """P_{12,5} over ab is P/E4, so x = P_{12,5} (P_{12,5} + E4 A1 A4)
        is P^2/E4^2 + P A1 A4 over AB: S_2 = 1, and only the E4 shift
        by t - l = 0 puts P^2 back over E4^2."""
        x = second_power_form()
        cert = certify(x)
        assert cert.n == 0
        assert s_parts(cert) == ((2, Poly.const(S_ALPHABET, 1)),)
        assert remainder(cert) == p16_5() * Poly.gen(AB, "A1") \
            * Poly.gen(AB, "A4")
        assert certificate_identity(x, cert)
        ((_, mons, nums),) = cert.s_rows
        for l in (1, 3):
            assert not certificate_identity(x, Certificate(
                x, 0, cert.den, ((l, mons, nums),)))
        assert not certificate_identity(x, Certificate(x, 1, cert.den,
                                                       cert.s_rows))

    def test_meromorphic_generators_rejected(self):
        for name in ("a2", "a3", "b2"):
            result = certify(Poly.gen(ab, name))
            assert isinstance(result, Rejection)
            assert result.failing_l >= 1

    def test_powers_of_b6_rejected(self):
        """b6^3 and b6^4, whose images raise the b6 numerator (932 terms
        squared) to the 3rd and 4th power, fail at the first power."""
        b6 = Poly.gen(ab, "b6")
        assert certify(b6 ** 3) == Rejection(1)
        assert certify(b6 ** 4) == Rejection(1)

    def test_products_of_forms_are_forms(self):
        f = jacobi_basis(4, 1).forms[0]
        g = jacobi_basis(-16, 5).forms[0]
        for prod in (f * f, f * g):
            assert isinstance(certify(prod), Certificate)

    def test_scalar_rejects_nothing(self):
        assert isinstance(certify(Poly.const(ab, 5)), Certificate)


class TestIntegerStage:
    def test_equations_and_solutions_are_ints(self):
        *_, system = construct.system(BiDegree(-16, 5))
        space = nullspace(system)
        assert system.rows and space.dimension == 2
        assert all(type(c) is int for row in system.rows for c in row.values())
        assert all(type(x) is int for vec in space.basis
                   for x in dense(vec, system.n))

    @pytest.mark.parametrize("target, blocks", [((-48, 10), [1, 2]),
                                                ((-24, 5), [1]),
                                                ((-8, 2), [])],
                             ids=["m48_10", "m24_5", "m8_2"])
    def test_rows_match_reference(self, target, blocks):
        """The system that `construct.system` builds equals, row for row,
        the one built from expanded columns, `ParamPoly.mul_poly` and
        `coefficient_equations`."""
        *_, system = construct.system(BiDegree(*target))
        assert (system, blocks) == system_rows_reference(*target)

    def test_sizes_to_index_8(self):
        """Over the 98 targets of index 1..8: 27 empty bases, 2,816
        ansatz and 63 S columns, 1,595 rows of rank 1,103, no input
        coefficient above 45 bits, and 1,776 forms, columns less rank."""
        empty = columns = s_columns = rows = rank = bits = forms = 0
        for target in INDEX_8_TARGETS:
            ansatz, _, _, _, system = construct.system(BiDegree(*target))
            space = nullspace(system)
            empty += not space.basis
            columns += len(ansatz.terms)
            s_columns += system.n - len(ansatz.terms)
            rows += len(system.rows)
            rank += space.rank
            bits = max([bits, *(abs(c).bit_length() for row in system.rows
                                for c in row.values())])
            forms += space.dimension
        assert len(INDEX_8_TARGETS) == 98
        assert (empty, columns, s_columns, rows, rank, forms) == \
            (27, 2816, 63, 1595, 1103, 1776)
        assert bits <= 45 and forms == columns + s_columns - rank


class TestCertificateColumns:
    """The certificates read off the image columns equal the ones that the
    concrete path gives for each basis form: its image lifted to the
    ansatz's denominator E4^p Delta^n, split by `e4_split`, and each Q_l
    divided by P^l.  J_{-20,4} has monomials but no forms; S_l parts are
    rare, and J_{-26,8} has eight nonzero S_l coefficients over its twelve
    forms."""

    @pytest.mark.parametrize("target", [(-16, 5), (0, 4), (-20, 4),
                                        LARGEST_6, (-26, 8)],
                             ids=["m16_5", "0_4", "m20_4", "largest_6",
                                  "m26_8"])
    def test_match_substitute_reference(self, target):
        basis = construct._compute_basis(*target)
        _, p, n = _lifted_columns(enumerate_monomials(ab, BiDegree(*target)))
        E4, P = Poly.gen(AB, "E4"), p16_5()
        expected = []
        for form in basis.forms:
            frac = sub_ab_to_AB(form)
            num = frac.num * delta_poly(AB) ** (n - frac.delta_pow) \
                * E4 ** (p - frac.e4_pow)
            qs, r = e4_split(num.terms, p)
            parts = tuple((l, drop_e4(q.divexact(P ** l)))
                          for l, q in enumerate(qs, 1) if q)
            expected.append((n, parts, Poly(AB, r)))
        assert [(c.n, s_parts(c), remainder(c))
                for c in basis.certificates] == expected
        assert all(type(a) is int for cert in basis.certificates
                   for a in [cert.den, *cert.r_rows()[1],
                             *(a for _, _, nums in cert.s_rows
                               for a in nums)])
        assert len(expected) == jacobi_dim(*target)
        assert expected or target == (-20, 4)
        assert any(parts for _, parts, _ in expected) == \
            (target == (-26, 8))


# every target of index 1..8 in its profile weight range (1,776 forms)
INDEX_8_TARGETS = [t for m in range(1, 9) for t in profile_targets(m)]


class TestDerivedRemainder:
    """A computed certificate stores no R: it derives R from its form on
    each read, as the terms of the form's image at E4 exponent >= a,
    shifted down by a, over den.  That R is the one the construction
    accumulated over the image columns (`remainders_reference`)."""

    def test_matches_column_accumulation(self, tmp_path):
        store = DiskStore(str(tmp_path))
        for k, m in INDEX_8_TARGETS:
            basis = jacobi_basis(k, m)
            want = remainders_reference(basis)
            store.save(k, m, basis)
            for certs in (basis.certificates, store.load(k, m).certificates):
                got = [cert.r_rows() for cert in certs]
                assert [{mon: Fraction(x, L) for mon, x in zip(mons, nums)}
                        for mons, nums, L in got] == want, (k, m)
                assert all(mons == sorted(mons, reverse=True)
                           for mons, _, _ in got)

    def test_stores_no_remainder(self):
        basis = jacobi_basis(-26, 8)
        assert Certificate.__slots__ == ("form", "n", "den", "s_rows")
        for form, cert in zip(basis.forms, basis.certificates):
            assert cert.form is form and not hasattr(cert, "__dict__")
            first, again = cert.r_rows(), cert.r_rows()
            assert first == again and first[0] is not again[0]

    @pytest.fixture
    def with_s_part(self):
        """A J_{-26,8} form and its certificate, which has an S part."""
        basis = jacobi_basis(-26, 8)
        return next((f, c) for f, c in zip(basis.forms, basis.certificates)
                    if c.s_rows)

    def test_remainder_free_of_den(self, with_s_part):
        """R is over its image's own L, whatever den: on a certificate
        with an S part, den 1, den doubled and den times a prime that
        divides no numerator each derive the same R without raising,
        and each fails the identity, through the S rows."""
        form, cert = with_s_part
        want = cert.r_rows()
        for den in (1, 2 * cert.den, 1000003 * cert.den):
            bad = Certificate(form, cert.n, den, cert.s_rows)
            assert bad.r_rows() == want
            assert not certificate_identity(form, bad)
            assert not certificate_identity_reference(form, bad)

    def test_delta_power_below_the_forms(self, with_s_part):
        form, cert = with_s_part
        q = int_image(form)[3]
        assert q == cert.n
        bad = Certificate(form, q - 1, cert.den, cert.s_rows)
        with pytest.raises(ConsistencyError, match="Delta power"):
            bad.r_rows()
        assert certificate_identity(form, bad) is False

    def test_delta_cancelled_matches_reference(self):
        """Each pool certificate whose n is below the Delta power of its
        form's monomial images (`certify` cancelled Delta from the image)
        derives the R of `certify_reference`."""
        cancelled = [(form, cert) for form, cert in identity_pool()
                     if cert.n < int_image(form)[3]]
        assert len(cancelled) >= 2
        for form, cert in cancelled:
            n, den, parts, r = certify_reference(form)
            assert (cert.n, cert.den, s_parts(cert)) == (n, den, parts)
            assert remainder(cert) == r


class TestIntegerCertify:
    """`certify` in integers gives the certificate of the Fraction
    reference (`sub_ab_to_AB`, `e4_split` and `Poly.divexact`), with the
    same JSON text and the same denominator."""

    def assert_same(self, form):
        got, want = certify(form), certify_reference(form)
        if isinstance(want, Rejection):
            assert got == want
            return
        n, den, parts, r = want
        assert (got.n, got.den, s_parts(got)) == (n, den, parts)
        assert remainder(got) == r

    def test_every_target_of_index_5(self):
        """Each basis form of index <= 5, and per target one integer
        combination of all its forms."""
        checked = 0
        for k, m in PROFILE_TARGETS:
            forms = jacobi_basis(k, m).forms
            for form in forms:
                self.assert_same(form)
                checked += 1
            if len(forms) >= 2:
                combo = Poly.zero(ab)
                for i, form in enumerate(forms):
                    combo = combo + form.scale((-1) ** i * (i + 1))
                self.assert_same(combo)
        assert checked == 143

    def test_delta_cancelling_and_rejected_inputs(self):
        delta = delta_poly(ab)
        for form in (delta * jacobi_basis(-16, 5).forms[0],
                     delta * m26_7_generator(), second_power_form(),
                     Poly.zero(ab), Poly.const(ab, 5)):
            self.assert_same(form)
        for name in ("a2", "a3", "a4", "b1", "b2", "b3", "b4", "b5", "b6"):
            self.assert_same(Poly.gen(ab, name))


@cache
def identity_pool():
    """(form, certificate) pairs: the basis certificates and the `certify`
    certificates of a few targets, `certify` certificates of forms
    times Delta (whose terms cancel a Delta), the l = 2 certificate of
    `second_power_form` and the zero form with its empty certificate."""
    pool = []
    for target in [(4, 1), (-16, 5), (-26, 7), (-20, 6)]:
        basis = jacobi_basis(*target)
        for form, cert in zip(basis.forms, basis.certificates):
            pool += [(form, cert), (form, certify(form))]
    for form in (jacobi_basis(-16, 5).forms[0], m26_7_generator()):
        form = delta_poly(ab) * form
        pool.append((form, certify(form)))
    x = second_power_form()
    pool += [(x, certify(x)), (Poly.zero(ab), certify(Poly.zero(ab)))]
    return pool


TAMPERINGS = ["none", "s", "den", "n", "l", "drop"]


def tampered(cert, kind, data):
    """The fields (n, den, s_rows) of `cert` with one change of the given
    kind, drawn from `data`."""
    n, den, s_rows = cert.n, cert.den, cert.s_rows
    step = data.draw(st.sampled_from([-1, 1]))
    if kind in ("s", "l", "drop") and s_rows:
        i = data.draw(st.sampled_from(range(len(s_rows))))
        l, mons, nums = s_rows[i]
        if kind == "s":
            nums = list(nums)
            nums[data.draw(st.sampled_from(range(len(nums))))] += step
            changed = ((l, mons, nums),)
        else:
            changed = ((l + step, mons, nums),) if kind == "l" else ()
        s_rows = s_rows[:i] + changed + s_rows[i + 1:]
    elif kind == "den":
        den = den * 2 if step > 0 else den // data.draw(
            st.sampled_from([d for d in range(2, 13) if den % d == 0] or [1]))
    elif kind == "n":
        n += step
    return n, den, s_rows


def shape_holds(n, den, s_rows):
    """Reference of the shape that `Certificate` requires of a witness."""
    ls = [l for l, _, _ in s_rows]
    return n >= 0 and den >= 1 and ls == sorted(set(ls)) \
        and min(ls, default=1) >= 1 \
        and all(nums and len(mons) == len(set(mons)) == len(nums)
                and 0 not in nums for _, mons, nums in s_rows) \
        and gcd(den, *(x for _, _, nums in s_rows for x in nums)) == 1


class TestIdentityProperty:
    def test_pool_has_both_lift_branches(self):
        """The pool lifts the form's columns to the certificate's n
        (n above the columns' Delta power d: basis certificates) and
        cancels Delta from the image down to Delta^n (n below d:
        certificates whose terms cancel a Delta)."""
        gaps = {cert.n - int_image(form)[3] for form, cert
                in identity_pool()}
        assert min(gaps) < 0 < max(gaps)
        assert any(l == 2 for _, cert in identity_pool()
                   for l, _ in s_parts(cert))

    def test_pool_certificates_hold(self):
        for form, cert in identity_pool():
            assert certificate_identity(form, cert)
            assert certificate_identity_reference(form, cert)

    def test_empty_s_part_skipped(self):
        """An all-zero S part read from JSON is left out.  An S part at
        l = 20, above the E4 power of the image, fails the check without
        building P^20 (38 s at index 5 when it was built)."""
        basis = jacobi_basis(-16, 5)
        form, cert = basis.forms[0], basis.certificates[0]
        assert certificate_identity(form, cert)
        doc = certificate_to_json(cert)
        doc["s_parts"].append({"l": 20,
                               "poly": poly_to_json(Poly.zero(S_ALPHABET))})
        assert certificate_from_json(doc, form).s_rows == cert.s_rows
        zero_s = (0,) * len(S_ALPHABET)
        padded = Certificate(form, cert.n, cert.den,
                             cert.s_rows + ((20, [zero_s], [1]),))
        built = construct._p_power.cache_info().currsize
        start = perf_counter()
        assert certificate_identity(form, padded) is False
        assert perf_counter() - start < 1.0
        assert construct._p_power.cache_info().currsize == built

    @given(st.integers(0, 10 ** 6), st.sampled_from(TAMPERINGS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, pick, kind, data):
        """On the pool, under one random change of the witness (an S
        numerator +-1, den times 2 or divided by one of its divisors up
        to 12, n +- 1, an S_l moved to l +- 1 or dropped): ValueError
        from `Certificate` exactly when the change breaks the shape, and
        otherwise the integer identity equals the Fraction reference."""
        pool = identity_pool()
        form, cert = pool[pick % len(pool)]
        if kind == "none":
            assert certificate_identity(form, cert)
        n, den, s_rows = tampered(cert, kind, data)
        if not shape_holds(n, den, s_rows):
            with pytest.raises(ValueError):
                Certificate(cert.form, n, den, s_rows)
            return
        cert = Certificate(cert.form, n, den, s_rows)
        assert certificate_identity(form, cert) == \
            certificate_identity_reference(form, cert)


class TestSharedImage:
    """`certify` and `certificate_identity` share one image per form
    object; the memo serves it to the same object at its own Delta power
    only, and a cut image only to a cut call, so the derived R sums the
    full image once more unless `certify` built it."""

    @pytest.fixture
    def count_images(self, monkeypatch):
        built = []
        monkeypatch.setattr(generators, "_lifted_columns",
                            lambda mons, lift=0: built.append(lift)
                            or _lifted_columns(mons, lift))
        return built

    @staticmethod
    def fresh(form):
        """An equal copy that no memo has seen."""
        return Poly(ab, dict(form.terms))

    def test_one_image_per_form(self, count_images):
        """`certify`, then the identity, then the JSON document with the
        derived R: one image for `certify` and the identity of each fresh
        form object and one more, full, for R at the certificate's n, but
        where `certify` cancels a Delta and so built the full image."""
        forms = [*jacobi_basis(-26, 8).forms[:3],
                 delta_poly(ab) * m26_7_generator()]
        want = []
        for i, form in enumerate(forms):
            form = self.fresh(form)
            cert = certify(form)
            assert certificate_identity(form, cert)
            certificate_to_json(cert)
            want += [0] if i == 3 else [0, cert.n]
        assert count_images == want

    def test_lift_above_the_image_then_certify(self):
        """An image built for a Delta power above the form's own does not
        serve a later `certify` of the same object."""
        form = self.fresh(jacobi_basis(-16, 5).forms[0])
        want = certificate_to_json(certify(self.fresh(form)))
        q = int_image(form)[3]
        cert = certify(form)
        lifted = Certificate(form, q + 2, cert.den, cert.s_rows)
        assert certificate_identity(form, lifted) == \
            certificate_identity_reference(form, lifted)
        assert int_image(form, q + 2)[3] == q + 2
        assert certificate_to_json(certify(form)) == want
        assert int_image(form)[3] == q


@cache
def cut_inputs():
    """Forms for the cut image: every basis form of index <= 5, a seeded
    integer combination of the forms of each target of dimension >= 2,
    with and without an added monomial, Delta and Delta^2 times a few
    forms (Delta cancels: the full image's path), `second_power_form`
    and the nine meromorphic generators."""
    rng = random.Random(38)
    forms = []
    for k, m in PROFILE_TARGETS:
        basis = jacobi_basis(k, m).forms
        forms += basis
        if len(basis) >= 2:
            combo = Poly.zero(ab)
            for form in basis:
                combo = combo + form.scale(rng.randint(-9, 9))
            mon = rng.choice(enumerate_monomials(ab, BiDegree(k, m)))
            forms += [combo, combo + Poly.monomial(ab, mon, 1)]
    delta = delta_poly(ab)
    for form in (*jacobi_basis(-16, 5).forms, m26_7_generator(),
                 jacobi_basis(-8, 3).forms[0]):
        forms += [delta * form, delta ** 2 * form]
    forms.append(second_power_form())
    forms += [Poly.gen(ab, name) for name in
              ("a2", "a3", "a4", "b1", "b2", "b3", "b4", "b5", "b6")]
    return forms


def fresh(form):
    """An equal copy of `form` that no image memo has seen."""
    return Poly(ab, dict(form.terms))


class TestCutCertify:
    """`certify` and `certificate_identity` read only the image below
    E4^a, and decide at a point of Delta = 0 whether there is a Delta to
    cancel; both agree with the same steps on the whole image."""

    def test_certify_matches_the_full_image(self):
        results = [certify(fresh(form)) for form in cut_inputs()]
        assert [certificate_rows(r) for r in results] == \
            [certify_full_reference(form) for form in cut_inputs()]
        # both kinds of result, and certificates whose image lost a Delta
        assert any(isinstance(r, Rejection) for r in results)
        assert any(isinstance(r, Certificate) and r.s_rows for r in results)
        assert any(isinstance(r, Certificate)
                   and r.n < int_image(form)[3]
                   for form, r in zip(cut_inputs(), results))

    def test_identity_matches_the_full_image(self):
        """At the certificate's n, where it holds, and at one below and
        one above, for each form that certifies."""
        checked = 0
        for form in cut_inputs():
            cert = certify(form)
            if isinstance(cert, Rejection):
                continue
            assert certificate_identity(fresh(form), cert)
            for n in range(max(cert.n - 1, 0), cert.n + 2):
                moved = Certificate(cert.form, n, cert.den, cert.s_rows)
                assert certificate_identity(fresh(form), moved) == \
                    identity_full_reference(form, moved)
                checked += 1
        assert checked > 400

    def test_always_maybe_gives_identical_certificates(self, monkeypatch):
        """With the point's answer replaced by "maybe" everywhere, every
        image is summed whole and Delta is cancelled from it, and every
        certificate (with its derived R), rejection and identity comes
        out the same."""
        def outcomes():
            out = []
            for form in cut_inputs():
                form = fresh(form)
                cert = certify(form)
                out.append(cert if isinstance(cert, Rejection) else
                           (certificate_to_json(cert),
                            certificate_identity(fresh(form), cert)))
            return out

        answers = []
        proof = generators._off_delta
        monkeypatch.setattr(generators, "_off_delta", lambda *args:
                            answers.append(proof(*args)) or answers[-1])
        want = outcomes()
        assert True in answers and False in answers
        monkeypatch.setattr(generators, "_off_delta", lambda *args: False)
        assert outcomes() == want


class TestCertificateShape:
    """`Certificate` refuses a witness of another shape, each fault a
    change to the certificate of a J_{-26,8} form with an S_1 part."""

    @pytest.fixture
    def parts(self):
        basis = jacobi_basis(-26, 8)
        cert = next(c for c in basis.certificates if c.s_rows)
        (_, mons, nums), = cert.s_rows
        return cert, mons, nums

    @pytest.mark.parametrize("fault", [
        "n_negative", "den_zero", "den_negative", "den_common_factor",
        "den_without_s_rows", "l_zero", "l_twice", "l_descending",
        "empty_row", "zero_numerator", "monomial_twice", "length_mismatch"])
    def test_refused(self, parts, fault):
        cert, mons, nums = parts
        fields = {"n": cert.n, "den": cert.den,
                  "s_rows": ((1, mons, nums), (2, mons, nums))}
        Certificate(cert.form, **fields)    # the shape holds without it
        change = {
            "n_negative": {"n": -1},
            "den_zero": {"den": 0},
            "den_negative": {"den": -cert.den},
            "den_common_factor": {"den": 3 * cert.den, "s_rows": (
                (1, mons, [3 * x for x in nums]),)},
            "den_without_s_rows": {"s_rows": ()},
            "l_zero": {"s_rows": ((0, mons, nums),)},
            "l_twice": {"s_rows": ((1, mons, nums),) * 2},
            "l_descending": {"s_rows": fields["s_rows"][::-1]},
            "empty_row": {"s_rows": ((1, [], []),)},
            "zero_numerator": {"s_rows": ((1, mons, [0, *nums[1:]]),)},
            "monomial_twice": {"s_rows": ((1, mons + mons[:1],
                                           nums + nums[:1]),)},
            "length_mismatch": {"s_rows": ((1, mons, nums[:-1]),)},
        }[fault]
        with pytest.raises(ValueError):
            Certificate(cert.form, **{**fields, **change})

    def test_fields_frozen(self, parts):
        cert, mons, nums = parts
        for field, value in [("form", cert.form), ("n", cert.n + 1),
                             ("den", cert.den), ("s_rows", ())]:
            with pytest.raises(FrozenInstanceError):
                setattr(cert, field, value)
        with pytest.raises(FrozenInstanceError):
            cert.s_rows += ((2, mons, nums),)
        assert cert.s_rows == ((1, mons, nums),)


class TestNormalForm:
    @given(st.integers(1, 30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_of_divides_by_the_gcd(self, h0, data):
        """`Certificate.of` on int numerators over one d, zeros and
        all-zero rows among them, is the ints over d divided by
        h = gcd(d, numerators): den d // h, the nonzero x // h, and the
        rows with none dropped."""
        d = h0 * data.draw(st.integers(1, 30))
        xs = st.just(0) | st.integers(-30, 30).map(lambda x: h0 * x)
        rows = [(l, [(l, i) for i in range(len(nums))], nums)
                for l, nums in enumerate(data.draw(st.lists(
                    st.lists(xs, min_size=1, max_size=4), max_size=3)), 1)]
        form = Poly.const(ab, 1)
        cert = Certificate.of(form, 2, [
            (l, mons, [Fraction(x, d) for x in nums])
            for l, mons, nums in rows])
        h = gcd(d, *(x for _, _, nums in rows for x in nums))
        assert (cert.form, cert.n, cert.den) == (form, 2, d // h)
        assert cert.s_rows == tuple(
            (l, [mon for mon, x in zip(mons, nums) if x],
             [x // h for x in nums if x])
            for l, mons, nums in rows if any(nums))


@cache
def s_part_targets():
    """The targets of index <= 6 with a basis certificate that has an S
    part."""
    return [t for m in range(1, 7) for t in profile_targets(m)
            if any(c.s_rows for c in jacobi_basis(*t).certificates)]


class TestCertifyProperty:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_canonical_den_on_combinations(self, data):
        """certify on an integer combination of the basis forms of an
        index <= 6 target with an S part gives a certificate whose den
        is its S rows' lowest common denominator (`one_shape`), and
        that certificate holds."""
        k, m = data.draw(st.sampled_from(s_part_targets()))
        x = Poly.zero(ab)
        for form in jacobi_basis(k, m).forms:
            x = x + form.scale(data.draw(st.integers(-5, 5)))
        cert = certify(x)
        assert isinstance(cert, Certificate) and one_shape(cert)
        assert certificate_identity(x, cert)

    @given(st.sampled_from(AMBIENT_TARGETS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_certifies_exactly_the_span(self, target, data):
        """certify(x) is a Certificate exactly when x lies in the span of
        the basis: integer combinations, with and without one added
        ab-monomial of the same bidegree."""
        k, m = target
        basis = jacobi_basis(k, m).forms
        mons = enumerate_monomials(ab, BiDegree(k, m))
        x = Poly.zero(ab)
        for form in basis:
            x = x + form.scale(data.draw(st.integers(-5, 5)))
        if data.draw(st.booleans()):
            x = x + Poly.monomial(ab, data.draw(st.sampled_from(mons)),
                                  data.draw(st.integers(-3, 3)
                                            .filter(bool)))
        in_span = len(span_basis(basis + [x], k, m)) == len(basis)
        result = certify(x)
        assert isinstance(result, Certificate) == in_span
        if in_span:
            assert certificate_identity(x, result)


class TestRankSeries:
    def test_known_values(self):
        # r(m) = coefficients of prod 1/(1-x^{m_i}) over the generator
        # indices 1,2,2,3,3,4,4,5,6; cross-checked against the sums of
        # the known generator-count polynomials P^w_m
        assert [rank_series(m) for m in range(0, 7)] == [1, 1, 3, 5, 10, 15, 27]
        for m, profile in PROFILES.items():
            assert sum(profile.values()) == rank_series(m)


class TestProfiles:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_profiles(self, m):
        profile = index_profile(m)
        assert profile.d == PROFILES[m]
        assert sum(profile.d.values()) == rank_series(m)

    def test_rank_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(construct, "rank_series", lambda m: 4)
        with pytest.raises(ConsistencyError, match="module rank 4"):
            index_profile(2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_range_misses_nothing(self, m):
        # no forms below profile_weights(m), and no generator count
        # d_k = dim_k - dim_{k-4} - dim_{k-6} + dim_{k-10} above it
        weights = construct.profile_weights(m)
        for k in (weights[0] - 4, weights[0] - 2):
            assert jacobi_dim(k, m) == 0
        for k in range(weights[-1] + 2, 17, 2):
            assert jacobi_dim(k, m) - jacobi_dim(k - 4, m) \
                - jacobi_dim(k - 6, m) + jacobi_dim(k - 10, m) == 0


class TestModuleGenerators:
    def test_index_one(self):
        gens = module_generators(1)
        assert [(k, len(fs)) for k, fs in gens] == [(4, 1)]
        assert gens[0][1][0] == jacobi_basis(4, 1).forms[0]

    def test_index_two(self):
        gens = module_generators(2)
        assert {k: len(fs) for k, fs in gens} == PROFILES[2]


def fraction_complement(candidates, span_forms, mons):
    """Reference for `construct._complement`, in Fractions and written
    apart from the integer kernel: Gauss-Jordan rows with leading entry 1,
    each candidate reduced against them by hand and kept when a nonzero
    remainder is left, scaled to coprime integers with a positive leading
    entry."""
    pos = {mon: i for i, mon in enumerate(mons)}
    rows = []       # (lead, row): row[lead] == 1, zero at the other leads

    def reduced(form):
        vec = [Fraction(0)] * len(mons)
        for mon, c in form.terms.items():
            vec[pos[mon]] = Fraction(c)
        for lead, row in rows:
            if vec[lead]:
                c = vec[lead]
                vec = [x - c * y for x, y in zip(vec, row)]
        return vec

    def add(vec):
        lead = next(i for i, x in enumerate(vec) if x)
        vec = [x / vec[lead] for x in vec]
        for i, (l, row) in enumerate(rows):
            if row[lead]:
                c = row[lead]
                rows[i] = (l, [x - c * y for x, y in zip(row, vec)])
        rows.append((lead, vec))

    for form in span_forms:
        vec = reduced(form)
        if any(vec):
            add(vec)
    out = []
    for form in candidates:
        vec = reduced(form)
        if any(vec):
            add(vec)
            ints = [x * lcm(*(y.denominator for y in vec)) for x in vec]
            g = gcd(*(int(x) for x in ints))
            g = g if next(x for x in ints if x) > 0 else -g
            out.append(Poly(ab, {mon: x / g
                                 for mon, x in zip(mons, ints) if x}))
    return out


class TestIntegerComplement:
    """The integer pivot rows of `_complement` emit the same generator
    forms as the Fraction reduction they replaced."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_module_generators_match_fraction_reduction(self, m):
        e4, e6 = Poly.gen(ab, "E4"), Poly.gen(ab, "E6")
        expected = []
        for k in construct.profile_weights(m):
            forms = jacobi_basis(k, m).forms
            if not forms:
                continue
            span = [e4 * f for f in jacobi_basis(k - 4, m).forms] \
                + [e6 * f for f in jacobi_basis(k - 6, m).forms]
            gens = fraction_complement(
                forms, span, enumerate_monomials(ab, BiDegree(k, m)))
            if gens:
                expected.append((k, gens))
        assert module_generators(m) == expected

    def test_lb_generators_match_fraction_reduction(self):
        expected = {}
        gen_forms, gen_indices = [], []
        for m in range(1, 9):
            products = []
            for multiset in construct._index_multisets(gen_indices, m):
                prod = Poly.const(ab, 1)
                for gi in multiset:
                    prod = prod * gen_forms[gi]
                products.append(prod)
            expected[m] = fraction_complement(
                jacobi_basis(-4 * m, m).forms, products,
                enumerate_monomials(ab, BiDegree(-4 * m, m)))
            gen_forms += expected[m]
            gen_indices += [m] * len(expected[m])
        assert lb_analysis(8).lb_gens == expected


class TestLowestWeight:
    def test_dims_series(self):
        dims = [jacobi_dim(-4 * m, m) for m in range(0, 11)]
        assert dims == LOWEST_WEIGHT_DIMS

    def test_lb_report_small(self):
        report = lb_analysis(6)
        assert [len(report.lb_gens[m]) for m in range(1, 7)] == \
            LB_GENERATOR_COUNTS[:6]
        assert all(v == 0 for v in report.relation_counts.values())

    @pytest.mark.parametrize("indices", [[], [4], [4, 6, 6], [4, 6, 8, 9, 9],
                                         [3, 1, 2]])
    def test_index_multisets_match_search(self, indices):
        for total in range(0, 21):
            assert construct._index_multisets(indices, total) == \
                index_multisets_reference(indices, total)


class TestCaching:
    def test_memoized_identity(self):
        a = jacobi_basis(-16, 5)
        b = jacobi_basis(-16, 5)
        assert a is b

    def test_clear(self):
        a = jacobi_basis(-16, 5)
        clear_cache()
        b = jacobi_basis(-16, 5)
        assert a is not b and a.forms == b.forms


class TestIntegerForms:
    """Basis forms carry the ints of their primitive vectors; each one
    behaves exactly like its copy with Fraction coefficients."""

    @pytest.mark.parametrize("target", [(-16, 5), (0, 8), (-26, 8)],
                             ids=["m16_5", "0_8", "m26_8"])
    def test_like_fraction_copies(self, target):
        ctx = EvalContext()
        sample = ComplexSample(mpc("0.13", "1.07"),
                               tuple(mpc(0.01 * j, 0.02 - 0.003 * j)
                                     for j in range(8)))
        for form in jacobi_basis(*target).forms:
            assert all(type(c) is int for c in form.terms.values())
            copy = Poly(ab, {mon: Fraction(c)
                             for mon, c in form.terms.items()})
            assert form == copy and hash(form) == hash(copy)
            assert poly_to_json(form) == poly_to_json(copy)
            assert [fraction_to_str(c) for c in form.terms.values()] == \
                [fraction_to_str(c) for c in copy.terms.values()]
            assert eval_poly(form, sample, ctx) == \
                eval_poly(copy, sample, ctx)
            cert = certify(form)
            assert certificate_to_json(cert) == \
                certificate_to_json(certify(copy))
            assert certificate_identity(form, cert)
