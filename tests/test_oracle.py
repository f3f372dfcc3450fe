"""Numeric oracle: special functions, generators, axioms, probes."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc

from e8jacobi.generators import p12_5_over_ab, p16_5
from e8jacobi.grading import AB, Poly, ab
from e8jacobi.oracle import (ComplexSample, EvalContext, NearSingularError,
                             PrecisionUnreachableError, bernoulli_number,
                             check_axioms, e_j, eisenstein, eta, eval_AB,
                             eval_ab, eval_certified, eval_poly,
                             orbit_character, probe_is_regular,
                             q_laurent_probe, theta, theta_E8, _theta_bound)

CTX = EvalContext()
TAU = mpc("0.13", "1.07")
Z0 = (0,) * 8


def _z_generic(seed=7):
    import random
    rng = random.Random(seed)
    return tuple(mpc(rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15))
                 for _ in range(8))


def _rel(a, b):
    with mp.workdps(CTX.work_digits):
        return float(abs(a - b) / max(1, abs(a), abs(b)))


def _absdiff(a, b):
    with mp.workdps(CTX.work_digits):
        return float(abs(a - b))


class TestSpecialFunctions:
    def test_theta3_q_to_zero_limit(self):
        # theta3(0, tau) - 1 = 2 q^{1/2} + O(q^2) with q = e^{2 pi i tau}
        with mp.workdps(CTX.work_digits):
            dev = abs(theta(3, 0, mpc(0, 20), CTX) - 1)
            assert dev < 1e-26
            assert abs(dev - 2 * mpmath.exp(-20 * mpmath.pi)) < 1e-40
            assert abs(theta(3, 0, mpc(0, 40), CTX) - 1) < 1e-30

    def test_theta1_odd_theta234_even(self):
        z = mpc("0.07", "0.02")
        for kind, parity in ((1, -1), (2, 1), (3, 1), (4, 1)):
            a = theta(kind, -z, TAU, CTX)
            b = theta(kind, z, TAU, CTX)
            with mp.workdps(CTX.work_digits):
                assert abs(a - parity * b) < 1e-55

    def test_derived_truncation_bound(self):
        n = _theta_bound(1.0, 0.0, 60)
        # tail of the theta sum beyond the bound is below the target
        with mp.workdps(80):
            tail = sum(mpmath.exp(-mpmath.pi * k * k)
                       for k in range(n + 1, 2 * n + 10))
            assert tail < mp.mpf(10) ** -60
        with pytest.raises(PrecisionUnreachableError):
            _theta_bound(1e-9, 0.0, 60)

    def test_bernoulli(self):
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert bernoulli_number(3) == 0

    def test_eisenstein_q1_coefficient(self):
        # E4 = 1 + 240 q + O(q^2): extract the q^1 coefficient at
        # Im tau = 3 where q ~ 6.5e-9
        tau = mpc(0, 3)
        with mp.workdps(60):
            q = mpmath.exp(-6 * mpmath.pi)
            c1 = (eisenstein(2, tau, CTX) - 1) / q
            assert abs(c1 - 240) < 1e-4

    def test_e_j_cancellation(self):
        with mp.workdps(CTX.work_digits):
            assert abs(e_j(1, TAU, CTX) + e_j(2, TAU, CTX)
                       + e_j(3, TAU, CTX)) < 1e-55

    def test_delta_identity(self):
        with mp.workdps(CTX.work_digits):
            e4 = eisenstein(2, TAU, CTX)
            e6 = eisenstein(3, TAU, CTX)
            assert _rel(eta(TAU, CTX) ** 24 * 1728, e4 ** 3 - e6 ** 2) < 1e-55

    @pytest.mark.parametrize("order", [(1, 2, 3, 4), (4, 3, 2, 1)])
    def test_theta_matches_jtheta(self, order):
        # the ranges eval_AB reaches: z scaled up to 6x (|Im z| to ~2.7)
        # and Im tau down to ~0.15; a fresh context per order, so each
        # order reads back from the cache the kinds its first one filled
        ctx = EvalContext()
        points = [(mpc("0.07", "0.02"), TAU),
                  (mpc("-0.9", "0.9"), mpc("0.3", "0.15")),
                  (mpc("1.1", "-2.7"), mpc("-0.25", "0.6")),
                  (mpc("0.4", "2.7"), mpc("0.05", "1.6")),
                  (mpc("-1.2", "-0.45"), mpc("-0.45", "0.15"))]
        for z, tau in points:
            for kind in order:
                value = theta(kind, z, tau, ctx)
                with mp.workdps(ctx.work_digits + 20):
                    ref = mpmath.jtheta(kind, mpmath.pi * z,
                                        mpmath.expjpi(tau))
                    err = abs(value - ref) / abs(ref)
                assert err < 1e-45, (kind, z, tau, err)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-2.7, 2.7)),
                    min_size=2, max_size=2),
           st.floats(-0.5, 0.5), st.floats(0.15, 3.0),
           st.permutations([1, 2, 3, 4]))
    def test_theta_matches_jtheta_anywhere(self, zs, re_tau, im_tau, order):
        # the regime where too few guard bits show: |Im z| up to 2.7 and
        # Im tau down to 0.15; both points share tau and one context, so
        # the second reuses or replaces the first one's Gauss table
        ctx = EvalContext()
        tau = mpc(re_tau, im_tau)
        for re_z, im_z in zs:
            z = mpc(re_z, im_z)
            for kind in order:
                value = theta(kind, z, tau, ctx)
                with mp.workdps(ctx.work_digits + 20):
                    ref = mpmath.jtheta(kind, mpmath.pi * z,
                                        mpmath.expjpi(tau))
                    # at a zero (theta1 at z = 0, theta2 at z = 1/2)
                    # only the absolute error is meaningful
                    err = abs(value - ref) / max(abs(ref), 1e-12)
                assert err < 1e-45, (kind, z, tau, err)


def theta_E8_lattice(sample, ctx, max_norm=8):
    """Direct lattice sum over all E8 vectors of norm <= max_norm, one
    exponential per vector: the reference for the product identity of
    `theta_E8`, accurate only when q^{max_norm/2} is negligible."""
    from e8jacobi.e8 import e8_vectors_of_norm
    with mp.workdps(ctx.work_digits):
        total = mp.mpc(0)
        for norm in range(0, max_norm + 1):
            for v in e8_vectors_of_norm(norm):
                # doubled coordinates: w = v/2, w^2 = norm
                zw2 = sum(zj * vj for zj, vj in zip(sample.z, v))
                total += mpmath.expjpi(sample.tau * norm + zw2)
        return total


class TestThetaE8:
    def test_product_vs_lattice(self):
        for z in (Z0, _z_generic()):
            s = ComplexSample(mpc(0, 3), z)
            assert _absdiff(theta_E8(s, CTX), theta_E8_lattice(s, CTX)) < 1e-30

    def test_reduces_to_e4(self):
        s = ComplexSample(TAU, Z0)
        assert _rel(theta_E8(s, CTX), eisenstein(2, TAU, CTX)) < 1e-55

    def test_index_one_quasi_periodicity(self):
        from e8jacobi.e8 import e8_vectors_of_norm
        alpha2 = e8_vectors_of_norm(2)[17]
        z = _z_generic()
        with mp.workdps(CTX.work_digits):
            shifted = tuple(zj + TAU * a / 2 for zj, a in zip(z, alpha2))
            za = sum(zj * a for zj, a in zip(z, alpha2))
            factor = mpmath.expjpi(-(TAU * 2 + za))
            lhs = theta_E8(ComplexSample(TAU, shifted), CTX)
            rhs = factor * theta_E8(ComplexSample(TAU, z), CTX)
            assert _rel(lhs, rhs) < 1e-45


class TestGenerators:
    def test_z_zero_reduction(self):
        import random
        rng = random.Random(9)
        for _ in range(2):
            tau = mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.8))
            s = ComplexSample(tau, Z0)
            e4 = eisenstein(2, tau, CTX)
            e6 = eisenstein(3, tau, CTX)
            for name in ("A1", "A2", "A3", "A4", "A5"):
                assert _rel(eval_AB(name, s, CTX), e4) < 1e-50, name
            for name in ("B2", "B3", "B4", "B6"):
                assert _rel(eval_AB(name, s, CTX), e6) < 1e-50, name

    def test_a2_index_two_quasi_periodicity(self):
        from e8jacobi.e8 import e8_vectors_of_norm
        alpha2 = e8_vectors_of_norm(2)[33]
        z = _z_generic(3)
        with mp.workdps(CTX.work_digits):
            shifted = tuple(zj + TAU * a / 2 for zj, a in zip(z, alpha2))
            za = sum(zj * a for zj, a in zip(z, alpha2))
            factor = mpmath.expjpi(-2 * (TAU * 2 + za))
            lhs = eval_AB("A2", ComplexSample(TAU, shifted), CTX)
            rhs = factor * eval_AB("A2", ComplexSample(TAU, z), CTX)
            assert _rel(lhs, rhs) < 1e-45

    def test_b1_at_z_zero(self):
        s = ComplexSample(TAU, Z0)
        assert _absdiff(eval_ab("b1", s, CTX), -4) < 1e-50

    def test_ab_to_AB_numeric_roundtrip(self):
        from e8jacobi.generators import holomorphic_images
        s = ComplexSample(TAU, _z_generic(5))
        for name, poly in holomorphic_images().items():
            assert _rel(eval_poly(poly, s, CTX),
                        eval_AB(name, s, CTX)) < 1e-45, name

    def test_p165_identity(self):
        s = ComplexSample(TAU, _z_generic(6))
        with mp.workdps(CTX.work_digits):
            lhs = eval_poly(p16_5(), s, CTX)
            rhs = eval_poly(p12_5_over_ab(), s, CTX) * eval_AB("E4", s, CTX)
            assert _rel(lhs, rhs) < 1e-40


def _e4_zero(ctx):
    with mp.workdps(ctx.work_digits):
        tau = mpmath.expjpi(mp.mpf(1) / 3)
        for _ in range(8):
            f = eisenstein(2, tau, ctx)
            h = mp.mpf(10) ** (5 - ctx.work_digits // 2)
            fp = (eisenstein(2, tau + h, ctx) - f) / h
            tau = tau - f / fp
        return tau


class TestSingularities:
    def test_near_singular_raises(self):
        tau = _e4_zero(CTX)
        s = ComplexSample(tau, _z_generic(4))
        with pytest.raises(NearSingularError):
            eval_ab("a2", s, CTX)

    def test_certified_evaluation_is_finite_at_e4_zero(self):
        from e8jacobi.construct import jacobi_basis
        basis = jacobi_basis(-26, 7)
        form, cert = basis.forms[0], basis.certificates[0]
        z = _z_generic(8)
        tau_star = _e4_zero(CTX)
        value = eval_certified(cert, ComplexSample(tau_star, z), CTX)
        assert mpmath.isfinite(value)
        # at a regular point the certificate and the direct evaluation agree
        s = ComplexSample(TAU, z)
        assert _rel(eval_poly(form, s, CTX),
                    eval_certified(cert, s, CTX)) < 1e-40


class TestOrbitCharacters:
    def test_at_zero(self):
        assert _absdiff(orbit_character(8, Z0, CTX), 240) < 1e-45
        assert _absdiff(orbit_character(1, Z0, CTX), 2160) < 1e-45

    def test_weyl_invariance(self):
        from e8jacobi.e8 import SIMPLE_ROOTS
        from e8jacobi.oracle import _reflect_complex
        z = _z_generic(2)
        w = orbit_character(7, z, CTX)
        with mp.workdps(CTX.work_digits):
            zr = _reflect_complex(z, SIMPLE_ROOTS[4])
        assert _rel(orbit_character(7, zr, CTX), w) < 1e-40

    @pytest.mark.parametrize("j", [1, 2, 7, 8])
    def test_matches_naive_sum(self, j):
        from e8jacobi.e8 import weyl_orbit
        z = _z_generic(21)
        value = orbit_character(j, z, CTX)
        with mp.workdps(CTX.work_digits):
            ref = mp.mpc(0)
            for v in weyl_orbit(j):
                ref += mpmath.expjpi(sum(vk * zk for vk, zk in zip(v, z)))
            assert abs(value - ref) / abs(ref) < 1e-45


class TestProbe:
    def test_b1_leading_coefficient(self):
        z = _z_generic(12)
        coeffs = q_laurent_probe(Poly.gen(ab, "b1"), z, CTX, radius=1 / 20000)
        assert _absdiff(coeffs[0], -4) < 1e-25
        assert probe_is_regular(coeffs)

    def test_b3_leading_coefficient_with_32_points(self):
        # the 16-point default aliases c_{+-16} r^{+-16} into c_0: at this
        # point b3's c_0 is off by 1.4e-25 with 16 points, ~1e-53 with 32
        import random
        rng = random.Random(5)
        z = tuple(mpc(rng.uniform(0.05, 0.2), rng.uniform(-0.1, 0.1))
                  for _ in range(8))
        coeffs = q_laurent_probe(Poly.gen(ab, "b3"), z, CTX,
                                 radius=1 / 20000, count=32)
        with mp.workdps(CTX.work_digits):
            w = {j: orbit_character(j, z, CTX) for j in (1, 2, 7, 8)}
            expected = (-w[2] / 6 - 4 * w[7] - 8 * w[1] + 528 * w[8]
                        - 79680)
            assert abs(coeffs[0] - expected) < 1e-40

    def test_delta_times_regular_starts_at_q(self):
        from e8jacobi.grading import delta_poly
        coeffs = q_laurent_probe(delta_poly(AB), _z_generic(13), CTX)
        assert abs(coeffs[0]) < 1e-12 * abs(coeffs[1])
        assert probe_is_regular(coeffs)


class TestAxioms:
    def test_a1_passes(self):
        rep = check_axioms(Poly.gen(AB, "A1"), 4, 1, 1, CTX, seed=5)
        assert rep.max_residual < 1e-25
        assert rep.regular

    def test_a3_is_meromorphic(self):
        rep = check_axioms(Poly.gen(ab, "a3"), -14, 3, 1, CTX, seed=6)
        assert rep.max_residual < 1e-25   # axioms (i)-(iii) hold
        assert not rep.regular            # but it has poles at E4 zeros
        assert not rep.passed(1e-25)
