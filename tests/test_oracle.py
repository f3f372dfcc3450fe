"""Numeric oracle: special functions, generators, axioms, probes."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from e8jacobi.ansatz import enumerate_monomials
from e8jacobi.construct import (Rejection, certify, jacobi_basis,
                                profile_weights)
from e8jacobi.generators import meromorphic_images, p16_5
from e8jacobi.grading import AB, BiDegree, Poly, ab
from e8jacobi.oracle import (ComplexSample, EvalContext, NearSingularError,
                             PrecisionUnreachableError, check_axioms,
                             delta_value, e_j, eisenstein, eval_AB, eval_ab,
                             eval_poly, modular_forms, orbit_character,
                             probe_is_regular, q_laurent_probe, theta,
                             theta_E8, _LADDER_CACHE_SIZE, _gauss_powers,
                             _ladder, _raw, _scaled, _theta_bound,
                             _theta_fixed, _theta_guard_bits)

from helpers import (orbit_character_loop, p12_5_over_ab,
                     q_laurent_probe_loop, theta_fixed_loop, weyl_orbit)

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
        # E4, E6 and Delta are one entry per exact tau; 1728 Delta =
        # E4^3 - E6^2 holds for their theta expressions by Jacobi's
        # identity t3 = t2 + t4
        ctx = EvalContext()
        e4, e6, delta = modular_forms(TAU, ctx)
        assert list(ctx._gen_cache) == [("modular", TAU._mpc_)]
        assert (eisenstein(2, TAU, ctx), eisenstein(3, TAU, ctx),
                delta_value(TAU, ctx)) == (e4, e6, delta)
        assert len(ctx._gen_cache) == 1
        assert _rel(delta * 1728, e4 ** 3 - e6 ** 2) < 1e-55

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
        # Im tau down to 0.15; both points share tau and one context
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


# B_4 and B_6, the Bernoulli numbers of E4 and E6
BERNOULLI = {4: Fraction(-1, 30), 6: Fraction(1, 42)}


def eisenstein_loop(n, tau, ctx):
    """E_{2n}(tau) = 1 - (4n/B_{2n}) sum_k k^{2n-1} q^k/(1-q^k) in mpc
    arithmetic, one division per term, summed until the terms and q^k
    fall below 10^-(work digits + 5): the reference for the theta
    expressions of `eisenstein`."""
    with mp.workdps(ctx.work_digits):
        q = mpmath.expjpi(2 * mpmath.mpc(tau))
        absq = abs(q)
        eps = mp.mpf(10) ** (-ctx.work_digits - 5)
        b = BERNOULLI[2 * n]
        factor = mp.mpf(-4 * n * b.denominator) / b.numerator
        total = mp.mpc(0)
        qk = mp.mpc(1)
        k = 0
        while True:
            k += 1
            qk *= q
            term = (k ** (2 * n - 1)) * qk / (1 - qk)
            total += term
            if abs(term) < eps and absq ** k < eps:
                return 1 + factor * total


class TestEisenstein:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("precision", [30, 50, 80])
    def test_matches_mpc_loop(self, n, precision):
        # Im tau from 0.3 covers the S-transformed samples of check_axioms
        # (Im(-1/tau) >= 0.33); the reference runs 20 digits finer
        import random
        rng = random.Random(100 * n + precision)
        ref_ctx = EvalContext(precision + 20)
        ctx = EvalContext(precision)
        for _ in range(12):
            tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3))
            value = eisenstein(n, tau, ctx)
            ref = eisenstein_loop(n, tau, ref_ctx)
            with mp.workdps(ref_ctx.work_digits):
                err = abs(value - ref) / abs(ref)
            assert err <= mp.mpf(10) ** -(precision + 5), (n, tau, err)
            assert eisenstein(n, tau, ctx) is value

    def test_lower_half_plane_raises(self):
        for tau in (mpc("0.2", 0), mpc("0.2", "-0.5"), 1):
            with pytest.raises(PrecisionUnreachableError):
                eisenstein(2, tau, EvalContext())

    def test_other_weights_raise(self):
        for n in (1, 4):
            with pytest.raises(ValueError):
                eisenstein(n, TAU, EvalContext())

    @pytest.mark.parametrize("precision", [30, 50, 80])
    def test_delta_matches_qp_eta(self, precision):
        # the same tau range as the Eisenstein series; the reference is
        # mpmath's q-Pochhammer product 20 digits finer
        import random
        rng = random.Random(precision)
        ref_ctx = EvalContext(precision + 20)
        ctx = EvalContext(precision)
        for _ in range(12):
            tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3))
            value = delta_value(tau, ctx)
            ref = eta24_qp(tau, ref_ctx)
            with mp.workdps(ref_ctx.work_digits):
                err = abs(value - ref) / abs(ref)
            assert err <= mp.mpf(10) ** -(precision + 5), (tau, err)
            assert delta_value(tau, ctx) is value


def eta24_qp(tau, ctx):
    """eta(tau)^24 = (q^{1/24} prod_{n >= 1} (1 - q^n))^24 by mpmath's
    q-Pochhammer symbol `qp`: the reference for `delta_value`."""
    with mp.workdps(ctx.work_digits):
        tau = mpmath.mpc(tau)
        eta = mpmath.expjpi(tau / 12) * mpmath.qp(mpmath.expjpi(2 * tau))
        return eta ** 24


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

    @pytest.mark.parametrize("precision", [30, 50, 80])
    def test_matches_per_coordinate_product(self, precision):
        # the arguments the generators reach: Im tau from tau/6 of B6 to
        # the 6 tau of the probe, z scaled by 1..6 with |Im z| up to 0.9;
        # the reference multiplies theta values of a context 20 digits
        # finer, one coordinate at a time
        import random
        rng = random.Random(precision)
        ref_ctx = EvalContext(precision + 20)
        for _ in range(12):
            ctx = EvalContext(precision)
            tau = mpc(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-0.82, 1))
            scale = rng.choice([1, 2, 3, 4, 6])
            z = tuple(scale * mpc(rng.uniform(-0.2, 0.2),
                                  rng.uniform(-0.9, 0.9) / scale)
                      for _ in range(8))
            sample = ComplexSample(tau, z)
            value = theta_E8(sample, ctx)
            with mp.workdps(ref_ctx.work_digits):
                ref = sum(mpmath.fprod(theta(k, zj, tau, ref_ctx) for zj in z)
                          for k in range(1, 5)) / 2
                err = abs(value - ref) / abs(ref)
            assert err <= mp.mpf(10) ** -(precision + 5), (tau, scale, err)
            # one cached value per sample, and no per-coordinate entries
            assert theta_E8(sample, ctx) is value
            assert not ctx._theta_cache

    def test_coordinates_first_summed_at_more_bits(self):
        # Im tau = 0.2 needs more bits than Im tau = 1.3, so the second
        # sample sums on the ladders the first one built, at their bits
        z = tuple(3 * zj for zj in _z_generic(11))
        first = ComplexSample(mpc("0.1", "0.2"), z)
        sample = ComplexSample(mpc("-0.3", "1.3"), z)
        for precision in (30, 50, 80):
            ctx, fresh = EvalContext(precision), EvalContext(precision)
            theta_E8(first, ctx)
            ladders = dict(ctx._half_cache)
            builds = ctx.ladder_builds
            value = theta_E8(sample, ctx)
            ref = theta_E8(sample, fresh)
            assert ctx.ladder_builds == builds
            assert ctx._half_cache == ladders    # the same ladder objects
            assert all(ladder.wp < ladders[zj].wp
                       for zj, ladder in fresh._half_cache.items())
            with mp.workdps(ctx.work_digits):
                err = abs(value - ref) / abs(ref)
            assert err <= mp.mpf(10) ** -(precision + 5), (precision, err)

    def test_one_coordinate_entry_per_distinct_coordinate(self):
        # one ladder per exact coordinate, at most _LADDER_CACHE_SIZE of
        # them: the coordinates used last, in order of use
        (form, _) = jacobi_basis(-16, 5).forms
        ctx = EvalContext()
        check_axioms(form, -16, 5, 1, ctx, seed=3)
        samples = [key for key in ctx._gen_cache if key[0] == "theta_E8"]
        coords = {zj for key in samples for zj in key[2]}
        coords |= {z for z, _ in ctx._theta_cache}
        assert len(coords) > _LADDER_CACHE_SIZE
        assert len(ctx._half_cache) == _LADDER_CACHE_SIZE
        assert set(ctx._half_cache) <= coords
        kept = list(ctx._half_cache)
        z = _z_generic(31)
        theta_E8(ComplexSample(TAU, z), ctx)
        assert list(ctx._half_cache) == kept[8:] + [_raw(zj) for zj in z]
        theta(1, mp.make_mpc(kept[8]), TAU, ctx)
        assert list(ctx._half_cache)[-1] == kept[8]
        ctx = EvalContext()
        theta_E8(ComplexSample(TAU, _z_generic()), ctx)
        assert not ctx._theta_cache
        assert len(ctx._half_cache) == 8

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


def _kernel_table(z, tau, ctx):
    """N and wp of the kernel call of `theta` at (z, tau): the bits it
    asks for, rounded up to a multiple of 32 as `_theta_fixed` does."""
    im_tau, im_z = float(tau.imag), abs(float(z.imag))
    n_max = _theta_bound(im_tau, im_z, ctx.work_digits)
    with mp.workdps(ctx.work_digits):
        wp = mp.prec + _theta_guard_bits(im_tau, im_z, n_max)
    return n_max, wp + -wp % 32


def _assert_kernel_matches_loop(z, tau, wp, n, ctx):
    """The kernel at (z, tau, wp, N = n) equals the term-by-term loop on
    the step pairs of the coordinate's ladder, bit for bit."""
    got_wp, (pairs,) = _theta_fixed((_raw(z),), tau, wp, n, ctx)
    ladder = ctx._half_cache[_raw(z)]
    assert got_wp == ladder.wp == wp
    half = (ladder.steps[:2], ladder.steps[2:])
    assert pairs == theta_fixed_loop(half, tau, wp, n)


class TestThetaKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-2.7, 2.7), st.floats(-0.5, 0.5),
           st.floats(0.15, 3.0), st.sampled_from([30, 50, 80]))
    def test_matches_loop_bit_for_bit(self, re_z, im_z, re_tau, im_tau,
                                      precision):
        # with the ladder at the call's wp the dot products are the
        # loop's exact sums regrouped; the first call at half the terms
        # makes the second extend the ladder
        ctx = EvalContext(precision)
        z, tau = mpc(re_z, im_z), mpc(re_tau, im_tau)
        n_max, wp = _kernel_table(z, tau, ctx)
        for n in (max(1, n_max // 2), n_max):
            _assert_kernel_matches_loop(z, tau, wp, n, ctx)
        assert ctx.ladder_builds == 1

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-2.7, 2.7), st.floats(-0.5, 0.5),
           st.floats(0.15, 3.0), st.sampled_from([30, 50, 80]),
           st.permutations([0, 1, 2, 3]),
           st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_extended_ladder_matches_loop(self, re_z, im_z, re_tau, im_tau,
                                          precision, residues, gaps):
        # one ladder extended in four steps whose ends h fall on each
        # residue mod 4: after each step the kernel at the largest 2N + 1
        # <= h reads the class lists the steps appended to
        ctx = EvalContext(precision)
        z, tau = mpc(re_z, im_z), mpc(re_tau, im_tau)
        _, wp = _kernel_table(z, tau, ctx)
        end = 2
        for r, gap in zip(residues, gaps):
            end += 1 + (r - end - 1) % 4 + 4 * gap
            assert end % 4 == r
            assert _ladder(_raw(z), wp, end, ctx).size == end + 1
            _assert_kernel_matches_loop(z, tau, wp, (end - 1) // 2, ctx)
        # and the kernel steps past the last end itself
        _assert_kernel_matches_loop(z, tau, wp, end // 2 + 1, ctx)
        assert ctx.ladder_builds == 1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-2.7, 2.7), st.floats(-0.5, 0.5),
           st.floats(0.15, 3.0), st.integers(1, 256))
    def test_ladder_at_more_bits(self, re_z, im_z, re_tau, im_tau, extra):
        # a ladder stepped for a call at more bits serves a call at
        # fewer: the values stay within the 1e-45 of the jtheta tests
        ctx = EvalContext()
        z, tau = mpc(re_z, im_z), mpc(re_tau, im_tau)
        n_max, wp = _kernel_table(z, tau, ctx)
        more, _ = _theta_fixed((_raw(z),), tau, wp + extra, n_max, ctx)
        got_wp, (pairs,) = _theta_fixed((_raw(z),), tau, wp, n_max, ctx)
        assert got_wp == wp < more == ctx._half_cache[_raw(z)].wp
        assert ctx.ladder_builds == 1
        for kind, (re, im) in enumerate(pairs, 1):
            with mp.workdps(ctx.work_digits + 20):
                value = mpc(mp.mpf(re) / 2 ** wp, mp.mpf(im) / 2 ** wp)
                ref = mpmath.jtheta(kind, mpmath.pi * z, mpmath.expjpi(tau))
                err = abs(value - ref) / max(abs(ref), 1e-12)
            assert err < 1e-45, (kind, z, tau, err)

    def test_counters(self):
        # one check_axioms: the ladders are stepped far fewer times than
        # the kernel sums a coordinate
        (form, _) = jacobi_basis(-16, 5).forms
        ctx = EvalContext()
        check_axioms(form, -16, 5, 1, ctx, seed=3)
        samples = sum(key[0] == "theta_E8" for key in ctx._gen_cache)
        assert ctx.theta_kernel_calls == len(ctx._theta_cache) + 8 * samples
        assert ctx.ladder_builds * 10 < ctx.theta_kernel_calls
        assert ctx.theta_terms >= 3 * ctx.theta_kernel_calls

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-2.7, 2.7), st.floats(-0.5, 0.5),
           st.floats(0.15, 3.0), st.sampled_from([30, 50, 80]))
    def test_gauss_powers_within_h_squared_units(self, re_z, im_z, re_tau,
                                                 im_tau, precision):
        # the error bound `_theta_guard_bits` charges: each of the h
        # steps to g_h multiplies by a u^{2k+1} that carries up to k
        # units of 2^-wp, so g_h is within h^2 units of e^{pi i tau h^2/4}
        z, tau = mpc(re_z, im_z), mpc(re_tau, im_tau)
        n_max, wp = _kernel_table(z, tau, EvalContext(precision))
        re, im = _gauss_powers(tau, wp, 2 * n_max + 1)
        assert len(re) == len(im) == 2 * n_max + 2
        with mp.workprec(wp + 40):
            for h, (gr, gi) in enumerate(zip(re, im)):
                ref = mpmath.expjpi(tau * h * h / 4)
                units = abs(mpc(gr, gi) - ref * 2 ** wp)
                assert units <= 2 * max(1, h * h), (h, units)


class TestCacheKeys:
    def test_points_apart_below_working_precision(self):
        # the two tau agree to 300 bits, beyond the ~200 bits of the
        # working precision, and still get one entry each
        ctx = EvalContext()
        with mp.workprec(400):
            tau = mpc("0.13", "1.07")
            taus = (tau, tau + mpc(0, mp.mpf(2) ** -300))
        z = _z_generic()
        for count, t in enumerate(taus, 1):
            sample = ComplexSample(t, z)
            eval_AB("E4", sample, ctx)
            eval_ab("b1", sample, ctx)
            theta_E8(sample, ctx)
            names = [key[0] for key in ctx._gen_cache]
            for name in ("modular", "b1", "theta_E8"):
                assert names.count(name) == count, (name, count)
            assert "E4" not in names

    def test_complex_and_equal_mpc_share_an_entry(self):
        ctx = EvalContext()
        z = _z_generic()
        value = eval_AB("A1", ComplexSample(TAU, z), ctx)
        size = len(ctx._gen_cache)
        same = ComplexSample(complex(TAU), tuple(complex(zj) for zj in z))
        assert eval_AB("A1", same, ctx) is value
        assert len(ctx._gen_cache) == size
        assert ComplexSample(TAU, Z0).key == ComplexSample(TAU, (0j,) * 8).key

    def test_one_delta_entry_per_distinct_tau(self):
        # E4, E6 and Delta are one entry per exact tau, at the working
        # precision, and every meromorphic evaluation reads that entry
        (form, _) = jacobi_basis(-16, 5).forms
        ctx = EvalContext()
        check_axioms(form, -16, 5, 1, ctx, seed=3)
        taus = {key[1] for key in ctx._gen_cache if key[0] == "modular"}
        mero = {key[1] for key in ctx._gen_cache
                if key[0] in ("a2", "a3", "a4", "b1", "b2", "b3", "b4",
                              "b5", "b6")}
        assert taus == mero
        # a first evaluation at the caller's lower precision still caches
        # the values at the working precision
        fresh = EvalContext()
        eval_ab("a2", ComplexSample(TAU, _z_generic()), fresh)
        for c, raw in [(ctx, raw) for raw in taus] + [(fresh, TAU._mpc_)]:
            bound = mp.mpf(10) ** -(c.precision + 5)
            tau = mp.make_mpc(raw)
            e4, _, delta = c._gen_cache[("modular", raw)]
            ref_e4, ref_delta = eisenstein_loop(2, tau, c), eta24_qp(tau, c)
            with mp.workdps(c.work_digits):
                assert abs(e4 - ref_e4) / abs(ref_e4) <= bound
                assert abs(delta - ref_delta) / abs(ref_delta) <= bound

    def test_scaled_coordinates_are_the_products_built_once(self):
        # m z is the product at the working precision, as multiplying the
        # mpc coordinates gives it, built once per (z, m); at m = 1 it
        # keeps the coordinates' own pairs unless rounding moves them.
        # The 2^-185 only the working precision (~200 bits) keeps.
        ctx = EvalContext()
        z = _z_generic()
        with mp.workprec(400):
            fine = tuple(zj + mpc(0, mp.mpf(2) ** -185 + mp.mpf(2) ** -300)
                         for zj in z)
        sample = ComplexSample(TAU, z)
        with mp.workdps(ctx.work_digits):
            for zs in (z, fine):
                for m in (1, 2, 3, 4, 6):
                    got = _scaled(ComplexSample(TAU, zs), TAU, m, ctx)
                    assert got.key == ComplexSample(
                        TAU, tuple(m * zj for zj in zs)).key
                    again = _scaled(ComplexSample(TAU + 1, zs), TAU, m, ctx)
                    assert all(a is b for a, b in zip(got.key[1],
                                                      again.key[1]))
        assert len(ctx._scaled_z) == 10
        assert all(a is b for a, b in
                   zip(_scaled(sample, TAU, 1, ctx).key[1], sample.key[1]))
        assert _scaled(ComplexSample(TAU, fine), TAU, 1, ctx).key[1] \
            != ComplexSample(TAU, fine).key[1]

    def test_theta_e8_keys_share_the_coordinate_pairs(self):
        # every E8 theta entry of one coordinate tuple holds the same
        # eight `_mpc_` pairs, whichever generator or tau it came from
        (form, _) = jacobi_basis(-16, 5).forms
        ctx = EvalContext()
        check_axioms(form, -16, 5, 1, ctx, seed=3)
        coords = [key[2] for key in ctx._gen_cache if key[0] == "theta_E8"]
        pairs = {id(pair) for zs in coords for pair in zs}
        assert len(coords) > 8 * len(set(coords))
        assert len(pairs) <= 8 * len(set(coords))


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
        z = _z_generic(21)
        value = orbit_character(j, z, CTX)
        with mp.workdps(CTX.work_digits):
            ref = mp.mpc(0)
            for v in weyl_orbit(j):
                ref += mpmath.expjpi(sum(vk * zk for vk, zk in zip(v, z)))
            assert abs(value - ref) / abs(ref) < 1e-45

    def test_matches_prefix_product_loop(self):
        # j = 6: 60,480 vectors in 5 W(D8)-orbits, at |Im z| up to 0.45
        z = tuple(3 * zj for zj in _z_generic(22))
        value = orbit_character(6, z, CTX)
        ref = orbit_character_loop(6, z, CTX)
        with mp.workdps(CTX.work_digits):
            assert abs(value - ref) / abs(ref) < 1e-45

    # |W(E8)| / |W_j|: the orbit sizes, orbit_character(j, 0)
    ORBIT_SIZES = {1: 2160, 2: 17280, 3: 69120, 4: 483840, 5: 241920,
                   6: 60480, 7: 6720, 8: 240}

    @pytest.mark.parametrize("j", range(1, 9))
    def test_every_fundamental_weight(self, j):
        # every j: the orbit size at z = 0, and invariance under every
        # simple reflection at a generic z
        from e8jacobi.e8 import SIMPLE_ROOTS
        from e8jacobi.oracle import _reflect_complex
        assert _absdiff(orbit_character(j, Z0, CTX),
                        self.ORBIT_SIZES[j]) < 1e-45
        z = _z_generic(40 + j)
        w = orbit_character(j, z, CTX)
        for alpha in SIMPLE_ROOTS:
            with mp.workdps(CTX.work_digits):
                zr = _reflect_complex(z, alpha)
            assert _rel(orbit_character(j, zr, CTX), w) < 1e-45, alpha

    @pytest.mark.parametrize("length", [7, 9])
    def test_z_of_wrong_length_raises(self, length):
        z = _z_generic(24) + _z_generic(25)
        with pytest.raises(ValueError, match="z must have 8 components"):
            orbit_character(8, z[:length], CTX)


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

    @pytest.mark.parametrize("count", [16, 32])
    def test_roots_once_match_the_loop(self, count):
        form = Poly.gen(ab, "b1")
        z = _z_generic(12)
        for radius in (1 / 200, 1 / 20000):
            coeffs = q_laurent_probe(form, z, CTX, radius, count)
            loop = q_laurent_probe_loop(form, z, CTX, radius, count)
            assert {t: c._mpc_ for t, c in coeffs.items()} == \
                {t: c._mpc_ for t, c in loop.items()}

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

    def test_index_9_form_passes(self):
        # J_{-36,9} is one-dimensional; the acceptance suite checks no
        # form of index above 5 numerically
        (form,) = jacobi_basis(-36, 9).forms
        rep = check_axioms(form, -36, 9, 1, CTX, seed=0)
        assert rep.max_residual < 1e-25
        assert rep.regular

    def test_index_10_form_passes(self):
        # the first form of J_{-40,10}, at the highest index of the
        # golden bases, in a context of its own
        form = jacobi_basis(-40, 10).forms[0]
        rep = check_axioms(form, -40, 10, 1, EvalContext(), seed=0)
        assert rep.max_residual < 1e-25
        assert rep.regular


class TestPoleAtRho:
    """The paper's criterion, numerically and both ways: a polynomial
    over ab has a pole along E4 = 0, at tau = rho = e^{2 pi i/3},
    exactly when `certify` rejects it.  |f(rho + i delta, z)| at one
    seeded z, for delta = 1e-3, 1e-6 and 1e-9 (`eval_frac` refuses
    |E4| < 1e-12, so no smaller), grows by at least 100 at each step
    at a pole and by at most 1.1 where f is regular.  The terms of a
    polynomial whose monomial images carry E4^p grow like delta^-p and
    cancel, so the context keeps more than 9p digits besides its
    guard."""

    @staticmethod
    def poles(forms, precision):
        """Whether each form has a pole at rho, at `precision` digits;
        asserts that it grows as a pole or as a regular form does and
        that `certify` rejects exactly the forms with a pole."""
        ctx = EvalContext(precision=precision)
        with mp.workdps(ctx.work_digits):
            samples = [ComplexSample(mpc(-0.5, mpmath.sqrt(3) / 2
                                         + mpf(10) ** -e), _z_generic())
                       for e in (3, 6, 9)]
        poles = []
        for f in forms:
            with mp.workdps(ctx.work_digits):
                a, b, c = (abs(eval_poly(f, s, ctx)) for s in samples)
                steps = b / a, c / b
            pole = min(steps) >= 100
            assert pole or max(steps) <= 1.1, f
            assert pole == isinstance(certify(f), Rejection), f
            poles.append(pole)
        return poles

    def test_index_6_agrees_with_certify(self):
        e4_pow = {name: f.e4_pow for name, f in meromorphic_images().items()}
        forms = []
        for m in range(1, 7):
            for k in profile_weights(m):
                forms += [Poly(ab, {mon: 1}) for mon
                          in enumerate_monomials(ab, BiDegree(k, m))]
                forms += jacobi_basis(k, m).forms
        p = max(sum(e * e4_pow[s] for s, e in zip(ab.symbols, mon))
                for f in forms for mon in f.terms)
        # 642 monomials, 561 of them rejected, and 391 basis forms
        assert (len(forms), sum(self.poles(forms, 9 * p + 1))) == \
            (642 + 391, 561)

    @pytest.mark.parametrize("k, m, dim", [(-40, 10, 4), (-48, 12, 8)])
    def test_lowest_weight_forms_and_a_raised_coefficient(self, k, m, dim):
        """Each form of the lowest weight of index 10 and 12 is regular,
        and has a pole with its first coefficient raised by 1.  At the
        default 50 digits the forms of J_{-48,12} grow up to 1e51 a
        step; at 120 the regular read at most 1.0 and the raised at
        least 9.8e14."""
        forms = jacobi_basis(k, m).forms
        raised = [f + Poly(ab, {max(f.terms): 1}) for f in forms]
        assert self.poles(forms + raised, 120) == [False] * dim + [True] * dim
