"""Acceptance suite: the ten headline checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import functools
import time

from mpmath import mp, mpc

from e8jacobi.construct import (certify, Certificate, index_profile,
                                jacobi_basis, jacobi_dim, lb_analysis,
                                rank_series)
from e8jacobi.generators import (holomorphic_images, p12_5_over_ab, p16_5,
                                 sub_ab_to_AB)
from e8jacobi.grading import AB, Frac, Poly, ab
from e8jacobi.oracle import (EvalContext, check_axioms, orbit_character,
                             q_laurent_probe)

from helpers import (LB_GENERATOR_COUNTS, LOWEST_WEIGHT_DIMS, PROFILES,
                     build, frac_product, m16_5_pair, m26_7_generator,
                     spans_equal)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d FAIL: %s" % (number, title))
                raise
            print("criterion %2d PASS: %s" % (number, title))
        return wrapper
    return deco


@criterion(1, "basis of J_{-16,5} has dimension 2 and the expected span")
def test_criterion_01_basis_m16_5():
    basis = jacobi_basis(-16, 5)
    assert basis.dimension == 2
    assert spans_equal(basis.forms, m16_5_pair(), -16, 5)


@criterion(2, "J_{-26,7} is spanned by the exact nine-term generator")
def test_criterion_02_basis_m26_7():
    basis = jacobi_basis(-26, 7)
    assert basis.dimension == 1
    form = basis.forms[0]
    assert len(form.terms) == 9
    assert form == m26_7_generator()


@criterion(3, "generator-count polynomials P^w_m for m = 1..6")
def test_criterion_03_profiles():
    for m in range(1, 7):
        profile = index_profile(m)
        assert profile.d == PROFILES[m], m
        assert sum(profile.d.values()) == rank_series(m), m


@criterion(4, "no forms of even weight in -5m <= k < -4m for m = 2..8")
def test_criterion_04_vanishing_strip():
    for m in range(2, 9):
        for k in range(-5 * m, -4 * m):
            if k % 2 == 0:
                assert jacobi_dim(k, m) == 0, (k, m)


def test_vanishing_strip_m9_m10():
    # criterion 4's strip at the next two indices
    for m in (9, 10):
        for k in range(-5 * m, -4 * m):
            if k % 2 == 0:
                assert jacobi_dim(k, m) == 0, (k, m)


@criterion(5, "lowest-weight dimensions dim J_{-4m,m} for m = 0..10")
def test_criterion_05_lowest_weight_dims():
    assert [jacobi_dim(-4 * m, m) for m in range(0, 11)] == LOWEST_WEIGHT_DIMS


@criterion(6, "lowest-weight subalgebra: generators to index 10, no "
              "relations")
def test_criterion_06_lb_subalgebra():
    report = lb_analysis(10)
    assert [len(report.lb_gens[m]) for m in range(1, 11)] == \
        LB_GENERATOR_COUNTS
    assert all(v == 0 for v in report.relation_counts.values())


@criterion(7, "the weight-12 index-5 polynomial equals P_{16,5} / E4")
def test_criterion_07_p165_identity():
    p = p16_5()
    assert p.gen_exponent_range("E4") == (0, 0)
    assert sub_ab_to_AB(p12_5_over_ab()) == Frac(p, 1, 0)


@criterion(8, "generator substitution round-trips and is a ring "
              "homomorphism")
def test_criterion_08_substitution():
    import random
    hol = holomorphic_images()
    for name in AB.symbols:
        image = hol[name] if name in hol else Poly.gen(ab, name)
        assert sub_ab_to_AB(image) == \
            Frac(Poly.gen(AB, name), 0, 0), name
    rng = random.Random(2024)
    pool = [
        build(ab, [(1, {"b1": 1})]),
        build(ab, [(1, {"a2": 1})]),
        build(ab, [(1, {"E4": 1, "b2": 1})]),
        build(ab, [(1, {"E6": 1, "b1": 2})]),
        build(ab, [(1, {"a3": 1, "b1": 1})]),
        build(ab, [(1, {"b2": 2})]),
    ]
    for _ in range(20):
        p = rng.choice(pool).scale(rng.randint(1, 9))
        q = rng.choice(pool).scale(rng.randint(1, 9))
        assert sub_ab_to_AB(p * q) == \
            frac_product(sub_ab_to_AB(p), sub_ab_to_AB(q))


@criterion(9, "numeric oracle: modular axioms, regularity and leading "
              "q-coefficients")
def test_criterion_09_numeric_oracle():
    start = time.monotonic()
    ctx = EvalContext()
    checks = [(Poly.gen(AB, "A1"), 4, 1)]
    checks += [(f, -16, 5) for f in jacobi_basis(-16, 5).forms]
    for i, (form, k, m) in enumerate(checks):
        rep = check_axioms(form, k, m, 3, ctx, seed=100 + i)
        assert rep.max_residual < 1e-25, (k, m, rep.max_residual)
        assert rep.regular, (k, m)

    # leading q-coefficients of the meromorphic generators against the
    # Weyl-orbit character formulas, at a radius safely inside the
    # convergence disc
    import random
    rng = random.Random(77)
    z = tuple(mpc(rng.uniform(0.05, 0.2), rng.uniform(-0.1, 0.1))
              for _ in range(8))
    with mp.workdps(ctx.work_digits):
        w1 = orbit_character(1, z, ctx)
        w2 = orbit_character(2, z, ctx)
        w7 = orbit_character(7, z, ctx)
        w8 = orbit_character(8, z, ctx)
        expected = {
            "a2": -mp.mpf(2) / 3 * w1 + 12 * w8 - 1440,
            "b1": mpc(-4),
            "b2": -w1 / 18 - 3 * w8 + 840,
            "b3": -w2 / 6 - 4 * w7 - 8 * w1 + 528 * w8 - 79680,
        }
        for name, value in expected.items():
            coeffs = q_laurent_probe(Poly.gen(ab, name), z, ctx,
                                     radius=1 / 20000)
            assert abs(coeffs[0] - value) < 1e-25, name
    elapsed = time.monotonic() - start
    assert elapsed < 300, "oracle run exceeded five minutes"


@criterion(10, "all emitted forms certify; meromorphic generators are "
               "rejected")
def test_criterion_10_certification():
    forms = list(jacobi_basis(-16, 5).forms)
    forms += jacobi_basis(-26, 7).forms
    for m in range(1, 4):
        for k in index_profile(m).d:
            forms += jacobi_basis(k, m).forms
    for form in forms:
        assert isinstance(certify(form), Certificate)
    from e8jacobi.construct import Rejection
    assert isinstance(certify(Poly.gen(ab, "a3")), Rejection)
