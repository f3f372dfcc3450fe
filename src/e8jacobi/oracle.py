"""Numeric verification oracle for E8 Jacobi forms.

Everything here is arbitrary-precision complex arithmetic (mpmath),
fully independent of the symbolic construction.  The two inner sums,
theta functions and Weyl-orbit characters, run in fixed point, as
mpmath's own `_jacobi_theta2` does: every quantity is a pair (re, im) of
Python ints scaled by 2^wp, products are shifted right by wp, and each
result is rounded to an mpc at the working precision once.  wp is the
working precision plus guard bits for the largest factor |y^n| a term
can carry and for the rounding steps, so the absolute error of a result
stays a few units of 2^-prec.

Theta functions are summed with a derived truncation bound: the
q^{a^2/2} factors come from one table per tau, shared by the theta
calls at that tau, the powers of y are stepped by multiplication, and
one pass gives all four kinds.  The holomorphic generators A_m and B_m
are built from theta functions, and the meromorphic generators divide
by numerically evaluated E4 and Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from . import e8
from .generators import meromorphic_images, p16_5
from .grading import AB, Frac, Poly, S_ALPHABET, ab


class OracleError(RuntimeError):
    pass


class NearSingularError(OracleError):
    """Evaluation point too close to a zero of E4 or Delta."""


class PrecisionUnreachableError(OracleError):
    """The truncation bound cannot meet the precision for this argument."""


_THETA_TERM_CAP = 200_000
_GUARD_DIGITS = 10              # decimal digits beyond the precision
_SINGULAR_THRESHOLD = 1e-12     # |E4| or |Delta| below this: near a pole


@dataclass
class EvalContext:
    """Numeric evaluation context: the working precision in decimal
    digits, its only setting (evaluations run at `work_digits`, that plus
    a fixed guard), and the caches of theta values, generator values and
    the Gauss table of the last tau."""

    precision: int = 50
    _theta_cache: Dict[tuple, Tuple[mpmath.mpc, ...]] = field(
        default_factory=dict, repr=False)
    _gen_cache: Dict[tuple, mpmath.mpc] = field(default_factory=dict,
                                                repr=False)
    _gauss_table: Optional["_GaussTable"] = field(default=None, init=False,
                                                  repr=False)

    @property
    def work_digits(self) -> int:
        return self.precision + _GUARD_DIGITS


@dataclass(frozen=True)
class ComplexSample:
    tau: complex
    z: Tuple[complex, ...]

    def __post_init__(self):
        if mpmath.im(self.tau) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if len(self.z) != 8:
            raise ValueError("z must have 8 components")


def _theta_bound(im_tau: float, im_z: float, digits: int) -> int:
    """Smallest N with |y^n q^{n^2/2}| summable below 10^-digits for
    |n| > N: solve pi*im_tau*n^2 - 2*pi*|im_z|*n >= (digits+3)*ln(10).

    Machine floats suffice: the solution only needs rounding up."""
    if im_tau <= 0:
        raise PrecisionUnreachableError("Im tau must be positive")
    L = (digits + 3) * math.log(10)
    a = math.pi * im_tau
    b = 2 * math.pi * abs(im_z)
    n_real = (b + math.sqrt(b * b + 4 * a * L)) / (2 * a)
    if n_real > _THETA_TERM_CAP - 2:
        raise PrecisionUnreachableError(
            "theta truncation bound %.0f exceeds cap for Im tau = %g"
            % (n_real + 2, im_tau))
    return math.ceil(n_real) + 2


def _to_fixed(x: mpmath.mpc, wp: int) -> Tuple[int, int]:
    """(re, im) of x as integers scaled by 2^wp (truncated)."""
    return x.real.to_fixed(wp), x.imag.to_fixed(wp)


def _from_fixed(re: int, im: int, wp: int) -> mpmath.mpc:
    """(re + i im) 2^-wp, rounded to the current working precision."""
    prec = mp.prec
    return mp.make_mpc((from_man_exp(re, -wp, prec, round_nearest),
                        from_man_exp(im, -wp, prec, round_nearest)))


def _theta_guard_bits(im_tau: float, im_z: float, n_max: int) -> int:
    """Bits beyond the working precision for the fixed-point theta sum.

    Every fixed-point quantity carries an absolute error in units of
    2^-wp: y^{+-h/2} after h rounded steps up to h units (times its own
    size), and g_h up to h^2 units, because each of its h steps
    multiplies by a factor u^{2k+1} that carries up to k units.  The
    error of g_h is multiplied by |y^{+-h/2}|, at most
    e^{pi |Im z| (2N+1)} for h <= 2N+1, and the h^2 units cost
    2 bitlen(2N+2) bits.  theta1 and theta2 are of size |q^{1/8}| =
    e^{-pi Im tau / 4}, which the relative precision must also cover.
    """
    nats = math.pi * (abs(im_z) * (2 * n_max + 1) + im_tau / 4)
    return (math.ceil(nats / math.log(2))
            + 2 * (2 * n_max + 2).bit_length() + 8)


class _GaussTable:
    """g_h = e^{pi i tau h^2 / 4} = q^{a^2/2} at a = h/2, for one tau, as
    fixed-point pairs (re, im) scaled by 2^wp.

    Built by integer multiplication from one exponential, g_{h+1} =
    g_h u^{2h+1} with u = e^{pi i tau / 4}, and extended on demand.  All
    factors have modulus <= 1, so each step adds at most a few units of
    2^-wp to the absolute error.  `_theta_values` replaces the table by
    one at a larger wp when a call needs more bits, and uses the
    table's wp when it has more.
    """

    def __init__(self, tau, wp: int):
        self.tau = tau
        self.wp = wp
        self.values = [(1 << wp, 0)]
        with mp.workprec(wp + 10):
            u = mpmath.expjpi(tau / 4)
            self._step = _to_fixed(u, wp)         # u^{2h+1} at h = 0
            self._u2 = _to_fixed(u * u, wp)

    def upto(self, h_max: int) -> List[Tuple[int, int]]:
        values = self.values
        wp = self.wp
        sr, si = self._step
        ur, ui = self._u2
        while len(values) <= h_max:
            gr, gi = values[-1]
            values.append(((gr * sr - gi * si) >> wp,
                           (gr * si + gi * sr) >> wp))
            sr, si = (sr * ur - si * ui) >> wp, (sr * ui + si * ur) >> wp
        self._step = (sr, si)
        return values


def theta(kind: int, z, tau, ctx: EvalContext) -> mpmath.mpc:
    """Jacobi theta functions; y = e^{2 pi i z}, q = e^{2 pi i tau}:
    theta3 = sum_n y^n q^{n^2/2} and its three companions.

    One evaluation gives all four kinds at (z, tau) and stores them as
    one cache entry, keyed by the raw mpmath values of z and tau.
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError("theta kind must be 1..4")
    z = mpmath.mpc(z)
    tau = mpmath.mpc(tau)
    key = (z._mpc_, tau._mpc_)
    values = ctx._theta_cache.get(key)
    if values is None:
        values = ctx._theta_cache[key] = _theta_values(z, tau, ctx)
    return values[kind - 1]


def _theta_values(z: mpmath.mpc, tau: mpmath.mpc,
                  ctx: EvalContext) -> Tuple[mpmath.mpc, ...]:
    """(theta1, theta2, theta3, theta4) at (z, tau), summed in fixed point.

    The sums run over n = -N..N (a = n - 1/2 for theta1, theta2), N from
    `_theta_bound`.  Every quantity is a pair (re, im) of Python ints
    scaled by 2^wp, with wp the working precision plus
    `_theta_guard_bits`, rounded up to a multiple of 32 so that calls at
    one tau share the Gauss table.  The g_h = q^{h^2/8} come from the
    context's table for the last tau, and y^{+-h/2} are stepped from
    e^{+-pi i z}.  One loop over h = 1..2N+1 sums the products
    g_h y^{+-h/2} exactly, at scale 2^{2 wp}, into buckets by h mod 4:
    even h = 2n give theta3 and theta4, which differ in the sign of odd
    n; odd h give theta2 and theta1/i, which differ in the sign of every
    other term and of the ups (y^{h/2}) against the downs (y^{-h/2}).
    The down-term at h = 2N+1 has no up partner.  Each result is rounded
    to an mpc at the working precision once.
    """
    with mp.workdps(ctx.work_digits):
        im_tau = float(mpmath.im(tau))
        im_z = float(abs(mpmath.im(z)))
        n_max = _theta_bound(im_tau, im_z, ctx.work_digits)
        wp = mp.prec + _theta_guard_bits(im_tau, im_z, n_max)
        wp += -wp % 32
        table = ctx._gauss_table
        if table is None or table.tau != tau or table.wp < wp:
            table = ctx._gauss_table = _GaussTable(tau, wp)
        wp = table.wp
        g = table.upto(2 * n_max + 1)
        with mp.workprec(wp + 10):
            half = mpmath.expjpi(z)
            hr, hi = _to_fixed(half, wp)          # y^{1/2}
            kr, ki = _to_fixed(1 / half, wp)      # y^{-1/2}
        ur, ui, dr, di = hr, hi, kr, ki     # y^{h/2}, y^{-h/2} at h = 1
        # by parity of m, for h = 2m + 1 and h = 2m + 2
        ups_r, ups_i, downs_r, downs_i = [0, 0], [0, 0], [0, 0], [0, 0]
        evens_r, evens_i = [0, 0], [0, 0]
        for m in range(n_max):
            p = m & 1
            gr, gi = g[2 * m + 1]
            ups_r[p] += gr * ur - gi * ui
            ups_i[p] += gr * ui + gi * ur
            downs_r[p] += gr * dr - gi * di
            downs_i[p] += gr * di + gi * dr
            ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
            dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
            gr, gi = g[2 * m + 2]
            sr, si = ur + dr, ui + di
            evens_r[p] += gr * sr - gi * si
            evens_i[p] += gr * si + gi * sr
            ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
            dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
        gr, gi = g[2 * n_max + 1]
        downs_r[n_max & 1] += gr * dr - gi * di
        downs_i[n_max & 1] += gr * di + gi * dr
        # evens[0] holds the odd n = m + 1, evens[1] the even n
        wp2 = 2 * wp
        one = 1 << wp2
        theta1 = _from_fixed(   # i (downs[0] - downs[1] - ups[0] + ups[1])
            -downs_i[0] + downs_i[1] + ups_i[0] - ups_i[1],
            downs_r[0] - downs_r[1] - ups_r[0] + ups_r[1], wp2)
        theta2 = _from_fixed(ups_r[0] + ups_r[1] + downs_r[0] + downs_r[1],
                             ups_i[0] + ups_i[1] + downs_i[0] + downs_i[1],
                             wp2)
        theta3 = _from_fixed(one + evens_r[0] + evens_r[1],
                             evens_i[0] + evens_i[1], wp2)
        theta4 = _from_fixed(one - evens_r[0] + evens_r[1],
                             -evens_i[0] + evens_i[1], wp2)
    return theta1, theta2, theta3, theta4


def theta0(kind: int, tau, ctx: EvalContext) -> mpmath.mpc:
    return theta(kind, 0, tau, ctx)


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Exact Bernoulli numbers via x/(e^x - 1) = sum B_k x^k / k!."""
    if k == 0:
        return Fraction(1)
    s = Fraction(0)
    for j in range(k):
        s += math.comb(k + 1, j) * bernoulli_number(j)
    return -s / (k + 1)


def eisenstein(n: int, tau, ctx: EvalContext) -> mpmath.mpc:
    """E_{2n}(tau) = 1 - (4n/B_{2n}) sum_k k^{2n-1} q^k/(1-q^k)."""
    tau = mpmath.mpc(tau)
    key = ("E", 2 * n, tau)
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    with mp.workdps(ctx.work_digits):
        q = mpmath.expjpi(2 * tau)
        absq = abs(q)
        if absq >= 1:
            raise PrecisionUnreachableError("tau not in the upper half plane")
        eps = mp.mpf(10) ** (-ctx.work_digits - 5)
        b = bernoulli_number(2 * n)
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
                break
            if k > _THETA_TERM_CAP:
                raise PrecisionUnreachableError("Eisenstein sum does not "
                                                "converge fast enough")
        value = 1 + factor * total
    ctx._gen_cache[key] = value
    return value


def eta(tau, ctx: EvalContext) -> mpmath.mpc:
    """Dedekind eta: q^{1/24} prod (1 - q^n)."""
    tau = mpmath.mpc(tau)
    key = ("eta", tau)
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    with mp.workdps(ctx.work_digits):
        q = mpmath.expjpi(2 * tau)
        value = mpmath.expjpi(tau / 12) * mpmath.qp(q)
    ctx._gen_cache[key] = value
    return value


def e_j(j: int, tau, ctx: EvalContext) -> mpmath.mpc:
    with mp.workdps(ctx.work_digits):
        t2 = theta0(2, tau, ctx) ** 4
        t3 = theta0(3, tau, ctx) ** 4
        t4 = theta0(4, tau, ctx) ** 4
        if j == 1:
            return (t3 + t4) / 12
        if j == 2:
            return (t2 - t4) / 12
        if j == 3:
            return (-t2 - t3) / 12
        raise ValueError("e_j defined for j = 1, 2, 3")


def h0(tau, ctx: EvalContext) -> mpmath.mpc:
    with mp.workdps(ctx.work_digits):
        return (theta0(3, 2 * tau, ctx) * theta0(3, 6 * tau, ctx)
                + theta0(2, 2 * tau, ctx) * theta0(2, 6 * tau, ctx))


def theta_E8(sample: ComplexSample, ctx: EvalContext) -> mpmath.mpc:
    """Theta function of the E8 lattice via the product identity:
    (1/2) sum_{k=1}^4 prod_{j=1}^8 theta_k(z_j, tau)."""
    with mp.workdps(ctx.work_digits):
        total = mp.mpc(0)
        for kind in range(1, 5):
            prod = mp.mpc(1)
            for zj in sample.z:
                prod *= theta(kind, zj, sample.tau, ctx)
            total += prod
        return total / 2


def _scaled(sample: ComplexSample, tau, z_mult: int) -> ComplexSample:
    return ComplexSample(tau, tuple(z_mult * zj for zj in sample.z))


def eval_AB(name: str, sample: ComplexSample, ctx: EvalContext) -> mpmath.mpc:
    """The holomorphic generators A1..A5, B2..B6 (plus E4, E6 for
    convenience), from their defining theta expressions."""
    key = (name, sample.tau, sample.z)
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    tau = mpmath.mpc(sample.tau)
    with mp.workdps(ctx.work_digits):
        if name == "E4":
            value = eisenstein(2, tau, ctx)
        elif name == "E6":
            value = eisenstein(3, tau, ctx)
        elif name == "A1":
            value = theta_E8(sample, ctx)
        elif name == "A4":
            value = theta_E8(_scaled(sample, tau, 2), ctx)
        elif name in ("A2", "A3", "A5"):
            m = int(name[1])
            value = theta_E8(_scaled(sample, m * tau, m), ctx)
            for k in range(m):
                value += (theta_E8(_scaled(sample, (tau + k) / m, 1), ctx)
                          / m ** 4)
            value *= mp.mpf(m ** 3) / (m ** 3 + 1)
        elif name == "B2":
            value = (e_j(1, tau, ctx)
                     * theta_E8(_scaled(sample, 2 * tau, 2), ctx)
                     + e_j(3, tau, ctx)
                     * theta_E8(_scaled(sample, tau / 2, 1), ctx) / 16
                     + e_j(2, tau, ctx)
                     * theta_E8(_scaled(sample, (tau + 1) / 2, 1), ctx) / 16)
            value *= mp.mpf(32) / 5
        elif name == "B3":
            value = (h0(tau, ctx) ** 2
                     * theta_E8(_scaled(sample, 3 * tau, 3), ctx))
            for k in range(3):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * theta_E8(_scaled(sample, (tau + k) / 3, 1), ctx)
                          / 243)
            value *= mp.mpf(81) / 80
        elif name == "B4":
            t4 = theta0(4, 2 * tau, ctx) ** 4
            value = (t4 * theta_E8(_scaled(sample, 4 * tau, 4), ctx)
                     - t4 * theta_E8(_scaled(sample, tau + mp.mpf(1) / 2, 2),
                                     ctx) / 16)
            for k in range(4):
                value -= (theta0(2, (tau + k) / 2, ctx) ** 4
                          * theta_E8(_scaled(sample, (tau + k) / 4, 1), ctx)
                          / (4 * 256))
            value *= mp.mpf(16) / 15
        elif name == "B6":
            value = (h0(tau, ctx) ** 2
                     * theta_E8(_scaled(sample, 6 * tau, 6), ctx))
            for k in range(2):
                value += (h0(tau + k, ctx) ** 2
                          * theta_E8(_scaled(sample, (3 * tau + 3 * k) / 2, 3),
                                     ctx) / 16)
            for k in range(3):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * theta_E8(_scaled(sample, (2 * tau + 2 * k) / 3, 2),
                                     ctx) / 243)
            for k in range(6):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * theta_E8(_scaled(sample, (tau + k) / 6, 1), ctx)
                          / (3 * 1296))
            value *= mp.mpf(9) / 10
        else:
            raise ValueError("unknown holomorphic generator %r" % name)
    ctx._gen_cache[key] = value
    return value


def delta_value(tau, ctx: EvalContext) -> mpmath.mpc:
    return eta(tau, ctx) ** 24


def _check_regular_point(tau, ctx: EvalContext) -> None:
    if abs(eisenstein(2, tau, ctx)) < _SINGULAR_THRESHOLD:
        raise NearSingularError("E4 vanishes at this tau")
    if abs(delta_value(tau, ctx)) < _SINGULAR_THRESHOLD:
        raise NearSingularError("Delta too small at this tau")


def eval_frac(frac: Frac, sample: ComplexSample,
              ctx: EvalContext) -> mpmath.mpc:
    """Evaluate num / (E4^p Delta^q) with the numerator a polynomial in
    the holomorphic generators."""
    _check_regular_point(sample.tau, ctx)
    with mp.workdps(ctx.work_digits):
        num = eval_poly(frac.num, sample, ctx)
        denom = (eisenstein(2, sample.tau, ctx) ** frac.e4_pow
                 * delta_value(sample.tau, ctx) ** frac.delta_pow)
        return num / denom


def eval_ab(name: str, sample: ComplexSample, ctx: EvalContext) -> mpmath.mpc:
    """The meromorphic generators a2..a4, b1..b6 (plus E4, E6), via their
    exact expressions over the holomorphic generators."""
    if name in ("E4", "E6"):
        return eval_AB(name, sample, ctx)
    key = (name, sample.tau, sample.z)
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    images = meromorphic_images()
    if name not in images:
        raise ValueError("unknown meromorphic generator %r" % name)
    value = eval_frac(images[name], sample, ctx)
    ctx._gen_cache[key] = value
    return value


def eval_poly(form: Poly, sample: ComplexSample,
              ctx: EvalContext) -> mpmath.mpc:
    """Evaluate a polynomial over any of the three alphabets."""
    if form.alphabet is AB or form.alphabet is S_ALPHABET:
        gen_eval = eval_AB
    elif form.alphabet is ab:
        gen_eval = eval_ab
    else:
        raise ValueError("unknown alphabet %r" % (form.alphabet,))
    symbols = form.alphabet.symbols
    with mp.workdps(ctx.work_digits):
        total = mp.mpc(0)
        for exps, coeff in form.terms.items():
            term = mp.mpf(coeff.numerator) / coeff.denominator
            for sym, e in zip(symbols, exps):
                if e:
                    term *= gen_eval(sym, sample, ctx) ** e
            total += term
        return total


def eval_certified(cert, sample: ComplexSample,
                   ctx: EvalContext) -> mpmath.mpc:
    """Evaluate a form through its certificate representation
    (R + sum_l P^l S_l / E4^l) / Delta^n.

    Near a zero of E4 the numerators P^l S_l vanish like E4^l, so the
    working precision is raised by the cancellation depth and the
    quotient stays accurate; this is how holomorphic forms are evaluated
    where the meromorphic generators blow up.
    """
    e4 = eval_AB("E4", sample, ctx)
    l_max = max((l for l, _ in cert.s_parts), default=0)
    extra = 0
    if l_max and abs(e4) < 1:
        extra = int(mpmath.ceil(-mpmath.log10(abs(e4)))) * l_max + 10
    wctx = EvalContext(ctx.precision + extra) if extra else ctx
    with mp.workdps(wctx.work_digits):
        e4 = eval_AB("E4", sample, wctx)
        value = eval_poly(cert.remainder, sample, wctx)
        if cert.s_parts:
            p_val = eval_poly(p16_5(), sample, wctx)
            for l, s_l in cert.s_parts:
                value += (p_val / e4) ** l * eval_poly(s_l, sample, wctx)
        return value / delta_value(sample.tau, wctx) ** cert.n


def orbit_character(j: int, z: Sequence[complex],
                    ctx: EvalContext) -> mpmath.mpc:
    """w_j(z) = sum over the Weyl orbit of the j-th fundamental weight of
    e^{2 pi i v . z}.

    v is doubled, so each term is prod_k x_k^{v_k} with x_k = e^{pi i z_k},
    read from one power table per coordinate.  The orbit is sorted, so
    consecutive vectors share a prefix: the partial products of the
    previous vector are kept and only those after the first changed
    coordinate are redone.

    The tables and products are fixed-point pairs (re, im) of Python
    ints scaled by 2^wp, and the sum is rounded to an mpc once.  A term
    has modulus at most prod_k e^{pi reach |Im z_k|}, with reach the
    largest |v_k|, and its absolute error is that bound times a few units
    of 2^-wp per table step and product; wp is the working precision plus
    the bits of that bound, of the table and product steps and of the
    orbit size.
    """
    orbit = e8.weyl_orbit(j)
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


def q_laurent_probe(form: Poly, z: Sequence[complex], ctx: EvalContext,
                    radius: float = 1 / 200,
                    count: int = 16) -> Dict[int, mpmath.mpc]:
    """Approximate q-Laurent coefficients c_{-2}..c_{+2} of the form at
    fixed z, by a discrete Fourier transform over `count` points on the
    circle |q| = radius.  The form is evaluated by `eval_poly`.

    The transform aliases: it returns c_t + sum_{k != 0} c_{t + k count}
    r^{k count} with r = radius, so the error of c_t is led by
    c_{t +- count} r^{+-count}, whatever the working precision.  For b3
    at r = 1/20000 that term is ~1e-25 with the default 16 points and
    ~1e-53 with 32.

    A genuine weak Jacobi form has negligible c_{-1}, c_{-2}; a form
    with poles in tau (the circle passes close to the fundamental-domain
    zero of E4) shows large spurious coefficients instead.
    """
    with mp.workdps(ctx.work_digits):
        im_tau = -mpmath.log(mpmath.mpf(radius)) / (2 * mpmath.pi)
        values = []
        for j in range(count):
            tau = mp.mpf(j) / count + mp.mpc(0, 1) * im_tau
            values.append(eval_poly(form, ComplexSample(tau, tuple(z)), ctx))
        coeffs = {}
        for t in range(-2, 3):
            acc = mp.mpc(0)
            for j, v in enumerate(values):
                acc += v * mpmath.expjpi(mp.mpf(-2 * t * j) / count)
            coeffs[t] = acc / (count * mp.mpf(radius) ** t)
        return coeffs


def probe_is_regular(coeffs: Dict[int, mpmath.mpc]) -> bool:
    """Regularity verdict: the negative-power magnitudes lie below 1e-12
    of the scale of the regular part.

    For a regular form the measured c_{-1}, c_{-2} sit at the probe's
    aliasing floor (~1e-27 of the regular scale with 16 circle points);
    a form with a pole inside the circle shows them at ~1e-3 of the
    scale, so the two cases are separated by many orders of magnitude.
    """
    scale = max(abs(coeffs[t]) for t in (0, 1, 2))
    bound = 1e-12 * max(1.0, float(scale))
    return all(abs(coeffs[t]) < bound for t in (-1, -2))


def _reflect_complex(z: Sequence, alpha2: Tuple[int, ...]) -> tuple:
    """Reflection of a complex 8-vector in a norm-2 root given in doubled
    coordinates: z -> z - (z . alpha) alpha."""
    s = sum(a * b for a, b in zip(z, alpha2)) / 2   # z . alpha
    return tuple(zj - s * aj / 2 for zj, aj in zip(z, alpha2))


@dataclass
class AxiomReport:
    weight: int
    index: int
    quasi_periodicity: float
    modular_s: float
    modular_t: float
    weyl: float
    regular: bool

    @property
    def max_residual(self) -> float:
        return max(self.quasi_periodicity, self.modular_s,
                   self.modular_t, self.weyl)

    def passed(self, tolerance: float) -> bool:
        return self.max_residual < tolerance and self.regular


def _rel(a, b) -> float:
    return float(abs(a - b) / max(1, abs(a), abs(b)))


def check_axioms(form: Poly, k: int, m: int, samples: int, ctx: EvalContext,
                 seed: int = 0) -> AxiomReport:
    """Numeric residuals of the four Jacobi-form axioms, with the form
    evaluated by `eval_poly` at `samples` random points.

    (i) Weyl invariance under a random simple reflection; (ii)
    quasi-periodicity under z -> z + tau*alpha + beta for random lattice
    alpha, beta; (iii) the S and T modular transformations; (iv) Fourier
    regularity via the q-Laurent probe, at one point drawn from seed + 1.
    Near-singular samples are redrawn (bounded retries).
    """
    import random
    rng = random.Random(seed)
    roots = e8.e8_vectors_of_norm(2)
    qp = ms = mt = wy = 0.0
    done = 0
    attempts = 0
    with mp.workdps(ctx.work_digits):
        while done < samples:
            attempts += 1
            if attempts > 10 * samples + 20:
                raise OracleError("could not draw enough regular samples")
            tau = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
            z = tuple(mp.mpc(rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15))
                      for _ in range(8))
            sample = ComplexSample(tau, z)
            try:
                base = eval_poly(form, sample, ctx)

                alpha2 = rng.choice(roots)
                beta2 = rng.choice(roots)
                z_shift = tuple(zj + tau * aj / 2 + bj / 2
                                for zj, aj, bj in zip(z, alpha2, beta2))
                shifted = eval_poly(form, ComplexSample(tau, z_shift), ctx)
                za = sum(zj * aj for zj, aj in zip(z, alpha2))  # 2 z.alpha
                factor = mpmath.expjpi(-m * (2 * tau + za))     # alpha^2 = 2
                qp = max(qp, _rel(shifted, factor * base))

                z_s = tuple(zj / tau for zj in z)
                s_val = eval_poly(form, ComplexSample(-1 / tau, z_s), ctx)
                z2 = sum(zj * zj for zj in z)
                factor = tau ** k * mpmath.expjpi(m * z2 / tau)
                ms = max(ms, _rel(s_val, factor * base))

                t_val = eval_poly(form, ComplexSample(tau + 1, z), ctx)
                mt = max(mt, _rel(t_val, base))

                alpha2 = rng.choice(e8.SIMPLE_ROOTS)
                w_val = eval_poly(
                    form, ComplexSample(tau, _reflect_complex(z, alpha2)), ctx)
                wy = max(wy, _rel(w_val, base))
            except NearSingularError:
                continue
            done += 1

        rng_z = random.Random(seed + 1)
        z_fixed = tuple(
            mp.mpc(rng_z.uniform(0.05, 0.2), rng_z.uniform(-0.1, 0.1))
            for _ in range(8))
        regular = probe_is_regular(q_laurent_probe(form, z_fixed, ctx))
    return AxiomReport(k, m, qp, ms, mt, wy, regular)
