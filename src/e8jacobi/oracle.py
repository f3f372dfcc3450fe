"""Numeric verification oracle for E8 Jacobi forms.

Everything here is arbitrary-precision complex arithmetic (mpmath),
fully independent of the symbolic construction.  The inner sums, theta
functions, the E8 theta function and Weyl-orbit characters, run in
fixed point, as mpmath's own `_jacobi_theta2` does: every quantity is
a pair (re, im) of Python ints scaled by 2^wp, products are shifted
right by wp, and each result is rounded to an mpc at the working
precision once.  wp is the working precision plus guard bits for the
largest factor a term can carry and for the rounding steps, so the
absolute error of a result stays a few units of 2^-prec.

Theta functions are summed with a derived truncation bound: the
q^{a^2/2} factors come from a table that each kernel call builds by
multiplication from one exponential, and the powers y^{+-h/2} =
e^{+-pi i h z} from a ladder per coordinate, which holds them only in
the kernel's classes, steps each new power once by multiplication from
the last, and is kept for the coordinates used last.  One kernel call
sums all four kinds at any number of coordinates, each of its six
classes of terms by h mod 4 a C-level dot product of table and ladder
lists.  The E8 theta function is one kernel call and one integer
product per sample: the four kinds at each of the eight coordinates
stay fixed-point pairs, their products are summed in integers with
guard bits for the bound on those products, and the sum is rounded
once.  Weyl-orbit characters sum over the few W(D8)-orbits into which
a Weyl orbit splits, by a DP over the coordinates, and hold no orbit.
E4, E6 and Delta are polynomials in the fourth powers of the theta
constants theta_k(0, tau).  The holomorphic generators A_m and B_m are
built from E8 theta values, and the meromorphic generators divide by
numerically evaluated E4 and Delta.  Every cache is keyed by the exact
values of its arguments, so points that differ anywhere never share an
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import Dict, List, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero,
                          mpf_sign, round_nearest, to_float)

from . import e8
from .generators import meromorphic_images
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
_LADDER_CACHE_SIZE = 48         # coordinates whose ladders a context keeps


@dataclass
class EvalContext:
    """Numeric evaluation context: the working precision in decimal
    digits, its only setting (evaluations run at `work_digits`, that plus
    a fixed guard), four caches and three counters.

    Three caches are keyed by exact `_mpc_` values and grow with the
    points evaluated: `theta` values per (z, tau), generator and E8
    theta values per sample (`ComplexSample.key`) with (E4, E6, Delta)
    as one entry per tau (`modular_forms`), and `_scaled_z`, the
    coordinates m z of the generators' theta expressions per exact
    (z, m) (`_scaled`), so that every E8 theta key of one m z shares its
    `_mpc_` pairs; the distinct (z, m) pairs bound it, five multipliers
    per base point.  `_half_cache` holds the
    power ladders of y^{+-h/2} = e^{+-pi i h z} per exact coordinate z
    (`_Ladder`), each at the most bits asked for so far and held as the
    kernel's class lists only, and keeps the `_LADDER_CACHE_SIZE`
    coordinates used last.  No Gauss table is kept:
    each kernel call builds its own (`_gauss_powers`).

    The counters are plain ints that the kernels add to: the coordinates
    `_theta_fixed` summed the four kinds at, one per `theta` evaluation
    and eight per `theta_E8` sample (`theta_kernel_calls`), the terms n =
    -N..N it summed, 2N + 1 per coordinate (`theta_terms`), the ladders
    stepped from their first power, new or at more bits
    (`ladder_builds`)."""

    precision: int = 50
    _theta_cache: Dict[tuple, Tuple[mpmath.mpc, ...]] = field(
        default_factory=dict, repr=False)
    _gen_cache: Dict[tuple, object] = field(default_factory=dict,
                                            repr=False)
    _half_cache: Dict[tuple, "_Ladder"] = field(default_factory=dict,
                                                repr=False)
    _scaled_z: Dict[tuple, Tuple[mpmath.mpc, ...]] = field(
        default_factory=dict, repr=False)
    theta_kernel_calls: int = field(default=0, init=False)
    theta_terms: int = field(default=0, init=False)
    ladder_builds: int = field(default=0, init=False)

    @property
    def work_digits(self) -> int:
        return self.precision + _GUARD_DIGITS


def _raw(x) -> tuple:
    """The exact value of a number as an mpmath `_mpc_` pair: mpc and mpf
    as they are, Python ints without rounding, other numbers through
    `complex` (so floats and complexes without rounding).  Equal values
    give equal pairs, whatever their type."""
    if isinstance(x, mpmath.mpc):
        return x._mpc_
    if isinstance(x, mpmath.mpf):
        return x._mpf_, fzero
    if isinstance(x, int):
        return from_int(x), fzero
    x = complex(x)
    return from_float(x.real), from_float(x.imag)


@dataclass(frozen=True)
class ComplexSample:
    """A point (tau, z) with Im tau > 0 and z in C^8.  `key` holds the
    exact values of tau and of the z_j as `_mpc_` pairs, computed once;
    the caches of generator and E8 theta values use it, so points that
    differ anywhere, even below the working precision, get different
    entries, and a Python complex shares one with the equal mpc."""

    tau: complex
    z: Tuple[complex, ...]
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = _raw(self.tau)
        if mpf_sign(tau[1]) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if len(self.z) != 8:
            raise ValueError("z must have 8 components")
        object.__setattr__(self, "key", (tau, tuple(map(_raw, self.z))))


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


def _gauss_powers(tau: mpmath.mpc, wp: int,
                  h_max: int) -> Tuple[List[int], List[int]]:
    """g_h = e^{pi i tau h^2 / 4} = q^{a^2/2} at a = h/2, h = 0..h_max, as
    fixed-point parallel int lists (re, im) scaled by 2^wp.

    Built by integer multiplication from one exponential, g_{h+1} =
    g_h u^{2h+1} with u = e^{pi i tau / 4}, the step u^{2h+1} itself
    stepped by u^2.  All factors have modulus <= 1, so each step adds at
    most a few units of 2^-wp to the absolute error.
    """
    re, im = [1 << wp], [0]
    with mp.workprec(wp + 10):
        u = mpmath.expjpi(tau / 4)
        sr, si = _to_fixed(u, wp)             # u^{2h+1} at h = 0
        ur, ui = _to_fixed(u * u, wp)
    for _ in range(h_max):
        gr, gi = re[-1], im[-1]
        re.append((gr * sr - gi * si) >> wp)
        im.append((gr * si + gi * sr) >> wp)
        sr, si = (sr * ur - si * ui) >> wp, (sr * ui + si * ur) >> wp
    return re, im


def _half_steps(z: tuple, wp: int) -> Tuple[int, int, int, int]:
    """(re, im) of e^{pi i z} and of e^{-pi i z}, for a coordinate z (its
    `_mpc_` value), scaled by 2^wp: each exponential computed at wp + 10
    bits and truncated, like `_to_fixed`."""
    with mp.workprec(wp + 10):
        half = mpmath.expjpi(mp.make_mpc(z))
        return _to_fixed(half, wp) + _to_fixed(1 / half, wp)


class _Ladder:
    """The power ladder of one coordinate z: y^{h/2} = e^{pi i h z} (the
    ups) and y^{-h/2} (the downs) for h = 1..size - 1, scaled by 2^wp,
    held only as what `_theta_fixed` reads.

    `steps` holds y^{1/2} and y^{-1/2} (`_half_steps`); every further
    power is one product with them shifted right by wp, from `last`, the
    pair (re, im, re, im) of y^{+-h/2} at h = size - 1.  `classes` holds,
    for the ups at h = 1 and 3 mod 4, the downs at h = 1 and 3 mod 4, and
    the sums y^{h/2} + y^{-h/2} at h = 2 and 0 mod 4 (h >= 4), the lists
    c, d - c and c + d of the entries c + i d in order of h, the ladder's
    side of the three-multiplication complex product.  `upto` steps only
    the new powers and appends each to its classes.
    """

    def __init__(self, z: tuple, wp: int):
        self.wp = wp
        self.steps = _half_steps(z, wp)
        self.last = (1 << wp, 0, 1 << wp, 0)
        self.size = 1
        self.classes = tuple(([], [], []) for _ in range(6))

    def upto(self, h_max: int) -> None:
        if self.size > h_max:
            return
        hr, hi, kr, ki = self.steps
        ur, ui, dr, di = self.last
        wp, classes = self.wp, self.classes
        for h in range(self.size, h_max + 1):
            ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
            dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
            upper = (h >> 1) & 1    # 1 at h = 2 and 3 mod 4
            if h & 1:
                new = (upper, ur, ui), (2 + upper, dr, di)
            else:
                new = (5 - upper, ur + dr, ui + di),
            for k, c, d in new:
                cs, dcs, cds = classes[k]
                cs.append(c)
                dcs.append(d - c)
                cds.append(c + d)
        self.last = ur, ui, dr, di
        self.size = h_max + 1


def theta(kind: int, z, tau, ctx: EvalContext) -> mpmath.mpc:
    """Jacobi theta functions; y = e^{2 pi i z}, q = e^{2 pi i tau}:
    theta3 = sum_n y^n q^{n^2/2} and its three companions.

    One evaluation gives all four kinds at (z, tau), each the
    fixed-point value of `_theta_fixed` rounded to an mpc at the working
    precision once, and stores them as one cache entry, keyed by the
    exact values of z and tau (`_raw`).
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError("theta kind must be 1..4")
    key = (_raw(z), _raw(tau))
    values = ctx._theta_cache.get(key)
    if values is None:
        with mp.workdps(ctx.work_digits):
            tau = mp.make_mpc(key[1])
            im_tau = to_float(key[1][1])
            im_z = abs(to_float(key[0][1]))
            n_max = _theta_bound(im_tau, im_z, ctx.work_digits)
            bits = mp.prec + _theta_guard_bits(im_tau, im_z, n_max)
            wp, (pairs,) = _theta_fixed((key[0],), tau, bits, n_max, ctx)
            values = ctx._theta_cache[key] = tuple(
                _from_fixed(re, im, wp) for re, im in pairs)
    return values[kind - 1]


def _ladder(z: tuple, wp: int, h_max: int, ctx: EvalContext) -> _Ladder:
    """The context's ladder of the coordinate z (its `_mpc_` value) at
    >= wp bits, reaching h_max.

    A ladder at fewer bits is replaced by one stepped at wp; one at more
    bits serves as it is.  The context keeps the `_LADDER_CACHE_SIZE`
    coordinates used last: a dict in order of use, the first entry the
    one to evict.
    """
    cache = ctx._half_cache
    ladder = cache.pop(z, None)
    if ladder is None or ladder.wp < wp:
        ladder = _Ladder(z, wp)
        ctx.ladder_builds += 1
    cache[z] = ladder
    if len(cache) > _LADDER_CACHE_SIZE:
        del cache[next(iter(cache))]
    ladder.upto(h_max)
    return ladder


def _theta_fixed(zs: Sequence[tuple], tau: mpmath.mpc, wp: int, n_max: int,
                 ctx: EvalContext) -> Tuple[int, List[tuple]]:
    """(wp, sums): (theta1, theta2, theta3, theta4) at (z, tau) for each
    coordinate z in `zs` (its `_mpc_` value), as fixed-point pairs (re,
    im) scaled by 2^wp, with wp the bits asked for rounded up to a
    multiple of 32, so that calls at nearby bits share the coordinates'
    ladders (`_ladder` reuses a ladder at more bits).

    The sums run over n = -N..N (a = n - 1/2 for theta1, theta2), N =
    `n_max`, so over h = 1..2N+1 with g_h = q^{h^2/8} from the call's
    own table (`_gauss_powers`) and y^{+-h/2} from the coordinate's
    ladder (`_ladder`).  The products g_h y^{+-h/2} fall into six
    classes by h mod 4: the ups (y^{h/2}, h <= 2N-1) and the downs
    (y^{-h/2}, h <= 2N+1) at h = 1 and 3, and the evens (y^{h/2} +
    y^{-h/2}, h <= 2N) at h = 2 and 0.  Each class
    is a complex dot product, summed exactly in C-level `sum(map(mul,
    ...))` by the three-multiplication product (a + ib)(c + id) = (k1 -
    k3) + i (k1 + k2) with k1 = c(a + b), k2 = a(d - c), k3 = b(c + d):
    the table's a, b and a + b are sliced once per call and serve every
    coordinate, the ladder keeps c, d - c and c + d.  Even h give theta3
    and theta4, which differ in the sign of the h = 2 mod 4 class; odd h
    give theta2 and theta1/i, which differ in the sign of the h = 3 mod 4
    classes and of the ups against the downs.  Each sum is shifted down
    to scale 2^wp once.

    With the ladder at wp W >= wp, the sums are at scale 2^{wp + W} and
    are shifted by W.  Integer products and sums are exact, so at W = wp
    this is bit for bit the result of summing term by term; at W > wp
    the ladder's errors are smaller.  With wp at least the working
    precision plus `_theta_guard_bits`, the absolute error is a few
    units of 2^{-wp} times 2^{guard bits}.
    """
    wp += -wp % 32
    top = 2 * n_max + 1
    re, im = _gauss_powers(tau, wp, top)
    sides = []      # a + b, a, b of g_h per class, in the ladder's order
    for start, stop in ((1, top - 1), (3, top - 1), (1, top + 1),
                        (3, top + 1), (2, top), (4, top)):
        a, b = re[start:stop:4], im[start:stop:4]
        sides.append((list(map(add, a, b)), a, b))
    ctx.theta_kernel_calls += len(zs)
    ctx.theta_terms += top * len(zs)
    out = []
    for z in zs:
        ladder = _ladder(z, wp, top, ctx)
        sums = []
        # map stops at the table's slice; the ladder may reach further
        for (ab, a, b), (c, dc, cd) in zip(sides, ladder.classes):
            k1 = sum(map(mul, ab, c))
            sums.append((k1 - sum(map(mul, b, cd)),
                         k1 + sum(map(mul, a, dc))))
        (u1r, u1i), (u3r, u3i), (d1r, d1i), (d3r, d3i), \
            (e2r, e2i), (e0r, e0i) = sums
        shift = ladder.wp
        one = 1 << (wp + shift)
        out.append((   # theta1 = i (d1 - d3 - u1 + u3)
            ((-d1i + d3i + u1i - u3i) >> shift,
             (d1r - d3r - u1r + u3r) >> shift),
            ((u1r + u3r + d1r + d3r) >> shift,
             (u1i + u3i + d1i + d3i) >> shift),
            ((one + e2r + e0r) >> shift, (e2i + e0i) >> shift),
            ((one - e2r + e0r) >> shift, (-e2i + e0i) >> shift)))
    return wp, out


def theta0(kind: int, tau, ctx: EvalContext) -> mpmath.mpc:
    return theta(kind, 0, tau, ctx)


def modular_forms(tau, ctx: EvalContext) -> Tuple[mpmath.mpc, ...]:
    """(E4, E6, Delta) at tau from the fourth powers t_k = theta_k(0,
    tau)^4 of the theta constants:

        E4 = (t2^2 + t3^2 + t4^2) / 2,
        E6 = (t2 + t3) (t3 + t4) (t4 - t2) / 2,
        Delta = eta^24 = (t2 t3 t4)^2 / 256,

    at the working precision, stored as one `_gen_cache` entry per exact
    tau.  The t_k come from `theta`'s cache, which `e_j` shares.
    """
    key = ("modular", _raw(tau))
    values = ctx._gen_cache.get(key)
    if values is None:
        with mp.workdps(ctx.work_digits):
            t2, t3, t4 = _theta_fourths(tau, ctx)
            values = ctx._gen_cache[key] = (
                (t2 * t2 + t3 * t3 + t4 * t4) / 2,
                (t2 + t3) * (t3 + t4) * (t4 - t2) / 2,
                (t2 * t3 * t4) ** 2 / 256)
    return values


def _theta_fourths(tau, ctx: EvalContext) -> List[mpmath.mpc]:
    """[t2, t3, t4], t_k = theta_k(0, tau)^4, at the current precision."""
    return [theta0(k, tau, ctx) ** 4 for k in (2, 3, 4)]


def eisenstein(n: int, tau, ctx: EvalContext) -> mpmath.mpc:
    """E_{2n}(tau) for n = 2 (E4) and n = 3 (E6), read from
    `modular_forms`."""
    if n not in (2, 3):
        raise ValueError("eisenstein defined for n = 2 and 3")
    return modular_forms(tau, ctx)[n - 2]


def delta_value(tau, ctx: EvalContext) -> mpmath.mpc:
    """Delta = eta^24, read from `modular_forms`."""
    return modular_forms(tau, ctx)[2]


def e_j(j: int, tau, ctx: EvalContext) -> mpmath.mpc:
    with mp.workdps(ctx.work_digits):
        t2, t3, t4 = _theta_fourths(tau, ctx)
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
    (1/2) sum_{k=1}^4 prod_{j=1}^8 theta_k(z_j, tau).

    One fixed-point product per sample: one `_theta_fixed` call gives
    the four kinds at all eight z_j as pairs of ints at one scale 2^wp,
    the products and their sum stay in integers, and the result is
    rounded to an mpc once, the 1/2 folded into the exponent, and cached
    in `_gen_cache` under the sample's exact key.  All eight coordinates
    share tau, the Gauss table and N, taken at the largest |Im z_j|, so
    the table is built and sliced once per sample; the powers of y of
    each z_j come from the context's ladders (`_ladder`).

    Each |theta_k(z_j, tau)| is at most the sum over a in Z/2 of
    e^{-pi Im tau a^2 - 2 pi a Im z_j}, a Gaussian in a with peak
    e^{pi Im(z_j)^2 / Im tau}; a sum over a grid of spacing 1/2 is at
    most the peak times 1 + 2 / sqrt(Im tau).  That bound M_j is >= 1,
    so an error of e units in one factor costs at most e prod_j M_j
    units in a product, and each of the 7 shifts of a product 1 unit
    times the factors after it.  wp is the working precision plus
    `_theta_guard_bits` at the largest |Im z_j|, plus sum_j log2 M_j,
    plus 8 bits for the errors of the 4 products and their sum, rounded
    up by `_theta_fixed` to a multiple of 32, so the absolute error stays
    a few units of 2^-prec.
    """
    key = ("theta_E8",) + sample.key
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    tau, zs = sample.key
    with mp.workdps(ctx.work_digits):
        im_tau = to_float(tau[1])
        im_zs = [abs(to_float(zj[1])) for zj in zs]
        im_z = max(im_zs)
        n_max = _theta_bound(im_tau, im_z, ctx.work_digits)
        growth = (math.pi * sum(y * y for y in im_zs) / im_tau / math.log(2)
                  + 8 * math.log2(1 + 2 / math.sqrt(im_tau)))
        bits = (mp.prec + _theta_guard_bits(im_tau, im_z, n_max)
                + math.ceil(growth) + 8)
        wp, kinds = _theta_fixed(zs, mp.make_mpc(tau), bits, n_max, ctx)
        prods = kinds[0]
        for values in kinds[1:]:
            prods = [((ar * vr - ai * vi) >> wp, (ar * vi + ai * vr) >> wp)
                     for (ar, ai), (vr, vi) in zip(prods, values)]
        value = _from_fixed(sum(ar for ar, _ in prods),
                            sum(ai for _, ai in prods), wp + 1)
    ctx._gen_cache[key] = value
    return value


def _scaled(sample: ComplexSample, tau, m: int,
            ctx: EvalContext) -> ComplexSample:
    """The sample (tau, m z), with m z read from the context's `_scaled_z`.

    A miss multiplies the exact coordinates once, at the working digits;
    a product that rounds to the coordinates themselves (m = 1) keeps
    their `_mpc_` pairs."""
    zs = sample.key[1]
    mz = ctx._scaled_z.get((zs, m))
    if mz is None:
        with mp.workdps(ctx.work_digits):
            mz = tuple(m * mp.make_mpc(zj) for zj in zs)
        if tuple(x._mpc_ for x in mz) == zs:
            mz = tuple(map(mp.make_mpc, zs))
        ctx._scaled_z[(zs, m)] = mz
    return ComplexSample(tau, mz)


def eval_AB(name: str, sample: ComplexSample, ctx: EvalContext) -> mpmath.mpc:
    """The holomorphic generators A1..A5, B2..B6, from their defining
    theta expressions, at the exact tau of the sample and cached under
    its key; E4 and E6 are read from `modular_forms`."""
    if name in ("E4", "E6"):
        return eisenstein(2 if name == "E4" else 3, sample.tau, ctx)
    key = (name,) + sample.key
    cached = ctx._gen_cache.get(key)
    if cached is not None:
        return cached
    tau = mp.make_mpc(sample.key[0])

    def th(t, m):       # theta_E8 at (t, m z)
        return theta_E8(_scaled(sample, t, m, ctx), ctx)

    with mp.workdps(ctx.work_digits):
        if name == "A1":
            value = theta_E8(sample, ctx)
        elif name == "A4":
            value = th(tau, 2)
        elif name in ("A2", "A3", "A5"):
            m = int(name[1])
            value = th(m * tau, m)
            for k in range(m):
                value += th((tau + k) / m, 1) / m ** 4
            value *= mp.mpf(m ** 3) / (m ** 3 + 1)
        elif name == "B2":
            value = (e_j(1, tau, ctx) * th(2 * tau, 2)
                     + e_j(3, tau, ctx) * th(tau / 2, 1) / 16
                     + e_j(2, tau, ctx) * th((tau + 1) / 2, 1) / 16)
            value *= mp.mpf(32) / 5
        elif name == "B3":
            value = h0(tau, ctx) ** 2 * th(3 * tau, 3)
            for k in range(3):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * th((tau + k) / 3, 1) / 243)
            value *= mp.mpf(81) / 80
        elif name == "B4":
            t4 = theta0(4, 2 * tau, ctx) ** 4
            value = (t4 * th(4 * tau, 4)
                     - t4 * th(tau + mp.mpf(1) / 2, 2) / 16)
            for k in range(4):
                value -= (theta0(2, (tau + k) / 2, ctx) ** 4
                          * th((tau + k) / 4, 1) / (4 * 256))
            value *= mp.mpf(16) / 15
        elif name == "B6":
            value = h0(tau, ctx) ** 2 * th(6 * tau, 6)
            for k in range(2):
                value += (h0(tau + k, ctx) ** 2
                          * th((3 * tau + 3 * k) / 2, 3) / 16)
            for k in range(3):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * th((2 * tau + 2 * k) / 3, 2) / 243)
            for k in range(6):
                value -= (h0((tau + k) / 3, ctx) ** 2
                          * th((tau + k) / 6, 1) / (3 * 1296))
            value *= mp.mpf(9) / 10
        else:
            raise ValueError("unknown holomorphic generator %r" % name)
    ctx._gen_cache[key] = value
    return value


def eval_frac(frac: Frac, sample: ComplexSample,
              ctx: EvalContext) -> mpmath.mpc:
    """Evaluate num / (E4^p Delta^q) with the numerator a polynomial in
    the holomorphic generators."""
    e4 = eisenstein(2, sample.tau, ctx)
    delta = delta_value(sample.tau, ctx)
    if abs(e4) < _SINGULAR_THRESHOLD:
        raise NearSingularError("E4 vanishes at this tau")
    if abs(delta) < _SINGULAR_THRESHOLD:
        raise NearSingularError("Delta too small at this tau")
    with mp.workdps(ctx.work_digits):
        num = eval_poly(frac.num, sample, ctx)
        return num / (e4 ** frac.e4_pow * delta ** frac.delta_pow)


def eval_ab(name: str, sample: ComplexSample, ctx: EvalContext) -> mpmath.mpc:
    """The meromorphic generators a2..a4, b1..b6 (plus E4, E6), via their
    exact expressions over the holomorphic generators, cached under the
    sample's key."""
    if name in ("E4", "E6"):
        return eval_AB(name, sample, ctx)
    key = (name,) + sample.key
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


def orbit_character(j: int, z: Sequence[complex],
                    ctx: EvalContext) -> mpmath.mpc:
    """w_j(z) = sum over the Weyl orbit of the j-th fundamental weight of
    e^{2 pi i v . z}, for z with 8 components.

    v is doubled, so each term is prod_k x_k^{v_k} with x_k = e^{pi i z_k}.
    The orbit is the union of the W(D8)-orbits of its D8-dominant
    representatives (`e8.d8_representatives`: 2, 3, 3 and 4 of them for
    j = 8, 1, 7, 2), and no orbit is ever held.  W(D8) permutes the
    coordinates and changes an even number of signs.  For a
    representative with a zero coordinate its orbit is every signed
    arrangement, and the sum over the sign changes of one arrangement
    (a_k) is prod_k (x_k^{a_k} + x_k^{-a_k}), with the factor 1 at a_k =
    0.  Without a zero the orbit keeps the parity of the minus signs,
    and the sum is half of that product plus or minus prod_k (x_k^{a_k} -
    x_k^{-a_k}), the sign that of the product of the representative's
    coordinates.  Each product is summed over the distinct arrangements
    of the representative's |v_k| by `_arrangement_sum`.

    The powers x_k^{+-a}, a = 0..reach, are stepped from x_k^{+-1}
    (`_half_steps` of z_k) and not kept; they and the sums are
    fixed-point pairs (re, im) of Python ints scaled by 2^wp, and the sum
    is rounded to an mpc once.  A factor has
    modulus at most 2 e^{pi reach |Im z_k|}, with reach the largest
    |v_k|, and carries a few units of 2^-wp per power step, each of the
    8 products per arrangement adds 1 unit, and there are at most 8!
    arrangements per representative and two products each; wp is the
    working precision plus the bits of the product bound 2^8 prod_k
    e^{pi reach |Im z_k|}, of the steps and of the arrangement count.
    """
    if len(z) != 8:
        raise ValueError("z must have 8 components")
    reps = e8.d8_representatives(j)
    reach = max(v[0] for v in reps)
    with mp.workdps(ctx.work_digits):
        growth = math.pi * reach * sum(abs(float(mpmath.im(zk))) for zk in z)
        wp = (mp.prec + math.ceil(growth / math.log(2)) + 8
              + (8 * reach + 8).bit_length()
              + (2 * len(reps) * math.factorial(8)).bit_length() + 8)
        plus, minus = [], []     # per coordinate: a -> x^a +- x^-a
        for zk in z:
            hr, hi, kr, ki = _half_steps(_raw(zk), wp)
            ur, ui, dr, di = 1 << wp, 0, 1 << wp, 0
            row_plus, row_minus = {0: (1 << wp, 0)}, {0: (0, 0)}
            for a in range(1, reach + 1):       # x^a and x^-a
                ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
                dr, di = (dr * kr - di * ki) >> wp, (dr * ki + di * kr) >> wp
                row_plus[a] = (ur + dr, ui + di)
                row_minus[a] = (ur - dr, ui - di)
            plus.append(row_plus)
            minus.append(row_minus)
        total_r = total_i = 0     # at scale 2^(wp + 1)
        for v in reps:
            values = tuple(map(abs, v))
            sum_r, sum_i = _arrangement_sum(values, plus, wp)
            if not values[7]:
                total_r += 2 * sum_r
                total_i += 2 * sum_i
                continue
            diff_r, diff_i = _arrangement_sum(values, minus, wp)
            if v[7] < 0:
                diff_r, diff_i = -diff_r, -diff_i
            total_r += sum_r + diff_r
            total_i += sum_i + diff_i
        return _from_fixed(total_r, total_i, wp + 1)


def _arrangement_sum(values: tuple, rows: List[dict],
                     wp: int) -> Tuple[int, int]:
    """sum over the distinct arrangements (a_0, ..., a_7) of the sorted
    multiset `values` of prod_k rows[k][a_k], all fixed-point pairs at
    scale 2^wp.

    A DP over the coordinates in order, keyed by the multiset left for
    the coordinates not yet filled, so each sub-multiset is summed once:
    its sum is that over the distinct values a left of rows[k][a] times
    the sum of what is left without one a, accumulated exactly and
    shifted right by wp once.
    """
    memo = {(): (1 << wp, 0)}

    def rest(left: tuple) -> Tuple[int, int]:
        got = memo.get(left)
        if got is None:
            row = rows[8 - len(left)]
            re = im = 0
            for i, a in enumerate(left):
                if i and a == left[i - 1]:
                    continue
                fr, fi = row[a]
                sr, si = rest(left[:i] + left[i + 1:])
                re += fr * sr - fi * si
                im += fr * si + fi * sr
            got = memo[left] = (re >> wp, im >> wp)
        return got

    return rest(values)


def q_laurent_probe(form: Poly, z: Sequence[complex], ctx: EvalContext,
                    radius: float = 1 / 200,
                    count: int = 16) -> Dict[int, mpmath.mpc]:
    """Approximate q-Laurent coefficients c_{-2}..c_{+2} of the form at
    fixed z, by a discrete Fourier transform over `count` points on the
    circle |q| = radius.  The form is evaluated by `eval_poly`, and the
    `count` roots of unity e^{-2 pi i j / count} are computed once: c_t
    reads root t j mod count at point j.

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
        roots = [mpmath.expjpi(mp.mpf(-2 * j) / count) for j in range(count)]
        coeffs = {}
        for t in range(-2, 3):
            acc = mp.mpc(0)
            for j, v in enumerate(values):
                acc += v * roots[t * j % count]
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
