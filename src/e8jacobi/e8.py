"""E8 root data: simple roots, fundamental weights, Weyl orbits.

All vectors live in the orthonormal basis of R^8 and are stored with
coordinates doubled so that everything is an exact integer (the E8
lattice contains half-integer vectors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import List, Tuple

Vec2 = Tuple[int, ...]   # coordinates scaled by 2

# simple roots (doubled): alpha1 = (e1 - e2 - ... - e7 + e8)/2,
# alpha2 = e1 + e2, alpha_j = -e_{j-2} + e_{j-1} for j = 3..8
SIMPLE_ROOTS: Tuple[Vec2, ...] = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

FUNDAMENTAL_WEIGHTS: Tuple[Vec2, ...] = (
    (0, 0, 0, 0, 0, 0, 0, 4),
    (1, 1, 1, 1, 1, 1, 1, 5),
    (-1, 1, 1, 1, 1, 1, 1, 7),
    (0, 0, 2, 2, 2, 2, 2, 10),
    (0, 0, 0, 2, 2, 2, 2, 8),
    (0, 0, 0, 0, 2, 2, 2, 6),
    (0, 0, 0, 0, 0, 2, 2, 4),
    (0, 0, 0, 0, 0, 0, 2, 2),
)

WEYL_GROUP_ORDER = 696729600


def dot2(v: Vec2, w: Vec2) -> Fraction:
    """True inner product of two doubled vectors."""
    return Fraction(sum(a * b for a, b in zip(v, w)), 4)


def reflect(v: Vec2, alpha: Vec2) -> Vec2:
    """Reflection in the hyperplane of a root (all roots have norm 2):
    v -> v - (v . alpha) alpha."""
    s = sum(a * b for a, b in zip(v, alpha)) // 4  # (v . alpha), an integer
    return tuple(a - s * b for a, b in zip(v, alpha))


@cache
def weyl_orbit(j: int) -> Tuple[Vec2, ...]:
    """Orbit of the j-th fundamental weight (1-based) under the Weyl
    group, sorted, by breadth-first closure under the simple
    reflections; built once per j and kept, as exact integer data.

    The reflections are written out coordinate-wise, and those that fix
    v are skipped: alpha1 subtracts s*alpha1 with s = v . alpha1, one
    signed coordinate sum; alpha2 = e1 + e2 swaps and negates the first
    two coordinates; alpha_j = e_{j-1} - e_{j-2} (j = 3..8) swaps
    coordinates j-2 and j-1.
    """
    if not 1 <= j <= 8:
        raise ValueError("fundamental weight index must be in 1..8")
    start = FUNDAMENTAL_WEIGHTS[j - 1]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            v0, v1, v2, v3, v4, v5, v6, v7 = v
            images = []
            s = (v0 - v1 - v2 - v3 - v4 - v5 - v6 + v7) // 4
            if s:
                images.append((v0 - s, v1 + s, v2 + s, v3 + s, v4 + s,
                               v5 + s, v6 + s, v7 - s))
            if v0 != -v1:
                images.append((-v1, -v0, v2, v3, v4, v5, v6, v7))
            if v0 != v1:
                images.append((v1, v0, v2, v3, v4, v5, v6, v7))
            if v1 != v2:
                images.append((v0, v2, v1, v3, v4, v5, v6, v7))
            if v2 != v3:
                images.append((v0, v1, v3, v2, v4, v5, v6, v7))
            if v3 != v4:
                images.append((v0, v1, v2, v4, v3, v5, v6, v7))
            if v4 != v5:
                images.append((v0, v1, v2, v3, v5, v4, v6, v7))
            if v5 != v6:
                images.append((v0, v1, v2, v3, v4, v6, v5, v7))
            for w in images:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen))


def e8_vectors_of_norm(norm: int) -> List[Vec2]:
    """All E8 lattice vectors of the given (true) norm, enumerated
    directly: integer vectors with even coordinate sum, plus half-integer
    vectors (all coordinates odd after doubling) with the same parity
    constraint."""
    if norm < 0:
        return []
    target = 4 * norm  # doubled-coordinate squared length
    out = []

    def rec(pos: int, left: int, cur: List[int], parity_mode: int):
        # parity_mode 0: all doubled coords even; 1: all odd
        if pos == 8:
            if left == 0 and sum(cur) % 4 == 0:
                out.append(tuple(cur))
            return
        bound = int(left ** 0.5)
        step = 2
        first = 0 if parity_mode == 0 else 1
        for mag in range(first, bound + 1, step):
            if mag * mag > left:
                break
            vals = (0,) if mag == 0 else (mag, -mag)
            for v in vals:
                cur.append(v)
                rec(pos + 1, left - mag * mag, cur, parity_mode)
                cur.pop()

    rec(0, target, [], 0)
    rec(0, target, [], 1)
    return sorted(out)
