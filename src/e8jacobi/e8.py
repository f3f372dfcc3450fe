"""E8 root data: simple roots, fundamental weights and the W(D8)-orbits
into which the Weyl orbits of the weights split.

All vectors live in the orthonormal basis of R^8 and are stored with
coordinates doubled so that everything is an exact integer (the E8
lattice contains half-integer vectors).
"""

from __future__ import annotations

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


def reflect(v: Vec2, alpha: Vec2) -> Vec2:
    """Reflection in the hyperplane of a root (all roots have norm 2):
    v -> v - (v . alpha) alpha."""
    s = sum(a * b for a, b in zip(v, alpha)) // 4  # (v . alpha), an integer
    return tuple(a - s * b for a, b in zip(v, alpha))


def _closure(j: int, roots, image) -> Tuple[Vec2, ...]:
    """Sorted breadth-first closure of image(w_j), w_j the j-th (1-based)
    fundamental weight, under v -> image(reflect(v, alpha)), alpha in roots."""
    if not 1 <= j <= 8:
        raise ValueError("fundamental weight index must be in 1..8")
    start = image(FUNDAMENTAL_WEIGHTS[j - 1])
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for alpha in roots:
                w = image(reflect(v, alpha))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen))


def d8_dominant(v: Vec2) -> Vec2:
    """The D8-dominant vector v_1 >= ... >= v_7 >= |v_8| in the orbit of v
    under W(D8), the permutations and even sign changes of the
    coordinates: the absolute values in decreasing order, the last one
    negated when v has an odd number of negative coordinates and no
    zero."""
    w = sorted(map(abs, v), reverse=True)
    if w[7] and sum(x < 0 for x in v) % 2:
        w[7] = -w[7]
    return tuple(w)


@cache
def d8_representatives(j: int) -> Tuple[Vec2, ...]:
    """The D8-dominant representatives of the W(D8)-orbits into which
    the Weyl orbit of the j-th fundamental weight splits, sorted.

    W(E8) is generated by W(D8) and the reflections in the 128 roots
    with half-integer coordinates, which W(D8) permutes.  So the
    W(D8)-orbits met by the Weyl orbit are the closure of the one of
    the weight under those reflections, applied to the representatives.
    There are 2, 3, 3 and 4 for j = 8, 1, 7, 2, and at most 8 (j = 4).
    """
    half_roots = [r for r in e8_vectors_of_norm(2) if r[0] % 2]
    return _closure(j, half_roots, d8_dominant)


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
