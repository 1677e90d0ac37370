"""The order-1 DoF region for the full-antenna case (``m == k``).

The region is the polyhedron of per-receiver DoF tuples ``d`` with

    sum_i d_{pi(i)} / i <= 1   for every permutation ``pi`` of ``1..k``,

together with ``d >= 0``.  Membership is exact rational arithmetic
throughout.  Because the weights ``1/i`` decrease, the left-hand side is
maximized by pairing larger coordinates with earlier positions, so the
single descending-sorted assignment decides membership; the exhaustive
mode checks all ``k!`` assignments and exists to validate that argument.

Corners are the symmetric points of the support subsets,
``chi_S / H_{|S|}``, and any member point is a sub-convex combination of
the corners along its sorted coordinate chain (closed form, no LP).
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import mul

import numpy as np

from .dof_calc import harmonic

__all__ = [
    "as_point",
    "combination_value",
    "corner_candidates",
    "decompose_time_sharing",
    "in_region",
    "iter_tight_permutations",
    "symmetric_corner",
    "tight_permutations",
]

_INT64_SAFE = 2 ** 62


def as_point(d) -> tuple:
    """Coerce coordinates to exact nonnegative rationals.

    Accepts ints, Fractions, floats (converted exactly), and strings
    such as ``"2/3"`` or ``"0.5"``.
    """
    # Fraction(x) re-normalizes even a Fraction, at a few microseconds each
    pt = tuple(x if type(x) is Fraction else Fraction(x) for x in d)
    if not pt:
        raise ValueError("a region point needs at least one coordinate")
    if any(x < 0 for x in pt):
        raise ValueError(f"coordinates must be nonnegative, got {d!r}")
    return pt


@lru_cache(maxsize=None)
def _perm_matrix(k: int) -> np.ndarray:
    """All permutations of ``0..k-1`` as an index matrix, in
    ``itertools.permutations`` order."""
    return np.array(list(permutations(range(k))), dtype=np.intp)


def _integerize(pt):
    """Common-denominator integer view: numerators, den, weights, lcm.

    The constraint ``sum d_{pi(i)}/i <= 1`` becomes
    ``sum n_{pi(i)} * (L/i) <= den * L`` with ``L = lcm(1..k)``.
    """
    den = math.lcm(*(x.denominator for x in pt))
    nums = [x.numerator * (den // x.denominator) for x in pt]
    els = math.lcm(*range(1, len(pt) + 1))
    weights = [els // i for i in range(1, len(pt) + 1)]
    return nums, den, weights, els


def in_region(d, mode: str = "sorted") -> bool:
    """Exact membership test.

    ``sorted`` evaluates only the descending-sorted assignment;
    ``exhaustive`` (``k <= 8``) evaluates all ``k!``.  The two always
    agree; the slow mode exists to check the fast one.
    """
    pt = as_point(d)
    k = len(pt)
    if mode == "sorted":
        ordered = sorted(pt, reverse=True)
        return sum(x / i for i, x in enumerate(ordered, start=1)) <= 1
    if mode != "exhaustive":
        raise ValueError(f"mode must be 'sorted' or 'exhaustive', got {mode!r}")
    if k > 8:
        raise ValueError(f"exhaustive mode supports k <= 8, got k={k}")
    nums, den, weights, els = _integerize(pt)
    rhs = den * els
    if max(nums) * els * k < _INT64_SAFE:
        lhs = np.asarray(nums, dtype=np.int64)[_perm_matrix(k)] @ np.asarray(
            weights, dtype=np.int64)
        return bool(np.all(lhs <= rhs))
    return all(
        sum(a * b for a, b in zip(p, weights)) <= rhs
        for p in permutations(nums)
    )


def tight_permutations(d) -> list:
    """The list of :func:`iter_tight_permutations`."""
    return list(iter_tight_permutations(d))


def iter_tight_permutations(d):
    """Permutations ``pi`` (as 1-based receiver tuples) whose constraint
    holds with equality, in ``itertools.permutations`` order, each yielded
    as the search finds it.  Exact.

    A depth-first search over positions.  The weights ``1/i`` strictly
    decrease, so by the rearrangement inequality the receivers not yet
    placed contribute at most their descending pairing with the remaining
    weights and at least their ascending one; a prefix is dropped as soon
    as what is left to reach 1 falls outside that range.  For a boundary
    point the search therefore walks only the non-increasing orderings
    (every ordering within each group of equal coordinates), and for an
    interior point it stops at the root; a point outside the region may
    still saturate some other orderings, which the bounds leave in.
    """
    pt = as_point(d)
    k = len(pt)
    nums, den, weights, els = _integerize(pt)
    bounds = {}  # receivers left -> (most, least) they can add
    # prefixes to extend, next on top: placed receivers 1-based, the rest 0-based
    todo = [((), tuple(range(k)), den * els)]
    while todo:
        prefix, rest, need = todo.pop()
        if len(rest) == 2:  # the last two positions: test both orders
            for a, b in (rest, rest[::-1]):
                if nums[a] * weights[-2] + nums[b] * weights[-1] == need:
                    yield prefix + (a + 1, b + 1)
            continue
        if rest not in bounds:
            w = weights[len(prefix):]
            vals = sorted([nums[r] for r in rest], reverse=True)
            bounds[rest] = (sum(map(mul, vals, w)), sum(map(mul, vals, w[::-1])))
        most, least = bounds[rest]
        if not most >= need >= least:
            continue
        if len(rest) == 1:
            yield prefix + (rest[0] + 1,)
            continue
        w0 = weights[len(prefix)]
        todo += [(prefix + (r + 1,), rest[:i] + rest[i + 1:], need - nums[r] * w0)
                 for i, r in enumerate(rest)][::-1]


def symmetric_corner(k: int) -> tuple:
    """The all-equal corner ``(1/H_k, ..., 1/H_k)``; every permutation
    constraint is tight there."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    coord = 1 / harmonic(k)
    return (coord,) * k


def corner_candidates(k: int) -> list:
    """The origin plus ``chi_S / H_{|S|}`` for every nonempty support
    ``S``, in (size, subset) order.  ``k <= 6``."""
    if not 1 <= k <= 6:
        raise ValueError(f"corner enumeration supports 1 <= k <= 6, got {k}")
    pts = [tuple(Fraction(0) for _ in range(k))]
    for size in range(1, k + 1):
        coord = 1 / harmonic(size)
        for s in combinations(range(1, k + 1), size):
            member = frozenset(s)
            pts.append(tuple(
                coord if r in member else Fraction(0)
                for r in range(1, k + 1)))
    return pts


def decompose_time_sharing(d):
    """Write a member point as a sub-convex combination of corners.

    Sorting the coordinates descending as ``p_(1) >= ... >= p_(k)`` and
    walking the nested supports ``S_s = {sigma(1), ..., sigma(s)}``, the
    weights ``lambda_s = H_s (p_(s) - p_(s+1))`` reconstruct the point
    exactly, and their total equals the sorted constraint value — so the
    weights sum to at most 1 precisely when the point is in the region.

    Returns a list of ``(support frozenset, weight)`` pairs with the
    zero-weight entries dropped (the corner for support ``S`` is
    ``chi_S / H_{|S|}``), or None when the point is outside the region.
    An all-zero point decomposes as the empty list.
    """
    pt = as_point(d)
    k = len(pt)
    order = sorted(range(k), key=lambda i: pt[i], reverse=True)
    ranked = [pt[i] for i in order]
    if sum(x / i for i, x in enumerate(ranked, start=1)) > 1:
        return None
    parts = []
    for s in range(1, k + 1):
        drop = ranked[s - 1] - (ranked[s] if s < k else Fraction(0))
        weight = harmonic(s) * drop
        if weight:
            parts.append((frozenset(i + 1 for i in order[:s]), weight))
    return parts


def combination_value(parts, k: int) -> tuple:
    """Evaluate a weighted corner combination back into coordinates."""
    coords = [Fraction(0)] * k
    for support, weight in parts:
        coord = weight / harmonic(len(support))
        for r in support:
            coords[r - 1] += coord
    return tuple(coords)
