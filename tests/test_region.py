"""Region membership, corners, and time-sharing decomposition."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedcsit.dof_calc import harmonic
from delayedcsit.region import (
    as_point,
    combination_value,
    corner_candidates,
    decompose_time_sharing,
    in_region,
    symmetric_corner,
    tight_permutations,
)


def test_as_point_coercion():
    pt = as_point(["2/3", 0.5, 1, Fraction(1, 4)])
    assert pt == (Fraction(2, 3), Fraction(1, 2), 1, Fraction(1, 4))
    assert all(isinstance(x, Fraction) for x in pt)
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([Fraction(1, 2), Fraction(-1, 3)])


def test_membership_examples():
    assert in_region(["2/3", "2/3"])
    assert in_region([1, 0, 0])
    assert not in_region([1, "1/2"])
    assert not in_region(["2/3", "2/3", "1/100"])
    assert in_region([0, 0, 0, 0])
    # boundary of the single-user constraint
    assert in_region([1])
    assert not in_region(["101/100"])


def test_mode_and_argument_validation():
    with pytest.raises(ValueError):
        in_region(["1/2", "1/2"], mode="fast")
    with pytest.raises(ValueError):
        in_region([0] * 9, mode="exhaustive")


def test_tight_permutations_symmetric_corner():
    for k in range(1, 5):
        tights = tight_permutations(symmetric_corner(k))
        assert len(tights) == math.factorial(k)
    # an interior point is tight nowhere
    assert tight_permutations(["1/4", "1/4", "1/4"]) == []
    # (2/3, 2/3) saturates both orderings
    assert sorted(tight_permutations(["2/3", "2/3"])) == [(1, 2), (2, 1)]
    # (1, 0) saturates only the ordering that puts receiver 1 first
    assert tight_permutations([1, 0]) == [(1, 2)]


def _tight_by_scan(pt):
    """Every ordering whose constraint equals 1, by checking all k!."""
    return [tuple(r + 1 for r in order)
            for order in permutations(range(len(pt)))
            if sum(pt[r] / i for i, r in enumerate(order, start=1)) == 1]


def test_tight_permutations_equal_exhaustive_scan():
    # corners, random points (as in acceptance 7), the same points moved
    # onto the boundary, and points scaled so one random ordering is
    # saturated, which leaves most of them outside the region
    rnd = random.Random(11)
    for k in range(1, 7):
        points = list(corner_candidates(k))
        h = harmonic(k)
        for _ in range(12):
            pt = tuple(Fraction(rnd.randint(0, 1500), 1000) / h
                       for _ in range(k))
            points.append(pt)
            if any(pt):
                value = sum(x / i for i, x in enumerate(
                    sorted(pt, reverse=True), start=1))
                points.append(tuple(x / value for x in pt))
                order = rnd.sample(range(k), k)
                value = sum(pt[r] / i for i, r in enumerate(order, start=1))
                if value:
                    points.append(tuple(x / value for x in pt))
        ties = tuple(Fraction(rnd.randint(0, 2), 3) for _ in range(k))
        points.append(ties)
        for pt in points:
            assert tight_permutations(pt) == _tight_by_scan(pt), pt


def test_tight_permutations_past_eight_receivers():
    # k = 10 on the boundary: distinct coordinates leave one saturated
    # ordering, one tie leaves two; an interior point leaves none
    k = 10
    desc = [Fraction(k + 1 - i) for i in range(1, k + 1)]
    value = sum(x / i for i, x in enumerate(desc, start=1))
    pt = [desc[r] / value for r in (3, 0, 9, 1, 8, 2, 7, 4, 6, 5)]
    assert in_region(pt)
    best = tuple(sorted(range(1, k + 1), key=lambda r: -pt[r - 1]))
    assert tight_permutations(pt) == [best]
    assert best[:2] == (2, 4)
    tied = list(pt)
    tied[1] = tied[3] = (pt[1] + pt[3]) / 2  # the two largest
    value = sum(x / i for i, x in enumerate(
        sorted(tied, reverse=True), start=1))
    tied = [x / value for x in tied]
    assert tight_permutations(tied) == [best, (4, 2) + best[2:]]
    assert tight_permutations([x / 2 for x in pt]) == []


@given(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=12),
                min_size=1, max_size=5))
def test_sorted_equals_exhaustive(coords):
    assert in_region(coords, mode="sorted") == in_region(coords,
                                                         mode="exhaustive")


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10),
                min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_membership_is_permutation_symmetric(coords, rnd):
    shuffled = list(coords)
    rnd.shuffle(shuffled)
    assert in_region(coords) == in_region(shuffled)


def test_big_rational_fallback_path():
    # denominators chosen so the int64 fast path is skipped
    huge = Fraction(2 ** 40, 3 ** 26)
    pt = [huge, Fraction(1, 3 ** 26), Fraction(1, 2 ** 40)]
    assert in_region(pt, mode="sorted") == in_region(pt, mode="exhaustive")
    tiny = [Fraction(1, 2 ** 70), Fraction(1, 3 ** 45)]
    assert in_region(tiny, mode="exhaustive")


def test_corner_candidates_structure():
    for k in range(1, 5):
        pts = corner_candidates(k)
        assert len(pts) == 2 ** k
        assert len(set(pts)) == 2 ** k
        for pt in pts:
            assert in_region(pt)
        # the nonzero corners with support size s are tight for exactly
        # the orderings that list S first: s! * (k-s)! of them
        for pt in pts[1:]:
            s = sum(1 for x in pt if x)
            assert len(tight_permutations(pt)) == (
                math.factorial(s) * math.factorial(k - s))
    with pytest.raises(ValueError):
        corner_candidates(7)
    with pytest.raises(ValueError):
        corner_candidates(0)


def test_symmetric_corner_values():
    assert symmetric_corner(1) == (1,)
    assert symmetric_corner(2) == (Fraction(2, 3),) * 2
    assert symmetric_corner(3) == (Fraction(6, 11),) * 3
    with pytest.raises(ValueError):
        symmetric_corner(0)


def _int_det(m):
    """Exact determinant of a small integer matrix (fraction-free
    Bareiss elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if a[col][col] == 0:
            pivot = next((r for r in range(col + 1, n) if a[r][col]), None)
            if pivot is None:
                return 0
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col]
                           - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def _vertices_by_brute_force(k):
    """All vertices of the polyhedron, from exact basic feasible solutions.

    Constraints are scaled to integers (lcm of the position weights), a
    basis is any k-subset with nonzero determinant, and the basic
    solution comes from Cramer's rule.
    """
    scale = math.lcm(*range(1, k + 1))
    cons = []  # (row, rhs) with row . d <= rhs, all integer
    for order in permutations(range(k)):
        row = [0] * k
        for pos, r in enumerate(order, start=1):
            row[r] = scale // pos
        cons.append((row, scale))
    for r in range(k):
        row = [0] * k
        row[r] = -1
        cons.append((row, 0))
    verts = set()
    for chosen in combinations(cons, k):
        rows = [c[0] for c in chosen]
        rhs = [c[1] for c in chosen]
        det = _int_det(rows)
        if det == 0:
            continue
        nums = []
        for col in range(k):
            patched = [row[:col] + [b] + row[col + 1:]
                       for row, b in zip(rows, rhs)]
            nums.append(_int_det(patched))
        if all(sum(a * x for a, x in zip(row, nums)) * det <= b * det * det
               for row, b in cons):
            verts.add(tuple(Fraction(x, det) for x in nums))
    return verts


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_corner_candidates_are_exactly_the_vertices(k):
    assert _vertices_by_brute_force(k) == set(corner_candidates(k))


def test_decompose_corner_is_itself():
    for k in (2, 3):
        for pt in corner_candidates(k)[1:]:
            support = frozenset(r + 1 for r, x in enumerate(pt) if x)
            assert decompose_time_sharing(pt) == [(support, Fraction(1))]


def test_decompose_examples():
    assert decompose_time_sharing([0, 0]) == []
    assert decompose_time_sharing([1, "1/2"]) is None
    parts = decompose_time_sharing(["1/2", "1/2"])
    assert combination_value(parts, 2) == (Fraction(1, 2), Fraction(1, 2))
    assert sum(w for _, w in parts) == Fraction(3, 4)
    # weights reproduce the sorted constraint value exactly
    parts = decompose_time_sharing(["2/3", "1/3"])
    assert sum(w for _, w in parts) == Fraction(2, 3) + Fraction(1, 3) / 2
    assert combination_value(parts, 2) == (Fraction(2, 3), Fraction(1, 3))


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16),
                min_size=1, max_size=4))
def test_decompose_iff_member(coords):
    parts = decompose_time_sharing(coords)
    if in_region(coords):
        assert parts is not None
        assert combination_value(parts, len(coords)) == as_point(coords)
        assert sum((w for _, w in parts), Fraction(0)) <= 1
        # supports form a nested chain
        sups = [s for s, _ in parts]
        for small, big in zip(sups, sups[1:]):
            assert small < big
    else:
        assert parts is None


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8),
                min_size=2, max_size=3))
def test_decomposition_weights_are_corner_coefficients(coords):
    parts = decompose_time_sharing(coords)
    if parts is None:
        return
    # rebuild from the actual corner coordinates, not just the supports
    k = len(coords)
    total = [Fraction(0)] * k
    for support, weight in parts:
        corner = tuple(
            1 / harmonic(len(support)) if r in support else Fraction(0)
            for r in range(1, k + 1))
        assert in_region(corner)
        total = [t + weight * c for t, c in zip(total, corner)]
    assert tuple(total) == as_point(coords)
