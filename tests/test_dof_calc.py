"""Exact-rational DoF formulas: closed forms, bounds, recursion, identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedcsit.dof_calc import (
    DofQuery,
    NonsquarePhaseParams,
    OutOfRegimeError,
    coherence_dof,
    dof_square,
    dof_upper,
    harmonic,
    hockey_stick,
    identity_check,
    nonsquare_closed_form,
    nonsquare_recursion,
    outer_bound_lhs,
)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_dof_query_validation():
    q = DofQuery(2, 3, 1)
    assert q.square_regime is False
    assert DofQuery(3, 3, 1).square_regime is True
    with pytest.raises(ValueError):
        DofQuery(0, 3, 1)
    with pytest.raises(ValueError):
        DofQuery(2, 3, 4)
    with pytest.raises(ValueError):
        DofQuery(2, 3, 0)


def test_dof_square_known_values():
    assert dof_square(2, 1) == Fraction(4, 3)
    assert dof_square(3, 1) == Fraction(18, 11)
    assert dof_square(3, 2) == Fraction(6, 5)
    assert dof_square(4, 1) == Fraction(48, 25)
    assert dof_square(1, 1) == 1
    # order k is a plain broadcast: one symbol per slot
    for k in range(1, 8):
        assert dof_square(k, k) == 1


def test_dof_square_is_k_over_harmonic_at_order_one():
    for k in range(1, 25):
        assert dof_square(k, 1) == Fraction(k) / harmonic(k)


def test_dof_square_decreases_with_order():
    for k in range(2, 12):
        vals = [dof_square(k, j) for j in range(1, k + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dof_upper_known_values():
    assert dof_upper(DofQuery(2, 3, 1)) == Fraction(3, 2)
    assert dof_upper(DofQuery(2, 2, 1)) == Fraction(4, 3)
    assert dof_upper(DofQuery(3, 3, 1)) == Fraction(18, 11)
    # one antenna can never beat one symbol per slot
    for k in range(1, 10):
        assert dof_upper(DofQuery(1, k, 1)) == 1


def test_tightness_at_minimal_square_antennas():
    for k in range(1, 12):
        for j in range(1, k + 1):
            q = DofQuery(k - j + 1, k, j)
            assert dof_square(k, j) == dof_upper(q)


def test_upper_bound_nondecreasing_in_antennas():
    for k in range(1, 12):
        for j in range(1, k + 1):
            vals = [dof_upper(DofQuery(m, k, j)) for m in range(1, k + 2)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_nonsquare_recursion_values():
    assert nonsquare_recursion(DofQuery(2, 3, 1)) == Fraction(24, 17)
    assert nonsquare_recursion(DofQuery(2, 4, 1)) == Fraction(96, 67)
    assert nonsquare_recursion(DofQuery(3, 5, 1)) == Fraction(405, 227)
    assert nonsquare_recursion(DofQuery(2, 4, 2)) == Fraction(24, 19)
    # with one antenna every order collapses to a single broadcast
    for k in range(1, 8):
        for j in range(1, k + 1):
            assert nonsquare_recursion(DofQuery(1, k, j)) == 1


def test_nonsquare_recursion_matches_square_in_regime():
    for k in range(1, 10):
        for j in range(1, k + 1):
            q = DofQuery(k - j + 1, k, j)
            assert nonsquare_recursion(q) == dof_square(k, j)
            big = DofQuery(k, k, j)
            assert nonsquare_recursion(big) == dof_square(k, j)


def test_nonsquare_recursion_between_bounds():
    for m in range(1, 5):
        for k in range(m + 1, 10):
            q = DofQuery(m, k, 1)
            assert 1 <= nonsquare_recursion(q) <= dof_upper(q)


def test_nonsquare_recursion_has_no_depth_limit():
    # 1,500 levels, far past the interpreter's recursion limit
    q = DofQuery(2, 1500, 1)
    assert nonsquare_recursion(q) == nonsquare_closed_form(q)
    assert nonsquare_recursion(q) <= dof_upper(q)


def test_closed_form_printed_disagrees_with_recursion():
    q = DofQuery(2, 3, 1)
    assert nonsquare_closed_form(q, "printed") == Fraction(9, 7)
    assert nonsquare_closed_form(q, "printed") != nonsquare_recursion(q)


def test_closed_form_corrected_matches_recursion():
    assert nonsquare_closed_form(DofQuery(2, 3, 1)) == Fraction(24, 17)
    for m in range(1, 5):
        for k in range(1, 9):
            for j in range(1, k + 1):
                if m < k - j + 1:
                    q = DofQuery(m, k, j)
                    assert nonsquare_closed_form(q) == nonsquare_recursion(q)


def test_closed_form_rejects_square_regime_and_bad_mode():
    with pytest.raises(OutOfRegimeError):
        nonsquare_closed_form(DofQuery(3, 3, 1))
    with pytest.raises(ValueError):
        nonsquare_closed_form(DofQuery(2, 3, 1), "fixed")


def test_phase_params_square_collapse():
    # with enough antennas the antenna-limited parameters collapse to the
    # plain phase: one slot per subset, k-j+1 forms in, j out per subset
    p = NonsquarePhaseParams.for_query(DofQuery(3, 3, 1))
    assert (p.q, p.eta, p.beta, p.slots_per_subphase) == (2, 2, 3, 1)
    p = NonsquarePhaseParams.for_query(DofQuery(2, 3, 1))
    assert (p.q, p.eta, p.beta, p.slots_per_subphase) == (1, 1, 4, 2)
    with pytest.raises(ValueError):
        NonsquarePhaseParams.for_query(DofQuery(2, 3, 3))


def test_outer_bound_symmetric_point_saturates():
    k = 3
    d = {}
    from itertools import combinations
    for s in combinations(range(1, k + 1), 1):
        d[s] = Fraction(6, 11)
    for pi in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
        assert outer_bound_lhs(k, 1, d, pi) == 1


def test_outer_bound_validation():
    d = {(1,): Fraction(1, 2), (2,): Fraction(1, 2)}
    with pytest.raises(ValueError):
        outer_bound_lhs(2, 1, d, (1, 1))
    with pytest.raises(ValueError):
        outer_bound_lhs(2, 1, {(1,): Fraction(1, 2)}, (1, 2))


def test_identity_check_small_cases():
    for k in range(1, 12):
        for j in range(1, k + 1):
            lhs, rhs = identity_check(k, j)
            assert lhs == rhs, (k, j)


@given(st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_identity_check_property(k):
    for j in range(1, k + 1):
        lhs, rhs = identity_check(k, j)
        assert lhs == rhs


@given(st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_hockey_stick_property(a, b):
    p, q = min(a, b), max(a, b)
    lhs, rhs = hockey_stick(p, q)
    assert lhs == rhs


def test_hockey_stick_validation():
    with pytest.raises(ValueError):
        hockey_stick(3, 2)
    with pytest.raises(ValueError):
        hockey_stick(-1, 2)


def test_coherence_dof():
    assert coherence_dof(2) == Fraction(2, 7) * 2  # (2t-2)/(3t/2 + 1/2) at t=2
    assert coherence_dof(Fraction(3)) == Fraction(4, 5)
    with pytest.raises(ValueError):
        coherence_dof(1)


@given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_recursion_monotone_in_antennas(m, k_raw, j_raw):
    """More transmit antennas never hurt the achievable DoF."""
    k = max(k_raw, 2)
    j = 1 + (j_raw - 1) % k
    a = nonsquare_recursion(DofQuery(m, k, j))
    b = nonsquare_recursion(DofQuery(m + 1, k, j))
    assert b >= a
