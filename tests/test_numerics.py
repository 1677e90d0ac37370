"""Tests for the numerical kernel: RNG streams, rank decisions, capacity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedcsit import numerics
from delayedcsit.numerics import (
    RANK_RTOL,
    RngStream,
    as_complex_matrix,
    haar_unitaries,
    STACK_BYTES,
    numerical_rank,
    singular_rank,
    stacks,
    unit_residuals,
    units_inside,
)
from oracles import (
    NumericalDomainError,
    complex_normals,
    logdet_capacity,
    rowspace_residuals,
)


def test_rng_stream_reproducible():
    a = RngStream(123, 4).complex_normal((3, 5))
    b = RngStream(123, 4).complex_normal((3, 5))
    assert np.array_equal(a, b)


def test_rng_stream_split_independent():
    base = RngStream(9)
    x = base.split(0).standard_normal(1000)
    y = base.split(1).standard_normal(1000)
    assert not np.array_equal(x, y)
    # sibling with the same index is the same stream
    assert np.array_equal(base.split(3).standard_normal(8),
                          RngStream(9, 3).standard_normal(8))


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(3, -2)
    with pytest.raises(ValueError):
        RngStream(1.5)


def test_complex_normal_is_unit_variance():
    z = RngStream(7).complex_normal(20000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.03
    assert abs(np.mean(z)) < 0.03


_shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@given(st.lists(st.tuples(st.sampled_from("abc"), _shapes), min_size=1,
                max_size=8),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_complex_normals_equal_consecutive_draws(draws, seed):
    # the tests' gather of many draws from one generator call (the
    # reference of AirLog.draw's padded draw) is bit for bit one
    # complex_normal call per draw, and both are the definition; one
    # shape per key: the first one drawn under it
    first = {}
    draws = [(key, first.setdefault(key, shape)) for key, shape in draws]
    ref, one, many = (RngStream(seed, 1) for _ in range(3))
    want, calls = {}, {}
    for key, shape in draws:
        # the definition: real parts, then imaginary parts, over sqrt(2)
        re = ref.standard_normal(shape)
        im = ref.standard_normal(shape)
        want.setdefault(key, []).append((re + 1j * im) / np.sqrt(2.0))
        calls.setdefault(key, []).append(one.complex_normal(shape))
    got = complex_normals(many, draws)
    assert set(got) == set(want)
    for key, parts in want.items():
        stacked = np.stack(parts)
        assert got[key].shape == stacked.shape, key
        assert got[key].tobytes() == stacked.tobytes(), key
        assert np.stack(calls[key]).tobytes() == stacked.tobytes(), key
    # all three streams go on from the same state
    after = {s.standard_normal(4).tobytes() for s in (ref, one, many)}
    assert len(after) == 1


def test_complex_normals_rejects_two_shapes_under_one_key():
    with pytest.raises(ValueError):
        complex_normals(RngStream(1), [("a", (2, 2)), ("a", (3, 3))])
    assert complex_normals(RngStream(1), []) == {}


def test_as_complex_matrix_validation():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan * 1j, 0], [0, 1]])


def test_haar_unitary_is_unitary_and_deterministic():
    (u,) = haar_unitaries(RngStream(11).complex_normal((1, 6, 6)))
    assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    (v,) = haar_unitaries(RngStream(11).complex_normal((1, 6, 6)))
    assert np.array_equal(u, v)
    with pytest.raises(ValueError):
        haar_unitaries(np.zeros((1, 0, 0)))
    with pytest.raises(ValueError):
        haar_unitaries(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        haar_unitaries(np.ones(3))


@pytest.mark.parametrize("n", range(1, 7))
def test_haar_unitaries_equal_per_matrix_qr(n):
    # the stacked QR gives each matrix the bits of its own QR, phases
    # of R's diagonal folded into Q's columns, and a unitary to 1e-12
    z = RngStream(n, 5).complex_normal((40, n, n))
    u = haar_unitaries(z)
    assert u.shape == z.shape
    for zi, ui in zip(z, u):
        q, r = np.linalg.qr(zi)
        d = np.diagonal(r)
        assert ui.tobytes() == (q * (d / np.abs(d))).tobytes()
        assert np.allclose(ui @ ui.conj().T, np.eye(n), rtol=0, atol=1e-12)
        # the folded R has a positive real diagonal: Q is unique, so Haar
        assert np.allclose(ui.conj().T @ zi, np.triu(ui.conj().T @ zi),
                           rtol=0, atol=1e-12)
        assert np.all(np.diagonal(ui.conj().T @ zi).real > 0)


def test_numerical_rank_constructed_cases():
    rng = RngStream(2)
    a = rng.complex_normal((4, 2))
    b = rng.complex_normal((2, 6))
    # product of a 4x2 and 2x6 has rank exactly 2
    assert numerical_rank(a @ b) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((0, 4))) == 0


def test_numerical_rank_respects_tolerance():
    # the one rule, s > 1e-9 s_0, on the singular values 1, 1e-3 and
    # 1e-12 at any scale: 1e-3 is kept and 1e-12 dropped, a value just
    # above the threshold is kept and one at it dropped
    s = np.array([1.0, 1e-3, 1e-12])
    assert RANK_RTOL == 1e-9
    for scale in (1e-12, 1.0, 1e12):
        assert numerical_rank(np.diag(s * scale)) == singular_rank(s * scale) == 2
    above = float(np.nextafter(RANK_RTOL, 1.0))
    assert singular_rank([1.0, 1e-3, above]) == 3
    assert singular_rank([1.0, RANK_RTOL, 1e-12]) == 1


def test_rank_rule_is_per_matrix_on_stacks():
    s = np.array([[2.0, 1e-3, 1e-12], [1e-6, 1e-15, 0.0], [0.0, 0.0, 0.0]])
    assert singular_rank(s).tolist() == [2, 1, 0]
    assert singular_rank(s[0]) == 2 and isinstance(singular_rank(s[0]), int)
    assert singular_rank([]) == 0
    stack = np.stack([np.diag(row) for row in s])
    assert numerical_rank(stack).tolist() == [2, 1, 0]
    assert numerical_rank(np.zeros((2, 0, 3))).tolist() == [0, 0]


def test_stacks_group_by_key_under_the_byte_cap():
    assert stacks([], 8) == []
    assert stacks(["a", "b", "a", "a"], 8) == [[0, 2, 3], [1]]
    half = STACK_BYTES // 2
    assert stacks(["a"] * 5, half) == [[0, 1], [2, 3], [4]]
    # an item above the cap is a stack of its own
    assert stacks(["a", "a"], STACK_BYTES + 1) == [[0], [1]]


def _in_rowspace(a, v):
    """The verdict of :func:`rowspace_residuals` on one row vector ``v``."""
    (g,), (thr,), *_ = rowspace_residuals(a, np.asarray(v)[np.newaxis, :])
    return bool(g <= thr)


def test_in_rowspace():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert _in_rowspace(a, np.array([2.0, -3.0, 0.0]))
    assert not _in_rowspace(a, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        _in_rowspace(a, np.array([1.0, 0.0]))
    # distances far below 1e-8 are resolved, on both sides of the
    # threshold 1e-9 * sqrt(1 + 1); the residual is the singular value
    # that stacking v adds
    for delta, inside, rel in ((1e-7, False, 1e-6), (1e-11, True, 1e-3)):
        v = np.array([0.6, 0.8j, delta])
        assert _in_rowspace(a, v) == inside
        (g,), (thr,), *_ = rowspace_residuals(a, v[np.newaxis, :])
        added = np.linalg.svd(np.vstack([a, v]), compute_uv=False)[-1]
        assert g == pytest.approx(added, rel=rel)
        assert thr == pytest.approx(1e-9 * math.sqrt(2.0), rel=1e-12)
    # next to a tiny kept singular value the verdict still follows the
    # stacked-rank rule, which the plain distance from the row space
    # does not: [1, 1, 1e-3] is 1e-3 away but adds a singular value of
    # only about 1e-11
    skew = np.diag([1.0, 1e-8, 0.0])
    for v in ([1.0, 1.0, 0.0], [1.0, 1.0, 1e-3], [0.0, 0.0, 1e-3],
              [1.0, 0.0, 1e-5]):
        stacked = np.vstack([skew, v])
        assert _in_rowspace(skew, np.array(v)) == (
            numerical_rank(stacked) == numerical_rank(skew)), v
    # nothing but the zero vector lies in the row space of no rows
    empty = np.zeros((0, 3))
    assert _in_rowspace(empty, np.zeros(3))
    assert not _in_rowspace(empty, np.array([0.0, 1e-3, 0.0]))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_rowspace_residuals_equal_per_matrix(rows, cols, count, seed):
    # a stack of matrices of mixed rank (a product of rank 1..min) gives
    # each matrix the bits of its own call, and a margin per matrix
    rng = RngStream(seed)
    ranks = [1 + i % min(rows, cols) for i in range(count)]
    a = np.stack([rng.complex_normal((rows, r)) @ rng.complex_normal((r, cols))
                  for r in ranks]) if count else np.zeros((0, rows, cols))
    v = rng.complex_normal((count, 2, cols))
    v[:, 1] = rng.complex_normal(rows) @ a if count else v[:, 1]
    residuals, thresholds, kept, dropped = rowspace_residuals(a, v)
    assert residuals.shape == thresholds.shape == (count, 2)
    assert kept.shape == dropped.shape == (count,)
    for i in range(count):
        g, thr, margin, drop = rowspace_residuals(a[i], v[i])
        assert residuals[i].tobytes() == g.tobytes()
        assert thresholds[i].tobytes() == thr.tobytes()
        assert kept[i] == margin and margin.shape == ()
        assert dropped[i] == drop and drop.shape == ()
        sv = np.linalg.svd(a[i], compute_uv=False)
        assert margin == pytest.approx(sv[ranks[i] - 1] / sv[0], rel=1e-9)
        # what a rank-r product drops is roundoff, and full rank drops nothing
        assert 0.0 <= drop <= 1e-12 and (drop == 0.0) >= (ranks[i] == min(rows, cols))
        # the second row lies in the row space, the first does not
        assert g[1] <= thr[1] and g[0] > thr[0] or ranks[i] == cols


def test_rowspace_residuals_shapes():
    a = np.eye(3)[:2]
    with pytest.raises(ValueError):
        rowspace_residuals(np.stack([a, a]), a)  # one set of rows for two
    with pytest.raises(ValueError):
        rowspace_residuals(np.stack([a, a]), np.ones((2, 1, 2)))
    # nothing is kept, and nothing dropped, in a matrix of no rows
    g, thr, kept, dropped = rowspace_residuals(np.zeros((2, 0, 3)), np.ones((2, 1, 3)))
    assert g.shape == thr.shape == (2, 1) and kept.tolist() == [np.inf, np.inf]
    assert dropped.tolist() == [0.0, 0.0]


def _counted_svd(monkeypatch):
    """The shapes of the stacks ``np.linalg.svd`` factors from now on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw))
    return calls


def _near_floor(ratio):
    """A 2 x 2 matrix whose singular values are 1 and ``ratio`` times
    NumPy's floor, ``max(m, n) eps``, rotated by Haar unitaries; every
    unit row lies in its row space."""
    u, v = haar_unitaries(RngStream(5).complex_normal((2, 2, 2)))
    return u @ np.diag([1.0, ratio * 2 * np.finfo(float).eps]) @ v


def test_units_inside_certifies_or_decides_from_the_svd(monkeypatch):
    # the verdict is unit_residuals' whether or not R certifies the stack:
    # the certificate (full row rank, every d below a lower threshold)
    # skips svd(R), and each way it declines falls back to it
    calls = _counted_svd(monkeypatch)
    declines = [
        # exactly singular R: the inverse raises
        ("singular", [[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]], [[0]], False),
        ("deaf", np.zeros((1, 2, 3)), [[0]], False),
        # full rank at the floor, but the inverse's norm overflows
        ("overflow", [[[1.0, 0.0, 0.0], [0.0, 1e-300, 0.0]]], [[0]], False),
        ("more rows than columns", np.eye(3)[np.newaxis, :, :2], [[0]], False),
        # full rank, 4x above the floor: within C = 16 of it
        ("near the floor", [_near_floor(4.0)], [[0, 1]], True),
        # s_0^2 = 1 against ||R||_F^2 / m = 0.505: d = 1.3e-9 lies between
        # the lower threshold 1.227e-9 and thr = 1.414e-9
        ("d above the lower threshold", [[[1.0, 0.0, 1.3e-9], [0.0, 0.1, 0.0]]],
         [[0]], True),
        ("no entries", np.zeros((1, 0, 2)), [[1]], False),
    ]
    for name, a, targets, want in declines:
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = units_inside(a, targets)
        assert calls or name == "no entries", name
        assert got == bool((unit_residuals(a, targets)[0] <= 1).all()) == want, name
    # what R certifies: no SVD, the same verdict
    certifies = [
        ("far from the floor", [_near_floor(64.0)], [[0, 1]]),
        ("stack", [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]]], [[0], [1]]),
        ("wide", [[[1.0, 0.0, 0.0], [0.0, 1.0, 1e-12]]], [[0]]),
    ]
    for name, a, targets in certifies:
        calls.clear()
        assert units_inside(a, targets), name
        assert not calls, name
        assert (unit_residuals(a, targets)[0] <= 1).all(), name
    # triangles larger than the inverse's leaves: the row space of
    # symbols 0 to 36 of 40, with one row scaled down to 1e-14, within C
    # of the floor (40 eps = 8.9e-15), or not at all
    m = haar_unitaries(RngStream(6).complex_normal((2, 37, 37)))
    for scale, certified in ((1.0, True), (1e-14, False)):
        a = np.concatenate([m, np.zeros((2, 37, 3))], axis=-1)
        a[:, -1] *= scale
        targets = [[0, 5, 36]] * 2
        calls.clear()
        got = units_inside(a, targets)
        assert bool(calls) != certified, scale
        assert got == bool((unit_residuals(a, targets)[0] <= 1).all()), scale
        assert got or not certified, scale


def test_triangular_inverse_by_halves():
    # the blocked recursion is the inverse: a product with R is the
    # identity, and every entry below the diagonal stays exactly zero
    for m in (1, 16, 17, 40, 137):
        z = RngStream(m).complex_normal((2, m, m))
        r = np.triu(z) + 4 * np.eye(m)
        x = numerics._triangular_inverse(r)
        assert np.allclose(r @ x, np.eye(m), atol=1e-12), m
        assert not np.tril(x, -1).any(), m
    with pytest.raises(np.linalg.LinAlgError):
        numerics._triangular_inverse(np.triu(np.ones((1, 20, 20))) - np.eye(20) * (np.arange(20) == 19))


def test_rank_margin_on_both_sides():
    # the rank rule (s > 1e-9 s_0) keeps 1e-8 and drops 1e-10: the margin
    # of the decision lies between the smallest kept and largest dropped
    v = np.ones((1, 3))
    *_, kept, dropped = rowspace_residuals(np.diag([2.0, 2e-8, 2e-10]), v)
    assert kept == pytest.approx(1e-8, rel=1e-12)
    assert dropped == pytest.approx(1e-10, rel=1e-12)
    # full rank drops nothing; a zero matrix keeps nothing and drops zeros
    *_, kept, dropped = rowspace_residuals(np.diag([2.0, 1.0, 0.5]), v)
    assert (kept, dropped) == (0.25, 0.0)
    *_, kept, dropped = rowspace_residuals(np.zeros((2, 3)), v)
    assert (kept, dropped) == (np.inf, 0.0)


def test_logdet_capacity_scalar_oracle():
    g = np.array([[1.5 - 0.5j]])
    snr = 100.0
    want = math.log2(1.0 + snr * abs(g[0, 0]) ** 2)
    got = logdet_capacity(g, np.eye(1), snr)
    assert abs(got - want) < 1e-12


def test_logdet_capacity_diagonal_oracle():
    g = np.diag([2.0, 0.5]).astype(complex)
    cov = np.diag([1.0, 4.0]).astype(complex)
    p = 10.0
    want = math.log2(1 + p * 4.0 / 1.0) + math.log2(1 + p * 0.25 / 4.0)
    assert abs(logdet_capacity(g, cov, p) - want) < 1e-12


def test_logdet_capacity_edge_cases():
    g = np.array([[1.0 + 0j]])
    assert logdet_capacity(g, np.eye(1), 0.0) == 0.0
    with pytest.raises(ValueError):
        logdet_capacity(g, np.eye(1), -1.0)
    with pytest.raises(NumericalDomainError):
        logdet_capacity(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(NumericalDomainError):
        logdet_capacity(np.eye(2), -np.eye(2), 1.0)
    with pytest.raises(ValueError):
        logdet_capacity(g, np.eye(2), 1.0)


def test_logdet_capacity_monotone_in_power():
    rng = RngStream(3)
    g = rng.complex_normal((3, 2))
    cov = np.eye(3)
    rates = [logdet_capacity(g, cov, p) for p in (0.0, 1.0, 10.0, 100.0)]
    assert rates == sorted(rates)
    assert rates[0] == 0.0


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rank_of_gaussian_matrix_is_full(rows, cols, seed):
    a = RngStream(seed).complex_normal((rows, cols))
    assert numerical_rank(a) == min(rows, cols)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_capacity_unitary_invariance(seed):
    """Rotating the equation stack by a unitary changes nothing."""
    rng = RngStream(seed)
    g = rng.complex_normal((3, 3))
    (u,) = haar_unitaries(rng.complex_normal((1, 3, 3)))
    direct = logdet_capacity(g, np.eye(3), 2.0)
    rotated = logdet_capacity(u @ g, np.eye(3), 2.0)
    assert abs(direct - rotated) < 1e-9
