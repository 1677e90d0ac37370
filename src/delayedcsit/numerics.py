"""Complex dense linear algebra, rank decisions, and reproducible sampling.

Everything downstream (symbol ledgers, scheme runners, rate simulation)
funnels its numerical work through this module: batched complex
Gaussian draws, stacked Haar unitaries (squares of several sizes in one
stack, each padded to the largest), SVD-based rank tests and, by one
QR per matrix of full row rank, membership of unit rows in a row space,
as margins or as a verdict.  The verdict proves full row rank from the
triangular factor's inverse, and takes its SVD and solves only where
that proof falls short.
The linear algebra works on stacks of matrices of one shape, so that
many small matrices share one numpy call; one matrix goes through the
same code.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` dtype;
:func:`as_complex_matrix` is the validating constructor used at module
boundaries.
"""

import math
import numbers

import numpy as np

__all__ = [
    "RANK_RTOL",
    "RngStream",
    "as_complex_matrix",
    "haar_unitaries",
    "numerical_rank",
    "singular_rank",
    "stacks",
    "unit_residuals",
    "units_inside",
]

#: Relative threshold of the one rank rule, ``s > RANK_RTOL * s_0``
#: (:func:`singular_rank`): :func:`numerical_rank`, and with it the
#: alignment ranks and the rate path's interference ranks, whose kept
#: values lie at least 2.1e-2 of ``s_0`` and dropped ones at most 5.1e-16
#: on square-3 to square-6.  The decode check does not decide rank by it:
#: a decode matrix has full row rank, and its generic singular values
#: shrink with the scheme's size, below this value: the smallest
#: ``s_min / s_0`` is 5.3e-10 in square-6 (stream ``(110044, 0)``), 8.8e-10
#: in square-7 and 1.4e-10 in the ``(3, 6)`` chain (at ``(1, 0)``).  The
#: certificate of :func:`units_inside` still proves them above NumPy's
#: floor, where ``1 / (||R||_F ||R^-1||_F)`` must exceed
#: :data:`_CERTIFY_C` = 16 floors: the smallest such margin is 1.3e3
#: floors in those square-6 streams, 94 in square-7 and 21 in ``(3,
#: 6)``.  There :func:`unit_residuals` takes the rank from NumPy's floor, and
#: ``RANK_RTOL`` only scales the threshold of the residuals.  The
#: threshold is linear in the tolerance, so no other tolerance needs a
#: run of its own: the verdict at any tolerance ``tau`` is ``ratio <= tau
#: / RANK_RTOL`` for the ratios that :func:`unit_residuals` returns.
RANK_RTOL = 1e-9


def singular_rank(s):
    """Rank of a matrix with singular values ``s``, largest first: how
    many exceed ``RANK_RTOL * s_0``, 0 when there are none or the largest
    is exactly zero.  A stack ``(..., n)`` gets an array of ranks, matrix
    by matrix."""
    s = np.asarray(s)
    ranks = (s > RANK_RTOL * s[..., :1]).sum(axis=-1)
    return int(ranks) if np.ndim(ranks) == 0 else ranks

class RngStream:
    """Splittable deterministic random stream.

    A stream is identified by a ``(seed, index)`` pair.  Identical pairs
    always reproduce the identical sample sequence, and distinct indices
    under the same seed are statistically independent, so parallel
    consumers (one stream per Monte Carlo trial) never share state.

    Parameters
    ----------
    seed : int
        Master seed (64-bit unsigned).
    index : int
        Stream index within the seed's family.
    """

    __slots__ = ("seed", "index", "_gen")

    def __init__(self, seed: int, index: int = 0):
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        if not isinstance(index, numbers.Integral) or index < 0:
            raise ValueError(f"index must be a nonnegative integer, got {index!r}")
        self.seed = int(seed)
        self.index = int(index)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, index: int) -> "RngStream":
        """Return the independent sibling stream ``(seed, index)``."""
        return RngStream(self.seed, index)

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)

    def complex_normal(self, shape):
        """Circularly-symmetric complex Gaussian samples, CN(0, 1): from
        ``2 * size`` consecutive :meth:`normal_parts`, the real parts
        first."""
        shape = (shape,) if isinstance(shape, numbers.Integral) else tuple(shape)
        parts = self.normal_parts(2 * math.prod(shape)).reshape(2, -1)
        return np.ascontiguousarray(parts.T).view(np.complex128).reshape(shape)

    def normal_parts(self, total: int) -> np.ndarray:
        """``total`` standard normals from one generator call, scaled by
        ``1 / sqrt(2)``: the real and imaginary parts of CN(0, 1) draws.
        numpy divides a complex by a real as a product with its
        reciprocal, so these are the bits of ``(re + 1j * im) /
        sqrt(2)``; a caller that lays out its own draws scatters them."""
        return self._gen.standard_normal(total) * (1.0 / np.sqrt(2.0))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert ``a`` to a complex128 matrix, or to a stack of
    matrices of one shape, ``(..., rows, cols)``.

    Raises
    ------
    ValueError
        If the input has fewer than two dimensions or contains NaN/Inf
        entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a 2-D matrix or a stack, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


#: Machine epsilon of float64, the unit of NumPy's rank floor.
_EPS = float(np.finfo(np.float64).eps)


#: Most bytes of complex128 input that one stacked factorization takes.
#: A stack pays numpy's fixed cost per call (4-7 us per SVD, 1-5 us per
#: other call, on a 2-core x86-64 host with numpy 2.4.6 and OpenBLAS) once
#: instead of once per matrix: a third of a 3 x 4 SVD, a sixth of an
#: 11 x 18 one, nothing against the 20-30 ms of a 147 x 360 one.  Its
#: memory grows with its size:
#: uncapped, a decode's peak RSS rose from 54 to 67 MB at square ``k = 6``
#: and from 199 to 328 MB at ``(2, 5)``, in the same time.  At 256 KiB
#: every receiver up to square ``k = 4`` (25 x 48) stacks with the rest of
#: its trace, and one of square ``k >= 5`` or ``(2, 5)`` stands alone.
STACK_BYTES = 1 << 18


def stacks(keys, nbytes: int):
    """Split items of ``nbytes`` each into stacks that are factored
    together.

    Items ``i`` and ``j`` may share a stack only when ``keys[i] ==
    keys[j]`` (a key names the shapes of the item's matrices, so a stack
    is one array).  Stacks keep the items' order, and a stack holds as
    many items as fit in :data:`STACK_BYTES`, and at least one.  Returns
    lists of item indices.
    """
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    per = max(1, STACK_BYTES // max(1, nbytes))
    return [idx[i:i + per] for idx in groups.values() for i in range(0, len(idx), per)]


def haar_unitaries(z) -> np.ndarray:
    """Haar-distributed unitaries from a stack of complex Gaussian squares.

    ``z`` has shape ``(..., n, n)`` with i.i.d. CN(0, 1) entries, as drawn
    by :meth:`RngStream.complex_normal`.  Each matrix is factored by one
    stacked QR and the phases of R's diagonal are folded back into Q,
    which makes Q exactly Haar.  Used for mixing weights: Haar rows are as
    generic as raw Gaussian rows (every rank event that holds almost
    surely for one holds for the other) but keep the mixtures well
    conditioned, which matters for finite-SNR rates.

    A square ``Z`` padded as ``[[Z, 0], [0, I]]`` gets in its leading
    ``n x n`` block the unitary of ``Z`` alone, bit for bit: Householder
    QR's reflectors for ``Z``'s columns touch no padded row, and those
    for the identity's columns are the identity.  So squares of several
    sizes can share one stack, each padded to the largest.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 2 or z.shape[-1] != z.shape[-2] or z.shape[-1] < 1:
        raise ValueError(
            f"need a stack of nonempty square matrices, got shape {z.shape}")
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., np.newaxis, :]
    return q


def numerical_rank(a):
    """Number of singular values above ``RANK_RTOL`` times the largest,
    per matrix for a stack (:func:`singular_rank`).

    Returns 0 for a matrix whose largest singular value is exactly zero.
    """
    return singular_rank(np.linalg.svd(as_complex_matrix(a), compute_uv=False))


def _factor(a, targets):
    """The factorization that :func:`unit_residuals` and
    :func:`units_inside` share: one batched QR of ``A^T``, and each
    target's explicit residual ``d``, ``(matrices, targets)``.  Returns
    ``a``'s shape, ``d``, and ``R`` and ``Q[t]`` for the rest; ``Q`` and
    the residual rows are freed first.  A stack with no entries has every
    ``d = 1`` and no ``R``."""
    a = as_complex_matrix(a)
    t = np.asarray(targets, dtype=np.intp)
    if a.ndim != 3 or t.ndim != 2 or not t.size or len(t) != len(a):
        raise ValueError("need a stack of matrices and one nonempty list of "
                         "targets per matrix, all of one length")
    if a.size == 0:
        return a.shape, np.ones(t.shape), None, None
    n = a.shape[2]
    q, r = np.linalg.qr(a.mT)
    # Q[t] of each matrix, (matrices, count, m); x is e_t - Q Q[t]^H
    # negated, which leaves its norm
    coords = q[np.arange(len(a))[:, np.newaxis], t]
    x = coords.conj() @ q.mT
    x.reshape(-1)[np.arange(0, t.size * n, n) + t.ravel()] -= 1.0  # x is new: a view
    d = np.sqrt(np.vecdot(x, x).real)
    return a.shape, d, r, coords


def _spectrum(shape, r):
    """``svd(R)``: each matrix's singular values, largest first, as lists,
    and NumPy's rank floor relative to the largest; whether each matrix
    has full row rank at that floor; and each matrix's threshold
    ``RANK_RTOL * sqrt(s_0^2 + 1)``, ``(matrices, 1)``.  With no ``R``
    (no entries) every rank is 0."""
    count, m, n = shape
    if r is None:
        return [[0.0]] * count, 0.0, [False] * count, np.full((count, 1), RANK_RTOL)
    values, floor = np.linalg.svd(r, compute_uv=False).tolist(), max(m, n) * _EPS
    # full row rank: m values, the smallest of them above the floor
    full = [len(v) == m and v[-1] > v[0] * floor for v in values]
    # RANK_RTOL * sqrt(s_0^2 + 1) with numpy's bits, without four calls
    thr = np.array([[RANK_RTOL * math.sqrt(v[0] * v[0] + 1.0)] for v in values])
    return values, floor, full, thr


#: How far inside NumPy's rank floor :func:`_certified` must prove a
#: matrix to be: ``||R||_F ||X||_F < 1 / (C max(m, n) eps)`` for the
#: computed inverse ``X`` of ``R``.  Exactly, ``s_min / s_0 = 1 /
#: (||R||_2 ||R^-1||_2) >= 1 / (||R||_F ||R^-1||_F)``.  Two errors stand
#: between that and the verdict of :func:`_spectrum`, which compares
#: LAPACK's computed ``s_min`` with ``max(m, n) eps`` times its computed
#: ``s_0``.  LAPACK computes every singular value within ``p eps s_0``,
#: ``p`` a modest function of the size (LAPACK Users' Guide, section 4.9,
#: whose estimate takes ``p = 1``; here ``p <= max(m, n)``): that moves
#: the two sides by at most one more floor, so ``C > 2`` would do for
#: the exact inverse.  A triangular inverse has ``|RX - I| <= c_m u |R||X|``
#: with ``u = eps / 2`` and ``c_m`` of order ``m``, for substitution and for the blocked
#: recursion alike (Higham, *Accuracy and Stability of Numerical
#: Algorithms*, ch. 14), so ``||R^-1||_F <= ||X||_F / (1 - c_m u ||R||_F
#: ||X||_F)``, within a few percent of ``||X||_F`` under the bound.
#: ``C = 16`` takes both and leaves a factor of 7 for the constants those
#: bounds leave open.
_CERTIFY_C = 16

#: Largest triangle that :func:`_triangular_inverse` hands to
#: ``np.linalg.inv`` whole.
_LEAF = 16


def _triangular_inverse(r) -> np.ndarray:
    """The inverse of each upper triangle of a stack, by halves:
    ``[[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]``, down to
    triangles of at most :data:`_LEAF` rows, which ``np.linalg.inv``
    takes (its LU of a triangle pivots nowhere, so it is the triangle's
    substitution).  Raises ``LinAlgError`` where a diagonal entry is
    exactly zero."""
    m = r.shape[-1]
    if m <= _LEAF:
        return np.linalg.inv(r)
    h = m // 2
    a, d = _triangular_inverse(r[:, :h, :h]), _triangular_inverse(r[:, h:, h:])
    out = np.zeros_like(r)
    out[:, :h, :h], out[:, h:, h:] = a, d
    np.matmul(a @ r[:, :h, h:], -d, out=out[:, :h, h:])
    return out


def _certified(shape, d, r) -> bool:
    """True when ``R`` alone proves the verdict of :func:`_spectrum`'s
    full row rank and ``d <= thr``, for every matrix, without ``svd(R)``:
    ``m <= n``; every ``d`` at most ``RANK_RTOL * sqrt(||R||_F^2 / m (1
    - 1e-8) + 1)``, below the threshold since ``s_0^2 >= ||R||_F^2 / m``
    (the ``1e-8`` covers the rounding of both sides); and ``||R||_F
    ||R^-1||_F`` below ``1 / (C max(m, n) eps)`` (:data:`_CERTIFY_C`).
    False, so that the caller decides from ``svd(R)``, when any of these
    fails, when the inverse raises ``LinAlgError`` or when a norm is not
    finite (every comparison with NaN fails)."""
    count, m, n = shape
    if r is None or m > n:
        return False
    flat, below = r.reshape(count, -1), (1.0 - 1e-8) / m
    # a huge or NaN norm only declines: no warning for it
    with np.errstate(over="ignore", invalid="ignore"):
        fr = np.vecdot(flat, flat).real.tolist()
        # d first: a stack that fails it makes no inverse
        if not all(w <= RANK_RTOL * math.sqrt(a * below + 1.0)
                   for a, w in zip(fr, d.max(axis=1).tolist())):
            return False
        try:
            x = _triangular_inverse(r).reshape(count, -1)
        except np.linalg.LinAlgError:
            return False
        fx = np.vecdot(x, x).real.tolist()
    bound = (1.0 / (_CERTIFY_C * max(m, n) * _EPS)) ** 2
    return all(a * b < bound for a, b in zip(fr, fx))


def _ratios(full, d, thr, r, coords) -> np.ndarray:
    """Each target's ``g = d / sqrt(1 + ||z||^2)``, ``R z = Q[t]^H``, over
    its threshold; where the matrix is below full row rank, ``1 /
    RANK_RTOL``, the ratio of a receiver that heard nothing, at any scale
    of its entries."""
    out = np.full(d.shape, 1.0 / RANK_RTOL)
    if any(full):
        at = slice(None) if all(full) else np.array(full)
        z = np.linalg.solve(r[at], coords[at].conj().mT)
        out[at] = d[at] / np.sqrt(1.0 + np.vecdot(z, z, axis=-2).real) / thr[at]
    return out


def unit_residuals(a, targets):
    """How far each unit row ``e_t`` is from the row space of its matrix,
    as a ratio to the threshold up to which it counts as inside, and the
    margin of the rank decision, without forming the unit rows.

    ``a`` is a stack of matrices, ``(receivers, equations, symbols)``,
    which may have no equations; ``targets`` holds one nonempty list of
    columns ``t`` to test per matrix, all of one length.  A matrix must
    have full row rank, every singular value above NumPy's floor ``s_0 *
    max(equations, symbols) * eps``, or it certifies nothing: each of its
    ratios is ``1 / RANK_RTOL``, that of a matrix with no equations
    (``||e_t|| = 1`` over the threshold of an all-zero matrix), whatever
    the scale of its entries.

    The stack is factored by one batched QR of the transposed view, ``A^T
    = QR`` (no conjugated copy: this is the conjugate of the QR of
    ``A^H``, and no norm below sees the conjugation).  The rows of ``Q^T``
    are an orthonormal basis of the row space, so the explicit residual
    of ``e_t`` is ``d = ||e_t - Q Q[t]^H||``, formed from the products'
    only nonzero terms (never ``sqrt(1 - ||Q[t]||^2)``: that difference
    of squares cancels below ``d`` of about 1e-8).  The row ``y`` with
    ``y A = e_t - residual`` solves ``R z = Q[t]^H``, ``z = y^T``, and the
    residual is ``g = d / sqrt(1 + ||z||^2)``: the singular value that
    stacking ``e_t`` under the matrix adds, within a factor 2 (the
    derivation, in the SVD basis, is the test suite's dense reference
    ``rowspace_residuals``).  Its threshold is ``RANK_RTOL * sqrt(s_0^2 +
    1)``, the rank threshold of the stacked matrix, and ``e_t`` is inside
    iff ``g`` does not exceed it.  Singular values come from ``svd(R)``.
    Each result has the bits of that matrix factored alone.  A verdict
    alone is :func:`units_inside`, which takes neither the SVD nor the
    solve where ``R`` certifies the stack.

    Returns
    -------
    ratios : numpy.ndarray
        ``g`` over its threshold, ``(receivers, targets)``: ``e_t`` is
        inside iff its ratio is at most 1.
    kept, dropped : numpy.ndarray
        The smallest singular value above the floor and the largest at or
        below it, relative to the largest, per matrix; ``kept`` is ``inf``
        where none is above and ``dropped`` is 0 where none is at or below
        (full row rank).
    """
    shape, d, *qr = _factor(a, targets)
    values, floor, full, thr = _spectrum(shape, qr[0])
    # s is sorted, so with r values above the floor, s_(r-1) is the
    # smallest of them and s_r the largest at or below it; r = 0 only
    # where s_0 = 0 or the stack has no entries
    ranks = [sum(x > v[0] * floor for x in v) for v in values]
    kept, dropped = np.array([
        (v[r - 1] / v[0], v[r] / v[0] if r < len(v) else 0.0) if r else (math.inf, 0.0)
        for v, r in zip(values, ranks)]).T
    return _ratios(full, d, thr, *qr), kept, dropped


def units_inside(a, targets) -> bool:
    """True iff every ratio of :func:`unit_residuals` is at most 1, bit
    for bit, from the same QR, in two tiers.  The certificate
    (:func:`_certified`) proves from ``R`` and a triangular inverse, with
    no ``svd(R)`` and no solve, what the ratios would show: every matrix
    of full row rank at NumPy's floor and every ``d`` within its
    threshold (``g = d / w`` with ``w >= 1``, so in floating point
    ``fl(d / w) <= d``).  A stack it does not certify gets its ratios
    computed, and their verdict is the answer."""
    shape, d, r, coords = _factor(a, targets)
    if _certified(shape, d, r):
        return True
    _, _, full, thr = _spectrum(shape, r)
    return bool((_ratios(full, d, thr, r, coords) <= 1).all())
