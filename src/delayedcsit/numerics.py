"""Complex dense linear algebra, rank decisions, and reproducible sampling.

Everything downstream (symbol ledgers, scheme runners, rate simulation)
funnels its numerical work through this module: channel draws, Haar
unitaries, SVD-based rank tests and row-space membership.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` dtype;
:func:`as_complex_matrix` is the validating constructor used at module
boundaries.
"""

import numbers

import numpy as np

__all__ = [
    "RankTolerance",
    "RngStream",
    "as_complex_matrix",
    "numerical_rank",
    "rowspace_residuals",
    "sample_channel",
]

class RankTolerance:
    """Relative singular-value threshold used by every rank decision.

    A singular value counts toward the rank when it exceeds
    ``relative * max_singular_value``.  The default of ``1e-9`` is far
    above double-precision noise, which sits near ``1e-16``.  It is not
    far below every generic singular value: the smallest one that should
    be kept shrinks with the scheme's size, to as little as ``2e-9`` of
    the largest at square ``k = 6`` and ``9.7e-11`` at ``k = 7``.  So the
    margin at ``k = 6`` can be only a factor of 2, and at ``k = 7`` the
    rule can drop a generic, nonzero direction.

    Parameters
    ----------
    relative : float
        Relative threshold; must satisfy ``0 <= relative < 1``.
    """

    __slots__ = ("relative",)

    def __init__(self, relative: float = 1e-9):
        relative = float(relative)
        if not 0.0 <= relative < 1.0:
            raise ValueError(
                f"relative tolerance must lie in [0, 1), got {relative}")
        self.relative = relative

    def __repr__(self):
        return f"RankTolerance({self.relative!r})"

    def __eq__(self, other):
        return isinstance(other, RankTolerance) and self.relative == other.relative

    def rank(self, singular_values) -> int:
        """Rank of a matrix with these singular values, largest first.

        Returns 0 when there are none or the largest is exactly zero.
        """
        s = np.asarray(singular_values)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > self.relative * s[0]))


#: Default tolerance shared by all rank decisions.
DEFAULT_TOL = RankTolerance()


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
        """Circularly-symmetric complex Gaussian samples, CN(0, 1)."""
        re = self._gen.standard_normal(shape)
        im = self._gen.standard_normal(shape)
        return (re + 1j * im) / np.sqrt(2.0)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array.

    Raises
    ------
    ValueError
        If the input is not two-dimensional or contains NaN/Inf entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def sample_channel(k_rx: int, m_tx: int, rng: RngStream) -> np.ndarray:
    """Draw one channel matrix with i.i.d. CN(0, 1) entries.

    Row ``r`` holds the (conjugated) channel vector of receiver ``r`` for
    the current slot, so the noiseless observation of receiver ``r`` is
    ``H[r, :] @ x``.  Entries are independent over receivers, antennas,
    and (across calls) time.

    Parameters
    ----------
    k_rx : int
        Number of receivers (rows), at least 1.
    m_tx : int
        Number of transmit antennas (columns), at least 1.
    rng : RngStream
        Source of randomness.

    Returns
    -------
    numpy.ndarray
        A ``k_rx x m_tx`` complex matrix.
    """
    if k_rx < 1 or m_tx < 1:
        raise ValueError(
            f"channel dimensions must be positive, got {k_rx}x{m_tx}")
    return rng.complex_normal((k_rx, m_tx))


def haar_unitary(n: int, rng: RngStream) -> np.ndarray:
    """Draw an ``n x n`` unitary matrix from the Haar distribution.

    QR of a complex Gaussian matrix with the R-diagonal phases folded
    back into Q.  Used for mixing weights: Haar rows are as generic as
    raw Gaussian rows (every rank event that holds almost surely for one
    holds for the other) but keep the mixtures well conditioned, which
    matters for finite-SNR rates.
    """
    if n < 1:
        raise ValueError(f"unitary size must be positive, got {n}")
    z = rng.complex_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def numerical_rank(a, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol.relative`` times the largest.

    Returns 0 for a matrix whose largest singular value is exactly zero.
    """
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0
    return tol.rank(np.linalg.svd(a, compute_uv=False))


def rowspace_residuals(a, vectors, tol: RankTolerance = DEFAULT_TOL):
    """How far each row of ``vectors`` is from the row space of ``a``, and
    the threshold up to which that row counts as inside it.

    ``a`` is factored once, ``a = U S V^H`` (economy SVD).  Its rank ``r``
    follows the :class:`RankTolerance` rule; ``S_r`` holds the ``r`` kept
    singular values and ``V_r`` the matching right singular vectors as
    rows.  For a row ``v`` with coordinates ``c = v V_r^H``, let
    ``d = ||v - c V_r||`` be the norm of the explicit residual (never
    ``sqrt(||v||^2 - ||c||^2)``: that difference of squares cancels below
    ``d`` of about 1e-8, above the 1e-9 default tolerance).  The returned
    residual is ``g = d / sqrt(1 + ||c S_r^-1||^2)``.

    ``g`` is the singular value that stacking ``v`` under ``a`` adds, and
    the threshold is what the stacked-rank rule ("``v`` is in the row
    space iff stacking it does not raise the numerical rank") compares
    that value with.  In the basis ``(V_r, residual direction)``, the rank
    ``r`` part of ``a`` stacked with ``v`` is the arrowhead matrix
    ``M = [[S_r, 0], [c, d]]``.  The last row of ``M^-1`` has norm
    ``sqrt(1 + ||c S_r^-1||^2) / d = 1 / g``, so the added singular value
    ``sigma_min(M)`` is at most ``g``, and since ``||M^-1|| <= 1/s_(r-1) +
    1/g`` it is at least ``min(g, s_(r-1)) / 2``.  Plain ``d`` is only
    Weyl's upper bound on it: ``M`` differs from a rank-``r`` matrix by one
    row of norm ``d``.  On ill-conditioned ``a`` (square ``k = 6``, kept
    singular values down to 2e-9 of ``s_0``), rounding in ``V_r`` alone
    inflates ``d`` past the tolerance; the weight removes exactly that,
    because a rotation of ``V_r`` by ``eps * s_0 / s_i`` is divided by
    ``1 / s_i`` again.  The stacked-rank rule counts the added value when
    it exceeds ``tol.relative * s_max([a; v])``, and
    ``s_max([a; v]) <= sqrt(s_0^2 + ||v||^2)``.  So the threshold is
    ``tol.relative * sqrt(s_0^2 + ||v||^2)``, ``v`` is in the row space iff
    ``g <= threshold``, and the two rules can disagree only when the
    added singular value lies within a factor 2 below the threshold.

    Parameters
    ----------
    a : array_like
        Matrix whose row space is tested; may have no rows.
    vectors : array_like
        Row vectors to test, one per row, with as many columns as ``a``.
    tol : RankTolerance
        Rank decision tolerance.

    Returns
    -------
    residuals, thresholds : numpy.ndarray
        ``g`` and its threshold, one float each per row of ``vectors``.
    """
    a = as_complex_matrix(a)
    v = as_complex_matrix(vectors)
    if v.shape[1] != a.shape[1]:
        raise ValueError(
            f"vectors have {v.shape[1]} columns but the matrix has {a.shape[1]}")
    norms = np.linalg.norm(v, axis=1)
    if a.size == 0:
        return norms, tol.relative * norms
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    r = tol.rank(s)
    coords = v @ vh[:r].conj().T
    d = np.linalg.norm(v - coords @ vh[:r], axis=1)
    weight = np.sqrt(1.0 + np.sum(np.abs(coords / s[:r]) ** 2, axis=1))
    return d / weight, tol.relative * np.sqrt(s[0] ** 2 + norms ** 2)
