"""Reference implementations that the tests compare the package against."""

import numpy as np

from delayedcsit.numerics import as_complex_matrix


class NumericalDomainError(ArithmeticError):
    """Raised when an input is outside the numerical domain of an operation
    (e.g. a noise covariance that is not Hermitian positive definite)."""


def logdet_capacity(g, noise_cov, power_per_symbol: float) -> float:
    """Mutual information of the linear Gaussian system ``y = g x + z``.

    Computes ``log2 det(I + power_per_symbol * noise_cov^-1 g g^H)`` in
    bits, for i.i.d. Gaussian inputs of per-symbol power
    ``power_per_symbol`` and noise covariance ``noise_cov``.

    Parameters
    ----------
    g : array_like
        Effective channel matrix (observations x symbols).
    noise_cov : array_like
        Hermitian positive-definite noise covariance (observations x
        observations).
    power_per_symbol : float
        Transmit power per input symbol; must be nonnegative.

    Raises
    ------
    NumericalDomainError
        If ``noise_cov`` is not Hermitian positive definite.
    """
    if power_per_symbol < 0:
        raise ValueError("power_per_symbol must be nonnegative")
    g = as_complex_matrix(g)
    noise_cov = as_complex_matrix(noise_cov)
    n = noise_cov.shape[0]
    if noise_cov.shape[1] != n or g.shape[0] != n:
        raise ValueError("noise covariance must be square and match g's rows")
    if not np.allclose(noise_cov, noise_cov.conj().T, atol=1e-12 * max(1.0, np.abs(noise_cov).max())):
        raise NumericalDomainError("noise covariance is not Hermitian")
    try:
        chol = np.linalg.cholesky(noise_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(
            "noise covariance is not positive definite") from exc
    gw = np.linalg.solve(chol, g)  # the channel once the noise is white
    k = gw.shape[1]
    gram = np.eye(k, dtype=np.complex128) + power_per_symbol * (gw.conj().T @ gw)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0:
        raise NumericalDomainError("log-det argument is not positive definite")
    return float(logdet / np.log(2.0))
