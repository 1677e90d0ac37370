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


def form_dict(row, noise=None) -> dict:
    """Schema-``v1`` JSON of one form: its nonzero coefficients keyed by
    symbol id, and its noise weights keyed ``"slot:receiver"`` (none for
    anything the transmitter builds)."""
    idx = np.flatnonzero(row)
    vals = row[idx]
    return {
        "coeffs": {str(s): [re, im] for s, re, im in
                   zip(idx.tolist(), vals.real.tolist(), vals.imag.tolist())},
        "noise": noise or {},
    }


def equation_dict(eq) -> dict:
    """One stored equation with the unit noise sample of its
    ``(slot, receiver)`` pair."""
    noise = {f"{eq.slot}:{eq.receiver}": [1.0, 0.0]}
    return {"receiver": eq.receiver, "slot": eq.slot,
            "form": form_dict(eq.row, noise), "noise_variance": 1.0}


def receiver_dict(st) -> dict:
    return {"receiver": st.receiver,
            "slots_observed": st.slots_observed,
            "equations": [equation_dict(eq) for eq in st.equations]}


def trace_doc(trace) -> dict:
    """The schema-``v1`` document of a scheme trace as nested dicts and
    lists: ``SchemeTrace.to_json()`` is its ``json.dumps(doc,
    sort_keys=True, indent=2)``."""
    def cplx(z):
        z = complex(z)
        return [z.real, z.imag]

    def matrix(a):
        return [[cplx(z) for z in row] for row in np.asarray(a)]

    dof = trace.empirical_dof
    return {
        "schema": "v1",
        "scheme": trace.name,
        "m": trace.m,
        "k": trace.k,
        "replication": {str(lvl): n for lvl, n in trace.replication.items()},
        "total_slots": trace.total_slots,
        "symbols": trace.symbols_delivered,
        "dof": f"{dof.numerator}/{dof.denominator}",
        "rng": {"seed": trace.seed, "index": trace.stream_index},
        "symbol_table": [
            {"id": s.id, "owner": sorted(s.owner), "order": s.order,
             "label": s.label}
            for s in trace.table.symbols
        ],
        "phases": [
            {"level": p.level, "runs": p.runs,
             "inputs": p.inputs_consumed, "slots": p.slots,
             "outputs": p.outputs_generated}
            for p in trace.phases
        ],
        "slots": [
            {"slot": i,
             "active_antennas": trace.active_antennas[i],
             "plan": [form_dict(f) for f in trace.plans[i]],
             "channel": matrix(trace.channels[i])}
            for i in range(trace.total_slots)
        ],
        "receivers": [receiver_dict(st) for st in trace.states],
        "combination_log": [
            {"label": c["label"], "weights": matrix(c["weights"])}
            for c in trace.combination_log
        ],
    }
