"""Finite-SNR Monte Carlo evaluation of recorded scheme traces.

A trace stores SNR-free equation rows (transmit forms are normalized to
unit coefficient norm), so the physical receive equation at SNR ``P`` is
the stored row scaled by ``sqrt(P / active_antennas)`` plus unit-variance
noise, independent across equations.  Each receiver's rate is the
Gaussian mutual information of its stacked equations after zero-forcing
the other receivers' symbols with its own stored (noisy) equations; the
zero-forcing projection has orthonormal rows, so the projected noise
stays white.  Rates are normalized per slot; the high-SNR slope of the
sum rate estimates the scheme's DoF.

Everything but the SNR factor is SNR-independent, so a trace's receivers
are factored once, together (:func:`receiver_gains`: one gather from the
trace's row array, then one batched SVD, projection and eigenvalue call
for all receivers that want as many symbols), and the
whole SNR grid is read off each receiver's gains as
``sum log2(1 + P * gain) / slots``.

The asymptotic model pins down only the DoF, not a finite-SNR decoding
strategy; unit-power Gaussian symbols with per-slot power split equally
over active antennas plus zero-forcing is the instantiation used here.

Trials are independent: trial ``t`` consumes the derived stream
``rng.split(t)``, so a run is reproducible from its seed alone.  Trials
run serially in the calling thread: a thread pool over trials measured
slower than the serial loop, because the per-trial work is mostly
interpreter-bound ledger building.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import RngStream, singular_rank, stacks
from .schemes import tdma_trace

__all__ = [
    "RatePoint",
    "SlopeFit",
    "fit_dof_slope",
    "receiver_gains",
    "simulate_rates",
    "snr_grid",
    "tdma_baseline",
]

LOG2_10 = math.log2(10.0)


@dataclass(frozen=True)
class RatePoint:
    """Monte Carlo rate estimate at one SNR point (bits per slot)."""

    snr_db: float
    sum_rate: float
    per_receiver: tuple
    trials: int
    stderr: float

    def __post_init__(self):
        if abs(self.sum_rate - sum(self.per_receiver)) > 1e-9:
            raise ValueError("sum_rate must equal the per-receiver total")
        if self.sum_rate < 0 or any(r < 0 for r in self.per_receiver):
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line of sum rate against log2(SNR)."""

    slope: float
    intercept: float
    window_db: tuple
    residual: float
    slope_stderr: float


def snr_grid(lo_db: float, hi_db: float, step_db: float) -> list:
    """Inclusive dB grid ``lo, lo+step, ..., hi``."""
    if not 0 < step_db < math.inf:
        raise ValueError(f"step must be positive and finite, got {step_db}")
    if hi_db < lo_db:
        raise ValueError(f"grid must be nondecreasing, got {lo_db}..{hi_db}")
    # the last step at or below hi, then hi itself: never past it
    n = math.floor((hi_db - lo_db) / step_db + 1e-9)
    grid = [lo_db + i * step_db for i in range(n + 1)]
    if grid[-1] < hi_db - 1e-9:
        grid.append(hi_db)
    return grid


def receiver_gains(trace) -> list:
    """SNR-free gains of each receiver, in order: receiver ``r``'s rate at
    SNR ``P`` is ``sum(log2(1 + P * gains)) / trace.total_slots`` bits per
    slot.

    Scales each heard row (:attr:`.schemes.SchemeTrace.rows`, read once)
    by ``1/sqrt(active_antennas)`` of its slot, zero-forces the columns of
    all other receivers' symbols with one SVD of the interference block
    (its rank by :func:`.numerics.singular_rank`), and returns the
    eigenvalues, clipped at zero, of ``G^H G`` for the remaining desired
    block ``G``.  The noise is white, and the projection keeps it white.
    Empty when the receiver wants nothing, heard nothing, or the
    interference fills every observation.  Receivers that want as many symbols are stacked
    (:func:`.numerics.stacks`): one gather of their columns, one batched
    SVD, then per interference rank one batched projection and
    ``eigvalsh``, with the bits of each receiver computed alone.
    """
    gains, heard = [np.zeros(0) for _ in range(trace.k)], trace.rows
    m, n = heard.shape[1:]
    owns = [trace.targets_for(r) for r in range(1, trace.k + 1)]
    jobs = [(r, own) for r, own in enumerate(owns) if own and m]
    active = np.asarray(trace.active_antennas, dtype=float)
    scale = 1.0 / np.sqrt(active[active > 0])[:, np.newaxis]
    wants = [len(own) for _, own in jobs]
    for idx in stacks(wants, [16 * m * n] * len(jobs)):
        group = [jobs[i] for i in idx]
        mine = wants[idx[0]]
        # each receiver's columns read in the order (own symbols, others)
        who = np.array([r for r, _ in group])[:, np.newaxis, np.newaxis]
        cols = _own_first(tuple(tuple(own) for _, own in group), n)
        rows = heard[who, np.arange(m)[:, np.newaxis], cols]
        rows *= scale
        g = rows[..., :mine]
        if mine < n:
            u, s, _ = np.linalg.svd(rows[..., mine:], full_matrices=True)
            ranks = singular_rank(s).tolist()
        else:
            u, ranks = None, [0] * len(group)
        # rank m: the interference fills every observation, no gains
        for rank in sorted(set(ranks) - {m}):
            at = [i for i, r in enumerate(ranks) if r == rank]
            pick = slice(None) if len(at) == len(group) else at
            p = g[pick] if u is None else u[pick][..., rank:].conj().mT @ g[pick]
            lam = np.maximum(np.linalg.eigvalsh(p.conj().mT @ p), 0.0)
            for i, values in zip(at, lam):
                gains[group[i][0]] = values
    return gains


@lru_cache(maxsize=64)
def _own_first(owns: tuple, n: int) -> np.ndarray:
    """Per receiver, the symbol ids ``0..n-1`` with its own (``owns[i]``)
    first, each part in id order: a read-only ``(receivers, 1, n)`` array,
    shared by every trace of one shape."""
    cols = np.empty((len(owns), 1, n), dtype=np.intp)
    for i, own in enumerate(owns):
        others = np.ones(n, dtype=bool)
        others[list(own)] = False
        cols[i, 0] = np.concatenate([own, np.flatnonzero(others)])
    cols.flags.writeable = False
    return cols


def _rates(gains, snrs, slots) -> np.ndarray:
    """Per-slot rate at every SNR in ``snrs`` from one receiver's gains."""
    return np.log1p(np.outer(snrs, gains)).sum(axis=1) / (math.log(2.0) * slots)


def _trial_matrix(builder, stream, snrs):
    """Rates of one trial: row per SNR, column per receiver."""
    trace = builder(stream)
    return np.column_stack([_rates(gains, snrs, trace.total_slots)
                            for gains in receiver_gains(trace)])


def simulate_rates(builder, snr_grid_db, trials: int, rng: RngStream,
                   threads=None) -> list:
    """Average per-receiver rates of a scheme over seeded trials.

    ``builder`` maps an RNG stream to a scheme trace; one trace per
    trial is shared by every grid point (common random numbers), which
    removes most of the trial noise from slope estimates.  ``threads`` is
    accepted and ignored: trials always run serially (module docstring).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    grid = list(snr_grid_db)
    if not grid:
        raise ValueError("the SNR grid must be nonempty")
    snrs = [10.0 ** (db / 10.0) for db in grid]
    results = np.stack([_trial_matrix(builder, rng.split(t), snrs)
                        for t in range(trials)])
    points = []
    for gi, db in enumerate(grid):
        per = results[:, gi, :].mean(axis=0)
        sums = results[:, gi, :].sum(axis=1)
        stderr = float(sums.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        points.append(RatePoint(
            snr_db=float(db),
            sum_rate=float(per.sum()),
            per_receiver=tuple(float(x) for x in per),
            trials=trials,
            stderr=stderr,
        ))
    return points


def tdma_baseline(k: int, snr_grid_db, trials: int, rng: RngStream) -> list:
    """Round-robin single-user rates; the sum-rate slope is 1."""
    return simulate_rates(lambda s: tdma_trace(k, s), snr_grid_db, trials, rng)


def fit_dof_slope(points, window_db=(40.0, 60.0)) -> SlopeFit:
    """Least-squares sum-rate slope against log2(SNR) inside a dB window.

    The slope estimates the DoF; below roughly 40 dB the constant terms
    of the rate expression still bend the curve.
    """
    lo, hi = window_db
    inside = [p for p in points if lo - 1e-9 <= p.snr_db <= hi + 1e-9]
    if len(inside) < 3:
        raise ValueError(
            f"need at least 3 rate points inside {window_db}, got {len(inside)}")
    x = np.array([p.snr_db * LOG2_10 / 10.0 for p in inside])
    y = np.array([p.sum_rate for p in inside])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    resid = y - fitted
    rms = float(np.sqrt(np.mean(resid ** 2)))
    n = len(inside)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if n > 2 and sxx > 0:
        stderr = math.sqrt(float(np.sum(resid ** 2)) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        window_db=(float(lo), float(hi)),
        residual=rms,
        slope_stderr=stderr,
    )
