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

Everything but the SNR factor is SNR-independent, so each trial factors
its trace once (:func:`_grams`: per stack of the trace's receiver plan,
its rows as the decode check derives them, one gather and one
interference SVD, a small Gram per receiver); the SNR grid is read off
the Grams' eigenvalues ``lambda`` as ``sum log2(1 + P * lambda) / slots``,
batched across trials up to :data:`.numerics.STACK_BYTES`.

The asymptotic model pins down only the DoF, not a finite-SNR decoding
strategy; unit-power Gaussian symbols with per-slot power split equally
over active antennas plus zero-forcing is the instantiation used here.

Trials are independent: trial ``t`` consumes the derived stream
``rng.split(t)``, so a run is reproducible from its seed alone.  Trials
run serially: a thread pool over trials measured slower.  A square-4
trial takes 0.4 ms to build and 0.8 ms of gains, 0.6 ms of it the LAPACK
SVD, which skips the full ``Vh`` where ``U`` is square without it (one
core of a 2-core x86-64 host, OpenBLAS).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import RngStream, singular_rank
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
    slot.  The one-trace case of :func:`simulate_rates`: the eigenvalues,
    clipped at zero, of the Grams of :func:`_grams`, one ``eigvalsh`` per
    Gram shape; empty when the receiver wants nothing, heard nothing, or
    the interference fills every observation."""
    gains = [np.zeros(0) for _ in range(trace.k)]
    for who, lam in _spectra(_grams(trace)):
        for r, values in zip(who, lam):
            gains[r] = values
    return gains


def _grams(trace) -> list:
    """``(receivers, Grams)`` per receiver stack and interference rank:
    per stack of :meth:`.schemes.SchemeTrace.receiver_plan`, its rows as
    the decode check reads them (:meth:`.schemes.SchemeTrace.decode_stacks`),
    gathered own columns first, each row scaled by its ``1/sqrt(active
    antennas)``; one SVD of the interference columns (rank by
    :func:`.numerics.singular_rank`) zero-forces the other receivers'
    symbols, and per rank the desired block's projection ``p`` gives the
    ``wants x wants`` Gram ``p^H p``.  The noise is white, and the
    projection keeps it white.  One stack's arrays are alive at a time."""
    _, scale, parts = trace.receiver_plan()
    m, out = len(scale), []  # m heard rows
    for (who, cols, mine), (rows, _) in zip(parts, trace.decode_stacks()):
        x = rows[np.arange(len(who))[:, np.newaxis, np.newaxis], np.arange(m)[:, np.newaxis],
                 cols[:, np.newaxis]]
        x *= scale
        g = x[..., :mine]
        if mine < cols.shape[1]:  # interference columns; full U only if fewer than m
            u, s, _ = np.linalg.svd(x[..., mine:], full_matrices=m > cols.shape[1] - mine)
            ranks = singular_rank(s).tolist()
        else:
            u, ranks = None, [0] * len(who)
        # rank m: the interference fills every observation, no Gram
        for rank in sorted(set(ranks) - {m}):
            at = [i for i, r in enumerate(ranks) if r == rank]
            pick = slice(None) if len(at) == len(who) else at
            p = g[pick] if u is None else u[pick][..., rank:].conj().mT @ g[pick]
            out.append(([who[i] for i in at], p.conj().mT @ p))
        del x, g, u  # before the next stack's rows are derived
    return out


def _spectra(grams) -> list:
    """``(keys, Grams)`` pairs regrouped by Gram shape: each shape's keys
    and its Grams' eigenvalues, clipped at zero, from one ``eigvalsh``."""
    groups = {}
    for keys, gram in grams:
        group = groups.setdefault(gram.shape[1:], ([], []))
        group[0].extend(keys)
        group[1].append(gram)
    return [(keys, np.maximum(np.linalg.eigvalsh(np.concatenate(g)), 0.0))
            for keys, g in groups.values()]


def simulate_rates(builder, snr_grid_db, trials: int, rng: RngStream,
                   threads=None) -> list:
    """Average per-receiver rates of a scheme over seeded trials.

    ``builder`` maps an RNG stream to a scheme trace; one trace per
    trial is shared by every grid point (common random numbers), which
    removes most of the trial noise from slope estimates.  Each trial's
    Grams (:func:`_grams`) wait until the pending ones reach
    :data:`.numerics.STACK_BYTES`, or the last trial; then one
    ``eigvalsh`` and one ``log1p`` per Gram shape give their rates at
    every SNR point, bit for bit those of each receiver alone.  ``threads``
    is accepted and ignored: trials always run serially.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    grid = list(snr_grid_db)
    if not grid:
        raise ValueError("the SNR grid must be nonempty")
    snrs = np.array([10.0 ** (db / 10.0) for db in grid])[:, np.newaxis]
    results, pending, size = None, [], 0
    for t in range(trials):
        trace = builder(rng.split(t))
        if results is None:
            results = np.zeros((trials, len(grid), trace.k))
        for who, gram in _grams(trace):
            pending.append(([(t, r, trace.total_slots) for r in who], gram))
            size += gram.nbytes
        if size >= numerics.STACK_BYTES or t == trials - 1:
            for keys, lam in _spectra(pending):
                at, who, slots = np.array(keys).T
                results[at, :, who] = (np.log1p(snrs * lam[:, np.newaxis]).sum(axis=-1)
                                       / (math.log(2.0) * slots[:, np.newaxis]))
            pending, size = [], 0
    points = []
    for gi, db in enumerate(grid):
        per = results[:, gi, :].mean(axis=0)
        sums = results[:, gi, :].sum(axis=1)
        stderr = float(sums.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        points.append(RatePoint(snr_db=float(db), sum_rate=float(per.sum()),
                                per_receiver=tuple(float(x) for x in per),
                                trials=trials, stderr=stderr))
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
