"""Finite-SNR simulation: exact hand cases, oracles, determinism."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import exp1

from delayedcsit import numerics
from delayedcsit.ledger import SymbolTable
from delayedcsit.numerics import RngStream, numerical_rank
from delayedcsit.ratesim import (
    RatePoint,
    fit_dof_slope,
    receiver_gains,
    simulate_rates,
    snr_grid,
    tdma_baseline,
)
from delayedcsit.schemes import run_order_j_delivery, run_square_scheme, tdma_trace
from oracles import logdet_capacity, per_trial_rates, rates
from test_golden import RATE_SCHEMES

LOG2_10 = math.log2(10.0)


def test_snr_grid():
    assert snr_grid(40, 60, 5) == [40, 45, 50, 55, 60]
    assert snr_grid(10, 10, 5) == [10]
    grid = snr_grid(0, 1, 0.4)
    assert grid[0] == 0 and grid[-1] == 1
    # a step that does not divide the range stops at or below hi, then
    # ends on hi; one that does divides it as before, 0.1 dB steps too
    assert snr_grid(40, 60, 7) == [40, 47, 54, 60]
    assert snr_grid(0, 80, 50) == [0, 50, 80]
    assert snr_grid(0, 1, 0.4) == [0, 0.4, 0.8, 1]
    fine = snr_grid(0, 80, 0.1)
    assert len(fine) == 801 and fine[-1] == 0 + 800 * 0.1
    with pytest.raises(ValueError):
        snr_grid(0, 10, 0)
    with pytest.raises(ValueError):
        snr_grid(20, 10, 5)
    for step in (math.nan, math.inf):  # not a count to round
        with pytest.raises(ValueError, match="finite"):
            snr_grid(0, 10, step)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_snr_values_are_refused(value):
    # neither a grid nor a rate is made of a non-finite SNR: one
    # ValueError names the value, before any trace is built
    built = []

    def builder(stream):
        built.append(stream)
        return tdma_trace(2, stream)

    for call in (lambda: snr_grid(value, 10, 1), lambda: snr_grid(0, value, 1),
                 lambda: simulate_rates(builder, [10.0, value], 2, RngStream(1))):
        with pytest.raises(ValueError, match=f"SNR values must be finite, got {value}"):
            call()
    assert built == []


def test_rate_point_validation():
    RatePoint(snr_db=10.0, sum_rate=3.0, per_receiver=(1.0, 2.0), trials=4,
              stderr=0.1)
    with pytest.raises(ValueError):
        RatePoint(snr_db=10.0, sum_rate=2.5, per_receiver=(1.0, 2.0),
                  trials=4, stderr=0.1)
    with pytest.raises(ValueError):
        RatePoint(snr_db=10.0, sum_rate=-1.0, per_receiver=(-1.0,), trials=4,
                  stderr=0.1)


def _receiver_rate(trace, receiver, snr):
    """One receiver's rate in bits per slot at ``snr``, read off its gains
    by the formula :func:`simulate_rates` uses."""
    gains = receiver_gains(trace)[receiver - 1]
    return float(rates(gains, [snr], trace.total_slots)[0])


def test_single_user_rate_matches_hand_formula():
    h = 1.0 + 1.0j  # |h|^2 = 2
    trace = tdma_trace(1, RngStream(0), channels=[np.array([[h]])])
    for snr in (0.5, 1.0, 10.0, 1e4):
        want = math.log2(1.0 + 2.0 * snr)
        assert _receiver_rate(trace, 1, snr) == pytest.approx(want, rel=1e-12)
    assert _receiver_rate(trace, 1, 0.0) == 0.0


def _per_snr_rate(trace, receiver, snr):
    """One receiver's rate the long way: scale by the SNR, zero-force the
    other receivers' symbols and take the log det, all at this SNR."""
    ids = trace.table.ids
    own = set(trace.table.owned_by(receiver))
    active = [b.shape[1] for b in trace.plans for _ in b]
    rows = trace.rows[receiver - 1][:, ids] * np.array(
        [math.sqrt(snr / p) for p in active if p])[:, None]
    own_idx = [i for i, s in enumerate(ids) if s in own]
    int_idx = [i for i, s in enumerate(ids) if s not in own]
    interference = rows[:, int_idx]
    rank = numerical_rank(interference)
    w = np.linalg.svd(interference)[0][:, rank:].conj().T
    # the stored equations' noise covariance is the identity; w projects it
    bits = logdet_capacity(w @ rows[:, own_idx], w @ w.conj().T, 1.0)
    return bits / trace.total_slots


def test_snr_curve_matches_per_snr_logdet():
    snrs = [10.0 ** (db / 10.0) for db in range(0, 81, 10)]
    for k in (2, 3):
        for seed in range(5):
            trace = run_square_scheme(k, RngStream(seed))
            for r, gains in enumerate(receiver_gains(trace), start=1):
                assert np.all(gains >= 0.0)
                for snr in snrs:
                    want = _per_snr_rate(trace, r, snr)
                    curve = float(np.sum(np.log2(1.0 + snr * gains))
                                  / trace.total_slots)
                    assert curve == pytest.approx(want, rel=1e-9)
                    assert _receiver_rate(trace, r, snr) == pytest.approx(
                        want, rel=1e-9)


GAIN_SCHEMES = {
    "square-2": lambda s: run_square_scheme(2, s),
    "square-3": lambda s: run_square_scheme(3, s),
    "square-4": lambda s: run_square_scheme(4, s),
    "tdma-3": lambda s: tdma_trace(3, s),
    "order-2-3-2": lambda s: run_order_j_delivery(2, 3, 2, s),
}


def _altered(trace):
    """``trace`` with receiver 1 deaf (its channel zero in every slot, so
    its rows are all zero: interference of rank 0) and receiver 2's
    channel zero in the last slot (its last row zero: one rank less)."""
    channels = trace.channels.copy()
    channels[:, 0] = 0.0
    channels[-1, 1] = 0.0
    return dataclasses.replace(trace, channels=channels)


@pytest.mark.parametrize("name", sorted(GAIN_SCHEMES))
def test_stacked_gains_equal_per_receiver(name, monkeypatch):
    # one stacked SVD, projection and eigvalsh per shape and rank give
    # each receiver the bits of that receiver computed alone: a one-byte
    # stack cap makes every receiver a stack of one
    for seed in range(8):
        trace = GAIN_SCHEMES[name](RngStream(seed))
        for tr in (trace, _altered(trace)):
            stacked = receiver_gains(tr)
            assert len(stacked) == tr.k
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "STACK_BYTES", 1)
                alone = receiver_gains(tr)
            for r in range(tr.k):
                assert stacked[r].shape == alone[r].shape, (seed, r)
                assert stacked[r].tobytes() == alone[r].tobytes(), (seed, r)
        assert not receiver_gains(_altered(trace))[0].any()  # deaf: no gain
        # no slot with an active antenna: nothing heard
        nothing = dataclasses.replace(trace, plans=[b[:, :0] for b in trace.plans])
        assert [g.size for g in receiver_gains(nothing)] == [0] * trace.k


def _silent(trace):
    """``trace`` with no active antenna in any slot: nothing heard."""
    return dataclasses.replace(trace, plans=[b[:, :0] for b in trace.plans])


def _owned(trace, *owners):
    """``trace`` with a table of one symbol per owner set, in order."""
    return dataclasses.replace(trace, table=SymbolTable(trace.k, owners))


def test_a_receiver_that_wants_nothing_is_skipped_by_decode_and_rates():
    # receiver 3 is in no decode stack and gets no gain, while receivers 1
    # and 2 decode and get theirs
    trace = _owned(tdma_trace(3, RngStream(1)), {1}, {2}, {2})
    assert trace.decode_ok()
    ratios, kept, dropped = trace.decode_residuals()
    assert ratios.shape == (3,) and (ratios <= 1).all()
    assert kept.shape == dropped.shape == (2,)
    assert [g.size for g in receiver_gains(trace)] == [1, 2, 0]


def test_a_trace_of_no_symbols_decodes_with_no_margins():
    trace = tdma_trace(3, RngStream(1))
    empty = dataclasses.replace(_owned(trace), plans=[b[..., :0] for b in trace.plans])
    assert empty.decode_ok()
    assert [x.shape for x in empty.decode_residuals()] == [(0,)] * 3
    assert [g.size for g in receiver_gains(empty)] == [0] * 3


def test_a_receiver_that_heard_nothing_still_fails_and_gets_no_gain():
    # every slot silent: receivers 1 and 2 want symbols and fail with the
    # ratio of an empty matrix; receiver 3 wants nothing
    deaf = _silent(_owned(tdma_trace(3, RngStream(1)), {1}, {2}, {2}))
    assert not deaf.decode_ok()
    ratios, kept, _ = deaf.decode_residuals()
    assert ratios.tolist() == [1.0 / numerics.RANK_RTOL] * 3 and kept.shape == (2,)
    assert [g.size for g in receiver_gains(deaf)] == [0] * 3


#: Builders and grids for the batched-against-per-trial check: the golden
#: rate schemes, tdma-3 among them, and traces that are deaf,
#: rank-deficient or silent, whose receivers get zero gains or no Gram;
#: the altered ones from -10 dB, where ``log1p`` and ``log(1 + x)`` differ.
ORACLE_SCHEMES = {
    **RATE_SCHEMES,
    "square-3-altered": (lambda s: _altered(run_square_scheme(3, s)), (-10.0, 60.0, 10.0)),
    "tdma-3-altered": (lambda s: _altered(tdma_trace(3, s)), (-10.0, 60.0, 10.0)),
    "square-2-silent": (lambda s: _silent(run_square_scheme(2, s)), (40.0, 60.0, 20.0)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
def test_batched_rates_equal_per_trial_oracle(name, monkeypatch):
    # square-4 leaves 9,216 bytes of Grams a trial, so the pending ones
    # first reach STACK_BYTES at trial 29: 27 to 29 straddle that flush
    # and 60 makes two; a one-byte cap flushes after every trial
    build, grid = ORACLE_SCHEMES[name]
    for trials in (1, 27, 28, 29, 60):
        want = per_trial_rates(build, snr_grid(*grid), trials, RngStream(9))
        for cap in (numerics.STACK_BYTES, 1):
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "STACK_BYTES", cap)
                got = simulate_rates(build, snr_grid(*grid), trials, RngStream(9))
            assert got == want, (trials, cap)


def _counting_eigvalsh(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` to record each call's input shape."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_mixed_gram_shapes_share_a_flush(monkeypatch):
    # square-3 and tdma-3 both have k = 3, but Grams of 6 x 6 and 1 x 1:
    # one flush holds both shapes and makes one eigvalsh for each
    def build(s):
        return (run_square_scheme if s.index % 2 else tdma_trace)(3, s)

    grid = snr_grid(40.0, 60.0, 5.0)
    for trials in (1, 2, 9):
        want = per_trial_rates(build, grid, trials, RngStream(4))
        with monkeypatch.context() as patch:
            calls = _counting_eigvalsh(patch)
            assert simulate_rates(build, grid, trials, RngStream(4)) == want
        mixed = [(trials + 1) // 2 * 3, trials // 2 * 3]
        assert calls == [(n, w, w) for n, w in zip(mixed, (1, 6)) if n], trials


@pytest.mark.parametrize("trials", [40, 100])
def test_pending_grams_are_bounded_by_stack_bytes(trials, monkeypatch):
    # square-4: four 12 x 12 Grams a trace; a flush runs once the pending
    # Grams reach STACK_BYTES, with one eigvalsh for its one Gram shape,
    # so no call takes more than STACK_BYTES and one trace's Grams, at
    # any trial count
    one = sum(16 * g.size ** 2 for g in receiver_gains(run_square_scheme(4, RngStream(0))))
    per = -(-numerics.STACK_BYTES // one)  # traces in a full flush
    calls = _counting_eigvalsh(monkeypatch)
    simulate_rates(lambda s: run_square_scheme(4, s), [60.0, 80.0], trials, RngStream(2))
    flushes = [per] * (trials // per) + [trials % per] * (trials % per > 0)
    assert calls == [(4 * n, 12, 12) for n in flushes]
    assert all(16 * math.prod(c) <= numerics.STACK_BYTES + one for c in calls)
    # the cap is read at call time: a one-byte cap flushes every trial
    calls.clear()
    monkeypatch.setattr(numerics, "STACK_BYTES", 1)
    simulate_rates(lambda s: run_square_scheme(4, s), [60.0, 80.0], trials, RngStream(2))
    assert calls == [(4, 12, 12)] * trials


def test_rate_is_monotone_in_snr():
    trace = run_square_scheme(2, RngStream(1))
    for r in (1, 2):
        rates = [_receiver_rate(trace, r, 10.0 ** (db / 10.0))
                 for db in range(0, 61, 10)]
        assert all(lo < hi for lo, hi in zip(rates, rates[1:]))


def test_simulate_rates_is_deterministic():
    grid = [20.0, 40.0]
    a = simulate_rates(lambda s: run_square_scheme(2, s), grid, 5, RngStream(7))
    b = simulate_rates(lambda s: run_square_scheme(2, s), grid, 5, RngStream(7))
    assert a == b
    c = simulate_rates(lambda s: run_square_scheme(2, s), grid, 5,
                       RngStream(7), threads=2)
    assert a == c  # threads is ignored: trials run serially
    d = simulate_rates(lambda s: run_square_scheme(2, s), grid, 5, RngStream(8))
    assert a != d


def test_simulate_rates_validation():
    with pytest.raises(ValueError):
        simulate_rates(lambda s: tdma_trace(1, s), [10.0], 0, RngStream(0))
    with pytest.raises(ValueError):
        simulate_rates(lambda s: tdma_trace(1, s), [], 3, RngStream(0))


def test_single_user_ergodic_oracle():
    # E[log2(1 + rho * X)], X ~ Exp(1), equals exp(1/rho) E1(1/rho) / ln 2
    rho = 10.0
    pts = simulate_rates(lambda s: tdma_trace(1, s), [10.0], 2000, RngStream(3))
    point = pts[0]
    want = math.exp(1.0 / rho) * exp1(1.0 / rho) / math.log(2.0)
    assert point.sum_rate == pytest.approx(want, abs=6 * point.stderr + 1e-9)


def test_tdma_baseline_shape_and_symmetry():
    pts = tdma_baseline(2, [30.0], 400, RngStream(4))
    (point,) = pts
    assert point.trials == 400
    assert len(point.per_receiver) == 2
    assert all(r > 0 for r in point.per_receiver)
    # the two receivers are exchangeable; averages agree within noise
    assert abs(point.per_receiver[0] - point.per_receiver[1]) < 0.3


def test_scheme_beats_tdma_at_high_snr():
    grid = [40.0]
    mat = simulate_rates(lambda s: run_square_scheme(2, s), grid, 50,
                         RngStream(5))
    tdma = tdma_baseline(2, grid, 50, RngStream(5))
    assert mat[0].sum_rate > tdma[0].sum_rate + 1.0


def test_fit_dof_slope_exact_line():
    slope_true, intercept_true = 1.5, -2.0
    points = []
    for db in (30.0, 40.0, 45.0, 50.0, 55.0, 60.0, 70.0):
        x = db * LOG2_10 / 10.0
        y = slope_true * x + intercept_true
        if db < 40 or db > 60:
            y = 0.123  # junk outside the window must be ignored
        points.append(RatePoint(snr_db=db, sum_rate=max(y, 0.0),
                                per_receiver=(max(y, 0.0),), trials=1,
                                stderr=0.0))
    fit = fit_dof_slope(points, window_db=(40.0, 60.0))
    assert fit.slope == pytest.approx(slope_true, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept_true, abs=1e-9)
    assert fit.residual < 1e-9
    assert fit.slope_stderr < 1e-9
    assert fit.window_db == (40.0, 60.0)


def test_fit_dof_slope_needs_three_points():
    points = [RatePoint(snr_db=db, sum_rate=1.0, per_receiver=(1.0,),
                        trials=1, stderr=0.0) for db in (40.0, 50.0)]
    with pytest.raises(ValueError):
        fit_dof_slope(points, window_db=(40.0, 60.0))


def test_two_user_slope_near_four_thirds():
    # a cheap version of the full acceptance sweep: few trials, wide step
    grid = snr_grid(40, 60, 10)
    pts = simulate_rates(lambda s: run_square_scheme(2, s), grid, 40,
                         RngStream(6))
    fit = fit_dof_slope(pts, window_db=(40.0, 60.0))
    assert abs(fit.slope - 4.0 / 3.0) / (4.0 / 3.0) < 0.08
