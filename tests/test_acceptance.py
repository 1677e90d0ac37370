"""Acceptance gate: the eight release criteria, one pass/fail line each.

Each test prints exactly one line

    ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s)

to the terminal (capture is suspended for the line, so it shows without
``-s``), checks exact values at the stated tolerances, and enforces the
stated runtime budget.
"""

import math
import random
import time
from fractions import Fraction

from delayedcsit.dof_calc import (
    DofQuery,
    dof_square,
    dof_upper,
    harmonic,
    hockey_stick,
    identity_check,
    nonsquare_closed_form,
    nonsquare_recursion,
)
from delayedcsit.numerics import RngStream
from delayedcsit.ratesim import fit_dof_slope, simulate_rates, snr_grid
from delayedcsit.region import (
    as_point,
    combination_value,
    decompose_time_sharing,
    in_region,
    symmetric_corner,
    tight_permutations,
)
from delayedcsit.schemes import (
    alignment_ranks,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_square_scheme,
    tdma_trace,
)


def _criterion(number, name, budget_s, body, capsys):
    start = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as exc:  # report FAIL, then re-raise
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < budget_s
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.3f}s)", flush=True)
    if error is not None:
        raise error
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.3f}s")


def test_acceptance_1_closed_forms(capsys):
    cases = [
        (lambda: dof_square(2, 1), Fraction(4, 3)),
        (lambda: dof_square(3, 1), Fraction(18, 11)),
        (lambda: dof_square(3, 2), Fraction(6, 5)),
        (lambda: dof_upper(DofQuery(2, 3, 1)), Fraction(3, 2)),
        (lambda: nonsquare_recursion(DofQuery(2, 3, 1)), Fraction(24, 17)),
    ]

    def body():
        for fn, want in cases:
            t0 = time.perf_counter()
            got = fn()
            dt = time.perf_counter() - t0
            assert got == want, f"{got} != {want}"
            assert dt < 1e-3, f"closed form took {dt * 1e3:.3f} ms"

    _criterion(1, "closed-forms", 1.0, body, capsys)


def test_acceptance_2_tightness_sweep(capsys):
    def body():
        for k in range(1, 21):
            for j in range(1, k + 1):
                q = DofQuery(k - j + 1, k, j)
                assert dof_square(k, j) == dof_upper(q), (k, j)

    _criterion(2, "bound-tightness", 1.0, body, capsys)


def test_acceptance_3_identities(capsys):
    def body():
        for k in range(1, 31):
            for j in range(1, k + 1):
                lhs, rhs = identity_check(k, j)
                assert lhs == rhs, (k, j)
        for q in range(0, 41):
            for p in range(0, q + 1):
                lhs, rhs = hockey_stick(p, q)
                assert lhs == rhs, (p, q)

    _criterion(3, "identities", 1.0, body, capsys)


def test_acceptance_4_scheme_accounting(capsys):
    runs = [
        ("square-1", lambda s: run_square_scheme(1, s), Fraction(1)),
        ("square-2", lambda s: run_square_scheme(2, s), Fraction(4, 3)),
        ("square-3", lambda s: run_square_scheme(3, s), Fraction(18, 11)),
        ("square-4", lambda s: run_square_scheme(4, s), Fraction(48, 25)),
        ("alt22", run_alt22, Fraction(4, 3)),
        ("mat23", run_mat23_suboptimal, Fraction(24, 17)),
        ("opt23", run_opt23, Fraction(3, 2)),
    ]

    def body():
        rng = RngStream(2024)
        for i, (label, builder, want) in enumerate(runs):
            t0 = time.perf_counter()
            trace = builder(rng.split(i))
            got = trace.empirical_dof
            dt = time.perf_counter() - t0
            assert got == want, f"{label}: {got} != {want}"
            assert trace.decode_ok(), label
            assert dt < 1.0, f"{label} took {dt:.3f}s"

    _criterion(4, "scheme-accounting", 10.0, body, capsys)


def test_acceptance_5_decodability(capsys):
    trials = 1000
    schemes = [
        ("square-2", lambda s: run_square_scheme(2, s)),
        ("square-3", lambda s: run_square_scheme(3, s)),
        ("alt22", run_alt22),
        ("mat23", run_mat23_suboptimal),
        ("opt23", run_opt23),
    ]

    def body():
        master = RngStream(2025)
        aligned = 0
        for position, (label, builder) in enumerate(schemes):
            ok = 0
            for t in range(trials):
                trace = builder(master.split(position * trials + t))
                if trace.decode_ok():
                    ok += 1
                if label == "square-2" and alignment_ranks(trace) == (2, 1):
                    aligned += 1
            assert ok >= 999, f"{label}: {ok}/{trials} decoded"
        assert aligned >= 999, f"alignment held in {aligned}/{trials}"

    _criterion(5, "decodability", 30.0, body, capsys)


def test_acceptance_6_snr_slopes(capsys):
    grid = snr_grid(40, 60, 5)
    trials = 200
    runs = [
        ("square-2", lambda s: run_square_scheme(2, s), 4.0 / 3.0),
        ("square-3", lambda s: run_square_scheme(3, s), 18.0 / 11.0),
        ("tdma-2", lambda s: tdma_trace(2, s), 1.0),
        ("square-1", lambda s: run_square_scheme(1, s), 1.0),
    ]

    def body():
        for i, (label, builder, target) in enumerate(runs):
            points = simulate_rates(builder, grid, trials, RngStream(300 + i),
                                    threads=4)
            fit = fit_dof_slope(points, window_db=(40.0, 60.0))
            rel = abs(fit.slope - target) / target
            assert rel <= 0.05, (
                f"{label}: slope {fit.slope:.4f} is {100 * rel:.2f}% from "
                f"{target:.4f}")

    _criterion(6, "snr-slopes", 300.0, body, capsys)


def test_acceptance_7_region(capsys):
    def body():
        for k in range(1, 6):
            corner = symmetric_corner(k)
            assert len(tight_permutations(corner)) == math.factorial(k), k
        rnd = random.Random(77)
        for k in range(1, 7):
            h = harmonic(k)
            for _ in range(10_000):
                pt = tuple(Fraction(rnd.randint(0, 1500), 1000) / h
                           for _ in range(k))
                assert in_region(pt, mode="sorted") == in_region(
                    pt, mode="exhaustive"), pt
        for k in range(1, 5):
            h = harmonic(k)
            for _ in range(1000):
                pt = tuple(Fraction(rnd.randint(0, 1500), 1000) / h
                           for _ in range(k))
                parts = decompose_time_sharing(pt)
                if in_region(pt):
                    assert parts is not None, pt
                    assert combination_value(parts, k) == as_point(pt)
                else:
                    assert parts is None, pt

    _criterion(7, "region", 60.0, body, capsys)


def test_acceptance_8_closed_form_discrepancy(capsys):
    def body():
        q = DofQuery(2, 3, 1)
        printed = nonsquare_closed_form(q, ratio_mode="printed")
        assert printed == Fraction(9, 7), printed
        assert printed != nonsquare_recursion(q)
        for m in range(1, 7):
            for k in range(1, 13):
                for j in range(1, k + 1):
                    if m < k - j + 1:
                        qq = DofQuery(m, k, j)
                        assert (nonsquare_closed_form(qq, ratio_mode="corrected")
                                == nonsquare_recursion(qq)), (m, k, j)

    _criterion(8, "closed-form-discrepancy", 1.0, body, capsys)
