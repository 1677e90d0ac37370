"""Symbolic transmission ledger: forms, slots, decode checks, alignment."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedcsit.ledger import can_decode
from delayedcsit.numerics import (
    RngStream,
    haar_unitaries,
    numerical_rank,
    unit_residuals,
)
from delayedcsit.schemes import (
    CHANNEL,
    AirLog,
    SymbolTable,
    _run_chain,
    alignment_ranks,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_square_scheme,
)
from oracles import (
    complex_normals,
    equation_dict,
    heard_slots,
    rowspace_residuals,
    slot_plans,
    v1_from_v2,
    v2_from_v3,
)

SMALL_SCHEMES = {
    "square-2": lambda s: run_square_scheme(2, s),
    "square-3": lambda s: run_square_scheme(3, s),
    "alt22": run_alt22,
    "mat23": run_mat23_suboptimal,
    "opt23": run_opt23,
}

#: The small schemes plus square-4, for the ledger invariants.
LEDGER_SCHEMES = {**SMALL_SCHEMES,
                  "square-4": lambda s: run_square_scheme(4, s)}


def test_symbol_table_bookkeeping():
    t = SymbolTable(3, [{1}, {1, 2}], ["a", "b"])
    a, b = t.ids
    assert t.ids == [0, 1]
    assert t.owners == (frozenset({1}), frozenset({1, 2}))
    assert t.labels == ("a", "b")
    assert t.owned_by(1) == [a, b]
    assert t.owned_by(2) == [b]
    assert t.owned_by(3) == t.owned_by(0) == t.owned_by(4) == []
    assert t.owns == ((a, b), (b,), ())
    assert len(t) == 2
    assert SymbolTable(2, [{1}, {2}]).labels == ("", "")
    with pytest.raises(ValueError):
        SymbolTable(0)
    with pytest.raises(ValueError):
        SymbolTable(3, [{4}], ["bad"])
    with pytest.raises(ValueError):
        SymbolTable(3, [set()], ["empty"])
    with pytest.raises(ValueError):  # a label for each symbol
        SymbolTable(3, [{1}, {2}], ["one"])


def test_transmit_slot_exact_rows():
    # a single slot is a stack of one, sent on an override channel
    t = SymbolTable(2, [{1}, {2}], ["x", "y"])
    x, y = t.ids
    assert np.array_equal(t.unit_forms([y, x]), [[0.0, 1.0], [1.0, 0.0]])
    h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    air = AirLog(t, 2, RngStream(1), [h])
    air.draw(lambda: [CHANNEL])
    recon = air.broadcast(t.unit_forms([x, y])[np.newaxis])
    # receiver r hears h[r, 0]*x + h[r, 1]*y plus its own fresh noise; the
    # reconstructions are those rows without the noise, and read-only
    assert np.array_equal(recon, [[[1.0, 2.0], [3.0, 4.0]]])
    assert not recon.flags.writeable
    assert equation_dict(1, 0, recon[0, 0])["form"]["noise"] == {"0:1": [1.0, 0.0]}


def test_transmit_slot_validation_and_empty_plan():
    # an empty plan is heard by nobody: no rows, and no row in a trace;
    # a slot past the drawn channels is refused
    t = SymbolTable(2, [{1}], ["x"])
    air = AirLog(t, 2, RngStream(1))
    air.draw(lambda: [CHANNEL] * 3)
    out = air.broadcast(np.zeros((1, 0, 1)))
    assert out.shape == (1, 0, 1)
    air.send_each(t.unit_forms([0, 0]))
    with pytest.raises(ValueError, match="need channels"):
        air.broadcast(t.unit_forms([0])[np.newaxis])
    trace = air.trace("hand", {}, [])
    assert trace.total_slots == 3 and [b.shape[1] for b in trace.plans for _ in b] == [0, 1, 1]
    assert np.array_equal(trace.rows, air.channels[1:, :, :1].transpose(1, 0, 2))
    assert heard_slots(trace) == [1, 2]


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 3),
       st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_transmit_slots_stacked_rows(slots, receivers, p, symbols, seed):
    # slot s puts h_s[r, :p] @ plan_s into receiver r, slots in stack
    # order, bit for bit the stacked product of the plans sent (each form
    # at unit norm); the rows are read-only
    rng = RngStream(seed)
    antennas = max(p, 1) + 1
    h = rng.complex_normal((slots, receivers, antennas))
    air = AirLog(SymbolTable(receivers, [{1}] * symbols), antennas, rng, h)
    air.draw(lambda: [CHANNEL] * slots)
    recon = air.broadcast(rng.complex_normal((slots, p, symbols)))
    (plans,) = air.plans
    assert recon.shape == (slots, receivers if p else 0, symbols)
    assert not (p and recon.flags.writeable)
    assert not p or np.array_equal(recon, h[:, :, :p] @ plans)
    for s in range(slots if p else 0):
        for r in range(receivers):
            # bit for bit the one-slot product; the vector product takes
            # another BLAS path, so it agrees to rounding only
            row = recon[s, r]
            assert np.array_equal(row, (h[s, :, :p] @ plans[s])[r]), (s, r)
            want = h[s, r, :p] @ plans[s]
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


def _noise_weights(receiver_doc):
    """Noise weight matrix of one receiver's emitted equations: a row per
    equation, a column per noise sample id."""
    eqs = receiver_doc["equations"]
    ids = sorted({n for eq in eqs for n in eq["form"]["noise"]})
    w = np.zeros((len(eqs), len(ids)), dtype=complex)
    for row, eq in enumerate(eqs):
        for n, (re, im) in eq["form"]["noise"].items():
            w[row, ids.index(n)] = complex(re, im)
    return w


def _written_v1(trace):
    """The ``v1`` document rebuilt from the ``v3`` one the trace writes,
    whose receivers each list the slots they heard."""
    text = trace.to_json()
    for rec in json.loads(text)["receivers"]:
        assert rec["equations"] == heard_slots(trace), rec["receiver"]
    return json.loads(v1_from_v2(v2_from_v3(text)))


def test_noise_ids_are_unique_per_slot_and_receiver():
    # every emitted equation carries exactly the unit noise sample of its
    # (slot, receiver) pair; no transmitted plan form carries any noise
    for name, build in sorted(LEDGER_SCHEMES.items()):
        doc = _written_v1(build(RngStream(4)))
        ids = []
        for rec in doc["receivers"]:
            for eq in rec["equations"]:
                want = f"{eq['slot']}:{rec['receiver']}"
                assert eq["receiver"] == rec["receiver"], name
                assert eq["form"]["noise"] == {want: [1.0, 0.0]}, name
                assert eq["noise_variance"] == 1.0, name
                ids.append(want)
            assert len(rec["equations"]) == rec["slots_observed"], name
        assert len(ids) == len(set(ids)) == doc["k"] * doc["total_slots"], name
        assert all(f["noise"] == {} for sl in doc["slots"] for f in sl["plan"])


def test_noise_covariance_identity_for_raw_equations():
    # the emitted noise weights of each receiver are orthonormal: its
    # observation noise is white, which is all the rate path assumes
    for name, build in sorted(LEDGER_SCHEMES.items()):
        for rec in _written_v1(build(RngStream(5)))["receivers"]:
            w = _noise_weights(rec)
            assert np.array_equal(w @ w.conj().T, np.eye(len(w))), name


def test_equation_rows_are_channel_times_plan():
    # each stored row is its slot's channel row times the slot's plan,
    # summed antenna by antenna here, and the v1 document rebuilt from the
    # written JSON holds its nonzeros
    for name, build in sorted(LEDGER_SCHEMES.items()):
        trace = build(RngStream(6))
        doc = _written_v1(trace)
        plans = slot_plans(trace)
        assert heard_slots(trace) == list(range(trace.total_slots)), name
        for r, (rows, rec) in enumerate(zip(trace.rows, doc["receivers"])):
            assert len(rows) == len(rec["equations"]) == trace.total_slots, name
            for slot, row, eq in zip(heard_slots(trace), rows, rec["equations"]):
                h = trace.channels[slot][r]
                plan = plans[slot]
                want = sum(h[m] * plan[m] for m in range(len(plan)))
                assert (np.linalg.norm(row - want)
                        <= 1e-12 * np.linalg.norm(want)), (name, slot)
                coeffs = {int(s): complex(re, im)
                          for s, (re, im) in eq["form"]["coeffs"].items()}
                assert sorted(coeffs) == np.flatnonzero(row).tolist()
                assert all(coeffs[s] == row[s] for s in coeffs)


def test_can_decode_hand_cases(monkeypatch):
    t = SymbolTable(2, [{1}, {2}], ["x", "y"])
    x, y = t.ids
    one = np.array([[1.0, 1.0]])
    assert not can_decode([one], [[x]])  # one equation, two unknowns
    st1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert can_decode([st1], [[x]])
    assert can_decode([st1], [[x, y]])
    with pytest.raises(ValueError):
        can_decode([st1], [[]])
    assert not can_decode(np.zeros((1, 0, 2)), [[y]])  # heard nothing
    assert not can_decode(np.zeros((1, 2, 2)), [[y]])  # deaf: heard zeros
    # a stack decodes iff each of its receivers does
    st2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert can_decode([st1, st2], [[x], [y]])
    short = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert not can_decode([st1, short], [[x], [y]])
    assert not can_decode([st1, np.zeros((2, 2))], [[x], [y]])
    with pytest.raises(ValueError):
        can_decode([st1, one], [[x], [y]])  # two shapes
    with pytest.raises(ValueError):
        can_decode([st1, st2], [[x], [x, y]])  # two target counts
    with pytest.raises(ValueError):
        can_decode([st1, st2], [[x]])  # one target list short
    with pytest.raises(ValueError):
        can_decode(st1, [[x], [y]])  # one matrix, not a stack
    # the three outcomes of deciding from the explicit residual d: on the
    # row (1, delta), d over its threshold is 0.71, 1.27 and 2.12, and the
    # ratio g / thr of unit_residuals 0.5, 0.9 and 1.5; the verdict solves
    # R z = Q[t]^H only when d does not settle it
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
    for delta, ok, solved in ((1e-9, True, False), (1.8e-9, True, True),
                              (3e-9, False, True)):
        row = np.array([[[1.0, delta]]])
        solves.clear()
        assert can_decode(row, [[x]]) == ok, delta
        assert bool(solves) == solved, delta
        (ratio,), _, _ = unit_residuals(row, [[x]])
        assert bool(ratio[0] <= 1) == ok, (delta, ratio)


def _stacked_rank_decodes(rows, targets):
    """The per-target rule ``can_decode`` replaced: stack each unit row
    under the coefficient matrix ``rows`` and compare numerical ranks."""
    used = np.flatnonzero(np.any(rows != 0, axis=0))
    ids = sorted(set(used.tolist()) | set(targets))
    a = rows[:, ids]
    base = numerical_rank(a)
    for t in targets:
        e = np.zeros((1, len(ids)), dtype=complex)
        e[0, ids.index(t)] = 1.0
        if numerical_rank(np.vstack([a, e])) != base:
            return False
    return True


def _with_zero_channels(trace, pick):
    """``trace`` with the entries ``pick`` of its channels zero: its
    receivers' rows are derived from what it holds."""
    channels = trace.channels.copy()
    channels[pick] = 0.0
    return dataclasses.replace(trace, channels=channels)


def _truncated(trace):
    """``trace`` without its last slot, and so without that slot's
    equations (every slot is heard)."""
    return dataclasses.replace(trace, channels=trace.channels[:-1],
                               plans=[*trace.plans[:-1], trace.plans[-1][:-1]])


@pytest.mark.parametrize("name", sorted(SMALL_SCHEMES))
def test_can_decode_matches_stacked_rank_oracle(name):
    for seed in range(50):
        trace = SMALL_SCHEMES[name](RngStream(seed))
        for tr, complete in ((trace, True), (_truncated(trace), False)):
            verdicts = []
            for r, rows in enumerate(tr.rows, start=1):
                targets = tr.table.owned_by(r)
                got = can_decode(rows[np.newaxis], [targets])
                assert got == _stacked_rank_decodes(rows, targets), (
                    name, seed, complete, r)
                verdicts.append(got)
            assert all(verdicts) == complete, (name, seed, complete)
            assert all(can_decode(*stack) for stack in tr.decode_stacks()) == complete
            assert tr.decode_ok() == complete == bool(
                (tr.decode_residuals()[0] <= 1).all())


#: Traces whose smallest singular value lies below 1e-9 of ``s_0``, the
#: default rank tolerance: square-6 at streams ``(6020006, 0)``,
#: ``(6020027, 0)`` and ``(110044, 0)`` (the frontier benchmark's square-6
#: runs at seeds 602 and 11) and the ``(4, 5)`` chain at ``(1, 3)``.  A
#: rank rule at that tolerance drops a generic direction of each.
LOW_MARGIN_TRACES = (
    *((lambda s: run_square_scheme(6, s), RngStream(seed, 0))
      for seed in (6020006, 6020027, 110044)),
    (lambda s: _run_chain("chain", 4, 5, 1, s), RngStream(1, 3)),
)


def test_decode_residuals_are_decades_from_threshold():
    # every verified size up to square-5 and the (2, 4) chain, and the
    # low-margin traces, complete and truncated by one slot: no residual
    # lies within 10x of its threshold, a complete trace decodes and a
    # truncated one does not, and every receiver's matrix has full row
    # rank at NumPy's floor; the bounds are literals so that a lower
    # tolerance cannot weaken them.  A receiver decodes iff its worst
    # target passes: truncated, a low-margin trace's failing receivers
    # fail by 5.6e2 or more, but some of their single targets lie
    # within 10x (down to 0.49x), so there the window holds for each
    # receiver's worst target
    builders = [(SMALL_SCHEMES[name], range(5)) for name in sorted(SMALL_SCHEMES)]
    builders += [(lambda s: run_square_scheme(4, s), range(3)),
                 (lambda s: run_square_scheme(5, s), range(2)),
                 (lambda s: _run_chain("nonsquare", 2, 4, 1, s), range(3))]
    cases = [(build, RngStream(seed), False) for build, seeds in builders for seed in seeds]
    cases += [(build, stream, True) for build, stream in LOW_MARGIN_TRACES]
    for build, stream, low in cases:
        trace = build(stream)
        for tr, complete in ((trace, True), (_truncated(trace), False)):
            margins, ratios = [], []
            for rows, targets in tr.decode_stacks():
                ratio, kept, dropped = unit_residuals(rows, targets)
                ratios.append(ratio)
                if low and not complete:
                    ratio = ratio.max(axis=-1)
                assert np.all((ratio <= 0.1) | (ratio >= 10.0)), (
                    stream, ratio[(ratio > 0.1) & (ratio < 10)])
                margins += kept.tolist()
                for a, margin in zip(rows, kept):
                    sv = np.linalg.svd(a, compute_uv=False)
                    assert margin == pytest.approx(sv[-1] / sv[0], rel=1e-6)
                # every receiver has full row rank: nothing dropped
                assert np.all(dropped == 0.0), (stream, dropped)
            # ratios holds decode_residuals()[0] a stack at a time
            assert tr.decode_ok() == complete == all(
                bool((r <= 1).all()) for r in ratios), stream
            if low:
                # chosen for a singular value below the default
                # tolerance, which the last slot's row brings
                assert (min(margins) < 1e-9) == complete, (stream, min(margins))
            else:
                # the smallest is at least 1e-7 of the largest, 100x the
                # default tolerance
                assert min(margins) >= 1e-7, (stream, min(margins))


def test_decode_ok_needs_no_svd_where_r_certifies(monkeypatch):
    # R and its triangular inverse settle every receiver of the five
    # verify schemes and of square-5 and square-6 at (1, 0): decode_ok
    # calls no svd, and decode_residuals, whose margins read it, one per
    # stack
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw))
    traces = [SMALL_SCHEMES[name](RngStream(seed))
              for name in sorted(SMALL_SCHEMES) for seed in range(20)]
    traces += [run_square_scheme(k, RngStream(1, 0)) for k in (5, 6)]
    for trace in traces:
        calls.clear()
        assert trace.decode_ok(), trace.name
        assert calls == [], trace.name
        trace.decode_residuals()
        assert len(calls) == sum(1 for _ in trace.decode_stacks()), trace.name


def test_decode_ok_equals_the_ratios_at_2_5():
    # where the certificate declines, the verdict comes from svd(R) of
    # the same QR; the frontier's low-margin square-6 streams are checked
    # in test_decode_residuals_are_decades_from_threshold
    trace = _run_chain("nonsquare", 2, 5, 1, RngStream(1, 0))
    for tr, complete in ((trace, True), (_truncated(trace), False)):
        assert tr.decode_ok() == complete == bool((tr.decode_residuals()[0] <= 1).all())


def _cleared(trace, receiver):
    """``trace`` with one receiver deaf: its channel is zero in every
    slot, so its rows are all zero."""
    return _with_zero_channels(trace, (slice(None), receiver - 1))


def _deficient(trace, receiver):
    """``trace`` with one receiver's channel zero in the last slot: its
    last row is zero, the same shape, one rank less."""
    return _with_zero_channels(trace, (-1, receiver - 1))


@pytest.mark.parametrize("name", sorted(SMALL_SCHEMES))
def test_stacked_residuals_equal_per_matrix(name):
    # a stack gives each receiver the bits of its matrix factored alone:
    # complete and truncated traces, a deaf receiver (rank 0) and one of
    # lower rank, which certify nothing; each receiver's verdict is the
    # SVD oracle's and the stacked-rank rule's; a receiver that heard
    # nothing has another shape, so it is factored alone
    for seed in range(20):
        trace = SMALL_SCHEMES[name](RngStream(seed))
        n = len(trace.table)
        for tr in (trace, _truncated(trace), _cleared(trace, 1), _deficient(trace, 2)):
            stacks, heard = list(tr.decode_stacks()), tr.rows
            assert np.array_equal(np.concatenate([rows for rows, _ in stacks]), heard)
            for rows, wanted in stacks:
                got = unit_residuals(rows, wanted)
                for i, (a, t) in enumerate(zip(rows, wanted)):
                    alone = unit_residuals(a[np.newaxis], [t])
                    assert [x[i].tobytes() for x in got] == [
                        x[0].tobytes() for x in alone], (seed, i)
                    g, thr, *_ = rowspace_residuals(a, np.eye(n)[t])
                    verdict = bool(np.all(got[0][i] <= 1))
                    assert verdict == bool(np.all(g <= thr)) == (
                        _stacked_rank_decodes(a, t)), (seed, i)
            verdict = all(can_decode(*stack) for stack in stacks)
            assert verdict == tr.decode_ok() == all(
                _stacked_rank_decodes(a, tr.table.owned_by(r))
                for r, a in enumerate(heard, start=1))
        assert not _cleared(trace, 1).decode_ok() and not _deficient(trace, 2).decode_ok()
        t = trace.table.owned_by(1)
        got = unit_residuals(np.zeros((1, 0, n)), [t])
        g, thr, *margins = rowspace_residuals(np.zeros((0, n)), np.eye(n)[t])
        assert [a.tobytes() for a in got] == [
            np.asarray(a)[np.newaxis].tobytes() for a in (g / thr, *margins)]
        assert not can_decode(np.zeros((1, 0, n)), [t])


def test_rank_deficient_receivers_certify_nothing():
    # below NumPy's floor every target of a receiver gets 1 / 1e-9, the
    # ratio of a receiver that heard nothing, so no tolerance up to 1e-9
    # would pass it, at any scale of its entries; the margins stay
    # finite, and a deaf receiver keeps nothing and drops nothing
    a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                  [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                  [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    ratios, kept, dropped = unit_residuals(a, [[0], [0], [0]])
    assert ratios[0] < 1e-15 / (1e-9 * math.sqrt(2.0))
    assert ratios[1:].ravel().tolist() == [1 / 1e-9, 1 / 1e-9]
    assert kept.tolist() == [1.0, 1.0, np.inf]
    assert dropped[0] == 0.0 and 0.0 <= dropped[1] <= 1e-15 and dropped[2] == 0.0
    # more equations than symbols: never full row rank
    (ratio,), _, _ = unit_residuals(np.eye(3)[np.newaxis, :, :2], [[0]])
    assert ratio.tolist() == [1 / 1e-9]
    # the threshold grows with s_0, but a rank-deficient receiver's ratio
    # does not shrink with it: symbol 1's column is all zero at both scales
    for scale in (1e10, 1e-10, 1.0):
        short = a[1:2] * scale
        assert not can_decode(short, [[1]]), scale
        assert not can_decode(short, [[0]]), scale
        assert unit_residuals(short, [[1]])[0].tolist() == [[1 / 1e-9]], scale


def test_receiver_states_are_views_of_the_row_array():
    # one derived row array per read of states, each receiver a view of it
    trace = run_square_scheme(3, RngStream(2))
    states = trace.states
    for r, st in enumerate(states, start=1):
        assert st.receiver == r and st.rows.base is states[0].rows.base is not None
        assert len(st.equations) == trace.total_slots


def test_mixing_weights_are_unitary_rows():
    # mixing weights are rows of Haar unitaries; a trace's draw factors
    # every square of one size with one QR, bit for bit as one by one
    layout = [("a", 4), CHANNEL, ("b", 4), ("c", 2)]
    drawn = AirLog(SymbolTable(2), 2, RngStream(3)).draw(lambda: layout)
    z = complex_normals(RngStream(3), [("a", (4, 4)), ("channel", (2, 2)),
                                       ("b", (4, 4)), ("c", (2, 2))])
    for key in "abc":
        assert np.array_equal(drawn[key], haar_unitaries(z[key])), key
    assert np.array_equal(drawn["channel"], z["channel"])
    forms = np.eye(5)[1:]
    w = drawn["a"][0, :2]
    assert w.shape == (2, 4)
    assert np.allclose(w @ w.conj().T, np.eye(2), atol=1e-12)
    out = w @ forms  # mixing unit rows places the weights in their columns
    assert np.array_equal(out[:, 1:], w) and not out[:, 0].any()
    # a stack: block i is mixed by its own weights
    blocks = RngStream(4).complex_normal((3, 4, 6))
    w = haar_unitaries(RngStream(5).complex_normal((3, 4, 4)))[:, :3]
    out = w @ blocks
    for i in range(3):
        assert np.array_equal(out[i], w[i] @ blocks[i])


def test_alignment_ranks_generic():
    for seed in range(10):
        tr = run_square_scheme(2, RngStream(seed))
        assert alignment_ranks(tr) == (2, 1)


def _channels_for_two_user(h3_a):
    """Three hand-set channel matrices for the two-user scheme; the
    third slot's first-receiver row is ``h3_a``."""
    rng = RngStream(99)
    h1 = rng.complex_normal((2, 2))
    h2 = rng.complex_normal((2, 2))
    h3 = rng.complex_normal((2, 2))
    h3[0, :] = h3_a
    return [h1, h2, h3]


def test_alignment_ranks_degenerate_broadcast_gain():
    # zeroing the first receiver's gain in the broadcast slot kills its
    # third (desired) row: the desired stack drops to rank 1 while the
    # slot-2 interference row survives
    channels = _channels_for_two_user(np.array([0.0, 0.0]))
    tr = run_square_scheme(2, RngStream(1), channels=channels)
    assert alignment_ranks(tr) == (1, 1)


def test_alignment_ranks_interference_free():
    # additionally silencing the first receiver during slot 2 (the other
    # user's slot) leaves it with no interference at all
    rng = RngStream(99)
    h1 = rng.complex_normal((2, 2))
    h2 = rng.complex_normal((2, 2))
    h2[0, :] = 0.0
    h3 = rng.complex_normal((2, 2))
    h3[0, :] = 0.0
    tr = run_square_scheme(2, RngStream(1), channels=[h1, h2, h3])
    assert alignment_ranks(tr) == (1, 0)


def test_alignment_ranks_rejects_other_shapes():
    tr = run_square_scheme(3, RngStream(0))
    with pytest.raises(ValueError):
        alignment_ranks(tr)
