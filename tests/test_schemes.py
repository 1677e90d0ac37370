"""Scheme execution: phase cardinalities, exact accounting, decodability."""

import dataclasses
import functools
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayedcsit import schemes
from delayedcsit.dof_calc import (
    OutOfRegimeError,
    dof_square,
    harmonic,
    nonsquare_recursion,
)
from delayedcsit.numerics import RngStream, haar_unitaries
from delayedcsit.ratesim import receiver_gains
from delayedcsit.schemes import (
    CHANNEL,
    AirLog,
    PhaseRecord,
    SchemeTrace,
    _NL,
    _chain_plan,
    _run_chain,
    build_phase,
    json_pieces,
    phase_layout,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_order_j_delivery,
    run_square_scheme,
    tdma_trace,
)
from delayedcsit.ledger import SymbolTable
from delayedcsit.dof_calc import DofQuery, NonsquarePhaseParams
from oracles import (
    complex_normals,
    draw_losses,
    plan_counts,
    slot_plans,
    trace_doc,
    trace_doc_v2,
    unpadded_draw,
    v1_from_v2,
    v2_from_v3,
    v3_losses,
)


def test_square_scheme_exact_accounting():
    rng = RngStream(0)
    for k in range(1, 5):
        tr = run_square_scheme(k, rng.split(k))
        assert tr.empirical_dof == Fraction(k) / harmonic(k)
        assert tr.symbols_delivered == len(tr.table)
        assert len(tr.targets_for(1)) * k == tr.symbols_delivered
        assert tr.decode_ok()


def test_square_k3_phase_structure():
    tr = run_square_scheme(3, RngStream(1))
    assert tr.replication == {1: 2, 2: 1, 3: 2}
    assert tr.total_slots == 11
    assert tr.symbols_delivered == 18
    levels = [(p.level, p.runs, p.inputs_consumed, p.slots, p.outputs_generated)
              for p in tr.phases]
    assert levels == [(1, 2, 18, 6, 6), (2, 1, 6, 3, 2), (3, 2, 2, 2, 0)]


def test_square_k4_replication():
    tr = run_square_scheme(4, RngStream(2))
    assert tr.replication == {1: 3, 2: 1, 3: 1, 4: 3}
    assert tr.total_slots == 25
    assert tr.symbols_delivered == 48


def test_order_delivery_values():
    tr = run_order_j_delivery(2, 3, 2, RngStream(3))
    assert tr.empirical_dof == Fraction(6, 5)
    assert tr.decode_ok()
    # order-k delivery is plain broadcast at one symbol per slot
    tr = run_order_j_delivery(1, 4, 4, RngStream(4))
    assert tr.empirical_dof == 1
    assert tr.decode_ok()
    for k in range(1, 5):
        for j in range(1, k + 1):
            tr = run_order_j_delivery(k - j + 1, k, j, RngStream(10 * k + j))
            assert tr.empirical_dof == dof_square(k, j), (k, j)
            assert tr.decode_ok(), (k, j)


def test_order_delivery_regime_check():
    with pytest.raises(OutOfRegimeError):
        run_order_j_delivery(1, 3, 1, RngStream(0))
    with pytest.raises(OutOfRegimeError):
        run_order_j_delivery(2, 4, 1, RngStream(0))


def test_mat23_structure():
    tr = run_mat23_suboptimal(RngStream(5))
    assert tr.empirical_dof == Fraction(24, 17)
    assert (tr.m, tr.k) == (2, 3)
    assert tr.replication == {1: 2, 2: 1, 3: 2}
    assert tr.total_slots == 17
    assert tr.symbols_delivered == 24
    levels = [(p.level, p.runs, p.inputs_consumed, p.slots, p.outputs_generated)
              for p in tr.phases]
    assert levels == [(1, 2, 24, 12, 6), (2, 1, 6, 3, 2), (3, 2, 2, 2, 0)]
    assert tr.decode_ok()
    # antenna-limited phase: never more active antennas than available
    assert max(b.shape[1] for b in tr.plans) <= 2


def test_alt22_structure():
    tr = run_alt22(RngStream(6))
    assert tr.empirical_dof == Fraction(4, 3)
    assert tr.total_slots == 3
    assert tr.symbols_delivered == 4
    assert tr.decode_ok()
    # slot 2 rebroadcasts the first receiver's symbols as overheard by
    # the second receiver; slot 3 the reverse
    own1 = set(tr.table.owned_by(1))
    own2 = set(tr.table.owned_by(2))
    plans = slot_plans(tr)
    assert set(np.flatnonzero(plans[1][0])) == own1
    assert set(np.flatnonzero(plans[2][0])) == own2
    # each is that receiver's slot-1 equation on those symbols alone
    for plan, (heard, own) in zip(plans[1:], ((2, own1), (1, own2))):
        part = np.where(np.isin(np.arange(4), list(own)), tr.rows[heard - 1, 0], 0)
        assert np.allclose(plan[0], part / np.linalg.norm(part), rtol=0, atol=1e-15)
    assert [b.shape[1] for b in tr.plans for _ in b] == [2, 1, 1]


def test_opt23_structure():
    tr = run_opt23(RngStream(7))
    assert tr.empirical_dof == Fraction(3, 2)
    assert tr.total_slots == 8
    assert tr.symbols_delivered == 12
    assert len(tr.targets_for(1)) == 4
    assert tr.decode_ok()
    # first three slots each mix the four fresh symbols of one pair
    for slot, pair in zip(range(3), ((1, 2), (1, 3), (2, 3))):
        wanted = {s for r in pair for s in tr.table.owned_by(r)}
        got = set(np.flatnonzero(np.any(slot_plans(tr)[slot] != 0, axis=0)))
        assert got <= wanted
        assert len(got) == 4


def test_tdma_trace():
    tr = tdma_trace(3, RngStream(8))
    assert tr.empirical_dof == 1
    assert tr.total_slots == 3
    assert tr.decode_ok()
    assert all(b.shape[1] == 1 for b in tr.plans)


def test_trace_determinism_and_serialization():
    a = run_square_scheme(2, RngStream(42)).to_json()
    b = run_square_scheme(2, RngStream(42)).to_json()
    c = run_square_scheme(2, RngStream(43)).to_json()
    assert a == b
    assert a != c
    doc = json.loads(a)
    assert doc["schema"] == "v3"
    assert doc["dof"] == "4/3"
    assert doc["rng"] == {"seed": 42, "index": 0}
    assert len(doc["slots"]) == 3
    assert len(doc["symbol_table"]) == 4


def test_trace_decode_residuals():
    tr = run_square_scheme(2, RngStream(9))
    # both receivers share one factorization; two targets each
    assert [len(states) for states, _ in tr.decode_stacks()] == [2]
    ratios, kept, dropped = tr.decode_residuals()
    assert ratios.shape == (4,)
    assert kept.shape == dropped.shape == (2,)
    assert bool(np.all(ratios <= 1)) == tr.decode_ok() is True
    assert np.all((kept > 0.0) & (kept <= 1.0)) and np.all(dropped == 0.0)


def test_channel_override_is_used():
    rng = RngStream(10)
    channels = [rng.complex_normal((2, 2)) for _ in range(3)]
    tr = run_square_scheme(2, RngStream(11), channels=channels)
    for got, want in zip(tr.channels, channels):
        assert np.array_equal(got, want)


def test_channel_draws_shape_and_law():
    # a channel is a k x m draw of i.i.d. CN(0, 1) entries
    air = AirLog(SymbolTable(3), 2, RngStream(5))
    (h,) = air.draw(lambda: [CHANNEL])["channel"]
    assert h.shape == (3, 2)
    big = AirLog(SymbolTable(200), 200, RngStream(5)).draw(lambda: [CHANNEL])["channel"]
    assert abs(np.mean(np.abs(big) ** 2) - 1.0) < 0.02
    with pytest.raises(ValueError):
        AirLog(SymbolTable(0), 2, RngStream(5))


def test_draw_skips_channels_an_override_covers():
    # the channels of overridden slots are not drawn; the other draws
    # keep their place in the stream
    layout = [("plan", 2), CHANNEL] * 3
    over = [np.eye(3, 2)] * 2
    drawn = AirLog(SymbolTable(3), 2, RngStream(6), over).draw(lambda: layout)
    want = complex_normals(RngStream(6), [("plan", (2, 2))] * 3
                           + [("channel", (3, 2))])
    assert drawn.keys() == want.keys()
    assert np.array_equal(drawn["plan"], haar_unitaries(want["plan"]))
    assert np.array_equal(drawn["channel"], want["channel"])
    fully = AirLog(SymbolTable(3), 2, RngStream(6), over * 2).draw(lambda: layout)
    assert "channel" not in fully


def test_a_trace_is_drawn_once_before_its_slots():
    air = AirLog(SymbolTable(2), 1, RngStream(6), [np.ones((2, 1))])
    with pytest.raises(ValueError, match="need channels"):
        air.send_each(np.eye(2))  # one override, no draw
    air.draw(lambda: [CHANNEL] * 2)
    air.send_each(np.eye(2))
    assert air.slots == 2 and np.array_equal(air.channels[0], np.ones((2, 1)))
    with pytest.raises(ValueError, match="need channels"):
        air.send_each(np.eye(2)[:1])
    with pytest.raises(ValueError, match="drawn once"):
        air.draw(lambda: [CHANNEL])


def test_overrides_of_the_wrong_shape_are_refused():
    # six 3 x 5 channels would exactly fill square-3's phase one
    wide = [RngStream(8, i).complex_normal((3, 5)) for i in range(6)]
    for over in (wide, wide[:2], [np.eye(3)] * 3 + [np.eye(3, 2)]):
        with pytest.raises(ValueError, match=r"slot \d+ has shape \(3, [25]\)"):
            run_square_scheme(3, RngStream(1), over)
    with pytest.raises(ValueError, match="slot 1 has non-finite"):
        run_opt23(RngStream(1), [np.ones((3, 2)), np.full((3, 2), np.nan)])


def test_a_zero_form_is_sent_as_zeros(monkeypatch):
    # each form goes out at unit norm, bit for bit row * (1 / norm); an
    # all-zero form has no norm to divide by and goes out as zeros, and
    # only a block that holds one takes the masked np.divide
    rows = RngStream(23).complex_normal((2, 4))
    divide, divides = np.divide, []
    monkeypatch.setattr(np, "divide", lambda *a, **kw: divides.append(a) or divide(*a, **kw))
    for block, masked in (([rows[0], rows[1]], False), ([np.zeros(4), rows[1]], True)):
        air = AirLog(SymbolTable(1), 1, RngStream(24))
        air.draw(lambda: [CHANNEL] * 2)
        divides.clear()
        air.send_each(block)
        (sent,) = air.plans
        assert bool(divides) == masked
        for form, row in zip(sent[:, 0], block):
            norm = np.linalg.norm(row, axis=-1)
            want = row * (1.0 / norm) if norm else np.zeros(4, dtype=np.complex128)
            assert form.tobytes() == want.tobytes()


#: Each builder, and the size of the stack each QR of its draw factors:
#: one QR per group of unitary sizes, every unitary padded to its group's
#: largest size (``schemes._size_groups``), so one for every trace the
#: verify workload builds.
QR_SIZES = {
    "square-2": (lambda s: run_square_scheme(2, s), [2]),
    "square-3": (lambda s: run_square_scheme(3, s), [3]),
    "square-4": (lambda s: run_square_scheme(4, s), [4]),
    "square-6": (lambda s: run_square_scheme(6, s), [6, 4, 2]),
    "alt22": (run_alt22, [4]),
    "mat23": (run_mat23_suboptimal, [4]),
    "opt23": (run_opt23, [4]),
    "tdma-3": (lambda s: tdma_trace(3, s), []),
    "order-2-3-2": (lambda s: run_order_j_delivery(2, 3, 2, s), [3]),
    "(2, 4)": (lambda s: _run_chain("chain", 2, 4, 1, s), [6, 3]),
    "(2, 5)": (lambda s: _run_chain("chain", 2, 5, 1, s), [8, 6, 4, 3, 2]),
}


@pytest.mark.parametrize("name", sorted(QR_SIZES))
def test_a_trace_is_drawn_with_one_call(name, monkeypatch):
    # one generator call per trace, and one QR per group of unitary sizes
    build, sizes = QR_SIZES[name]
    calls = {"normals": 0, "qr": []}
    normals, qr = RngStream.normal_parts, np.linalg.qr

    def count_normals(self, total):
        calls["normals"] += 1
        return normals(self, total)

    def count_qr(a, *args, **kwargs):
        calls["qr"].append(np.shape(a)[-1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(RngStream, "normal_parts", count_normals)
    monkeypatch.setattr(np.linalg, "qr", count_qr)
    for seed in range(3):
        calls["normals"], calls["qr"] = 0, []
        build(RngStream(seed))
        assert calls["normals"] == 1
        assert calls["qr"] == sizes


#: The draw of each builder of :data:`QR_SIZES`, and of square-5, as
#: ``(layout, shape, k, m)``.
LAYOUTS = {
    **{f"square-{k}": (schemes._chain_layout, (k, k, 1), k, k) for k in (2, 3, 4, 5, 6)},
    "alt22": (schemes._pairs_layout, (2,), 2, 2),
    "mat23": (schemes._chain_layout, (2, 3, 1), 3, 2),
    "opt23": (schemes._pairs_layout, (3,), 3, 2),
    "tdma-3": (schemes._sends, (3,), 3, 1),
    "order-2-3-2": (schemes._chain_layout, (2, 3, 2), 3, 2),
    "(2, 4)": (schemes._chain_layout, (2, 4, 1), 4, 2),
    "(2, 5)": (schemes._chain_layout, (2, 5, 1), 5, 2),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_padded_draw_equals_one_stack_per_key(name):
    # padding a square as [[Z, 0], [0, I]] keeps the bits of Z's own QR
    assert set(QR_SIZES) <= set(LAYOUTS)
    layout, shape, k, m = LAYOUTS[name]
    for seed in range(3):
        drawn = AirLog(SymbolTable(k), m, RngStream(seed, 7)).draw(layout, *shape)
        want = unpadded_draw(RngStream(seed, 7), layout(*shape), k, m)
        assert draw_losses(drawn, want) == []


def test_plans_are_unit_norm():
    for tr in (run_square_scheme(3, RngStream(12)),
               run_mat23_suboptimal(RngStream(13)),
               run_opt23(RngStream(14))):
        for plan in slot_plans(tr):
            for f in plan:
                assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def _logged_labels(air):
    return [label for labels, _ in air.combos for label in labels]


def test_full_antenna_phase_cardinalities():
    # three antennas, three receivers, order 1: one slot per subset
    table = SymbolTable(3)
    air = AirLog(table, 3, RngStream(15))
    from itertools import combinations
    syms = [[table.new_symbol(s, f"u{s[0]}.{i}") for i in range(3)]
            for s in combinations(range(1, 4), 1)]
    inputs = np.stack([table.unit_forms(ids) for ids in syms])
    air.draw(phase_layout, 3, 3, 1, 1)
    slots, outs = build_phase(3, 1, inputs, air)
    assert slots == 3
    # one output per order-2 subset, stacked in combinations order
    uppers = [frozenset(t) for t in combinations(range(1, 4), 2)]
    assert outs.shape == (len(uppers), 1, len(table))
    # every order-2 output mixes the symbols of exactly its two owners
    for t, forms in zip(uppers, outs):
        wanted = {s for r in t for s in table.owned_by(r)}
        assert set(np.flatnonzero(forms[0])) <= wanted
    # a full-antenna phase draws and logs no purification
    keys = {key for key, _ in phase_layout(3, 3, 1, 1)}
    assert keys == {(1, "plan"), (1, "order"), CHANNEL[0]}
    assert _logged_labels(air) == [
        "phase1/slot1/plan", "phase1/slot2/plan", "phase1/slot3/plan",
        "phase1/order2/12", "phase1/order2/13", "phase1/order2/23"]


def test_build_phase_validation():
    table = SymbolTable(3)
    fs = frozenset({1})
    syms = [table.new_symbol(fs, "") for _ in range(3)]
    inputs = np.stack([table.unit_forms(syms)] * 3)  # a block per subset
    # on two antennas phase 1 of k = 3 is antenna-limited: beta = 4 forms
    # per subset, so three are refused and four give 6 slots
    air = AirLog(table, 2, RngStream(17))
    with pytest.raises(ValueError):
        build_phase(3, 1, inputs, air)
    with pytest.raises(ValueError):  # nor are the table's 3 unit rows
        build_phase(3, 1, None, air)
    air.draw(phase_layout, 2, 3, 1, 1)
    slots, _ = build_phase(3, 1, np.stack([table.unit_forms(syms + syms[:1])] * 3), air)
    assert slots == 6 and air.slots == 6
    air3 = AirLog(SymbolTable(3), 3, RngStream(19))
    with pytest.raises(ValueError):  # one subset's block of the three
        build_phase(3, 1, inputs[:1], air3)
    with pytest.raises(ValueError):
        build_phase(3, 3, inputs, air3)
    # a stack of the wrong rank: one block, or a block per form
    for wrong in (inputs[0], inputs[..., np.newaxis]):
        with pytest.raises(ValueError):
            build_phase(3, 1, wrong, air3)
    # each subset needs the same positive multiple of k - j + 1 forms:
    # one block per run of the phase; uneven blocks make no stack
    for counts in ((3, 3, 4), (3, 3, 6), (0, 0, 0), (4, 4, 4)):
        uneven = [table.unit_forms(syms * 2)[:n] for n in counts]
        with pytest.raises(ValueError):
            build_phase(3, 1, uneven, air3)
    air3.draw(phase_layout, 3, 3, 1, 2)
    slots, outs = build_phase(3, 1, np.stack([table.unit_forms(syms * 2)] * 3), air3)
    assert slots == 6 and outs.shape[:2] == (3, 2)
    assert air3.slots == 6


def test_antenna_limited_phase_cardinalities():
    # two antennas, three receivers, order 1: eta=1, beta=4, two slots
    # per subset, one purified form per outside receiver
    table = SymbolTable(3)
    air = AirLog(table, 2, RngStream(22))
    params = NonsquarePhaseParams.for_query(DofQuery(2, 3, 1))
    from itertools import combinations
    syms = [[table.new_symbol(s, "") for _ in range(params.beta)]
            for s in combinations(range(1, 4), 1)]
    inputs = np.stack([table.unit_forms(ids) for ids in syms])
    air.draw(phase_layout, 2, 3, 1, 1)
    slots, outs = build_phase(3, 1, inputs, air)
    assert slots == 6
    assert outs.shape[:2] == (3, 1)
    assert air.slots == 6
    assert [plans.shape[:2] for plans in air.plans] == [(6, 2)]
    # an antenna-limited phase draws and logs a purification per
    # receiver outside each subset
    assert ((1, "purify"), 2) in phase_layout(2, 3, 1, 1)
    labels = _logged_labels(air)
    assert labels[:4] == ["phase1/sub1/t0/plan", "phase1/sub1/t1/plan",
                          "phase1/sub1/purify-r2", "phase1/sub1/purify-r3"]
    assert labels[-3:] == ["phase1/order2/12", "phase1/order2/13", "phase1/order2/23"]
    assert len(labels) == 3 * 4 + 3


def test_scheme_trace_decode_across_seeds():
    for seed in range(25):
        assert run_square_scheme(3, RngStream(seed)).decode_ok()
        assert run_opt23(RngStream(seed)).decode_ok()


#: The executed frontier: square ``k = 5, 6``, the antenna-limited
#: ``k = 5`` chains and the ``(5, 6)`` chain (750 symbols, 324 slots), each
#: built and decoded at stream ``(1, 0)``.
FRONTIER = ((5, 5), (6, 6), (4, 5), (3, 5), (2, 5), (5, 6))

#: Seconds for building and decoding all of ``FRONTIER``; about 5 s on a
#: 2-core x86-64 host.
FRONTIER_BUDGET_S = 30.0


def _frontier_trace(m, k, rng):
    return run_square_scheme(k, rng) if m == k else _run_chain(
        "nonsquare", m, k, 1, rng)


def test_executed_frontier_matches_the_recursion():
    start = time.perf_counter()
    for m, k in FRONTIER:
        trace = _frontier_trace(m, k, RngStream(1, 0))
        assert trace.empirical_dof == nonsquare_recursion(DofQuery(m, k, 1)), (m, k)
        want, measured = plan_counts(_chain_plan(m, k, 1), trace)
        assert measured == want, (m, k)
        assert trace.decode_ok(), (m, k)
    elapsed = time.perf_counter() - start
    assert elapsed < FRONTIER_BUDGET_S, f"frontier took {elapsed:.1f}s"


#: Symbols and slots of chains too large for tier-1 to build, keyed
#: ``(m, k)``, from the plan alone (ROADMAP item 6's table).
PLAN_SIZES = {(7, 7): (2940, 1089), (8, 8): (6720, 2283), (2, 6): (5760, 3996),
              (3, 6): (2430, 1348), (4, 6): (3840, 1833), (5, 6): (750, 324)}


def test_chain_plan_counts_without_building():
    for (m, k), want in PLAN_SIZES.items():
        _, records, table = _chain_plan(m, k, 1)
        assert (len(table), sum(p.slots for p in records)) == want, (m, k)
        assert Fraction(*want) == nonsquare_recursion(DofQuery(m, k, 1)), (m, k)
    # one antenna leaves nothing for phase 2: its zero run is kept, and
    # the trace's JSON writes it
    replication, records, _ = _chain_plan(1, 3, 1)
    assert replication == {1: 1, 2: 0}
    assert [p.level for p in records] == [1]


def _chain_2_3_1(stream):
    return _run_chain("chain", 2, 3, 1, stream)


@pytest.mark.parametrize("plan, levels, phase", [
    pytest.param("_chain_plan", {_chain_2_3_1: 1}, 0, id="0"),
    pytest.param("_chain_plan", {_chain_2_3_1: 3}, -1, id="-1"),
    pytest.param("_pairs_plan", {run_alt22: 1, run_opt23: 1}, 0, id="pairs-mixed"),
    pytest.param("_pairs_plan", {run_alt22: 2, run_opt23: 2}, 1, id="pairs-order2"),
    pytest.param("_pairs_plan", {run_alt22: 2, run_opt23: 3}, -1, id="pairs-last"),
])
def test_chain_accounting_is_checked(monkeypatch, plan, levels, phase):
    # a phase that sends other than its record's slots fails the build,
    # whether it is a phase of mixtures (1), the order-k broadcast (3) or
    # a pair scheme's mixed slots; the pair schemes' plan caches the
    # records it took from _chain_plan, so it is patched itself
    real = getattr(schemes, plan)
    at = 1 if plan == "_chain_plan" else -1  # where the plan keeps its records

    def off_by_one(*shape):
        out = list(real(*shape))
        records = list(out[at])
        records[phase] = dataclasses.replace(records[phase], slots=records[phase].slots + 1)
        out[at] = tuple(records)
        return tuple(out)

    monkeypatch.setattr(schemes, plan, off_by_one)
    for build, level in levels.items():
        with pytest.raises(AssertionError, match=f"phase {level} sent"):
            build(RngStream(1))


@pytest.mark.parametrize("build", [
    lambda s: run_square_scheme(3, s), run_mat23_suboptimal,
    lambda s: run_order_j_delivery(2, 3, 2, s), run_alt22, run_opt23,
], ids=["square-3", "mat23", "order-2-3-2", "alt22", "opt23"])
def test_cached_plans_are_not_shared_through_traces(build):
    # every builder starts from a cached plan: what one trace's caller
    # changes in its table, replication or phases never reaches the next
    first = build(RngStream(1))
    want = (list(first.table.symbols), dict(first.replication), list(first.phases),
            [first.table.owned_by(r) for r in range(1, first.k + 1)])
    first.table.new_symbol({1}, "extra")
    first.replication[first.k + 1] = 1
    first.phases.clear()
    second = build(RngStream(1))
    assert (list(second.table.symbols), second.replication, second.phases,
            [second.table.owned_by(r) for r in range(1, second.k + 1)]) == want


def test_pairs_plan_arrays_are_read_only():
    # alt22 and opt23 share their plan's unit rows and selectors
    for k in (2, 3):
        for a in schemes._pairs_plan(k)[1:4]:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


@pytest.fixture(scope="module")
def chain_4_5():
    # the smallest known trace with a singular value below the default
    # tolerance, 9.8e-10 of s_0, which a rank rule at that tolerance
    # drops: 320 symbols, 157 slots
    return _run_chain("chain", 4, 5, 1, RngStream(1, 3))


def test_chain_4_5_decodes_at_a_tighter_tolerance(chain_4_5):
    # the threshold is linear in the tolerance: at 1e-12 a target is
    # inside iff its ratio is at most 1e-12 / 1e-9
    assert chain_4_5.decode_residuals()[0].max() <= 1e-3


def test_chain_4_5_decodes_at_the_default_tolerance(chain_4_5):
    assert chain_4_5.decode_ok()


#: The frontier benchmark's square-6 runs through the CLI at seed 602,
#: rounds 6 and 27, and at seed 11, round 44, whose ``scheme-run`` seeds
#: the stream ``(seed, 0)``: their smallest singular values, 8.6e-10,
#: 6.5e-10 and 5.3e-10 of ``s_0``, lie below the default tolerance, so a
#: rank rule at that tolerance misjudged them and the runs counted failed
#: ops.
FRONTIER_MISSES = (6020006, 6020027, 110044)


@pytest.fixture(scope="module")
def frontier_misses():
    return {seed: run_square_scheme(6, RngStream(seed, 0)) for seed in FRONTIER_MISSES}


@pytest.mark.parametrize("seed", FRONTIER_MISSES)
def test_frontier_misses_decode_at_a_tighter_tolerance(frontier_misses, seed):
    assert frontier_misses[seed].decode_residuals()[0].max() <= 1e-3


@pytest.mark.parametrize("seed", FRONTIER_MISSES)
def test_frontier_misses_decode_at_the_default_tolerance(frontier_misses, seed):
    assert frontier_misses[seed].decode_ok()


def test_decode_stacks_follow_the_size_rule():
    # a small trace's receivers share one factorization; a receiver of
    # square-6 or (2, 5) is too large to share (numerics.STACK_BYTES)
    for build in (lambda s: run_square_scheme(2, s),
                  lambda s: run_square_scheme(3, s), run_alt22,
                  run_mat23_suboptimal, run_opt23):
        for seed in range(3):
            trace = build(RngStream(seed))
            [(rows, targets)] = trace.decode_stacks()
            assert np.array_equal(rows, trace.rows)
            assert targets.tolist() == [trace.targets_for(r) for r in range(1, trace.k + 1)]
    for m, k in ((6, 6), (2, 5)):
        trace = _frontier_trace(m, k, RngStream(1, 0))
        stacks = list(trace.decode_stacks())
        assert [len(rows) for rows, _ in stacks] == [1] * k
        assert np.array_equal(np.concatenate([rows for rows, _ in stacks]), trace.rows)
    # receivers that want different numbers of symbols stack apart, each
    # stack in receiver order
    table = SymbolTable(3)
    for owner in ({1, 3}, {2}, {2}):
        table.new_symbol(owner)
    trace = dataclasses.replace(tdma_trace(3, RngStream(1)), table=table)
    stacks = list(trace.decode_stacks())
    assert [targets.tolist() for _, targets in stacks] == [[[0], [0]], [[1, 2]]]
    assert stacks[0][0].tobytes() == trace.rows[[0, 2]].tobytes()
    assert stacks[1][0].tobytes() == trace.rows[[1]].tobytes()


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _sorted_keys(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def _check_documents(trace, extra=None):
    """``to_json(extra)`` is compact ASCII JSON, no whitespace outside its
    strings, with its keys sorted at every level; the ``v2`` document
    rebuilt from it is the stdlib rendering of the ``v2`` oracle, and the
    ``v1`` one rebuilt from that is the stdlib rendering of the ``v1``
    oracle; return the ``v3`` and ``v1`` texts."""
    text = trace.to_json(extra)
    assert text.isascii()
    assert not re.search(r"\s", re.sub(r'"(?:[^"\\]|\\.)*"', "", text))
    json.loads(text, object_pairs_hook=_sorted_keys)
    v2 = v2_from_v3(text)
    assert v2 == _stdlib_json(trace_doc_v2(trace) | (extra or {}))
    v1 = v1_from_v2(v2)
    assert v1 == _stdlib_json(trace_doc(trace) | (extra or {}))
    return text, v1


@pytest.mark.parametrize("build, seeds", [
    (lambda s: run_square_scheme(2, s), range(4)),
    (lambda s: run_square_scheme(3, s), range(4)),
    (lambda s: run_square_scheme(4, s), range(2)),
    (lambda s: run_square_scheme(5, s), range(1)),
    (run_alt22, range(4)),
    (run_mat23_suboptimal, range(4)),
    (run_opt23, range(4)),
    (lambda s: tdma_trace(3, s), range(4)),
    (lambda s: run_order_j_delivery(2, 3, 2, s), range(4)),
], ids=["square-2", "square-3", "square-4", "square-5", "alt22", "mat23",
        "opt23", "tdma-3", "order-2-3-2"])
def test_canonical_json_matches_stdlib_on_traces(build, seeds):
    for seed in seeds:
        trace = build(RngStream(100 + seed))
        doc = trace_doc(trace)
        assert "".join(json_pieces(doc)) == _stdlib_json(doc), seed
        _check_documents(trace)


def test_to_json_matches_stdlib_with_extra_keys_and_overrides():
    # the keys the CLI adds sort among the trace's own; overrides that run
    # out partway through a phase; a trace with no combination log
    extra = {"command": "scheme-run", "decode_ok": True, "expected_dof": "18/11"}
    rng = RngStream(5)
    square3 = [rng.complex_normal((3, 3)) for _ in range(2)]
    mat23 = [rng.complex_normal((3, 2)) for _ in range(3)]
    for trace in (run_square_scheme(3, RngStream(1), square3),
                  run_mat23_suboptimal(RngStream(2), mat23),
                  tdma_trace(3, RngStream(3))):
        _check_documents(trace, extra)
    assert trace.combination_log == [] and '"combination_log":[]' in trace.to_json()
    # an extra key replaces the trace's own, as a dict union does
    assert json.loads(trace.to_json({"slots": 0, "m": None}))["slots"] == 0


def _hand_trace(n, plans, channels, weights):
    """A trace assembled from given arrays: ``n`` symbols, slot ``s``
    sending ``plans[s]`` over ``channels[s]``, heard by the two receivers
    as ``channels[s][:, :p] @ plans[s]``, and a block of one combination
    per weight matrix."""
    table = SymbolTable(2)
    for i in range(n):
        table.new_symbol({1 + i % 2}, f"x{i}")
    return SchemeTrace(
        name="hand", m=2, k=2, replication={1: 1}, table=table,
        channels=np.array(channels), plans=[plan[np.newaxis] for plan in plans],
        phases=[PhaseRecord(1, 1, n, len(plans), 0)],
        combination_log=[((f"w{i}",), [w]) for i, w in enumerate(weights)],
        seed=0, stream_index=0)


def _complex(re, im):
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def test_to_json_edge_cases():
    # 12 symbols, so key "10" sorts before "2"; a form with no nonzero
    # coefficient, sent and heard; nonzero coefficients with a -0.0 or 0.0
    # part; floats json spells in exponent form; a slot with no active
    # antenna, which nobody hears
    plan = _complex([[0.0] * 12, [-0.0, 0, 1e-05, 0, 0, 0, 0, 0, 0, 0, 1e16, 0]],
                    [[-0.0] * 12, [0, 0, -0.0, 0, 0, 0, 0, 0, 0, 0, 5e-324, -2.0]])
    channel = _complex([[1.0, -0.0], [5e-324, 2.0]], [[-0.0, 0.0], [1e-05, -1e16]])
    trace = _hand_trace(12, [plan, np.zeros((0, 12))], [channel, channel],
                        [channel[:1], np.zeros((2, 0))])
    text, v1 = _check_documents(trace)
    assert v3_losses(trace, text) == []
    doc = json.loads(text)
    first, second = doc["slots"]
    assert first["plan"][0] == {"coeffs": [], "ids": []} and second["plan"] == []
    assert first["plan"][1]["ids"] == [2, 10, 11]
    assert [rec["equations"] for rec in doc["receivers"]] == [[0], [0]]
    assert doc["combination_log"][1]["weights"] == [[], []]
    heard = [rec["equations"] for rec in json.loads(v1)["receivers"]]
    assert [eq["slot"] for eqs in heard for eq in eqs] == [0, 0]
    assert heard[0][0]["form"]["coeffs"] == {}
    assert list(heard[1][0]["form"]["coeffs"]) == ["10", "11", "2"]
    # orjson spells v3's numbers, and json those of the v2 rebuild
    for spelled in ("-0.0", "0.00001", "1e16", "5e-324", "-1e16"):
        assert re.search(rf"[\[,]{spelled}[,\]]", text), spelled
    v2 = v2_from_v3(text)
    for spelled in ("-0.0", "1e-05", "1e+16", "5e-324", "-1e+16"):
        assert f" {spelled}," in v2 or f" {spelled}\n" in v2, spelled


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_to_json_refuses_non_finite_floats(bad):
    # JSON cannot spell them, and orjson would write null: in a plan
    # coefficient, a channel, a weight or an extra key, the writer raises
    plan, channel, weight = np.ones((2, 3), complex), np.ones((2, 2), complex), np.ones((1, 2))
    for where in range(3):
        arrays = [plan.copy(), channel.copy(), weight.astype(complex)]
        arrays[where][-1, -1] = complex(bad, 0) if where else complex(0, bad)
        trace = _hand_trace(3, [arrays[0]], [arrays[1]], [arrays[2]])
        with pytest.raises(ValueError, match="non-finite"):
            trace.to_json()
    with pytest.raises(ValueError):
        _hand_trace(3, [plan], [channel], [weight]).to_json({"x": bad})


def test_v3_round_trips_every_finite_double():
    # every power of two and every 1eN that parses, each one ulp either
    # side, and both signs; zeros, the least subnormal and random finite
    # bit patterns: orjson writes the shortest digits, and json reads
    # back the same double, in every channel, plan and weight
    bases = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                            [float(f"1e{e}") for e in range(-330, 309)]])
    near = np.concatenate([bases, np.nextafter(bases, 0), np.nextafter(bases, np.inf)])
    bits = np.random.default_rng(2018).integers(0, 2**64, 10**5, dtype=np.uint64)
    x = np.concatenate([near, -near, [0.0, -0.0, 5e-324, -5e-324], bits.view(np.float64)])
    x = x[np.isfinite(x)]
    z = np.concatenate([x, np.zeros(-len(x) % 256)]).view(np.complex128).reshape(-1, 2, 64)
    trace = dataclasses.replace(_hand_trace(64, list(z), list(z), [z.reshape(-1, 64)]), m=64)
    assert v3_losses(trace, trace.to_json()) == []


def test_v3_round_trips_strided_arrays():
    # orjson refuses a non-contiguous array, and the view as [re, im]
    # pairs needs a contiguous one too: a stepped, a transposed and a
    # column-sliced input are copied first, with their bits
    z = _complex(np.arange(48.0) - 3.5, 1e-05 * np.arange(48.0))
    plans = z.reshape(4, 6, 2)[::2].transpose(0, 2, 1)
    channels = z.reshape(2, 2, 12)[:, :, ::3]
    weights = z.reshape(3, 2, 8)[:, :, 1::2]
    assert not any(a.flags.c_contiguous for a in (plans, channels, weights))
    table = SymbolTable(2)
    for i in range(6):
        table.new_symbol({1 + i % 2}, f"x{i}")
    trace = SchemeTrace(
        name="strided", m=4, k=2, replication={1: 1}, table=table,
        channels=channels, plans=[plans], phases=[PhaseRecord(1, 1, 6, 2, 0)],
        combination_log=[(("a", "b", "c"), weights)], seed=0, stream_index=0)
    assert v3_losses(trace, trace.to_json()) == []


def test_v2_document_is_smaller_than_its_v1_rebuild():
    # the heard equations were most of the v1 document: 35% is left of
    # square-5's bytes
    text = v2_from_v3(run_square_scheme(5, RngStream(1)).to_json())
    assert len(text) <= 0.4 * len(v1_from_v2(text))


def test_v3_document_is_smaller_than_its_v2_rebuild():
    # no indentation, no per-coefficient key, no empty noise map: 45% is
    # left of square-5's v2 bytes
    text = run_square_scheme(5, RngStream(1)).to_json()
    assert len(text) <= 0.5 * len(v2_from_v3(text))


#: tracemalloc peaks on square-5 at stream ``(1, 0)``, each in a fresh
#: window, the first calls in a fresh process (Python 3.11.7, numpy 2.4.6,
#: x86-64).  The build: 5,991,130 bytes, against 11,736,419 when a trace
#: kept its rows, the first phase multiplied an ``n x n`` identity and a
#: phase held its plans and stacked inputs while it sent.
#: ``to_json()``: 3,038,981 bytes, most of it the joined 1.35 MB
#: document and its pieces, against 7,085,702 with the indented ``v2``
#: writer, 10,603,593 when it rendered every plan at once and 38,801,596
#: with the writer that stacked each receiver's list of row views.
#: Neither may need more than 5% above its value; the values may be
#: lowered, never raised.
BUILD_PEAK_BYTES = 5_991_130
TO_JSON_PEAK_BYTES = 3_038_981

#: ``decode_ok()`` of the same trace: 2,339,210 bytes, one receiver's rows
#: at a time, against 4,969,254 when the check derived every receiver's
#: rows at once; it must stay below the trace's ``rows.nbytes``.  The
#: same rules hold.  ``decode_residuals()``, which also solves for every
#: target's ratio and keeps the margins: 2,437,467 bytes.  Measured with
#: it, ``decode_ok()``, which solves for none of this trace's stacks, took
#: 2,432,795 against 2,433,403 when it solved them all: both peaks sit
#: inside the QR, which copies its input.
DECODE_PEAK_BYTES = 2_339_210
DECODE_RESIDUALS_PEAK_BYTES = 2_437_467

#: ``receiver_gains()`` of the same trace: 2,819,972 bytes, each stack's
#: rows derived as the decode check derives them and freed with the
#: stack's gather and SVD before the next, against 3,215,513 when the SVD
#: also returned the full ``Vh`` that nothing reads and 6,699,101 when it
#: gathered from every receiver's ``rows`` at once.  The same rules hold.
RATE_PEAK_BYTES = 2_819_972


def _traced_peak(call):
    """The tracemalloc peak of ``call()``, in a fresh window."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_build_peak_memory_is_bounded():
    peak = _traced_peak(lambda: run_square_scheme(5, RngStream(1, 0)))
    assert peak <= BUILD_PEAK_BYTES * 1.05, peak


def test_decode_peak_memory_is_bounded():
    trace = run_square_scheme(5, RngStream(1, 0))
    peak = _traced_peak(trace.decode_ok)
    assert peak <= DECODE_PEAK_BYTES * 1.05 < trace.rows.nbytes, peak
    peak = _traced_peak(trace.decode_residuals)
    assert peak <= DECODE_RESIDUALS_PEAK_BYTES * 1.05 < trace.rows.nbytes, peak


def test_rate_peak_memory_is_bounded():
    trace = run_square_scheme(5, RngStream(1, 0))
    peak = _traced_peak(lambda: receiver_gains(trace))
    assert peak <= RATE_PEAK_BYTES * 1.05, peak


def test_to_json_peak_memory_is_bounded():
    trace = run_square_scheme(5, RngStream(1, 0))
    peak = _traced_peak(trace.to_json)
    assert peak <= TO_JSON_PEAK_BYTES * 1.05, peak


def test_to_json_symbol_table_matches_stdlib():
    # labels json must escape, owner sets of several receivers, no symbols
    table = SymbolTable(3)
    for owner, label in (({1}, 'a"b'), ({2, 3}, "\\ %d é\n"), ({1, 2, 3}, ""),
                         ({3, 1}, "x")):
        table.new_symbol(owner, label)
    for table in (table, SymbolTable(3)):
        trace = SchemeTrace(  # one slot with no active antenna: no equations
            name="hand", m=1, k=3, replication={}, table=table,
            channels=np.ones((1, 3, 1)), plans=[np.zeros((1, 0, len(table)))],
            phases=[], combination_log=[],
            seed=0, stream_index=0)
        text, _ = _check_documents(trace)
        assert all(rec["equations"] == [] for rec in json.loads(text)["receivers"])


#: Floats whose spelling is special: signed zero, the least subnormal, NaN
#: and infinities, and the points where json's layout turns to exponent form
#: on either side, ``1e-4`` and ``1e16``, each with its neighbour.
_EDGE_FLOATS = (-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 1e-4,
                float(np.nextafter(1e-4, 0)), float(np.nextafter(1e16, 0)), -1e-05)
_parts = st.sampled_from((0.0, 0.0, 0.0, 1e-05) + _EDGE_FLOATS) | st.floats()


@given(st.integers(1, 13), st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.data())
@settings(max_examples=100, deadline=None)
def test_to_json_matches_stdlib_on_any_arrays(n, antennas, data):
    def draw(*shape):
        size = math.prod(shape)
        re, im = (data.draw(st.lists(_parts, min_size=size, max_size=size))
                  for _ in range(2))
        return _complex(np.reshape(re, shape), np.reshape(im, shape))

    plans = [draw(p, n) for p in antennas]
    for plan in plans:
        # a zero coefficient is not written, and the v1 rebuild takes it as
        # +0: a signed zero would change no value, only perhaps the sign of
        # a heard coefficient's part that sums zeros alone
        plan[plan == 0] = 0
    channels = [draw(2, 2) for _ in antennas]
    weights = [draw(*data.draw(st.tuples(st.integers(0, 2), st.integers(0, 3))))
               for _ in range(data.draw(st.integers(0, 2)))]
    trace = _hand_trace(n, plans, channels, weights)
    if not all(np.isfinite(a).all() for a in [*plans, *channels, *weights]):
        with pytest.raises(ValueError, match="non-finite"):
            trace.to_json()
        return
    with np.errstate(all="ignore"):  # large parts make inf products
        _check_documents(trace)


_TRICKY_TEXT = ("", "0", "3:2", "a,b", "x]", "[", "[]", ":[", '"q"', "\\",
                "],\n", "\u00e9\u6f22", "\U0001f600", "\x00\t")
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_texts = st.text() | st.sampled_from(_TRICKY_TEXT)
_numbers = st.none() | st.booleans() | st.integers() | _floats
_pairs = st.lists(_floats, min_size=2, max_size=2)
_rows = _pairs | st.lists(_numbers, max_size=4) | st.lists(_numbers | _texts,
                                                          max_size=3)
_keys = _texts | st.from_regex(r"[0-9]{1,3}(:[0-9]{1,2})?", fullmatch=True)
_leaves = (_numbers | _texts | _rows
           | st.lists(_rows, max_size=4)
           | st.dictionaries(_keys, _rows, max_size=4)
           | st.dictionaries(st.integers(), _pairs, max_size=3))
_json_trees = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_keys, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=40)


@given(st.dictionaries(_keys, _json_trees, max_size=4),
       st.dictionaries(_keys, st.lists(_json_trees, max_size=3), max_size=2))
@example({}, {})
@example({"a": 1.0, "c": []}, {"b": [[1.0, 2.0], {"x": None}], "c": []})
@example({}, {"only": []})
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_stdlib_on_any_tree(tree, lists):
    # the keys of one dict split between the document and arrays of items
    # pre-rendered at depth 2, as strings or as lists of pieces: empty
    # dicts and lists; [re, im] pairs and other number lists among other
    # values; keys and strings that need escaping, non-ASCII ones and ones
    # holding brackets, commas and quotes; ints, bools, None, -0.0, the
    # least subnormal, 1e16, NaN and infinities; tuples and dicts with
    # integer keys.  Compact, the same with "," and ":" separators, and
    # NaN or an infinity in the document (not in pre-rendered items) raises
    doc = {key: value for key, value in tree.items() if key not in lists}
    arrays = {}
    for key, items in lists.items():
        texts = [_stdlib_json(item).replace("\n", _NL[2]) for item in items]
        arrays[key] = [text if i % 2 else [text[:len(text) // 2], text[len(text) // 2:]]
                       for i, text in enumerate(texts)]
    assert "".join(json_pieces(doc, arrays)) == _stdlib_json(doc | lists)
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    arrays = {key: [compact(item) for item in items] for key, items in lists.items()}
    try:
        compact(doc, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="Out of range float"):
            "".join(json_pieces(doc, arrays, compact=True))
    else:
        assert "".join(json_pieces(doc, arrays, compact=True)) == compact(doc | lists)


def test_canonical_json_fails_on_a_cycle_as_json_does():
    cycle = [1.0]
    cycle.append({"back": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        "".join(json_pieces(cycle))

