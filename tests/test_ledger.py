"""Symbolic transmission ledger: forms, slots, decode checks, alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedcsit.ledger import (
    Equation,
    LinearForm,
    ReceiverState,
    SymbolTable,
    alignment_ranks,
    can_decode,
    combine,
    decode_residuals,
    noise_covariance,
    random_combination,
    transmit_slot,
)
from delayedcsit.numerics import RngStream, numerical_rank
from delayedcsit.schemes import (
    _run_chain,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_square_scheme,
)

SMALL_SCHEMES = {
    "square-2": lambda s: run_square_scheme(2, s),
    "square-3": lambda s: run_square_scheme(3, s),
    "alt22": run_alt22,
    "mat23": run_mat23_suboptimal,
    "opt23": run_opt23,
}


def test_linear_form_algebra():
    f = LinearForm({1: 2.0, 2: 1.0})
    g = LinearForm({2: -1.0, 3: 4.0})
    s = f + g
    assert s.coeffs == {1: 2.0, 3: 4.0}  # symbol 2 cancels exactly
    assert f.scaled(2.0).coeffs == {1: 4.0, 2: 2.0}
    assert f.support() == {1, 2}
    assert abs(f.coeff_norm() - np.sqrt(5.0)) < 1e-15


def test_linear_form_restrict_keeps_noise():
    f = LinearForm({1: 1.0, 2: 2.0, 3: 3.0}, noise={(0, 1): 1.0})
    r = f.restrict({1, 3})
    assert r.coeffs == {1: 1.0, 3: 3.0}
    assert r.noise == {(0, 1): 1.0}


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_linear_form_scaling_is_homogeneous(c):
    f = LinearForm({1: 1.0 + 2.0j, 5: -3.0}, noise={(2, 1): 0.5j})
    g = f.scaled(c)
    assert abs(g.coeff_norm() - abs(c) * f.coeff_norm()) <= 1e-9 * (1 + abs(c))
    assert g.noise.get((2, 1), 0) == 0.5j * c


def test_symbol_table_bookkeeping():
    t = SymbolTable(3)
    a = t.new_symbol({1}, "a")
    b = t.new_symbol({1, 2}, "b")
    assert t.ids == [a, b]
    assert [s.order for s in t.symbols] == [1, 2]
    assert t.owned_by(1) == [a, b]
    assert t.owned_by(2) == [b]
    assert t.owned_by(3) == []
    assert len(t) == 2
    with pytest.raises(ValueError):
        t.new_symbol({4}, "bad")
    with pytest.raises(ValueError):
        t.new_symbol(set(), "empty")


def test_transmit_slot_exact_rows():
    t = SymbolTable(2)
    x = t.new_symbol({1}, "x")
    y = t.new_symbol({2}, "y")
    states = [ReceiverState(1), ReceiverState(2)]
    h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    recon = transmit_slot([t.unit_form(x), t.unit_form(y)], h, states)
    # receiver r hears h[r, 0]*x + h[r, 1]*y plus unit fresh noise
    eq = states[0].equations[0]
    assert eq.form.coeffs == {x: 1.0, y: 2.0}
    assert eq.form.noise == {(0, 1): 1.0}
    assert states[1].equations[0].form.coeffs == {x: 3.0, y: 4.0}
    assert states[1].equations[0].form.noise == {(0, 2): 1.0}
    # reconstructions are noiseless copies of the received forms
    assert recon[0].coeffs == eq.form.coeffs
    assert recon[0].noise == {}
    assert states[0].slots_observed == 1


def test_transmit_slot_validation_and_empty_plan():
    t = SymbolTable(2)
    t.new_symbol({1}, "x")
    states = [ReceiverState(1), ReceiverState(2)]
    h = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        transmit_slot([t.unit_form(1)] * 3, h, states)  # more forms than antennas
    with pytest.raises(ValueError):
        transmit_slot([t.unit_form(1)], np.eye(3, dtype=complex), states)
    out = transmit_slot([], h, states)
    assert out == []
    assert all(s.slots_observed == 1 and not s.equations for s in states)


def test_noise_ids_are_unique_per_slot_and_receiver():
    t = SymbolTable(2)
    x = t.new_symbol({1}, "x")
    states = [ReceiverState(1), ReceiverState(2)]
    h = np.eye(2, dtype=complex)
    transmit_slot([t.unit_form(x)], h, states)
    transmit_slot([t.unit_form(x)], h, states)
    ids = [n for s in states for eq in s.equations for n in eq.form.noise]
    assert len(ids) == len(set(ids)) == 4
    assert all(eq.noise_variance == 1.0
               for s in states for eq in s.equations)


def test_can_decode_hand_cases():
    t = SymbolTable(2)
    x = t.new_symbol({1}, "x")
    y = t.new_symbol({2}, "y")
    st1 = ReceiverState(1)
    st1.equations.append(Equation(1, 0, LinearForm({x: 1.0, y: 1.0})))
    assert not can_decode(st1, [x])  # one equation, two unknowns
    st1.equations.append(Equation(1, 1, LinearForm({y: 1.0})))
    assert can_decode(st1, [x])
    assert can_decode(st1, [x, y])
    with pytest.raises(ValueError):
        can_decode(st1, [])


def _stacked_rank_decodes(state, targets):
    """The per-target rule ``can_decode`` replaced: stack each unit row
    under the coefficient matrix and compare numerical ranks."""
    ids = sorted({s for eq in state.equations for s in eq.form.coeffs}
                 | set(targets))
    a = state.coefficient_matrix(ids)
    base = numerical_rank(a)
    for t in targets:
        e = np.zeros((1, len(ids)), dtype=complex)
        e[0, ids.index(t)] = 1.0
        if numerical_rank(np.vstack([a, e])) != base:
            return False
    return True


def _truncated(trace):
    """Receiver states of ``trace`` without its last slot's equations."""
    last = trace.total_slots - 1
    return [ReceiverState(st.receiver,
                          [eq for eq in st.equations if eq.slot != last],
                          last)
            for st in trace.states]


@pytest.mark.parametrize("name", sorted(SMALL_SCHEMES))
def test_can_decode_matches_stacked_rank_oracle(name):
    for seed in range(50):
        trace = SMALL_SCHEMES[name](RngStream(seed))
        for states, complete in ((trace.states, True),
                                 (_truncated(trace), False)):
            verdicts = []
            for st in states:
                targets = trace.targets_for(st.receiver)
                got = can_decode(st, targets)
                assert got == _stacked_rank_decodes(st, targets), (
                    name, seed, complete, st.receiver)
                verdicts.append(got)
            assert all(verdicts) == complete, (name, seed, complete)


def test_decode_residuals_are_decades_from_threshold():
    # every verified size up to square-5 and the (2, 4) chain, complete
    # and truncated: no residual lies within 10x of its threshold
    builders = [(SMALL_SCHEMES[name], range(5)) for name in sorted(SMALL_SCHEMES)]
    builders += [(lambda s: run_square_scheme(4, s), range(3)),
                 (lambda s: run_square_scheme(5, s), range(2)),
                 (lambda s: _run_chain("nonsquare", 2, 4, 1, s), range(3))]
    for build, seeds in builders:
        for seed in seeds:
            trace = build(RngStream(seed))
            for states in (trace.states, _truncated(trace)):
                for st in states:
                    residuals, thresholds = decode_residuals(
                        st, trace.targets_for(st.receiver))
                    ratio = residuals / thresholds
                    assert np.all((ratio <= 0.1) | (ratio >= 10.0)), (
                        seed, st.receiver, ratio[(ratio > 0.1) & (ratio < 10)])


def test_combine_exact():
    f = LinearForm({1: 1.0})
    g = LinearForm({2: 1.0})
    out = combine([f, g], [[2.0, 3.0], [0.0, 1.0j]])
    assert out[0].coeffs == {1: 2.0, 2: 3.0}
    assert out[1].coeffs == {2: 1.0j}
    with pytest.raises(ValueError):
        combine([f, g], [[1.0]])


def test_random_combination_uses_unitary_rows():
    forms = [LinearForm({i: 1.0}) for i in range(1, 5)]
    log = []
    out = random_combination(forms, 2, RngStream(3), log=log)
    assert len(out) == 2
    w = log[0]
    assert w.shape == (2, 4)
    assert np.allclose(w @ w.conj().T, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        random_combination(forms, 5, RngStream(3))
    with pytest.raises(ValueError):
        random_combination([], 1, RngStream(3))


def test_noise_covariance_identity_for_raw_equations():
    t = SymbolTable(2)
    x = t.new_symbol({1}, "x")
    states = [ReceiverState(1), ReceiverState(2)]
    rng = RngStream(4)
    transmit_slot([t.unit_form(x)], rng.complex_normal((2, 1)), states)
    transmit_slot([t.unit_form(x)], rng.complex_normal((2, 1)), states)
    cov = noise_covariance(states[0].equations)
    assert np.allclose(cov, np.eye(2), atol=1e-15)


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
