"""Symbolic ledger of everything transmitted and received.

Every signal in a scheme execution is a :class:`LinearForm`: complex
coefficients over the base data symbols plus tracked weights on past
noise samples.  Transmitter-side reconstructions of overheard equations
are exact (delayed CSI is perfect), so their noise weight set is empty;
anything received over the air picks up one fresh unit-variance noise
sample.  Decodability is then a row-space question on the stacked
coefficient rows, answered with one SVD per receiver by
:func:`.numerics.rowspace_residuals`.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    RankTolerance,
    as_complex_matrix,
    haar_unitary,
    numerical_rank,
    rowspace_residuals,
)

__all__ = [
    "BaseSymbol",
    "Equation",
    "LinearForm",
    "ReceiverState",
    "SymbolTable",
    "alignment_ranks",
    "can_decode",
    "combine",
    "decode_residuals",
    "noise_covariance",
    "random_combination",
    "transmit_slot",
]


class LinearForm:
    """A linear combination of base symbols with tracked noise weights.

    Parameters
    ----------
    coeffs : dict, optional
        Maps base symbol id to complex coefficient.  Absent ids carry an
        exactly-zero coefficient.
    noise : dict, optional
        Maps noise sample id to complex weight.  Empty for anything the
        transmitter builds from delayed CSI.
    """

    __slots__ = ("coeffs", "noise")

    def __init__(self, coeffs=None, noise=None):
        # exact zeros are dropped so that forms are canonical: support()
        # and equality-of-dicts reflect actual content
        self.coeffs = ({s: v for s, v in coeffs.items() if v != 0}
                       if coeffs else {})
        self.noise = ({n: v for n, v in noise.items() if v != 0}
                      if noise else {})

    def scaled(self, c) -> "LinearForm":
        c = complex(c)
        return LinearForm(
            {s: c * v for s, v in self.coeffs.items()},
            {n: c * v for n, v in self.noise.items()},
        )

    def __add__(self, other: "LinearForm") -> "LinearForm":
        coeffs = dict(self.coeffs)
        for s, v in other.coeffs.items():
            coeffs[s] = coeffs.get(s, 0.0) + v
        noise = dict(self.noise)
        for n, v in other.noise.items():
            noise[n] = noise.get(n, 0.0) + v
        return LinearForm(coeffs, noise)

    def restrict(self, symbol_ids) -> "LinearForm":
        """The part of the form supported on ``symbol_ids`` only."""
        keep = set(symbol_ids)
        return LinearForm(
            {s: v for s, v in self.coeffs.items() if s in keep},
            dict(self.noise),
        )

    def coeff_norm(self) -> float:
        """Euclidean norm of the symbol coefficients (noise excluded)."""
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values())))

    def support(self):
        return frozenset(s for s, v in self.coeffs.items() if v != 0)

    def to_dict(self):
        return {
            "coeffs": {str(s): [v.real, v.imag]
                       for s, v in sorted(self.coeffs.items())},
            "noise": {f"{n[0]}:{n[1]}": [complex(v).real, complex(v).imag]
                      for n, v in sorted(self.noise.items())},
        }

    def __repr__(self):
        terms = ", ".join(f"{s}:{v:.3g}" for s, v in sorted(self.coeffs.items()))
        return f"LinearForm({terms})"


@dataclass(frozen=True)
class BaseSymbol:
    """One independent data symbol, wanted by every receiver in ``owner``."""

    id: int
    owner: frozenset
    order: int
    label: str


class SymbolTable:
    """Registry of base symbols for one scheme instance.

    Parameters
    ----------
    k : int
        Number of receivers; the receiver universe is ``{1, .., k}``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"need at least one receiver, got k={k}")
        self.k = k
        self.universe = frozenset(range(1, k + 1))
        self.symbols: list[BaseSymbol] = []

    def new_symbol(self, owner, label: str = "") -> int:
        owner = frozenset(owner)
        if not owner or not owner <= self.universe:
            raise ValueError(f"owner {set(owner)} must be a nonempty subset "
                             f"of {set(self.universe)}")
        sym = BaseSymbol(len(self.symbols), owner, len(owner), label)
        self.symbols.append(sym)
        return sym.id

    def unit_form(self, sym_id: int) -> LinearForm:
        return LinearForm({sym_id: 1.0})

    @property
    def ids(self):
        return [s.id for s in self.symbols]

    def owned_by(self, receiver: int):
        """Ids of all symbols receiver ``receiver`` must decode."""
        return [s.id for s in self.symbols if receiver in s.owner]

    def __len__(self):
        return len(self.symbols)


@dataclass
class Equation:
    """One stored observation: ``form`` plus its accumulated noise.

    ``noise_variance`` is the squared norm of the form's noise weights;
    it is at least 1 for anything received over the air (the fresh
    reception noise) and exactly 0 for transmitter-internal constructs.
    """

    receiver: int
    slot: int
    form: LinearForm

    @property
    def noise_variance(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.form.noise.values()))

    def to_dict(self):
        return {"receiver": self.receiver, "slot": self.slot,
                "form": self.form.to_dict(),
                "noise_variance": self.noise_variance}


@dataclass
class ReceiverState:
    """Everything one receiver has heard so far."""

    receiver: int
    equations: list = field(default_factory=list)
    slots_observed: int = 0

    def coefficient_matrix(self, symbol_ids) -> np.ndarray:
        """Stacked coefficient rows over the given symbol ordering."""
        a = np.zeros((len(self.equations), len(symbol_ids)), dtype=np.complex128)
        col = {s: i for i, s in enumerate(symbol_ids)}
        for row, eq in enumerate(self.equations):
            for s, v in eq.form.coeffs.items():
                if s in col:
                    a[row, col[s]] = v
        return a

    def to_dict(self):
        return {"receiver": self.receiver,
                "slots_observed": self.slots_observed,
                "equations": [eq.to_dict() for eq in self.equations]}


def transmit_slot(plan, h_slot, states):
    """Broadcast one slot and append the resulting equation everywhere.

    Each receiver ``r`` gains an equation whose form is the channel-row
    weighted sum of the plan forms, ``sum_m h[r, m] * plan[m]``, plus a
    fresh unit-weight noise sample unique to ``(slot, r)``.  An empty
    plan advances every receiver's slot counter without adding
    equations.

    Parameters
    ----------
    plan : list of LinearForm
        One form per active antenna; at most ``h_slot.shape[1]`` entries.
    h_slot : array_like
        The slot's channel matrix, one row per receiver.
    states : list of ReceiverState
        All receiver states, in receiver order; mutated in place.

    Returns
    -------
    list of LinearForm
        The noise-free reconstruction of each receiver's new equation
        (what the transmitter recovers from delayed CSI), in receiver
        order; empty when the plan is empty.
    """
    h = as_complex_matrix(h_slot)
    if h.shape[0] != len(states):
        raise ValueError(
            f"channel has {h.shape[0]} rows but there are {len(states)} receivers")
    if len(plan) > h.shape[1]:
        raise ValueError(
            f"plan uses {len(plan)} antennas but the channel has only {h.shape[1]}")
    if not plan:
        for st in states:
            st.slots_observed += 1
        return []
    reconstructions = []
    for idx, st in enumerate(states):
        slot = st.slots_observed
        form = LinearForm()
        for m, antenna_form in enumerate(plan):
            form = form + antenna_form.scaled(h[idx, m])
        reconstructions.append(form)
        received = LinearForm(form.coeffs, form.noise)
        received.noise[(slot, st.receiver)] = 1.0
        st.equations.append(Equation(st.receiver, slot, received))
        st.slots_observed += 1
    return reconstructions


def decode_residuals(state: ReceiverState, targets, tol: RankTolerance = DEFAULT_TOL):
    """Distance of each target's unit row from the receiver's row space.

    Returns ``(residuals, thresholds)`` from
    :func:`.numerics.rowspace_residuals`, one entry per target, in the
    order given.  The coefficient matrix spans every symbol that appears
    in an equation plus the targets, and is factored once for all
    targets.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be nonempty")
    ids = sorted({s for eq in state.equations for s in eq.form.coeffs}
                 | set(targets))
    a = state.coefficient_matrix(ids)
    col = {s: i for i, s in enumerate(ids)}
    units = np.zeros((len(targets), len(ids)), dtype=np.complex128)
    units[np.arange(len(targets)), [col[t] for t in targets]] = 1.0
    return rowspace_residuals(a, units, tol)


def can_decode(state: ReceiverState, targets, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff every target symbol is linearly recoverable.

    A target ``t`` is recoverable when the unit row ``e_t`` lies in the
    row space of the receiver's stacked coefficient rows ``A``: stacking
    ``e_t`` under ``A`` must not raise the numerical rank.  ``A`` is
    factored once, ``A = U S V^H``, with rank ``r`` by the
    :class:`.numerics.RankTolerance` rule.  Each target's residual
    ``d_t = ||e_t - V_r^H V_r e_t||``, divided by
    ``sqrt(1 + ||S_r^-1 V_r e_t||^2)``, is the singular value that
    stacking ``e_t`` would add; it is compared with
    ``tol.relative * sqrt(s_0^2 + 1)``, the rank threshold of the stacked
    matrix.  The derivation is in :func:`.numerics.rowspace_residuals`.
    """
    residuals, thresholds = decode_residuals(state, targets, tol)
    return bool(np.all(residuals <= thresholds))


def combine(forms, weights) -> list:
    """Deterministic linear combinations: row ``i`` of ``weights`` gives
    the coefficients of output form ``i`` over ``forms``."""
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 2 or w.shape[1] != len(forms):
        raise ValueError(
            f"weights must be 2-D with {len(forms)} columns, got shape {w.shape}")
    out = []
    for row in w:
        acc = LinearForm()
        for c, f in zip(row, forms):
            acc = acc + f.scaled(c)
        out.append(acc)
    return out


def random_combination(forms, count: int, rng, log=None) -> list:
    """``count`` random linear combinations of ``forms``.

    Coefficients are the first ``count`` rows of a Haar unitary: as
    generic as i.i.d. Gaussians (any continuous law gives generic
    combinations almost surely) but better conditioned, which keeps
    finite-SNR rates close to the asymptote.  The weights play the role
    of publicly pre-shared constants; pass ``log`` to capture the drawn
    matrix for the execution trace.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("forms must be nonempty")
    if not 1 <= count <= len(forms):
        raise ValueError(
            f"count must be in 1..{len(forms)} (got {count}); more "
            "combinations than forms would be linearly dependent")
    w = haar_unitary(len(forms), rng)[:count, :]
    if log is not None:
        log.append(w)
    return combine(forms, w)


def noise_covariance(equations) -> np.ndarray:
    """Exact noise covariance of a list of equations.

    Entry ``(i, l)`` is the inner product of the noise weight vectors of
    equations ``i`` and ``l``; with unit-variance independent noise
    samples this is the covariance of the stacked observation noise.
    """
    ids = sorted({n for eq in equations for n in eq.form.noise})
    col = {n: i for i, n in enumerate(ids)}
    w = np.zeros((len(equations), len(ids)), dtype=np.complex128)
    for row, eq in enumerate(equations):
        for n, v in eq.form.noise.items():
            w[row, col[n]] = v
    return w @ w.conj().T


def alignment_ranks(trace, tol: RankTolerance = DEFAULT_TOL):
    """Desired/interference stack ranks of the two-user scheme.

    For the first receiver of a completed two-user, two-antenna,
    three-slot execution, stacks the coefficients of its three received
    equations on its own two symbols (the desired stack) and on the
    other receiver's two symbols (the interference stack), and returns
    both numerical ranks.  For generic channels the contract is
    ``(2, 1)``: the scheme aligns both interference streams into a
    single dimension while keeping the desired streams full rank.
    Degenerate (hand-set) channels simply yield the degenerate ranks.

    Parameters
    ----------
    trace : SchemeTrace
        A completed two-user scheme execution.
    tol : RankTolerance
        Rank decision tolerance.

    Raises
    ------
    ValueError
        If the trace is not a completed two-user scheme of the expected
        shape.
    """
    if getattr(trace, "k", None) != 2 or getattr(trace, "m", None) != 2:
        raise ValueError("alignment ranks are defined for the 2x2 scheme only")
    states = trace.states
    table = trace.table
    if len(states) != 2 or len(table) != 4 or trace.total_slots != 3:
        raise ValueError("trace does not look like a completed 2-user scheme "
                         "(need 2 receivers, 4 symbols, 3 slots)")
    first = states[0]
    if len(first.equations) != 3:
        raise ValueError("first receiver must hold exactly 3 equations")
    desired_ids = table.owned_by(1)
    interference_ids = [s for s in table.ids if s not in desired_ids]
    desired = first.coefficient_matrix(desired_ids)
    interference = first.coefficient_matrix(interference_ids)
    return numerical_rank(desired, tol), numerical_rank(interference, tol)
