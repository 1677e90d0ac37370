"""Symbolic ledger of everything transmitted and received.

Every signal in a scheme execution is linear in the base data symbols,
so a *form* is a ``complex128`` row over the symbol table (entry ``i``
is the coefficient of symbol ``i``) and a block of forms is a 2-D array,
one row per form.  Mixing is a matrix product: :func:`combine` is
``W @ F`` and a broadcast slot is ``H @ P``.  Both work on stacks, so a
phase mixes all of its blocks with one ``W @ F`` and broadcasts all of
its slots with one :func:`transmit_slots`.  Forms span the whole table,
so a scheme registers all of its symbols before it builds any.

What a receiver hears in a slot is that slot's channel row times the
plan sent: the reconstruction :func:`transmit_slots` returns to the
transmitter, which rebuilds it from delayed CSI.  So nothing stores it:
a trace keeps what was sent and derives its receivers' rows, one
``(receivers, slots, symbols)`` array, on each read
(:attr:`.schemes.SchemeTrace.rows`), or a decode stack's at a time.
Receiver noise is white by rule: every equation heard over the air
carries one fresh unit-variance noise sample, named by its ``(slot,
receiver)`` pair, and nothing the transmitter rebuilds carries any, so
the ``v3`` JSON trace has no noise field: a receiver's entry lists the
slots it heard, and each equation is that slot's channel row times its
plan plus the sample of its pair.  Decodability is a row-space question
on a receiver's rows (:func:`can_decode`), which :mod:`.numerics`
answers for a stack of receivers with one batched QR.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import numerical_rank, units_inside

__all__ = [
    "BaseSymbol",
    "ReceiverState",
    "SymbolTable",
    "alignment_ranks",
    "can_decode",
    "combine",
    "reconstructions",
    "transmit_slots",
]


def _block(forms) -> np.ndarray:
    """Forms as a complex array of rows, or a stack of such blocks; no
    forms is ``(0, 0)``."""
    f = np.asarray(forms, dtype=np.complex128)
    if f.size == 0 and f.ndim < 2:
        return f.reshape(0, 0)
    if f.ndim < 2:
        raise ValueError(f"forms must be rows of one length, got shape {f.shape}")
    return f


@dataclass(frozen=True)
class BaseSymbol:
    """One independent data symbol, wanted by every receiver in ``owner``."""

    id: int
    owner: frozenset
    order: int
    label: str


class SymbolTable:
    """Registry of base symbols for one scheme instance.

    A symbol's id is its column in every form.

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
        self._owned = {}  # receiver -> its symbol ids, until the next symbol

    def new_symbol(self, owner, label: str = "") -> int:
        owner = frozenset(owner)
        if not owner or not owner <= self.universe:
            raise ValueError(f"owner {set(owner)} must be a nonempty subset "
                             f"of {set(self.universe)}")
        sym = BaseSymbol(len(self.symbols), owner, len(owner), label)
        self.symbols.append(sym)
        self._owned.clear()
        return sym.id

    def unit_forms(self, sym_ids) -> np.ndarray:
        """The unit rows of ``sym_ids``, in order: rows of the identity."""
        sym_ids = list(sym_ids)
        rows = np.zeros((len(sym_ids), len(self)), dtype=np.complex128)
        rows[np.arange(len(sym_ids)), sym_ids] = 1.0
        return rows

    @property
    def ids(self):
        return [s.id for s in self.symbols]

    def owned_by(self, receiver: int):
        """Ids of all symbols receiver ``receiver`` must decode."""
        if receiver not in self._owned:
            self._owned[receiver] = [s.id for s in self.symbols if receiver in s.owner]
        return list(self._owned[receiver])

    def copy(self) -> "SymbolTable":
        """A table of the same symbols that registers its own new ones."""
        table = SymbolTable(self.k)
        table.symbols = list(self.symbols)
        table._owned = dict(self._owned)  # its lists are never handed out
        return table

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class ReceiverState:
    """One receiver's view of a trace's row array: the coefficient ``rows``
    it heard, ``(equations, symbols)``, one per slot with an active
    antenna, in slot order."""

    receiver: int
    rows: np.ndarray

    @property
    def equations(self) -> np.ndarray:
        """The heard equations' coefficient rows, in the order heard."""
        return self.rows


def transmit_slots(plans, channels, receivers: int):
    """Broadcast a stack of slots to ``receivers`` receivers.

    ``plans`` is ``(slots, p, symbols)``, one form per active antenna,
    and ``channels`` is ``(slots, receivers, antennas)`` with at least
    ``p`` antennas.  In slot ``s`` receiver ``r`` hears the row
    ``channels[s, r, :p] @ plans[s]``, plus by rule the fresh noise sample
    of that slot and ``r``.  Returns those rows, the noise-free
    reconstructions the transmitter recovers from delayed CSI, as a
    read-only ``(slots, receivers, symbols)`` array.  Empty plans
    (``p = 0``) are heard by nobody: no rows.
    """
    h = np.asarray(channels, dtype=np.complex128)
    plans = np.asarray(plans, dtype=np.complex128)
    if h.ndim != 3 or plans.ndim != 3 or len(h) != len(plans):
        raise ValueError(f"need one channel per plan, got channels of shape "
                         f"{h.shape} and plans of shape {plans.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    if h.shape[1] != receivers:
        raise ValueError(
            f"channel has {h.shape[1]} rows but there are {receivers} receivers")
    if plans.shape[1] > h.shape[2]:
        raise ValueError(f"plan uses {plans.shape[1]} antennas but the channel "
                         f"has only {h.shape[2]}")
    return reconstructions(plans, h)


def reconstructions(plans, channels) -> np.ndarray:
    """:func:`transmit_slots` without its checks, for a caller whose
    ``complex128`` plans and finite channels fit by construction."""
    p = plans.shape[1]
    if not p:
        return plans
    recon = channels[:, :, :p] @ plans
    recon.flags.writeable = False
    return recon


def can_decode(rows, targets) -> bool:
    """True iff every receiver of a stack can recover every one of its
    target symbols: each unit row ``e_t`` lies in the row space of its
    receiver's heard rows, by the verdict of
    :func:`.numerics.units_inside` (the ratios and margins behind it are
    :func:`.numerics.unit_residuals`).

    ``rows`` is ``(receivers, equations, symbols)``, one matrix of heard
    rows per receiver, which has full row rank by the scheme's plan, and
    ``targets`` holds one nonempty list of symbol ids per receiver, all
    of one length.  A receiver whose rows fall below NumPy's rank floor
    decodes nothing.
    """
    return units_inside(rows, targets)


def combine(forms, weights) -> np.ndarray:
    """Deterministic linear combinations ``weights @ forms``: row ``i`` of
    ``weights`` gives the coefficients of output form ``i`` over ``forms``,
    and stacks of blocks combine block by block."""
    forms = _block(forms)
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim < 2 or w.shape[-1] != forms.shape[-2]:
        raise ValueError(
            f"weights must have {forms.shape[-2]} columns, got shape {w.shape}")
    return w @ forms


def alignment_ranks(trace):
    """Desired/interference stack ranks of the two-user scheme: for the
    first receiver of a completed two-user, two-antenna, three-slot
    ``trace``, the numerical ranks of its three heard rows on its own two
    symbols (desired) and on the other receiver's two symbols
    (interference).  For generic channels they are ``(2, 1)``: both
    interference streams align in one dimension while the desired streams
    keep full rank; degenerate (hand-set) channels yield degenerate ranks.
    Raises ``ValueError`` for a trace of any other shape.
    """
    if getattr(trace, "k", None) != 2 or getattr(trace, "m", None) != 2:
        raise ValueError("alignment ranks are defined for the 2x2 scheme only")
    table = trace.table
    if len(table) != 4 or trace.total_slots != 3:
        raise ValueError("trace does not look like a completed 2-user scheme "
                         "(need 2 receivers, 4 symbols, 3 slots)")
    first = trace.rows[0]
    if len(first) != 3:
        raise ValueError("first receiver must hold exactly 3 equations")
    desired_ids = table.owned_by(1)
    interference_ids = [s for s in table.ids if s not in desired_ids]
    return (numerical_rank(first[:, desired_ids]),
            numerical_rank(first[:, interference_ids]))
