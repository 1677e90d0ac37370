"""Symbolic ledger: the symbol table, and the decode check's entry point.

Every signal in a scheme execution is linear in the base data symbols,
so a *form* is a ``complex128`` row over the symbol table (entry ``i``
is the coefficient of symbol ``i``) and a block of forms is a 2-D array,
one row per form.  Mixing is a matrix product, ``W @ F``, and so is a
broadcast slot, ``H @ P``: a phase builder mixes all of its blocks with
one stacked ``W @ F`` and sends all of its slots with one
:meth:`.schemes.AirLog.broadcast`.  Forms span the whole table, so a
scheme's table is fixed with its draw-free plan, before it builds any
form: a :class:`SymbolTable` is built in one call and is frozen, and
every trace of a shape shares its plan's table.

What a receiver hears in a slot is that slot's channel row times the
plan sent, which the transmitter rebuilds from delayed CSI.  So nothing
stores it: a trace keeps what was sent and derives its receivers' rows,
one ``(receivers, slots, symbols)`` array, on each read
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

from dataclasses import dataclass, field

import numpy as np

from .numerics import numerical_rank, units_inside

__all__ = [
    "BaseSymbol",
    "ReceiverState",
    "SymbolTable",
    "alignment_ranks",
    "can_decode",
]


@dataclass(frozen=True)
class BaseSymbol:
    """One independent data symbol, wanted by every receiver in ``owner``."""

    id: int
    owner: frozenset
    order: int
    label: str


@dataclass(frozen=True)
class SymbolTable:
    """The base symbols of one scheme instance, fixed with its plan.

    Symbol ``i`` is wanted by every receiver in ``owners[i]`` and named
    ``labels[i]`` (``""`` when no labels are given), and its id ``i`` is
    its column in every form.  Frozen: every field is a tuple, and a
    cached plan's table is shared by all of its traces.

    Parameters
    ----------
    k : int
        Number of receivers; the receiver universe is ``{1, .., k}``.
    owners : iterable of iterables of int
        Each symbol's nonempty set of receivers in the universe.
    labels : iterable of str, optional
        One label per symbol.
    """

    k: int
    owners: tuple = ()
    labels: tuple = ()
    symbols: tuple = field(init=False, repr=False, compare=False)
    owns: tuple = field(init=False, repr=False, compare=False)  # each receiver's ids

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one receiver, got k={self.k}")
        universe = frozenset(range(1, self.k + 1))
        owners = tuple(map(frozenset, self.owners))
        labels = tuple(self.labels) or ("",) * len(owners)
        for owner in owners:
            if not owner or not owner <= universe:
                raise ValueError(f"owner {set(owner)} must be a nonempty subset "
                                 f"of {set(universe)}")
        symbols = tuple(BaseSymbol(i, owner, len(owner), label) for i, (owner, label)
                        in enumerate(zip(owners, labels, strict=True)))
        owns = tuple(tuple(s.id for s in symbols if r in s.owner)
                     for r in range(1, self.k + 1))
        for name, value in (("owners", owners), ("labels", labels),
                            ("symbols", symbols), ("owns", owns)):
            object.__setattr__(self, name, value)

    def unit_forms(self, sym_ids) -> np.ndarray:
        """The unit rows of ``sym_ids``, in order: rows of the identity."""
        sym_ids = list(sym_ids)
        rows = np.zeros((len(sym_ids), len(self)), dtype=np.complex128)
        rows[np.arange(len(sym_ids)), sym_ids] = 1.0
        return rows

    @property
    def ids(self):
        return list(range(len(self.symbols)))

    def owned_by(self, receiver: int):
        """Ids of all symbols receiver ``receiver`` must decode."""
        return list(self.owns[receiver - 1]) if 1 <= receiver <= self.k else []

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
