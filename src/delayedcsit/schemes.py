"""Construction and execution of the delayed-CSI transmission schemes.

Each scheme is executed symbolically against sampled (or injected)
channels and recorded as a :class:`SchemeTrace` with exact slot/symbol
accounting.  A scheme is a chain of *phases*: phase ``j`` consumes a
stack of order-``j`` forms, a block per target subset, spends slots
broadcasting random mixtures of them, and turns the overheard equations
into the next phase's stack of order-``j+1`` forms, until order-``k``
forms are delivered by plain broadcast.  One builder, :func:`build_phase`,
runs a phase for any antenna count ``m``: each subset gets a sub-phase
of slots on ``q + 1 <= m`` antennas, and each receiver outside it
purifies what it overheard there.  The full-antenna phase (``m >= k - j
+ 1``) is its ``q = k - j`` case: one slot per subset, whose one
overheard equation per outside receiver needs no purification.  When
consecutive phases' output/input cardinalities do not match, earlier
phases are replicated the minimal integral number of times.

No random draw depends on what was sent, so a scheme draws its whole
trace's channels and mixing weights up front, with one generator call
and one QR per group of unitary sizes, each unitary padded to its
group's largest (:meth:`AirLog.draw`).  The draw list is every phase's
layout in order (:func:`phase_layout`), laid out in the order a
slot-at-a-time execution would make the draws, so a seed gives the same
trace either way.  A chain's replication, phase records and starting
symbol table are one draw-free plan, cached per shape, that the build
checks itself against.  alt22 and opt23 share one such plan: a mixed slot
per receiver pair, then the chain ``(2, k, 2)``.  The phase is the unit
of work: its slots do not depend on each other, so a phase builder mixes
all of its blocks of forms with one stacked ``W @ F`` and sends all of
its slots with one :meth:`AirLog.broadcast`.  A trace records what was
sent as arrays, a block per broadcast, and derives what its receivers
heard, each slot's channel times its plan, as the transmitter does from
delayed CSI (:attr:`SchemeTrace.rows`), for the decode check and the
rate path a stack of receivers at a time.  The JSON trace writes only
what was sent, a piece at a time.

Transmitted antenna forms are normalized to unit coefficient norm, so a
recorded trace doubles as the SNR-independent skeleton used by the rate
simulator: the physical transmit signal at SNR ``P`` is the recorded
plan scaled by ``sqrt(P / p)`` in a slot of ``p`` active antennas.
"""

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from fractions import Fraction
from itertools import combinations, pairwise, starmap

import numpy as np

from . import numerics
from .dof_calc import DofQuery, NonsquarePhaseParams, OutOfRegimeError
from .ledger import (
    ReceiverState,
    SymbolTable,
    can_decode,
    reconstructions,
)
from .numerics import RngStream, haar_unitaries, stacks, unit_residuals

__all__ = [
    "AirLog",
    "CHANNEL",
    "PhaseRecord",
    "SchemeTrace",
    "build_phase",
    "json_pieces",
    "phase_layout",
    "run_alt22",
    "run_mat23_suboptimal",
    "run_opt23",
    "run_order_j_delivery",
    "run_square_scheme",
    "tdma_trace",
]


#: Layout entry of :meth:`AirLog.draw` standing for the next slot's channel.
CHANNEL = ("channel", None)


class AirLog:
    """Shared transmission context of one scheme execution: the symbol
    ``table``, ``m`` transmit antennas, the stream ``rng``, and what was
    sent, as blocks: the plans of each broadcast, ``(slots, p, symbols)``,
    and the ``(labels, weights)`` of the combination log.  A scheme draws
    all of its trace's randomness with one :meth:`draw` before it sends
    anything; phase builders take their keys from :attr:`drawn` and
    transmit through :meth:`broadcast`.
    ``channels`` optionally overrides the ``k x m`` channels of the first
    slots, in slot order; later slots get fresh i.i.d. CN(0, 1) draws.
    """

    def __init__(self, table: SymbolTable, m: int, rng: RngStream, channels=None):
        self.table = table
        self.k = table.k
        self.m = m
        self.rng = rng
        self.slots = 0
        self.plans = []
        self.combos = []
        self.drawn = {}
        self._override = _overrides(channels, table.k, m)
        self._h = self._override[:0]  # every slot's channel, once drawn

    @property
    def channels(self) -> np.ndarray:
        """The ``(slots, k, m)`` channels of the slots sent so far."""
        return self._h[:self.slots]

    def draw(self, layout, *shape) -> dict:
        """Draw the whole trace's randomness with one generator call
        (:meth:`.numerics.RngStream.normal_parts`) and one QR per group
        of unitary sizes; return the stack of each key, also kept as
        :attr:`drawn`.  Call it once, before the first slot.

        ``layout(*shape)`` lists ``(key, n)`` pairs in the order a
        slot-at-a-time execution draws them: an ``n x n`` Haar unitary of
        mixing weights, or :data:`CHANNEL`, the next slot's ``k x m``
        channel, drawn unless an override covers it.  The plan of the draw
        (:func:`_draw_plan`) is cached per ``(layout, shape)`` and count of
        overrides, so a trace builds no layout: the normals are scattered
        into a copy of its template, each group of squares, padded to its
        largest size, is factored by one :func:`.numerics.haar_unitaries`
        call, and a key's stack is the leading block of its unitaries.
        :meth:`broadcast` sends slot ``i`` on the ``i``-th channel,
        overrides first.
        """
        if self.slots:
            raise ValueError("a trace is drawn once, before its first slot")
        total, scatter, template, groups, keys, channels, covered = _draw_plan(
            layout, shape, len(self._override), self.k, self.m)
        buf = template.copy()
        buf.view(np.float64)[scatter] = self.rng.normal_parts(total)
        u = [haar_unitaries(buf[a:b].reshape(-1, n, n)) for a, b, n in groups]
        drawn = {key: u[g][a:b, :n, :n] for key, g, a, b, n in keys}
        h = self._h
        if channels:  # a copy: the squares' normals are not kept with the trace
            drawn[CHANNEL[0]] = h = buf[:channels].reshape(-1, self.k, self.m).copy()
        self._h = np.concatenate([self._override[:covered], h]) if covered else h
        self.drawn = drawn
        return drawn

    def broadcast(self, plans) -> np.ndarray:
        """Send a stack of plans (:meth:`_send`); return the ``(slots, k,
        symbols)`` reconstructions, the product of
        :func:`.ledger.transmit_slots` without its checks: the channels
        were drawn or checked with the trace, and the builders send at
        most ``m`` forms a slot."""
        h = self._h[self.slots:self.slots + len(plans)]
        return reconstructions(self._send(plans), h)

    def send_each(self, forms) -> None:
        """Send each form alone, one slot per form, rebuilding nothing."""
        self._send(np.asarray(forms)[:, np.newaxis])

    def _send(self, plans) -> np.ndarray:
        """Log plans sent on the next slots, each form (row) at unit norm."""
        plans = np.asarray(plans, dtype=np.complex128)
        if self.slots + len(plans) > len(self._h):
            raise ValueError(f"slots {self.slots} to {self.slots + len(plans) - 1} "
                             f"need channels, but {len(self._h)} were drawn")
        # np.linalg.norm(plans, axis=-1)'s formula and bits, without its wrapper
        norms = np.sqrt(np.add.reduce((plans.conj() * plans).real, -1))
        inverse = 1.0 / norms if norms.all() else np.divide(  # a zero form stays zero
            1.0, norms, out=np.ones_like(norms), where=norms > 0)
        normalized = plans * inverse[..., np.newaxis]
        self.slots += len(normalized)
        self.plans.append(normalized)
        return normalized

    def trace(self, name: str, replication: dict, phases: list) -> "SchemeTrace":
        """The record of this execution, under the scheme name ``name``."""
        return SchemeTrace(
            name=name, m=self.m, k=self.k, replication=replication,
            table=self.table, channels=self.channels, plans=self.plans,
            phases=phases, combination_log=self.combos,
            seed=self.rng.seed, stream_index=self.rng.index)


def _overrides(channels, k: int, m: int) -> np.ndarray:
    """The override channels as one ``(slots, k, m)`` stack, each checked
    to be a finite ``k x m`` matrix."""
    if channels is None:  # one read-only empty stack per shape, for every trace
        return _no_overrides(k, m)
    channels = list(channels)
    out = np.empty((len(channels), k, m), dtype=np.complex128)
    for slot, h in enumerate(channels):
        h = np.asarray(h, dtype=np.complex128)
        if h.shape != (k, m):
            raise ValueError(f"the channel override of slot {slot} has shape "
                             f"{h.shape}, not ({k}, {m})")
        if not np.isfinite(h).all():
            raise ValueError(f"the channel override of slot {slot} has "
                             f"non-finite entries")
        out[slot] = h
    return out


@lru_cache(maxsize=None)
def _no_overrides(k: int, m: int) -> np.ndarray:
    out = np.empty((0, k, m), dtype=np.complex128)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _draw_plan(layout, shape: tuple, spare: int, k: int, m: int):
    """The draws of :meth:`AirLog.draw` for ``layout(*shape)`` with
    ``spare`` override channels, as one complex buffer: the drawn
    channels first, then each group of squares (:func:`_size_groups`),
    ``(count, N, N)`` at its largest size ``N``, every square ``Z`` of
    size ``n`` padded as ``[[Z, 0], [0, I]]``.  A draw takes ``2 * size``
    consecutive standard normals, its real parts first, as
    :meth:`.numerics.RngStream.complex_normal` lays one out.  Returns
    how many normals to draw and the float position in the buffer of
    each, the read-only template of the buffer, each group's ``(start,
    stop, N)`` in it, each square key's ``(key, group, first, last, n)``,
    its stack being the group's unitaries ``first:last``, the number of
    channel entries, and how many channels the overrides cover."""
    draws, counts, covered, total = {}, {}, 0, 0  # draws: key -> (n, normals before each)
    for key, n in layout(*shape):
        if key == CHANNEL[0] and covered < spare:
            covered += 1
            continue
        if draws.setdefault(key, (n, []))[0] != n:
            raise ValueError(f"draws under key {key!r} have sizes {draws[key][0]} and {n}")
        draws[key][1].append(total)
        if key != CHANNEL[0]:
            counts[n] = counts.get(n, 0) + 1
        total += 2 * (k * m if key == CHANNEL[0] else n * n)
    at = channels = k * m * len(draws.get(CHANNEL[0], (0, ()))[1])
    groups, group_of = [], {}
    for g, sizes in enumerate(_size_groups(counts)):
        big = sizes[0]
        groups.append((at, at + sum(counts[n] for n in sizes) * big * big, big))
        group_of.update(dict.fromkeys(sizes, g))
        at = groups[-1][1]
    template, scatter = np.zeros(at, dtype=np.complex128), np.empty(total, dtype=np.intp)
    keys, filled = [], [0] * len(groups)  # filled: squares placed per group
    for key, (n, first) in draws.items():
        if key == CHANNEL[0]:  # in draw order from the buffer's start
            dest = np.arange(channels).reshape(len(first), k * m)
        else:
            g, count = group_of[n], len(first)
            start, _, big = groups[g]
            keys.append((key, g, filled[g], filled[g] + count, n))
            starts = start + (filled[g] + np.arange(count)) * big * big
            filled[g] += count
            dest = np.add.outer(starts, np.add.outer(np.arange(n) * big, np.arange(n)).ravel())
            pad = np.arange(n, big) * (big + 1)  # the identity's diagonal
            template[np.add.outer(starts, pad).ravel()] = 1.0
        re = np.add.outer(first, np.arange(dest.shape[1]))
        scatter[re], scatter[re + dest.shape[1]] = 2 * dest, 2 * dest + 1
    for a in (scatter, template):
        a.flags.writeable = False  # shared by every trace
    return total, scatter, template, tuple(groups), tuple(keys), channels, covered


#: Padded entries whose QR costs about as much as one more call: a stacked
#: QR (:func:`.numerics.haar_unitaries`) takes 25-30 us a call and about
#: 0.05 us per entry of its squares, sizes 2 to 25, on a 2-core x86-64
#: host with numpy 2.4.6 and OpenBLAS.
_CALL_ENTRIES = 512


def _size_groups(counts) -> list:
    """The sizes of square drawn, ``counts[n]`` of size ``n``, in groups
    that are factored together, each padded to its largest size, the
    first.  Sizes join a group in descending order while padding a size's
    squares to the group's size adds at most :data:`_CALL_ENTRIES`
    entries, the cost of the call it saves: so every trace of the verify
    and rate mixes is one group, and a size of many squares stands
    alone."""
    groups = []
    for n in sorted(counts, reverse=True):
        if groups and counts[n] * (groups[-1][0] ** 2 - n * n) <= _CALL_ENTRIES:
            groups[-1].append(n)
        else:
            groups.append([n])
    return groups


def _sends(n: int) -> tuple:
    """The layout of ``n`` plain broadcasts: a channel each."""
    return (CHANNEL,) * n


@lru_cache(maxsize=None)
def phase_layout(m: int, k: int, level: int, runs: int) -> tuple:
    """The draws of phase ``level`` of the ``m``-antenna, ``k``-receiver
    chain, run ``runs`` times, in :meth:`AirLog.draw`'s layout.

    :func:`build_phase` takes the keys ``(level, name)``: per subset, a
    plan and a channel per slot of its sub-phase and, when the sub-phase
    has more than one slot, a purification per receiver outside it; then
    the order weights per size-``level+1`` subset, unless one antenna
    leaves nothing to purify.  A full-antenna phase (``q = k - level``)
    is one slot and no purification per subset.  Phase ``k``, the
    broadcast of the order-``k`` forms, draws one channel per form.  A
    trace's layout is its phases' layouts in order.
    """
    if level == k:
        return _sends(runs)
    subsets, uppers = len(_subsets(k, level)), len(_subsets(k, level + 1))
    p = _params(m, k, level)
    pur = p.q // p.eta  # purified forms per outside receiver; none on one antenna
    plan, order = ((level, "plan"), p.beta), ((level, "order"), (level + 1) * pur)
    purify = ((level, "purify"), p.slots_per_subphase)
    sub = ((plan, CHANNEL) * p.slots_per_subphase
           + (purify,) * (k - level) * (p.slots_per_subphase > 1))
    return (sub * subsets + (order,) * uppers * bool(pur)) * runs


@dataclass(frozen=True)
class PhaseRecord:
    """Accounting of one phase: level, replication, and cardinalities.
    Frozen: a chain's cached plan shares its records with every trace."""

    level: int
    runs: int
    inputs_consumed: int
    slots: int
    outputs_generated: int


@dataclass
class SchemeTrace:
    """Complete record of one scheme execution: what was sent, as arrays.

    ``channels`` is ``(slots, k, m)``.  ``plans`` lists the blocks of
    plans sent, ``(slots, p, symbols)`` each, in slot order.  The
    ``combination_log`` lists ``(labels, weights)`` blocks.  What was
    heard is not kept: :attr:`rows` derives it on each read.
    """

    name: str
    m: int
    k: int
    replication: dict
    table: SymbolTable
    channels: np.ndarray
    plans: list
    phases: list
    combination_log: list
    seed: int
    stream_index: int

    @property
    def total_slots(self) -> int:
        return len(self.channels)

    @property
    def rows(self) -> np.ndarray:
        """What was heard, derived anew on each read: ``rows[r - 1, i]`` of
        the read-only ``(k, heard, symbols)`` array is receiver ``r``'s row
        in the ``i``-th heard slot of :meth:`receiver_plan`."""
        return self._heard(range(self.k))

    def _heard(self, idx, heard=None) -> np.ndarray:
        """:attr:`rows` of the receivers ``idx`` (0-based, in order) in the
        ``heard`` slots of :meth:`receiver_plan`, read from it if not given:
        a plan block's heard slots, a chunk at a time, are the product of
        their channel rows with its plans, the bits :func:`.ledger.transmit_slots`
        made.  A product of one channel row is a matrix-vector product, which
        rounds differently, so a lone receiver is paired with itself, in a
        buffer no larger than the rows it fills."""
        idx = list(idx)
        heard = self.receiver_plan()[0] if heard is None else heard
        n, lone = len(self.table), len(idx) == 1 < self.k
        rows = np.empty((len(idx), len(heard), n), dtype=np.complex128)
        use = idx * 2 if lone else idx
        # consecutive receivers, as in every scheme here, are a view, not a copy
        pick = slice(use[0], use[-1] + 1) if use == list(range(use[0], use[-1] + 1)) else use
        step = max(1, len(heard) // 2 if lone else len(heard))
        buf = np.empty((2, min(step, len(heard)), n), dtype=np.complex128) if lone else rows
        at = slot = 0
        for b in self.plans:
            h = self.channels[slot:slot + len(b), pick, :b.shape[1]]
            slot += len(b)
            count = bisect_left(heard, slot) - at  # the block's heard slots
            for i in range(0, count, step):
                c = min(step, count - i)
                out = buf[:, :c] if lone else rows[:, at:at + c]
                np.matmul(h[i:i + c], b[i:i + c], out=out.transpose(1, 0, 2))
                if lone:
                    rows[0, at:at + c] = out[0]
                at += c
        rows.flags.writeable = False
        return rows

    @property
    def states(self) -> list:
        """Each receiver's view of :attr:`rows`."""
        return [ReceiverState(r, rows) for r, rows in enumerate(self.rows, start=1)]

    @property
    def symbols_delivered(self) -> int:
        return len(self.table)

    @property
    def empirical_dof(self) -> Fraction:
        """Delivered symbols per slot, as an exact rational."""
        return Fraction(self.symbols_delivered, self.total_slots)

    def targets_for(self, receiver: int):
        return self.table.owned_by(receiver)

    def receiver_plan(self):
        """What the decode check, the rate path and the JSON trace read of
        this trace's shape, cached per shape (:func:`_receiver_plan`): the
        heard slots, each heard row's ``1/sqrt(active antennas)``, and the
        stacks of receivers that want something."""
        owns = tuple(tuple(self.targets_for(r)) for r in range(1, self.k + 1))
        return _receiver_plan(owns, tuple(b.shape[:2] for b in self.plans),
                              len(self.table), numerics.STACK_BYTES)

    def decode_stacks(self):
        """The stacks of :meth:`receiver_plan`, as the decode check and the
        rate path read them, one at a time: its rows (:meth:`_heard`),
        derived when the reader reaches it, and its targets, ``(receivers,
        wants)``.  A receiver that wants nothing is in no stack."""
        heard, _, parts = self.receiver_plan()
        for who, cols, wants in parts:
            yield self._heard(who, heard), cols[:, :wants]

    def decode_ok(self) -> bool:
        """True iff every receiver can decode all of its symbols: the
        verdict of :meth:`decode_residuals`' ratios, without their SVD and
        solve where the triangular factor certifies the stack
        (:func:`.ledger.can_decode`)."""
        # starmap drops each stack before it derives the next
        return all(starmap(can_decode, self.decode_stacks()))

    def decode_residuals(self):
        """The margins behind :meth:`decode_ok`, from the same
        factorizations: every target's residual over its threshold, and
        every receiver's smallest singular value above the rank floor and
        largest at or below it, relative to its largest
        (:func:`.numerics.unit_residuals`), flat in the order of
        :meth:`decode_stacks`.  The trace decodes iff no ratio exceeds 1."""
        parts = list(starmap(unit_residuals, self.decode_stacks()))
        return tuple(np.concatenate([np.zeros(0), *(np.ravel(p[i]) for p in parts)])
                     for i in range(3))

    def to_json(self, extra=None) -> str:
        """The join of :meth:`json_pieces`."""
        return "".join(self.json_pieces(extra))

    def json_pieces(self, extra=None):
        """This trace's schema-``v3`` document with the entries of ``extra``
        added, in pieces rendered as they are read: compact JSON (``,`` and
        ``:``, no indentation), keys sorted at every level, ASCII.  It holds
        what was sent: the slots, each with its channel and its plan, and
        the combination log, every complex number an ``[re, im]`` pair; a
        plan form lists its nonzero coefficients in ascending symbol id,
        ``{"coeffs": [[re, im], ...], "ids": [...]}``.  A receiver's
        ``equations`` lists the slots it heard, every slot with an active
        antenna: its equation ``i`` is row ``r - 1`` of ``channel @ plan``
        of slot ``equations[i]``, plus the unit noise sample
        ``"{slot}:{r}"``.  orjson spells the numbers of a stack of slots
        (:meth:`_slot_stacks`) or a block of the log (:func:`_log_block`)
        in one call, with the shortest digits that read back to the same
        double; json spells the strings and the small fields.  A
        non-finite float raises ``ValueError``: JSON cannot spell it."""
        import orjson  # on first use: a run that writes no trace does not pay for the import
        dumps = partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS)
        dof, heard = self.empirical_dof, self.receiver_plan()[0]
        doc = {
            "schema": "v3", "scheme": self.name, "m": self.m, "k": self.k,
            "replication": {str(lvl): runs for lvl, runs in self.replication.items()},
            "total_slots": self.total_slots, "symbols": self.symbols_delivered,
            "dof": f"{dof.numerator}/{dof.denominator}",
            "rng": {"seed": self.seed, "index": self.stream_index},
            "phases": [{"level": p.level, "runs": p.runs,
                        "inputs": p.inputs_consumed, "slots": p.slots,
                        "outputs": p.outputs_generated} for p in self.phases],
            "receivers": [{"equations": heard, "receiver": r,
                           "slots_observed": self.total_slots}
                          for r in range(1, self.k + 1)],
            "symbol_table": [{"id": s.id, "label": s.label, "order": s.order,
                              "owner": sorted(s.owner)} for s in self.table.symbols],
            **(extra or {})}
        arrays = {"slots": self._slot_stacks(dumps),
                  "combination_log": (_log_block(labels, weights, dumps)
                                      for labels, weights in self.combination_log
                                      if len(labels))}
        return json_pieces(doc, arrays, compact=True)

    def _slot_stacks(self, dumps):
        """The slots' JSON objects, comma-joined, a stack of up to
        :data:`.numerics.STACK_BYTES` of plan rows per piece."""
        n, first = len(self.table), 0
        for b in self.plans:
            p = b.shape[1]
            for at in stacks([0] * len(b), 16 * n * p):
                a, z = at[0], at[-1] + 1
                rows = b[a:z].reshape((z - a) * p, n)
                flat = np.flatnonzero(rows)  # contiguous, unlike np.nonzero's
                coeffs, ids = _pairs(rows.ravel()[flat]), flat % n
                ends = np.searchsorted(flat, np.arange(len(rows) + 1) * n).tolist()
                forms = [{"coeffs": coeffs[s:e], "ids": ids[s:e]} for s, e in pairwise(ends)]
                h = _pairs(self.channels[first + a:first + z])
                yield dumps([{"active_antennas": p, "channel": h[i],
                              "plan": forms[i * p:(i + 1) * p], "slot": first + a + i}
                             for i in range(z - a)]).decode()[1:-1]
            first += len(b)


@lru_cache(maxsize=64)
def _receiver_plan(owns: tuple, blocks: tuple, n: int, cap: int):
    """The one grouping of receivers for the decode check and the rate
    path, of every trace with targets ``owns``, plan blocks of ``(slots,
    active antennas)`` and ``n`` symbols, at the stack cap ``cap``
    (:data:`.numerics.STACK_BYTES`, which :func:`.numerics.stacks` reads):
    the heard slots, every slot with an active antenna; each heard row's
    ``1/sqrt(active antennas)``, ``(heard, 1)``; and the stacks of
    receivers that want something, ``(receivers, columns, wants)``.
    Receivers share a stack when they want as many symbols, up to ``cap``
    bytes of rows, in receiver order; a stack's ``(receivers, n)`` columns
    list each receiver's targets, then its other symbols, each ascending."""
    active = np.array([p for slots, p in blocks for p in [p] * slots], dtype=float)
    heard = np.flatnonzero(active)
    scale = 1.0 / np.sqrt(active[heard])[:, np.newaxis]
    jobs, parts = [r for r, own in enumerate(owns) if own], []
    for idx in stacks([len(owns[r]) for r in jobs], 16 * len(heard) * n):
        who = tuple(jobs[i] for i in idx)
        # False at each receiver's targets, which a stable sort puts first;
        # int32 halves what the cache holds
        others = np.ones((len(who), n), dtype=bool)
        others[np.arange(len(who))[:, np.newaxis], [owns[r] for r in who]] = False
        cols = np.argsort(others, kind="stable").astype(np.int32)
        cols.flags.writeable = False
        parts.append((who, cols, len(owns[who[0]])))
    scale.flags.writeable = False
    return tuple(heard.tolist()), scale, tuple(parts)


#: Newline and indentation of each nesting depth of a ``v1`` document.
_NL = tuple("\n" + "  " * depth for depth in range(3))


def _pairs(z) -> np.ndarray:
    """The complex array ``z`` as a contiguous float array of ``[re, im]``
    pairs, ``z.shape + (2,)``, as orjson writes arrays: contiguous and
    real only.  A non-finite part, which orjson would write as ``null``,
    raises ``ValueError``."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    pairs = z.view(np.float64).reshape(*z.shape, 2)
    if not np.isfinite(pairs).all():
        raise ValueError("a trace document cannot hold a non-finite float")
    return pairs


def _log_block(labels, weights, dumps) -> str:
    """One block of the combination log, comma-joined: every weight
    matrix of the block in one orjson call, each label spelled by json."""
    text = dumps([{"weights": w} for w in _pairs(weights)]).decode()
    return "".join(f'{{"label":{json.dumps(label)},"weights":{w}'
                   for label, w in zip(labels, text[1:-1].split('{"weights":')[1:]))


def json_pieces(doc, arrays=None, compact=False):
    """The pieces of ``json.dumps(doc, sort_keys=True, indent=2)``, in
    order, or with ``compact`` of the same with ``,`` and ``:`` separators,
    no indentation and no NaN or infinity.  Each entry of ``arrays`` is
    one more top-level key of the dict ``doc``, which a key of ``doc``
    replaces: its items, already rendered at depth 2 (strings, as
    ``json.dumps`` indents them there, or iterables of such pieces;
    compact items may each hold several elements, comma-joined), are
    spliced in at the key's sorted place as they come.  So a large
    array whose shape the caller knows is rendered from its arrays, not
    walked, and never held whole."""
    nl, colon = ("",) * 3 if compact else _NL, ":" if compact else ": "
    dumps = partial(json.dumps, sort_keys=True, **(
        {"separators": (",", ":"), "allow_nan": False} if compact else {"indent": 2}))
    if not arrays:
        yield dumps(doc)
        return
    for i, key in enumerate(sorted(doc.keys() | arrays.keys())):
        yield ("," if i else "{") + nl[1] + json.dumps(key) + colon
        if key in doc:
            yield dumps(doc[key]).replace("\n", nl[1])
            continue
        sep = "[" + nl[2]
        for item in arrays[key]:
            yield sep
            if isinstance(item, str):
                yield item
            else:
                yield from item
            sep = "," + nl[2]
        yield "[]" if sep[0] == "[" else nl[1] + "]"
    yield nl[0] + "}"


@lru_cache(maxsize=None)
def _subsets(k: int, size: int):
    return tuple(frozenset(s) for s in combinations(range(1, k + 1), size))


@lru_cache(maxsize=None)
def _tag(subset: frozenset) -> str:
    return "".join(str(r) for r in sorted(subset))


@lru_cache(maxsize=None)
def _overheard(k: int, j: int, sub_slots: int, runs: int):
    """Who overheard what in ``runs`` runs of phase ``j``, whose subsets
    get ``sub_slots`` slots each: per run, size-``j+1`` subset ``T`` and
    member ``r`` in order, the rows that ``r`` heard in the slots of
    ``T - {r}``, as indices into the phase's flat ``(slots * k)``
    reconstructions; and the position of the pair ``(T - {r}, r)`` among
    the phase's pairs, run by run, then by subset and receiver.
    """
    subsets = _subsets(k, j)
    pairs = [(s, r) for s in subsets for r in range(1, k + 1) if r not in s]
    members = [[(t - {r}, r) for r in sorted(t)] for t in _subsets(k, j + 1)]
    rows = np.array([[[(subsets.index(s) * sub_slots + t) * k + r - 1
                       for t in range(sub_slots)] for s, r in row] for row in members])
    pair = np.array([[pairs.index(p) for p in row] for row in members])
    run = np.arange(runs).reshape(-1, 1, 1)
    out = (rows + (run * len(subsets) * sub_slots * k)[..., np.newaxis],
           pair + run * len(pairs))
    for a in out:
        a.flags.writeable = False  # shared by every caller
    return out


def _runs(inputs, subsets: int, block: int, what: str):
    """The stack ``inputs``, ``(subsets, forms, symbols)`` in :func:`_subsets`
    order, as ``(runs, subsets, block, symbols)``; ``ValueError`` unless
    each subset has the same positive multiple of ``block`` forms."""
    forms = np.asarray(inputs, dtype=np.complex128)
    if forms.ndim != 3 or len(forms) != subsets or not forms.shape[1] or forms.shape[1] % block:
        raise ValueError(f"{what}: inputs must stack {subsets} subsets' blocks of the same "
                         f"positive multiple of {block} forms, got shape {forms.shape}")
    return forms.reshape(subsets, -1, block, forms.shape[-1]).swapaxes(0, 1)


@lru_cache(maxsize=64)
def _unit_runs(n: int, subsets: int, beta: int, cap: int) -> tuple:
    """The run count of a first phase of ``n`` unit rows, ``beta`` per
    subset a run, and per chunk of runs of up to ``cap`` bytes of rows
    (:func:`.numerics.stacks`), its runs, ids (a list) and ids' shape."""
    ids = np.arange(n).reshape(subsets, -1, beta).swapaxes(0, 1)
    return len(ids), tuple((at, ids[at].ravel().tolist(), ids[at].shape)
                           for at in stacks([0] * len(ids), 16 * n * ids[:1].size))


def build_phase(k: int, j: int, inputs, air: AirLog):
    """Run phase ``j`` (``1 <= j < k``) of the chain on ``air``, with the
    parameters of ``air.m`` antennas (:class:`.dof_calc.NonsquarePhaseParams`).

    ``inputs`` stacks each size-``j`` subset ``S``'s ``beta`` forms per
    run, run after run, ``(subsets, forms, symbols)`` with the subsets in
    :func:`itertools.combinations` order, or is ``None``: the unit rows of
    ``air.table``, an equal block per subset.  In a run, each ``S`` gets a
    sub-phase of ``(k - j) / eta`` slots, every slot sending ``q + 1``
    random mixtures of the ``beta`` forms on ``q + 1`` antennas.  Each
    receiver outside ``S`` then *purifies* its overheard equations into
    ``q / eta`` random combinations (preshared coefficients), and for
    every size-``j+1`` subset ``T`` the ``(j + 1) q / eta`` purified forms
    are compressed into ``j * q / eta`` order-``j+1`` outputs per run
    (none when ``m == 1``).  With ``m >= k - j + 1`` antennas, ``q = eta
    = k - j``: one slot per subset on ``k - j + 1`` antennas, and each
    outside receiver's one overheard equation is already pure, so the
    ``j + 1`` equations of ``T`` are compressed into ``j`` outputs.
    Returns the slots used and the outputs, stacked by ``T`` in the same
    order, run after run.  The weights are ``air.drawn``'s keys of ``j``
    (:func:`phase_layout`), mixed in by plain ``W @ F`` products.
    """
    if not 1 <= j < k:
        raise ValueError(f"phase level must satisfy 1 <= j < k, got j={j}, k={k}")
    p = _params(air.m, k, j)
    subsets, uppers, n = math.comb(k, j), math.comb(k, j + 1), len(air.table)
    if inputs is None:  # the ids, not the rows: square-7's would take 138 MB
        runs, chunks = _unit_runs(n, subsets, p.beta, numerics.STACK_BYTES)
    else:
        forms = _runs(inputs, subsets, p.beta, f"phase {j}")
        runs, n = forms.shape[0], forms.shape[-1]
    sub_slots, pur = p.slots_per_subphase, p.q // p.eta  # pur: forms per outside receiver
    plan_w = air.drawn[j, "plan"][:, :p.q + 1].reshape(
        runs, subsets, sub_slots, p.q + 1, p.beta)
    w = plan_w.reshape(runs, subsets, -1, p.beta)
    if inputs is None:  # a chunk of runs' unit rows at a time: no n x n identity
        plans = np.empty(w.shape[:3] + (n,), dtype=np.complex128)
        for at, ids, shape in chunks:
            plans[at] = w[at] @ air.table.unit_forms(ids).reshape(*shape, n)
    else:
        plans = w @ forms
        del forms  # the stacked inputs, not held while the phase sends
    recon = air.broadcast(plans.reshape(-1, p.q + 1, n))
    del plans  # air holds them normalized: not held twice
    logged = plan_w.reshape(runs, 1, -1, p.q + 1, p.beta)  # each run's blocks of weights
    outputs = np.empty((uppers, 0, n), dtype=np.complex128)
    if pur:
        rows, pair = _overheard(k, j, sub_slots, runs)
        heard = recon.reshape(-1, n)[rows]
        if sub_slots > 1:  # receiver r purifies what it heard in the sub-phase of S
            pur_w = air.drawn[j, "purify"][:, :pur].reshape(
                runs, subsets, k - j, pur, sub_slots)
            heard = pur_w.reshape(-1, pur, sub_slots)[pair] @ heard
            logged = [[w for both in zip(ws, pw) for w in both]
                      for ws, pw in zip(plan_w, pur_w)]
        out_w = air.drawn[j, "order"][:, :j * pur].reshape(runs, uppers, j * pur, (j + 1) * pur)
        outs = (out_w @ heard.reshape(runs, uppers, -1, n)).swapaxes(0, 1)
        outputs = outs.reshape(uppers, -1, n)
    labels, order_labels = _phase_labels(k, j, p.q, sub_slots)
    for run in range(runs):
        air.combos.extend(zip(labels, logged[run]))
        if pur:
            air.combos.append((order_labels, out_w[run]))
    return len(recon), outputs


@lru_cache(maxsize=None)
def _phase_labels(k: int, j: int, q: int, sub_slots: int):
    """The combination-log labels of a run of phase ``j`` in the blocks
    :func:`build_phase` logs: every subset's plans, or, when a sub-phase
    has more than one slot, each subset's plans and then the
    purification of each receiver outside it; then each order-``j+1``
    output.  A full-antenna phase (``q = k - j``) names the one slot of
    each subset."""
    subsets = _subsets(k, j)
    orders = tuple(f"phase{j}/order{j + 1}/{_tag(t)}" for t in _subsets(k, j + 1))
    plans = [(f"phase{j}/slot{_tag(s)}/plan",) if q == k - j else
             tuple(f"phase{j}/sub{_tag(s)}/t{t}/plan" for t in range(sub_slots))
             for s in subsets]
    if sub_slots == 1:
        return (sum(plans, ()),), orders
    return tuple(block for s, own in zip(subsets, plans) for block in (
        own, tuple(f"phase{j}/sub{_tag(s)}/purify-r{r}"
                   for r in range(1, k + 1) if r not in s))), orders


@lru_cache(maxsize=None)
def _params(m: int, k: int, level: int) -> NonsquarePhaseParams:
    return NonsquarePhaseParams.for_query(DofQuery(m, k, level))


@lru_cache(maxsize=None)
def _chain_plan(m: int, k: int, start: int):
    """The shape of the chain ``(m, k, start)``, fixed before anything is
    drawn: the minimal integral replication of each level, the record of
    each phase that runs, and the starting symbol table (the first phase's
    inputs, a block per subset, with each receiver's symbols looked up).
    Phase ``j < k`` turns order-``j`` inputs into order-``j+1`` outputs
    (none on one antenna, which ends the chain); phase ``k`` sends one
    form a slot."""
    per_run = []  # (level, inputs, slots, outputs) of one run
    for level in range(start, k):
        p, n = _params(m, k, level), math.comb(k, level)
        per_run.append((level, p.beta * n, p.slots_per_subphase * n,
                        level * (p.q // p.eta) * math.comb(k, level + 1)))
    per_run.append((k, 1, 1, 0))
    ratios = {start: Fraction(1)}
    for (level, _, _, out), (_, nxt, _, _) in zip(per_run, per_run[1:]):
        ratios[level + 1] = ratios[level] * Fraction(out, nxt)
        if out == 0:
            break
    scale = math.lcm(*(r.denominator for r in ratios.values()))
    replication = {lvl: int(r * scale) for lvl, r in ratios.items()}
    records = tuple(PhaseRecord(level, runs, i * runs, s * runs, o * runs)
                    for level, i, s, o in per_run
                    for runs in [replication.get(level, 0)] if runs)
    table = SymbolTable(k)
    for s in _subsets(k, start):
        for i in range(per_run[0][1] // math.comb(k, start) * replication[start]):
            table.new_symbol(s, f"u{_tag(s)}.{i}")
    for r in range(1, k + 1):
        table.owned_by(r)
    return replication, records, table


def _chain_layout(m: int, k: int, start: int) -> tuple:
    """The draws of the chain ``(m, k, start)``: its phases' layouts."""
    return sum((phase_layout(m, k, p.level, p.runs)
                for p in _chain_plan(m, k, start)[1]), ())


def _send_chain(k: int, records, inputs, air: AirLog) -> None:
    """Send the phases ``records`` on ``air`` from ``inputs``, the first
    phase's stack (:func:`build_phase`), or its unit rows if ``None``;
    raise ``AssertionError`` when a phase sends other than its record's slots."""
    for p in records:
        if p.level < k:
            slots, inputs = build_phase(k, p.level, inputs, air)
        else:  # phase k, from the unit rows if the chain starts there
            forms = air.table.unit_forms(air.table.ids) if inputs is None else inputs[0]
            air.send_each(forms)
            slots = len(forms)
        if slots != p.slots:
            raise AssertionError(f"chain accounting is off: phase {p.level} sent "
                                 f"{slots} slots, its record says {p.slots}")


def _run_chain(name: str, m: int, k: int, start: int, rng: RngStream,
               channels=None) -> SchemeTrace:
    """Chain phases ``start .. k`` as :func:`_chain_plan` lays them out."""
    replication, records, table = _chain_plan(m, k, start)
    air = AirLog(table.copy(), m, rng, channels)
    air.draw(_chain_layout, m, k, start)
    _send_chain(k, records, None, air)
    return air.trace(name, dict(replication), list(records))  # the cached dict stays unshared


def run_square_scheme(k: int, rng: RngStream, channels=None) -> SchemeTrace:
    """Order-1 scheme for ``m = k`` antennas; delivers ``k / H_k`` per slot.

    Phases ``1 .. k`` are chained with the minimal replication that makes
    every phase's input count integral, e.g. phase one runs twice for
    ``k = 3``.
    """
    if k < 1:
        raise ValueError(f"need at least one receiver, got k={k}")
    return _run_chain("square", k, k, 1, rng, channels)


def run_order_j_delivery(m: int, k: int, j: int, rng: RngStream,
                         channels=None) -> SchemeTrace:
    """Deliver order-``j`` common symbols using phases ``j .. k``.

    Requires ``m >= k - j + 1`` antennas (the chain never uses more);
    the empirical DoF equals the square-scheme value for order ``j``.
    """
    q = DofQuery(m, k, j)
    if not q.square_regime:
        raise OutOfRegimeError(
            f"order-{j} delivery needs m >= k - j + 1 (got m={m}, k={k})")
    return _run_chain("order_delivery", m, k, j, rng, channels)


def run_mat23_suboptimal(rng: RngStream, channels=None) -> SchemeTrace:
    """Two-antenna, three-receiver chain through the purification phase.

    Phase one (run twice for integrality) spends 12 slots on 24 symbols
    and leaves 6 order-2 forms, delivered at 6/5: 24 symbols in 17 slots.
    """
    return _run_chain("mat23_suboptimal", 2, 3, 1, rng, channels)


@lru_cache(maxsize=None)
def _pairs_plan(k: int):
    """The shape of the pair scheme on two antennas and ``k`` receivers,
    fixed before anything is drawn: its symbol table; per receiver pair
    ``(x, y)``, the unit rows of its mixed slot (two symbols of ``x``,
    then two of ``y``), the receivers whose equations give its two order-2
    forms (``y``, then ``x``) and which symbols each keeps (``x``'s, then
    ``y``'s); the mixed slots' log labels; and the replication and records
    of the mixed phase and of the chain ``(2, k, 2)``, run as often as its
    ``2 C(k, 2)`` forms fill.  Beyond the counts only the labels depend on
    ``k``: alt22's (``k = 2``) are ``u1, v1, u2, v2`` and
    ``phase1/mixed-slot/plan``."""
    table, pairs = SymbolTable(k), [tuple(sorted(s)) for s in _subsets(k, 2)]
    ids = [[table.new_symbol({r}, f"{'uv'[i]}{r}" if k == 2 else f"u{r}.{2 * at + i}")
            for at, r in enumerate(pair) for i in range(2)] for pair in pairs]
    units = np.stack([table.unit_forms(row) for row in ids])
    heard = np.array([[y - 1, x - 1] for x, y in pairs])
    cross = np.zeros((len(ids), 2, len(table)), dtype=bool)
    for row, sym in enumerate(ids):
        cross[row, 0, sym[:2]] = cross[row, 1, sym[2:]] = True
    for a in (units, heard, cross):
        a.flags.writeable = False  # shared by every trace
    labels = tuple(f"phase1/mixed{'-slot' if k == 2 else _tag(s)}/plan" for s in _subsets(k, 2))
    replication, records, _ = _chain_plan(2, k, 2)
    scale = 2 * len(pairs) // records[0].inputs_consumed
    records = (PhaseRecord(1, 1, 4 * len(pairs), len(pairs), 2 * len(pairs)),
               *(PhaseRecord(p.level, p.runs * scale, p.inputs_consumed * scale,
                             p.slots * scale, p.outputs_generated * scale)
                 for p in records))
    replication = {1: 1, **{lvl: runs * scale for lvl, runs in replication.items()}}
    return table, units, heard, cross, labels, replication, records


def _pairs_layout(k: int) -> tuple:
    """A mixed slot per receiver pair, then the order-2 chain's phases."""
    return (((1, "plan"), 4), CHANNEL) * math.comb(k, 2) + sum(
        (phase_layout(2, k, p.level, p.runs) for p in _pairs_plan(k)[-1][1:]), ())


def _run_pairs(name: str, k: int, rng: RngStream, channels=None) -> SchemeTrace:
    """The pair scheme of :func:`_pairs_plan`: a mixed slot per receiver
    pair, of two fresh symbols per member; the cross part of each member's
    equation, on the other's symbols, is an order-2 form for the chain."""
    table, units, heard, cross, labels, replication, records = _pairs_plan(k)
    air = AirLog(table.copy(), 2, rng, channels)
    w = air.draw(_pairs_layout, k)[1, "plan"][:, :2]
    air.combos.append((labels, w))
    recon = air.broadcast(w @ units)
    if len(recon) != records[0].slots:
        raise AssertionError(f"pair accounting is off: phase 1 sent {len(recon)} "
                             f"slots, its record says {records[0].slots}")
    # per pair (x, y): y's equation on x's symbols, x's on y's
    parts = np.where(cross, recon[np.arange(len(recon))[:, np.newaxis], heard], 0.0)
    _send_chain(k, records[1:], parts, air)
    return air.trace(name, dict(replication), list(records))  # the cached dict stays unshared


def run_alt22(rng: RngStream, channels=None) -> SchemeTrace:
    """Single-mixed-slot variant of the two-user scheme (4/3 in 3 slots):
    the pair scheme at ``k = 2``, whose one pair's two order-2 forms are
    broadcast in two slots."""
    return _run_pairs("alt22", 2, rng, channels)


def run_opt23(rng: RngStream, channels=None) -> SchemeTrace:
    """Optimal two-antenna, three-receiver scheme (3/2 in 8 slots): the
    pair scheme at ``k = 3``, whose three mixed slots leave 6 order-2
    forms for the order-2 delivery's 5 slots."""
    return _run_pairs("opt23", 3, rng, channels)


def tdma_trace(k: int, rng: RngStream, channels=None) -> SchemeTrace:
    """Round-robin single-user transmission: one symbol per slot, no CSI."""
    if k < 1:
        raise ValueError(f"need at least one receiver, got k={k}")
    table = SymbolTable(k)
    air = AirLog(table, 1, rng, channels)
    syms = [table.new_symbol({r}, f"s{r}") for r in range(1, k + 1)]
    air.draw(_sends, k)
    air.send_each(table.unit_forms(syms))
    return air.trace("tdma", {1: k}, [PhaseRecord(1, k, k, k, 0)])
