"""Construction and execution of the delayed-CSI transmission schemes.

Each scheme is executed symbolically against sampled (or injected)
channels and recorded as a :class:`SchemeTrace` with exact slot/symbol
accounting.  A scheme is a chain of *phases*: phase ``j`` consumes
order-``j`` forms grouped by their target subset, spends slots
broadcasting random mixtures of them, and turns the overheard equations
into order-``j+1`` forms for the next phase, until order-``k`` forms are
delivered by plain broadcast.  When consecutive phases' output/input
cardinalities do not match, earlier phases are replicated the minimal
integral number of times.

Transmitted antenna forms are normalized to unit coefficient norm, so a
recorded trace doubles as the SNR-independent skeleton used by the rate
simulator: the physical transmit signal at SNR ``P`` is the recorded
plan scaled by ``sqrt(P / active_antennas)``.
"""

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dof_calc import DofQuery, NonsquarePhaseParams, OutOfRegimeError
from .ledger import (
    ReceiverState,
    SymbolTable,
    can_decode,
    combine,
    form_dict,
    random_combination,
    transmit_slot,
)
from .numerics import DEFAULT_TOL, RngStream, haar_unitary, sample_channel

__all__ = [
    "AirLog",
    "PhaseRecord",
    "SchemeTrace",
    "build_nonsquare_phase",
    "build_square_phase",
    "canonical_json",
    "run_alt22",
    "run_mat23_suboptimal",
    "run_opt23",
    "run_order_j_delivery",
    "run_square_scheme",
    "tdma_trace",
]


class AirLog:
    """Shared transmission context of one scheme execution.

    Owns the receiver states, the per-slot channel source, and the trace
    records (channels, transmitted plans, combination coefficients).
    Phase builders transmit through :meth:`slot`.

    Parameters
    ----------
    table : SymbolTable
        Symbol registry; fixes the receiver count.
    m : int
        Number of transmit antennas.
    rng : RngStream
        Randomness for channel draws.
    channels : sequence of matrices, optional
        Channel override, one ``k x m`` matrix per slot, consumed in slot
        order.  When exhausted (or absent) fresh i.i.d. channels are
        drawn.
    """

    def __init__(self, table: SymbolTable, m: int, rng: RngStream, channels=None):
        self.table = table
        self.k = table.k
        self.m = m
        self.rng = rng
        self.states = [ReceiverState(r) for r in range(1, table.k + 1)]
        self.channels = []
        self.plans = []
        self.active_antennas = []
        self.combos = []
        self._override = list(channels) if channels is not None else []
        self._next_override = 0

    @property
    def slots(self) -> int:
        return len(self.channels)

    def log_combo(self, label: str, weights) -> None:
        self.combos.append({"label": label, "weights": np.asarray(weights)})

    def _next_channel(self):
        if self._next_override < len(self._override):
            h = np.asarray(self._override[self._next_override], dtype=np.complex128)
            self._next_override += 1
            return h
        return sample_channel(self.k, self.m, self.rng)

    def slot(self, plan):
        """Transmit one slot and return the per-receiver reconstructions.

        Plan forms (rows) are normalized to unit coefficient norm first
        (equal power per active antenna).
        """
        plan = np.asarray(plan, dtype=np.complex128)
        norms = np.linalg.norm(plan, axis=1)
        inverse = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 0)
        normalized = plan * inverse[:, np.newaxis]
        h = self._next_channel()
        recon = transmit_slot(normalized, h, self.states)
        self.channels.append(h)
        self.plans.append(normalized)
        self.active_antennas.append(len(normalized))
        return recon


@dataclass
class PhaseRecord:
    """Accounting of one phase: level, replication, and cardinalities."""

    level: int
    runs: int
    inputs_consumed: int
    slots: int
    outputs_generated: int


@dataclass
class SchemeTrace:
    """Complete record of one scheme execution."""

    name: str
    m: int
    k: int
    replication: dict
    table: SymbolTable
    states: list
    channels: list
    plans: list
    active_antennas: list
    phases: list
    combination_log: list
    seed: int
    stream_index: int

    @property
    def total_slots(self) -> int:
        return len(self.channels)

    @property
    def symbols_delivered(self) -> int:
        return len(self.table)

    @property
    def symbols_per_receiver(self) -> int:
        return len(self.table.owned_by(1))

    @property
    def empirical_dof(self) -> Fraction:
        """Delivered symbols per slot, as an exact rational."""
        return Fraction(self.symbols_delivered, self.total_slots)

    def targets_for(self, receiver: int):
        return self.table.owned_by(receiver)

    def decode_ok(self, tol=DEFAULT_TOL) -> bool:
        """True iff every receiver can decode all of its symbols."""
        return all(
            can_decode(st, self.targets_for(st.receiver), tol)
            for st in self.states
        )

    def condition_numbers(self):
        """Per-receiver condition number of the stacked equation matrix.

        Reported for diagnostics only; decodability is gated on rank,
        not conditioning.
        """
        ids = self.table.ids
        out = []
        for st in self.states:
            a = st.coefficient_matrix(ids)
            s = np.linalg.svd(a, compute_uv=False)
            if s.size == 0 or s[-1] == 0:
                out.append(float("inf"))
            else:
                out.append(float(s[0] / s[-1]))
        return out

    def summary_row(self, decode_rate=None) -> dict:
        dof = self.empirical_dof
        return {
            "scheme": self.name,
            "m": self.m,
            "k": self.k,
            "symbols": self.symbols_delivered,
            "slots": self.total_slots,
            "dof_num": dof.numerator,
            "dof_den": dof.denominator,
            "decode_rate": decode_rate,
        }

    def to_dict(self) -> dict:
        def cplx(z):
            z = complex(z)
            return [z.real, z.imag]

        def matrix(a):
            return [[cplx(z) for z in row] for row in np.asarray(a)]

        return {
            "schema": "v1",
            "scheme": self.name,
            "m": self.m,
            "k": self.k,
            "replication": {str(lvl): n for lvl, n in self.replication.items()},
            "total_slots": self.total_slots,
            "symbols": self.symbols_delivered,
            "dof": f"{self.empirical_dof.numerator}/{self.empirical_dof.denominator}",
            "rng": {"seed": self.seed, "index": self.stream_index},
            "symbol_table": [
                {"id": s.id, "owner": sorted(s.owner), "order": s.order,
                 "label": s.label}
                for s in self.table.symbols
            ],
            "phases": [
                {"level": p.level, "runs": p.runs,
                 "inputs": p.inputs_consumed, "slots": p.slots,
                 "outputs": p.outputs_generated}
                for p in self.phases
            ],
            "slots": [
                {"slot": i,
                 "active_antennas": self.active_antennas[i],
                 "plan": [form_dict(f) for f in self.plans[i]],
                 "channel": matrix(self.channels[i])}
                for i in range(self.total_slots)
            ],
            "receivers": [st.to_dict() for st in self.states],
            "combination_log": [
                {"label": c["label"], "weights": matrix(c["weights"])}
                for c in self.combination_log
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    Any ``indent`` makes json encode in pure Python.  Here the C encoder
    takes each container of scalars, with the newline and indentation as
    item separator, and each container of flat number lists (a trace's
    coefficient maps and matrix rows of ``[re, im]`` pairs), in compact
    form indented by :func:`_rows_json`.  Only the rest is walked here.
    """
    out = []

    def write(node, nl):
        inner = nl + "  "
        keyed = isinstance(node, dict)
        nested = keyed or isinstance(node, (list, tuple))
        kinds = set(map(type, node.values() if keyed else node)) if nested else ()
        if kinds and all(issubclass(kind, (list, tuple)) for kind in kinds):
            text = _rows_json(node, nl)
            if text is not None:
                out.append(text)
                return
        if not any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
            text = json.dumps(node, sort_keys=True, separators=("," + inner, ": "))
            if text[0] in "[{" and len(text) > 2:
                text = text[0] + inner + text[1:-1] + nl + text[-1]
            out.append(text)
        elif keyed and not all(isinstance(key, str) for key in node):
            # json turns such keys into strings only after sorting them
            out.append(json.dumps(node, sort_keys=True, indent=2).replace("\n", nl))
        else:
            sep = ("{" if keyed else "[") + inner
            for key in sorted(node) if keyed else range(len(node)):
                out.append(sep + (json.dumps(key) + ": " if keyed else ""))
                write(node[key], inner)
                sep = "," + inner
            out.append(nl + ("}" if keyed else "]"))

    try:
        write(obj, "\n")
    except RecursionError:  # a cycle, or nesting too deep: fail as json does
        return json.dumps(obj, sort_keys=True, indent=2)
    return "".join(out)


def _rows_json(node, nl: str):
    """Indented JSON of a dict or list of lists from its compact text, or
    None unless its ``n`` items are nonempty lists of bare tokens such as
    numbers, under keys free of brackets, commas and quotes.  The text
    shows it: ``2n`` quotes in a dict (the keys) and none in a list, a
    bracket pair per item (and a list's own), one comma fewer than the
    items' entries.  Then each ``],`` separates two items, each ``[`` or
    ``:[`` opens one, and fixed substitutions indent the text."""
    items = node.values() if isinstance(node, dict) else node
    if any(isinstance(v, (dict, list, tuple)) for v in next(iter(items))):
        return None  # refused before encoding, as matrices are
    text = json.dumps(node, sort_keys=True, separators=(",", ":"))
    keyed = text[0] == "{"
    brackets = len(node) + (not keyed)
    if (text.count('"') != 2 * len(node) * keyed
            or text.count("[") != brackets or text.count("]") != brackets
            or text.count(",") != sum(map(len, items)) - 1):
        return None
    one, two = nl + "  ", nl + "    "
    # each comma ends a line; one between items also closes the item before
    body = text[1:-2].replace(",", "," + two)
    if keyed:
        body = (body.replace('],' + two + '"', one + '],' + one + '"')
                .replace(":[", ": [" + two))
    else:
        body = "[" + two + body[1:].replace(
            "]," + two + "[", one + "]," + one + "[" + two)
    return text[0] + one + body + one + "]" + nl + text[-1]


def _subsets(k: int, size: int):
    return [frozenset(s) for s in combinations(range(1, k + 1), size)]


def _check_inputs(inputs, subsets, per_subset, what):
    if set(inputs) != set(subsets):
        raise ValueError(f"{what}: inputs must be keyed by all size-j subsets")
    for s in subsets:
        if len(inputs[s]) != per_subset:
            raise ValueError(
                f"{what}: subset {sorted(s)} needs {per_subset} forms, "
                f"got {len(inputs[s])}")


def build_square_phase(k: int, j: int, inputs, air: AirLog, rng: RngStream):
    """Run phase ``j`` of the full-antenna scheme.

    One slot per size-``j`` subset ``S``, sending ``k - j + 1`` random
    mixtures of S's ``k - j + 1`` forms on as many antennas.  For every
    size-``j+1`` subset ``T``, the ``j + 1`` overheard equations (one
    per member ``r``, from the slot of ``T - {r}``) are compressed into
    ``j`` fresh random combinations: the order-``j+1`` outputs.

    Parameters
    ----------
    k, j : int
        Receiver count and phase level, ``1 <= j < k``.
    inputs : dict
        Maps each size-``j`` ``frozenset`` to its ``k - j + 1`` forms.
    air : AirLog
        Transmission context (receiver states and trace records).
    rng : RngStream
        Randomness for the public combination coefficients.

    Returns
    -------
    (int, dict)
        Slots used (``C(k, j)``) and the outputs, keyed by size-``j+1``
        subset with ``j`` forms each.
    """
    if not 1 <= j < k:
        raise ValueError(f"phase level must satisfy 1 <= j < k, got j={j}, k={k}")
    need = k - j + 1
    if air.m < need:
        raise OutOfRegimeError(
            f"square phase {j} needs {need} antennas, air has {air.m}")
    subsets = _subsets(k, j)
    _check_inputs(inputs, subsets, need, f"square phase {j}")
    overheard = {}
    slots = 0
    for s in subsets:
        tag = "".join(str(r) for r in sorted(s))
        w = haar_unitary(need, rng)
        air.log_combo(f"phase{j}/slot{tag}/plan", w)
        recon = air.slot(combine(inputs[s], w))
        slots += 1
        for r in range(1, k + 1):
            if r not in s:
                overheard[(s, r)] = recon[r - 1]
    outputs = {}
    for t in _subsets(k, j + 1):
        forms = [overheard[(t - {r}, r)] for r in sorted(t)]
        tag = "".join(str(r) for r in sorted(t))
        log = []
        outputs[t] = random_combination(forms, j, rng, log=log)
        air.log_combo(f"phase{j}/order{j + 1}/{tag}", log[0])
    return slots, outputs


def build_nonsquare_phase(m: int, k: int, j: int, params: NonsquarePhaseParams,
                          inputs, air: AirLog, rng: RngStream):
    """Run phase ``j`` with fewer antennas than receivers outside ``S``.

    Each size-``j`` subset gets a sub-phase of ``(k - j) / eta`` slots,
    every slot sending ``q + 1`` random mixtures of the sub-phase's
    ``beta`` forms on ``q + 1`` antennas.  Each receiver outside ``S``
    then *purifies* its overheard equations into ``q / eta`` random
    combinations (preshared coefficients), and for every size-``j+1``
    subset ``T`` the ``(j + 1) q / eta`` purified forms are compressed
    into ``j * q / eta`` order-``j+1`` outputs.

    With ``m >= k - j + 1`` the parameters collapse to one slot per
    subset and the phase matches :func:`build_square_phase` in slot count
    and output cardinality.

    Returns
    -------
    (int, dict)
        Slots used and outputs keyed by size-``j+1`` subset
        (``j * q / eta`` forms each; empty when ``m == 1``).
    """
    if not 1 <= j < k:
        raise ValueError(f"phase level must satisfy 1 <= j < k, got j={j}, k={k}")
    if air.m < params.q + 1:
        raise OutOfRegimeError(
            f"nonsquare phase {j} needs {params.q + 1} antennas, air has {air.m}")
    subsets = _subsets(k, j)
    _check_inputs(inputs, subsets, params.beta, f"nonsquare phase {j}")
    pur_each = params.q // params.eta
    purified = {}
    slots = 0
    for s in subsets:
        tag = "".join(str(r) for r in sorted(s))
        slot_recons = []
        for t in range(params.slots_per_subphase):
            w = haar_unitary(params.beta, rng)[:params.q + 1, :]
            air.log_combo(f"phase{j}/sub{tag}/t{t}/plan", w)
            slot_recons.append(air.slot(combine(inputs[s], w)))
            slots += 1
        for r in range(1, k + 1):
            if r in s:
                continue
            heard = [rec[r - 1] for rec in slot_recons]
            if pur_each == 0:
                purified[(s, r)] = []
                continue
            log = []
            purified[(s, r)] = random_combination(heard, pur_each, rng, log=log)
            air.log_combo(f"phase{j}/sub{tag}/purify-r{r}", log[0])
    outputs = {}
    out_each = j * pur_each
    for t in _subsets(k, j + 1):
        if out_each == 0:
            outputs[t] = []
            continue
        forms = [f for r in sorted(t) for f in purified[(t - {r}, r)]]
        tag = "".join(str(r) for r in sorted(t))
        log = []
        outputs[t] = random_combination(forms, out_each, rng, log=log)
        air.log_combo(f"phase{j}/order{j + 1}/{tag}", log[0])
    return slots, outputs


def _per_run_counts(m: int, k: int, level: int):
    """Per-run (inputs, slots, outputs) of one phase at ``level``."""
    if level == k:
        return 1, 1, 0
    p = NonsquarePhaseParams.for_query(DofQuery(m, k, level))
    n_sub = math.comb(k, level)
    inputs = p.beta * n_sub
    slots = p.slots_per_subphase * n_sub
    outputs = level * (p.q // p.eta) * math.comb(k, level + 1)
    return inputs, slots, outputs


def _replication_factors(m: int, k: int, start: int) -> dict:
    """Minimal integer replication per level making the chain integral."""
    ratios = {start: Fraction(1)}
    for level in range(start, k):
        _, _, out = _per_run_counts(m, k, level)
        nxt_in, _, _ = _per_run_counts(m, k, level + 1)
        ratios[level + 1] = ratios[level] * Fraction(out, nxt_in)
        if out == 0:
            break
    scale = math.lcm(*(r.denominator for r in ratios.values()))
    return {lvl: int(r * scale) for lvl, r in ratios.items()}


def _restrict(form, sym_ids) -> np.ndarray:
    """The part of ``form`` on the columns ``sym_ids`` only."""
    out = np.zeros_like(form)
    out[sym_ids] = form[sym_ids]
    return out


def _symbol_label(owner, idx: int) -> str:
    tag = "".join(str(r) for r in sorted(owner))
    return f"u{tag}.{idx}"


def _run_chain(name: str, m: int, k: int, start: int, rng: RngStream,
               channels=None) -> SchemeTrace:
    """Chain phases ``start .. k`` with minimal replication."""
    factors = _replication_factors(m, k, start)
    table = SymbolTable(k)
    air = AirLog(table, m, rng, channels)
    per0 = _per_run_counts(m, k, start)[0] // math.comb(k, start)
    ids = {s: [table.new_symbol(s, _symbol_label(s, i))
               for i in range(per0 * factors[start])]
           for s in _subsets(k, start)}
    inputs = {s: table.unit_forms(lst) for s, lst in ids.items()}
    phases = []
    for level in range(start, k):
        runs = factors.get(level, 0)
        if runs == 0:
            break
        per_in, _, _ = _per_run_counts(m, k, level)
        per_subset = per_in // math.comb(k, level)
        merged = defaultdict(list)
        consumed = slots_used = produced = 0
        square = m >= k - level + 1
        params = NonsquarePhaseParams.for_query(DofQuery(m, k, level))
        for run_idx in range(runs):
            chunk = {
                s: lst[run_idx * per_subset:(run_idx + 1) * per_subset]
                for s, lst in inputs.items()
            }
            if square:
                used, outs = build_square_phase(k, level, chunk, air, rng)
            else:
                used, outs = build_nonsquare_phase(m, k, level, params, chunk,
                                                   air, rng)
            slots_used += used
            consumed += per_in
            for t, lst in outs.items():
                merged[t].extend(lst)
                produced += len(lst)
        phases.append(PhaseRecord(level, runs, consumed, slots_used, produced))
        inputs = dict(merged)
        if produced == 0:
            break
    top = factors.get(k, 0)
    if top > 0:
        forms = inputs.get(frozenset(range(1, k + 1)), [])
        if len(forms) != top:
            raise AssertionError(
                f"chain accounting is off: expected {top} order-{k} forms, "
                f"got {len(forms)}")
        for f in forms:
            air.slot([f])
        phases.append(PhaseRecord(k, top, top, top, 0))
    return SchemeTrace(
        name=name, m=m, k=k, replication=factors, table=table,
        states=air.states, channels=air.channels, plans=air.plans,
        active_antennas=air.active_antennas, phases=phases,
        combination_log=air.combos, seed=rng.seed, stream_index=rng.index,
    )


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


def run_alt22(rng: RngStream, channels=None) -> SchemeTrace:
    """Single-mixed-slot variant of the two-user scheme (4/3 in 3 slots).

    One slot carries random mixtures of all four symbols; the part of
    each receiver's equation that concerns the *other* receiver's
    symbols becomes an order-2 form, and both are broadcast.
    """
    table = SymbolTable(2)
    air = AirLog(table, 2, rng, channels)
    for r in (1, 2):
        for name in ("u", "v"):
            table.new_symbol({r}, f"{name}{r}")
    w = haar_unitary(4, rng)[:2, :]
    air.log_combo("phase1/mixed-slot/plan", w)
    recon = air.slot(combine(table.unit_forms(table.ids), w))
    # receiver 2's equation, first user's part; then the reverse
    u_ab = _restrict(recon[1], table.owned_by(1))
    v_ab = _restrict(recon[0], table.owned_by(2))
    phases = [PhaseRecord(1, 1, 4, 1, 2)]
    for f in (u_ab, v_ab):
        air.slot([f])
    phases.append(PhaseRecord(2, 2, 2, 2, 0))
    return SchemeTrace(
        name="alt22", m=2, k=2, replication={1: 1, 2: 2}, table=table,
        states=air.states, channels=air.channels, plans=air.plans,
        active_antennas=air.active_antennas, phases=phases,
        combination_log=air.combos, seed=rng.seed, stream_index=rng.index,
    )


def run_opt23(rng: RngStream, channels=None) -> SchemeTrace:
    """Optimal two-antenna, three-receiver scheme (3/2 in 8 slots).

    Three mixed slots, one per receiver pair, each carrying random
    mixtures of two fresh symbols per pair member.  Out of every slot,
    the cross parts of the two pair members' equations give 2 order-2
    forms (6 total), which the order-2 delivery ships in 5 more slots.
    """
    table = SymbolTable(3)
    air = AirLog(table, 2, rng, channels)
    pairs = _subsets(3, 2)
    pair_syms = {}
    for pair in pairs:
        x, y = sorted(pair)
        ids_x = [table.new_symbol({x}, _symbol_label({x}, i)) for i in range(2)]
        ids_y = [table.new_symbol({y}, _symbol_label({y}, i + 2)) for i in range(2)]
        pair_syms[pair] = (ids_x, ids_y)
    pair_forms = {}
    for pair in pairs:
        x, y = sorted(pair)
        ids_x, ids_y = pair_syms[pair]
        tag = f"{x}{y}"
        w = haar_unitary(4, rng)[:2, :]
        air.log_combo(f"phase1/mixed{tag}/plan", w)
        recon = air.slot(combine(table.unit_forms(ids_x + ids_y), w))
        u = _restrict(recon[y - 1], ids_x)  # y's equation, x's symbols
        v = _restrict(recon[x - 1], ids_y)  # x's equation, y's symbols
        pair_forms[pair] = [u, v]
    phases = [PhaseRecord(1, 1, 12, 3, 6)]
    used, outs = build_square_phase(3, 2, pair_forms, air, rng)
    top = outs[frozenset({1, 2, 3})]
    phases.append(PhaseRecord(2, 1, 6, used, len(top)))
    for f in top:
        air.slot([f])
    phases.append(PhaseRecord(3, len(top), len(top), len(top), 0))
    return SchemeTrace(
        name="opt23", m=2, k=3, replication={1: 1, 2: 1, 3: 2}, table=table,
        states=air.states, channels=air.channels, plans=air.plans,
        active_antennas=air.active_antennas, phases=phases,
        combination_log=air.combos, seed=rng.seed, stream_index=rng.index,
    )


def tdma_trace(k: int, rng: RngStream, channels=None) -> SchemeTrace:
    """Round-robin single-user transmission: one symbol per slot, no CSI."""
    if k < 1:
        raise ValueError(f"need at least one receiver, got k={k}")
    table = SymbolTable(k)
    air = AirLog(table, 1, rng, channels)
    syms = [table.new_symbol({r}, f"s{r}") for r in range(1, k + 1)]
    for form in table.unit_forms(syms):
        air.slot([form])
    phases = [PhaseRecord(1, k, k, k, 0)]
    return SchemeTrace(
        name="tdma", m=1, k=k, replication={1: k}, table=table,
        states=air.states, channels=air.channels, plans=air.plans,
        active_antennas=air.active_antennas, phases=phases,
        combination_log=air.combos, seed=rng.seed, stream_index=rng.index,
    )
