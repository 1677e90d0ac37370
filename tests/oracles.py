"""Reference implementations that the tests compare the package against."""

import json
import math

import numpy as np

from delayedcsit.numerics import RANK_RTOL, as_complex_matrix, haar_unitaries
from delayedcsit.ratesim import RatePoint, receiver_gains


class NumericalDomainError(ArithmeticError):
    """Raised when an input is outside the numerical domain of an operation
    (e.g. a noise covariance that is not Hermitian positive definite)."""


def logdet_capacity(g, noise_cov, power_per_symbol: float) -> float:
    """Mutual information of the linear Gaussian system ``y = g x + z``.

    Computes ``log2 det(I + power_per_symbol * noise_cov^-1 g g^H)`` in
    bits, for i.i.d. Gaussian inputs of per-symbol power
    ``power_per_symbol`` and noise covariance ``noise_cov``.

    Parameters
    ----------
    g : array_like
        Effective channel matrix (observations x symbols).
    noise_cov : array_like
        Hermitian positive-definite noise covariance (observations x
        observations).
    power_per_symbol : float
        Transmit power per input symbol; must be nonnegative.

    Raises
    ------
    NumericalDomainError
        If ``noise_cov`` is not Hermitian positive definite.
    """
    if power_per_symbol < 0:
        raise ValueError("power_per_symbol must be nonnegative")
    g = as_complex_matrix(g)
    noise_cov = as_complex_matrix(noise_cov)
    n = noise_cov.shape[0]
    if noise_cov.shape[1] != n or g.shape[0] != n:
        raise ValueError("noise covariance must be square and match g's rows")
    if not np.allclose(noise_cov, noise_cov.conj().T, atol=1e-12 * max(1.0, np.abs(noise_cov).max())):
        raise NumericalDomainError("noise covariance is not Hermitian")
    try:
        chol = np.linalg.cholesky(noise_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(
            "noise covariance is not positive definite") from exc
    gw = np.linalg.solve(chol, g)  # the channel once the noise is white
    k = gw.shape[1]
    gram = np.eye(k, dtype=np.complex128) + power_per_symbol * (gw.conj().T @ gw)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0:
        raise NumericalDomainError("log-det argument is not positive definite")
    return float(logdet / np.log(2.0))


def rowspace_residuals(a, vectors, tol=RANK_RTOL):
    """The dense SVD reference of :func:`delayedcsit.numerics.unit_residuals`
    for any rows: how far each row of ``vectors`` is from the row space of
    ``a``, the threshold up to which it counts as inside, and the margin of
    the rank decision, from the dense products.

    ``a`` is a matrix or a stack ``(..., rows, cols)``, and may have no
    rows; ``vectors`` holds the rows to test, ``(..., count, cols)``.
    Returns ``(residuals, thresholds, kept, dropped)``, one residual and
    threshold per row of ``vectors`` (``unit_residuals`` returns their
    ratio) and the margins as ``unit_residuals`` does, but with the rank
    by the rule ``s > tol * s_0``: ``kept`` and ``dropped`` are ``s_(r-1)
    / s_0`` and ``s_r / s_0``.

    Each matrix is factored once, ``a = U S V^H`` (economy SVD).  Its rank
    ``r`` follows that rule; ``S_r`` holds the ``r`` kept singular values
    and ``V_r`` the matching right singular vectors as rows.  For a tested row ``v`` with coordinates ``c = v V_r^H``, let
    ``d = ||v - c V_r||`` be the norm of the explicit residual (never
    ``sqrt(||v||^2 - ||c||^2)``: that difference of squares cancels below
    ``d`` of about 1e-8, above the 1e-9 default tolerance).  The returned
    residual is ``g = d / sqrt(1 + ||c S_r^-1||^2)``.

    ``g`` is the singular value that stacking ``v`` under ``a`` adds, and
    the threshold is what the stacked-rank rule ("``v`` is in the row
    space iff stacking it does not raise the numerical rank") compares
    that value with.  In the basis ``(V_r, residual direction)``, the rank
    ``r`` part of ``a`` stacked with ``v`` is the arrowhead matrix
    ``M = [[S_r, 0], [c, d]]``.  The last row of ``M^-1`` has norm
    ``sqrt(1 + ||c S_r^-1||^2) / d = 1 / g``, so the added singular value
    ``sigma_min(M)`` is at most ``g``, and since ``||M^-1|| <= 1/s_(r-1) +
    1/g`` it is at least ``min(g, s_(r-1)) / 2``.  Plain ``d`` is only
    Weyl's upper bound on it: ``M`` differs from a rank-``r`` matrix by one
    row of norm ``d``.  On ill-conditioned ``a`` (square ``k = 6``, kept
    singular values down to 2e-9 of ``s_0``), rounding in ``V_r`` alone
    inflates ``d`` past the tolerance; the weight removes exactly that,
    because a rotation of ``V_r`` by ``eps * s_0 / s_i`` is divided by
    ``1 / s_i`` again.  The stacked-rank rule counts the added value when
    it exceeds ``tol * s_max([a; v])``, and
    ``s_max([a; v]) <= sqrt(s_0^2 + ||v||^2)``.  So the threshold is
    ``tol * sqrt(s_0^2 + ||v||^2)``, ``v`` is in the row space iff
    ``g <= threshold``, and the two rules can disagree only when the
    added singular value lies within a factor 2 below the threshold.

    The stack is factored by one batched SVD, each matrix with its own
    rank, and the matrices of each rank share the products that follow;
    so each result has the bits of that matrix factored alone.
    """
    a = as_complex_matrix(a)
    v = as_complex_matrix(vectors)
    if v.shape[:-2] != a.shape[:-2] or v.shape[-1] != a.shape[-1]:
        raise ValueError(f"vectors of shape {v.shape} do not fit matrices of "
                         f"shape {a.shape}")
    shape = v.shape[:-1]
    v = v.reshape(math.prod(a.shape[:-2]), *v.shape[-2:])
    a = a.reshape(len(v), *a.shape[-2:])
    norms = np.linalg.norm(v, axis=-1)
    if a.size == 0:
        return (norms.reshape(shape), tol * norms.reshape(shape),
                np.full(shape[:-1], np.inf), np.zeros(shape[:-1]))
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    ranks = (s > tol * s[:, :1]).sum(axis=-1).tolist()
    # s is sorted, so s_(r-1) is the smallest kept value and s_r the
    # largest dropped one; r = 0 only where s_0 = 0
    kept, dropped = np.array([
        (sv[r - 1] / sv[0], sv[r] / sv[0] if r < len(sv) else 0.0) if r else (math.inf, 0.0)
        for sv, r in zip(s.tolist(), ranks)]).T
    thresholds = tol * np.sqrt(s[:, :1] ** 2 + norms ** 2)
    out = np.empty_like(norms)
    for r in sorted(set(ranks)):
        at = [i for i, rank in enumerate(ranks) if rank == r]
        at = slice(None) if len(at) == len(ranks) else at
        vr = vh[at, :r]
        coords = v[at] @ vr.conj().mT
        d = np.linalg.norm(v[at] - coords @ vr, axis=-1)
        weight = np.sqrt(1.0 + np.sum(np.abs(coords / s[at, np.newaxis, :r]) ** 2,
                                      axis=-1))
        out[at] = d / weight
    return (out.reshape(shape), thresholds.reshape(shape),
            kept.reshape(shape[:-1]), dropped.reshape(shape[:-1]))


def slot_plans(trace) -> list:
    """Each slot's plan, ``(p, symbols)``, from the trace's plan blocks."""
    return [plan for block in trace.plans for plan in block]


def plan_counts(plan, trace) -> tuple:
    """A chain plan's replication, phase records, symbols and slots, and
    the same counts measured on a trace that was built."""
    replication, records, table = plan
    return ((replication, list(records), len(table), sum(p.slots for p in records)),
            (trace.replication, trace.phases, trace.symbols_delivered, trace.total_slots))


def heard_slots(trace) -> list:
    """The slots with an active antenna: those the receivers heard."""
    return [s for s, plan in enumerate(slot_plans(trace)) if len(plan)]


def form_dict(row, noise=None) -> dict:
    """Schema-``v1`` JSON of one form: its nonzero coefficients keyed by
    symbol id, and its noise weights keyed ``"slot:receiver"`` (none for
    anything the transmitter builds)."""
    idx = np.flatnonzero(row)
    vals = row[idx]
    return {
        "coeffs": {str(s): [re, im] for s, re, im in
                   zip(idx.tolist(), vals.real.tolist(), vals.imag.tolist())},
        "noise": noise or {},
    }


def equation_dict(receiver, slot, row) -> dict:
    """One heard equation with the unit noise sample of its
    ``(slot, receiver)`` pair."""
    noise = {f"{slot}:{receiver}": [1.0, 0.0]}
    return {"receiver": receiver, "slot": slot,
            "form": form_dict(row, noise), "noise_variance": 1.0}


def receiver_dict(trace, receiver) -> dict:
    return {"receiver": receiver,
            "slots_observed": trace.total_slots,
            "equations": [equation_dict(receiver, slot, row) for slot, row in
                          zip(heard_slots(trace), trace.rows[receiver - 1])]}


def trace_doc(trace) -> dict:
    """The schema-``v1`` document of a scheme trace as nested dicts and
    lists, every heard equation written out: :func:`v1_from_v2` of
    :func:`v2_from_v3` of ``SchemeTrace.to_json()`` is its
    ``json.dumps(doc, sort_keys=True, indent=2)``."""
    def cplx(z):
        z = complex(z)
        return [z.real, z.imag]

    def matrix(a):
        return [[cplx(z) for z in row] for row in np.asarray(a)]

    dof = trace.empirical_dof
    return {
        "schema": "v1",
        "scheme": trace.name,
        "m": trace.m,
        "k": trace.k,
        "replication": {str(lvl): n for lvl, n in trace.replication.items()},
        "total_slots": trace.total_slots,
        "symbols": trace.symbols_delivered,
        "dof": f"{dof.numerator}/{dof.denominator}",
        "rng": {"seed": trace.seed, "index": trace.stream_index},
        "symbol_table": [
            {"id": i, "owner": sorted(owner), "order": len(owner),
             "label": label}
            for i, (owner, label) in enumerate(zip(trace.table.owners,
                                                   trace.table.labels))
        ],
        "phases": [
            {"level": p.level, "runs": p.runs,
             "inputs": p.inputs_consumed, "slots": p.slots,
             "outputs": p.outputs_generated}
            for p in trace.phases
        ],
        "slots": [
            {"slot": i,
             "active_antennas": len(plan),
             "plan": [form_dict(f) for f in plan],
             "channel": matrix(trace.channels[i])}
            for i, plan in enumerate(slot_plans(trace))
        ],
        "receivers": [receiver_dict(trace, r) for r in range(1, trace.k + 1)],
        "combination_log": [
            {"label": label, "weights": matrix(w)}
            for labels, weights in trace.combination_log
            for label, w in zip(labels, weights)
        ],
    }


def trace_doc_v2(trace) -> dict:
    """The schema-``v2`` document of a scheme trace: :func:`v2_from_v3` of
    ``SchemeTrace.to_json()`` is its ``json.dumps(doc, sort_keys=True,
    indent=2)``.  It is the ``v1``
    document with each receiver's equations replaced by the slots it heard
    them in."""
    heard = heard_slots(trace)
    return trace_doc(trace) | {"schema": "v2", "receivers": [
        {"receiver": r, "slots_observed": trace.total_slots, "equations": heard}
        for r in range(1, trace.k + 1)]}


def v2_from_v3(text: str) -> str:
    """The schema-``v2`` text of the schema-``v3`` trace document ``text``,
    as the ``v2`` writer wrote it, ``json.dumps(doc, sort_keys=True,
    indent=2)``: each plan form's coefficients as a map keyed by
    ``str(id)``, with the empty ``"noise": {}`` every form carried.  The
    numbers parse back to the doubles written, which json spells again."""
    doc = json.loads(text)
    if doc["schema"] != "v3":
        raise ValueError(f"not a v3 trace document: schema {doc['schema']!r}")
    doc["schema"] = "v2"
    for slot in doc["slots"]:
        slot["plan"] = [{"coeffs": {str(i): pair for i, pair in zip(form["ids"], form["coeffs"])},
                         "noise": {}} for form in slot["plan"]]
    return json.dumps(doc, sort_keys=True, indent=2)


def _matrix(rows) -> np.ndarray:
    """A matrix given as rows of ``[re, im]`` pairs, as a complex array,
    bit for bit."""
    shape = (len(rows), len(rows[0]) if rows else 0, 2)
    return np.array(rows, dtype=np.float64).reshape(shape).view(np.complex128)[..., 0]


def arrays_from_v3(text: str) -> dict:
    """What the schema-``v3`` trace document ``text`` holds, as arrays:
    each slot's channel and its dense ``(p, symbols)`` plan, with every
    absent id ``+0``, each combination's weight matrix and label, and the
    symbol labels."""
    doc = json.loads(text)
    plans = []
    for slot in doc["slots"]:
        plan = np.zeros((slot["active_antennas"], len(doc["symbol_table"])),
                        dtype=np.complex128)
        for row, form in zip(plan, slot["plan"]):
            row[form["ids"]] = _matrix([form["coeffs"]])[0]
        plans.append(plan)
    return {
        "channels": [_matrix(slot["channel"]) for slot in doc["slots"]],
        "plans": plans,
        "weights": [_matrix(c["weights"]) for c in doc["combination_log"]],
        "log_labels": [c["label"] for c in doc["combination_log"]],
        "labels": [s["label"] for s in doc["symbol_table"]],
    }


def trace_arrays(trace) -> dict:
    """What :func:`arrays_from_v3` rebuilds, taken from the trace itself: a
    plan's zero coefficients, which ``v3`` does not write, as ``+0``."""
    return {
        "channels": list(trace.channels),
        "plans": [np.where(plan == 0, 0, plan) for plan in slot_plans(trace)],
        "weights": [w for _, block in trace.combination_log for w in block],
        "log_labels": [label for labels, _ in trace.combination_log for label in labels],
        "labels": list(trace.table.labels),
    }


def v3_losses(trace, text: str) -> list:
    """The entries of :func:`arrays_from_v3` that differ from the trace's
    own (:func:`trace_arrays`): arrays by shape and the bits of every
    part, labels as strings.  Each loss is its key with the first item
    that differs on each side, an array spelled by its shape and every
    part's ``float.hex``.  Empty when ``v3`` lost nothing."""
    def bits(item):
        return np.ascontiguousarray(item, dtype=np.complex128).view(np.uint64)

    def same(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return np.shape(a) == np.shape(b) and np.array_equal(bits(a), bits(b))

    def spelled(item):
        return item if isinstance(item, str) else (np.shape(item), [
            float.hex(x) for x in bits(item).view(np.float64).ravel().tolist()])

    got, want = arrays_from_v3(text), trace_arrays(trace)
    losses = []
    for key in want:
        a, b = got[key], want[key]
        differ = [i for i, (x, y) in enumerate(zip(a, b)) if not same(x, y)]
        if differ or len(a) != len(b):
            i = differ[0] if differ else min(len(a), len(b))
            losses.append((key, i, *(spelled(c[i]) if i < len(c) else None for c in (a, b))))
    return losses


def _parse_v2(text: str):
    """The schema-``v2`` document ``text`` as parsed, and what was heard in
    each slot with an active antenna, keyed by slot: ``channel[:, :p] @
    plan``, each plan rebuilt dense from its coefficient maps.  It is the
    full 2-D product, as the package computes it: the row-vector product
    takes another BLAS path and agrees only to rounding."""
    doc = json.loads(text)
    if doc["schema"] != "v2":
        raise ValueError(f"not a v2 trace document: schema {doc['schema']!r}")
    heard = {}
    for slot in doc["slots"]:
        p = slot["active_antennas"]
        if p:
            plan = np.zeros((p, len(doc["symbol_table"])), dtype=np.complex128)
            for a, form in enumerate(slot["plan"]):
                for s, (re, im) in form["coeffs"].items():
                    plan[a, int(s)] = complex(re, im)
            h = np.array([[complex(re, im) for re, im in row]
                          for row in slot["channel"]], dtype=np.complex128)
            heard[slot["slot"]] = h[:, :p] @ plan
    doc["schema"] = "v1"
    return doc, heard


def v1_doc_from_v2(text: str) -> dict:
    """The schema-``v1`` document of the schema-``v2`` trace document
    ``text``, as nested dicts and lists: equation ``i`` of receiver ``r``
    is row ``r - 1`` of what was heard in slot ``equations[i]``, with the
    unit noise sample of its ``(slot, r)`` pair.  A plan's zero
    coefficients are not in the document and are rebuilt as ``+0``, so a
    heard coefficient's part that is an exact sum of zeros may differ in
    the sign of that zero."""
    doc, heard = _parse_v2(text)
    for rec in doc["receivers"]:
        r = rec["receiver"]
        rec["equations"] = [equation_dict(r, s, heard[s][r - 1])
                            for s in rec["equations"]]
    return doc


def _container(brackets: str, items, depth: int) -> str:
    """A JSON container of rendered ``items`` whose closing bracket is at
    nesting ``depth``, as ``json.dumps(..., indent=2)`` writes it."""
    if not items:
        return brackets
    nl = "\n" + "  " * depth
    return f'{brackets[0]}{nl}  {("," + nl + "  ").join(items)}{nl}{brackets[1]}'


#: Placeholder of each receiver's equations in the rest of the document.
_EQUATIONS = "equations rendered from templates"


def _equations(receiver: int, slots: list, rows) -> str:
    """Receiver ``receiver``'s ``v1`` equations, ``rows`` heard in
    ``slots``, rendered at their depth in the document from templates, as
    :func:`equation_dict` and ``json.dumps(doc, sort_keys=True, indent=2)``
    write them: nonzero coefficients keyed by symbol id in string order,
    parts spelled by json's float encoder."""
    n = rows.shape[1]
    order = sorted(range(n), key=str)
    rows = rows[:, order]
    at, col = np.nonzero(rows)
    vals = rows[at, col]
    parts = json.dumps(np.column_stack([vals.real, vals.imag]).ravel().tolist())
    parts = parts[1:-1].split(", ") if len(vals) else []
    keys = np.array([str(i) for i in order])
    args = [None] * (3 * len(col))
    args[0::3], args[1::3], args[2::3] = keys[col].tolist(), parts[0::2], parts[1::2]
    entry = '"%s": ' + _container("[]", ["%s", "%s"], 7)
    ends = np.cumsum(np.bincount(at, minlength=len(rows))).tolist()
    out = []
    for slot, a, b in zip(slots, [0] + ends, ends):
        noise = _container("{}", [f'"{slot}:{receiver}": '
                                  + _container("[]", ["1.0", "0.0"], 7)], 6)
        form = _container("{}", ['"coeffs": '
                                 + _container("{}", [entry] * (b - a), 6)
                                 % tuple(args[3 * a:3 * b]),
                                 '"noise": ' + noise], 5)
        out.append(_container("{}", ['"form": ' + form, '"noise_variance": 1.0',
                                     f'"receiver": {receiver}', f'"slot": {slot}'], 4))
    return _container("[]", out, 3)


def v1_from_v2(text: str) -> str:
    """``json.dumps(v1_doc_from_v2(text), sort_keys=True, indent=2)``: the
    schema-``v1`` text of the schema-``v2`` trace document ``text``.  The
    stdlib writes all but the equations, which are most of the text;
    they are rendered from templates (:func:`_equations`), a receiver at
    a time, and spliced in."""
    doc, heard = _parse_v2(text)
    lists, n = [], len(doc["symbol_table"])
    for rec in doc["receivers"]:
        r, slots = rec["receiver"], rec["equations"]
        rows = np.array([heard[s][r - 1] for s in slots]).reshape(len(slots), n)
        lists.append(_equations(r, slots, rows))
        rec["equations"] = _EQUATIONS
    head, *rest = json.dumps(doc, sort_keys=True, indent=2).split(json.dumps(_EQUATIONS))
    if len(rest) != len(lists):
        raise ValueError("the placeholder of the equations is in the document")
    return head + "".join(a + b for a, b in zip(lists, rest))


def complex_normals(rng, draws) -> dict:
    """Many ``rng.complex_normal`` draws from one generator call.

    ``draws`` lists ``(key, shape)`` pairs in the order the draws would be
    made one at a time, each shape an int or a tuple; one key has one
    shape.  Returns each key's draws stacked in order, ``(count,
    *shape)``, bit for bit as consecutive ``complex_normal(shape)`` calls:
    a draw takes ``2 * size`` consecutive ``normal_parts``, the real parts
    first.
    """
    starts, shapes, total = {}, {}, 0
    for key, shape in draws:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if shapes.setdefault(key, shape) != shape:
            raise ValueError(
                f"draws under key {key!r} have shapes {shapes[key]} and {shape}")
        starts.setdefault(key, []).append(total)
        total += 2 * math.prod(shape)
    parts, out = rng.normal_parts(total), {}
    for key, first in starts.items():
        size = math.prod(shapes[key])
        re = np.add.outer(np.array(first, dtype=np.intp), np.arange(size))
        pairs = parts[np.stack([re, re + size], axis=-1)]
        out[key] = pairs.view(np.complex128).reshape(len(first), *shapes[key])
    return out


def unpadded_draw(rng, layout, k: int, m: int) -> dict:
    """The draws of ``layout`` made as ``AirLog.draw`` makes them, from
    one generator call, but with no padding: each key's squares are
    factored as one stack of their own size by ``haar_unitaries``, and
    each channel is a ``k x m`` draw."""
    drawn = complex_normals(rng, [(key, (k, m) if key == "channel" else (n, n))
                                  for key, n in layout])
    return {key: z if key == "channel" else haar_unitaries(z) for key, z in drawn.items()}


def draw_losses(got: dict, want: dict) -> list:
    """The keys whose stacks differ between two draws in shape or in any
    bit, each with a message; ``[]`` when the draws agree."""
    losses = [(key, "missing") for key in want.keys() ^ got.keys()]
    for key in want.keys() & got.keys():
        a, b = np.ascontiguousarray(got[key]), np.ascontiguousarray(want[key])
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            losses.append((key, f"the padded QR changed bits of {b.shape} stack "
                                "(the BLAS does not keep [[Z, 0], [0, I]]'s "
                                "leading block as Z's own)"))
    return losses


def rates(gains, snrs, slots) -> np.ndarray:
    """Per-slot rate at every SNR in ``snrs`` from one receiver's gains."""
    return np.log1p(np.outer(snrs, gains)).sum(axis=1) / (math.log(2.0) * slots)


def trial_matrix(builder, stream, snrs):
    """Rates of one trial: row per SNR, column per receiver, each from
    that receiver's own gains."""
    trace = builder(stream)
    return np.column_stack([rates(gains, snrs, trace.total_slots)
                            for gains in receiver_gains(trace)])


def per_trial_rates(builder, snr_grid_db, trials: int, rng) -> list:
    """``simulate_rates`` a trial and a receiver at a time: every trial's
    rates from :func:`trial_matrix`, stacked, then averaged per SNR
    point."""
    grid = list(snr_grid_db)
    snrs = [10.0 ** (db / 10.0) for db in grid]
    results = np.stack([trial_matrix(builder, rng.split(t), snrs)
                        for t in range(trials)])
    points = []
    for gi, db in enumerate(grid):
        per = results[:, gi, :].mean(axis=0)
        sums = results[:, gi, :].sum(axis=1)
        stderr = float(sums.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        points.append(RatePoint(snr_db=float(db), sum_rate=float(per.sum()),
                                per_receiver=tuple(float(x) for x in per),
                                trials=trials, stderr=stderr))
    return points
