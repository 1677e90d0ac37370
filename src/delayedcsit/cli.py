"""Command-line front end: calculators, scheme runners, verifiers, sims.

Every command echoes the seed it used, renders rationals exactly as
``p/q``, and emits canonical JSON (sorted keys), written a piece at a
time as it is rendered (:func:`.schemes.json_pieces`), or a CSV projection.
The ``scheme-run`` trace document is ``"schema": "v3"``, compact, of what
was sent: it lists the slots each receiver heard, not the equations
(:meth:`.schemes.SchemeTrace.json_pieces`).  Every other document is
``"schema": "v1"`` (:data:`SCHEMA`), two-space indented.  Exit codes: 0 success, 1
verification failure, 2 usage error.  The default seed can be overridden
with the ``DELAYEDCSIT_SEED`` environment variable.
"""

import argparse
import csv
import io
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

from .dof_calc import (
    DofQuery,
    dof_upper,
    hockey_stick,
    identity_check,
    nonsquare_recursion,
)
from .numerics import RngStream
from .ratesim import fit_dof_slope, simulate_rates, snr_grid
from .region import decompose_time_sharing, in_region, iter_tight_permutations
from .schemes import (
    json_pieces,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_order_j_delivery,
    run_square_scheme,
    tdma_trace,
)

__all__ = ["main"]

DEFAULT_SEED = 12345
SCHEMA = "v1"

# One row per --scheme: the trace's name, its (m, k, j) with a flag name
# where the user gives the value, a builder of (m, k, j, rng) that looks its
# runner up when called, and the dof_calc function of its expected DoF.
_MAT23 = ("mat23_suboptimal", (2, 3, 1),
          lambda m, k, j, s: run_mat23_suboptimal(s), nonsquare_recursion)
SCHEMES = {
    "square": ("square", ("k", "k", 1),
               lambda m, k, j, s: run_square_scheme(k, s), nonsquare_recursion),
    "alt22": ("alt22", (2, 2, 1),
              lambda m, k, j, s: run_alt22(s), nonsquare_recursion),
    "mat23": _MAT23,
    "mat23_suboptimal": _MAT23,
    "opt23": ("opt23", (2, 3, 1), lambda m, k, j, s: run_opt23(s), dof_upper),
    "order": ("order_delivery", ("m", "k", "j"),
              lambda m, k, j, s: run_order_j_delivery(m, k, j, s),
              nonsquare_recursion),
    "tdma": ("tdma", (1, "k", 1),
             lambda m, k, j, s: tdma_trace(k, s), nonsquare_recursion),
}


def _rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DELAYEDCSIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"DELAYEDCSIT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cell(value):
    """One CSV cell: lists joined by ``;``, booleans lower case, None empty."""
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else value


def _runs(pieces):
    """``pieces`` joined into runs of 65,536 characters or more, the last
    one shorter: a write per run, not per piece."""
    run, length = [], 0
    for piece in pieces:
        run.append(piece)
        length += len(piece)
        if length >= 1 << 16:
            yield "".join(run)
            run, length = [], 0
    yield "".join(run)


def _require(flag_value, flag: str, command: str):
    if flag_value is None:
        raise ValueError(f"{command} requires {flag}")
    return flag_value


def _scheme_builder(args):
    """Resolve --scheme into (trace name, builder, expected DoF),
    refusing any --m, --k or --j below 1 or differing from the scheme's own."""
    name, dims, build, dof = SCHEMES[args.scheme]
    m, k, j = (_require(getattr(args, d), f"--{d}", f"--scheme {args.scheme}")
               if isinstance(d, str) else d for d in dims)
    for dim, own in zip("mkj", (m, k, j)):
        given = getattr(args, dim)
        if given is not None and given < 1:
            raise ValueError(f"--{dim} must be positive, got {given}")
        if given not in (None, own):
            raise ValueError(
                f"--scheme {args.scheme} runs --{dim} {own}, not {given}")
    return name, lambda s: build(m, k, j, s), dof(DofQuery(m, k, j))


def cmd_dof_table(args, seed):
    k = _require(args.k, "--k", "dof-table")
    if k < 1:
        raise ValueError(f"--k must be positive, got {k}")
    ms = [args.m] if args.m is not None else list(range(1, k + 1))
    js = [args.j] if args.j is not None else list(range(1, k + 1))
    rows = []
    for m in ms:
        for j in js:
            q = DofQuery(m, k, j)
            lower = nonsquare_recursion(q)
            upper = dof_upper(q)
            note = next((f"a better scheme is known: {key} achieves {_rat(dof(q))}"
                         for key, (_, dims, _, dof) in SCHEMES.items()
                         if dims == (m, k, j) and dof(q) > lower), "")
            rows.append({
                "m": m, "k": k, "j": j,
                "lower": _rat(lower), "upper": _rat(upper),
                "tight": lower == upper, "note": note,
            })
    return (0, {"rows": rows}, ["m", "k", "j", "lower", "upper", "tight", "note"],
            [list(r.values()) for r in rows])


def cmd_scheme_run(args, seed):
    name, builder, expected = _scheme_builder(args)
    trace = builder(RngStream(seed).split(0))
    ok = trace.decode_ok()
    extra = {"command": "scheme-run", "decode_ok": ok, "expected_dof": _rat(expected)}
    # the trace's text is most of a JSON run: a CSV run does not render it
    pieces = trace.json_pieces(extra) if args.format == "json" else None
    return (0, pieces,
            ["scheme", "m", "k", "symbols", "slots", "dof", "decode_ok", "seed"],
            [[name, trace.m, trace.k, trace.symbols_delivered,
              trace.total_slots, _rat(trace.empirical_dof), ok, seed]])


def cmd_scheme_verify(args, seed):
    name, builder, expected = _scheme_builder(args)
    trials = args.trials
    if trials < 1:
        raise ValueError(f"--trials must be positive, got {trials}")
    master = RngStream(seed)
    successes = 0
    dof_values = set()
    # decode margins, read off the decode check's own factorizations
    # (ratio: residual over the RANK_RTOL threshold)
    max_pass, min_fail, min_kept, max_dropped = -math.inf, math.inf, math.inf, 0.0
    for t in range(trials):
        trace = builder(master.split(t))
        ratios, kept, dropped = trace.decode_residuals()
        inside = ratios <= 1
        if inside.all():
            successes += 1
        max_pass = max(max_pass, ratios[inside].max(initial=-math.inf))
        min_fail = min(min_fail, ratios[~inside].min(initial=math.inf))
        min_kept = min(min_kept, kept.min())
        max_dropped = max(max_dropped, dropped.max())
        dof_values.add(trace.empirical_dof)
    margins = {name: float(x) if math.isfinite(x) else None for name, x in
               (("max_pass_ratio", max_pass), ("min_fail_ratio", min_fail),
                ("min_kept_ratio", min_kept), ("max_dropped_ratio", max_dropped))}
    rate = successes / trials
    dof_ok = dof_values == {expected}
    passed = rate >= 0.999 and dof_ok
    report = {
        "scheme": name, "trials": trials, "decode_successes": successes,
        "success_rate": rate,
        "empirical_dof": sorted(_rat(d) for d in dof_values),
        "expected_dof": _rat(expected), "dof_matches": dof_ok,
        **margins,
        "pass": passed,
    }
    return (0 if passed else 1, report,
            ["scheme", "trials", "decode_successes", "success_rate",
             "empirical_dof", "expected_dof", *margins, "pass", "seed"],
            [[name, trials, successes, rate, report["empirical_dof"],
              _rat(expected), *margins.values(), passed, seed]])


def _parse_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--snr must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--snr must be numeric lo:hi:step, got {text!r}") from None
    if not (0 <= lo <= hi <= 80):
        raise ValueError(f"--snr grid must lie within 0-80 dB, got {text!r}")
    # at most 0.01 dB steps across 0-80 dB, refused before any list is built
    if not 0 < step < math.inf or (hi - lo) / step > 8000:
        raise ValueError(f"--snr step must be positive, finite and give at most "
                         f"8001 points, got {text!r}")
    return snr_grid(lo, hi, step)


def cmd_rate_sim(args, seed):
    name, builder, expected = _scheme_builder(args)
    grid = _parse_grid(args.snr)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    master = RngStream(seed)
    points = simulate_rates(builder, grid, args.trials, master)
    window = (grid[0], grid[-1])
    slope_doc = None
    if len(grid) >= 3:
        fit = fit_dof_slope(points, window)
        half = 1.96 * fit.slope_stderr
        slope_doc = {
            "slope": fit.slope, "intercept": fit.intercept,
            "ci_low": fit.slope - half, "ci_high": fit.slope + half,
            "window_db": list(fit.window_db), "residual": fit.residual,
        }
    doc = {
        "scheme": name, "trials": args.trials,
        "expected_dof": _rat(expected),
        "points": [
            {"snr_db": p.snr_db, "sum_rate": p.sum_rate,
             "per_receiver": list(p.per_receiver),
             "stderr": p.stderr, "trials": p.trials}
            for p in points],
        "slope": slope_doc,
    }
    return (0, doc, ["snr_db", "scheme", "sum_rate", "stderr", "trials", "seed"],
            [[p.snr_db, name, p.sum_rate, p.stderr, p.trials, seed]
             for p in points])


def cmd_region_check(args, seed):
    try:
        point = [Fraction(tok) for tok in args.point.split(",") if tok.strip()]
    except ZeroDivisionError:
        raise ValueError(f"--point has a zero denominator: {args.point!r}") from None
    if not point:
        raise ValueError("--point needs at least one coordinate")
    if args.k is not None and args.k != len(point):
        raise ValueError(
            f"--k {args.k} does not match the {len(point)} coordinates given")
    member = in_region(point, mode="sorted")
    parts = decompose_time_sharing(point)
    # an interior point (weights summing below 1) has no tight ordering;
    # on or outside the boundary each comes with all reorderings of ties.
    # 9! of them take about 1 s to find and write as a 34 MB document
    # (2-core x86-64), and each further tie multiplies both
    interior = parts is not None and sum(w for _, w in parts) < 1
    orderings = math.prod(map(math.factorial, Counter(point).values()))
    if not interior and orderings > math.factorial(9):
        raise ValueError(
            f"the point's equal coordinates allow {orderings} tight orderings; "
            "region-check lists at most 9! = 362880")
    tight = iter_tight_permutations(point)
    decomposition = None
    if parts is not None:
        decomposition = [
            {"support": sorted(s), "weight": _rat(w)} for s, w in parts
        ]
    doc = {
        "k": len(point), "point": [_rat(x) for x in point],
        "in_region": member,
        "decomposition": decomposition,
    }
    header = ["point", "in_region", "tight_count", "decomposable", "seed"]
    if args.format == "csv":  # counts the orderings and renders none
        return 0, doc, header, [[doc["point"], member, sum(1 for _ in tight),
                                 parts is not None, seed]]
    # an ordering as json.dumps(..., indent=2) writes it at depth 2
    row = "[\n      " + ",\n      ".join(["%d"] * len(point)) + "\n    ]"
    # each ordering is written as the search finds it
    return 0, doc, header, None, {"tight_permutations": (row % p for p in tight)}


def _failures(check, names, cases):
    """The cases whose two sides differ, with the sides as ``p/q``."""
    failures = []
    for case in cases:
        lhs, rhs = check(*case)
        if lhs != rhs:
            failures.append(dict(zip(names, case), lhs=_rat(lhs), rhs=_rat(rhs)))
    return failures


def cmd_identity_check(args, seed):
    k_max = args.k if args.k is not None else 30
    if k_max < 1:
        raise ValueError(f"--k must be positive, got {k_max}")
    q_max = 40
    identity = [(k, j) for k in range(1, k_max + 1) for j in range(1, k + 1)]
    hockey = [(p, q) for q in range(q_max + 1) for p in range(q + 1)]
    identity_failures = _failures(identity_check, ("k", "j"), identity)
    hockey_failures = _failures(hockey_stick, ("p", "q"), hockey)
    passed = not identity_failures and not hockey_failures
    doc = {
        "identity_max_k": k_max, "identity_cases": len(identity),
        "identity_failures": identity_failures,
        "hockey_max_q": q_max, "hockey_cases": len(hockey),
        "hockey_failures": hockey_failures,
        "pass": passed,
    }
    return (0 if passed else 1, doc,
            ["identity_cases", "identity_failures", "hockey_cases",
             "hockey_failures", "pass", "seed"],
            [[len(identity), len(identity_failures), len(hockey),
              len(hockey_failures), passed, seed]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayedcsit",
        description=("DoF calculators, scheme runners, and finite-SNR "
                     "simulations for broadcast channels with delayed "
                     "transmitter CSI."))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (default: $DELAYEDCSIT_SEED or "
                             f"{DEFAULT_SEED})")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--m", type=int, default=None, help="transmit antennas")
    dims.add_argument("--k", type=int, default=None, help="receivers")
    dims.add_argument("--j", type=int, default=None, help="symbol order")
    receivers = argparse.ArgumentParser(add_help=False)
    receivers.add_argument("--k", type=int, default=None, help="receivers")
    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--scheme", required=True, choices=SCHEMES)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dof-table", parents=[common, dims],
                       help="lower/upper DoF bounds as exact rationals")
    p.set_defaults(func=cmd_dof_table)

    p = sub.add_parser("scheme-run", parents=[common, dims, scheme],
                       help="execute one seeded scheme trace")
    p.set_defaults(func=cmd_scheme_run)

    p = sub.add_parser("scheme-verify", parents=[common, dims, scheme],
                       help="decode/accounting verification over many trials")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_scheme_verify)

    p = sub.add_parser(
        "rate-sim", parents=[common, dims, scheme],
        help="Monte Carlo rate curve and DoF slope",
        description=("Monte Carlo sum-rate curve and its fitted DoF slope.  The sum "
                     "rate adds up every receiver's rate, so under --scheme order a "
                     "common symbol counts once per receiver that wants it, and the "
                     "fitted slope is j times expected_dof."))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--snr", default="40:60:5", metavar="LO:HI:STEP",
                   help="SNR grid in dB (default 40:60:5)")
    p.set_defaults(func=cmd_rate_sim)

    p = sub.add_parser("region-check", parents=[common, receivers],
                       help="region membership, tight constraints, witness")
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, e.g. 2/3,2/3")
    p.set_defaults(func=cmd_region_check)

    p = sub.add_parser("identity-check", parents=[common, receivers],
                       help="combinatorial identity sweeps")
    p.set_defaults(func=cmd_identity_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(args)
        code, doc, header, rows, *arrays = args.func(args, seed)
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerows(map(_cell, row) for row in [header, *rows])
            text = (buf.getvalue(),)
        else:  # the document's pieces as they are rendered, then its newline
            text = _runs(chain(json_pieces(
                {"schema": SCHEMA, "command": args.command, "seed": seed, **doc},
                *arrays) if isinstance(doc, dict) else doc, ["\n"]))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(text)
        else:
            sys.stdout.writelines(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
