"""The four benchmark workloads.

Every workload is a closed loop: one caller, and each operation starts
when the previous one has returned.  A workload runs in *rounds*; round
``r`` of seed ``s`` always builds the same inputs, derived arithmetically
from ``(s, r)``, so a round can be replayed exactly.  Only calls into
delayedcsit are timed.  The benchmark's own input generation and output
checks run outside the timers.

Expected values are computed here from first principles
(``k / H_k`` and the like) wherever that is cheap, so a check does not
trust the code it checks.

``NUMPY_SHARE`` is the weight of the numpy kernel in a workload's
host-speed reading (``speed.py``): the mix whose speed-scaled round times
varied least on the machine the benchmark was written on (README,
"Noise").
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from delayedcsit import cli, dof_calc, ratesim, region, schemes
from delayedcsit.numerics import RngStream


# An op's host speed is the mean of the samples taken from this long
# before it starts to this long after it ends.
OP_WINDOW_S = 0.25


@dataclass
class Round:
    """Timings and checks of one round.

    Times are read from the sampler's clocks, which leave out the time
    the sampler spends measuring host speed (see ``speed.py``).
    """

    sampler: object
    op_ms: array = field(default_factory=lambda: array("d"))
    op_start: array = field(default_factory=lambda: array("d"))
    op_end: array = field(default_factory=lambda: array("d"))
    op_speed: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    last_end: float = 0.0
    speed: tuple = (1.0, 1.0)
    kernel_speeds: tuple = (1.0, 1.0)

    def __post_init__(self):
        self._mark = self.sampler.mark()

    def now(self):
        return self.sampler.clock()

    def timed(self, fn, *args, op=True, **kwargs):
        """Call ``fn``, add its wall and CPU time; record an op if ``op``."""
        c0 = self.sampler.cpu_clock()
        t0 = self.sampler.clock()
        result = fn(*args, **kwargs)
        t1 = self.sampler.clock()
        c1 = self.sampler.cpu_clock()
        self.wall_s += t1 - t0
        self.cpu_s += c1 - c0
        self.last_end = t1
        if op:
            self.op((t1 - t0) * 1e3, t0, t1)
        return result

    def op(self, ms, start, end):
        """Record an op of ``ms`` milliseconds that ran from ``start`` to
        ``end`` on the sampler's clock."""
        self.op_ms.append(ms)
        self.op_start.append(start)
        self.op_end.append(end)

    def finish(self):
        """Read the host speed: ``speed`` is the round's mean on the wall
        and CPU clocks, ``kernel_speeds`` its mean per kernel on the wall
        clock, and ``op_speed`` the mean near each op (``OP_WINDOW_S``)."""
        self.speed = self.sampler.speed_since(self._mark)
        self.kernel_speeds = self.sampler.kernel_speeds(self._mark)
        self.op_speed = self.sampler.window_speeds(
            zip(self.op_start, self.op_end), OP_WINDOW_S)

    def check(self, ok, ops, describe):
        """Count ``ops`` attempted ops, all failed unless ``ok``.

        ``describe`` returns the failure message; it is called only on
        failure.
        """
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.failures) < 5:
                self.failures.append(describe())


def harmonic(k):
    return sum(Fraction(1, i) for i in range(1, k + 1))


def trace_sizes(trace):
    equations = sum(len(getattr(st, "equations", ()))
                    for st in getattr(trace, "states", ()))
    return {"symbols": trace.symbols_delivered, "slots": trace.total_slots,
            "equations": equations}


class Verify:
    """Seeded traces of the five small schemes, built and decode-checked.

    One op is one trace built plus ``decode_ok()``.  Trial ``t`` of scheme
    position ``p`` in round ``r`` uses stream index
    ``(r * 5 + p) * TRIALS + t`` under the run's seed.
    """

    TRIALS = 40
    NUMPY_SHARE = 1.0
    SCHEMES = (
        ("square-2", lambda s: schemes.run_square_scheme(2, s), 2 / harmonic(2)),
        ("square-3", lambda s: schemes.run_square_scheme(3, s), 3 / harmonic(3)),
        ("alt22", lambda s: schemes.run_alt22(s), Fraction(4, 3)),
        ("mat23_suboptimal", lambda s: schemes.run_mat23_suboptimal(s),
         Fraction(24, 17)),
        ("opt23", lambda s: schemes.run_opt23(s), Fraction(3, 2)),
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def warm_up(self):
        for _, build, _ in self.SCHEMES:
            build(RngStream(self.seed, 0)).decode_ok()

    def run_round(self, rd, r, tracer=None):
        for pos, (label, build, expected) in enumerate(self.SCHEMES):
            base = (r * len(self.SCHEMES) + pos) * self.TRIALS
            for t in range(self.TRIALS):
                stream = RngStream(self.seed, base + t)
                trace, ok = rd.timed(self._build_and_decode, build, stream)
                good = ok and trace.empirical_dof == expected
                rd.check(good, 1, lambda: f"{label} stream {base + t}: "
                                          f"decode_ok={ok} dof={trace.empirical_dof}")
            rd.detail[label] = trace_sizes(trace)

    @staticmethod
    def _build_and_decode(build, stream):
        trace = build(stream)
        return trace, trace.decode_ok()


_PROBE_JSON = r"""
import json, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
print(json.dumps({
    "decode_ok": doc["decode_ok"], "dof": doc["dof"],
    "expected_dof": doc["expected_dof"], "symbols": doc["symbols"],
    "slots": doc["total_slots"],
    "equations": sum(len(r["equations"]) for r in doc["receivers"]),
}))
"""


class Frontier:
    """The executable frontier: square ``k = 6`` through the CLI, then the
    antenna-limited ``(m, k) = (2, 4)`` chain.

    One op is one round: both jobs.  The CLI writes its 17.7 MB JSON into
    the benchmark's scratch directory.  The document is parsed in a child
    process, so the parse does not raise this process's peak RSS.  The
    ``(2, 4)`` chain has no public entry point, so it is run through the
    private chain runner ``schemes._run_chain``.
    """

    K = 6
    CHAIN = (2, 4)
    NUMPY_SHARE = 0.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, "square6.json")

    def warm_up(self):
        self.square_dof = dof_calc.nonsquare_recursion(
            dof_calc.DofQuery(self.K, self.K, 1))
        m, k = self.CHAIN
        self.chain_dof = dof_calc.nonsquare_recursion(dof_calc.DofQuery(m, k, 1))
        cli.main(["scheme-run", "--scheme", "square", "--k", "2",
                  "--seed", str(self.seed), "--out", self.out])
        schemes._run_chain("nonsquare", 2, 3, 1, RngStream(self.seed, 0)).decode_ok()

    def run_round(self, rd, r, tracer=None):
        cli_seed = self.seed * 10_000 + r
        argv = ["scheme-run", "--scheme", "square", "--k", str(self.K),
                "--seed", str(cli_seed), "--out", self.out]
        start = rd.now()
        code = rd.timed(cli.main, argv, op=False)
        square6_s = rd.wall_s
        doc = self._read_document(code)
        want = f"{self.square_dof.numerator}/{self.square_dof.denominator}"
        ok = (code == 0 and doc.get("decode_ok") is True
              and doc.get("dof") == want and doc.get("expected_dof") == want)
        rd.check(ok, 1,
                 lambda: f"square-{self.K} seed {cli_seed}: exit={code} {doc}")

        m, k = self.CHAIN
        w0 = rd.wall_s
        trace, decoded = rd.timed(self._chain, m, k,
                                  RngStream(self.seed, r), op=False)
        m2k4_s = rd.wall_s - w0
        ok = decoded and trace.empirical_dof == self.chain_dof
        rd.check(ok, 1, lambda: f"({m}, {k}) stream {r}: decode_ok={decoded} "
                                f"dof={trace.empirical_dof}")
        rd.op(rd.wall_s * 1e3, start, rd.last_end)
        if tracer is not None:
            tracer.count("cli.bytes_out", doc.get("bytes", 0))
        rd.detail = {
            "square6_s": square6_s, "m2k4_s": m2k4_s,
            f"square-{self.K}": {key: doc.get(key) for key in
                                 ("symbols", "slots", "equations", "bytes")},
            f"chain-{m}x{k}": trace_sizes(trace),
            "fingerprint": doc.get("sha256"),
        }

    @staticmethod
    def _chain(m, k, stream):
        trace = schemes._run_chain("nonsquare", m, k, 1, stream)
        return trace, trace.decode_ok()

    def _read_document(self, code):
        if code != 0 or not os.path.exists(self.out):
            return {}
        digest = hashlib.sha256()
        with open(self.out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        done = subprocess.run([sys.executable, "-c", _PROBE_JSON, self.out],
                              capture_output=True, text=True, timeout=120)
        doc = json.loads(done.stdout) if done.returncode == 0 else {}
        doc["bytes"] = os.path.getsize(self.out)
        doc["sha256"] = digest.hexdigest()
        os.remove(self.out)
        return doc


class RateSim:
    """Monte Carlo rates of square ``k = 3`` and ``k = 4``, then the slope fit.

    One op is one trial: the time between consecutive calls of the
    builder that ``simulate_rates`` makes, the last trial ending when
    ``simulate_rates`` returns.  Square-3 runs on the 40:60:5 dB grid of
    acceptance criterion 6.  Square-4 runs on 60:80:5 dB: at 40-60 dB its
    fitted slope is about 6% below ``48/25`` on every seed tried, a
    finite-SNR bias that more trials do not remove.  The master seed of
    position ``p`` in round ``r`` is ``seed * 10000 + 2 r + p``; trial
    ``t`` then uses stream ``t`` of that seed.
    """

    RUNS = ((3, 100, (40.0, 60.0, 5.0)), (4, 40, (60.0, 80.0, 5.0)))
    TOLERANCE = 0.05
    NUMPY_SHARE = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed

    def warm_up(self):
        grid = ratesim.snr_grid(40.0, 60.0, 5.0)
        points = ratesim.simulate_rates(
            lambda s: schemes.run_square_scheme(2, s), grid, 3,
            RngStream(self.seed))
        ratesim.fit_dof_slope(points, (40.0, 60.0))

    def run_round(self, rd, r, tracer=None):
        for pos, (k, trials, (lo, hi, step)) in enumerate(self.RUNS):
            grid = ratesim.snr_grid(lo, hi, step)
            master = RngStream(self.seed * 10_000 + 2 * r + pos)
            starts = []

            def builder(stream, k=k, starts=starts):
                starts.append(rd.now())
                return schemes.run_square_scheme(k, stream)

            points = rd.timed(ratesim.simulate_rates, builder,
                              grid, trials, master, None, op=False)
            bounds = starts[-trials:] + [rd.last_end]
            for a, b in zip(bounds, bounds[1:]):
                rd.op((b - a) * 1e3, a, b)
            fit = rd.timed(ratesim.fit_dof_slope, points, (lo, hi),
                           op=False)
            target = k / harmonic(k)
            rel = abs(fit.slope - float(target)) / float(target)
            sums_ok = all(math.isclose(p.sum_rate, math.fsum(p.per_receiver),
                                       rel_tol=0.0, abs_tol=1e-9)
                          for p in points)
            rd.check(rel <= self.TOLERANCE and sums_ok, trials,
                     lambda: f"square-{k} seed {master.seed}: slope "
                             f"{fit.slope:.4f} vs {float(target):.4f} "
                             f"({100 * rel:.2f}%), sums_ok={sums_ok}")
            rd.detail[f"square-{k}"] = {"slope": fit.slope,
                                        "grid_db": [lo, hi, step],
                                        "trials": trials}


class Exact:
    """Exact-rational queries on ``region`` and ``dof_calc``.

    Region part: per ``k = 1..6``, the symmetric corner plus ``POINTS``
    random points ``randint(0, 1500) / 1000 / H_k`` per coordinate (as in
    acceptance criterion 7), each queried with ``in_region`` sorted and
    exhaustive, ``tight_permutations`` and ``decompose_time_sharing``.
    Grid part: every ``(m, k, j)`` with ``k <= 30``, queried with
    ``nonsquare_recursion``, ``dof_upper`` and, in the antenna-limited
    regime, ``nonsquare_closed_form``; plus ``identity_check(k, j)``.
    One op is one query.  The recursion's memo cache is cleared before
    each round, so every round pays what a fresh process pays.
    """

    POINTS = 500
    MAX_K_REGION = 6
    MAX_K_GRID = 30
    NUMPY_SHARE = 0.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.grid = [(m, k, j) for k in range(1, self.MAX_K_GRID + 1)
                     for j in range(1, k + 1) for m in range(1, k + 1)]

    def warm_up(self):
        for k in range(1, self.MAX_K_REGION + 1):
            pt = (Fraction(1, 2),) * k
            region.in_region(pt, mode="exhaustive")
            region.tight_permutations(pt)

    def _points(self, r):
        rnd = random.Random(self.seed * 10_000 + r)
        for k in range(1, self.MAX_K_REGION + 1):
            h = harmonic(k)
            yield (1 / h,) * k
            for _ in range(self.POINTS):
                yield tuple(Fraction(rnd.randint(0, 1500), 1000) / h
                            for _ in range(k))

    def run_round(self, rd, r, tracer=None):
        points = list(self._points(r))
        for pt in points:
            k = len(pt)
            sorted_in = rd.timed(region.in_region, pt, "sorted")
            exhaustive_in = rd.timed(region.in_region, pt,
                                     "exhaustive")
            tight = rd.timed(region.tight_permutations, pt)
            parts = rd.timed(region.decompose_time_sharing, pt)
            rd.check(self._region_ok(pt, sorted_in, exhaustive_in, tight, parts),
                     4, lambda: f"region point {pt}")
        clear = getattr(getattr(dof_calc, "_recursion_level", None),
                        "cache_clear", None)
        if clear is not None:
            clear()
        queries = [dof_calc.DofQuery(m, k, j) for m, k, j in self.grid]
        for q in queries:
            if q.m == 1:
                lhs, rhs = rd.timed(dof_calc.identity_check,
                                    q.k, q.j)
                rd.check(lhs == rhs, 1, lambda: f"identity k={q.k} j={q.j}")
            rec = rd.timed(dof_calc.nonsquare_recursion, q)
            upper = rd.timed(dof_calc.dof_upper, q)
            if q.square_regime:
                rd.check(rec == upper, 2,
                         lambda: f"{q}: recursion {rec} != upper {upper}")
            else:
                closed = rd.timed(dof_calc.nonsquare_closed_form, q)
                rd.check(closed == rec and rec <= upper, 3,
                         lambda: f"{q}: closed {closed}, recursion {rec}, "
                                 f"upper {upper}")
        rd.detail = {"region_points": len(points), "grid_queries": len(queries)}

    @staticmethod
    def _region_ok(pt, sorted_in, exhaustive_in, tight, parts):
        k = len(pt)
        ranked = sorted(pt, reverse=True)
        value = sum(x / i for i, x in enumerate(ranked, start=1))
        member = value <= 1
        if sorted_in != member or exhaustive_in != member:
            return False
        for perm in tight:
            if sum(pt[p - 1] / i for i, p in enumerate(perm, start=1)) != 1:
                return False
        if value == 1:
            order = tuple(sorted(range(1, k + 1), key=lambda p: -pt[p - 1]))
            if order not in tight:
                return False
            if len(set(pt)) == 1 and len(tight) != math.factorial(k):
                return False
        if not member:
            return parts is None
        if parts is None:
            return False
        coords = [Fraction(0)] * k
        for support, weight in parts:
            for p in support:
                coords[p - 1] += weight / harmonic(len(support))
        return tuple(coords) == pt


WORKLOADS = {"verify": Verify, "frontier": Frontier, "ratesim": RateSim,
             "exact": Exact}
