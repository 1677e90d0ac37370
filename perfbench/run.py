"""Benchmark of the delayedcsit package: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1

``--trace 0`` repeats rounds of the workload for ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` alternates an untraced and
a traced replay of round 0 for ``--seconds`` seconds and reports the
per-layer metrics.  The package is imported from ``src/`` of the
checkout, never from elsewhere.  The last line of standard output is the
JSON result; the lines before it are for people.  See
``perfbench/README.md``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS/OpenMP thread: faster than the default on this package's small
# matrices, and steadier on a shared machine.  Set before numpy loads, and
# inherited by every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread variables are set)

from speed import (NOMINAL_NUMPY_MS, NOMINAL_PYTHON_MS, Sampler,  # noqa: E402
                   numpy_kernel)
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SAMPLE_PERIOD_S = 0.05
SETUP_SAMPLES = 7
SETUP_SAMPLE_PERIOD_S = 0.01
# Capped at p99: at p99.9 the exact workload's microsecond queries measure
# timer and interrupt jitter more than the package.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0)

# Set-up as a user pays it: a fresh interpreter imports numpy and the
# package and makes a first small call into each layer.  The probe samples
# host speed like the main process, with the Python kernel only.
_SETUP_PROBE = r"""
import json, sys
sys.path.insert(0, sys.argv[2])
from speed import Sampler
with Sampler(0.0, float(sys.argv[4])) as sampler:
    t0 = sampler.clock()
    sys.path.insert(0, sys.argv[1])
    import numpy
    import delayedcsit
    if not delayedcsit.__file__.startswith(sys.argv[1]):
        sys.exit(f"delayedcsit imported from {delayedcsit.__file__}")
    from delayedcsit import DofQuery, RngStream, in_region, nonsquare_recursion
    from delayedcsit import run_square_scheme
    run_square_scheme(2, RngStream(int(sys.argv[3]))).decode_ok()
    nonsquare_recursion(DofQuery(2, 3, 1))
    in_region((0.5, 0.5))
    elapsed = sampler.clock() - t0
    speed = sampler.speed_since(0)[0]
print(json.dumps({"raw_s": elapsed, "speed": speed}))
"""


def fix_mmap_threshold():
    """Fix glibc's mmap threshold at its default of 128 KiB.

    glibc raises the threshold each time a large block is freed, so where
    a later large block lands, and with it the peak RSS, depended on the
    order of earlier frees: the frontier's peak was 163 or 171 MB from run
    to run.  A fixed threshold keeps every large block in its own mapping.
    Returns whether the setting took (it does not on a non-glibc libc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(-3, 128 * 1024))  # -3 is M_MMAP_THRESHOLD


def measure_setup(seed):
    """Set-up seconds at nominal speed, one per fresh interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE),
             str(seed + i), str(SETUP_SAMPLE_PERIOD_S)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout))
    return samples


def machine_info(mmap_threshold_fixed):
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {key: deps.get("blas", {}).get(key) for key in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "mmap_threshold_fixed": mmap_threshold_fixed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "sampler": {"period_s": SAMPLE_PERIOD_S,
                    "nominal_python_ms": NOMINAL_PYTHON_MS,
                    "nominal_numpy_ms": NOMINAL_NUMPY_MS},
    }


def tail_percentile(ops_per_round):
    """The highest percentile on the ladder with at least ten of a round's
    ops beyond it.  A workload's ops per round are fixed, so its
    percentile is too.  A round under 40 ops has no such percentile; the
    median stands in, so the metric exists everywhere without reporting
    the noise of a maximum as a tail."""
    for p in TAIL_LADDER:
        if ops_per_round * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def play(wl, sampler, r, tracer=None):
    from workloads import Round

    rd = Round(sampler)
    wl.run_round(rd, r, tracer=tracer)
    rd.finish()
    return rd


def run_timed(wl, sampler, seconds):
    """End-to-end run: fresh rounds until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(play(wl, sampler, len(rounds)))
    return rounds


def end_to_end(rounds, setup, rss):
    """Gated metrics, and the raw times they are derived from.

    A round's times are multiplied by its mean host speed, and each op's
    latency by the mean host speed around the op; a metric is the median
    of its per-round values (see README, "Noise").
    """
    p = tail_percentile(len(rounds[0].op_ms))
    per_round = {"wall_s": [], "cpu_s": [], "op_ms_p50": [], "op_ms_tail": []}
    for rd in rounds:
        ops = numpy.frombuffer(rd.op_ms) * numpy.array(rd.op_speed)
        wall_speed, cpu_speed = rd.speed
        per_round["wall_s"].append(rd.wall_s * wall_speed)
        per_round["cpu_s"].append(rd.cpu_s * cpu_speed)
        per_round["op_ms_p50"].append(float(numpy.median(ops)))
        per_round["op_ms_tail"].append(float(numpy.percentile(ops, p)))
    metrics = {"setup_s": {
        "value": statistics.median(s["raw_s"] * s["speed"] for s in setup),
        "unit": "s"}}
    metrics.update((name, {"value": statistics.median(values),
                           "unit": "ms" if "_ms" in name else "s"})
                   for name, values in per_round.items())
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    ops = numpy.concatenate([numpy.frombuffer(rd.op_ms) for rd in rounds])
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setup),
        "wall_s": statistics.median(rd.wall_s for rd in rounds),
        "cpu_s": statistics.median(rd.cpu_s for rd in rounds),
        "op_ms_p50": float(numpy.median(ops)),
        "op_ms_tail": float(numpy.percentile(ops, p)),
    }
    tail = {"percentile": p, "ops_per_round": len(rounds[0].op_ms),
            "samples": len(ops)}
    return metrics, raw, tail


def run_traced(wl, sampler, seconds):
    """Untraced and traced replays of round 0 until ``seconds`` have passed.

    A first replay, not counted, lets lazy set-up finish: the frontier's
    first round ran about 8% slower than the rest.
    """
    untraced, traced, layers = [], [], []
    skipped = []
    start = time.perf_counter()
    play(wl, sampler, 0)
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(play(wl, sampler, 0))
        with Tracer(clock=sampler.clock) as tracer:
            rd = play(wl, sampler, 0, tracer=tracer)
        traced.append(rd)
        layers.append(tracer.layer_metrics(scale=rd.speed[0]))
        skipped = tracer.skipped
    metrics = {}
    for name, (_, unit) in layers[0].items():
        # counts repeat exactly; median_low keeps them whole numbers
        pick = statistics.median if unit == "ms" else statistics.median_low
        metrics[name] = {"value": pick(m[name][0] for m in layers), "unit": unit}
    base = statistics.median(rd.wall_s * rd.speed[0] for rd in untraced)
    with_trace = statistics.median(rd.wall_s * rd.speed[0] for rd in traced)
    metrics["trace.overhead_share"] = {"value": with_trace / base - 1.0,
                                       "unit": "share"}
    return untraced + traced, metrics, skipped


def run_workload(name, args, setup, machine, workdir):
    from workloads import WORKLOADS  # needs src/ on sys.path first

    wl = WORKLOADS[name](args.seed, workdir)
    wl.warm_up()
    skipped = []
    raw = {}
    with Sampler(wl.NUMPY_SHARE, SAMPLE_PERIOD_S, numpy_kernel()) as sampler:
        if args.trace:
            rounds, metrics, skipped = run_traced(wl, sampler, args.seconds)
        else:
            rounds = run_timed(wl, sampler, args.seconds)
    if not args.trace:
        metrics, raw, tail = end_to_end(rounds, setup, peak_rss_mb())
    attempted = sum(rd.attempted for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "ops_failed_share": failed / attempted,
        "setup_samples": setup, "machine": machine,
        "numpy_share": wl.NUMPY_SHARE,
        "speed_samples": sampler.mark(),
        "sizes": rounds[0].detail,
        "round_wall_s": [rd.wall_s for rd in rounds],
        "round_cpu_s": [rd.cpu_s for rd in rounds],
        "round_speed": [rd.speed[0] for rd in rounds],
        "round_kernel_speeds": [rd.kernel_speeds for rd in rounds],
        "failures": [f for rd in rounds for f in rd.failures][:5],
    }
    if not args.trace:
        detail["tail"] = tail
        if name == "frontier":
            for job in ("square6_s", "m2k4_s"):
                raw[job] = statistics.median(rd.detail[job] for rd in rounds)
                detail[job] = statistics.median(rd.detail[job] * rd.speed[0]
                                                for rd in rounds)
        detail["raw_median"] = raw
    if name == "frontier":
        detail["fingerprints"] = sorted({rd.detail["fingerprint"] for rd in rounds})
    if skipped:
        detail["skipped_probes"] = skipped

    print(f"perfbench {name}: seed {args.seed}, {len(rounds)} rounds, "
          f"trace {args.trace}")
    for key, m in metrics.items():
        print(f"  {key:<24} {m['value']:.6g} {m['unit']}")
    if not args.trace and name == "frontier":
        for job in ("square6_s", "m2k4_s"):
            print(f"  {job:<24} {detail[job]:.6g} s")
    print(f"  {'ops_failed_share':<24} {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for key, value in raw.items():
        unit = "ms" if "_ms" in key else "s"
        print(f"  {key:<24} {value:.6g} {unit} (raw clock, not scaled to "
              f"nominal speed)")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "frontier", "ratesim", "exact", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "delayedcsit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no delayedcsit package under {SRC}")
    mmap_threshold_fixed = fix_mmap_threshold()
    setup = measure_setup(args.seed)
    sys.path.insert(0, str(SRC))
    import delayedcsit

    if not delayedcsit.__file__.startswith(str(SRC)):
        sys.exit(f"perfbench: delayedcsit imported from {delayedcsit.__file__}")
    machine = machine_info(mmap_threshold_fixed)
    names = (("verify", "frontier", "ratesim", "exact")
             if args.workload == "all" else (args.workload,))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in names:
            run_workload(name, args, setup, machine, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
