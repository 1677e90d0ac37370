"""The benchmark's workloads still run against the package.

``perfbench/`` calls into ``delayedcsit`` by name and by position, for
example ``schemes._run_chain("nonsquare", 2, 4, 1, rng)`` and
``simulate_rates(builder, grid, trials, master, None)``, and its tracer
probes package functions by name.  One round of ``verify``, of
``ratesim`` and of ``frontier`` is played here with a stub clock, and one
``verify`` round under the tracer, so a change to the package that breaks
the benchmark fails tier-1.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from delayedcsit.numerics import RngStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Probe targets the package no longer defines; the tracer skips them,
#: and every other probe must still find its function.
DELETED_PROBES = [
    "schemes:SchemeTrace.to_dict", "ledger.transmit_slot", "ledger.combine",
    "ledger.random_combination",
    "ledger.noise_covariance", "ledger:ReceiverState.coefficient_matrix",
    "numerics.logdet_capacity", "numerics.haar_unitary", "numerics.sample_channel",
    "ratesim.receiver_rate", "dof_calc.dof_lower",
]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


class StubSampler:
    """The clocks of the benchmark's host-speed sampler, without sampling."""

    clock = staticmethod(time.perf_counter)
    cpu_clock = staticmethod(time.process_time)

    def mark(self):
        return 0


@pytest.mark.parametrize("name", ["verify", "ratesim"])
def test_workload_round_has_no_failed_ops(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    rd = workloads.Round(StubSampler())
    workload.run_round(rd, 0)
    assert rd.attempted > 0 and len(rd.op_ms) > 0
    assert (rd.failed, rd.failures) == (0, [])


def test_frontier_round_has_no_failed_ops(workloads, tmp_path):
    # square-6 through the CLI into the workload's directory, read back in
    # a child process, then the (2, 4) chain: seed 1, round 0 (CLI seed
    # 10000); a writer that streams a broken document fails the read
    workload = workloads.WORKLOADS["frontier"](1, str(tmp_path))
    workload.warm_up()
    rd = workloads.Round(StubSampler())
    workload.run_round(rd, 0)
    assert rd.attempted == 2 and len(rd.op_ms) == 1
    assert (rd.failed, rd.failures) == (0, [])
    assert rd.detail["square-6"]["bytes"] > 0


def test_frontier_chain_entry_point(workloads):
    trace, decoded = workloads.Frontier._chain(2, 3, RngStream(7))
    assert decoded and trace.total_slots == 17


def test_traced_verify_round_sees_the_decode_layer(workloads, tmp_path):
    # the tracer finds can_decode by name; it is called once per stacked
    # factorization, and each verify-mix trace is one stack
    tracing = _load("tracing")
    workload = workloads.WORKLOADS["verify"](7, str(tmp_path))
    rd = workloads.Round(StubSampler())
    with tracing.Tracer(time.perf_counter) as tracer:
        workload.run_round(rd, 0, tracer=tracer)
    assert (rd.failed, rd.failures) == (0, [])
    assert tracer.skipped == DELETED_PROBES
    metrics = tracer.layer_metrics(scale=1.0)
    assert metrics["ledger.decode_ms"][0] > 0
    assert metrics["ledger.decode_checks"][0] == rd.attempted == 200
    assert metrics["ledger.decode_failures"][0] == 0
