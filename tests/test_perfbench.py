"""The benchmark's workloads still run against the package.

``perfbench/`` calls into ``delayedcsit`` by name and by position, for
example ``schemes._run_chain("nonsquare", 2, 4, 1, rng)`` and
``simulate_rates(builder, grid, trials, master, None)``.  One round of
``verify`` and of ``ratesim`` is played here with a stub clock, so a
change to the package that breaks the benchmark fails tier-1.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from delayedcsit.numerics import RngStream

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_frontier_chain_entry_point(workloads):
    trace, decoded = workloads.Frontier._chain(2, 3, RngStream(7))
    assert decoded and trace.total_slots == 17
