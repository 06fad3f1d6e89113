"""Round 0 of each benchmark workload passes the workload's own check.

``perfbench/workloads.py`` is imported from its directory without writing
bytecode there, and each workload makes its inputs for one seed, runs its
first round and checks the outputs, as a benchmark run does after its timed
rounds.  A wrong answer or a failed operation shows here before a benchmark
run reports it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 2401


@pytest.mark.parametrize("name", ["certify", "search-random", "search-greedy", "identities"])
def test_round_zero_passes_the_workload_check(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from speed import Speedometer
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[name]
    inputs = workload.prepare(SEED)
    ops = Ops(Speedometer())
    output = workload.run_round(inputs, 0, ops)
    assert (ops.failed, ops.errors) == (0, [])
    assert workload.check(inputs, [(0, output)], SEED) == []
