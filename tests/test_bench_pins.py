"""The benchmark's pinned outputs still match what the program prints.

`perfbench/run.py` scores every check of a workload as failed, and so its
`checks_ok_share` as 0, when a call's exit code, PASS/FAIL/REPORTED counts
or digest of its sorted stdout lines differ from the pins in `WORKLOADS`.
This test runs each workload's calls in-process, with the axes in one
seeded order, and asserts the same three facts, so a change to pinned
output is caught here and not first by the benchmark.
"""

import random
import sys
from pathlib import Path

import pytest

from bc2mvop import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_output_matches_its_pins(workload, capsys):
    rng = random.Random(1)
    for call in run.WORKLOADS[workload]:
        argv = call.argv(rng)
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert run.counts(out) == call.checks, argv
        assert run.digest(out) == call.digest, argv
