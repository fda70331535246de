"""The benchmark's traced layers still match what its workloads call.

A traced benchmark pass stops when a layer of `perfbench/layers.py` that
the program still defines records no call on a workload in its `expect`,
or a call on one in its `absent`.  This test runs each workload's commands
on one small grid point, in a fresh interpreter under `sys.setprofile`,
and asserts the same contract, so a refactor that moves work out of a
traced layer is caught here and not first by the benchmark.  It also pins
the targets the program no longer defines, which a traced run reports as
0, so deleting or renaming a traced function fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402

# Counts the calls into each target function while the commands run, and
# prints which targets the program defines, the "module:qualname" of those it
# does not, and the counts, as JSON.
CHILD = r"""
import contextlib, importlib, inspect, io, json, sys
from collections import Counter
from bc2mvop import cli

spec = json.loads(sys.argv[1])
codes = {}
missing = []
for label, module, qualname in spec["targets"]:
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    code = getattr(inspect.unwrap(getattr(owner, "__func__", owner)),
                   "__code__", None)
    if code is not None:
        codes[code] = label
    else:
        missing.append(f"{module}:{qualname}")
calls = Counter()

def profile(frame, event, arg):
    if event == "call" and frame.f_code in codes:
        calls[codes[frame.f_code]] += 1

exits = []
for argv in spec["argvs"]:
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            exits.append(cli.main(argv))
        finally:
            sys.setprofile(None)
print(json.dumps({"defined": sorted(set(codes.values())), "missing": missing,
                  "calls": calls, "exits": exits}))
"""


# The traced targets the program no longer defines, which a traced run
# reports as 0.  A refactor that deletes or renames another traced function
# must change `perfbench/layers.py` with the benchmark, or list it here.
UNRESOLVED = {
    *(f"bc2mvop.matrices:{q}" for q in ("solve_exact", "_eliminate",
                                       "nullspace_dim")),
    *(f"bc2mvop.poly:RationalFn.{q}" for q in (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__", "reciprocal", "as_poly",
        "evaluate")),
    "bc2mvop.poly:MultiPoly.divide_exact",
}


def run_child(argvs: list[list[str]]) -> dict:
    """Run CHILD on the commands with every traced target; its JSON."""
    spec = {"argvs": argvs,
            "targets": [(layer.label, layer.module, q)
                        for layer in layers.LAYERS for q in layer.qualnames]}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(spec)],
                          cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_unresolved_traced_targets_are_exactly_the_known_ones():
    got = run_child([])["missing"]
    assert len(got) == len(set(got)) == 16
    assert set(got) == UNRESOLVED


def small_point(call: "run.Call") -> list[str]:
    """The call's command at its smallest m and b, and its smallest a >= 1
    (a = 0 has 1x1 matrices and skips the indecomposability checks)."""
    a = min([x for x in call.a if x >= 1] or call.a)
    return ["verify", call.suite, "--m", str(min(call.m)), "--a", str(a),
            "--b", str(min(call.b)), *call.extra]


@pytest.mark.parametrize("workload", layers.ALL)
def test_traced_layers_are_called_where_the_benchmark_expects(workload):
    argvs = [small_point(c) for c in run.WORKLOADS[workload]]
    got = run_child(argvs)
    assert got["exits"] == [0] * len(argvs)
    for layer in layers.LAYERS:
        if layer.label not in got["defined"]:
            continue
        calls = got["calls"].get(layer.label, 0)
        if workload in layer.expect:
            assert calls, f"{layer.label} records no calls on {workload}"
        if workload in layer.absent:
            assert not calls, f"{layer.label} records {calls} calls on {workload}"
