#!/usr/bin/env python3
"""Benchmark of the bc2mvop exact verifier: end to end, and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gram-deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each `bc2mvop verify` call runs in a fresh interpreter, with the package
taken from `src/` and `BC2MVOP_THREADS` removed from its environment.  A
fixed reference loop is timed before and after each call, and every 2 s
while the call's processes are stopped; times are reported in units of
it.  With `--trace 0` the workload is repeated until `--seconds` have
passed (at least once) and the end-to-end metrics are medians over those
passes.  With `--trace 1` one untraced and one traced pass run, and the per-layer
metrics come from the traced one.  Every call is checked against pinned
output.  The last line of stdout is one JSON object; see README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers
from traced_child import TRACE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The same code the installed `bc2mvop` console script runs.
ENTRY = "import sys; from bc2mvop.cli import main; sys.exit(main())"
SETUP = ("import bc2mvop.cli as cli; cli.build_parser(); "
         "print(cli.__file__, flush=True)")
SETUP_SAMPLES = 5  # before the passes, and again after them
CHILD_TIMEOUT_S = 170.0
PROBE_LOOPS = 40_000  # about 0.2 s
PROBE_EVERY_S = 2.0
POLL_S = 0.005

E2E = (
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("checks_ok_share", "ratio"),
)

_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) reported$")
_DEVIATION = re.compile(r"worst relative deviation ([0-9.eE+-]+)")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Call:
    """One `bc2mvop verify` process of a workload, with its pinned output."""
    suite: str
    m: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    extra: tuple[str, ...]
    checks: tuple[int, int, int]  # PASS, FAIL, REPORTED
    digest: str                   # of the sorted stdout lines

    @property
    def attempted(self) -> int:
        return sum(self.checks)

    def argv(self, rng: random.Random) -> list[str]:
        """The command line, with each grid axis in a seeded order."""
        def axis(values):
            values = list(values)
            rng.shuffle(values)
            return ",".join(map(str, values))
        return ["verify", self.suite, "--m", axis(self.m), "--a", axis(self.a),
                "--b", axis(self.b), *self.extra]


_DEEP = dict(m=(3, 5), a=(1, 3), b=(0, 2), extra=("--dmax", "3"))
WORKLOADS: dict[str, tuple[Call, ...]] = {
    "grid-sweep": (
        Call("all", (3, 4, 5), (0, 1, 2, 3), (0, 1, 2), ("--numeric", "--dmax", "1"),
             (1552, 0, 72),
             "34cdadcb07ae559d0e4edb64072671c67e31cb391ba1d1674c0c34995673d731"),),
    "gram-deep": (
        Call("orthogonality", (3, 5), (1,), (0, 2), ("--dmax", "3"),
             (20, 0, 6),
             "a73b5b115a774e5f3303a09fed102aa2f2282ace611e25e79540f9cebcd8236d"),),
    "recursion-deep": (
        Call("casimir", **_DEEP, checks=(48, 0, 8),
             digest="76fac3ee7098caf17e2952a56139638326981c4e89ca12c0c96858d301b662be"),
        Call("pde", **_DEEP, checks=(96, 0, 0),
             digest="6934a58f92f99206697be357f2321b59ce51cf290b9e66bbc44720261ba0d3c2"),),
}


# ---- child processes ----

def probe_s() -> float:
    """CPU seconds of a fixed loop of small-Fraction and dict arithmetic,
    the kind of work bc2mvop does, run in this process.  It shares no code
    with the program, so only the machine's speed moves it."""
    t0 = time.thread_time()
    table = {}
    for k in range(PROBE_LOOPS):
        x = Fraction(k % 7 + 1, k % 5 + 2)
        table[k & 255] = x * x + x
    return time.thread_time() - t0


@dataclass
class Proc:
    """One finished child: its own resource use, exit code and output.

    The child ran for `segments` seconds; `probes` holds `probe_s()` from
    before, between and after the segments."""
    segments: list[float]
    probes: list[float]
    cpu_s: float
    peak_rss_mb: float
    code: int
    out: str
    err: str

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def wall_ref(self) -> float:
        """Each segment over the mean of the probes on either side of it."""
        return sum(seg / ((a + b) / 2) for seg, a, b
                   in zip(self.segments, self.probes, self.probes[1:]))

    @property
    def cpu_ref(self) -> float:
        return self.cpu_s * self.wall_ref / self.wall_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BC2MVOP_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], pause: bool = True) -> Proc:
    """Run a child to its end, timed against `probe_s()`.

    The probe runs before and after the child.  With `pause`, the child's
    process group is also stopped every `PROBE_EVERY_S` seconds while the
    probe runs, so the machine's speed is sampled all through the call;
    the stopped time is not counted.  CPU and peak RSS come from
    `os.wait4` on that child alone, not from RUSAGE_CHILDREN, which keeps
    a maximum over every child the benchmark ever waited for."""
    probes = [probe_s()]
    segments = []
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for reader in readers:
        reader.start()
    try:
        start = seg_start = time.perf_counter()
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            now = time.perf_counter()
            if pid:
                segments.append(now - seg_start)
                break
            if now - start > CHILD_TIMEOUT_S:
                os.killpg(proc.pid, signal.SIGKILL)
            elif pause and now - seg_start >= PROBE_EVERY_S:
                os.killpg(proc.pid, signal.SIGSTOP)
                pid, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                segments.append(time.perf_counter() - seg_start)
                if not os.WIFSTOPPED(status):
                    break
                probes.append(probe_s())
                os.killpg(proc.pid, signal.SIGCONT)
                seg_start = time.perf_counter()
                continue
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
                os.killpg(proc.pid, signal.SIGCONT)
            proc.wait()
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
    probes.append(probe_s())
    return Proc(segments, probes, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, proc.returncode,
                b"".join(out).decode(), b"".join(err).decode())


def setup_times(env: dict[str, str], samples: int) -> list[float]:
    """Seconds from spawning an interpreter to `bc2mvop.cli` imported and
    `build_parser()` returned, once per sample.  Each spawn also checks that
    the package is the one under `src/`."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        where = Path(line.decode().strip() or ".").resolve()
        if proc.returncode != 0 or not where.is_relative_to(SRC):
            raise BenchError(f"bc2mvop does not import from {SRC}: "
                             f"{err.decode().strip() or where}")
    return times


# ---- correctness ----

def digest(out: str) -> str:
    """sha256 of the sorted stdout lines: a seeded grid order changes the
    order of the lines, never their multiset."""
    return hashlib.sha256("\n".join(sorted(out.splitlines())).encode()).hexdigest()


def counts(out: str) -> tuple[int, int, int] | None:
    lines = out.splitlines()
    found = _SUMMARY.match(lines[-1]) if lines else None
    return tuple(map(int, found.groups())) if found else None


def failed_checks(call: Call, proc: Proc) -> int:
    """FAIL checks of the call; every check of it when the exit code, the
    digest or the PASS/FAIL/REPORTED counts differ from the pins."""
    got = counts(proc.out)
    if proc.code != 0 or got != call.checks or digest(proc.out) != call.digest:
        return call.attempted
    return got[1]


# ---- runs ----

def run_pass(argvs, env, traced: bool = False, pause: bool = True) -> list[Proc]:
    entry = [str(HERE / "traced_child.py")] if traced else ["-c", ENTRY]
    return [spawn([sys.executable, *entry, *argv], env, pause) for argv in argvs]


def judge(calls, passes: list[list[Proc]]) -> tuple[int, int]:
    attempted = failed = 0
    for procs in passes:
        for call, proc in zip(calls, procs):
            attempted += call.attempted
            failed += failed_checks(call, proc)
    return attempted, failed


def end_to_end(calls, passes: list[list[Proc]], setup: list[float]) -> dict[str, float]:
    attempted, failed = judge(calls, passes)
    return {
        "wall_ref": statistics.median(sum(p.wall_ref for p in ps) for ps in passes),
        "cpu_ref": statistics.median(sum(p.cpu_ref for p in ps) for ps in passes),
        "peak_rss_mb": statistics.median(max(p.peak_rss_mb for p in ps)
                                         for ps in passes),
        "setup_s": statistics.median(setup),
        "checks_ok_share": 1 - failed / attempted,
    }


def read_trace(proc: Proc) -> dict:
    for line in reversed(proc.err.splitlines()):
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    raise BenchError(f"traced child left no trace (exit {proc.code}): "
                     f"{proc.err.strip()[-500:]}")


def per_layer(workload: str, plain: list[Proc], traced: list[Proc]) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one pass."""
    traces = [read_trace(p) for p in traced]
    found = set().union(*(t["found"] for t in traces))
    missing = sorted(set().union(*(t["missing"] for t in traces)))
    if missing:
        print(f"perfbench: not in the program, reported as 0: {missing}",
              file=sys.stderr)

    def stat(label, kind):
        return sum(t["stats"].get(label, {}).get(kind, 0) for t in traces)

    out: dict[str, float] = {}
    for layer in layers.LAYERS:
        calls = stat(layer.label, "calls")
        if layer.label in found:
            if workload in layer.expect and calls == 0:
                raise BenchError(f"{layer.label} recorded no calls on {workload}")
            if workload in layer.absent and calls:
                raise BenchError(f"{layer.label} recorded {calls} calls on "
                                 f"{workload}, where it must record none")
        hits = sum(t["caches"].get(layer.label, {}).get("hits", 0) for t in traces)
        lookups = hits + sum(t["caches"].get(layer.label, {}).get("misses", 0)
                             for t in traces)
        for kind in layers.layer_kinds(layer):
            name = f"{layer.label}.{kind}"
            if kind == "hit_ratio":
                out[name] = hits / lookups if lookups else 0.0
            elif kind == "lookups":
                out[name] = lookups
            else:
                out[name] = stat(layer.label, kind)
    deviations = [float(x) for p in traced for x in _DEVIATION.findall(p.out)]
    out["cli.main.total_s"] = stat(layers.ROOT_LABEL, "total_s")
    out["cli.unattributed_s"] = stat(layers.ROOT_LABEL, "self_s")
    out["orthogonality.numeric.max_rel_dev"] = max(deviations, default=0.0)
    out["expansion.family.max_coeff_bits"] = max(
        t["family_max_coeff_bits"] for t in traces)
    out["trace.overhead_ratio"] = (sum(p.wall_ref for p in traced)
                                   / sum(p.wall_ref for p in plain))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(correct, attempted, failed, metrics with units, per-pass record)."""
    calls = WORKLOADS[workload]
    rng = random.Random(seed)
    argvs = [call.argv(rng) for call in calls]
    env = child_env()
    if trace:
        # spans are wall-clock times, so neither pass is paused
        plain = run_pass(argvs, env, pause=False)
        traced = run_pass(argvs, env, traced=True, pause=False)
        attempted, failed = judge(calls, [plain, traced])
        values = per_layer(workload, plain, traced)
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        passes = [plain, traced]
    else:
        setup_times(env, 1)  # compiles the bytecode; not recorded
        setup = setup_times(env, SETUP_SAMPLES)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(argvs, env))
        setup += setup_times(env, SETUP_SAMPLES)
        attempted, failed = judge(calls, passes)
        values = end_to_end(calls, passes, setup)
        units = dict(E2E)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    record = {"argv": argvs,
              "passes": [[{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                           "peak_rss_mb": p.peak_rss_mb, "exit": p.code,
                           "probe_s": p.probes} for p in ps] for ps in passes]}
    return failed == 0, attempted, failed, metrics, record


# ---- environment ----

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "bc2mvop").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy,
        "loadavg_at_start": os.getloadavg(),
        "caller_set_BC2MVOP_THREADS": "BC2MVOP_THREADS" in os.environ,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bc2mvop" / "cli.py").is_file():
        print(f"perfbench: no bc2mvop sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, got, record = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"workload": name, "seed": args.seed,
                              "environment": env, **record}))
            for metric, m in got.items():
                print(f"{name:15s} {metric:45s} {m['value']:>14.6g} {m['unit']}")
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
