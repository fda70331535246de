"""Tests of the benchmark's own logic, on synthetic inputs only.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import random
import sys
import types
from pathlib import Path

import layers
import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        w_leaf()
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        w_inner()
        w_leaf()

    w_leaf, w_inner = tr.wrap("leaf", leaf), tr.wrap("inner", inner)
    tr.span("outer", outer)
    assert tr.stats["outer"].total_s == 9.0
    assert tr.stats["outer"].self_s == 3.0
    assert tr.stats["inner"].self_s == 2.0
    assert tr.stats["inner"].total_s == 4.0
    assert tr.stats["leaf"].calls == 2
    assert tr.stats["leaf"].self_s == 4.0


def test_reentrant_span_counts_one_call_and_full_self_time():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def fact(n):
        clock.now += 1.0
        return n * w_fact(n - 1) if n > 1 else 1

    w_fact = tr.wrap("fact", fact)
    assert w_fact(4) == 24
    st = tr.stats["fact"]
    assert (st.calls, st.self_s, st.total_s) == (1, 4.0, 4.0)


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    w_boom = tr.wrap("boom", boom)
    try:
        tr.span("outer", w_boom)
    except ValueError:
        pass
    assert tr.stats["outer"].self_s == 0.0
    assert tr.stats["boom"].self_s == 1.0
    assert tr._stack == []


def _program():
    """A synthetic package: a function re-bound by a second module, a class
    with an aliased method, and a cached function."""
    import functools

    pkg = types.ModuleType("pkg")
    core = types.ModuleType("pkg.core")
    user = types.ModuleType("pkg.user")

    def f(x):
        return x + 1

    class K:
        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            return K(self.v + getattr(other, "v", other))

        __radd__ = __add__

    @functools.lru_cache(maxsize=None)
    def cached(x):
        return 2 * x

    core.f, core.K, core.cached = f, K, cached
    user.f = f  # as `from .core import f` would bind it
    user.g = lambda x: user.f(x) * 10
    pkg.f = f
    return {"pkg": pkg, "pkg.core": core, "pkg.user": user}


def test_wrappers_installed_at_every_binding_and_removed_after_the_run():
    mods = _program()
    core, user = mods["pkg.core"], mods["pkg.user"]
    f, add, cached = core.f, core.K.__add__, core.cached
    tr = tracer.Tracer()
    done = tracer.install(tr, [("f", "pkg.core", "f", False),
                               ("add", "pkg.core", "K.__add__", False),
                               ("cached", "pkg.core", "cached", True),
                               ("gone", "pkg.core", "deleted", False)], mods)
    assert done.missing == ["pkg.core:deleted"]
    assert done.found == {"f", "add", "cached"}
    assert core.f is not f and user.f is core.f and mods["pkg"].f is core.f
    assert core.K.__radd__ is core.K.__add__ is not add

    assert user.g(1) == 20
    assert (1 + core.K(2)).v == 3
    assert core.cached(3) == core.cached(3) == 6
    assert tr.stats["f"].calls == 1
    assert tr.stats["add"].calls == 1
    assert tr.stats["cached"].calls == 2
    assert tr.results["cached"] == [6, 6]
    assert cached.cache_info().hits == 1  # readable through the original

    tracer.uninstall(done)
    assert core.f is f and user.f is f and mods["pkg"].f is f
    assert core.K.__add__ is add and core.K.__radd__ is add
    assert core.cached is cached
    assert done.patches == []
    assert user.g(1) == 20 and tr.stats["f"].calls == 1


def _call(**kw):
    base = dict(suite="x", m=(3,), a=(0,), b=(0,), extra=(), checks=(2, 0, 1),
                digest=run.digest("PASS  one\nREPORTED  two\nPASS  three\n"
                                  "2 passed, 0 failed, 1 reported\n"))
    base.update(kw)
    return run.Call(**base)


def _proc(out, code=0, err=""):
    return run.Proc([1.0], [0.5, 0.5], 1.0, 10.0, code, out, err)


GOOD = "PASS  one\nREPORTED  two\nPASS  three\n2 passed, 0 failed, 1 reported\n"


def test_pinned_output_counts_no_failed_check():
    assert run.failed_checks(_call(), _proc(GOOD)) == 0


def test_line_order_does_not_change_the_digest():
    shuffled = "PASS  three\nPASS  one\nREPORTED  two\n2 passed, 0 failed, 1 reported\n"
    assert run.failed_checks(_call(), _proc(shuffled)) == 0


def test_digest_mismatch_fails_every_check_of_the_call():
    changed = GOOD.replace("PASS  three", "PASS  three  detail")
    assert run.counts(changed) == (2, 0, 1)
    assert run.failed_checks(_call(), _proc(changed)) == 3


def test_nonzero_exit_or_missing_summary_fails_every_check():
    assert run.failed_checks(_call(), _proc(GOOD, code=1)) == 3
    assert run.failed_checks(_call(), _proc("")) == 3


def test_judge_sums_over_passes_and_calls():
    calls = (_call(), _call())
    passes = [[_proc(GOOD), _proc(GOOD)], [_proc(GOOD), _proc("boom", code=1)]]
    assert run.judge(calls, passes) == (12, 3)
    metrics = run.end_to_end(calls, passes, [0.1, 0.3, 0.2])
    assert metrics["checks_ok_share"] == 0.75
    assert metrics["setup_s"] == 0.2
    assert metrics["wall_ref"] == 4.0


def test_each_segment_is_timed_against_the_probes_on_either_side():
    proc = run.Proc([3.0, 1.0], [1.0, 3.0, 1.0], 2.0, 1.0, 0, "", "")
    assert proc.wall_s == 4.0
    assert proc.wall_ref == 3.0 / 2.0 + 1.0 / 2.0
    assert proc.cpu_ref == 2.0 * proc.wall_ref / 4.0


def test_paused_child_runs_to_its_end_and_is_sampled_throughout(monkeypatch):
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.1)
    monkeypatch.setattr(run, "PROBE_LOOPS", 1000)
    busy = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.5: pass\nprint('done')")
    proc = run.spawn([sys.executable, "-c", busy], dict(os.environ))
    assert (proc.code, proc.out) == (0, "done\n")
    assert len(proc.probes) == len(proc.segments) + 1 >= 4
    assert proc.cpu_s >= 0.5


def test_children_run_without_the_callers_thread_setting(monkeypatch):
    monkeypatch.setenv("BC2MVOP_THREADS", "2")
    env = run.child_env()
    assert "BC2MVOP_THREADS" not in env
    assert env["PYTHONPATH"] == str(run.SRC)
    assert run.environment()["caller_set_BC2MVOP_THREADS"] is True


def test_seed_permutes_grid_axes_only():
    call = _call(m=(3, 4, 5), a=(0, 1, 2, 3), b=(0, 1, 2), extra=("--dmax", "1"))
    for seed in range(5):
        argv = call.argv(random.Random(seed))
        assert argv[:2] == ["verify", "x"] and argv[-2:] == ["--dmax", "1"]
        assert sorted(argv[3].split(",")) == ["3", "4", "5"]
        assert sorted(argv[5].split(",")) == ["0", "1", "2", "3"]
    assert call.argv(random.Random(7)) == call.argv(random.Random(7))


def _trace(calls, found=None):
    stats = {label: {"calls": n, "self_s": 0.5 * n, "total_s": 1.0 * n}
             for label, n in calls.items()}
    trace = {"stats": stats, "caches": {"orthogonality.gram": {"hits": 3, "misses": 1}},
             "found": sorted(found or calls), "missing": [],
             "family_max_coeff_bits": 7}
    return [_proc("worst relative deviation 1.5e-12\n",
                  err=run.TRACE_MARKER + json.dumps(trace))]


def test_zero_calls_where_calls_are_expected_is_an_error():
    expected = {layer.label: 1 for layer in layers.LAYERS
                if "gram-deep" in layer.expect}
    plain = [_proc("", err="")]
    got = run.per_layer("gram-deep", plain, _trace(expected))
    assert got["orthogonality.gram.hit_ratio"] == 0.75
    assert got["orthogonality.gram.lookups"] == 4
    assert got["trace.overhead_ratio"] == 1.0
    assert got["orthogonality.numeric.max_rel_dev"] == 1.5e-12
    assert set(got) == {name for name, _, _ in layers.metric_specs()}

    silent = dict(expected, **{"orthogonality.region_integral": 0})
    try:
        run.per_layer("gram-deep", plain, _trace(silent))
    except run.BenchError as err:
        assert "orthogonality.region_integral" in str(err)
    else:
        raise AssertionError("zero calls went unreported")

    # a layer the program no longer has is reported missing, not an error
    del silent["orthogonality.region_integral"]
    run.per_layer("gram-deep", plain, _trace(silent))


def test_calls_where_none_are_allowed_is_an_error():
    expected = {layer.label: 1 for layer in layers.LAYERS
                if "gram-deep" in layer.expect}
    expected["orthogonality.numeric_crosscheck"] = 2
    plain = [_proc("", err="")]
    try:
        run.per_layer("gram-deep", plain, _trace(expected))
    except run.BenchError as err:
        assert "numeric_crosscheck" in str(err)
    else:
        raise AssertionError("unexpected calls went unreported")


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.metric_specs()
    for layer in layers.LAYERS:
        assert set(layer.expect) | set(layer.absent) <= set(run.WORKLOADS)
