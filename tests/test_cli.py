"""Command-line interface: exit codes, payloads, determinism."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bc2mvop import casimir, cli, expansion, leading, lie, orthogonality
from bc2mvop.diffop import MatrixDiffOp
from bc2mvop.leading import (C_VARS, PSI_VARS, X_VARS, weight_matrix_psi,
                             weight_matrix_x)
from bc2mvop.expansion import poly_matrix_x
from bc2mvop.lie import PairParams
from bc2mvop.matrices import PolyMatrix
from bc2mvop.poly import MultiPoly


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:      # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_weight_single_point(capsys):
    code, out, _ = run_cli(["verify", "weight", "--m", "3", "--a", "1", "--b", "0"],
                           capsys)
    assert code == 0
    assert "weight matrix determinant" in out
    assert "FAIL" not in out


def test_verify_rejects_far_regime_with_pointer(capsys):
    code, _, err = run_cli(["verify", "all", "--m", "3", "--a", "1", "--b", "-1"],
                           capsys)
    assert code == 2
    assert "duality" in err
    assert "b=0" in err


def test_verify_rejects_middle_strip(capsys):
    code, _, err = run_cli(["verify", "weight", "--m", "3", "--a", "2", "--b", "-1"],
                           capsys)
    assert code == 2
    assert "-a < b < 0" in err


def test_verify_xi_reports(capsys):
    code, out, _ = run_cli(["verify", "xi", "--m", "4", "--a", "0", "--b", "0"],
                           capsys)
    assert code == 0
    assert out.count("REPORTED") == 2
    assert "second coordinate expansion constants" in out


def _verify_xi_fails(monkeypatch, capsys, attr, modules, wrong):
    """The FAIL lines of verify xi --m 3 with ``attr`` replaced by
    ``wrong(real)`` in each module that binds it; the run must end in
    exit 1, not in a traceback."""
    real = getattr(modules[0], attr)
    for module in modules:
        monkeypatch.setattr(module, attr, wrong(real))
    lie.drop_point_caches()  # no family built before the mutation is read
    code, out, _ = run_cli(["verify", "xi", "--m", "3"], capsys)
    assert code == 1
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_verify_xi_fails_on_a_wrong_eigenvalue(monkeypatch, capsys):
    # m + 2 added to the numerator at (i, d1) = (0, 1) moves the eigenvalue
    # of every label (0, 1, d2) by one
    def wrong(real):
        return lambda params, label: real(params, label) + (
            params.m + 2 if (label.i, label.d1) == (0, 1) else 0)
    fails = _verify_xi_fails(monkeypatch, capsys, "casimir_numerator",
                             (lie, expansion), wrong)
    assert any("scalar eigenfunctions solved (m=3)" in line for line in fails)


def test_verify_xi_fails_on_a_wrong_move_weight(monkeypatch, capsys):
    def wrong(real):
        def doubled(params, label):
            down = (label.i, label.d1 - 1, label.d2)
            return {t: 2 * w if (t.i, t.d1, t.d2) == down else w
                    for t, w in real(params, label).items()}
        return doubled
    fails = _verify_xi_fails(monkeypatch, capsys, "lowering_moves",
                             (casimir,), wrong)
    assert any("scalar eigenfunctions solved (m=3)" in line for line in fails)


def test_verify_json_format(capsys):
    code, out, _ = run_cli(["verify", "krawtchouk", "--m", "3", "--a", "0",
                            "--b", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == 112
    assert all("identity" in r for r in payload["results"])


def _break_radial_operator(monkeypatch):
    """Add c1 d/dc1 to the scalar part of every radial operator, which the
    per-m checks apply and each point's operator lifts: a mutation that the
    radial checks catch and the others do not read."""
    real = casimir._radial_scalar_c
    bump = MatrixDiffOp.scalar_op(C_VARS, {(1, 0): MultiPoly.var(C_VARS, "c1")})
    monkeypatch.setattr(casimir, "_radial_scalar_c", lambda m: real(m) + bump)
    lie.drop_point_caches()  # no operator built before the mutation is read


def test_verify_json_puts_a_fail_residual_at_the_top_level(monkeypatch,
                                                           capsys):
    _break_radial_operator(monkeypatch)
    code, out, _ = run_cli(["verify", "casimir", "--m", "3", "--a", "1",
                            "--b", "0", "--dmax", "1", "--format", "json"],
                           capsys)
    assert code == 1
    results = json.loads(out)["results"]
    name = "bottom lowering identity (m=3,a=1,b=0)"
    assert next(r for r in results if r["identity"] == name) == {
        "identity": name, "status": "FAIL", "detail": "i=0, component 0",
        "residual": "c1"}
    fails = [r for r in results if r["status"] == "FAIL"]
    assert len(fails) == 4
    assert all(set(r) == {"identity", "status", "detail", "residual"}
               for r in fails)
    assert all("data" not in r for r in results)


@pytest.mark.parametrize("attr, vars", [("pde_operator_x", X_VARS),
                                         ("pde_operator_psi", PSI_VARS)])
def test_verify_pde_fails_on_a_wrong_operator(monkeypatch, capsys, attr,
                                               vars):
    # the first variable times I added at order 0 to E in one coordinate
    # system; breaking E in psi breaks it in x too, and psi is checked first
    real = getattr(casimir, attr)

    def broken(params):
        first = MultiPoly.var(vars, vars[0])
        bump = PolyMatrix.from_entries(params.size, vars,
                                       {(i, i): first for i in range(params.size)})
        return real(params) + MatrixDiffOp(vars, {(0, 0): bump})
    monkeypatch.setattr(casimir, attr, broken)
    argv = ["verify", "pde", "--m", "3", "--a", "1", "--b", "0", "--dmax", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 3
    assert all(line.endswith(f"  {vars[0][:-1]} coordinates, entry (0, 0)")
               for line in fails)
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 1
    fails = [r for r in json.loads(out)["results"] if r["status"] == "FAIL"]
    assert len(fails) == 3
    assert all(set(r) == {"identity", "status", "detail", "residual"}
               for r in fails)
    # Q_(0,0) is the identity, so its residual is the bump itself
    assert next(r["residual"] for r in fails
                if r["identity"].endswith("d=(0,0)")) == vars[0]


def test_verify_duality_fails_on_a_wrong_dual_triple(monkeypatch, capsys):
    # the dual family's equation is checked on the b >= 0 family through the
    # index mirror; dual parameters one off in b move every eigenvalue of it
    monkeypatch.setattr(expansion, "dualize",
                        lambda p: PairParams(p.m, p.a, -p.a - p.b - 1))
    code, out, _ = run_cli(["verify", "duality", "--m", "3", "--a", "0,1,2",
                            "--b", "0,1", "--dmax", "2"], capsys)
    assert code == 1
    lines = [line for line in out.splitlines()
             if "conjugated equation with dual eigenvalues" in line]
    assert len(lines) == 6
    assert all(line.startswith("FAIL") for line in lines)


def _fresh_gram_tables():
    """No point's tables, no moment and no Beta numerators built before a
    mutation of the Gram integrals is read."""
    lie.drop_point_caches()
    orthogonality.moment.cache_clear()
    orthogonality._beta_numerators.cache_clear()


def _perturb_weight_entry(monkeypatch):
    """x2 added to the entry S_00 of the weight the Gram matrices read: S
    stays symmetric, and every pairwise orthogonality check fails."""
    real = orthogonality.weight_matrix_x

    def perturbed(a, b):
        s = real(a, b)
        return PolyMatrix(s.rows, s.cols, [
            s.entries[0] + MultiPoly.var(X_VARS, "x2"), *s.entries[1:]])
    monkeypatch.setattr(orthogonality, "weight_matrix_x", perturbed)


def _perturb_moment(monkeypatch):
    """The moment of x2 raised by 1 at every (m, b)."""
    real = orthogonality.moment

    def bumped(m, b, i, j):
        return real(m, b, i, j) + ((i, j) == (0, 1))
    monkeypatch.setattr(orthogonality, "moment", bumped)


def test_verify_orthogonality_summary_counts_checks_not_entries(monkeypatch,
                                                                capsys):
    # each failing pairwise check prints its first failure alone, so the
    # summary counts checks however many Gram entries fail
    _fresh_gram_tables()
    _perturb_weight_entry(monkeypatch)
    code, out, _ = run_cli(["verify", "orthogonality", "--m", "3", "--a", "1",
                            "--b", "0", "--dmax", "2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "1 passed, 5 failed, 1 reported"
    tag = "(m=3,a=1,b=0)"
    details = {f"orthogonality of distinct degrees {tag}":
               "d=(0, 0), d'=(0, 1), entry (0, 0)",
               f"diagonality of squared norms {tag}": "d=(0, 0), entry (0,1)",
               f"norm constant independence {tag}":
               "d=(0, 1), k=0: 272/81 != 8/3"}
    for name, detail in details.items():
        [line] = [line for line in lines if name in line]
        assert line.startswith("FAIL") and line.endswith(f"  {detail}")


def test_verify_all_prints_one_line_per_check_under_a_gram_mutation(
        monkeypatch, capsys):
    # the same identities in the same order whether or not the Gram
    # integrals are broken: a failing check replaces its PASS line
    argv = ["verify", "all", "--dmax", "2", "--m", "3", "--a", "0,1,2",
            "--b", "0,1", "--format", "json"]

    def results(perturb=None):
        _fresh_gram_tables()
        with monkeypatch.context() as patch:
            if perturb:
                perturb(patch)
            code, out, _ = run_cli(argv, capsys)
        assert code == (1 if perturb else 0)
        return json.loads(out)["results"]

    passing = results()
    identities = [r["identity"] for r in passing]
    assert len(identities) == 350
    for perturb, fails in ((_perturb_weight_entry, 28), (_perturb_moment, 20)):
        broken = results(perturb)
        assert [r["identity"] for r in broken] == identities
        assert sum(r["status"] == "FAIL" for r in broken) == fails


@pytest.mark.parametrize("argv", [
    ["verify", "orthogonality", "--dmax", "-1"],
    ["verify", "casimir", "--dmax", "-1"],
    ["verify", "pde", "--dmax", "-1"],
    ["verify", "weight", "--m", "3,4,3"],
    ["verify", "casimir", "--numeric"],
    ["verify", "krawtchouk", "--numeric"],
    ["verify", "weight", "--dmax", "7"],
], ids=["orthogonality-dmax", "casimir-dmax", "pde-dmax", "repeated-m",
        "unread-numeric", "krawtchouk-numeric", "unread-dmax"])
def test_verify_degenerate_input_is_parameter_error(argv, capsys):
    # the case's own options come last, so they override the base point
    code, out, err = run_cli(argv[:2] + ["--m", "3", "--a", "0", "--b", "0"]
                             + argv[2:], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:")
    assert argv[2] in err      # the message names the offending option


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--m", "1", "--a", "0", "--b", "0"],
    ["verify", "weight", "--m", "3,0", "--a", "0", "--b", "0"],
    ["weight", "--m", "1", "--a", "0", "--b", "0"],
    ["moments", "--m", "-1", "--monomial", "0,0"],
], ids=["verify", "verify-grid", "data", "moments"])
def test_m_below_two_is_parameter_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "parameter error: m must be at least 2\n"


def test_verify_repeated_grid_value_names_axis_and_value(capsys):
    code, out, err = run_cli(["verify", "weight", "--m", "3", "--a", "0",
                              "--b", "2,0,2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "parameter error: --b lists 2 twice\n"


@pytest.mark.parametrize("option", [["--N", "2"], ["--p", "1/2"]],
                         ids=["N", "p"])
def test_verify_krawtchouk_takes_no_size_or_parameter_option(option, capsys):
    # the sweep runs at its one setting, `krawtchouk.STANDARD_NMAX` and
    # `STANDARD_PS`: argparse refuses either knob as a usage error
    code, out, err = run_cli(["verify", "krawtchouk", *option], capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "weight", "--m", "3", "--a", "0", "--b", "0"],
    ["weight", "--m", "3", "--a", "0", "--b", "0"],
    ["weight", "--m", "3", "--a", "0", "--b", "0", "--format", "csv"],
], ids=["verify", "data", "csv"])
def test_unwritable_out_is_parameter_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "Traceback" not in err and str(target) in err
    assert not target.exists()


def test_verify_run_without_checks_is_parameter_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_verify_results", lambda args, grid: [])
    code, out, err = run_cli(["verify", "weight", "--m", "3", "--a", "0",
                              "--b", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:") and "no check" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_weight_payload_round_trip(capsys):
    code, out, _ = run_cli(["weight", "--m", "3", "--a", "1", "--b", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "weight" and payload["coords"] == "x"
    mat = PolyMatrix.from_json(payload["matrix"])
    assert mat == weight_matrix_x(1, 0)


def test_weight_psi_coords(capsys):
    code, out, _ = run_cli(["weight", "--m", "3", "--a", "2", "--b", "1",
                            "--coords", "psi"], capsys)
    assert code == 0
    mat = PolyMatrix.from_json(json.loads(out)["matrix"])
    assert mat == weight_matrix_psi(2, 1)


def test_weight_refuses_far_regime(capsys):
    code, _, err = run_cli(["weight", "--m", "3", "--a", "1", "--b", "-1"], capsys)
    assert code == 2
    assert "duality" in err


def test_polys_degree_zero_is_transition_matrix(capsys):
    code, out, _ = run_cli(["polys", "--m", "3", "--a", "1", "--b", "0",
                            "--d", "0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    mat = PolyMatrix.from_json(payload["matrix"])
    assert mat == poly_matrix_x(PairParams(3, 1, 0), (0, 0))
    assert payload["eigenvalues"] == ["24/5", "64/5"]


def test_dims_scalar_label(capsys):
    code, out, _ = run_cli(["dims", "--m", "3", "--a", "0", "--b", "0",
                            "--label", "0,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1
    assert payload["eigenvalue"] == "0"


def test_dims_invalid_label(capsys):
    code, _, err = run_cli(["dims", "--m", "3", "--a", "1", "--b", "0",
                            "--label", "2,0,0"], capsys)
    assert code == 2
    assert "bottom index" in err


def test_moments_payload(capsys):
    code, out, _ = run_cli(["moments", "--m", "3", "--monomial", "1,2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_p"] == "1/12"
    assert payload["beta_q"] == "1/24"
    assert payload["delta_integral"] == "1/720"


def test_export_csv_grid(tmp_path, capsys):
    out1 = tmp_path / "grid1.csv"
    out2 = tmp_path / "grid2.csv"
    for out in (out1, out2):
        code = cli.main(["weight", "--m", "3", "--a", "1", "--b", "0",
                         "--format", "csv", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert len(lines) == 1001
    assert lines[0] == "x1,x2,entry_0_0,entry_0_1,entry_1_0,entry_1_1,in_region"
    flags = {row.rsplit(",", 1)[1] for row in lines[1:]}
    assert flags == {"0", "1"}


def test_export_polys_csv(tmp_path, capsys):
    out = tmp_path / "polys.csv"
    code = cli.main(["polys", "--m", "3", "--a", "0", "--b", "0", "--d", "1,0",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,entry_0_0,in_region"
    assert len(lines) == 1001


def test_export_polys_refuses_c_coordinates(capsys):
    # polys are built in psi or x only; c once printed the x matrix
    code, out, err = run_cli(["polys", "--m", "3", "--a", "0", "--b", "0",
                              "--coords", "c"], capsys)
    assert code == 2
    assert out == ""
    assert "argument --coords: invalid choice: 'c'" in err


@pytest.mark.parametrize("kind", ["weight", "polys"])
@pytest.mark.parametrize("coords", ["psi", "c"])
def test_export_csv_grid_refuses_non_x_coordinates(kind, coords, tmp_path, capsys):
    # the CSV grid is evaluated in x; any other label used to write it anyway
    out = tmp_path / "grid.csv"
    code, _, err = run_cli([kind, "--m", "3", "--a", "0", "--b", "0", "--coords",
                            coords, "--format", "csv", "--out", str(out)], capsys)
    assert code == 2
    assert ("invalid choice: 'c'" if (kind, coords) == ("polys", "c")
            else f"--coords {coords} has no CSV form") in err
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["moments", "--m", "3", "--monomial", "1,2", "--a", "7"],
     "unrecognized arguments: --a 7"),
    (["moments", "--m", "3", "--monomial", "1,2", "--d", "4,4",
      "--coords", "psi"], "unrecognized arguments: --d 4,4 --coords psi"),
    (["dims", "--m", "3"], "required: --a, --b, --label"),
    # attached with "=", a value starting with "-" reaches the builder;
    # detached, argparse reads it as an option and --d goes without one
    (["polys", "--m", "3", "--a", "1", "--b", "0", "--d=-1,0"],
     "parameter error: degree pair (-1, 0) must be non-negative"),
    (["polys", "--m", "3", "--a", "1", "--b", "0", "--d", "-1,0"],
     "argument --d: expected one argument"),
    (["dims", "--m", "3", "--a", "1", "--b", "0", "--label", "1,-1,0"],
     "parameter error: invalid label (1, -1, 0)"),
], ids=["unread-a", "unread-d-coords", "missing-label", "negative-d",
        "negative-d-detached", "negative-label-degree"])
def test_data_command_reads_only_its_own_options(argv, error, capsys):
    # no option is filled in for a data command or ignored by it, and a
    # value it cannot use is refused once, by the builder that reads it
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert error in err and "Traceback" not in err
    if error.startswith("parameter error:"):
        assert err == error + "\n"


def test_main_sets_one_blas_thread_unless_the_caller_chose(monkeypatch,
                                                           capsys):
    # numpy starts a spinning BLAS worker thread when it loads unless told
    # otherwise; a value the caller set is kept
    argv = ["dims", "--m", "3", "--a", "1", "--b", "0", "--label", "0,1,0"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_cli(argv, capsys)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert run_cli(argv, capsys)[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_verify_deterministic_bytes(tmp_path, capsys):
    argv = ["verify", "weight", "--m", "3", "--a", "0,1", "--b", "0",
            "--format", "json"]
    code, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code == code2 == 0
    assert out1 == out2


# sha256 of suite reports, pinned byte for byte: the casimir, pde and
# orthogonality suites on a 2x2x2 grid at dmax 2; the weight,
# indecomposability, xi, transition and duality suites on the default grid,
# and the Krawtchouk suite with its defaults; the orthogonality, casimir and
# pde suites on the default grid at dmax 3 (keys "orthogonality-dmax3",
# "casimir-dmax3", "pde-dmax3"); and the quadrature cross-check on the
# default grid at dmax 1 (node order 48) and at one point whose pairs need
# node orders 48, 64, 66 and 68 ("orthogonality-numeric-orders").  Any
# change to the radial operator, the triangular expansion, the Gram
# integrals, the exact rank or the dual family that alters a single line, a
# count or a REPORTED detail shows here
SMALL_GRID = ["--m", "3,5", "--a", "1,3", "--b", "0,2", "--dmax", "2"]
REPORT_GRIDS = {"casimir": ("casimir", SMALL_GRID),
                "pde": ("pde", SMALL_GRID),
                "orthogonality": ("orthogonality", SMALL_GRID),
                "weight": ("weight", []),
                "indecomposable": ("indecomposable", []),
                "xi": ("xi", []),
                "transition": ("transition", []),
                "duality": ("duality", []),
                "krawtchouk": ("krawtchouk", []),
                "orthogonality-dmax3": ("orthogonality", ["--dmax", "3"]),
                "casimir-dmax3": ("casimir", ["--dmax", "3"]),
                "pde-dmax3": ("pde", ["--dmax", "3"]),
                "orthogonality-numeric": ("orthogonality",
                                          ["--numeric", "--dmax", "1"]),
                "orthogonality-numeric-orders": (
                    "orthogonality", ["--numeric", "--dmax", "2", "--m", "6",
                                      "--a", "2", "--b", "3"])}
REPORT_DIGESTS = {
    ("casimir", "text"):
        "9f408cf2a6793db27590113d59143a638a214f72eab04685f6a33c89cd59c8ea",
    ("casimir", "json"):
        "e3e292c8dd1fd0b5e0605626f2e6c9eb0ce1daad35cc27e8a3e3bfdd1e30df09",
    ("pde", "text"):
        "fdc887c5ffd77fc6efc0f66c9e6a7217bc150c8f710a8351623954c6c5c10cd5",
    ("pde", "json"):
        "e761ecbab15f1c4a5b3d798cedb18cc95e99e5ceb603943715146eceab2741db",
    ("orthogonality", "text"):
        "0328e6d8222c404f851b85c86ae948e954ea08ef47fe3125c4db1f22677620bb",
    ("orthogonality", "json"):
        "a8526e973e32b4ad89f2911fcbcd291a2ad202724bf15d548bb730a7d23fa015",
    ("weight", "text"):
        "533a03d6340c41528c265e8b5f7be8367ea6a05b550c1c489dda175b1b15bbbe",
    ("weight", "json"):
        "3c27a39a318c37253464b51ec9f61894ec64658324bedad55c935e729b56a5a7",
    ("indecomposable", "text"):
        "0c0003c47284fae6c48743f19ca0b66576898088dc3c6ad08f5270c8dbcb2716",
    ("indecomposable", "json"):
        "b68e1fc4a72a1ba7cee323ebee9f562a511f930614271cd2a73906dc55fb1938",
    ("orthogonality-dmax3", "text"):
        "e777e13ac624da2e59e4f1a28bbdb6f9ec50ca6863b19c49d4a65979cd6e2dbe",
    ("orthogonality-dmax3", "json"):
        "156a42fedc05998c82ad76ddc6d644652dd46d1c3233d43d8525d3bf8d977da7",
    ("casimir-dmax3", "text"):
        "9af98ec2f73411136f4154012dbe6e99e117c0519b418e110ab26093e845b6cf",
    ("casimir-dmax3", "json"):
        "9a7f306660266bc15c2972e70fa4e5fcad96189542b5139512806539b9b876b2",
    ("pde-dmax3", "text"):
        "1e6ee674b281d77bf8dc69071f0b9b47fee264972180272df049f65b235e43c2",
    ("pde-dmax3", "json"):
        "f80fa0012cc35c60e14ccb5e5be3a2f59267f94887ae6dd83ddc29c20e943e2f",
    ("orthogonality-numeric", "text"):
        "f8e040d5d833fad9a26651441a4c6197bf441f52c6a46c88a9a916177677f6fe",
    ("orthogonality-numeric", "json"):
        "ff54207d1024ce982b72a50053c30077458edac51559667e84abb0d817be0c26",
    ("orthogonality-numeric-orders", "text"):
        "03fa92c22333f3fb6915421a388869c1d761a4a07a9e0e527bfee95fd53f235a",
    ("orthogonality-numeric-orders", "json"):
        "6c2d90302edd4f3cb4b046ab278b1251daf74c703534be0bd11fa0fb32cd663e",
    ("xi", "text"):
        "2cadf35d7aeb5712e3b0c0503dd264f3da3db46e6525feb0a30af103a071f025",
    ("xi", "json"):
        "209eb9e2f43adb0e9880e5de8b036fe5834792f33e10dc1c3bf9614a0705e5dc",
    ("transition", "text"):
        "ac0d4e66c16bd938c2d8b59d85a8e7e68a8aece09970b94b14163fe0f5d370fc",
    ("transition", "json"):
        "f0ea5e998baed5221a1051111f82be96c92953704eb736434f70e18b71bfa0a8",
    ("duality", "text"):
        "2e63392ad44aa5a7b08d87cd3abec0717e5caf42badf46df6112793a913cca2d",
    ("duality", "json"):
        "7e98c557c8f2bc63802ff8dbf6f71b34cbb703c5f240b09f1bd5f19f777be762",
    ("krawtchouk", "text"):
        "52a6ffef6baa898a02e5a425944b3fc051d240f3651d432cd27cabfc355fd9a2",
    ("krawtchouk", "json"):
        "d2fa07e263f7c6ff44dc7483c1f145e2dc2824bf3ce51f7429d34680f7d7b4ec",
}


# the results of each key's suites, shared by its two formats: both print
# through cli.main, and the suites run once per key
_REPORT_RESULTS = {}


@pytest.mark.parametrize("key, fmt", [
    pytest.param(key, fmt, id=fmt if key == "casimir" else f"{key}-{fmt}")
    for key, fmt in sorted(REPORT_DIGESTS)])
def test_verify_casimir_report_is_pinned(key, fmt, monkeypatch, capsys):
    suite, grid = REPORT_GRIDS[key]
    real = cli._verify_results

    def shared(args, points):
        if key not in _REPORT_RESULTS:
            _REPORT_RESULTS[key] = real(args, points)
        return _REPORT_RESULTS[key]
    monkeypatch.setattr(cli, "_verify_results", shared)
    code, out, _ = run_cli(["verify", suite, *grid, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[key, fmt]


# sha256 of the exports of the built objects at m = 4, b = 1, pinned byte
# for byte and keyed by (kind, coords, a, format): as JSON, R_(2,1) in psi
# and x and the weight S in c, psi and x, at a = 0, 2 and 3, the label
# (1,2,1) at a = 2, and one moment; as CSV, the x grids of S and R_(2,1) at
# a = 2 and the key-value rows of that label and of the moment of
# c1^6 c2^4.  A change to the polynomial kernel, the recursion, the leading
# terms or the CSV writers that alters one coefficient or one byte shows here
EXPORT_DIGESTS = {
    ("polys", "psi", 0, "json"):
        "91d099b7d65cb23a3461b9bd1f4379f15e0ebb680a75935f6b3d1b91163d16ab",
    ("polys", "x", 0, "json"):
        "bce55bd7f39765c0c363eb598eab3f86fe12a1b3915c8c6f5dfd75ebba699cb8",
    ("weight", "c", 0, "json"):
        "ece4052dc94ca423f3d600afad4b2d244666b486be9946dfc648f4ec5e116301",
    ("weight", "psi", 0, "json"):
        "864416c09772da8d76bf85a0ebccdd246c9e7a3afe91c529c9ddde217fba00d8",
    ("weight", "x", 0, "json"):
        "3a41ef4353b0a806a7f092fe96481547276525d7d0c231b0b581ca25345f7e80",
    ("polys", "psi", 2, "json"):
        "c800c46be92b615764567832f4ff093589815c863aad79b2363c4b6b83885388",
    ("polys", "x", 2, "json"):
        "c2176c41769967d986c4b8becbc3cd45df7d789e1a3ca4f1a4c9fef22fb84179",
    ("weight", "c", 2, "json"):
        "7e8ee8b1693e6ba8d33edfef550158a76d5ed38eef04262cb01c3cf391908cbe",
    ("weight", "psi", 2, "json"):
        "8796b2aa9b39be5278a02aa69d9537698823d55e9b7be7dc4de5e8c974bf7cef",
    ("weight", "x", 2, "json"):
        "ba1a1c9d756ba1b420c0c3197bad303220f911116e2f94bfc2d46e249094034a",
    ("polys", "psi", 3, "json"):
        "8d93c5bb963fd669264b5c56de5d2c769193e070ceba7b5ea0e67e5daaa35b18",
    ("polys", "x", 3, "json"):
        "85b1916a51ccd06c2e0dc8345b6b943eb125d7b35f31b944069aff97899eb4a5",
    ("weight", "c", 3, "json"):
        "f0a377b8f5a8a0629717be966a97d532c59702e094d77dc2ea5d82e2afe1e6bc",
    ("weight", "psi", 3, "json"):
        "319af78ec63e1f6c3fb651c04c3d3ea965ede88bba250f7c8a221b5f718c10fc",
    ("weight", "x", 3, "json"):
        "123bdd57c758c5f3e11e59a98f26ef705db5807983fc406b815f3ec8a6d2352a",
    ("dims", None, 2, "json"):
        "238fc6abcf8feafe693b7b0f632c1e79bbbe4e37a059820cc443f96f48a936dd",
    ("weight", "x", 2, "csv"):
        "559612aed3abc3b601e706442468133ad0deb3f5acd243b3155ff4ed79a008ae",
    ("polys", "x", 2, "csv"):
        "e5bc220fed320afc33db5f4efd424cdb44e4c4f03ac37df047adcdd08af9f699",
    ("dims", None, 2, "csv"):
        "1888e7249553c8360ed29b6801533008c33e4a653b3f9e66218ef5f9f484feb2",
    ("moments", None, None, "csv"):
        "303e94989520e614d38445e3765e4df43beb6f0e3ef25b558aec2c5cf412d739",
}
MOMENTS_DIGEST = "094951a853a747196221a9b7aa5b953e0332e1359aede7466860d580355c71a5"


EXPORT_OPTIONS = {"polys": ["--d", "2,1"], "dims": ["--label", "1,2,1"],
                  "moments": ["--monomial", "3,2"], "weight": []}


@pytest.mark.parametrize("key", [
    pytest.param(key, id="-".join(str(v) for v in key if v not in (None, "json")))
    for key in EXPORT_DIGESTS])
def test_export_is_pinned(key, capsys):
    kind, coords, a, fmt = key
    argv = ["--m", "4", *EXPORT_OPTIONS[kind]]
    if a is not None:
        argv += ["--a", str(a), "--b", "1"]
    if coords:
        argv += ["--coords", coords]
    code, out, _ = run_cli([kind, *argv, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DIGESTS[key]


def test_moments_export_is_pinned(capsys):
    code, out, _ = run_cli(["moments", "--m", "4", "--monomial", "3,2"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MOMENTS_DIGEST


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "bc2mvop.cli", "dims", "--m",
                           "3", "--a", "1", "--b", "0", "--label", "1,0,0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] > 1


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "bc2mvop", "verify", "weight",
                           "--m", "3", "--a", "0", "--b", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("7 passed, 0 failed, 0 reported\n")


# modules a text `verify` has no use for: the dataclass and typing machinery
# (with inspect, ast and dis under them), the JSON and CSV writers, and numpy
LAZY_MODULES = {"dataclasses", "inspect", "typing", "json", "csv", "numpy"}


def _modules_loaded(argv, *flags):
    """The modules a fresh interpreter (started with ``flags``) has loaded
    after it imports `bc2mvop.cli`, builds the parser and, unless ``argv``
    is empty, runs ``main(argv)``.  A lazy module is in `sys.modules` before
    it loads, as an instance of a subclass of `ModuleType`, so a module
    counts as loaded when its type is `ModuleType` itself."""
    script = ("import sys, types; import bc2mvop.cli as cli; cli.build_parser(); "
              "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; print(); "
              "print(code, *sorted(name for name, mod in sys.modules.items() "
              "if type(mod) is types.ModuleType))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    return set(modules)


def test_text_verify_loads_only_what_it_runs():
    # -S: no site hook loads a module on the program's behalf
    assert LAZY_MODULES & _modules_loaded(["verify", "xi", "--m", "3"], "-S") == set()


def test_json_verify_loads_json_and_numeric_loads_numpy():
    assert "json" in _modules_loaded(["verify", "xi", "--m", "3",
                                      "--format", "json"], "-S")
    # numpy lives in site-packages, so this interpreter keeps its site hook
    assert "numpy" in _modules_loaded(["verify", "orthogonality", "--m", "3",
                                       "--a", "0", "--b", "0", "--dmax", "0",
                                       "--numeric"])


def _package_loaded(argv):
    return {name for name in _modules_loaded(argv, "-S")
            if name.partition(".")[0] == "bc2mvop"}


def test_a_built_parser_loads_only_cli_lie_and_report():
    assert _package_loaded([]) == {"bc2mvop", "bc2mvop.cli", "bc2mvop.lie",
                                   "bc2mvop.report"}


def test_verify_loads_only_the_modules_its_suites_read():
    point = ["--m", "3", "--a", "1", "--b", "0", "--dmax", "1"]
    casimir_run = _package_loaded(["verify", "casimir", *point])
    assert "bc2mvop.casimir" in casimir_run
    assert not casimir_run & {"bc2mvop.expansion", "bc2mvop.orthogonality"}
    pde_run = _package_loaded(["verify", "pde", *point])
    assert "bc2mvop.expansion" in pde_run
    assert "bc2mvop.orthogonality" not in pde_run


PACKAGE = Path(casimir.__file__).parent


def _point_caches():
    """Every function the package puts under ``@point_cache``, found in its
    source and read from its module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(dec).rsplit(".", 1)[-1] == "point_cache"
                    for dec in node.decorator_list):
                yield getattr(importlib.import_module(f"bc2mvop.{path.stem}"),
                              node.name)


def test_verify_drops_each_points_gram_tables(monkeypatch, capsys):
    grams = orthogonality._gram_cached.cache_info()
    caches = list(_point_caches())
    # a plain function patched over a per-point cache, as the mutation tests
    # do, must not keep the drop from emptying the real cache
    real = casimir.radial_operator_c
    assert real in caches
    built = []
    monkeypatch.setattr(casimir, "radial_operator_c",
                        lambda params: built.append(params) or real(params))
    code, out, _ = run_cli(["verify", "all", "--m", "3", "--a", "1",
                            "--b", "0,1", "--dmax", "1", "--numeric"], capsys)
    assert code == 0 and "FAIL" not in out
    assert built
    # every point cache is empty: among them the Gram matrices and tables,
    # the quadrature's factors, the operators, both families and the
    # weights of both points.  The moments stay, and the quadrature still
    # read each point's Gram matrices from the cache
    for cache in caches:
        assert cache.cache_info().currsize == 0, cache.__name__
    assert orthogonality.moment.cache_info().currsize > 0
    assert orthogonality._gram_cached.cache_info().hits > grams.hits


def test_dropping_points_keeps_the_cache_counts_perfbench_reads(
        monkeypatch, capsys):
    # perfbench's orthogonality.gram.* and expansion.poly_matrix_x.* read
    # these counts at the end of a run: dropping each point's entries must
    # leave them as they would be with every entry kept
    caches = (orthogonality._gram_cached, expansion.poly_matrix_x)

    def counts():
        lie.drop_point_caches()
        for cache in caches:
            cache.cache_clear()
        code, out, _ = run_cli(["verify", "all", "--m", "3", "--a", "1",
                                "--b", "0", "--numeric", "--dmax", "1"], capsys)
        assert code == 0 and "FAIL" not in out
        return [cache.cache_info()[:2] for cache in caches]

    dropped = counts()
    monkeypatch.setattr(cli, "drop_point_caches", lambda: None)
    kept = counts()
    lie.drop_point_caches()
    assert dropped == kept
    assert all(hits and misses for hits, misses in kept)


SHARED_GRID = ["verify", "all", "--m", "3,4", "--a", "1,2", "--b", "0,1",
               "--numeric", "--dmax", "1"]


def test_verify_builds_each_shared_part_once_per_parameters_it_reads(
        monkeypatch, capsys):
    per_m = (casimir._radial_scalar_c, casimir.scalar_radial_psi)
    per_ab = (casimir.conjugation_matrices, leading.leading_term_matrix,
              leading.weight_matrix_c, leading.weight_matrix_psi,
              leading.weight_matrix_x, casimir.label_vector)
    # start with no point's tables, and with the per-m and per-(a, b) parts,
    # which live for the whole process, empty
    lie.drop_point_caches()
    for cache in (*per_m, *per_ab):
        cache.cache_clear()
    lifts = Counter()
    real_lift = MatrixDiffOp.lift

    def lift(op, n):
        # which builder lifts which scalar part, at which point
        caller = sys._getframe(1)
        lifts[caller.f_code.co_name, caller.f_locals["params"], id(op), n] += 1
        return real_lift(op, n)
    monkeypatch.setattr(MatrixDiffOp, "lift", lift)
    # each drop ends a point: read what the point built before it is emptied
    tables, powers, readers, kept = [], {}, {}, []
    real_drop = cli.drop_point_caches

    def drop():
        tables.append(orthogonality._matrix_moments.cache_info().currsize)
        real_drop()
    monkeypatch.setattr(cli, "drop_point_caches", drop)
    real_power = orthogonality._node_power

    def node_power(order, e):
        out = real_power(order, e)
        kept.append(out)       # holds each id for the whole run
        powers.setdefault((order, e), set()).add(id(out))
        readers.setdefault((order, e), set()).add(len(tables))
        return out
    monkeypatch.setattr(orthogonality, "_node_power", node_power)

    code, _, _ = run_cli(SHARED_GRID, capsys)
    assert code == 0
    # the scalar radial parts once per m; each point's operator in c and in
    # psi lifts its m's part once, and the per-m checks apply the c-side
    # part unlifted, at no placeholder point
    assert [cache.cache_info().misses for cache in per_m] == [2, 2]
    points = [PairParams(m, a, b) for m in (3, 4) for a in (1, 2)
              for b in (0, 1)]
    want = Counter()
    for builder, scalar, at in (
            ("radial_operator_c", casimir._radial_scalar_c, points),
            ("pde_operator_psi", casimir.scalar_radial_psi, points)):
        want.update((builder, p, id(scalar(p.m)), p.size) for p in at)
    assert lifts == want
    # (A1, A2), Q0 and S in c and psi once per (a, b) of the grid, S in x
    # once per a: the moment tables and the stored displays read it at
    # b = 0 alone, and each label's vector once per (a, b), not per m
    vectors = sum(len(lie.labels_up_to(p, 1)) for p in points if p.m == 3)
    assert [cache.cache_info().misses for cache in per_ab] == [
        4, 4, 4, 4, 2, vectors]
    # one matrix moment table per point, and each node power once per
    # (order, e) for the process: every point's lookup gives the one array.
    # The last drop ends the per-m checks, after the xi suite read the
    # a = b = 0 families; they build no moment table
    assert tables == [1] * 8 + [0]
    assert {len(ids) for ids in powers.values()} == {1}
    assert set(range(8)) in readers.values()
    arrays = [i for ids in powers.values() for i in ids]
    assert len(arrays) == len(set(arrays))


def test_report_does_not_depend_on_grid_order(capsys):
    # shared per-m and per-(a, b) state must not leak from one point to the
    # next: the benchmark shuffles each axis
    reverse = ["--m", "4,3", "--a", "2,1", "--b", "1,0"]
    code, forward, _ = run_cli(SHARED_GRID, capsys)
    code2, backward, _ = run_cli(SHARED_GRID[:2] + reverse + SHARED_GRID[8:],
                                 capsys)
    assert code == code2 == 0
    assert forward != backward
    assert sorted(forward.splitlines()) == sorted(backward.splitlines())


def test_point_caches_miss_alike_in_any_grid_order(capsys):
    # the grid loop never returns to a point, and the per-m checks build
    # nothing for a point (m, 0, 0) off it or ahead of it: each point's
    # tables are built once whatever the order of the axes
    caches = list(_point_caches())
    misses = []
    for axes in (["--m", "3,4", "--a", "0,1", "--b", "0,1"],
                 ["--m", "4,3", "--a", "1,0", "--b", "1,0"]):
        for cache in caches:
            cache.cache_clear()
        code, out, _ = run_cli(["verify", "all", *axes, "--dmax", "1",
                                "--numeric"], capsys)
        assert code == 0 and "FAIL" not in out
        misses.append({f"{cache.__module__}.{cache.__qualname__}":
                       cache.cache_info().misses for cache in caches})
    assert misses[0] == misses[1]


def test_report_does_not_depend_on_optimize_flag():
    argv = ["-m", "bc2mvop", "verify", "all", "--m", "3", "--a", "2",
            "--b", "1", "--numeric", "--dmax", "1"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv],
                                       capture_output=True, text=True)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert plain.stdout == optimized.stdout


# the verdict functions of the checks that read (a, b) alone, and the two
# Casimir checks that read m alone
K_TYPE_VERDICTS = [(leading, name) for name in (
    "all_ones_verdict", "homogeneity_verdict", "swap_symmetry_verdict",
    "krawtchouk_route_verdict", "weight_factor_verdict",
    "psi_consistency_verdict", "determinant_verdict",
    "reference_matrix_verdict")] + [
    (orthogonality, "positivity_verdict"),
    (orthogonality, "indecomposability_verdict"),
    (casimir, "gradient_pairing_verdict")]
M_CHECKS = [(casimir, "scalar_eigen_check"),
            (casimir, "scalar_radial_agreement_check")]


def test_verify_decides_each_check_once_per_parameters_it_reads(monkeypatch,
                                                               capsys):
    calls = Counter()
    for module, name in K_TYPE_VERDICTS + M_CHECKS:
        def spy(*key, real=getattr(module, name), name=name):
            calls[name, key] += 1
            return real(*key)
        monkeypatch.setattr(module, name, spy)
    once = Counter({(name, ab): 1 for _, name in K_TYPE_VERDICTS
                    for ab in ((1, 0), (1, 1), (2, 0), (2, 1))})
    once.update({(name, (m,)): 1 for _, name in M_CHECKS for m in (3, 4)})
    argv = ["verify", "all", "--m", "3,4", "--a", "1,2", "--b", "0,1",
            "--dmax", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert calls == once
    # every point still prints its own line of each shared verdict
    assert out.count("PASS     radial action on symmetric coordinates (m=3)") == 4
    assert out.count("PASS     weight matrix determinant (m=4,a=2,b=1)") == 1

    # the verdicts last for one run: a broken operator in a second run of
    # the same process fails every point's scalar radial lines
    _break_radial_operator(monkeypatch)
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert calls == once + once
    for m in (3, 4):
        assert out.count(f"FAIL     radial action on symmetric coordinates (m={m})") == 4
        assert out.count(f"FAIL     scalar operator route agreement (m={m},") == 4
