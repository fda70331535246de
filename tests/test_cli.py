"""Command-line interface: exit codes, payloads, determinism."""

import json
import subprocess
import sys

import pytest

from bc2mvop import cli
from bc2mvop.leading import weight_matrix_psi, weight_matrix_x
from bc2mvop.expansion import poly_matrix_x
from bc2mvop.lie import PairParams
from bc2mvop.matrices import PolyMatrix


def run_cli(argv, capsys):
    code = cli.main(argv)
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


def test_verify_json_format(capsys):
    code, out, _ = run_cli(["verify", "krawtchouk", "--m", "3", "--a", "0",
                            "--b", "0", "--N", "2", "--p", "1/2", "--format",
                            "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == 12
    assert all("identity" in r for r in payload["results"])


@pytest.mark.parametrize("argv", [
    ["verify", "orthogonality", "--dmax", "-1"],
    ["verify", "casimir", "--dmax", "-1"],
    ["verify", "pde", "--dmax", "-1"],
    ["verify", "krawtchouk", "--N", "-1"],
    ["verify", "krawtchouk", "--p", ","],
    ["verify", "krawtchouk", "--p", "0"],
], ids=["orthogonality-dmax", "casimir-dmax", "pde-dmax", "krawtchouk-N",
        "empty-p", "zero-p"])
def test_verify_degenerate_input_is_parameter_error(argv, capsys):
    code, out, err = run_cli(argv + ["--m", "3", "--a", "0", "--b", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:")


def test_verify_run_without_checks_is_parameter_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_verify_jobs", lambda args, grid: [])
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
    assert mat == weight_matrix_x(PairParams(3, 1, 0))


def test_weight_psi_coords(capsys):
    code, out, _ = run_cli(["weight", "--m", "3", "--a", "2", "--b", "1",
                            "--coords", "psi"], capsys)
    assert code == 0
    mat = PolyMatrix.from_json(json.loads(out)["matrix"])
    assert mat == weight_matrix_psi(PairParams(3, 2, 1))


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


def test_export_json_matches_subcommand(capsys):
    code, direct, _ = run_cli(["weight", "--m", "3", "--a", "1", "--b", "0"], capsys)
    assert code == 0
    code, via_export, _ = run_cli(["export", "--kind", "weight", "--m", "3",
                                   "--a", "1", "--b", "0"], capsys)
    assert code == 0
    assert direct == via_export


def test_export_csv_grid(tmp_path, capsys):
    out1 = tmp_path / "grid1.csv"
    out2 = tmp_path / "grid2.csv"
    for out in (out1, out2):
        code = cli.main(["export", "--kind", "weight", "--m", "3", "--a", "1",
                         "--b", "0", "--format", "csv", "--out", str(out)])
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
    code = cli.main(["export", "--kind", "polys", "--m", "3", "--a", "0",
                     "--b", "0", "--d", "1,0", "--format", "csv",
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,entry_0_0,in_region"
    assert len(lines) == 1001


def test_verify_deterministic_bytes(tmp_path, capsys):
    argv = ["verify", "weight", "--m", "3", "--a", "0,1", "--b", "0",
            "--format", "json"]
    code, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code == code2 == 0
    assert out1 == out2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "bc2mvop.cli", "dims", "--m",
                           "3", "--a", "1", "--b", "0", "--label", "1,0,0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] > 1
