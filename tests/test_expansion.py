"""Transition matrices, triangular expansion, matrix polynomials, duality."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from bc2mvop.expansion import (L_matrices, d_coeffs, d_recursion_check,
                               diagonal_degree_check, dual_bottom_check,
                               dual_eigenvalue_check, dual_involution_check,
                               dual_pde_check, duality_suite,
                               inverse_reference_check, matrix_op,
                               normalization_check, pde_check, pde_suite,
                               phi_expansion, phi_zero_check, poly_matrix_psi,
                               poly_matrix_x, transition_suite)
from bc2mvop.lie import MsfLabel, PairParams
from bc2mvop.matrices import frac_identity, frac_matmul
from bc2mvop.poly import MultiPoly


def test_d_coeffs_small_cases():
    p = PairParams(3, 1, 0)
    assert d_coeffs(p, 0) == [F(1)]
    # i=1, b=0: (-1/m, (m+1)/m)
    assert d_coeffs(p, 1) == [F(-1, 3), F(4, 3)]
    q = PairParams(4, 1, 0)
    assert d_coeffs(q, 1) == [F(-1, 4), F(5, 4)]


def test_d_coeffs_sum_to_one():
    for params in (PairParams(3, 2, 1), PairParams(4, 3, 0), PairParams(5, 2, 2)):
        for i in range(params.a + 1):
            assert sum(d_coeffs(params, i)) == 1, (params, i)


def test_transition_matrix_and_inverse():
    p = PairParams(3, 1, 0)
    L, Linv = L_matrices(p)
    assert L == ((F(1), F(0)), (F(-1, 3), F(4, 3)))
    assert Linv == ((F(1), F(0)), (F(1, 4), F(3, 4)))
    assert frac_matmul(L, Linv) == frac_identity(2)


def test_transition_is_lower_triangular_with_positive_diagonal():
    for params in (PairParams(3, 2, 1), PairParams(4, 3, 2)):
        L, _ = L_matrices(params)
        n = params.size
        for i in range(n):
            assert L[i][i] > 0
            for j in range(i + 1, n):
                assert L[i][j] == 0


def test_transition_checks():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 3, 2)):
        results = transition_suite(params)
        bad = [r for r in results if r.status == "FAIL"]
        assert not bad, [(r.name, r.detail) for r in bad]
    assert d_recursion_check(PairParams(3, 2, 1)).status == "PASS"


def test_inverse_reference_reported_for_nontrivial_sizes():
    assert inverse_reference_check(PairParams(3, 0, 0)).status == "PASS"
    r = inverse_reference_check(PairParams(3, 1, 0))
    assert r.status == "REPORTED"
    assert "shift" in r.detail


def test_phi_expansion_scalar_case_by_hand():
    p = PairParams(3, 0, 0)
    coeffs = phi_expansion(p, MsfLabel(0, 1, 0))
    assert coeffs == {MsfLabel(0, 1, 0): F(5, 6), MsfLabel(0, 0, 0): F(-2, 3)}


def test_phi_expansion_degree_zero_reproduces_transition_rows():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1)):
        assert phi_zero_check(params).status == "PASS"
        L, _ = L_matrices(params)
        for i in range(params.size):
            coeffs = phi_expansion(params, MsfLabel(i, 0, 0))
            for j in range(params.size):
                want = L[i][j]
                got = coeffs.get(MsfLabel(j, 0, 0), F(0))
                assert got == want, (params, i, j)


def test_phi_expansion_invariants_survive_optimized_mode():
    # python -O strips bare asserts; a lowering move that raises the
    # eigenvalue must still stop the expansion
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from bc2mvop import expansion
        from bc2mvop.lie import MsfLabel, PairParams

        if not sys.flags.optimize:
            sys.exit(3)
        real = expansion.lowering_moves

        def corrupted(params, label):
            moves = dict(real(params, label))
            if label == MsfLabel(0, 1, 0):     # a move up, to (0, 2, 0)
                moves[MsfLabel(0, 2, 0)] = Fraction(1)
            return moves

        expansion.lowering_moves = corrupted
        try:
            expansion.phi_expansion(PairParams(3, 1, 0), MsfLabel(0, 1, 0))
        except AssertionError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "does not lower the eigenvalue" in proc.stdout


def test_polynomials_have_unit_row_sums_at_identity():
    for params in (PairParams(3, 1, 0), PairParams(4, 2, 1)):
        assert normalization_check(params, 2).status == "PASS"
        assert diagonal_degree_check(params, 2).status == "PASS"


def test_matrix_polynomials_degree_zero_are_transition_matrices():
    p = PairParams(3, 1, 0)
    mat = poly_matrix_x(p, (0, 0))
    L, _ = L_matrices(p)
    for i in range(2):
        for j in range(2):
            e = mat.entry(i, j)
            assert e.is_constant() or e.is_zero
            val = F(0) if e.is_zero else e.constant_value()
            assert val == L[i][j]


def test_psi_and_x_polynomials_are_the_same_object():
    from bc2mvop.leading import psi_in_x, X_VARS
    p = PairParams(3, 1, 0)
    d = (1, 1)
    assert (poly_matrix_psi(p, d).substitute(psi_in_x(), X_VARS)
            == poly_matrix_x(p, d))


def test_pde_holds_in_both_coordinate_systems():
    for params, d in ((PairParams(3, 1, 0), (1, 0)),
                      (PairParams(3, 2, 1), (0, 1)),
                      (PairParams(4, 1, 2), (1, 1))):
        r = pde_check(params, d)
        assert r.status == "PASS", (r.name, r.detail)


def test_pde_suite_no_failures():
    results = pde_suite(PairParams(3, 1, 0), 2)
    assert all(r.status != "FAIL" for r in results)


def test_matrix_op_bundle():
    p = PairParams(3, 1, 0)
    op = matrix_op(p, (1, 0))
    assert op.params == p
    assert op.d == (1, 0)
    assert op.psi.rows == 2 and op.x.rows == 2


def test_duality_checks():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1)):
        assert dual_bottom_check(params).status == "PASS"
        assert dual_eigenvalue_check(params, 2).status == "PASS"
        assert dual_involution_check(params).status == "PASS"
        assert dual_pde_check(params, 1).status == "PASS"


def test_duality_suite_no_failures():
    results = duality_suite(PairParams(3, 1, 0), 2)
    assert all(r.status != "FAIL" for r in results)
