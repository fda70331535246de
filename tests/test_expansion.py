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
from bc2mvop.casimir import lowering_moves
from bc2mvop.lie import MsfLabel, PairParams, casimir_eigenvalue, labels_up_to
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
    # the lowering graph behind it is cached: editing a result changes
    # nothing in the next call
    coeffs.clear()
    assert phi_expansion(p, MsfLabel(0, 1, 0)) == \
        {MsfLabel(0, 1, 0): F(5, 6), MsfLabel(0, 0, 0): F(-2, 3)}
    assert list(phi_expansion(p, MsfLabel(0, 1, 0))) == \
        [MsfLabel(0, 1, 0), MsfLabel(0, 0, 0)]


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


def _fraction_sweep(params, label):
    """The triangular sweep in Fraction arithmetic, over labels keyed by
    MsfLabel: the reference for the integer sweep of phi_expansion."""
    nodes = sorted(((lab, casimir_eigenvalue(params, lab), lowering_moves(params, lab))
                    for lab in labels_up_to(params, label.d1 + label.d2)),
                   key=lambda t: (-t[1], t[0].i, t[0].d1, t[0].d2))
    top = casimir_eigenvalue(params, label)
    e = {label: F(1)}
    acc = dict(lowering_moves(params, label))
    for lab, c, moves in nodes:
        if lab not in acc:
            continue
        coeff = acc.pop(lab) / (top - c)
        if coeff == 0:
            continue
        e[lab] = coeff
        for tgt, w in moves.items():
            acc[tgt] = acc.get(tgt, 0) + coeff * w
    assert not acc
    total = sum(c * 2 ** lab.d1 for lab, c in e.items())
    return {lab: c / total for lab, c in e.items()}


@pytest.mark.parametrize("params", [PairParams(3, 0, 0), PairParams(3, 2, 0),
                                    PairParams(4, 0, 3), PairParams(5, 3, 2),
                                    PairParams(8, 1, 0), PairParams(8, 4, 1)],
                         ids=lambda p: p.tag())
def test_integer_sweep_matches_the_fraction_sweep(params):
    for label in labels_up_to(params, 4):
        got = phi_expansion(params, label)
        want = _fraction_sweep(params, label)
        # the same coefficients, in the same key order
        assert list(got.items()) == list(want.items()), label
        assert all(type(c) is F for c in got.values())


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a script under python -O with the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)


_CORRUPTED_MOVE = """
    import sys
    from bc2mvop import expansion
    from bc2mvop.lie import MsfLabel, PairParams

    if not sys.flags.optimize:
        sys.exit(3)
    real = expansion.lowering_moves

    def corrupted(params, label):
        moves = dict(real(params, label))
        if label == MsfLabel{source}:
            moves[MsfLabel{target}] = 1
        return moves

    expansion.lowering_moves = corrupted
    {patch}
    try:
        expansion.phi_expansion(PairParams{params}, MsfLabel{source})
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
"""


@pytest.mark.parametrize("source, target, message", [
    # a move up, to a label outside the degree-1 graph
    pytest.param((0, 1, 0), (0, 2, 0), "does not lower the eigenvalue",
                 id="eigenvalue"),
    # lowers the eigenvalue, but (1,2,0) is not below (0,0,2) in dominance
    pytest.param((0, 0, 2), (1, 2, 0), "does not lower the weight",
                 id="weight"),
])
def test_phi_expansion_invariants_survive_optimized_mode(source, target,
                                                         message):
    # python -O strips bare asserts; a lowering move that breaks either
    # order must still stop the expansion
    proc = _run_optimized(textwrap.dedent(_CORRUPTED_MOVE).format(
        source=source, target=target, params=(3, 1, 0), patch=""))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert message in proc.stdout


def test_move_out_of_the_graph_is_refused_in_optimized_mode():
    # (3,0,0) -> (0,1,0) at a = 3 lowers the eigenvalue, and with the
    # dominance test switched off it passes both checks, but its target has
    # degree 1, outside the degree-0 graph: an AssertionError, not KeyError
    proc = _run_optimized(textwrap.dedent(_CORRUPTED_MOVE).format(
        source=(3, 0, 0), target=(0, 1, 0), params=(3, 3, 0),
        patch="expansion.dominance_leq = lambda w1, w2: True"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "leaves the degree-0 lowering graph" in proc.stdout


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


def test_non_integral_degree_pair_is_refused():
    # truncating turned (1.5, 0.7) into the degree (1, 0)
    p = PairParams(3, 1, 0)
    for d in ((1.5, 0.7), (F(1, 2), 0), (1, 0.0)):
        with pytest.raises(ValueError, match="non-integral"):
            matrix_op(p, d)


def test_degree_pair_of_wrong_length_or_sign_is_refused():
    p = PairParams(3, 1, 0)
    for d in ((1,), (1, 0, 0), (-1, 0), 1):
        with pytest.raises(ValueError, match="degree pair"):
            matrix_op(p, d)


def test_duality_checks():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1)):
        assert dual_bottom_check(params).status == "PASS"
        assert dual_eigenvalue_check(params, 2).status == "PASS"
        assert dual_involution_check(params).status == "PASS"
        assert dual_pde_check(params, 1).status == "PASS"


def test_duality_suite_no_failures():
    results = duality_suite(PairParams(3, 1, 0), 2)
    assert all(r.status != "FAIL" for r in results)
