"""Radial Casimir action: lowering moves, operator families, eigenfunctions."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bc2mvop import casimir, cli
from bc2mvop.casimir import (bottom_lowering_check, casimir_suite,
                             eigenvalue_agreement_check, general_lowering_check,
                             gradient_pairing_verdict, lowering_moves,
                             pde_operator_psi, pde_operator_x, radial_apply,
                             reference_table_comparison, scalar_eigen_check,
                             radial_denominator, scalar_eigenpoly,
                             scalar_radial_agreement_check, scalar_radial_psi,
                             vertical_term, xi_constants, xi_suite)
from bc2mvop.diffop import MatrixDiffOp
from bc2mvop.leading import (C_VARS, PSI_VARS, X_VARS, psi_in_c, psi_in_x,
                             x_in_psi)
from bc2mvop.lie import MsfLabel, PairParams, casimir_eigenvalue
from bc2mvop.matrices import PolyMatrix
from bc2mvop.poly import MultiPoly


def psi_vars():
    return MultiPoly.var(PSI_VARS, "psi1"), MultiPoly.var(PSI_VARS, "psi2")


def test_vertical_term_by_hand():
    # (1/(2(m+2)))(m(a+b-k)^2 - 4(a+b-k)(b+k) + m(b+k)^2) at m=3, a=1, b=0
    p = PairParams(3, 1, 0)
    assert vertical_term(p, 0) == F(3, 10)
    assert vertical_term(p, 1) == F(3, 10)
    # and an asymmetric case
    q = PairParams(3, 2, 1)
    assert vertical_term(q, 0) == F(1, 10) * (3 * 9 - 4 * 3 * 1 + 3)


def test_scalar_action_on_coordinates():
    p1, p2 = psi_vars()
    for m in (3, 4, 5):
        op = scalar_radial_psi(m)
        assert op.apply_scalar(p1) == (2 * m + 4) * p1 - 8
        assert op.apply_scalar(p2) == (4 * m + 4) * p2 - 2 * p1


def test_scalar_routes_agree():
    for m in (3, 4):
        assert scalar_radial_agreement_check(m).status == "PASS"
        assert scalar_eigen_check(m).status == "PASS"


def test_lowering_moves_shape_and_eigenvalues():
    p = PairParams(3, 1, 0)
    label = MsfLabel(0, 1, 1)
    moves = lowering_moves(p, label)
    top = casimir_eigenvalue(p, label)
    for target, coeff in moves.items():
        assert coeff != 0
        assert casimir_eigenvalue(p, target) < top


def test_reference_moves_differ_only_in_the_repeat_coefficient():
    # the stored coefficient -2 d1 (d1-1) of the (d1-2, d2+1) move is half
    # the derived one, so the comparison splits exactly when d1 >= 2
    p = PairParams(3, 1, 0)
    assert MsfLabel(0, 0, 1) not in lowering_moves(p, MsfLabel(0, 1, 0))
    assert reference_table_comparison(p, 1).status == "PASS"
    assert lowering_moves(p, MsfLabel(0, 2, 0))[MsfLabel(0, 0, 1)] == -8
    r = reference_table_comparison(p, 2)
    assert r.status == "REPORTED"
    assert "MsfLabel(i=0, d1=2, d2=0)->(0,0,1): derived -8, reference -4" in r.detail


def test_lowering_checks_green():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 2, 2)):
        assert bottom_lowering_check(params).status == "PASS"
        assert general_lowering_check(params, 2).status == "PASS"
        assert eigenvalue_agreement_check(params, 2).status == "PASS"
        assert gradient_pairing_verdict(params.a, params.b).status == "PASS"


def test_reference_table_comparison_reports():
    r = reference_table_comparison(PairParams(3, 1, 0), 2)
    assert r.status == "REPORTED"
    r1 = reference_table_comparison(PairParams(3, 1, 0), 1)
    assert r1.status == "PASS"


def test_lowering_table_off_the_documented_factor_fails(monkeypatch):
    # REPORTED means derived = 2 x reference; a derived table at 6 x the
    # reference is a FAIL naming the move
    real = casimir.lowering_moves
    monkeypatch.setattr(casimir, "lowering_moves", lambda p, label: {
        t: 3 * c for t, c in real(p, label).items()})
    r = reference_table_comparison(PairParams(3, 1, 0), 2)
    assert r.status == "FAIL"
    assert "derived -24, reference -4, not twice the reference" in r.detail


def test_radial_apply_is_linear_in_components():
    from bc2mvop.casimir import bottom_vector
    from bc2mvop.leading import C_VARS
    p = PairParams(3, 1, 0)
    v0 = bottom_vector(p, 0)
    v1 = bottom_vector(p, 1)
    a = radial_apply(p, v0)
    b = radial_apply(p, v1)
    both = radial_apply(p, tuple(x + y for x, y in zip(v0, v1)))
    assert all(x + y == z for x, y, z in zip(a, b, both))
    with pytest.raises(ValueError):
        radial_apply(p, (MultiPoly.zero(C_VARS),))
    with pytest.raises(ValueError):
        radial_apply(p, (MultiPoly.zero(PSI_VARS),) * 2)


_PSI_EXPS = [(u, v) for u in range(6) for v in range(6 - u)]


@given(st.integers(3, 6),
       st.dictionaries(st.sampled_from(_PSI_EXPS), st.integers(-9, 9),
                       min_size=1, max_size=6))
def test_radial_operator_matches_scalar_psi_operator(m, coeffs):
    # at a = b = 0 the c-side operator on f(psi(c)) is the psi-side scalar
    # operator on f, pulled back, over the radial denominator; degrees reach
    # 5, past AGREEMENT_DEG
    f = MultiPoly(PSI_VARS, coeffs)
    pc = psi_in_c()
    got = radial_apply(PairParams(m, 0, 0), [f.substitute(pc, C_VARS)])[0]
    assert got == radial_denominator() * (
        scalar_radial_psi(m).apply_scalar(f).substitute(pc, C_VARS))


def _perturb_first_order(monkeypatch, extra: MultiPoly):
    """Add extra times the identity to the (1,0) coefficient of the radial
    numerator operator."""
    real = casimir.radial_operator_c

    def perturbed(params):
        bump = PolyMatrix.identity(params.size, C_VARS).scale(extra)
        return real(params) + MatrixDiffOp(C_VARS, {(1, 0): bump})
    monkeypatch.setattr(casimir, "radial_operator_c", perturbed)


def _fail_lines(capsys):
    code = cli.main(["verify", "casimir", "--m", "3", "--a", "1", "--b", "0",
                     "--dmax", "1"])
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line.startswith("FAIL")]


def _json_results(capsys):
    cli.main(["verify", "casimir", "--m", "3", "--a", "1", "--b", "0",
              "--dmax", "1", "--format", "json"])
    return json.loads(capsys.readouterr().out)["results"]


RADIAL_CHECKS = ("radial action on symmetric coordinates",
                 "scalar operator route agreement",
                 "bottom lowering identity", "triangular recursion table")


def _assert_each_check_carries_a_residual(capsys):
    results = _json_results(capsys)
    for check in RADIAL_CHECKS:
        r = next(r for r in results if check in r["identity"])
        assert r["status"] == "FAIL"
        assert r["residual"] not in ("", "0")


def test_operator_remainder_fails_each_check(monkeypatch, capsys):
    # c1 / denominator is no polynomial: each check reports the remainder
    # as a FAIL with its label and component, not as a parameter error
    _perturb_first_order(monkeypatch, MultiPoly.var(C_VARS, "c1"))
    code, fails = _fail_lines(capsys)
    assert code == 1
    for check in RADIAL_CHECKS:
        line = next(f for f in fails if check in f)
        assert ", component " in line
    assert "label MsfLabel(" in next(f for f in fails if RADIAL_CHECKS[3] in f)
    # each of the four carries the residual numerator of that component
    _assert_each_check_carries_a_residual(capsys)


def test_exactly_dividing_operator_defect_fails(monkeypatch, capsys):
    # denominator * c1 divides exactly, so only the comparisons catch it
    _perturb_first_order(monkeypatch,
                         radial_denominator() * MultiPoly.var(C_VARS, "c1"))
    code, fails = _fail_lines(capsys)
    assert code == 1
    for check in RADIAL_CHECKS:
        line = next(f for f in fails if check in f)
        assert "non-polynomial" not in line
        assert ", component " in line
    # each of the four carries the residual of its first differing component
    _assert_each_check_carries_a_residual(capsys)


def test_radial_mismatch_residual_is_the_numerator_minus_d_want():
    # want off by c1 in component k: image - want = -c1, so the residual,
    # its numerator over D, is -D c1
    p = PairParams(3, 1, 0)
    c1 = MultiPoly.var(C_VARS, "c1")
    row = casimir.bottom_vector(p, 0)
    want = [casimir_eigenvalue(p, MsfLabel(0, 0, 0)) * q for q in row]
    for k in range(2):
        off = list(want)
        off[k] = off[k] + c1
        r = casimir._radial_mismatch("check", "i=0", p, row, off)
        assert (r.status, r.detail) == ("FAIL", f"i=0, component {k}")
        assert r.residual == str(-(radial_denominator() * c1))
    # c1 alone is outside the eigenfunction span: no want matches its image
    zero = MultiPoly.zero(C_VARS)
    r = casimir._radial_mismatch("check", "c1", p, (c1, zero), (zero, zero))
    assert r.status == "FAIL" and r.residual not in ("", "0")


def test_operator_transform_checks():
    # the x-side operator is the affine image of the psi side, and moving it
    # back returns the psi-side operator
    for p in (PairParams(3, 1, 0), PairParams(4, 2, 1)):
        assert (pde_operator_x(p).change_vars_affine(PSI_VARS, x_in_psi())
                == pde_operator_psi(p))


def test_x_family_first_order_coefficients():
    # scalar part of the x-coordinate family, first-order coefficients
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    for m in (3, 4, 5):
        op = pde_operator_x(PairParams(m, 0, 0))
        c10 = op.coeff((1, 0)).entry(0, 0)
        c01 = op.coeff((0, 1)).entry(0, 0)
        assert c10 == 2 * ((m + 2) * x1 + 2 * m - 4)
        assert c01 == 2 * ((m - 2) * x1 + 2 + (2 * m + 2) * x2)
        # and the second-order coefficients, which do not depend on m
        assert op.coeff((2, 0)).entry(0, 0) == 2 * x1 * x1 - 4 * x2 - 4
        assert op.coeff((0, 2)).entry(0, 0) == \
            -2 * x1 * x1 + 4 * x2 * x2 + 4 * x2
        assert op.coeff((1, 1)).entry(0, 0) == 4 * x1 * x2 - 4 * x1
        # at a = b = 0 the operator is its scalar part alone
        r0x = scalar_radial_psi(m).change_vars_affine(X_VARS, psi_in_x())
        assert op == r0x


def test_scalar_eigenpolys_low_degree():
    m = 4
    phi1 = scalar_eigenpoly(m, (1, 0))
    p1, p2 = psi_vars()
    # ((m+2) psi1 - 4)/(2m), normalized to 1 at the identity point
    assert phi1 == F(1, 2 * m) * ((m + 2) * p1 - 4)
    phi2 = scalar_eigenpoly(m, (0, 1))
    want = (F(1, m * (m - 1)) *
            (m * (m + 1) * p2 - (m + 1) * p1 + 2))
    assert phi2 == want


def test_xi_constants_by_hand():
    data = xi_constants(4)
    assert data["psi1"] == (F(2, 3), F(4, 3))
    assert data["psi2"] == (F(1, 15), F(1, 3), F(3, 5))
    assert sum(data["psi2"]) == 1
    for m in (3, 5):
        t0, t1, t2 = xi_constants(m)["psi2"]
        assert (t0, t1, t2) == (F(2, (m + 1) * (m + 2)), F(2, m + 2),
                                F(m - 1, m + 1))


def test_xi_suite_statuses():
    statuses = [r.status for r in xi_suite(4)]
    assert statuses.count("FAIL") == 0
    assert statuses.count("REPORTED") == 2


def _xi_status(monkeypatch, key, mutate, name):
    real = casimir.xi_references
    monkeypatch.setattr(casimir, "xi_references",
                        lambda m: {**real(m), key: mutate(real(m)[key])})
    return next(r.status for r in xi_suite(4) if r.name.startswith(name))


def test_second_constants_reference_summing_to_one_fails(monkeypatch):
    # REPORTED means the derived constants sum to 1 and the stored ones do
    # not; a stored triple that sums to 1 and still differs is a FAIL
    assert _xi_status(monkeypatch, "psi2", lambda ref: (F(0), F(0), F(1)),
                      "second coordinate expansion constants") == "FAIL"


def test_first_inversion_reference_off_by_other_factor_fails(monkeypatch):
    # REPORTED means the stored inversion is twice the solved one
    assert _xi_status(monkeypatch, "phi1", lambda ref: 3 * ref / 2,
                      "first eigenfunction inversion") == "FAIL"


@pytest.mark.parametrize("params,dmax", [(PairParams(3, 0, 0), 2),
                                         (PairParams(3, 2, 1), 2),
                                         (PairParams(4, 1, 0), 3)],
                         ids=lambda v: str(v))
def test_casimir_suite_no_failures(params, dmax):
    results = casimir_suite(params, dmax, {})
    bad = [r for r in results if r.status == "FAIL"]
    assert not bad, [(r.name, r.detail) for r in bad]
