"""Radial Casimir action: lowering moves, operator families, eigenfunctions."""

from fractions import Fraction as F

import pytest

from bc2mvop.casimir import (bottom_lowering_check, casimir_suite,
                             cmu_reference_check, eigenvalue_agreement_check,
                             full_transform_check, general_lowering_check,
                             gradient_pairing_check, lowering_moves,
                             lowering_moves_reference, r0_transform_check,
                             radial_apply, reference_table_comparison,
                             scalar_eigen_check, scalar_eigenpoly,
                             scalar_radial_agreement_check, scalar_radial_psi,
                             vertical_term, x_operator_family, xi_constants,
                             xi_suite)
from bc2mvop.leading import PSI_VARS, X_VARS
from bc2mvop.lie import MsfLabel, PairParams, casimir_eigenvalue
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
    # the two tables split exactly when the first degree repeats twice or more
    p = PairParams(3, 1, 0)
    lo = MsfLabel(0, 1, 0)
    assert lowering_moves(p, lo) == lowering_moves_reference(p, lo)
    hi = MsfLabel(0, 2, 0)
    ours = lowering_moves(p, hi)
    ref = lowering_moves_reference(p, hi)
    diff = {k for k in set(ours) | set(ref) if ours.get(k) != ref.get(k)}
    assert diff == {MsfLabel(0, 0, 1)}
    assert ours[MsfLabel(0, 0, 1)] == 2 * ref[MsfLabel(0, 0, 1)]


def test_lowering_checks_green():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 2, 2)):
        assert bottom_lowering_check(params).status == "PASS"
        assert general_lowering_check(params, 2).status == "PASS"
        assert eigenvalue_agreement_check(params, 2).status == "PASS"
        assert gradient_pairing_check(params).status == "PASS"


def test_reference_table_comparison_reports():
    r = reference_table_comparison(PairParams(3, 1, 0), 2)
    assert r.status == "REPORTED"
    r1 = reference_table_comparison(PairParams(3, 1, 0), 1)
    assert r1.status == "PASS"


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
    # c1 alone is outside the eigenfunction span: the denominators stay
    c1 = MultiPoly.var(C_VARS, "c1")
    with pytest.raises(ValueError, match="outside the eigenfunction span"):
        radial_apply(p, (c1, MultiPoly.zero(C_VARS)))


def test_operator_transform_checks():
    for m in (3, 4):
        assert r0_transform_check(m).status == "PASS"
    r = cmu_reference_check(PairParams(3, 1, 0))
    assert r.status == "REPORTED"
    assert full_transform_check(PairParams(3, 1, 0)).status == "PASS"
    assert full_transform_check(PairParams(4, 2, 1)).status == "PASS"


def test_x_family_first_order_coefficients():
    # scalar part of the x-coordinate family, first-order coefficients
    for m in (3, 4, 5):
        fam = x_operator_family(PairParams(m, 0, 0))
        x1 = MultiPoly.var(X_VARS, "x1")
        x2 = MultiPoly.var(X_VARS, "x2")
        c10 = fam.r0_x.coeff((1, 0)).entry(0, 0)
        c01 = fam.r0_x.coeff((0, 1)).entry(0, 0)
        assert c10 == 2 * ((m + 2) * x1 + 2 * m - 4)
        assert c01 == 2 * ((m - 2) * x1 + 2 + (2 * m + 2) * x2)


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


@pytest.mark.parametrize("params,dmax", [(PairParams(3, 0, 0), 2),
                                         (PairParams(3, 2, 1), 2),
                                         (PairParams(4, 1, 0), 3)],
                         ids=lambda v: str(v))
def test_casimir_suite_no_failures(params, dmax):
    results = casimir_suite(params, dmax)
    bad = [r for r in results if r.status == "FAIL"]
    assert not bad, [(r.name, r.detail) for r in bad]
