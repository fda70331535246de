"""Matrix differential operators with right-side coefficient action."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bc2mvop.diffop import ALLOWED_IDX, MatrixDiffOp
from bc2mvop.leading import PSI_VARS, X_VARS, psi_in_x, x_in_psi
from bc2mvop.matrices import PolyMatrix
from bc2mvop.poly import MultiPoly

PV = ("psi1", "psi2")
XV = ("x1", "x2")


def psi_vars():
    return MultiPoly.var(PV, "psi1"), MultiPoly.var(PV, "psi2")


def test_scalar_op_derivative():
    p1, _ = psi_vars()
    op = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    assert op.apply_scalar(p1 * p1) == 2 * p1


def test_scalar_op_with_polynomial_coefficient():
    p1, p2 = psi_vars()
    # p1 d/dp2 acting on p2^2 gives 2 p1 p2
    op = MatrixDiffOp.scalar_op(PV, {(0, 1): p1})
    assert op.apply_scalar(p2 * p2) == 2 * p1 * p2


def test_right_side_matrix_action():
    p1, p2 = psi_vars()
    C = PolyMatrix.from_scalar_rows(PV, [[0, 1], [0, 0]])
    op = MatrixDiffOp(PV, {(1, 0): C})
    F_ = PolyMatrix.from_rows([[p1, p2], [p2, p1 * p1]])
    out = op.apply(F_)
    # rows of dF/dpsi1 are pushed into the second column
    assert out.entry(0, 0).is_zero
    assert out.entry(0, 1) == MultiPoly.one(PV)
    assert out.entry(1, 0).is_zero
    # row 1 of the derivative is (0, 2 psi1); C routes only column 0 into
    # column 1, so the whole bottom row dies
    assert out.entry(1, 1).is_zero


def test_lift_acts_entrywise():
    p1, p2 = psi_vars()
    scal = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV), (0, 0): p2})
    op = scal.lift(2)
    F_ = PolyMatrix.from_rows([[p1 * p1, p1], [p2, MultiPoly.one(PV)]])
    out = op.apply(F_)
    for i in range(2):
        for j in range(2):
            e = F_.entry(i, j)
            assert out.entry(i, j) == e.derive("psi1") + p2 * e


def test_add_and_scale():
    op1 = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    op2 = MatrixDiffOp.scalar_op(PV, {(0, 1): MultiPoly.one(PV)})
    p1, p2 = psi_vars()
    combined = op1 + op2.scale(F(3))
    assert combined.apply_scalar(p1 + p2) == MultiPoly.const(PV, 4)


def test_affine_change_of_variables():
    # x1 = 2 psi1 - 2, x2 = 4 psi2 - 2 psi1 + 1
    x1 = MultiPoly.var(XV, "x1")
    x2 = MultiPoly.var(XV, "x2")
    one = MultiPoly.one(XV)
    backsub = {"psi1": F(1, 2) * x1 + one,
               "psi2": F(1, 4) * (x1 + x2 + one)}
    d_psi1 = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    moved = d_psi1.change_vars_affine(XV, backsub)
    # d/dpsi1 = 2 d/dx1 - 2 d/dx2
    assert moved.apply_scalar(x1) == MultiPoly.const(XV, 2)
    assert moved.apply_scalar(x2) == MultiPoly.const(XV, -2)
    assert moved.apply_scalar(x1 * x2) == 2 * x2 - 2 * x1

    d_psi2 = MatrixDiffOp.scalar_op(PV, {(0, 1): MultiPoly.one(PV)})
    moved2 = d_psi2.change_vars_affine(XV, backsub)
    assert moved2.apply_scalar(x1).is_zero
    assert moved2.apply_scalar(x2) == MultiPoly.const(XV, 4)


def test_coeff_lookup():
    p1, _ = psi_vars()
    op = MatrixDiffOp.scalar_op(PV, {(2, 0): p1})
    assert op.coeff((2, 0)) is not None
    assert (2, 0) in op.coeffs


# ---- properties of the affine change, on random small operators ----

_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=3,
).map(lambda terms: MultiPoly(PSI_VARS, terms))


@st.composite
def _operators(draw):
    n = draw(st.integers(1, 2))
    idxs = draw(st.sets(st.sampled_from(sorted(ALLOWED_IDX)), min_size=1))
    return MatrixDiffOp(PSI_VARS, {
        idx: PolyMatrix(n, n, draw(st.lists(_polys, min_size=n * n, max_size=n * n)))
        for idx in idxs})


@given(_operators())
def test_affine_change_then_its_inverse_is_the_identity(op):
    there = op.change_vars_affine(X_VARS, psi_in_x())
    assert there.change_vars_affine(PSI_VARS, x_in_psi()) == op


@given(_operators(), st.data())
def test_affine_change_commutes_with_the_action(op, data):
    rows = data.draw(st.integers(1, 2))
    F_ = PolyMatrix(rows, op.size, data.draw(
        st.lists(_polys, min_size=rows * op.size, max_size=rows * op.size)))
    moved = op.change_vars_affine(X_VARS, psi_in_x())
    assert (moved.apply(F_.substitute(psi_in_x(), X_VARS))
            == op.apply(F_).substitute(psi_in_x(), X_VARS))


def test_affine_change_refuses_a_non_affine_or_singular_substitution():
    op = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    x1 = MultiPoly.var(XV, "x1")
    x2 = MultiPoly.var(XV, "x2")
    with pytest.raises(ValueError, match="not a constant polynomial"):
        op.change_vars_affine(XV, {"psi1": x1 * x1, "psi2": x2})
    with pytest.raises(ValueError, match="matrix is singular"):
        op.change_vars_affine(XV, {"psi1": x1 + x2, "psi2": 2 * x1 + 2 * x2})
