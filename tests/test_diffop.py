"""Matrix differential operators with right-side coefficient action."""

from fractions import Fraction as F

from bc2mvop.diffop import MatrixDiffOp
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
    jac = {"psi1": {"x1": F(2), "x2": F(-2)}, "psi2": {"x1": F(0), "x2": F(4)}}
    x1 = MultiPoly.var(XV, "x1")
    x2 = MultiPoly.var(XV, "x2")
    one = MultiPoly.one(XV)
    backsub = {"psi1": F(1, 2) * x1 + one,
               "psi2": F(1, 4) * (x1 + x2 + one)}
    d_psi1 = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    moved = d_psi1.change_vars_affine(XV, jac, backsub)
    # d/dpsi1 = 2 d/dx1 - 2 d/dx2
    assert moved.apply_scalar(x1) == MultiPoly.const(XV, 2)
    assert moved.apply_scalar(x2) == MultiPoly.const(XV, -2)
    assert moved.apply_scalar(x1 * x2) == 2 * x2 - 2 * x1

    d_psi2 = MatrixDiffOp.scalar_op(PV, {(0, 1): MultiPoly.one(PV)})
    moved2 = d_psi2.change_vars_affine(XV, jac, backsub)
    assert moved2.apply_scalar(x1).is_zero
    assert moved2.apply_scalar(x2) == MultiPoly.const(XV, 4)


def test_coeff_lookup():
    p1, _ = psi_vars()
    op = MatrixDiffOp.scalar_op(PV, {(2, 0): p1})
    assert op.coeff((2, 0)) is not None
    assert (2, 0) in op.coeffs
