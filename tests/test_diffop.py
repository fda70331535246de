"""Matrix differential operators with right-side coefficient action."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from bc2mvop.casimir import radial_operator_c
from bc2mvop.diffop import ALLOWED_IDX, MatrixDiffOp
from bc2mvop.leading import PSI_VARS, X_VARS, psi_in_x, x_in_psi
from bc2mvop.lie import PairParams
from bc2mvop.matrices import PolyMatrix, frac_det, frac_invert
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


def test_cached_operator_coefficients_are_read_only():
    # radial_operator_c is cached per parameter triple: an assignment into
    # its coefficients would change the operator for every later caller
    op = radial_operator_c(PairParams(3, 1, 0))
    before = op.apply(PolyMatrix(1, 2, [MultiPoly.var(op.vars, "c1")] * 2))
    with pytest.raises(TypeError):
        op.coeffs[(0, 0)] = PolyMatrix.zeros(2, 2, op.vars)
    with pytest.raises(TypeError):
        del op.coeffs[(2, 0)]
    assert op.apply(PolyMatrix(1, 2, [MultiPoly.var(op.vars, "c1")] * 2)) == before


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


@st.composite
def _constant_invertible(draw, n):
    """The flip J of size n, or an invertible constant matrix, as rows."""
    if draw(st.booleans()):
        return [[F(int(i + j == n - 1)) for j in range(n)] for i in range(n)]
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n)
                .filter(lambda rows: frac_det(rows) != 0))


@given(_operators(), st.data())
def test_conjugating_the_coefficients_commutes_with_the_action(op, data):
    # (P^-1 E P)(F P) = E(F) P for a constant invertible P: with P = J this
    # is what the dual-family equation adds to the psi-side one
    n = op.size
    rows = data.draw(_constant_invertible(n))
    P = PolyMatrix.from_scalar_rows(PSI_VARS, rows)
    P_inv = PolyMatrix.from_scalar_rows(PSI_VARS, frac_invert(rows))
    k = data.draw(st.integers(1, 2))
    F_ = PolyMatrix(k, n, data.draw(
        st.lists(_polys, min_size=k * n, max_size=k * n)))
    moved = MatrixDiffOp(PSI_VARS, {
        (0, 0): PolyMatrix.zeros(n, n, PSI_VARS),
        **{idx: P_inv @ c @ P for idx, c in op.coeffs.items()}})
    assert moved.apply(F_ @ P) == op.apply(F_) @ P


def test_affine_change_refuses_a_non_affine_or_singular_substitution():
    op = MatrixDiffOp.scalar_op(PV, {(1, 0): MultiPoly.one(PV)})
    x1 = MultiPoly.var(XV, "x1")
    x2 = MultiPoly.var(XV, "x2")
    with pytest.raises(ValueError, match="not a constant polynomial"):
        op.change_vars_affine(XV, {"psi1": x1 * x1, "psi2": x2})
    with pytest.raises(ValueError, match="matrix is singular"):
        op.change_vars_affine(XV, {"psi1": x1 + x2, "psi2": 2 * x1 + 2 * x2})


# ---- the integer action against a Fraction reference ----

def _reference_apply(op, F_):
    """sum_idx (d^idx F) @ coeff[idx], in Fraction arithmetic."""
    u, v = op.vars
    acc = PolyMatrix.zeros(F_.rows, F_.cols, op.vars)
    for (i1, i2), mat in op.coeffs.items():
        dF = F_
        for name, times in ((u, i1), (v, i2)):
            for _ in range(times):
                dF = dF.map_entries(lambda e, name=name: e.derive(name))
        acc = acc + dF @ mat
    return acc


# exponents up to 3, so second derivatives keep terms, and denominators up
# to 12, so entries lie over unequal denominators; an empty dict is a zero
_wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=4,
).map(lambda terms: MultiPoly(PSI_VARS, terms))


@st.composite
def _operators_and_functions(draw):
    n = draw(st.integers(1, 3))
    op = MatrixDiffOp(PSI_VARS, {
        idx: PolyMatrix(n, n, draw(st.lists(_wide_polys, min_size=n * n,
                                            max_size=n * n)))
        for idx in sorted(ALLOWED_IDX)})
    rows = draw(st.integers(1, 2))
    F_ = PolyMatrix(rows, n, draw(st.lists(_wide_polys, min_size=rows * n,
                                           max_size=rows * n)))
    return op, F_


def _mono(exp, c):
    return MultiPoly.monomial(PSI_VARS, exp, c)


_ZERO = MultiPoly.zero(PSI_VARS)


@given(_operators_and_functions())
@example((  # a 1x3 row as radial_apply passes it, over unequal denominators
    MatrixDiffOp(PSI_VARS, {
        (2, 0): PolyMatrix(3, 3, [_mono((1, 0), F(1, 3)), _ZERO, _ZERO,
                                  _ZERO, _mono((0, 2), F(-2, 5)), _ZERO,
                                  _ZERO, _ZERO, _mono((0, 0), F(7, 4))]),
        (1, 1): PolyMatrix(3, 3, [_ZERO, _mono((2, 1), F(5, 6)), _ZERO,
                                  _mono((0, 0), F(1, 9)), _ZERO, _ZERO,
                                  _ZERO, _ZERO, _ZERO]),
        (0, 0): PolyMatrix(3, 3, [_mono((0, 0), F(3, 7))] * 9)}),
    PolyMatrix(1, 3, [_mono((3, 2), F(2, 11)) + _mono((1, 1), F(5, 8)),
                      _ZERO, _mono((2, 3), F(-4, 3))])))
def test_apply_matches_the_fraction_reference(op_and_F):
    op, F_ = op_and_F
    assert op.apply(F_) == _reference_apply(op, F_)
