r"""From bottom vectors to the full polynomial families.

The chain implemented here:

* closed-form expansion coefficients of the lowest spherical vectors in the
  leading-term rows, and the constant transition matrix they assemble into;
* the triangular eigenfunction expansion for an arbitrary label, driven by
  the seven-move lowering table (each coefficient is forced by the eigenvalue
  equation, denominators are differences of Casimir eigenvalues);
* the matrix polynomial family in (psi1, psi2) and in (x1, x2) built by
  grouping an expansion by bottom index;
* the eigenvalue equation for the assembled operator family, in both
  coordinate systems;
* the dual-parameter family, realized by flip conjugation, with eigenvalues
  cross-checked against directly computed dual weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .casimir import (lambda_d_matrix, lowering_moves, pde_operator_psi,
                      pde_operator_x)
from .diffop import MatrixDiffOp
from .krawtchouk import poch
from .leading import PSI_VARS, X_VARS, psi_in_x
from .lie import (MsfLabel, PairParams, bottom_weight, casimir_eigenvalue,
                  casimir_eigenvalue_ip, check_label, dominance_leq,
                  dualize, label_weight, labels_up_to)
from .matrices import (PolyMatrix, conjugate_flip, frac_identity, frac_invert,
                       frac_matmul)
from .poly import MultiPoly
from .report import CheckResult, FAIL, PASS, REPORTED


def d_coeffs(params: PairParams, i: int) -> list[Fraction]:
    """Coefficients of the lowest spherical vector i over leading-term rows
    0..i.  Normalized so the coefficients sum to 1."""
    if not 0 <= i <= params.a:
        raise ValueError(f"index {i} out of range 0..{params.a}")
    m, b = params.m, params.b
    top = poch(m + b + i, i) / poch(m, i)
    out = []
    for r in range(i + 1):
        k = i - r
        out.append(top * poch(-i, k) * poch(-i - b, k)
                   / (poch(1, k) * poch(1 - m - 2 * i - b, k)))
    return out


@lru_cache(maxsize=None)
def L_matrices(params: PairParams) -> tuple[tuple[tuple[Fraction, ...], ...],
                                            tuple[tuple[Fraction, ...], ...]]:
    """The constant lower-triangular transition matrix and its exact inverse.

    The inverse is computed by exact elimination, not from the closed-form
    display: see inverse_closed_reference for the comparison.
    """
    m, a, b = params.m, params.a, params.b
    L = [[Fraction(0)] * (a + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(i + 1):
            L[i][j] = ((-1) ** (i + j) * comb(i, j)
                       * poch(m + b + i, i) / poch(m, i)
                       * poch(b + j + 1, i - j) / poch(m + i + j + b, i - j))
    Linv = frac_invert(L)
    return (tuple(map(tuple, L)), tuple(map(tuple, Linv)))


def inverse_closed_reference(params: PairParams) -> list[list[Fraction]]:
    """Stored closed form for the inverse transition matrix, as printed."""
    return _inverse_closed(params, -1)


def inverse_closed_corrected(params: PairParams) -> list[list[Fraction]]:
    """Same display with the second Pochhammer base shifted by +2; this is
    the form that actually inverts the transition matrix."""
    return _inverse_closed(params, +1)


def _inverse_closed(params: PairParams, last: int) -> list[list[Fraction]]:
    m, a, b = params.m, params.a, params.b
    out = [[Fraction(0)] * (a + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(i + 1):
            out[i][j] = (Fraction(comb(i, j))
                         * poch(m, j) / poch(m + b + j, j)
                         * poch(b + j + 1, i - j) / poch(m + 2 * j + b + last, i - j))
    return out


def d_recursion_check(params: PairParams) -> CheckResult:
    """Contiguous-coefficient recursion and sum-to-1 for every index."""
    name = f"lowest-vector coefficient recursion {params.tag()}"
    m, b = params.m, params.b
    for i in range(params.size):
        d = d_coeffs(params, i)
        if sum(d) != 1:
            return CheckResult(name, FAIL, f"i={i}: coefficients sum to {sum(d)}")
        for r in range(i):
            lhs = d[r] * (i - r) * (b + m + r + i)
            rhs = -d[r + 1] * (r + 1) * (b + r + 1)
            if lhs != rhs:
                return CheckResult(name, FAIL, f"i={i}, r={r}: {lhs} != {rhs}")
    return CheckResult(name, PASS, f"{params.size} vectors")


def transition_rows_check(params: PairParams) -> CheckResult:
    """Rows of the transition matrix coincide with the coefficient lists:
    two separately stated closed forms for the same numbers."""
    name = f"transition rows equal coefficient lists {params.tag()}"
    L, _ = L_matrices(params)
    for i in range(params.size):
        d = d_coeffs(params, i)
        row = list(L[i][:i + 1])
        if row != d or any(L[i][j] != 0 for j in range(i + 1, params.size)):
            return CheckResult(name, FAIL, f"row {i}: {row} vs {d}")
    return CheckResult(name, PASS)


def transition_inverse_check(params: PairParams) -> CheckResult:
    """L times the returned inverse is the identity, exactly."""
    name = f"transition inverse exact {params.tag()}"
    L, Linv = L_matrices(params)
    prod = frac_matmul([list(r) for r in L], [list(r) for r in Linv])
    if prod != frac_identity(params.size):
        return CheckResult(name, FAIL, "product is not the identity")
    return CheckResult(name, PASS)


def inverse_reference_check(params: PairParams) -> CheckResult:
    """Exact inverse against the stored closed-form display."""
    name = f"inverse transition closed form {params.tag()}"
    _, Linv = L_matrices(params)
    exact = [list(r) for r in Linv]
    ref = inverse_closed_reference(params)
    corr = inverse_closed_corrected(params)
    if exact == ref:
        return CheckResult(name, PASS)
    if exact == corr:
        bad = next((i, j) for i in range(params.size) for j in range(i)
                   if exact[i][j] != ref[i][j])
        i, j = bad
        return CheckResult(
            name, REPORTED,
            f"stored display disagrees with the exact inverse, e.g. entry "
            f"({i},{j}) display {ref[i][j]} vs exact {exact[i][j]}; shifting "
            f"the base of the last Pochhammer factor from m+2j+b-1 to "
            f"m+2j+b+1 reproduces the exact inverse entrywise")
    return CheckResult(name, FAIL,
                       "exact inverse matches neither the display nor the "
                       "+2-shifted form")


# ---- triangular eigenfunction expansion ----

def phi_expansion(params: PairParams, label: MsfLabel) -> dict[MsfLabel, Fraction]:
    """Expansion of the spherical vector at the label over the monomial
    basis psi1^d1' psi2^d2' (bottom row i').

    Every lower coefficient is forced: collecting the basis coefficient in
    the eigenvalue equation gives e = (incoming contributions)/(eigenvalue
    difference).  Strict monotonicity of the eigenvalue along lowering moves
    keeps all denominators positive; rescaling enforces value 1 at the
    identity point (psi1, psi2) = (2, 1).
    """
    check_label(params, label)
    c_of: dict[MsfLabel, Fraction] = {label: casimir_eigenvalue(params, label)}
    moves: dict[MsfLabel, dict[MsfLabel, Fraction]] = {}
    todo = [label]
    while todo:
        lab = todo.pop()
        if lab in moves:
            continue
        moves[lab] = lowering_moves(params, lab)
        for tgt in moves[lab]:
            if tgt not in c_of:
                c_of[tgt] = casimir_eigenvalue(params, tgt)
                todo.append(tgt)
            # the recursion must strictly lower both orders
            if not c_of[tgt] < c_of[lab]:
                raise AssertionError(f"move {lab} -> {tgt} does not lower the eigenvalue")
            if not dominance_leq(label_weight(params, tgt),
                                 label_weight(params, lab)):
                raise AssertionError(f"move {lab} -> {tgt} does not lower the weight")
    order = sorted(c_of, key=lambda t: (-c_of[t], t.i, t.d1, t.d2))
    if order[0] != label or (len(order) > 1 and c_of[order[1]] >= c_of[label]):
        raise AssertionError(f"{label} is not the unique top of its expansion")
    e: dict[MsfLabel, Fraction] = {}
    acc: dict[MsfLabel, Fraction] = {}
    c_top = c_of[label]
    for lab in order:
        if lab == label:
            e[lab] = Fraction(1)
        else:
            gap = c_top - c_of[lab]
            if gap <= 0:
                raise AssertionError(f"eigenvalue gap {gap} at {lab} is not positive")
            e[lab] = acc.pop(lab, Fraction(0)) / gap
        if e[lab] == 0:
            continue
        for tgt, coeff in moves[lab].items():
            acc[tgt] = acc.get(tgt, Fraction(0)) + e[lab] * coeff
    if acc:
        raise AssertionError(f"mass left on labels outside the order: {list(acc)}")
    total = sum(c * Fraction(2) ** lab.d1 for lab, c in e.items())
    if total == 0:
        raise AssertionError(f"expansion of {label} vanishes at the identity point")
    return {lab: c / total for lab, c in e.items() if c != 0}


@dataclass(frozen=True)
class MatrixOP:
    """One member of the polynomial family, in both coordinate systems."""
    params: PairParams
    d: tuple[int, int]
    psi: PolyMatrix
    x: PolyMatrix


@lru_cache(maxsize=None)
def poly_matrix_psi(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    n = params.size
    rows = []
    for i in range(n):
        table = phi_expansion(params, MsfLabel(i, d[0], d[1]))
        row = [MultiPoly.zero(PSI_VARS) for _ in range(n)]
        for lab, c in table.items():
            row[lab.i] = row[lab.i] + MultiPoly.monomial(PSI_VARS, (lab.d1, lab.d2), c)
        rows.append(row)
    return PolyMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def poly_matrix_x(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    return poly_matrix_psi(params, d).substitute(psi_in_x(), X_VARS)


def matrix_op(params: PairParams, d: tuple[int, int]) -> MatrixOP:
    d = (int(d[0]), int(d[1]))
    if d[0] < 0 or d[1] < 0:
        raise ValueError("degree pair must be non-negative")
    return MatrixOP(params, d, poly_matrix_psi(params, d), poly_matrix_x(params, d))


def phi_zero_check(params: PairParams) -> CheckResult:
    """Degree-zero expansions reproduce the transition matrix: the recursion
    route and the closed form agree."""
    name = f"expansion at degree zero equals transition matrix {params.tag()}"
    L, _ = L_matrices(params)
    P = poly_matrix_psi(params, (0, 0))
    for i in range(params.size):
        for j in range(params.size):
            if P.entry(i, j) != MultiPoly.const(PSI_VARS, L[i][j]):
                return CheckResult(name, FAIL,
                                   f"entry ({i},{j}): {P.entry(i, j)} vs {L[i][j]}")
    return CheckResult(name, PASS)


def diagonal_degree_check(params: PairParams, dmax: int) -> CheckResult:
    """Diagonal entries carry the full degree; the triangular expansion never
    raises the total degree."""
    name = f"family degree structure {params.tag()} dmax={dmax}"
    for d1 in range(dmax + 1):
        for d2 in range(dmax + 1 - d1):
            P = poly_matrix_psi(params, (d1, d2))
            for i in range(params.size):
                if P.entry(i, i).total_degree() != d1 + d2:
                    return CheckResult(
                        name, FAIL,
                        f"d=({d1},{d2}), entry ({i},{i}) has degree "
                        f"{P.entry(i, i).total_degree()}, expected {d1 + d2}")
                top = P.entry(i, i).coefficient((d1, d2))
                if top == 0:
                    return CheckResult(name, FAIL,
                                       f"d=({d1},{d2}): vanishing top coefficient")
    return CheckResult(name, PASS)


def normalization_check(params: PairParams, dmax: int) -> CheckResult:
    """Row sums at the identity point equal 1 for every family member."""
    name = f"identity normalization {params.tag()} dmax={dmax}"
    at_e = {"psi1": Fraction(2), "psi2": Fraction(1)}
    for d1 in range(dmax + 1):
        for d2 in range(dmax + 1 - d1):
            P = poly_matrix_psi(params, (d1, d2))
            for i in range(params.size):
                s = sum(P.entry(i, j).evaluate(at_e) for j in range(params.size))
                if s != 1:
                    return CheckResult(name, FAIL,
                                       f"d=({d1},{d2}), row {i}: sum {s}")
    return CheckResult(name, PASS)


def pde_check(params: PairParams, d: tuple[int, int]) -> CheckResult:
    """The assembled operator has the family member as eigenfunction with the
    diagonal eigenvalue matrix, in both coordinate systems."""
    name = f"matrix differential equation {params.tag()} d=({d[0]},{d[1]})"
    for vars, P, op in ((PSI_VARS, poly_matrix_psi(params, d), pde_operator_psi(params)),
                        (X_VARS, poly_matrix_x(params, d), pde_operator_x(params))):
        lhs = op.apply(P)
        rhs = lambda_d_matrix(params, d, vars) @ P
        if lhs != rhs:
            res = lhs - rhs
            bad = next((i, j) for i in range(params.size)
                       for j in range(params.size)
                       if not res.entry(i, j).is_zero)
            return CheckResult(
                name, FAIL, f"{vars[0][:-1]} coordinates, entry {bad}",
                data={"residual": str(res.entry(*bad))})
    return CheckResult(name, PASS, "psi and x coordinates")


def transition_suite(params: PairParams) -> list[CheckResult]:
    return [
        d_recursion_check(params),
        transition_rows_check(params),
        transition_inverse_check(params),
        inverse_reference_check(params),
        phi_zero_check(params),
    ]


def pde_suite(params: PairParams, dmax: int = 2) -> list[CheckResult]:
    out = [diagonal_degree_check(params, dmax),
           normalization_check(params, dmax)]
    for d1 in range(dmax + 1):
        for d2 in range(dmax + 1 - d1):
            out.append(pde_check(params, (d1, d2)))
    return out


# ---- dual parameter family by flip conjugation ----

def _conjugate_op(op: MatrixDiffOp) -> MatrixDiffOp:
    return MatrixDiffOp(op.vars,
                        {idx: conjugate_flip(mat) for idx, mat in op.coeffs.items()})


def dual_bottom_check(params: PairParams) -> CheckResult:
    """Lowest weights of the dual family are the duals of the reversed
    originals."""
    name = f"dual lowest weights {params.tag()}"
    dual_params, data = dualize(params)
    for i in range(params.size):
        lhs = bottom_weight(dual_params, i)
        rhs = bottom_weight(params, data.index(i)).dual()
        if lhs != rhs:
            return CheckResult(name, FAIL, f"index {i}: {lhs} vs {rhs}")
    return CheckResult(name, PASS, f"dual parameters {dual_params.tag()}")


def dual_eigenvalue_check(params: PairParams, dmax: int) -> CheckResult:
    """Casimir eigenvalues of the dual family mirror the originals under the
    index flip, computed from the weights on both sides."""
    name = f"dual eigenvalue mirror {params.tag()} dmax={dmax}"
    dual_params, data = dualize(params)
    for lab in labels_up_to(params, dmax):
        mirrored = MsfLabel(data.index(lab.i), lab.d1, lab.d2)
        lhs = casimir_eigenvalue_ip(label_weight(dual_params, lab))
        rhs = casimir_eigenvalue_ip(label_weight(params, mirrored))
        if lhs != rhs:
            return CheckResult(name, FAIL, f"label {lab}: {lhs} vs {rhs}")
    return CheckResult(name, PASS)


def dual_pde_check(params: PairParams, dmax: int) -> CheckResult:
    """Flip-conjugated operator family: conjugating every coefficient matrix
    and every family member gives eigenfunctions whose eigenvalues are the
    directly computed dual-family Casimir values."""
    name = f"conjugated equation with dual eigenvalues {params.tag()} dmax={dmax}"
    dual_params, _ = dualize(params)
    op = _conjugate_op(pde_operator_psi(params))
    n = params.size
    for d1 in range(dmax + 1):
        for d2 in range(dmax + 1 - d1):
            P = conjugate_flip(poly_matrix_psi(params, (d1, d2)))
            diag = [casimir_eigenvalue_ip(label_weight(dual_params,
                                                       MsfLabel(i, d1, d2)))
                    for i in range(n)]
            lam = PolyMatrix.diagonal(PSI_VARS, diag)
            if op.apply(P) != lam @ P:
                return CheckResult(name, FAIL, f"d=({d1},{d2})")
    return CheckResult(name, PASS)


def dual_involution_check(params: PairParams) -> CheckResult:
    name = f"dualizing twice is the identity {params.tag()}"
    dual_params, data = dualize(params)
    back, data2 = dualize(dual_params)
    if back != params:
        return CheckResult(name, FAIL, f"round trip gives {back.tag()}")
    for i in range(params.size):
        if data2.index(data.index(i)) != i:
            return CheckResult(name, FAIL, f"index map not involutive at {i}")
    return CheckResult(name, PASS)


def duality_suite(params: PairParams, dmax: int = 2) -> list[CheckResult]:
    return [
        dual_bottom_check(params),
        dual_eigenvalue_check(params, dmax),
        dual_pde_check(params, min(dmax, 2)),
        dual_involution_check(params),
    ]
