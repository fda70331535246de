r"""From bottom vectors to the full polynomial families.

The chain implemented here:

* closed-form expansion coefficients of the lowest spherical vectors in the
  leading-term rows, and the constant transition matrix they assemble into;
* the triangular eigenfunction expansion for an arbitrary label, driven by
  the seven-move lowering table (each coefficient is forced by the eigenvalue
  equation, denominators are differences of Casimir eigenvalues).  It runs
  on integers: every eigenvalue is an integer over m+2 and every move
  weight an int, so the sweep keeps int numerators over one implicit
  common denominator and rescales them all only when an eigenvalue
  difference does not divide the next coefficient;
* the matrix polynomial family in (psi1, psi2) and in (x1, x2) built by
  grouping an expansion by bottom index;
* the eigenvalue equation for the assembled operator family, in both
  coordinate systems;
* the dual-parameter family, realized by flip conjugation, with eigenvalues
  cross-checked against directly computed dual weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .casimir import lowering_moves, pde_operator_psi, pde_operator_x
from .diffop import MatrixDiffOp
from .krawtchouk import poch
from .leading import PSI_VARS, X_VARS, psi_in_x
from .lie import (MsfLabel, PairParams, bottom_weight, casimir_eigenvalue,
                  casimir_eigenvalue_ip, casimir_numerator, check_label, degree_pair,
                  degree_pairs, dominance_leq, dualize, label_weight,
                  labels_up_to, point_cache)
from .matrices import (PolyMatrix, conjugate_flip, frac_identity, frac_invert,
                       frac_matmul)
from .poly import MultiPoly
from .report import CheckResult, FAIL, PASS, against_reference


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


@point_cache
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
    _, Linv = L_matrices(params)
    exact = [list(r) for r in Linv]
    ref = inverse_closed_reference(params)
    # at a = 0 there is no off-diagonal entry for the display to get wrong
    i, j = next(((i, j) for i in range(params.size) for j in range(i)
                 if exact[i][j] != ref[i][j]), (0, 0))
    return against_reference(
        f"inverse transition closed form {params.tag()}", exact, ref,
        exact == inverse_closed_corrected(params), "",
        f"stored display disagrees with the exact inverse, e.g. entry "
        f"({i},{j}) display {ref[i][j]} vs exact {exact[i][j]}; shifting "
        f"the base of the last Pochhammer factor from m+2j+b-1 to "
        f"m+2j+b+1 reproduces the exact inverse entrywise",
        "exact inverse matches neither the display nor the +2-shifted form")


# ---- triangular eigenfunction expansion ----

@point_cache
def _graph_node(params: PairParams, lab: MsfLabel):
    """(eigenvalue numerator, read-only moves) of a label: the lowering graph
    of a parameter triple, built once per label, each move checked once
    against both orders it must lower."""
    num, weight = casimir_numerator(params, lab), label_weight(params, lab)
    moves = lowering_moves(params, lab)
    for tgt in moves:
        if not casimir_numerator(params, tgt) < num:
            raise AssertionError(f"move {lab} -> {tgt} does not lower the eigenvalue")
        if not dominance_leq(label_weight(params, tgt), weight):
            raise AssertionError(f"move {lab} -> {tgt} does not lower the weight")
    return num, MappingProxyType(moves)


class _LoweringGraph(NamedTuple):
    """The labels of degree <= n in sweep order (descending eigenvalue, ties
    by (i, d1, d2)) and, by position: each label's eigenvalue numerator
    (m+2) c and its moves as (target position, int weight) pairs."""
    labels: tuple[MsfLabel, ...]
    position: Mapping[MsfLabel, int]
    nums: tuple[int, ...]
    moves: tuple[tuple[tuple[int, int], ...], ...]


@point_cache
def _lowering_graph(params: PairParams, n: int) -> _LoweringGraph:
    """The integer lowering graph of the labels of degree <= n; a move out
    of it raises AssertionError.  It and its nodes are `point_cache`s,
    dropped when `verify` leaves the point."""
    nodes = sorted(((lab, *_graph_node(params, lab))
                    for lab in labels_up_to(params, n)),
                   key=lambda t: (-t[1], t[0].i, t[0].d1, t[0].d2))
    labels = tuple(lab for lab, _, _ in nodes)
    position = {lab: p for p, lab in enumerate(labels)}
    for lab, _, moves in nodes:
        for tgt in moves:
            if tgt not in position:
                raise AssertionError(
                    f"move {lab} -> {tgt} leaves the degree-{n} lowering graph")
    return _LoweringGraph(labels, MappingProxyType(position),
                         tuple(num for _, num, _ in nodes),
                         tuple(tuple((position[t], w) for t, w in moves.items())
                               for _, _, moves in nodes))


def phi_expansion(params: PairParams, label: MsfLabel) -> dict[MsfLabel, Fraction]:
    """Expansion of the spherical vector at the label over the monomial
    basis psi1^d1' psi2^d2' (bottom row i').

    Every lower coefficient is forced: collecting the basis coefficient in
    the eigenvalue equation gives e = (incoming contributions)/(eigenvalue
    difference).  Moves strictly lower the eigenvalue, so one sweep down
    the lowering graph meets each label after its sources, with a positive
    difference (N_top - N)/(m+2) of eigenvalue numerators.

    The sweep runs on integers: ``vals`` holds the coefficients met so far
    and the incoming sums still pending, all as numerators over one
    implicit common denominator.  At a label with pending sum s its
    coefficient is x / D for x = s (m+2) and D = N_top - N; when D does not
    divide x, every value is first multiplied by D / gcd(x, D), which keeps
    them all over one denominator, and then the coefficient x / gcd(x, D)
    is an integer.  Rescaling to value 1 at (psi1, psi2) = (2, 1) divides
    every numerator by the same integer, their sum at that point, so the
    implicit denominator cancels.
    """
    check_label(params, label)
    graph = _lowering_graph(params, label.d1 + label.d2)
    start, m2 = graph.position[label], params.m + 2
    top = graph.nums[start]
    vals = [0] * len(graph.labels)
    vals[start] = 1
    for p in range(start, len(vals)):
        x = vals[p] * m2
        if not x:
            continue
        if p > start:
            diff = top - graph.nums[p]
            g = math.gcd(x, diff)
            if g != diff:
                f = diff // g
                vals[start:] = [v * f for v in vals[start:]]
            vals[p] = x // g
        v = vals[p]
        for t, w in graph.moves[p]:
            vals[t] += v * w
    total = sum(v << graph.labels[p].d1 for p, v in enumerate(vals) if v)
    if total == 0:
        raise AssertionError(f"expansion of {label} vanishes at the identity point")
    return {graph.labels[p]: Fraction(v, total)
            for p, v in enumerate(vals) if v}


@dataclass(frozen=True)
class MatrixOP:
    """One member of the polynomial family, in both coordinate systems."""
    params: PairParams
    d: tuple[int, int]
    psi: PolyMatrix
    x: PolyMatrix


@point_cache
def poly_matrix_psi(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    n = params.size
    rows = []
    for i in range(n):
        coeffs = phi_expansion(params, MsfLabel(i, d[0], d[1]))
        # the row's numerators over one denominator, reduced per entry
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        nums = [{} for _ in range(n)]
        for lab, c in coeffs.items():
            nums[lab.i][lab.d1, lab.d2] = c.numerator * (den // c.denominator)
        rows.append([MultiPoly._over(PSI_VARS, t, den) for t in nums])
    return PolyMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def poly_matrix_x(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    return poly_matrix_psi(params, d).substitute(psi_in_x(), X_VARS)


def matrix_op(params: PairParams, d: tuple[int, int]) -> MatrixOP:
    d = degree_pair(d)
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
    for d1, d2 in degree_pairs(dmax):
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
    for d1, d2 in degree_pairs(dmax):
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
    eigenvalues = [casimir_eigenvalue(params, MsfLabel(i, *d))
                   for i in range(params.size)]
    for vars, P, op in ((PSI_VARS, poly_matrix_psi(params, d), pde_operator_psi(params)),
                        (X_VARS, poly_matrix_x(params, d), pde_operator_x(params))):
        lhs = op.apply(P)
        rhs = P.scale_rows(eigenvalues)
        if lhs != rhs:
            res = lhs - rhs
            bad = next((i, j) for i in range(params.size)
                       for j in range(params.size)
                       if not res.entry(i, j).is_zero)
            return CheckResult(
                name, FAIL, f"{vars[0][:-1]} coordinates, entry {bad}",
                residual=str(res.entry(*bad)))
    return CheckResult(name, PASS, "psi and x coordinates")


def transition_suite(params: PairParams) -> list[CheckResult]:
    return [
        d_recursion_check(params),
        transition_rows_check(params),
        transition_inverse_check(params),
        inverse_reference_check(params),
        phi_zero_check(params),
    ]


def pde_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    out = [diagonal_degree_check(params, dmax),
           normalization_check(params, dmax)]
    for d in degree_pairs(dmax):
        out.append(pde_check(params, d))
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
    for d1, d2 in degree_pairs(dmax):
        P = conjugate_flip(poly_matrix_psi(params, (d1, d2)))
        diag = [casimir_eigenvalue_ip(label_weight(dual_params,
                                                   MsfLabel(i, d1, d2)))
                for i in range(n)]
        if op.apply(P) != P.scale_rows(diag):
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


def duality_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    return [
        dual_bottom_check(params),
        dual_eigenvalue_check(params, dmax),
        dual_pde_check(params, min(dmax, 2)),
        dual_involution_check(params),
    ]
