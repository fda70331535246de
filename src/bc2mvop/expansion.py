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
  grouping an expansion by bottom index, and the xi constants read from
  its a = b = 0 member, which `casimir.xi_suite` checks;
* the eigenvalue equation for the assembled operator family, in both
  coordinate systems;
* the dual-parameter family, the flip-conjugate of this one: its weights
  and eigenvalues computed directly and mirrored in the index, and its
  equation checked through that mirror on the psi-side family itself,
  reading the one image E(R_d) per degree (``pde_image_psi``, a
  `point_cache`) that the eigenvalue equation reads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb
from types import MappingProxyType

from . import casimir
from .krawtchouk import poch
from .leading import IDENTITY_PSI, PSI1, PSI2, PSI_IN_X, PSI_VARS, X_VARS
from .lie import (MsfLabel, PairParams, bottom_weight, casimir_eigenvalue,
                  casimir_eigenvalue_ip, casimir_numerator, check_label,
                  degree_pair, degree_pairs, dominance_leq, dualize,
                  label_weight, labels_up_to, point_cache)
from .matrices import PolyMatrix, frac_identity, frac_matmul, solve_linear
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
def L_matrix(params: PairParams) -> tuple[tuple[Fraction, ...], ...]:
    """The constant lower-triangular transition matrix L.

    Its inverse is the closed form `inverse_closed_corrected`, which the
    line "transition inverse exact" proves by multiplying it with L.
    """
    m, a, b = params.m, params.a, params.b
    L = [[Fraction(0)] * (a + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(i + 1):
            L[i][j] = ((-1) ** (i + j) * comb(i, j)
                       * poch(m + b + i, i) / poch(m, i)
                       * poch(b + j + 1, i - j) / poch(m + i + j + b, i - j))
    return tuple(map(tuple, L))


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
    L = L_matrix(params)
    for i in range(params.size):
        d = d_coeffs(params, i)
        row = list(L[i][:i + 1])
        if row != d or any(L[i][j] != 0 for j in range(i + 1, params.size)):
            return CheckResult(name, FAIL, f"row {i}: {row} vs {d}")
    return CheckResult(name, PASS)


def transition_inverse_checks(params: PairParams) -> list[CheckResult]:
    """The two lines that read L times the corrected closed form, formed
    once.  "transition inverse exact" proves that the form is L^-1: it
    PASSes when the product is the identity.  "inverse transition closed
    form" holds the stored display against that form: REPORTED while the
    product is the identity, and FAIL once it is not."""
    exact = inverse_closed_corrected(params)
    inverts = frac_matmul(L_matrix(params), exact) == frac_identity(params.size)
    name = f"transition inverse exact {params.tag()}"
    proof = (CheckResult(name, PASS) if inverts
             else CheckResult(name, FAIL, "product is not the identity"))
    ref = inverse_closed_reference(params)
    # at a = 0 there is no off-diagonal entry for the display to get wrong
    i, j = next(((i, j) for i in range(params.size) for j in range(i)
                 if exact[i][j] != ref[i][j]), (0, 0))
    return [proof, against_reference(
        f"inverse transition closed form {params.tag()}", exact, ref,
        inverts, "",
        f"stored display disagrees with the exact inverse, e.g. entry "
        f"({i},{j}) display {ref[i][j]} vs exact {exact[i][j]}; shifting "
        f"the base of the last Pochhammer factor from m+2j+b-1 to "
        f"m+2j+b+1 reproduces the exact inverse entrywise",
        "L times the +2-shifted form is not the identity")]


# ---- triangular eigenfunction expansion ----

@point_cache
def _graph_node(params: PairParams, lab: MsfLabel):
    """(eigenvalue numerator, read-only moves) of a label: the lowering graph
    of a parameter triple, built once per label, each move checked once
    against both orders it must lower."""
    num, weight = casimir_numerator(params, lab), label_weight(params, lab)
    moves = casimir.lowering_moves(params, lab)
    for tgt in moves:
        if not casimir_numerator(params, tgt) < num:
            raise AssertionError(f"move {lab} -> {tgt} does not lower the eigenvalue")
        if not dominance_leq(label_weight(params, tgt), weight):
            raise AssertionError(f"move {lab} -> {tgt} does not lower the weight")
    return num, MappingProxyType(moves)


class _LoweringGraph(namedtuple("_LoweringGraph", "labels position nums moves")):
    """The labels of degree <= n in sweep order (descending eigenvalue, ties
    by (i, d1, d2)), a read-only map from label to position, and, by
    position: each label's eigenvalue numerator (m+2) c and its moves as
    (target position, int weight) pairs."""
    __slots__ = ()


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
    is an integer.  Rescaling to value 1 at the identity point
    ``IDENTITY_PSI`` divides every numerator by the same integer, their sum
    at that point, so the implicit denominator cancels.
    """
    check_label(params.a, label)
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
    # the expansion at IDENTITY_PSI, summed on ints: both coordinates
    # there have denominator 1
    p1, p2 = (int(IDENTITY_PSI[name]) for name in PSI_VARS)
    total = sum(v * p1 ** lab.d1 * p2 ** lab.d2
                for lab, v in zip(graph.labels, vals) if v)
    if total == 0:
        raise AssertionError(f"expansion of {label} vanishes at the identity point")
    return {graph.labels[p]: Fraction(v, total)
            for p, v in enumerate(vals) if v}


@point_cache
def poly_matrix_psi(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    d, n = degree_pair(d), params.size
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


@point_cache
def poly_matrix_x(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    return poly_matrix_psi(params, d).substitute(PSI_IN_X, X_VARS)


def _in_eigenbasis(poly: MultiPoly, eigenfunctions: list[MultiPoly]):
    """Coordinates of poly in the basis {1} + the given eigenfunctions,
    solved exactly."""
    basis = [MultiPoly.one(PSI_VARS), *eigenfunctions]
    support = sorted({e for p in basis for e in p.nums} | set(poly.nums))
    rows = [[p.coefficient(exp) for p in basis] for exp in support]
    rhs = [poly.coefficient(exp) for exp in support]
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise AssertionError("eigenbasis expansion failed (cannot happen)")
    return tuple(sol)


def xi_constants(m: int) -> dict:
    """Expansion constants of psi1 and psi2 in the scalar eigenfunctions
    phi1 = phi_(1,0) and phi2 = phi_(0,1), read from the a = b = 0 family:
    each is the eigenfunction with that top monomial, equal to 1 at
    (psi1, psi2) = (2, 1).  ``casimir.xi_suite`` checks them."""
    p0 = PairParams(m, 0, 0)
    phi1, phi2 = (poly_matrix_psi(p0, d).entry(0, 0) for d in ((1, 0), (0, 1)))
    return {"psi1": _in_eigenbasis(PSI1, [phi1]),
            "psi2": _in_eigenbasis(PSI2, [phi1, phi2]),
            "phi1": phi1, "phi2": phi2}


def phi_zero_check(params: PairParams) -> CheckResult:
    """Degree-zero expansions reproduce the transition matrix: the recursion
    route and the closed form agree."""
    name = f"expansion at degree zero equals transition matrix {params.tag()}"
    L = L_matrix(params)
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
    for d1, d2 in degree_pairs(dmax):
        P = poly_matrix_psi(params, (d1, d2))
        for i in range(params.size):
            s = sum(P.entry(i, j).evaluate(IDENTITY_PSI) for j in range(params.size))
            if s != 1:
                return CheckResult(name, FAIL,
                                   f"d=({d1},{d2}), row {i}: sum {s}")
    return CheckResult(name, PASS)


@point_cache
def pde_image_psi(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    """E(R_d): the psi-side operator applied to the family member of degree
    d, the one image that the family's equation and the dual family's read."""
    return casimir.pde_operator_psi(params).apply(poly_matrix_psi(params, d))


def pde_check(params: PairParams, d: tuple[int, int]) -> CheckResult:
    """The assembled operator has the family member as eigenfunction with the
    diagonal eigenvalue matrix, in both coordinate systems."""
    name = f"matrix differential equation {params.tag()} d=({d[0]},{d[1]})"
    eigenvalues = [casimir_eigenvalue(params, MsfLabel(i, *d))
                   for i in range(params.size)]
    x_family = poly_matrix_x(params, d)
    for vars, P, lhs in ((PSI_VARS, poly_matrix_psi(params, d),
                          pde_image_psi(params, d)),
                         (X_VARS, x_family,
                          casimir.pde_operator_x(params).apply(x_family))):
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
        *transition_inverse_checks(params),
        phi_zero_check(params),
    ]


def pde_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    out = [diagonal_degree_check(params, dmax),
           normalization_check(params, dmax)]
    for d in degree_pairs(dmax):
        out.append(pde_check(params, d))
    return out


# ---- dual parameter family, mirrored in the index ----

def dual_bottom_check(params: PairParams) -> CheckResult:
    """Lowest weights of the dual family are the duals of the reversed
    originals."""
    name = f"dual lowest weights {params.tag()}"
    dual_params = dualize(params)
    for i in range(params.size):
        lhs = bottom_weight(dual_params, i)
        rhs = bottom_weight(params, params.a - i).dual()
        if lhs != rhs:
            return CheckResult(name, FAIL, f"index {i}: {lhs} vs {rhs}")
    return CheckResult(name, PASS, f"dual parameters {dual_params.tag()}")


def dual_eigenvalue_check(params: PairParams, dmax: int) -> CheckResult:
    """Casimir eigenvalues of the dual family mirror the originals under the
    index flip, computed from the weights on both sides."""
    name = f"dual eigenvalue mirror {params.tag()} dmax={dmax}"
    dual_params = dualize(params)
    for lab in labels_up_to(params, dmax):
        mirrored = MsfLabel(params.a - lab.i, lab.d1, lab.d2)
        lhs = casimir_eigenvalue_ip(label_weight(dual_params, lab))
        rhs = casimir_eigenvalue_ip(label_weight(params, mirrored))
        if lhs != rhs:
            return CheckResult(name, FAIL, f"label {lab}: {lhs} vs {rhs}")
    return CheckResult(name, PASS)


def dual_pde_check(params: PairParams, dmax: int) -> CheckResult:
    """The dual family's equation, (JEJ)(JR_dJ) = L'_d JR_dJ for the flip J
    and the directly computed dual eigenvalues L'_d.  E acts from the right
    and J^2 = I, so it is checked as E(R_d) = (JL'_dJ) R_d: row i of R_d
    scaled by the dual eigenvalue at index a - i.  The reduction,
    (P^-1 E P)(F P) = E(F) P, is property-tested in tests/test_diffop.py."""
    name = f"conjugated equation with dual eigenvalues {params.tag()} dmax={dmax}"
    dual_params = dualize(params)
    for d1, d2 in degree_pairs(dmax):
        P = poly_matrix_psi(params, (d1, d2))
        mirrored = [casimir_eigenvalue_ip(label_weight(
                        dual_params, MsfLabel(params.a - i, d1, d2)))
                    for i in range(params.size)]
        if pde_image_psi(params, (d1, d2)) != P.scale_rows(mirrored):
            return CheckResult(name, FAIL, f"d=({d1},{d2})")
    return CheckResult(name, PASS)


def dual_involution_check(params: PairParams) -> CheckResult:
    name = f"dualizing twice is the identity {params.tag()}"
    back = dualize(dualize(params))
    if back != params:
        return CheckResult(name, FAIL, f"round trip gives {back.tag()}")
    return CheckResult(name, PASS)


def duality_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    return [
        dual_bottom_check(params),
        dual_eigenvalue_check(params, dmax),
        dual_pde_check(params, min(dmax, 2)),
        dual_involution_check(params),
    ]
