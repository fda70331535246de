r"""Radial action of the Casimir operator and the derived operator families.

Three layers, increasingly packaged:

1. ``radial_apply``: the raw radial operator acting on a length-(a+1)
   vector of polynomials on the torus (component k = M-type k) in (c1, c2).
   The torus derivatives and the cotangent factors are rationalized eagerly
   via s^2 = 1 - c^2; the resulting denominators are fixed in advance and
   must cancel on the eigenfunction span.
2. The scalar operator in (psi1, psi2) valid at a = b = 0, plus the
   tridiagonal first-order matrices C1, C2 that absorb the conjugation by
   the leading-term matrix for general (a, b).
3. The same family pushed to (x1, x2) by the affine change
   x1 = 2 psi1 - 2, x2 = 4 psi2 - 2 psi1 + 1, together with stored
   reference coefficients to compare against.

All identities here are verified mechanically; disagreements between our
construction and a stored reference closed form come out as REPORTED, with
both sides printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diffop import MatrixDiffOp
from .leading import (C_VARS, PSI_VARS, X_VARS, leading_term_matrix, psi_in_c,
                      psi_in_x)
from .lie import (MsfLabel, PairParams, casimir_eigenvalue,
                  casimir_eigenvalue_ip, check_label, label_weight,
                  labels_up_to)
from .matrices import PolyMatrix, solve_linear
from .poly import MultiPoly
from .report import CheckResult, FAIL, PASS, REPORTED

HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def _c_atoms():
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    return c1, c2, MultiPoly.one(C_VARS)


def vertical_term(params: PairParams, k: int) -> Fraction:
    """Constant contribution of the central torus direction to component k."""
    m, a, b = params.m, params.a, params.b
    u, v = a + b - k, b + k
    return Fraction(m * u * u - 4 * u * v + m * v * v, 2 * (m + 2))


def radial_apply(params: PairParams, comps) -> tuple[MultiPoly, ...]:
    """Apply the radial operator to an M-type vector of polynomials in (c1,c2).

    Component k of the output couples components k-1, k, k+1 of the input;
    out-of-range neighbours carry coefficient zero, so they are simply
    dropped.  Every term is put over the common denominator
    2 c1^2 c2^2 (c2^2 - c1^2)^2 and the summed numerator is divided once,
    exactly; input outside the eigenfunction span leaves a remainder and
    raises ValueError.
    """
    m, a, b = params.m, params.a, params.b
    comps = list(comps)
    if len(comps) != params.size:
        raise ValueError(f"need {params.size} components, got {len(comps)}")
    for g in comps:
        if not isinstance(g, MultiPoly) or g.vars != C_VARS:
            raise ValueError("components must be MultiPoly in (c1, c2)")
    c1, c2, one = _c_atoms()
    split = c2 * c2 - c1 * c1            # sin(t1+t2) sin(t1-t2)
    split2 = split * split
    s1sq = one - c1 * c1
    s2sq = one - c2 * c2
    hop_num = 2 * c1 * c2 * (2 * one - c1 * c1 - c2 * c2)
    stay_num = 2 * (c1 * c1 + c2 * c2 - 2 * c1 * c1 * c2 * c2)
    # the common denominator, and the factor lifting each partial
    # denominator (split, split^2, 2 c1, 2 c2, 2 c1^2, 2 c2^2) to it
    to_split2 = 2 * c1 * c1 * c2 * c2
    to_split = to_split2 * split
    denom = to_split2 * split2
    to_c1 = c1 * c2 * c2 * split2
    to_c2 = c1 * c1 * c2 * split2
    to_c1sq = c2 * c2 * split2
    to_c2sq = c1 * c1 * split2
    out = []
    for k, g in enumerate(comps):
        g1, g2 = g.derive("c1"), g.derive("c2")
        g11, g22 = g1.derive("c1"), g2.derive("c2")
        up = (k + 1) * (a - k)           # raising factor to component k+1
        down = k * (a - k + 1)           # lowering factor to component k-1
        poly = (vertical_term(params, k) * g
                + HALF * (c1 * g1 + c2 * g2) - HALF * (s1sq * g11 + s2sq * g22)
                + (m - 2) * (c1 * g1 + c2 * g2))
        neighbours = MultiPoly.zero(C_VARS)
        if up:
            neighbours = neighbours + up * comps[k + 1]
        if down:
            neighbours = neighbours + down * comps[k - 1]
        num = (denom * poly
               + to_split * (2 * c1 * s1sq * g1 - 2 * c2 * s2sq * g2)
               + to_split2 * (stay_num * (up + down) * g - hop_num * neighbours)
               + to_c1 * (2 * c1 * c1 - one) * g1
               + to_c2 * (2 * c2 * c2 - one) * g2
               + to_c1sq * Fraction((a + b - k) ** 2) * g
               + to_c2sq * Fraction((b + k) ** 2) * g)
        q = num.divide_exact(denom)
        if q is None:
            raise ValueError(
                f"non-polynomial residue in component {k}: the input is "
                f"outside the eigenfunction span")
        out.append(q)
    return tuple(out)


# ---- leading-term vectors and the triangular recursion ----

@lru_cache(maxsize=None)
def _psi_power_c(d1: int, d2: int) -> MultiPoly:
    pc = psi_in_c()
    return pc["psi1"] ** d1 * pc["psi2"] ** d2


def bottom_vector(params: PairParams, i: int) -> tuple[MultiPoly, ...]:
    """Row i of the leading-term matrix: the M-type vector at the bottom."""
    return tuple(leading_term_matrix(params).row(i))


def label_vector(params: PairParams, label: MsfLabel) -> tuple[MultiPoly, ...]:
    """psi1^d1 psi2^d2 times the bottom vector, in (c1, c2)."""
    check_label(params, label)
    factor = _psi_power_c(label.d1, label.d2)
    return tuple(factor * q for q in bottom_vector(params, label.i))


def _move_table(params: PairParams, label: MsfLabel, first_repeat: bool):
    """The seven lowering moves out of a label with their coefficients.

    first_repeat=True uses the stored reference coefficient -2 d1 (d1-1) for
    the move (d1-2, d2+1); the derived value is -4 d1 (d1-1).  They agree
    except when d1 >= 2.
    """
    a, b = params.a, params.b
    i, d1, d2 = label.i, label.d1, label.d2
    repeat = -2 * d1 * (d1 - 1) if first_repeat else -4 * d1 * (d1 - 1)
    raw = [
        ((i, d1 - 1, d2), -2 * d1 * (d1 + 4 * d2 + 3 + a + 2 * b + 2 * i)),
        ((i, d1 - 2, d2 + 1), repeat),
        ((i, d1 + 1, d2 - 1), -2 * d2 * (d2 + b + i)),
        ((i - 1, d1, d2), -2 * i * (b + i + d2)),
        ((i - 1, d1 - 1, d2 + 1), -2 * i * d1),
        ((i + 1, d1 - 1, d2), -2 * (a - i) * d1),
        ((i + 1, d1, d2 - 1), -2 * (a - i) * d2),
    ]
    out: dict[MsfLabel, Fraction] = {}
    for (ti, td1, td2), coeff in raw:
        valid = 0 <= ti <= a and td1 >= 0 and td2 >= 0
        if coeff == 0:
            continue
        if not valid:
            raise AssertionError(
                f"nonzero lowering coefficient {coeff} aims at invalid label "
                f"({ti},{td1},{td2}) from {label}")
        key = MsfLabel(ti, td1, td2)
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def lowering_moves(params: PairParams, label: MsfLabel) -> dict[MsfLabel, Fraction]:
    return _move_table(params, label, first_repeat=False)


def lowering_moves_reference(params: PairParams, label: MsfLabel) -> dict[MsfLabel, Fraction]:
    return _move_table(params, label, first_repeat=True)


def scalar_eigen_check(m: int) -> CheckResult:
    """At a = b = 0 the operator sends psi1 and psi2 to the stated images."""
    name = f"radial action on symmetric coordinates (m={m})"
    params = PairParams(m, 0, 0)
    pc = psi_in_c()
    f1, f2 = pc["psi1"], pc["psi2"]
    got1 = radial_apply(params, [f1])[0]
    got2 = radial_apply(params, [f2])[0]
    want1 = (2 * m + 4) * f1 - 8
    want2 = (4 * m + 4) * f2 - 2 * f1
    bad = []
    if got1 != want1:
        bad.append(f"first coordinate residual {got1 - want1}")
    if got2 != want2:
        bad.append(f"second coordinate residual {got2 - want2}")
    if bad:
        return CheckResult(name, FAIL, "; ".join(bad))
    return CheckResult(name, PASS)


def bottom_lowering_check(params: PairParams) -> CheckResult:
    """Radial operator on bottom vector i: eigenvalue c_{nu_i} plus a single
    drop to i-1 with coefficient -2i(b+i)."""
    name = f"bottom lowering identity {params.tag()}"
    for i in range(params.size):
        got = radial_apply(params, bottom_vector(params, i))
        c_i = casimir_eigenvalue(params, MsfLabel(i, 0, 0))
        row = bottom_vector(params, i)
        prev = bottom_vector(params, i - 1) if i else None
        for k in range(params.size):
            want = c_i * row[k]
            if prev is not None:
                want = want + Fraction(-2 * i * (params.b + i)) * prev[k]
            if got[k] != want:
                return CheckResult(
                    name, FAIL,
                    f"i={i}, component {k}: residual {got[k] - want}")
    return CheckResult(name, PASS, f"{params.size} bottom rows")


def general_lowering_check(params: PairParams, dmax: int) -> CheckResult:
    """Triangular recursion: radial operator on a general label equals the
    eigenvalue term plus the seven-move table, exactly."""
    name = f"triangular recursion table {params.tag()} dmax={dmax}"
    count = 0
    for label in labels_up_to(params, dmax):
        got = radial_apply(params, label_vector(params, label))
        c_top = casimir_eigenvalue(params, label)
        want = [c_top * g for g in label_vector(params, label)]
        for target, coeff in lowering_moves(params, label).items():
            tv = label_vector(params, target)
            want = [w + coeff * t for w, t in zip(want, tv)]
        for k in range(params.size):
            if got[k] != want[k]:
                return CheckResult(
                    name, FAIL,
                    f"label {label}, component {k}",
                    data={"residual": str(got[k] - want[k])})
        count += 1
    return CheckResult(name, PASS, f"{count} labels")


def reference_table_comparison(params: PairParams, dmax: int) -> CheckResult:
    """Derived lowering table versus the stored reference coefficients.

    The reference value for the move (d1-2, d2+1) is -2 d1 (d1-1); the
    recursion only closes with -4 d1 (d1-1).  Visible whenever d1 >= 2.
    """
    name = f"lowering table reference comparison {params.tag()} dmax={dmax}"
    diffs = []
    for label in labels_up_to(params, dmax):
        ours = lowering_moves(params, label)
        ref = lowering_moves_reference(params, label)
        for key in sorted(set(ours) | set(ref), key=lambda t: (t.i, t.d1, t.d2)):
            o, r = ours.get(key, Fraction(0)), ref.get(key, Fraction(0))
            if o != r:
                diffs.append(f"{label}->({key.i},{key.d1},{key.d2}): "
                             f"derived {o}, reference {r}")
    if diffs:
        return CheckResult(
            name, REPORTED,
            "reference coefficient -2d1(d1-1) for the (d1-2,d2+1) move "
            "disagrees with the derived -4d1(d1-1), which is the value the "
            "verified recursion uses: " + "; ".join(diffs[:4])
            + (f" (+{len(diffs) - 4} more)" if len(diffs) > 4 else ""))
    return CheckResult(name, PASS, "tables coincide on this range (no d1>=2 label)")


def eigenvalue_agreement_check(params: PairParams, dmax: int) -> CheckResult:
    """Closed-form eigenvalue versus the inner-product route, on all labels."""
    name = f"eigenvalue closed form vs inner product {params.tag()} dmax={dmax}"
    for label in labels_up_to(params, dmax):
        lhs = casimir_eigenvalue(params, label)
        rhs = casimir_eigenvalue_ip(label_weight(params, label))
        if lhs != rhs:
            return CheckResult(name, FAIL,
                               f"label {label}: closed {lhs}, inner product {rhs}")
    return CheckResult(name, PASS)


# ---- scalar operator in psi and the conjugation matrices ----

@lru_cache(maxsize=None)
def scalar_radial_psi(m: int) -> MatrixDiffOp:
    """The a = b = 0 radial operator as a scalar operator in (psi1, psi2)."""
    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    return MatrixDiffOp.scalar_op(PSI_VARS, {
        (2, 0): 2 * p1 * p1 - 2 * p1 - 4 * p2,
        (0, 2): 4 * p2 * p2 - 2 * p1 * p2,
        (1, 1): 4 * p1 * p2 - 8 * p2,
        (1, 0): (2 * m + 4) * p1 - 8,
        (0, 1): (4 * m + 4) * p2 - 2 * p1,
    })


def scalar_radial_agreement_check(m: int, deg: int = 3) -> CheckResult:
    """Two independent code paths for the scalar operator must agree on all
    monomials psi1^u psi2^v with u+v <= deg."""
    name = f"scalar operator route agreement (m={m}, deg<={deg})"
    params = PairParams(m, 0, 0)
    op = scalar_radial_psi(m)
    pc = psi_in_c()
    for u in range(deg + 1):
        for v in range(deg + 1 - u):
            mono = MultiPoly.monomial(PSI_VARS, (u, v))
            via_psi = op.apply_scalar(mono).substitute(pc, C_VARS)
            via_c = radial_apply(params, [pc["psi1"] ** u * pc["psi2"] ** v])[0]
            if via_psi != via_c:
                return CheckResult(name, FAIL,
                                   f"monomial ({u},{v}): residual {via_c - via_psi}")
    return CheckResult(name, PASS)


@lru_cache(maxsize=None)
def conjugation_matrices(params: PairParams) -> tuple[PolyMatrix, PolyMatrix]:
    """First-order coefficient matrices (C1, C2), tridiagonal in size a+1.

    Both share the same off-diagonals: (r, r-1) entry 2 r psi2 and (r, r+1)
    entry 2 (a-r).
    """
    a, b = params.a, params.b
    n = params.size
    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    zero = MultiPoly.zero(PSI_VARS)
    rows1 = [[zero] * n for _ in range(n)]
    rows2 = [[zero] * n for _ in range(n)]
    for r in range(n):
        rows1[r][r] = 2 * (a + 2 * b + 2 * r) - 2 * (a + b + r) * p1
        rows2[r][r] = 2 * (b + r) * p1 - 2 * (a + 2 * b + 2 * r) * p2
        if r > 0:
            rows1[r][r - 1] = rows2[r][r - 1] = 2 * r * p2
        if r < n - 1:
            rows1[r][r + 1] = rows2[r][r + 1] = MultiPoly.const(PSI_VARS, 2 * (a - r))
    c1m = PolyMatrix.from_rows(rows1)
    c2m = PolyMatrix.from_rows(rows2)
    for r in range(n):       # shared off-diagonals, by construction
        for s in (r - 1, r + 1):
            if 0 <= s < n and c1m.entry(r, s) != c2m.entry(r, s):
                raise AssertionError(f"C1 and C2 differ off the diagonal at ({r},{s})")
    return c1m, c2m


def gradient_pairing_check(params: PairParams) -> CheckResult:
    """Defining identity of (C1, C2): pairing the torus gradients of the
    symmetric coordinates with the gradient of Q0 equals C_i Q0."""
    name = f"conjugation matrix defining identity {params.tag()}"
    c1, c2, one = _c_atoms()
    q0 = leading_term_matrix(params)
    w1 = (2 * c1 * (one - c1 * c1), 2 * c2 * (one - c2 * c2))
    w2 = (w1[0] * c2 * c2, w1[1] * c1 * c1)
    pc = psi_in_c()
    for tag_i, weights, cmat in (("first", w1, conjugation_matrices(params)[0]),
                                 ("second", w2, conjugation_matrices(params)[1])):
        lhs = q0.map_entries(lambda e: weights[0] * e.derive("c1")
                             + weights[1] * e.derive("c2"))
        rhs = cmat.substitute(pc, C_VARS) @ q0
        if lhs != rhs:
            return CheckResult(name, FAIL, f"{tag_i} coordinate pairing fails")
    return CheckResult(name, PASS)


def shift_matrix(params: PairParams, vars: tuple[str, str]) -> PolyMatrix:
    n, b = params.size, params.b
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r in range(1, n):
        rows[r][r - 1] = Fraction(-2 * r * (b + r))
    return PolyMatrix.from_scalar_rows(vars, rows)


def lambda_d_matrix(params: PairParams, d: tuple[int, int],
                    vars: tuple[str, str]) -> PolyMatrix:
    diag = [casimir_eigenvalue(params, MsfLabel(i, d[0], d[1]))
            for i in range(params.size)]
    return PolyMatrix.diagonal(vars, diag)


@lru_cache(maxsize=None)
def pde_operator_psi(params: PairParams) -> MatrixDiffOp:
    """Right-acting operator E with E(Q_d) = Lambda_d Q_d:

    E(Q) = R0(Q) - dQ/dpsi1 C1 - dQ/dpsi2 C2 + Q (Lambda0 + shift).
    """
    n = params.size
    c1m, c2m = conjugation_matrices(params)
    first = MatrixDiffOp(PSI_VARS, {
        (1, 0): c1m.scale(Fraction(-1)),
        (0, 1): c2m.scale(Fraction(-1)),
        (0, 0): (lambda_d_matrix(params, (0, 0), PSI_VARS)
                 + shift_matrix(params, PSI_VARS)),
    })
    return scalar_radial_psi(params.m).lift(n) + first


_PSI_TO_X_JAC = {"psi1": {"x1": Fraction(2), "x2": Fraction(-2)},
                 "psi2": {"x1": Fraction(0), "x2": Fraction(4)}}


@dataclass(frozen=True)
class XFamily:
    r0_x: MatrixDiffOp            # scalar operator, transformed
    cmu1: PolyMatrix              # first-order matrices, transformed
    cmu2: PolyMatrix
    r0_x_reference: MatrixDiffOp  # stored reference coefficients
    cmu1_reference: PolyMatrix
    cmu2_reference: PolyMatrix


@lru_cache(maxsize=None)
def r0_x_reference(m: int) -> MatrixDiffOp:
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    return MatrixDiffOp.scalar_op(X_VARS, {
        (2, 0): 2 * x1 * x1 - 4 * x2 - 4,
        (0, 2): -2 * x1 * x1 + 4 * x2 * x2 + 4 * x2,
        (1, 1): 4 * x1 * x2 - 4 * x1,
        (1, 0): 2 * (m + 2) * x1 + 4 * m - 8,
        (0, 1): 2 * (m - 2) * x1 + (4 * m + 4) * x2 + 4,
    })


def _cmu_reference(params: PairParams) -> tuple[PolyMatrix, PolyMatrix]:
    a, b = params.a, params.b
    n = params.size
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    zero = MultiPoly.zero(X_VARS)
    off_sub = [-(r) * (x1 + x2 + 1) for r in range(n)]
    rows1 = [[zero] * n for _ in range(n)]
    rows2 = [[zero] * n for _ in range(n)]
    for r in range(n):
        rows1[r][r] = 2 * (a + b + r) * x1 - (4 * b + 4 * r)
        rows2[r][r] = -2 * (b + r) * x1 + (2 * a + 4 * b + 4 * r) * x2 + 2 * a
        if r > 0:
            rows1[r][r - 1] = rows2[r][r - 1] = off_sub[r]
        if r < n - 1:
            rows1[r][r + 1] = rows2[r][r + 1] = MultiPoly.const(X_VARS, -4 * (a - r))
    return PolyMatrix.from_rows(rows1), PolyMatrix.from_rows(rows2)


@lru_cache(maxsize=None)
def x_operator_family(params: PairParams) -> XFamily:
    r0x = scalar_radial_psi(params.m).change_vars_affine(
        X_VARS, _PSI_TO_X_JAC, psi_in_x())
    c1m, c2m = conjugation_matrices(params)
    c1x = c1m.substitute(psi_in_x(), X_VARS)
    c2x = c2m.substitute(psi_in_x(), X_VARS)
    cmu1 = c1x.scale(Fraction(2))
    cmu2 = c2x.scale(Fraction(4)) - c1x.scale(Fraction(2))
    ref1, ref2 = _cmu_reference(params)
    return XFamily(r0x, cmu1, cmu2, r0_x_reference(params.m), ref1, ref2)


@lru_cache(maxsize=None)
def pde_operator_x(params: PairParams) -> MatrixDiffOp:
    n = params.size
    fam = x_operator_family(params)
    first = MatrixDiffOp(X_VARS, {
        (1, 0): fam.cmu1.scale(Fraction(-1)),
        (0, 1): fam.cmu2.scale(Fraction(-1)),
        (0, 0): (lambda_d_matrix(params, (0, 0), X_VARS)
                 + shift_matrix(params, X_VARS)),
    })
    return fam.r0_x.lift(n) + first


def r0_transform_check(m: int) -> CheckResult:
    """Transformed scalar operator against the stored reference, coefficient
    map against coefficient map."""
    name = f"scalar operator coordinate transform (m={m})"
    got = scalar_radial_psi(m).change_vars_affine(X_VARS, _PSI_TO_X_JAC, psi_in_x())
    ref = r0_x_reference(m)
    if got == ref:
        d1 = got.coeff((1, 0)).entry(0, 0)
        d2 = got.coeff((0, 1)).entry(0, 0)
        return CheckResult(name, PASS, f"d/dx1 coefficient {d1}; d/dx2 coefficient {d2}")
    bad = [str(idx) for idx in sorted(set(got.coeffs) | set(ref.coeffs))
           if got.coeff(idx) != ref.coeff(idx)]
    return CheckResult(name, FAIL, "coefficients differ at indices " + ", ".join(bad))


def cmu_reference_check(params: PairParams) -> CheckResult:
    """Transformed first-order matrices against the stored reference entries.

    The references equal the exact negative of the transform; the transformed
    sign is the one under which the eigenvalue equations hold, so the global
    sign discrepancy is reported, not failed.
    """
    name = f"first-order matrix transform reference {params.tag()}"
    fam = x_operator_family(params)
    if fam.cmu1 == fam.cmu1_reference and fam.cmu2 == fam.cmu2_reference:
        return CheckResult(name, PASS)
    if (fam.cmu1.scale(Fraction(-1)) == fam.cmu1_reference
            and fam.cmu2.scale(Fraction(-1)) == fam.cmu2_reference):
        return CheckResult(
            name, REPORTED,
            "stored reference entries equal the negative of the affine "
            "transform of the verified psi-side matrices (global sign flip); "
            "the transform is what satisfies the eigenvalue equations")
    return CheckResult(name, FAIL, "reference is neither the transform nor its negative")


def full_transform_check(params: PairParams) -> CheckResult:
    """The assembled x-side operator is exactly the affine transform of the
    assembled psi-side operator."""
    name = f"assembled operator coordinate transform {params.tag()}"
    moved = pde_operator_psi(params).change_vars_affine(
        X_VARS, _PSI_TO_X_JAC, psi_in_x())
    if moved == pde_operator_x(params):
        return CheckResult(name, PASS)
    bad = [str(idx) for idx in sorted(set(moved.coeffs) | set(pde_operator_x(params).coeffs))
           if moved.coeff(idx) != pde_operator_x(params).coeff(idx)]
    return CheckResult(name, FAIL, "coefficients differ at indices " + ", ".join(bad))


# ---- expansion of the symmetric coordinates in scalar eigenfunctions ----

def scalar_eigenpoly(m: int, d: tuple[int, int]) -> MultiPoly:
    """The unique eigenfunction of the scalar operator with top monomial
    psi1^d1 psi2^d2, normalized to 1 at (psi1, psi2) = (2, 1)."""
    if d == (1, 0):
        basis = [(0, 0), (1, 0)]
    elif d == (0, 1):
        basis = [(0, 0), (1, 0), (0, 1)]
    else:
        raise ValueError("only the two linear-degree eigenfunctions are needed")
    target = casimir_eigenvalue(PairParams(m, 0, 0), MsfLabel(0, d[0], d[1]))
    op = scalar_radial_psi(m)
    images = [op.apply_scalar(MultiPoly.monomial(PSI_VARS, e)) for e in basis]
    support = sorted({e for img in images for e in img.terms} | set(basis))
    rows = []
    rhs = []
    for exp in support:
        rows.append([img.coefficient(exp)
                     - (target if basis[j] == exp else Fraction(0))
                     for j, img in enumerate(images)])
        rhs.append(Fraction(0))
    rows.append([Fraction(2) ** e[0] for e in basis])   # value at the identity
    rhs.append(Fraction(1))
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise AssertionError(f"eigenfunction system singular at m={m} (cannot happen)")
    acc = MultiPoly.zero(PSI_VARS)
    for coeff, exp in zip(sol, basis):
        acc = acc + MultiPoly.monomial(PSI_VARS, exp, coeff)
    return acc


def _in_eigenbasis(m: int, poly: MultiPoly, degrees: list[tuple[int, int]]):
    """Coordinates of poly in the basis {1} + eigenfunctions of the listed
    degrees, solved exactly."""
    basis = [MultiPoly.one(PSI_VARS)] + [scalar_eigenpoly(m, d) for d in degrees]
    support = sorted({e for p in basis for e in p.terms} | set(poly.terms))
    rows = [[p.coefficient(exp) for p in basis] for exp in support]
    rhs = [poly.coefficient(exp) for exp in support]
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise AssertionError("eigenbasis expansion failed (cannot happen)")
    return sol


def xi_constants(m: int) -> dict:
    """Expansion constants of psi1 and psi2 in the scalar eigenfunctions."""
    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    s0, s1 = _in_eigenbasis(m, p1, [(1, 0)])
    t0, t1, t2 = _in_eigenbasis(m, p2, [(1, 0), (0, 1)])
    return {"psi1": (s0, s1), "psi2": (t0, t1, t2),
            "phi1": scalar_eigenpoly(m, (1, 0)),
            "phi2": scalar_eigenpoly(m, (0, 1))}


def xi_suite(m: int) -> list[CheckResult]:
    data = xi_constants(m)
    out = []
    op = scalar_radial_psi(m)
    p0 = PairParams(m, 0, 0)
    ok = True
    details = []
    for d, phi in (((1, 0), data["phi1"]), ((0, 1), data["phi2"])):
        c = casimir_eigenvalue(p0, MsfLabel(0, *d))
        if op.apply_scalar(phi) != c * phi:
            ok = False
            details.append(f"eigen-equation fails at degree {d}")
        if phi.evaluate({"psi1": Fraction(2), "psi2": Fraction(1)}) != 1:
            ok = False
            details.append(f"identity normalization fails at degree {d}")
    out.append(CheckResult(f"scalar eigenfunctions solved (m={m})",
                           PASS if ok else FAIL, "; ".join(details)))

    s0, s1 = data["psi1"]
    want = (Fraction(4, m + 2), Fraction(2 * m, m + 2))
    out.append(CheckResult(
        f"first coordinate expansion constants (m={m})",
        PASS if (s0, s1) == want else FAIL,
        f"constant {s0}, eigenfunction coefficient {s1}"))

    t0, t1, t2 = data["psi2"]
    derived_ok = (t0, t1, t2) == (Fraction(2, (m + 1) * (m + 2)),
                                  Fraction(2, m + 2), Fraction(m - 1, m + 1))
    if not derived_ok:
        out.append(CheckResult(
            f"second coordinate expansion constants (m={m})", FAIL,
            f"solver produced ({t0}, {t1}, {t2})"))
    else:
        ref = (Fraction(2 * (m + 1) * (2 * m - 1), m * m * (m + 2) ** 2),
               Fraction(2 * (m + 1), (m + 2) ** 2),
               Fraction(m - 1, m + 2))
        out.append(CheckResult(
            f"second coordinate expansion constants (m={m})",
            PASS if ref == (t0, t1, t2) else REPORTED,
            f"derived (constant, first, second) = ({t0}, {t1}, {t2}), sum "
            f"{t0 + t1 + t2}; reference ({ref[0]}, {ref[1]}, {ref[2]}), sum "
            f"{sum(ref)}; the derived triple satisfies the identity "
            f"normalization sum = 1, the reference does not"))

    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    inv1_ref = ((m + 2) * p1 - 4) / m
    inv1_derived = ((m + 2) * p1 - 4) / (2 * m)
    got = data["phi1"]
    if got != inv1_derived:
        out.append(CheckResult(f"first eigenfunction inversion (m={m})", FAIL,
                               f"solver produced {got}"))
    else:
        out.append(CheckResult(
            f"first eigenfunction inversion (m={m})", REPORTED,
            f"reference inversion {inv1_ref} differs from the solved "
            f"eigenfunction {got} by a factor 2 in the denominator; the "
            f"solved form satisfies the eigen-equation and equals 1 at the "
            f"identity"))

    inv2_ref = (m * (m + 1) * p2 - (m + 1) * p1 + 2) / (m * (m - 1))
    out.append(CheckResult(
        f"second eigenfunction inversion (m={m})",
        PASS if data["phi2"] == inv2_ref else FAIL,
        "reference inversion formula matches the independently solved "
        "eigenfunction exactly"))
    return out


def casimir_suite(params: PairParams, dmax: int = 2) -> list[CheckResult]:
    return [
        scalar_eigen_check(params.m),
        scalar_radial_agreement_check(params.m),
        eigenvalue_agreement_check(params, dmax),
        bottom_lowering_check(params),
        general_lowering_check(params, dmax),
        reference_table_comparison(params, dmax),
        gradient_pairing_check(params),
    ]
