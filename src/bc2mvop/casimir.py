r"""Radial action of the Casimir operator and the derived operator families.

Three layers, increasingly packaged:

1. ``radial_operator_c``: the raw radial operator on length-(a+1) row
   vectors of polynomials on the torus (component k = M-type k) in
   (c1, c2), a ``MatrixDiffOp`` cached per parameter triple, whose scalar
   derivative part is built once per m.  The torus derivatives and the
   cotangent factors are rationalized via s^2 = 1 - c^2, so every
   coefficient is a numerator over the fixed denominator
   D = 2 c1^2 c2^2 (c2^2 - c1^2)^2.  ``radial_apply`` applies it and
   returns the numerators over D.
2. The scalar operator in (psi1, psi2) valid at a = b = 0, plus the
   tridiagonal first-order matrices A1, A2 that absorb the conjugation by
   the leading-term matrix for general (a, b).
3. The x-coordinate family: the psi-side operator E of a point moved
   whole under x1 = 2 psi1 - 2, x2 = 4 psi2 - 2 psi1 + 1, by
   ``MatrixDiffOp.change_vars_affine`` and nowhere else.  No stored
   x-coordinate coefficients are kept beside it.

The operators and label vectors of one point are `point_cache`s, which
`verify` drops when it leaves the point.  The scalar parts, which read m
alone, stay, since several points share them, and so do (A1, A2):
``conjugation_matrices(a, b)`` takes the K-type alone and is built once
per (a, b).

The radial-action checks all compare through ``_radial_mismatch``: an
identity A(v) = want holds when each numerator of A(v) equals D want.
``lowering_checks`` applies the radial operator once per label and judges
that one image against two tables through ``_lowering_mismatch``, which
forms want from the label's eigenvalue and a table of moves, one integer
combination per component: ``lowering_moves`` at every label for the
recursion, and the bottom identity's own stored drop at each (i, 0, 0).
The stored lowering table and the stored xi constants and inversions are
compared with what we derive (the xi constants, which ``xi_suite`` is
passed, by ``expansion.xi_constants``: this module reads no family) by
`report.against_reference`, each beside the one check that reads it: a
disagreement is REPORTED, both sides printed, only while its documented
relation holds; otherwise it FAILs.

``casimir_suite`` decides the two scalar radial checks once per m, on
``_radial_scalar_c(m)``, the whole radial operator at a = b = 0, so they
build nothing for a point; and the defining identity of (A1, A2), a
verdict of (a, b), once per (a, b), within the table of verdicts its
caller passes: `verify` passes one table per run, and a fresh table
decides afresh.  The other checks read the whole point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diffop import MatrixDiffOp
from .leading import (C1, C2, C_VARS, IDENTITY_PSI, PSI1, PSI2, PSI_IN_C,
                      PSI_IN_X, PSI_VARS, X_VARS, _require_weight_regime,
                      leading_term_matrix)
from .lie import (MsfLabel, PairParams, casimir_eigenvalue,
                  casimir_eigenvalue_ip, check_label, degree_pairs,
                  label_weight, labels_up_to, point_cache)
from .matrices import PolyMatrix
from .poly import MultiPoly, linear_combination
from .report import (CheckResult, FAIL, PASS, against_reference, at_point,
                     decide)


def vertical_term(params: PairParams, k: int) -> Fraction:
    """Constant contribution of the central torus direction to component k."""
    m, a, b = params.m, params.a, params.b
    u, v = a + b - k, b + k
    return Fraction(m * u * u - 4 * u * v + m * v * v, 2 * (m + 2))


# c1^2, c2^2, their split sin(t1+t2) sin(t1-t2), the torus polynomial
# q = c1 c2 (c2^2 - c1^2), and 2 q^2, the denominator of every coefficient
# of ``radial_operator_c``
C1SQ, C2SQ = C1 * C1, C2 * C2
SPLIT = C2SQ - C1SQ
TORUS_Q = C1 * C2 * SPLIT
RADIAL_DENOMINATOR = 2 * TORUS_Q * TORUS_Q


@lru_cache(maxsize=None)
def _radial_scalar_c(m: int) -> MatrixDiffOp:
    """The scalar derivative part of ``radial_operator_c``, which reads m
    alone, as numerators over ``RADIAL_DENOMINATOR``."""
    return MatrixDiffOp.scalar_op(C_VARS, {
        (2, 0): -TORUS_Q * TORUS_Q * (1 - C1SQ),
        (0, 2): -TORUS_Q * TORUS_Q * (1 - C2SQ),
        (1, 0): TORUS_Q * C2 * (((2 * m - 1) * C1SQ - 1) * SPLIT
                                + 4 * C1SQ * (1 - C1SQ)),
        (0, 1): TORUS_Q * C1 * (((2 * m - 1) * C2SQ - 1) * SPLIT
                                - 4 * C2SQ * (1 - C2SQ)),
    })


@point_cache
def radial_operator_c(params: PairParams) -> MatrixDiffOp:
    """The radial operator on M-type row vectors in (c1, c2), as numerators
    over ``RADIAL_DENOMINATOR``: the scalar derivative part, built once
    per m and lifted to size a+1, plus a tridiagonal zero-order matrix.
    Row vectors act on the right, so the hop from component k+1 into k is
    entry (k+1, k); the hop matrix is symmetric."""
    m, a, b, n = params.m, params.a, params.b, params.size
    cc = C1SQ * C2SQ
    stay = 4 * cc * (C1SQ + C2SQ - 2 * cc)
    hop = -4 * cc * C1 * C2 * (2 - C1SQ - C2SQ)
    entries = {}
    for k in range(n):
        moves = (k + 1) * (a - k) + k * (a - k + 1)     # raising + lowering
        entries[k, k] = (vertical_term(params, k) * RADIAL_DENOMINATOR
                         + moves * stay + SPLIT * SPLIT
                         * ((a + b - k) ** 2 * C2SQ + (b + k) ** 2 * C1SQ))
        if k < a:
            entries[k + 1, k] = entries[k, k + 1] = (k + 1) * (a - k) * hop
    return (_radial_scalar_c(m).lift(n) + MatrixDiffOp(
        C_VARS, {(0, 0): PolyMatrix.from_entries(n, C_VARS, entries)}))


def radial_apply(params: PairParams, comps) -> tuple[MultiPoly, ...]:
    """Apply the radial operator to an M-type vector of polynomials in (c1,c2).

    ``radial_operator_c`` acts once on the row vector; the result holds the
    numerators of the image over ``RADIAL_DENOMINATOR``.  A vector of the
    wrong length is refused by ``PolyMatrix``, one in other variables by
    ``MatrixDiffOp.apply``, both with ValueError.
    """
    return radial_operator_c(params).apply(
        PolyMatrix(1, params.size, comps)).entries


def _radial_mismatch(name: str, place: str, images, want) -> CheckResult | None:
    """None when the radial images equal want exactly, else the FAIL at
    place for the first differing component.

    The images are numerators over D = ``RADIAL_DENOMINATOR``, as
    ``radial_apply`` gives them, so each one is compared with D want:
    Q[c1, c2] has no zero divisors and D != 0, so they agree exactly when
    the image is a polynomial equal to want.  The residual is the numerator
    minus D want, which is the numerator of image minus want over D."""
    for k, (g, w) in enumerate(zip(images, want)):
        dw = RADIAL_DENOMINATOR * w
        if g != dw:
            return CheckResult(name, FAIL, f"{place}, component {k}",
                               residual=str(g - dw))
    return None


# ---- leading-term vectors and the triangular recursion ----

@lru_cache(maxsize=None)
def _psi_power_c(d1: int, d2: int) -> MultiPoly:
    return PSI_IN_C["psi1"] ** d1 * PSI_IN_C["psi2"] ** d2


@point_cache
def label_vector(params: PairParams, label: MsfLabel) -> tuple[MultiPoly, ...]:
    """psi1^d1 psi2^d2 times the bottom vector, row i of the leading-term
    matrix, in (c1, c2)."""
    check_label(params, label)
    factor = _psi_power_c(label.d1, label.d2)
    return tuple(factor * q for q in
                 leading_term_matrix(params.a, params.b).row(label.i))


def lowering_moves(params: PairParams, label: MsfLabel) -> dict[MsfLabel, int]:
    """The seven lowering moves out of a label with their integer
    coefficients."""
    a, b = params.a, params.b
    i, d1, d2 = label.i, label.d1, label.d2
    raw = [
        ((i, d1 - 1, d2), -2 * d1 * (d1 + 4 * d2 + 3 + a + 2 * b + 2 * i)),
        ((i, d1 - 2, d2 + 1), -4 * d1 * (d1 - 1)),
        ((i, d1 + 1, d2 - 1), -2 * d2 * (d2 + b + i)),
        ((i - 1, d1, d2), -2 * i * (b + i + d2)),
        ((i - 1, d1 - 1, d2 + 1), -2 * i * d1),
        ((i + 1, d1 - 1, d2), -2 * (a - i) * d1),
        ((i + 1, d1, d2 - 1), -2 * (a - i) * d2),
    ]
    out: dict[MsfLabel, int] = {}
    for (ti, td1, td2), coeff in raw:
        valid = 0 <= ti <= a and td1 >= 0 and td2 >= 0
        if coeff == 0:
            continue
        if not valid:
            raise AssertionError(
                f"nonzero lowering coefficient {coeff} aims at invalid label "
                f"({ti},{td1},{td2}) from {label}")
        key = MsfLabel(ti, td1, td2)
        out[key] = out.get(key, 0) + coeff
    return out


def scalar_eigen_check(m: int) -> CheckResult:
    """At a = b = 0 the operator, ``_radial_scalar_c(m)`` alone there, sends
    psi1 and psi2 to the stated images."""
    name = f"radial action on symmetric coordinates (m={m})"
    op = _radial_scalar_c(m).apply_scalar
    f1, f2 = PSI_IN_C["psi1"], PSI_IN_C["psi2"]
    for which, f, want in (("first", f1, (2 * m + 4) * f1 - 8),
                           ("second", f2, (4 * m + 4) * f2 - 2 * f1)):
        fail = _radial_mismatch(name, f"{which} coordinate", [op(f)], [want])
        if fail:
            return fail
    return CheckResult(name, PASS)


def _lowering_mismatch(name: str, place: str, params: PairParams,
                       label: MsfLabel, image,
                       moves: dict) -> CheckResult | None:
    """None when image, the radial image of the label's vector, is its
    eigenvalue times that vector plus coeff times the target's vector for
    each move, else ``_radial_mismatch``'s FAIL at place.  The wanted
    vector is one integer combination per component."""
    terms = [(casimir_eigenvalue(params, label), label_vector(params, label))]
    terms += [(coeff, label_vector(params, target))
              for target, coeff in moves.items()]
    want = [linear_combination((c, v[k]) for c, v in terms)
            for k in range(params.size)]
    return _radial_mismatch(name, place, image, want)


def lowering_checks(params: PairParams, dmax: int) -> list[CheckResult]:
    """The bottom lowering identity and the triangular recursion, judged on
    one radial image per label.  The recursion wants, for every label, the
    eigenvalue term plus the seven-move table; the bottom identity wants,
    for each bottom label (i, 0, 0), the eigenvalue c_{nu_i} plus a single
    drop to i-1 with coefficient -2i(b+i), stored here apart from
    ``lowering_moves``.  Each line reports its own first failure."""
    bottom_name = f"bottom lowering identity {params.tag()}"
    table_name = f"triangular recursion table {params.tag()} dmax={dmax}"
    labels = labels_up_to(params, dmax)
    bottom = table = None
    for label in labels:
        image = radial_apply(params, label_vector(params, label))
        if table is None:
            table = _lowering_mismatch(table_name, f"label {label}", params,
                                       label, image,
                                       lowering_moves(params, label))
        if bottom is None and label.d1 == label.d2 == 0:
            i = label.i
            drop = {MsfLabel(i - 1, 0, 0): -2 * i * (params.b + i)} if i else {}
            bottom = _lowering_mismatch(bottom_name, f"i={i}", params, label,
                                        image, drop)
    return [bottom or CheckResult(bottom_name, PASS,
                                  f"{params.size} bottom rows"),
            table or CheckResult(table_name, PASS, f"{len(labels)} labels")]


def reference_table_comparison(params: PairParams, dmax: int) -> CheckResult:
    """Derived lowering table versus the stored reference coefficients.

    The reference value for the move (d1-2, d2+1) is -2 d1 (d1-1); the
    recursion only closes with -4 d1 (d1-1).  Visible whenever d1 >= 2.
    A derived coefficient other than the reference or twice it is a FAIL.
    """
    name = f"lowering table reference comparison {params.tag()} dmax={dmax}"
    moves = []
    for label in labels_up_to(params, dmax):
        if label.d1 < 2:     # no (d1-2, d2+1) move; both coefficients vanish
            continue
        key = MsfLabel(label.i, label.d1 - 2, label.d2 + 1)
        o = lowering_moves(params, label).get(key, Fraction(0))
        r = Fraction(-2 * label.d1 * (label.d1 - 1))
        moves.append((f"{label}->({key.i},{key.d1},{key.d2}): "
                      f"derived {o}, reference {r}", o, r))
    diffs = [move for move, o, r in moves if o != r]
    broken = next((move for move, o, r in moves if o not in (r, 2 * r)), None)
    return against_reference(
        name, [o for _, o, _ in moves], [r for _, _, r in moves],
        broken is None, "tables coincide on this range (no d1>=2 label)",
        "reference coefficient -2d1(d1-1) for the (d1-2,d2+1) move "
        "disagrees with the derived -4d1(d1-1), which is the value the "
        "verified recursion uses: " + "; ".join(diffs[:4])
        + (f" (+{len(diffs) - 4} more)" if len(diffs) > 4 else ""),
        f"{broken}, not twice the reference")


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
    p1, p2 = PSI1, PSI2
    return MatrixDiffOp.scalar_op(PSI_VARS, {
        (2, 0): 2 * p1 * p1 - 2 * p1 - 4 * p2,
        (0, 2): 4 * p2 * p2 - 2 * p1 * p2,
        (1, 1): 4 * p1 * p2 - 8 * p2,
        (1, 0): (2 * m + 4) * p1 - 8,
        (0, 1): (4 * m + 4) * p2 - 2 * p1,
    })


AGREEMENT_DEG = 3


def scalar_radial_agreement_check(m: int) -> CheckResult:
    """Two independent code paths for the scalar operator, in psi and in c
    (``_radial_scalar_c``), must agree on all monomials psi1^u psi2^v with
    u+v <= AGREEMENT_DEG."""
    name = f"scalar operator route agreement (m={m}, deg<={AGREEMENT_DEG})"
    op, op_c = scalar_radial_psi(m), _radial_scalar_c(m).apply_scalar
    for u, v in degree_pairs(AGREEMENT_DEG):
        mono = MultiPoly.monomial(PSI_VARS, (u, v))
        via_psi = op.apply_scalar(mono).substitute(PSI_IN_C, C_VARS)
        fail = _radial_mismatch(name, f"monomial ({u},{v})",
                                [op_c(_psi_power_c(u, v))], [via_psi])
        if fail:
            return fail
    return CheckResult(name, PASS)


@lru_cache(maxsize=None)
def conjugation_matrices(a: int, b: int) -> tuple[PolyMatrix, PolyMatrix]:
    """First-order coefficient matrices (A1, A2), tridiagonal in size a+1,
    built once per (a, b), which is all they read: each its own diagonal
    plus the off-diagonals both share, (r, r-1) entry 2 r psi2 and (r, r+1)
    entry 2 (a-r)."""
    _require_weight_regime(a, b)
    n = a + 1
    off = {(r, r - 1): 2 * r * PSI2 for r in range(1, n)}
    off.update({(r, r + 1): 2 * (a - r) for r in range(a)})
    diag1 = {(r, r): 2 * (a + 2 * b + 2 * r) - 2 * (a + b + r) * PSI1
             for r in range(n)}
    diag2 = {(r, r): 2 * (b + r) * PSI1 - 2 * (a + 2 * b + 2 * r) * PSI2
             for r in range(n)}
    return (PolyMatrix.from_entries(n, PSI_VARS, off | diag1),
            PolyMatrix.from_entries(n, PSI_VARS, off | diag2))


def gradient_pairing_verdict(a: int, b: int) -> CheckResult:
    """Defining identity of (A1, A2): pairing the torus gradients of the
    symmetric coordinates with the gradient of Q0 equals A_i Q0."""
    name = "conjugation matrix defining identity"
    q0 = leading_term_matrix(a, b)
    a1, a2 = conjugation_matrices(a, b)
    w1 = (2 * C1 * (1 - C1SQ), 2 * C2 * (1 - C2SQ))
    w2 = (w1[0] * C2SQ, w1[1] * C1SQ)
    for tag_i, weights, amat in (("first", w1, a1), ("second", w2, a2)):
        lhs = q0.map_entries(lambda e: weights[0] * e.derive("c1")
                             + weights[1] * e.derive("c2"))
        rhs = amat.substitute(PSI_IN_C, C_VARS) @ q0
        if lhs != rhs:
            return CheckResult(name, FAIL, f"{tag_i} coordinate pairing fails")
    return CheckResult(name, PASS)


@point_cache
def pde_operator_psi(params: PairParams) -> MatrixDiffOp:
    """Right-acting operator E with E(Q_d) = Lambda_d Q_d:

    E(Q) = R0(Q) - dQ/dpsi1 A1 - dQ/dpsi2 A2 + Q (Lambda0 + shift),

    with R0 = ``scalar_radial_psi(m)`` lifted to size a+1, Lambda0 the
    eigenvalues of the labels (i, 0, 0) at (i, i), and the shift -2 r (b+r)
    at (r, r-1)."""
    n, b = params.size, params.b
    a1, a2 = conjugation_matrices(params.a, b)
    zero_order = {(i, i): casimir_eigenvalue(params, MsfLabel(i, 0, 0))
                  for i in range(n)}
    zero_order.update({(r, r - 1): -2 * r * (b + r) for r in range(1, n)})
    return scalar_radial_psi(params.m).lift(n) + MatrixDiffOp(
        PSI_VARS, {(1, 0): a1.scale(-1), (0, 1): a2.scale(-1),
                   (0, 0): PolyMatrix.from_entries(n, PSI_VARS, zero_order)})


@point_cache
def pde_operator_x(params: PairParams) -> MatrixDiffOp:
    """The psi-side operator E moved whole to (x1, x2) by the affine
    change."""
    return pde_operator_psi(params).change_vars_affine(X_VARS, PSI_IN_X)


def xi_references(m: int) -> dict:
    """The stored closed forms the xi suite compares with: the expansion
    constants of psi2 (they do not sum to 1) and the inversions phi1 (twice
    the solved one) and phi2, in (psi1, psi2)."""
    return {"psi2": (Fraction(2 * (m + 1) * (2 * m - 1), m * m * (m + 2) ** 2),
                     Fraction(2 * (m + 1), (m + 2) ** 2), Fraction(m - 1, m + 2)),
            "phi1": ((m + 2) * PSI1 - 4) / m,
            "phi2": (m * (m + 1) * PSI2 - (m + 1) * PSI1 + 2) / (m * (m - 1))}


def xi_suite(m: int, data: dict) -> list[CheckResult]:
    """The checks of ``data``, the xi constants of m that
    ``expansion.xi_constants(m)`` solves, against ``xi_references(m)``."""
    refs = xi_references(m)
    out = []
    op, p0 = scalar_radial_psi(m), PairParams(m, 0, 0)
    details = []
    for d, phi in (((1, 0), data["phi1"]), ((0, 1), data["phi2"])):
        c = casimir_eigenvalue(p0, MsfLabel(0, *d))
        if op.apply_scalar(phi) != c * phi:
            details.append(f"eigen-equation fails at degree {d}")
        if phi.evaluate(IDENTITY_PSI) != 1:
            details.append(f"identity normalization fails at degree {d}")
    out.append(CheckResult(f"scalar eigenfunctions solved (m={m})",
                           FAIL if details else PASS, "; ".join(details)))

    s0, s1 = data["psi1"]
    want = (Fraction(4, m + 2), Fraction(2 * m, m + 2))
    out.append(CheckResult(
        f"first coordinate expansion constants (m={m})",
        PASS if (s0, s1) == want else FAIL,
        f"constant {s0}, eigenfunction coefficient {s1}"))

    t0, t1, t2 = data["psi2"]
    name = f"second coordinate expansion constants (m={m})"
    if (t0, t1, t2) != (Fraction(2, (m + 1) * (m + 2)), Fraction(2, m + 2),
                        Fraction(m - 1, m + 1)):
        out.append(CheckResult(name, FAIL, f"solver produced ({t0}, {t1}, {t2})"))
    else:
        ref = refs["psi2"]
        both = (f"derived (constant, first, second) = ({t0}, {t1}, {t2}), sum "
                f"{t0 + t1 + t2}; reference ({ref[0]}, {ref[1]}, {ref[2]}), "
                f"sum {sum(ref)}")
        out.append(against_reference(
            name, (t0, t1, t2), ref, t0 + t1 + t2 == 1 != sum(ref), both,
            both + "; the derived triple satisfies the identity normalization "
            "sum = 1, the reference does not", both))

    got, ref = data["phi1"], refs["phi1"]
    both = f"reference inversion {ref}, solved {got}"
    out.append(against_reference(
        f"first eigenfunction inversion (m={m})", got, ref, ref == 2 * got,
        both,
        f"reference inversion {ref} differs from the solved eigenfunction "
        f"{got} by a factor 2 in the denominator; the solved form satisfies "
        f"the eigen-equation and equals 1 at the identity", both))

    got, ref = data["phi2"], refs["phi2"]
    out.append(against_reference(
        f"second eigenfunction inversion (m={m})", got, ref, False,
        "reference inversion formula matches the independently solved "
        "eigenfunction exactly", "", f"reference inversion {ref}, solved {got}"))
    return out


def casimir_suite(params: PairParams, dmax: int,
                  verdicts: dict) -> list[CheckResult]:
    """The Casimir checks at one point; within ``verdicts`` the scalar
    radial checks are decided once per m and the (A1, A2) identity once
    per (a, b)."""
    return [
        decide(verdicts, scalar_eigen_check, params.m),
        decide(verdicts, scalar_radial_agreement_check, params.m),
        eigenvalue_agreement_check(params, dmax),
        *lowering_checks(params, dmax),
        reference_table_comparison(params, dmax),
        at_point(gradient_pairing_verdict, params, verdicts),
    ]
