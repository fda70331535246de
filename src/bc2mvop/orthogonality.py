r"""Exact integration over the parabolic region and the orthogonality of the
polynomial family.

Everything rational rests on one monomial rule: on [0, pi/2],

    int cos^(2p+1)(t) sin^(2m-3)(t) dt = p! (m-2)! / (2 (p+m-1)!).

Region integrals pull back through the 2:1 trigonometric cover, where the
half-integer weight factor and the Jacobian combine into the square
(c1^2 - c2^2)^2, so no splitting or radicals ever appear.  A floating-point
Gauss-Legendre path recomputes the same integrals independently.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .expansion import poly_matrix_x
from .leading import (C_VARS, X_VARS, weight_matrix_c, weight_matrix_x,
                      det_reference_c, x_in_c)
from .lie import MsfLabel, PairParams, label_weight, weyl_dim
from .matrices import PolyMatrix, frac_det, nullspace_dim
from .poly import MultiPoly
from .report import CheckResult, FAIL, PASS, REPORTED


def beta_moment(m: int, p: int) -> Fraction:
    """int_0^(pi/2) cos^(2p+1) sin^(2m-3) dt, exactly."""
    if m < 3 or p < 0:
        raise ValueError("need m >= 3 and p >= 0")
    return Fraction(math.factorial(p) * math.factorial(m - 2),
                    2 * math.factorial(p + m - 1))


def _split_factor() -> MultiPoly:
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    return (c1 * c1 - c2 * c2) ** 2


def integrate_against_delta(params: PairParams, p: MultiPoly) -> Fraction:
    """Integral of p(c1, c2) against the group density
    4 s1^(2m-3) s2^(2m-3) c1 c2 (c1^2-c2^2)^2 over [0, pi/2]^2."""
    if p.vars != C_VARS:
        raise ValueError("integrand must be a polynomial in (c1, c2)")
    for exp in p.terms:
        if exp[0] % 2 or exp[1] % 2:
            raise ValueError(f"odd cosine exponent {exp}: integrand must be "
                             "even in both variables")
    m = params.m
    acc = Fraction(0)
    for (e1, e2), coeff in (p * _split_factor()).terms.items():
        acc += coeff * beta_moment(m, e1 // 2) * beta_moment(m, e2 // 2)
    return 4 * acc


def region_integral(params: PairParams, M: MultiPoly) -> Fraction:
    """Integral of M(x1, x2) over the parabolic region against the scalar
    weight (1-x1+x2)^(m-2) (1+x1+x2)^b (x1^2-4x2)^(1/2)."""
    if M.vars != X_VARS:
        raise ValueError("integrand must be a polynomial in (x1, x2)")
    m, b = params.m, params.b
    pulled = M.substitute(x_in_c(), C_VARS)
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    pulled = pulled * (c1 * c1) ** b * (c2 * c2) ** b
    return Fraction(2) ** (2 * m + 2 * b - 1) * integrate_against_delta(params, pulled)


def region_integral_matrix(params: PairParams, M: PolyMatrix) -> list[list[Fraction]]:
    return [[region_integral(params, M.entry(i, j)) for j in range(M.cols)]
            for i in range(M.rows)]


def total_mass_check(m: int) -> CheckResult:
    """Full-torus mass of |density| against the stored normalization claim.

    The two are exact reciprocals of each other: one section of the source
    defines the constant as the mass, another computes its reciprocal as the
    mass, and the computed value matches the reciprocal reading.
    """
    name = f"density total mass (m={m})"
    quarter = integrate_against_delta(PairParams(m, 0, 0), MultiPoly.one(C_VARS))
    full = 16 * quarter
    claim = Fraction(m * m * (m * m - 1), 32)
    if full == claim:
        return CheckResult(name, PASS, f"mass {full}")
    if full * claim == 1:
        return CheckResult(
            name, REPORTED,
            f"computed mass {full} is the exact reciprocal of the stored "
            f"claim {claim}; the stored normalization chain uses the constant "
            f"and its reciprocal interchangeably")
    return CheckResult(name, FAIL, f"mass {full}, claim {claim}, not reciprocal")


def in_region(x1: Fraction, x2: Fraction) -> bool:
    """Membership in the closed parabolic region with corners (2,1), (-2,1),
    (0,-1)."""
    return 4 * x2 <= x1 * x1 and x2 >= x1 - 1 and x2 >= -x1 - 1


# ---- Gram matrices of the family ----

def _degree_pairs(dmax: int) -> list[tuple[int, int]]:
    return [(d1, d2) for d1 in range(dmax + 1) for d2 in range(dmax + 1 - d1)]


@functools.lru_cache(maxsize=None)
def _gram_cached(params: PairParams, d: tuple[int, int],
                 dp: tuple[int, int]) -> tuple[tuple[Fraction, ...], ...]:
    s0 = weight_matrix_x(PairParams(params.m, params.a, 0))
    prod = poly_matrix_x(params, d) @ s0 @ poly_matrix_x(params, dp).transpose()
    return tuple(tuple(row) for row in region_integral_matrix(params, prod))


def gram(params: PairParams, d: tuple[int, int],
         dp: tuple[int, int]) -> list[list[Fraction]]:
    """G(d, d') = region integral of R_d S R_d'^T entrywise, with the
    b-dependence in the scalar weight and S taken at (a, 0)."""
    return [list(row) for row in _gram_cached(params, tuple(d), tuple(dp))]


def orthogonality_suite(params: PairParams, dmax: int = 2) -> list[CheckResult]:
    """Pairwise orthogonality, diagonality, and the shared norm constant."""
    out = []
    degs = _degree_pairs(dmax)
    tag = params.tag()

    ok = True
    for ia, d in enumerate(degs):
        for dp in degs[ia + 1:]:
            G = gram(params, d, dp)
            bad = [(i, j) for i in range(len(G)) for j in range(len(G))
                   if G[i][j] != 0]
            if bad:
                i, j = bad[0]
                out.append(CheckResult(
                    f"orthogonality of distinct degrees {tag}", FAIL,
                    f"d={d}, d'={dp}, entry {bad[0]}",
                    data={"residual": str(G[i][j])}))
                ok = False
    if ok:
        out.append(CheckResult(f"orthogonality of distinct degrees {tag}",
                               PASS, f"{len(degs)} degrees, dmax={dmax}"))

    kappa = None
    witness = ""
    diag_ok = True
    norm_ok = True
    for d in degs:
        G = gram(params, d, d)
        for i in range(len(G)):
            for j in range(len(G)):
                if i != j and G[i][j] != 0:
                    out.append(CheckResult(
                        f"diagonality of squared norms {tag}", FAIL,
                        f"d={d}, entry ({i},{j})",
                        data={"residual": str(G[i][j])}))
                    diag_ok = False
        for k in range(len(G)):
            dim = weyl_dim(label_weight(params, MsfLabel(k, d[0], d[1])))
            val = G[k][k] * dim
            if kappa is None:
                kappa = val
                witness = f"kappa = {val}"
            elif val != kappa:
                out.append(CheckResult(
                    f"norm constant independence {tag}", FAIL,
                    f"d={d}, k={k}: {val} != {kappa}"))
                norm_ok = False
    if diag_ok:
        out.append(CheckResult(f"diagonality of squared norms {tag}", PASS))
    if norm_ok:
        out.append(CheckResult(
            f"norm constant independence {tag}", PASS,
            f"{witness} across all degrees and rows, dmax={dmax}"))

    m, b, n = params.m, params.b, params.size
    derived = Fraction(n * n * 2 ** (2 * m + 2 * b), m * m * (m * m - 1))
    out.append(CheckResult(
        f"norm constant derived closed form {tag}",
        PASS if kappa == derived else FAIL,
        f"kappa = {kappa}" if kappa == derived
        else f"kappa = {kappa}, derived (a+1)^2 2^(2m+2b)/(m^2(m^2-1)) = {derived}"))

    printed = (Fraction(2) ** (2 * m + 2 * b - 10)
               * m ** 2 * (m ** 2 - 1) * n ** 2)
    if kappa == printed:
        out.append(CheckResult(f"norm constant stored closed form {tag}", PASS,
                               f"kappa = {kappa}"))
    else:
        square = Fraction(m * m * (m * m - 1), 32) ** 2
        ratio = printed / kappa
        extra = ("; the ratio is the square of the mass constant "
                 "m^2(m^2-1)/32" if ratio == square else "")
        out.append(CheckResult(
            f"norm constant stored closed form {tag}", REPORTED,
            f"computed kappa = {kappa}; stored closed form "
            f"2^(2m+2b-10) m^2 (m^2-1) (a+1)^2 = {printed}; ratio "
            f"stored/computed = {ratio}{extra}"))
    return out


# ---- positivity and indecomposability ----

_INTERIOR = [(Fraction(1, 2), Fraction(1, 3)),
             (Fraction(3, 4), Fraction(1, 4)),
             (Fraction(5, 6), Fraction(2, 3)),
             (Fraction(9, 10), Fraction(1, 7))]


def positivity_check(params: PairParams) -> CheckResult:
    """Leading principal minors of the weight matrix are positive at interior
    sample points; the determinant vanishes on the boundary pieces carried by
    its closed-form factors."""
    name = f"weight positivity on the region {params.tag()}"
    s = weight_matrix_c(params)
    n = s.rows
    for (v1, v2) in _INTERIOR:
        point = {"c1": v1, "c2": v2}
        vals = s.evaluate(point)
        for k in range(1, n + 1):
            minor = frac_det([row[:k] for row in vals[:k]])
            if minor <= 0:
                return CheckResult(name, FAIL,
                                   f"minor {k} at c=({v1},{v2}) is {minor}")
    detail = f"{len(_INTERIOR)} interior points, {n} minors each"
    dref = det_reference_c(params)
    # boundary components present in the determinant's closed form
    if params.a >= 1:
        onpar = dref.evaluate({"c1": Fraction(1, 2), "c2": Fraction(1, 2)})
        if onpar != 0:
            return CheckResult(name, FAIL, f"determinant {onpar} on c1=c2")
        detail += "; determinant vanishes on the parabola component"
    if params.a >= 1 or params.b >= 1:
        online = dref.evaluate({"c1": Fraction(1, 2), "c2": Fraction(0)})
        if online != 0:
            return CheckResult(name, FAIL, f"determinant {online} on c2=0")
        detail += " and on the c2=0 line"
    return CheckResult(name, PASS, detail)


def indecomposability_check(params: PairParams) -> tuple[int, int]:
    """Dimensions of the exact solution spaces of T S = S T (complex
    commutant) and of the real pair X S = S X^T, Y S = -S Y^T.

    A single shared dimension in each slot (1, 1) means the weight does not
    split into smaller blocks."""
    s = weight_matrix_c(params)
    n = s.rows
    support = sorted({e for i in range(n) for j in range(n)
                      for e in s.entry(i, j).terms})

    def rows_for(sign: int, transpose: bool) -> list[list[Fraction]]:
        # coefficient matching of T S - sign * (S T or S T^T) = 0
        rows = []
        for i in range(n):
            for j in range(n):
                for exp in support:
                    row = [Fraction(0)] * (n * n)
                    for k in range(n):
                        # (T S)_{ij} term through T_{ik}
                        row[i * n + k] += s.entry(k, j).coefficient(exp)
                        # (S T)_{ij} through T_{kj}, or (S T^T)_{ij} through T_{jk}
                        if transpose:
                            row[j * n + k] -= sign * s.entry(i, k).coefficient(exp)
                        else:
                            row[k * n + j] -= sign * s.entry(i, k).coefficient(exp)
                    rows.append(row)
        return rows

    dim_comm = nullspace_dim(rows_for(+1, False), n * n)
    dim_sym = nullspace_dim(rows_for(+1, True), n * n)
    dim_anti = nullspace_dim(rows_for(-1, True), n * n)
    return dim_comm, dim_sym + dim_anti


def indecomposability_suite(params: PairParams) -> list[CheckResult]:
    name = f"weight indecomposability {params.tag()}"
    comm, real = indecomposability_check(params)
    if (comm, real) == (1, 1):
        return [CheckResult(name, PASS, "commutant and real pair space are "
                                        "both one-dimensional")]
    return [CheckResult(name, FAIL, f"dimensions ({comm}, {real}), expected (1, 1)")]


# ---- floating-point cross-check ----

def _float_terms(p: MultiPoly) -> list[tuple[int, int, float]]:
    return [(e[0], e[1], float(c)) for e, c in p.sorted_terms()]


def _quad_nodes(order: int):
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(order)
    half = math.pi / 4
    return half * (x + 1.0), half * w


def numeric_crosscheck(params: PairParams, d: tuple[int, int],
                       dp: tuple[int, int], order: int | None = None,
                       rtol: float = 1e-8) -> CheckResult:
    """Gauss-Legendre quadrature of the Gram integrals in t-coordinates,
    compared against the exact rational values.

    The factors R_d, S, R_d' are evaluated separately at the nodes and
    multiplied in floating point: expanding the product first produces
    coefficients orders of magnitude above the integral values, and the
    cancellation caps the achievable relative accuracy near 1e-7.
    """
    import numpy as np

    name = (f"numeric quadrature agreement {params.tag()} "
            f"d=({d[0]},{d[1]}) d'=({dp[0]},{dp[1]})")
    m, b = params.m, params.b
    exact = gram(params, d, dp)
    lc = poly_matrix_x(params, d).substitute(x_in_c(), C_VARS)
    rc = poly_matrix_x(params, dp).substitute(x_in_c(), C_VARS)
    sc = weight_matrix_c(PairParams(m, params.a, 0))

    def pv_degree(mat):
        return max((max(exp) for i in range(mat.rows) for j in range(mat.cols)
                    for exp, _ in mat.entry(i, j).sorted_terms()), default=0)

    if order is None:
        # node count from the trigonometric degree per variable: polynomial
        # part plus the density sin^(2m-3) cos (c1^2-c2^2)^2 (c1 c2)^(2b);
        # 48 nodes hold to ~1e-11 up to degree 32, degrade past that
        trig_degree = (pv_degree(lc) + pv_degree(sc) + pv_degree(rc)
                       + 2 * m + 2 * b + 2)
        order = 48 if trig_degree <= 30 else trig_degree + 32

    t, w = _quad_nodes(order)
    c1, c2 = np.meshgrid(np.cos(t), np.cos(t), indexing="ij")
    s1, s2 = np.meshgrid(np.sin(t), np.sin(t), indexing="ij")
    ww = w[:, None] * w[None, :]
    density = (4.0 * s1 ** (2 * m - 3) * s2 ** (2 * m - 3) * c1 * c2
               * (c1 ** 2 - c2 ** 2) ** 2 * (c1 * c2) ** (2 * b))
    scale = 2.0 ** (2 * m + 2 * b - 1)

    def mesh_eval(mat):
        out = [[None] * mat.cols for _ in range(mat.rows)]
        for i in range(mat.rows):
            for j in range(mat.cols):
                vals = np.zeros_like(c1)
                for (e1, e2, coeff) in _float_terms(mat.entry(i, j)):
                    vals += coeff * c1 ** e1 * c2 ** e2
                out[i][j] = vals
        return out

    lv, sv, rv = mesh_eval(lc), mesh_eval(sc), mesh_eval(rc)

    # zero targets (off-diagonal, distinct degrees) are judged against the
    # size of the corresponding diagonal norms
    diag_scale = max(abs(float(gram(params, e, e)[k][k]))
                     for e in {d, dp} for k in range(params.size))
    worst = 0.0
    for i in range(lc.rows):
        for j in range(rc.rows):
            vals = np.zeros_like(c1)
            for k in range(params.size):
                for l in range(params.size):
                    vals += lv[i][k] * sv[k][l] * rv[j][l]
            num = scale * float(np.sum(ww * vals * density))
            ex = float(exact[i][j])
            dev = abs(num - ex) / (abs(ex) if ex != 0 else diag_scale)
            worst = max(worst, dev)
    if worst > rtol:
        return CheckResult(name, FAIL,
                           f"worst relative deviation {worst:.3e} > {rtol:.0e}")
    return CheckResult(name, PASS, f"worst relative deviation {worst:.3e}")


def numeric_suite(params: PairParams, dmax: int = 1) -> list[CheckResult]:
    out = []
    degs = _degree_pairs(dmax)
    for ia, d in enumerate(degs):
        for dp in degs[ia:]:
            out.append(numeric_crosscheck(params, d, dp))
    return out


def region_grid(params: PairParams, nx: int = 40, ny: int = 25, mat=None):
    """Evaluation grid over the bounding box of the region: rows of
    (x1, x2, matrix entries row-major, membership flag).

    Defaults to the weight matrix; any PolyMatrix in x-variables works.
    """
    s = weight_matrix_x(params) if mat is None else mat
    rows = []
    for iy in range(ny):
        x2 = Fraction(-1) + Fraction(2 * iy, ny - 1)
        for ix in range(nx):
            x1 = Fraction(-2) + Fraction(4 * ix, nx - 1)
            point = {"x1": x1, "x2": x2}
            vals = [s.entry(i, j).evaluate(point)
                    for i in range(s.rows) for j in range(s.cols)]
            rows.append((x1, x2, vals, in_region(x1, x2)))
    return rows
