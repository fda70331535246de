r"""Exact integration over the parabolic region and the orthogonality of the
polynomial family.

Everything rational rests on one monomial rule: on [0, pi/2],

    int cos^(2p+1)(t) sin^(2m-3)(t) dt = p! (m-2)! / (2 (p+m-1)!).

A region integral pulls back through the 2:1 trigonometric cover, where the
half-integer weight factor and the Jacobian combine into the square
(c1^2 - c2^2)^2, so no splitting or radicals ever appear.
`integrate_against_delta` never forms that product: the square expands at
the exponent level into three shifted Beta products, and each term is
summed against a cached table of integer Beta numerators B(m, p) D over
one denominator D per (m, top p).

The density reads m alone and the scalar weight (m, b) alone, so
`integrate_against_delta` takes m and `region_integral` takes (m, b),
never a point, and every Gram integral is a linear function of the
monomial moments int x1^i x2^j.  `moment` computes each of them once per
(m, b) by that pull-back and caches it.  The pull-back of x1^i x2^j to
(c1, c2) does not depend on (m, b) at all: `_pulled_monomial` is one
shared, cached table of them, each entry one product from its predecessor,
so `region_integral` reads the pull-back of every monomial of its
integrand from that table instead of substituting, and takes the factor
(c1 c2)^(2b) of the weight as a shift of the exponents.  The table relies
on callers never mutating an entry, which holds because MultiPoly is
immutable.

A Gram matrix G(d, d') = int R_d S R_d'^T, with S taken at (a, 0), is
contracted against one matrix moment table per parameter point,
`_matrix_moments`: the integrals M[k][l][g] = int x^g S_kl over one
denominator, for k <= l since S is symmetric, and for every g up to twice
the highest degree asked for so far; a higher degree extends the table.
From it `_weighted_moments` reads, once per (point, degree d'), the
integrals U[j][k][e] = sum_l sum_f (R_d')_jl[f] M[k][l][e + f] of
x^e (S R_d'^T)_kj for every e with e1 + e2 <= |d'|, so no product
S R_d'^T is formed.  For |d| <= |d'| each entry of G is one integer dot
product of R_d's coefficients with U; for |d| > |d'|, G is the transpose
of G(d', d), as S is symmetric.  Both routes contract integer numerators over one
common denominator per matrix or set of moments, so each integral or Gram
entry is one Fraction.

A floating-point Gauss-Legendre path recomputes the same integrals
independently of the moments.  It evaluates each factor R_d and S on the
node mesh once per parameter point, and the pairs of that point share the
values; every factor reads the node powers c1^e and c2^e, each computed
once per point.  Each value is made by the same numpy operations, in the
same order, as a per-pair evaluation, and the products are summed in the
same order, so the printed deviations do not depend on the sharing.

The Gram matrices, the matrix moment table, the tables U, and the
quadrature's pull-backs of R_d to (c1, c2), mesh, node powers and factor
values are `point_cache`s: `verify` drops them, with the point's weights,
families, operators and lowering graphs, when it leaves the point, which
it never returns to.  The per-(m, b) moments stay.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from fractions import Fraction

from .expansion import poly_matrix_x
from .leading import (C_VARS, X_VARS, at_point, det_reference_c,
                      weight_matrix_c, weight_matrix_x, x_in_c)
from .lie import (MsfLabel, PairParams, degree_pair, degree_pairs,
                  label_weight, point_cache, weyl_dim)
from .matrices import PolyMatrix, frac_det, frac_rank
from .poly import MultiPoly, integer_view
from .report import CheckResult, FAIL, PASS, against_reference


def beta_moment(m: int, p: int) -> Fraction:
    """int_0^(pi/2) cos^(2p+1) sin^(2m-3) dt, exactly."""
    if m < 2 or p < 0:
        raise ValueError("need m >= 2 and p >= 0")
    return Fraction(math.factorial(p) * math.factorial(m - 2),
                    2 * math.factorial(p + m - 1))


@functools.lru_cache(maxsize=None)
def _beta_numerators(m: int, top: int) -> tuple[int, tuple[int, ...]]:
    """One denominator D = 2 (top+m-1)!/(m-2)! and the integers
    beta_moment(m, p) * D = p! (top+m-1)!/(p+m-1)! for p = 0..top."""
    high = math.factorial(top + m - 1)
    return (2 * high // math.factorial(m - 2),
            tuple(math.factorial(p) * (high // math.factorial(p + m - 1))
                  for p in range(top + 1)))


def integrate_against_delta(m: int, p: MultiPoly) -> Fraction:
    """Integral of p(c1, c2) against the group density
    4 s1^(2m-3) s2^(2m-3) c1 c2 (c1^2-c2^2)^2 over [0, pi/2]^2."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if p.vars != C_VARS:
        raise ValueError("integrand must be a polynomial in (c1, c2)")
    for exp in p.nums:
        if exp[0] % 2 or exp[1] % 2:
            raise ValueError(f"odd cosine exponent {exp}: integrand must be "
                             "even in both variables")
    # c1^(2i) c2^(2j) (c1^2 - c2^2)^2 integrates to
    # B(i+2) B(j) - 2 B(i+1) B(j+1) + B(i) B(j+2)
    top = max((max(exp) for exp in p.nums), default=0) // 2 + 2
    den, beta = _beta_numerators(m, top)
    acc = 0
    for (e1, e2), c in p.nums.items():
        i, j = e1 // 2, e2 // 2
        acc += c * (beta[i + 2] * beta[j] - 2 * beta[i + 1] * beta[j + 1]
                    + beta[i] * beta[j + 2])
    return Fraction(4 * acc, p.den * den * den)


@functools.lru_cache(maxsize=None)
def _pulled_monomial(i: int, j: int) -> MultiPoly:
    """x1^i x2^j pulled back to (c1, c2): one product from its predecessor
    (i, j-1), or (i-1, 0) on the j = 0 column."""
    if j:
        return _pulled_monomial(i, j - 1) * x_in_c()["x2"]
    if i:
        return _pulled_monomial(i - 1, 0) * x_in_c()["x1"]
    return MultiPoly.one(C_VARS)


def region_integral(m: int, b: int, M: MultiPoly) -> Fraction:
    """Integral of M(x1, x2) over the parabolic region against the scalar
    weight (1-x1+x2)^(m-2) (1+x1+x2)^b (x1^2-4x2)^(1/2)."""
    if M.vars != X_VARS:
        raise ValueError("integrand must be a polynomial in (x1, x2)")
    if b < 0:
        raise ValueError(f"b={b} must be non-negative")
    # the pull-back of M times c1^(2b) c2^(2b): shifted exponents, no product
    pden, monos = integer_view(_pulled_monomial(i, j) for i, j in M.nums)
    pulled: dict[tuple[int, int], int] = {}
    for c, mono in zip(M.nums.values(), monos):
        for (e1, e2), t in mono.items():
            e = (e1 + 2 * b, e2 + 2 * b)
            pulled[e] = pulled[e] + c * t if e in pulled else c * t
    return (Fraction(2) ** (2 * m + 2 * b - 1) * integrate_against_delta(
        m, MultiPoly._over(C_VARS, pulled, M.den * pden)))


@functools.lru_cache(maxsize=None)
def moment(m: int, b: int, i: int, j: int) -> Fraction:
    """Region integral of the monomial x1^i x2^j for the weight of (m, b).

    The weight depends on (m, b) only, so the cache is the moment table that
    every Gram matrix of those parameters is contracted against."""
    return region_integral(m, b, MultiPoly.monomial(X_VARS, (i, j)))


def mass_claim(m: int) -> Fraction:
    """The stored normalization constant m^2(m^2-1)/32."""
    return Fraction(m * m * (m * m - 1), 32)


def total_mass_check(m: int) -> CheckResult:
    """Full-torus mass of |density| against the stored normalization claim.

    The two are exact reciprocals of each other: one section of the source
    defines the constant as the mass, another computes its reciprocal as the
    mass, and the computed value matches the reciprocal reading.
    """
    full = 16 * integrate_against_delta(m, MultiPoly.one(C_VARS))
    claim = mass_claim(m)
    return against_reference(
        f"density total mass (m={m})", full, claim, full * claim == 1,
        f"mass {full}",
        f"computed mass {full} is the exact reciprocal of the stored claim "
        f"{claim}; the stored normalization chain uses the constant and its "
        f"reciprocal interchangeably",
        f"mass {full}, claim {claim}, not reciprocal")


def in_region(x1: Fraction, x2: Fraction) -> bool:
    """Membership in the closed parabolic region with corners (2,1), (-2,1),
    (0,-1)."""
    return 4 * x2 <= x1 * x1 and x2 >= x1 - 1 and x2 >= -x1 - 1


# ---- Gram matrices of the family ----

class _MatrixMoments:
    """The matrix moment table of one parameter point: integer numerators
    nums[k][l][g] over one denominator ``den`` of M[k][l][g], the integral
    of x^g S_kl against the scalar weight of (m, b), for every k <= l (S is
    symmetric) and every g with g1 + g2 <= ``top``.  `reach` raises top."""

    def __init__(self, params: PairParams):
        n = params.size
        self.m, self.b = params.m, params.b
        self.sden, s = integer_view(weight_matrix_x(params.a, 0).entries)
        self.s = {(k, l): s[k * n + l] for k in range(n) for l in range(k, n)}
        self.nums = {kl: {} for kl in self.s}
        self.den, self.top = 1, -1

    def reach(self, top: int):
        """Extend the table to every g with g1 + g2 <= top: the moments it
        reads go through `moment`, and a new denominator rescales the
        entries already there."""
        if top <= self.top:
            return
        new = [(g1, g - g1) for g in range(self.top + 1, top + 1)
               for g1 in range(g + 1)]
        moments = {e: moment(self.m, self.b, *e) for e in {
            (g1 + h1, g2 + h2) for skl in self.s.values() for h1, h2 in skl
            for g1, g2 in new}}
        mden = math.lcm(*(v.denominator for v in moments.values()))
        mom = {e: v.numerator * (mden // v.denominator)
               for e, v in moments.items()}
        den = math.lcm(self.den, self.sden * mden)
        if den != self.den:
            up = den // self.den
            self.nums = {kl: {g: up * v for g, v in mkl.items()}
                         for kl, mkl in self.nums.items()}
        up = den // (self.sden * mden)
        for kl, skl in self.s.items():
            self.nums[kl].update(
                {(g1, g2): up * sum(c * mom[g1 + h1, g2 + h2]
                                    for (h1, h2), c in skl.items())
                 for g1, g2 in new})
        self.den, self.top = den, top


@point_cache
def _matrix_moments(params: PairParams) -> _MatrixMoments:
    """The matrix moment table of the point, built once and extended as
    higher degrees need it."""
    return _MatrixMoments(params)


@point_cache
def _weighted_moments(params: PairParams, dp: tuple[int, int]) -> tuple:
    """(den, U): U[j][k][e] / den is the integral of x^e (S R_d'^T)_kj for
    each exponent e of total degree at most |d'|, read from the matrix
    moment table as sum_l sum_f (R_d')_jl[f] M[k][l][e + f].  Read-only."""
    n, top = params.size, sum(dp)
    rden, r = integer_view(poly_matrix_x(params, dp).entries)
    table = _matrix_moments(params)
    table.reach(2 * top)
    mkl = {(k, l): table.nums[min(k, l), max(k, l)]
           for k in range(n) for l in range(n)}
    exps = [(e1, e2) for e1 in range(top + 1) for e2 in range(top + 1 - e1)]
    return rden * table.den, tuple(
        tuple({(e1, e2): sum(c * mkl[k, l][e1 + f1, e2 + f2]
                             for l in range(n)
                             for (f1, f2), c in r[j * n + l].items())
               for e1, e2 in exps} for k in range(n))
        for j in range(n))


@point_cache
def _gram_cached(params: PairParams, d: tuple[int, int],
                 dp: tuple[int, int]) -> tuple[tuple[Fraction, ...], ...]:
    if sum(d) > sum(dp):
        # S = S^T, so G(d, d') = G(d', d)^T, read from the higher degree's table
        return tuple(zip(*_gram_cached(params, dp, d)))
    n = params.size
    lden, left = integer_view(poly_matrix_x(params, d).entries)
    tden, table = _weighted_moments(params, dp)
    # G_ij = sum_k sum_e left[i*n+k][e] U[j][k][e]; a missing e raises
    return tuple(tuple(Fraction(sum(c * table[j][k][e] for k in range(n)
                                    for e, c in left[i * n + k].items()),
                                lden * tden) for j in range(n))
                 for i in range(n))


def gram(params: PairParams, d: tuple[int, int],
         dp: tuple[int, int]) -> list[list[Fraction]]:
    """G(d, d') = region integral of R_d S R_d'^T entrywise, with the
    b-dependence in the scalar weight and S taken at (a, 0)."""
    return [list(row) for row in _gram_cached(params, degree_pair(d),
                                              degree_pair(dp))]


def orthogonality_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    """Pairwise orthogonality, diagonality, and the shared norm constant."""
    out = []
    degs = degree_pairs(dmax)
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
                    residual=str(G[i][j])))
                ok = False
    if ok and len(degs) > 1:     # at dmax 0 there is no pair to compare
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
                        residual=str(G[i][j])))
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
    # a single degree at a = 0 gives one value and nothing to compare
    if norm_ok and len(degs) * params.size > 1:
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
    square = mass_claim(m) ** 2
    both = (f"computed kappa = {kappa}; stored closed form "
            f"2^(2m+2b-10) m^2 (m^2-1) (a+1)^2 = {printed}; ")
    tail = " the square of the mass constant m^2(m^2-1)/32"
    out.append(against_reference(
        f"norm constant stored closed form {tag}", kappa, printed,
        printed == square * kappa, f"kappa = {kappa}",
        both + f"ratio stored/computed = {square}; the ratio is" + tail,
        both + "the ratio stored/computed is not" + tail))
    return out


# ---- positivity and indecomposability ----

_INTERIOR = [(Fraction(1, 2), Fraction(1, 3)),
             (Fraction(3, 4), Fraction(1, 4)),
             (Fraction(5, 6), Fraction(2, 3)),
             (Fraction(9, 10), Fraction(1, 7))]


def positivity_verdict(a: int, b: int) -> CheckResult:
    """Leading principal minors of the weight matrix are positive at interior
    sample points; the determinant vanishes on the boundary pieces carried by
    its closed-form factors."""
    name = "weight positivity on the region"
    s = weight_matrix_c(a, b)
    n = s.rows
    for (v1, v2) in _INTERIOR:
        vals = s.evaluate({"c1": v1, "c2": v2})
        for k in range(1, n + 1):
            minor = frac_det([row[:k] for row in vals[:k]])
            if minor <= 0:
                return CheckResult(name, FAIL,
                                   f"minor {k} at c=({v1},{v2}) is {minor}")
    detail = f"{len(_INTERIOR)} interior points, {n} minors each"
    dref = det_reference_c(a, b)
    # boundary components present in the determinant's closed form
    if a >= 1:
        onpar = dref.evaluate({"c1": Fraction(1, 2), "c2": Fraction(1, 2)})
        if onpar != 0:
            return CheckResult(name, FAIL, f"determinant {onpar} on c1=c2")
        detail += "; determinant vanishes on the parabola component"
    if a >= 1 or b >= 1:
        online = dref.evaluate({"c1": Fraction(1, 2), "c2": Fraction(0)})
        if online != 0:
            return CheckResult(name, FAIL, f"determinant {online} on c2=0")
        detail += " and on the c2=0 line"
    return CheckResult(name, PASS, detail)


def indecomposability_check(a: int, b: int) -> tuple[int, int]:
    """Dimensions of the exact solution spaces of T S = S T (complex
    commutant) and of the real pair X S = S X^T, Y S = -S Y^T.

    A single shared dimension in each slot (1, 1) means the weight does not
    split into smaller blocks."""
    s = weight_matrix_c(a, b)
    n = s.rows
    # S over one denominator: a common scale of every row, so the integer
    # numerators give the same solution spaces
    _, num = integer_view(s.entries)

    def rows_for(sign: int, transpose: bool) -> list[list[int]]:
        # coefficient matching of T S - sign * (S T or S T^T) = 0: one row
        # per entry (i, j) and monomial present in it, built from the terms
        rows: dict[tuple, list[int]] = defaultdict(lambda: [0] * (n * n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # (T S)_{ij} term through T_{ik}
                    for exp, c in num[k * n + j].items():
                        rows[i, j, exp][i * n + k] += c
                    # (S T)_{ij} through T_{kj}, or (S T^T)_{ij} through T_{jk}
                    col = j * n + k if transpose else k * n + j
                    for exp, c in num[i * n + k].items():
                        rows[i, j, exp][col] -= sign * c
        return list(rows.values())

    dim_comm = n * n - frac_rank(rows_for(+1, False))
    dim_sym = n * n - frac_rank(rows_for(+1, True))
    dim_anti = n * n - frac_rank(rows_for(-1, True))
    return dim_comm, dim_sym + dim_anti


def indecomposability_verdict(a: int, b: int) -> CheckResult:
    name = "weight indecomposability"
    comm, real = indecomposability_check(a, b)
    if (comm, real) == (1, 1):
        return CheckResult(name, PASS, "commutant and real pair space are "
                                       "both one-dimensional")
    return CheckResult(name, FAIL, f"dimensions ({comm}, {real}), expected (1, 1)")


def indecomposability_suite(params: PairParams,
                            verdicts: dict) -> list[CheckResult]:
    return [at_point(indecomposability_verdict, params, verdicts)]


# ---- floating-point cross-check ----

def _float_terms(p: MultiPoly) -> list[tuple[int, int, float]]:
    """(e1, e2, coefficient) in canonical order; num / den on Python ints is
    the correctly rounded float of the exact coefficient."""
    return [(e1, e2, p.nums[e1, e2] / p.den) for e1, e2 in
            sorted(p.nums, key=lambda e: (e[0] + e[1], e), reverse=True)]


QUADRATURE_RTOL = 1e-8


@functools.lru_cache(maxsize=None)
def _quad_nodes(order: int):
    """Gauss-Legendre nodes and weights on [0, pi/2], built once per order
    and read-only."""
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(order)
    half = math.pi / 4
    t, w = half * (x + 1.0), half * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


@point_cache
def _poly_matrix_c(params: PairParams, d: tuple[int, int]) -> PolyMatrix:
    """R_d pulled back to (c1, c2), for the quadrature only: it reads no
    moment."""
    return poly_matrix_x(params, d).substitute(x_in_c(), C_VARS)


@point_cache
def _node_mesh(params: PairParams, order: int):
    """The (c1, c2) node mesh, the product weights and the density of the
    point on it, each read-only."""
    import numpy as np
    m, b = params.m, params.b
    t, w = _quad_nodes(order)
    c1, c2 = np.meshgrid(np.cos(t), np.cos(t), indexing="ij")
    s1, s2 = np.meshgrid(np.sin(t), np.sin(t), indexing="ij")
    ww = w[:, None] * w[None, :]
    density = (4.0 * s1 ** (2 * m - 3) * s2 ** (2 * m - 3) * c1 * c2
               * (c1 ** 2 - c2 ** 2) ** 2 * (c1 * c2) ** (2 * b))
    for arr in (c1, c2, ww, density):
        arr.flags.writeable = False
    return c1, c2, ww, density


@point_cache
def _node_power(params: PairParams, order: int, axis: int, e: int):
    """c1^e (axis 0) or c2^e (axis 1) on the node mesh, read-only."""
    out = _node_mesh(params, order)[axis] ** e
    out.flags.writeable = False
    return out


@point_cache
def _mesh_values(params: PairParams, d: tuple[int, int] | None,
                 order: int) -> list[list]:
    """Each entry of R_d, or of S when d is None, on the node mesh, summed
    term by term in canonical order, read-only."""
    import numpy as np
    mat = (weight_matrix_c(params.a, 0) if d is None
           else _poly_matrix_c(params, d))
    c1 = _node_mesh(params, order)[0]
    out = [[None] * mat.cols for _ in range(mat.rows)]
    for i in range(mat.rows):
        for j in range(mat.cols):
            vals = np.zeros_like(c1)
            for (e1, e2, coeff) in _float_terms(mat.entry(i, j)):
                vals += (coeff * _node_power(params, order, 0, e1)
                         * _node_power(params, order, 1, e2))
            vals.flags.writeable = False
            out[i][j] = vals
    return out


def _degree(mat: PolyMatrix) -> int:
    """The largest exponent of either variable in mat."""
    return max((max(exp) for e in mat.entries for exp in e.nums), default=0)


def numeric_crosscheck(params: PairParams, d: tuple[int, int],
                       dp: tuple[int, int]) -> CheckResult:
    """Gauss-Legendre quadrature of the Gram integrals in t-coordinates,
    compared against the exact rational values.

    The factors R_d, S, R_d' are evaluated separately at the nodes and
    multiplied in floating point: expanding the product first produces
    coefficients orders of magnitude above the integral values, and the
    cancellation caps the achievable relative accuracy near 1e-7.
    The mesh, its node powers and each factor's values are `point_cache`s,
    so the pairs of a point share them and `verify` drops them with the
    point.
    """
    import numpy as np

    d, dp = degree_pair(d), degree_pair(dp)
    name = (f"numeric quadrature agreement {params.tag()} "
            f"d=({d[0]},{d[1]}) d'=({dp[0]},{dp[1]})")
    m, b = params.m, params.b
    exact = gram(params, d, dp)
    lc, rc = _poly_matrix_c(params, d), _poly_matrix_c(params, dp)
    sc = weight_matrix_c(params.a, 0)

    # node count from the trigonometric degree per variable: polynomial
    # part plus the density sin^(2m-3) cos (c1^2-c2^2)^2 (c1 c2)^(2b);
    # 48 nodes hold to ~1e-11 up to degree 32, degrade past that
    trig_degree = _degree(lc) + _degree(sc) + _degree(rc) + 2 * m + 2 * b + 2
    order = 48 if trig_degree <= 30 else trig_degree + 32

    c1, _, ww, density = _node_mesh(params, order)
    scale = 2.0 ** (2 * m + 2 * b - 1)
    lv = _mesh_values(params, d, order)
    sv = _mesh_values(params, None, order)
    rv = _mesh_values(params, dp, order)

    # zero targets (off-diagonal, distinct degrees) are judged against the
    # size of the corresponding diagonal norms
    diag_scale = max(abs(float(gram(params, e, e)[k][k]))
                     for e in {d, dp} for k in range(params.size))
    worst = 0.0
    n = params.size
    for i in range(lc.rows):
        # the products (R_d)_ik S_kl, formed once for every j
        left = [[lv[i][k] * sv[k][l] for l in range(n)] for k in range(n)]
        for j in range(rc.rows):
            vals = np.zeros_like(c1)
            for k in range(n):
                for l in range(n):
                    vals += left[k][l] * rv[j][l]
            num = scale * float(np.sum(ww * vals * density))
            ex = float(exact[i][j])
            dev = abs(num - ex) / (abs(ex) if ex != 0 else diag_scale)
            worst = max(worst, dev)
    if worst > QUADRATURE_RTOL:
        return CheckResult(name, FAIL, f"worst relative deviation {worst:.3e} "
                                       f"> {QUADRATURE_RTOL:.0e}")
    return CheckResult(name, PASS, f"worst relative deviation {worst:.3e}")


def numeric_suite(params: PairParams, dmax: int) -> list[CheckResult]:
    """Every pair of degrees up to dmax."""
    degs = degree_pairs(dmax)
    return [numeric_crosscheck(params, d, dp)
            for ia, d in enumerate(degs) for dp in degs[ia:]]


def region_grid(mat: PolyMatrix):
    """Evaluation grid of a PolyMatrix in x-variables over the bounding box
    of the region, 40 x1 by 25 x2 values: rows of (x1, x2, matrix entries
    row-major, membership flag)."""
    nx, ny = 40, 25
    rows = []
    for iy in range(ny):
        x2 = Fraction(-1) + Fraction(2 * iy, ny - 1)
        for ix in range(nx):
            x1 = Fraction(-2) + Fraction(4 * ix, nx - 1)
            point = {"x1": x1, "x2": x2}
            vals = [mat.entry(i, j).evaluate(point)
                    for i in range(mat.rows) for j in range(mat.cols)]
            rows.append((x1, x2, vals, in_region(x1, x2)))
    return rows
