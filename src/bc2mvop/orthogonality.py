r"""Exact integration over the parabolic region and the orthogonality of the
polynomial family.

Both exact integrals rest on one three-term rule, `_three_term`: against a
product measure with k-th moment mu[k] in each variable, s^i t^j (s - t)^2
integrates to mu[i+2] mu[j] - 2 mu[i+1] mu[j+1] + mu[i] mu[j+2].
`integrate_against_delta` takes s = c1^2, t = c2^2 and the Beta moments
int_0^(pi/2) cos^(2p+1) sin^(2m-3) dt = p! (m-2)! / (2 (p+m-1)!), held as
integer numerators over one denominator per (m, top p).

`region_integral` works in Koornwinder's coordinates x1 = u + v, x2 = uv,
-1 <= v <= u <= 1, where the scalar weight times the Jacobian is
w(u) w(v) (u - v)^2 with w(u) = (1-u)^(m-2) (1+u)^b (Koornwinder 1975;
Dunkl-Xu, Orthogonal Polynomials of Several Variables, ch. 3).  The
integrand, substituted into (u, v), is symmetric, so it integrates as half
the square [-1, 1]^2 against the Jacobi moments mu[k] = int u^k w(u) du.
With u = 2y - 1 each mu[k] is a signed binomial sum of the same Beta
numerators, so no second factorial table is needed.  Only the
floating-point cross-check works in (c1, c2), and it pulls R_d back from
(psi1, psi2) through `PSI_IN_C`, never through x: the exact values read
the family and S in x, the quadrature the family in psi and S = Q0 Q0^T
in c, so the two share only the recursion's psi family, the thing they
check.

The density reads m alone and the scalar weight (m, b) alone, so
`integrate_against_delta` takes m and `region_integral` takes (m, b),
never a point, and every Gram integral is a linear function of the
monomial moments int x1^i x2^j.  `moment` computes each of them once per
(m, b) and caches it.

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
values; every term of a factor is the outer product of two vectors
cos(t)^e at the nodes, each computed once per process.  Each value is made
by the same roundings, in the same order, as a per-pair evaluation on the
mesh, and the products are summed in the same order, less the products
with a zero polynomial factor, which add +-0.0 and change no bit; so the
printed deviations do not depend on the sharing.

The Gram matrices, the matrix moment table, the tables U, and the
quadrature's pull-backs of R_d to (c1, c2), factor degrees, mesh and
factor values are `point_cache`s: `verify` drops them, with the point's
weights, families, operators and lowering graphs, when its grid loop
leaves the point, which the loop never returns to; the per-m section after
the loop reads the a = b = 0 point afresh, and the final drop empties it.
The per-(m, b) moments and the node vectors stay.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from fractions import Fraction

from .expansion import poly_matrix_psi, poly_matrix_x
from .leading import (C_VARS, PSI_IN_C, X_VARS, det_reference_c,
                      weight_matrix_c, weight_matrix_x)
from .lie import (MsfLabel, PairParams, degree_pair, degree_pairs,
                  label_weight, point_cache, weyl_dim)
from .matrices import PolyMatrix, frac_det, frac_rank
from .poly import MultiPoly, integer_view
from .report import CheckResult, FAIL, PASS, against_reference, at_point


def beta_moment(m: int, p: int) -> Fraction:
    """int_0^(pi/2) cos^(2p+1) sin^(2m-3) dt, exactly."""
    if m < 2 or p < 0:
        raise ValueError("need m >= 2 and p >= 0")
    den, beta = _beta_numerators(m, p)
    return Fraction(beta[p], den)


@functools.lru_cache(maxsize=None)
def _beta_numerators(m: int, top: int) -> tuple[int, tuple[int, ...]]:
    """The moments beta_moment(m, p) = p! (m-2)! / (2 (p+m-1)!) for
    p = 0..top, over one denominator D = 2 (top+m-1)!/(m-2)!: D and the
    integers p! (top+m-1)!/(p+m-1)!."""
    high = math.factorial(top + m - 1)
    return (2 * high // math.factorial(m - 2),
            tuple(math.factorial(p) * (high // math.factorial(p + m - 1))
                  for p in range(top + 1)))


def _three_term(terms, mu) -> int:
    """The sum over terms ((i, j), c) of c (mu[i+2] mu[j] - 2 mu[i+1] mu[j+1]
    + mu[i] mu[j+2]): the integral of c s^i t^j (s - t)^2 against the
    product measure whose k-th moment in either variable is mu[k]."""
    return sum(c * (mu[i + 2] * mu[j] - 2 * mu[i + 1] * mu[j + 1]
                    + mu[i] * mu[j + 2]) for (i, j), c in terms)


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
    # the three-term rule in s = c1^2, t = c2^2 against the Beta moments
    top = max((max(exp) for exp in p.nums), default=0) // 2 + 2
    den, beta = _beta_numerators(m, top)
    acc = _three_term((((e1 // 2, e2 // 2), c)
                       for (e1, e2), c in p.nums.items()), beta)
    return Fraction(4 * acc, p.den * den * den)


U_VARS = ("u", "v")
_U, _V = MultiPoly.var(U_VARS, "u"), MultiPoly.var(U_VARS, "v")
_X_IN_UV = {"x1": _U + _V, "x2": _U * _V}


def region_integral(m: int, b: int, M: MultiPoly) -> Fraction:
    """Integral of M(x1, x2) over the parabolic region against the scalar
    weight (1-x1+x2)^(m-2) (1+x1+x2)^b (x1^2-4x2)^(1/2)."""
    if M.vars != X_VARS:
        raise ValueError("integrand must be a polynomial in (x1, x2)")
    if b < 0:
        raise ValueError(f"b={b} must be non-negative")
    if m < 2:
        raise ValueError("m must be at least 2")
    p = M.substitute(_X_IN_UV, U_VARS)
    # mu[k] = int u^k w(u) du is 2^(m+b) nu[k] / D, by u = 2y - 1
    top = max((max(exp) for exp in p.nums), default=0) + 2
    den, beta = _beta_numerators(m, b + top)
    nu = [sum(math.comb(k, r) * (-1) ** (k - r) * 2 ** r * beta[b + r]
              for r in range(k + 1)) for k in range(top + 1)]
    # half the square [-1, 1]^2: the integrand is symmetric in (u, v)
    return Fraction(2 ** (2 * m + 2 * b - 1) * _three_term(p.nums.items(), nu),
                    p.den * den * den)


@functools.lru_cache(maxsize=None)
def moment(m: int, b: int, i: int, j: int) -> Fraction:
    """Region integral of x1^i x2^j for the weight of (m, b), in (u, v).

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
    exps = degree_pairs(top)
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
    """Pairwise orthogonality, diagonality, and the shared norm constant.

    One pass over the pairs d <= d' in `degree_pairs` order reads each Gram
    matrix once and keeps the first failure of each check; each check then
    prints one line, that failure or its PASS, in a fixed order."""
    degs = degree_pairs(dmax)
    tag, n = params.tag(), params.size
    distinct = f"orthogonality of distinct degrees {tag}"
    diagonal = f"diagonality of squared norms {tag}"
    norm = f"norm constant independence {tag}"
    failed = {}
    kappa = None
    for ia, d in enumerate(degs):
        for dp in degs[ia:]:
            G = gram(params, d, dp)
            bad = next(((i, j) for i in range(n) for j in range(n)
                        if G[i][j] != 0 and (i != j or d != dp)), None)
            if bad:
                i, j = bad
                name, detail = ((distinct, f"d={d}, d'={dp}, entry {bad}")
                                if d != dp else
                                (diagonal, f"d={d}, entry ({i},{j})"))
                failed.setdefault(name, CheckResult(name, FAIL, detail,
                                                    residual=str(G[i][j])))
            if d != dp:
                continue
            for k in range(n):
                dim = weyl_dim(label_weight(params, MsfLabel(k, d[0], d[1])))
                val = G[k][k] * dim
                if kappa is None:
                    kappa = val
                elif val != kappa:
                    failed.setdefault(norm, CheckResult(
                        norm, FAIL, f"d={d}, k={k}: {val} != {kappa}"))
    # at dmax 0 there is no pair to compare, and a single degree at a = 0
    # gives one value of kappa; neither can fail
    out = [failed.get(name, CheckResult(name, PASS, detail))
           for name, shown, detail in (
               (distinct, len(degs) > 1, f"{len(degs)} degrees, dmax={dmax}"),
               (diagonal, True, ""),
               (norm, len(degs) * n > 1,
                f"kappa = {kappa} across all degrees and rows, dmax={dmax}"))
           if shown]

    m, b = params.m, params.b
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
def _factor_c(params: PairParams,
              d: tuple[int, int] | None) -> tuple[PolyMatrix, int]:
    """The quadrature's factor in (c1, c2), R_d pulled back from psi or S
    when d is None, and the largest exponent of either variable in it.  The
    pull-back is for the quadrature only: it reads no moment and no x."""
    mat = (weight_matrix_c(params.a, 0) if d is None
           else poly_matrix_psi(params, d).substitute(PSI_IN_C, C_VARS))
    return mat, max((max(exp) for e in mat.entries for exp in e.nums),
                    default=0)


@point_cache
def _node_mesh(params: PairParams, order: int):
    """The product weights and the density of the point on the (c1, c2)
    node mesh, each read-only."""
    import numpy as np
    m, b = params.m, params.b
    t, w = _quad_nodes(order)
    c1, c2 = np.meshgrid(np.cos(t), np.cos(t), indexing="ij")
    s1, s2 = np.meshgrid(np.sin(t), np.sin(t), indexing="ij")
    ww = w[:, None] * w[None, :]
    density = (4.0 * s1 ** (2 * m - 3) * s2 ** (2 * m - 3) * c1 * c2
               * (c1 ** 2 - c2 ** 2) ** 2 * (c1 * c2) ** (2 * b))
    ww.flags.writeable = density.flags.writeable = False
    return ww, density


@functools.lru_cache(maxsize=None)
def _node_power(order: int, e: int):
    """cos(t)^e at the nodes of the order, read-only.  It reads nothing of
    a point, and it is one small vector, so it lives for the process."""
    import numpy as np
    out = np.cos(_quad_nodes(order)[0]) ** e
    out.flags.writeable = False
    return out


@point_cache
def _mesh_values(params: PairParams, d: tuple[int, int] | None,
                 order: int) -> list[list]:
    """Each entry of R_d, or of S when d is None, on the node mesh, summed
    term by term in canonical order, read-only.  A term's value at node
    (a, b) is (coeff c^e1)[a] c^e2[b]: the same two roundings as on the
    mesh, from the vectors of `_node_power`."""
    import numpy as np
    mat, _ = _factor_c(params, d)
    out = [[None] * mat.cols for _ in range(mat.rows)]
    for i in range(mat.rows):
        for j in range(mat.cols):
            vals = np.zeros((order, order))
            for (e1, e2, coeff) in _float_terms(mat.entry(i, j)):
                vals += np.multiply.outer(coeff * _node_power(order, e1),
                                          _node_power(order, e2))
            vals.flags.writeable = False
            out[i][j] = vals
    return out


def numeric_crosscheck(params: PairParams, d: tuple[int, int],
                       dp: tuple[int, int]) -> CheckResult:
    """Gauss-Legendre quadrature of the Gram integrals in t-coordinates,
    compared against the exact rational values.

    The factors R_d, S, R_d' are evaluated separately at the nodes and
    multiplied in floating point: expanding the product first produces
    coefficients orders of magnitude above the integral values, and the
    cancellation caps the achievable relative accuracy near 1e-7.
    A product with a factor entry that is the zero polynomial is skipped:
    each node's sum starts at +0.0, never holds -0.0, and x + (+-0.0) = x,
    so the skip leaves every bit of the sum as it was.
    The mesh, each factor with its degree, and each factor's values are
    `point_cache`s, so the pairs of a point share them and `verify` drops
    them with the point; the 1-D node powers are shared by every point.
    """
    import numpy as np

    d, dp = degree_pair(d), degree_pair(dp)
    name = (f"numeric quadrature agreement {params.tag()} "
            f"d=({d[0]},{d[1]}) d'=({dp[0]},{dp[1]})")
    m, b = params.m, params.b
    exact = gram(params, d, dp)
    (lc, ld), (sc, sd), (rc, rd) = (_factor_c(params, e)
                                    for e in (d, None, dp))

    # node count from the trigonometric degree per variable: polynomial
    # part plus the density sin^(2m-3) cos (c1^2-c2^2)^2 (c1 c2)^(2b);
    # 48 nodes hold to ~1e-11 up to degree 32, degrade past that
    trig_degree = ld + sd + rd + 2 * m + 2 * b + 2
    order = 48 if trig_degree <= 30 else trig_degree + 32

    ww, density = _node_mesh(params, order)
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
    for i in range(n):
        # the products (R_d)_ik S_kl, formed once for every j, in the order
        # of k, then l
        left = {(k, l): lv[i][k] * sv[k][l] for k in range(n) for l in range(n)
                if lc.entry(i, k).nums and sc.entry(k, l).nums}
        for j in range(n):
            vals = np.zeros((order, order))
            for (k, l), lk in left.items():
                if rc.entry(j, l).nums:
                    vals += lk * rv[j][l]
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
