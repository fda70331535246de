r"""Leading terms of the matrix spherical functions and the weight matrix.

Everything here lives in one of three coordinate systems on the ordered
two-torus:

* c = (c1, c2): the raw torus coordinates (cosines of the two angles);
* psi = (psi1, psi2): the elementary symmetric functions of (c1^2, c2^2),
  psi1 = c1^2 + c2^2 and psi2 = c1^2 c2^2;
* x = (x1, x2): an affine renormalization of psi chosen so that the
  weight's support becomes the region between a parabola and two lines,
  x1 = 2 psi1 - 2, x2 = 4 psi2 - 2 psi1 + 1.

The size-(a+1) leading-term matrix Q0 has (i,k) entry

    q(i,k) = c1^(a+b-k) * sum_{p=0}^{min(i,k)}
             ((-i)_p (-k)_p / (p! (-a)_p)) (c2^2-c1^2)^p c2^(b+2i+k-2p),

a terminating hypergeometric sum.  The weight matrix is S = Q0 Q0^T,
which is symmetric in c1 <-> c2 entrywise and so pushes down to psi.

The coordinate variables are built here once, as the polynomials C1, C2
over `C_VARS`, PSI1, PSI2 over `PSI_VARS` and X1, X2 over `X_VARS`, and so
are the two coordinate maps, as read-only constants: `PSI_IN_C`, psi in
terms of c, and `PSI_IN_X`, psi in terms of x, and so is the identity
point, c1 = c2 = 1, as `IDENTITY_C`; its image in psi, `IDENTITY_PSI`, is
read off `PSI_IN_C`.  Every other module reads them from here, and neither
map is stated again, inverted or composed.

Q0 and S read the K-type (a, b) alone, never m.  So every builder here
takes (a, b), not a point, and Q0 and S in c, psi and x are cached on
(a, b): every m shares one object.  A negative a or b is refused.  Each
check of `weight_suite` is a verdict function of (a, b), and
`report.at_point` gives its line at one point under the point's tag,
decided once per (a, b) within the table of verdicts its caller passes.
`verify` passes one table per run; a fresh table, or a direct call of a
verdict, decides afresh.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .krawtchouk import krawtchouk, poch
from .lie import PairParams
from .matrices import PolyMatrix
from .poly import MultiPoly, symmetric_reduce
from .report import CheckResult, FAIL, PASS, at_point

C_VARS = ("c1", "c2")
PSI_VARS = ("psi1", "psi2")
X_VARS = ("x1", "x2")
C1, C2 = (MultiPoly.var(C_VARS, v) for v in C_VARS)
PSI1, PSI2 = (MultiPoly.var(PSI_VARS, v) for v in PSI_VARS)
X1, X2 = (MultiPoly.var(X_VARS, v) for v in X_VARS)


PSI_IN_C = MappingProxyType({"psi1": C1 * C1 + C2 * C2,
                             "psi2": C1 * C1 * C2 * C2})
PSI_IN_X = MappingProxyType({"psi1": Fraction(1, 2) * X1 + 1,
                             "psi2": Fraction(1, 4) * (X1 + X2 + 1)})
# the identity point, c1 = c2 = 1, and its image in psi, (2, 1)
IDENTITY_C = MappingProxyType({"c1": Fraction(1), "c2": Fraction(1)})
IDENTITY_PSI = MappingProxyType({name: f.evaluate(IDENTITY_C)
                                 for name, f in PSI_IN_C.items()})


def _require_weight_regime(a: int, b: int):
    if a < 0:
        raise ValueError(f"a={a} must be non-negative")
    if b < 0:
        raise ValueError(
            f"b={b}: leading terms are constructed for b >= 0; for b <= -a "
            "pass through the duality map first")


def leading_term(a: int, b: int, i: int, k: int) -> MultiPoly:
    """q(i,k) as a polynomial in (c1, c2)."""
    _require_weight_regime(a, b)
    if not (0 <= i <= a and 0 <= k <= a):
        raise ValueError(f"indices ({i},{k}) out of range 0..{a}")
    terms: dict[tuple[int, int], Fraction] = {}
    for p in range(min(i, k) + 1):
        coeff = poch(Fraction(-i), p) * poch(Fraction(-k), p) \
            / (factorial(p) * poch(Fraction(-a), p))
        # c1^(a+b-k) (c2^2 - c1^2)^p c2^(b+2i+k-2p), expanded binomially
        for j in range(p + 1):
            e = (a + b - k + 2 * j, b + 2 * i + k - 2 * j)
            terms[e] = terms.get(e, 0) + (-1) ** j * comb(p, j) * coeff
    return MultiPoly(C_VARS, terms)


@lru_cache(maxsize=None)
def leading_term_matrix(a: int, b: int) -> PolyMatrix:
    """Q0: row i, column k, size (a+1) x (a+1)."""
    _require_weight_regime(a, b)
    return PolyMatrix.from_rows(
        [[leading_term(a, b, i, k) for k in range(a + 1)] for i in range(a + 1)])


@lru_cache(maxsize=None)
def weight_matrix_c(a: int, b: int) -> PolyMatrix:
    q0 = leading_term_matrix(a, b)
    return q0 @ q0.transpose()


@lru_cache(maxsize=None)
def weight_matrix_psi(a: int, b: int) -> PolyMatrix:
    s = weight_matrix_c(a, b)
    return s.map_entries(lambda p: symmetric_reduce(p, PSI_VARS))


@lru_cache(maxsize=None)
def weight_matrix_x(a: int, b: int) -> PolyMatrix:
    return weight_matrix_psi(a, b).substitute(PSI_IN_X, X_VARS)


def det_reference_c(a: int, b: int) -> MultiPoly:
    """Closed form for det S in c coordinates:

    (prod_n C(a,n))^-2 (c1 c2)^(2b(a+1)) (c1 c2 (c1^2-c2^2))^(a(a+1)).
    """
    _require_weight_regime(a, b)
    const = Fraction(1)
    for n in range(a + 1):
        const /= Fraction(comb(a, n)) ** 2
    c1c2 = C1 * C2
    return const * (c1c2 ** (2 * b * (a + 1))) \
        * ((c1c2 * (C1 * C1 - C2 * C2)) ** (a * (a + 1)))


def psi_reference_matrix(a: int, b: int) -> PolyMatrix:
    """Stored psi-form weight for sizes 2 and 3, entered term by term; any
    other size raises ValueError.

    The b-dependence is the overall factor psi2^b; the b = 0 cores are kept
    verbatim so that a transcription slip cannot hide behind the generator.
    """
    p1, p2 = PSI1, PSI2
    if a == 1:
        rows = [[p1, 2 * p2],
                [2 * p2, p1 * p2]]
    elif a == 2:
        rows = [
            [p1 * p1 - p2, Fraction(3, 2) * p1 * p2, 3 * p2 * p2],
            [Fraction(3, 2) * p1 * p2,
             2 * p2 * p2 + Fraction(1, 4) * p1 * p1 * p2,
             Fraction(3, 2) * p1 * p2 * p2],
            [3 * p2 * p2, Fraction(3, 2) * p1 * p2 * p2,
             p2 * p2 * (p1 * p1 - p2)],
        ]
    else:
        raise ValueError(f"no stored display at size {a + 1}")
    return PolyMatrix.from_rows(rows).scale(p2 ** b)


def x_reference_matrix(a: int) -> PolyMatrix:
    """Stored x-form weight for sizes 2 and 3 at b = 0; any other size
    raises ValueError."""
    u = Fraction(1, 2) * X1 + 1         # = psi1
    v = X1 + X2 + 1                     # = 4 psi2
    if a == 1:
        rows = [[u, Fraction(1, 2) * v],
                [Fraction(1, 2) * v, Fraction(1, 4) * u * v]]
    elif a == 2:
        rows = [
            [u * u - Fraction(1, 4) * v, Fraction(3, 8) * u * v,
             Fraction(3, 16) * v * v],
            [Fraction(3, 8) * u * v,
             Fraction(1, 16) * v * (2 * v + u * u),
             Fraction(3, 32) * u * v * v],
            [Fraction(3, 16) * v * v, Fraction(3, 32) * u * v * v,
             Fraction(1, 16) * v * v * (u * u - Fraction(1, 4) * v)],
        ]
    else:
        raise ValueError(f"no stored display at size {a + 1}")
    return PolyMatrix.from_rows(rows)


def all_ones_verdict(a: int, b: int) -> CheckResult:
    """Q0 at c1 = c2 = 1 must be the all-ones matrix."""
    name = "leading terms at identity point"
    vals = leading_term_matrix(a, b).evaluate(IDENTITY_C)
    bad = [(i, k) for i, row in enumerate(vals) for k, v in enumerate(row) if v != 1]
    if bad:
        return CheckResult(name, FAIL, f"entries {bad} differ from 1")
    return CheckResult(name, PASS)


def swap_symmetry_verdict(a: int, b: int) -> CheckResult:
    """Swapping c1 <-> c2 reverses the column order of Q0."""
    name = "leading term reflection symmetry"
    q0 = leading_term_matrix(a, b)
    swapped = q0.substitute({"c1": C2, "c2": C1}, C_VARS)
    if all(swapped.row(i) == q0.row(i)[::-1] for i in range(a + 1)):
        return CheckResult(name, PASS)
    return CheckResult(name, FAIL, "Q0(c2,c1) != Q0 J")


def weight_factor_verdict(a: int, b: int) -> CheckResult:
    """S at (a,b) equals (c1 c2)^(2b) times S at (a,0)."""
    name = "weight matrix b-factorization"
    factor = (C1 * C2) ** (2 * b)
    if weight_matrix_c(a, b) == weight_matrix_c(a, 0).scale(factor):
        return CheckResult(name, PASS)
    return CheckResult(name, FAIL, "factorization fails")


def determinant_verdict(a: int, b: int) -> CheckResult:
    name = "weight matrix determinant"
    got = weight_matrix_c(a, b).det()
    want = det_reference_c(a, b)
    if got == want:
        return CheckResult(name, PASS, f"degree {got.total_degree()}")
    return CheckResult(name, FAIL, f"det S - closed form = {got - want}")


def psi_consistency_verdict(a: int, b: int) -> CheckResult:
    """Pushing the psi-form back through psi(c) recovers S in c."""
    name = "weight matrix symmetric reduction"
    back = weight_matrix_psi(a, b).substitute(PSI_IN_C, C_VARS)
    if back == weight_matrix_c(a, b):
        return CheckResult(name, PASS)
    return CheckResult(name, FAIL, "round trip through psi failed")


def homogeneity_verdict(a: int, b: int) -> CheckResult:
    """q(i,k) is homogeneous of degree a+2b+2i with both exponents of
    fixed parity: c1 carries a+b-k mod 2 and c2 carries b+k mod 2."""
    name = "leading term homogeneity and parity"
    q0 = leading_term_matrix(a, b)
    bad = []
    for i in range(a + 1):
        for k in range(a + 1):
            deg = a + 2 * b + 2 * i
            for (e1, e2) in q0.entry(i, k).nums:
                if e1 + e2 != deg or (e1 - (a + b - k)) % 2 or (e2 - (b + k)) % 2:
                    bad.append((i, k))
                    break
    if bad:
        return CheckResult(name, FAIL, f"entries {bad} break the invariant")
    return CheckResult(name, PASS)


def krawtchouk_route_verdict(a: int, b: int) -> CheckResult:
    """Second route to q(i,k): a Krawtchouk value with rational parameter.

    q(i,k) = c1^(a+b-k) c2^(b+2i+k) K_i(k; p, a) at p = c2^2/(c2^2 - c1^2).
    Both routes give polynomials homogeneous of degree a+2b+2i, so they are
    equal once they agree at c2 = 1 as polynomials in c1.  There
    p = 1/(1 - c1^2) and the Krawtchouk route has c1-degree
    a+b-k+2 min(i,k); with D the larger c1-degree of the two routes,
    agreement at c1 = 2, 3, ..., D+2 is an exact identity.  The Krawtchouk
    value is taken at Fraction parameters, never expanded as a polynomial.
    """
    name = "leading term hypergeometric route"
    one = Fraction(1)
    q0 = leading_term_matrix(a, b)
    for i in range(a + 1):
        for k in range(a + 1):
            q = q0.entry(i, k)
            deg = a + 2 * b + 2 * i
            if any(e1 + e2 != deg for e1, e2 in q.nums):
                return CheckResult(
                    name, FAIL, f"entry ({i},{k}) is not homogeneous of degree {deg}")
            D = max([a + b - k + 2 * min(i, k)] + [e1 for e1, _ in q.nums])
            for t in range(2, D + 3):
                via = t ** (a + b - k) * krawtchouk(i, k, a, one / (1 - t * t))
                if via != q.evaluate({"c1": Fraction(t), "c2": one}):
                    return CheckResult(
                        name, FAIL, f"routes disagree at entry ({i},{k}), c1={t}")
    return CheckResult(name, PASS)


def reference_matrix_verdict(a: int, b: int) -> CheckResult:
    """Computed S against the stored size-2/size-3 displays (both forms);
    at any other size there is nothing to compare, and a call is refused."""
    name = "weight matrix stored displays"
    if psi_reference_matrix(a, b) != weight_matrix_psi(a, b):
        return CheckResult(name, FAIL, "psi-form differs from the stored matrix")
    if weight_matrix_x(a, 0) != x_reference_matrix(a):
        return CheckResult(name, FAIL, "x-form at b=0 differs from the stored matrix")
    return CheckResult(name, PASS)


def weight_suite(params: PairParams, verdicts: dict) -> list[CheckResult]:
    """The weight checks at one point, each decided once per (a, b) within
    ``verdicts``."""
    checks = [all_ones_verdict, homogeneity_verdict, swap_symmetry_verdict,
              krawtchouk_route_verdict, weight_factor_verdict,
              psi_consistency_verdict, determinant_verdict]
    if params.a in (1, 2):
        checks.append(reference_matrix_verdict)
    return [at_point(verdict, params, verdicts) for verdict in checks]
