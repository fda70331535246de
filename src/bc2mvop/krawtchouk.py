r"""Krawtchouk polynomials with exact rational parameter.

K_n(x; p, N) is evaluated by its terminating hypergeometric sum

    K_n(x;p,N) = sum_{k=0}^{min(n,x)} (-n)_k (-x)_k / (k! (-N)_k) p^{-k},

never by recurrence: the finite sum is the form the leading terms take.

``standard_suite`` checks four textbook identities of K_n at one fixed
setting, stated beside it and nowhere else: every N up to ``STANDARD_NMAX``
crossed with the parameters ``STANDARD_PS``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .matrices import frac_det
from .poly import MultiPoly
from .report import CheckResult, FAIL, PASS


def poch(x, k: int):
    """Rising factorial x (x+1) ... (x+k-1)."""
    out = Fraction(1)
    for j in range(k):
        out = out * (x + j)
    return out


@lru_cache(maxsize=None)
def krawtchouk(n: int, x: int, N: int, p: Fraction) -> Fraction:
    """Exact K_n(x; p, N) at a rational parameter p = P/Q, computed once per
    argument and cached: the identities of one (N, p) read the same values.

    Term k is (-n)_k (-x)_k Q^k / (k! (-N)_k P^k), so every term is an
    integer numerator over the one denominator top! (-N)_top P^top,
    top = min(n, x).  The sum is taken in nested form from the last term
    down: each step multiplies the denominator by (k+1)(k-N)P, and only the
    final value is a Fraction."""
    if not (0 <= n <= N and 0 <= x <= N):
        raise ValueError(f"indices (n,x)=({n},{x}) out of range 0..{N}")
    p = Fraction(p)
    if p == 0:
        raise ZeroDivisionError("p must be nonzero")
    P, Q = p.numerator, p.denominator
    num = den = 1
    for k in reversed(range(min(n, x))):
        step = (k + 1) * (k - N) * P
        num = step * den + (k - n) * (k - x) * Q * num
        den *= step
    return Fraction(num, den)


def point_weight(x: int, N: int, p: Fraction) -> Fraction:
    """w(x; p, N) = C(N,x) p^x (1-p)^(N-x)."""
    p = Fraction(p)
    return comb(N, x) * p ** x * (1 - p) ** (N - x)


def squared_norm(n: int, N: int, p: Fraction) -> Fraction:
    """h(n; p, N) = ((-1)^n n! / (-N)_n) ((1-p)/p)^n."""
    p = Fraction(p)
    sign = -1 if n % 2 else 1
    return Fraction(sign * factorial(n)) / poch(Fraction(-N), n) * ((1 - p) / p) ** n


def orthogonality_check(N: int, p: Fraction) -> CheckResult:
    """Full (N+1)x(N+1) Gram matrix versus diag(h(n))."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("orthogonality requires 0 < p < 1")
    vals = [[krawtchouk(n, x, N, p) for x in range(N + 1)] for n in range(N + 1)]
    w = [point_weight(x, N, p) for x in range(N + 1)]
    bad = []
    for n in range(N + 1):
        for nn in range(n, N + 1):
            g = sum(w[x] * vals[n][x] * vals[nn][x] for x in range(N + 1))
            want = squared_norm(n, N, p) if n == nn else Fraction(0)
            if g != want:
                bad.append(f"({n},{nn}): got {g}, expected {want}")
    if bad:
        return CheckResult(f"krawtchouk orthogonality N={N} p={p}", FAIL,
                           "; ".join(bad))
    return CheckResult(f"krawtchouk orthogonality N={N} p={p}", PASS,
                       f"Gram = diag(h), {N + 1} rows")


def self_duality_check(N: int, p: Fraction) -> CheckResult:
    p = Fraction(p)
    for n in range(N + 1):
        for x in range(N + 1):
            if krawtchouk(n, x, N, p) != krawtchouk(x, n, N, p):
                return CheckResult(f"krawtchouk self-duality N={N} p={p}", FAIL,
                                   f"K_{n}({x}) != K_{x}({n})")
    return CheckResult(f"krawtchouk self-duality N={N} p={p}", PASS)


def generating_function_sweep(N: int, p: Fraction) -> CheckResult:
    """sum_n C(N,n) K_n(x;p,N) t^n = (1 - ((1-p)/p) t)^x (1+t)^(N-x) at
    every evaluation point x = 0..N; a FAIL names the first x that breaks."""
    name = f"krawtchouk generating function N={N} p={p}"
    p = Fraction(p)
    tv = ("t",)
    t = MultiPoly.var(tv, "t")
    shrink = MultiPoly.one(tv) - ((1 - p) / p) * t
    grow = MultiPoly.one(tv) + t
    for x in range(N + 1):
        lhs = MultiPoly(tv, {(n,): comb(N, n) * krawtchouk(n, x, N, p)
                             for n in range(N + 1)})
        rhs = shrink ** x * grow ** (N - x)
        if lhs != rhs:
            return CheckResult(name, FAIL, f"x={x}: difference {lhs - rhs}")
    return CheckResult(name, PASS, f"all {N + 1} evaluation points")


def krawtchouk_suite(N: int, p: Fraction) -> list[CheckResult]:
    """The four identities at one (N, p); the determinant is scaled at the
    generic points s = 2/3, t = 3/5."""
    return [
        self_duality_check(N, p),
        generating_function_sweep(N, p),
        orthogonality_check(N, p),
        determinant_check(N, p, Fraction(2, 3), Fraction(3, 5)),
    ]


STANDARD_NMAX = 6
STANDARD_PS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def standard_suite() -> list[CheckResult]:
    """The small-parameter sweep: every N up to ``STANDARD_NMAX`` crossed
    with ``STANDARD_PS``."""
    out = []
    for N in range(STANDARD_NMAX + 1):
        for p in STANDARD_PS:
            out.extend(krawtchouk_suite(N, p))
    return out


def determinant_check(N: int, p: Fraction, s: Fraction, t: Fraction) -> CheckResult:
    """det(t^n s^x K_n(x))^2 = (st)^(N(N+1)) (prod h) / (prod w).

    Compared on squares, which sidesteps the sign ambiguity of the
    determinant itself.
    """
    p, s, t = Fraction(p), Fraction(s), Fraction(t)
    M = [[t ** n * s ** x * krawtchouk(n, x, N, p) for x in range(N + 1)]
         for n in range(N + 1)]
    det = frac_det(M)
    prod_h = Fraction(1)
    prod_w = Fraction(1)
    for n in range(N + 1):
        prod_h *= squared_norm(n, N, p)
        prod_w *= point_weight(n, N, p)
    rhs = (s * t) ** (N * (N + 1)) * prod_h / prod_w
    if det * det == rhs:
        return CheckResult(f"krawtchouk determinant N={N} p={p} s={s} t={t}", PASS,
                           f"det^2 = {det * det}")
    return CheckResult(f"krawtchouk determinant N={N} p={p} s={s} t={t}", FAIL,
                       f"det^2 = {det * det}, formula gives {rhs}")
