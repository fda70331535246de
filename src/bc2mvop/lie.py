r"""Weight-lattice data for SU(m+2) and the spherical-pair bookkeeping.

Weights are stored in fundamental-weight coordinates (a vector of m+1
integers, the coefficients of omega_1..omega_{m+1}); every other view
(partition coordinates, simple-root expansions) is derived from that
single source of truth.

The parameter triple (m, a, b) fixes the K-representation with highest
weight a*omega_1 + b*omega_2. The supported regimes are b >= 0 and
b <= -a (the latter only through dualize); the gap -a < b < 0 is
rejected because the construction does not extend there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .matrices import solve_linear


@dataclass(frozen=True)
class PairParams:
    m: int
    a: int
    b: int

    def __post_init__(self):
        if self.m <= 2:
            raise ValueError("m must be at least 3")
        if self.a < 0:
            raise ValueError("a must be non-negative")
        if -self.a < self.b < 0:
            raise ValueError(
                f"b={self.b} with a={self.a}: parameters with -a < b < 0 are outside "
                "the two supported regimes (b >= 0, or b <= -a reachable via duality); "
                "the construction does not extend to this intermediate range")

    @property
    def size(self) -> int:
        """Size of all matrices in the family: a + 1."""
        return self.a + 1

    def tag(self) -> str:
        return f"(m={self.m},a={self.a},b={self.b})"


@dataclass(frozen=True)
class Weight:
    """Element of the weight lattice of SU(m+2) in omega-coordinates."""
    omega: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(int(x) for x in self.omega))

    @property
    def m(self) -> int:
        return len(self.omega) - 1

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(x + y for x, y in zip(self.omega, other.omega)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(x - y for x, y in zip(self.omega, other.omega)))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(k * x for x in self.omega))

    __rmul__ = __mul__

    def __neg__(self) -> "Weight":
        return self * (-1)

    def _check(self, other: "Weight"):
        if len(self.omega) != len(other.omega):
            raise ValueError("weights for different ranks")

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.omega)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.omega)

    def dual(self) -> "Weight":
        """Image under the diagram flip omega_i -> omega_{m+2-i}."""
        return Weight(tuple(reversed(self.omega)))

    def partition(self) -> tuple[int, ...]:
        """Coordinates in the epsilon basis: lambda_j = sum_{i>=j} omega-coeff_i,
        length m+2 with a trailing zero."""
        n = len(self.omega)
        out = []
        acc = 0
        for j in range(n - 1, -1, -1):
            acc += self.omega[j]
            out.append(acc)
        out.reverse()
        return tuple(out) + (0,)

    def ip(self, other: "Weight") -> Fraction:
        """Invariant inner product, normalized by <eps_i, eps_j> = delta - 1/(m+2)."""
        self._check(other)
        v = self.partition()
        w = other.partition()
        n = len(v)
        dot = sum(x * y for x, y in zip(v, w))
        return Fraction(dot) - Fraction(sum(v) * sum(w), n)


def zero_weight(m: int) -> Weight:
    return Weight((0,) * (m + 1))


def fundamental(m: int, i: int) -> Weight:
    """omega_i; the out-of-range indices 0 and m+2 give the zero weight."""
    if i in (0, m + 2):
        return zero_weight(m)
    if not 1 <= i <= m + 1:
        raise ValueError(f"fundamental weight index {i} out of range for m={m}")
    return Weight(tuple(1 if j == i - 1 else 0 for j in range(m + 1)))


def rho(m: int) -> Weight:
    return Weight((1,) * (m + 1))


def simple_root(m: int, k: int) -> Weight:
    """alpha_k = -omega_{k-1} + 2 omega_k - omega_{k+1}."""
    if not 1 <= k <= m + 1:
        raise ValueError(f"simple root index {k} out of range")
    return fundamental(m, k) * 2 - fundamental(m, k - 1) - fundamental(m, k + 1)


def spherical_lambda1(m: int) -> Weight:
    return fundamental(m, 1) + fundamental(m, m + 1)


def spherical_lambda2(m: int) -> Weight:
    return fundamental(m, 2) + fundamental(m, m)


@dataclass(frozen=True)
class MsfLabel:
    """Label (i, d1, d2) for the weight nu_i + d1*lambda_1 + d2*lambda_2."""
    i: int
    d1: int
    d2: int

    def __post_init__(self):
        if self.i < 0 or self.d1 < 0 or self.d2 < 0:
            raise ValueError(f"invalid label {(self.i, self.d1, self.d2)}")

    @property
    def d(self) -> tuple[int, int]:
        return (self.d1, self.d2)


def check_label(params: PairParams, label: MsfLabel):
    if label.i > params.a:
        raise ValueError(f"bottom index {label.i} exceeds a={params.a}")


def bottom_weight(params: PairParams, i: int) -> Weight:
    """nu_i for the given parameters.

    Regime b >= 0: (a-i) omega_1 + (i+b) omega_2 + i omega_{m+1}.
    Regime b <= -a: (a-i) omega_1 + (-i-b) omega_m + i omega_{m+1}.
    """
    m, a, b = params.m, params.a, params.b
    if not 0 <= i <= a:
        raise ValueError(f"bottom index {i} out of range 0..{a}")
    if b >= 0:
        return (fundamental(m, 1) * (a - i) + fundamental(m, 2) * (i + b)
                + fundamental(m, m + 1) * i)
    return (fundamental(m, 1) * (a - i) + fundamental(m, m) * (-i - b)
            + fundamental(m, m + 1) * i)


def label_weight(params: PairParams, label: MsfLabel) -> Weight:
    check_label(params, label)
    m = params.m
    return (bottom_weight(params, label.i)
            + spherical_lambda1(m) * label.d1 + spherical_lambda2(m) * label.d2)


@lru_cache(maxsize=None)
def _cartan_columns(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(simple_root(m, k).omega for k in range(1, m + 2))


def root_coordinates(w: Weight) -> list[Fraction] | None:
    """Expansion of w in the simple-root basis, if it lies in the root lattice
    tensored with Q (always solvable; returns exact coordinates)."""
    m = w.m
    cols = _cartan_columns(m)
    n = m + 1
    A = [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]
    return solve_linear(A, [Fraction(x) for x in w.omega])


def dominance_leq(w1: Weight, w2: Weight) -> bool:
    """True iff w2 - w1 is a non-negative integer combination of simple roots."""
    if len(w1.omega) != len(w2.omega):
        raise ValueError("weights for different ranks")
    coords = root_coordinates(w2 - w1)
    if coords is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coords)


def casimir_eigenvalue(params: PairParams, label: MsfLabel) -> Fraction:
    """Closed-form Casimir eigenvalue of the spherical function at the label.

    Only valid in the canonical regime b >= 0 (checked by hand to break at
    (3,2,-3)); the dual regime goes through casimir_eigenvalue_ip, which is
    coordinate-free.
    """
    check_label(params, label)
    if params.b < 0:
        raise ValueError("closed-form eigenvalue requires b >= 0; "
                         "use casimir_eigenvalue_ip on the label weight")
    m, a, b = params.m, params.a, params.b
    i, d1, d2 = label.i, label.d1, label.d2
    c_bottom = (Fraction(2 * i * i + 2 * i * (b + m) + (m + 1) * a + 2 * m * b)
                + Fraction((m + 1) * a * a + 2 * m * b * (a + b), m + 2))
    incr = (2 * d1 * d1 + 4 * d1 * d2 + 4 * d2 * d2
            + 2 * d1 * (a + b + i + m + 1) + 2 * d2 * (a + 2 * b + 2 * i + 2 * m))
    return c_bottom + incr


def casimir_eigenvalue_ip(w: Weight) -> Fraction:
    """Casimir eigenvalue <w, w> + 2 <w, rho>: the independent route."""
    return w.ip(w) + 2 * w.ip(rho(w.m))


def weyl_dim(w: Weight) -> int:
    """Weyl dimension formula for SU(m+2) in partition coordinates."""
    if not w.is_dominant():
        raise ValueError(f"weight {w.omega} is not dominant")
    lam = w.partition()
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, r = divmod(num, den)
    if r or dim <= 0:
        raise AssertionError(f"Weyl dimension {num}/{den} is not a positive integer")
    return dim


def tensor_fund_decomp(m: int, i: int, j: int) -> list[Weight]:
    """Irreducible pieces of omega_i tensor omega_j for i <= j (both minuscule):
    [omega_{i-r} + omega_{j+r} for r = 0..min(i, m+2-j)]."""
    if not 1 <= i <= j <= m + 1:
        raise ValueError(f"need 1 <= i <= j <= m+1, got ({i},{j})")
    return [fundamental(m, i - r) + fundamental(m, j + r)
            for r in range(min(i, m + 2 - j) + 1)]


@dataclass(frozen=True)
class DualData:
    params: PairParams

    def index(self, i: int) -> int:
        return self.params.a - i


def dualize(params: PairParams) -> tuple[PairParams, DualData]:
    """Parameters of the dual family, (m, a, -a-b), plus the index involution
    i -> a-i. An involution between the two regimes; downstream families on
    the b <= -a side are obtained by conjugating the b >= 0 family with the
    anti-diagonal flip, never computed directly."""
    dual = PairParams(params.m, params.a, -params.a - params.b)
    return dual, DualData(params)


def labels_up_to(params: PairParams, dmax: int) -> list[MsfLabel]:
    """All labels (i, d1, d2) with 0 <= i <= a and d1 + d2 <= dmax,
    in deterministic order."""
    return [MsfLabel(i, d1, d2)
            for i in range(params.a + 1)
            for d1 in range(dmax + 1)
            for d2 in range(dmax + 1 - d1)]
