r"""Weight-lattice data for SU(m+2) and the spherical-pair bookkeeping.

Weights are stored in fundamental-weight coordinates (a vector of m+1
integers, the coefficients of omega_1..omega_{m+1}); every other view
(partition coordinates, simple-root expansions) is derived from that
single source of truth. Simple-root expansions are partial sums: in type
A_{m+1} the k-th coordinate is lambda_1 + ... + lambda_k minus k/(m+2) of
the total, so the dominance order needs no linear solve.

The parameter triple (m, a, b) fixes the K-representation with highest
weight a*omega_1 + b*omega_2. The supported regimes are b >= 0 and
b <= -a (the latter only through dualize); the gap -a < b < 0 is
rejected because the construction does not extend there.

The package's value types (parameter triples, weights, labels and check
results) are namedtuples under `ValueTuple`: immutable, hashed as their
field tuple, and equal only to their own type.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import index


class ValueTuple:
    """Mixin for an immutable value type built on a namedtuple: hashed as
    its field tuple, and equal only to an instance of the same type, never
    to a bare tuple or another value type with the same fields."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class PairParams(ValueTuple, namedtuple("PairParams", "m a b")):
    __slots__ = ()

    def __new__(cls, m, a, b):
        try:
            values = tuple(map(index, (m, a, b)))
        except TypeError:
            raise ValueError(f"non-integral parameters m={m}, a={a}, "
                             f"b={b}") from None
        m, a, b = values
        if m <= 1:
            raise ValueError("m must be at least 2")
        if a < 0:
            raise ValueError("a must be non-negative")
        if -a < b < 0:
            raise ValueError(
                f"b={b} with a={a}: parameters with -a < b < 0 are outside "
                "the two supported regimes (b >= 0, or b <= -a reachable via duality); "
                "the construction does not extend to this intermediate range")
        return tuple.__new__(cls, values)

    @property
    def size(self) -> int:
        """Size of all matrices in the family: a + 1."""
        return self.a + 1

    def tag(self) -> str:
        return f"(m={self.m},a={self.a},b={self.b})"


_POINT_CACHES = []


def point_cache(fn):
    """fn under an unbounded lru_cache whose entries belong to one parameter
    point: `drop_point_caches` empties it when `verify`'s grid loop leaves
    the point, which the loop never returns to; the per-m section after the
    loop reads the a = b = 0 point afresh, and the final drop empties it.
    Its hit and miss counts keep counting across drops, as if every entry
    were kept; only ``cache_clear`` resets them."""
    cached = lru_cache(maxsize=None)(fn)
    info, clear = cached.cache_info, cached.cache_clear
    dropped = [0, 0]     # the hits and misses of the entries dropped so far

    def cache_info():
        now = info()
        return now._replace(hits=now.hits + dropped[0],
                            misses=now.misses + dropped[1])

    def drop(keep_counts=True):
        dropped[:] = cache_info()[:2] if keep_counts else (0, 0)
        clear()
    cached.cache_info = cache_info
    cached.cache_clear = lambda: drop(keep_counts=False)
    _POINT_CACHES.append(drop)
    return cached


def drop_point_caches():
    """Empty every `point_cache`.  The registry holds each cache's own drop,
    so a module attribute patched over a cache does not keep it from being
    emptied."""
    for drop in _POINT_CACHES:
        drop()


class Weight(ValueTuple, namedtuple("Weight", "omega")):
    """Element of the weight lattice of SU(m+2) in omega-coordinates."""
    __slots__ = ()

    def __new__(cls, omega):
        try:
            return tuple.__new__(cls, (tuple(map(index, omega)),))
        except TypeError:
            raise ValueError(f"non-integral weight coordinates {omega}") from None

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

    def _check(self, other: "Weight"):
        if len(self.omega) != len(other.omega):
            raise ValueError("weights for different ranks")

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.omega)

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
        return Fraction(n * dot - sum(v) * sum(w), n)


def fundamental(m: int, i: int) -> Weight:
    """omega_i, for 1 <= i <= m+1."""
    if not 1 <= i <= m + 1:
        raise ValueError(f"fundamental weight index {i} out of range for m={m}")
    return Weight(tuple(1 if j == i - 1 else 0 for j in range(m + 1)))


def rho(m: int) -> Weight:
    return Weight((1,) * (m + 1))


@lru_cache(maxsize=None)
def spherical_lambda1(m: int) -> Weight:
    return fundamental(m, 1) + fundamental(m, m + 1)


@lru_cache(maxsize=None)
def spherical_lambda2(m: int) -> Weight:
    return fundamental(m, 2) + fundamental(m, m)


class MsfLabel(ValueTuple, namedtuple("MsfLabel", "i d1 d2")):
    """Label (i, d1, d2) for the weight nu_i + d1*lambda_1 + d2*lambda_2."""
    __slots__ = ()

    def __new__(cls, i, d1, d2):
        try:
            values = tuple(map(index, (i, d1, d2)))
        except TypeError:
            raise ValueError(f"non-integral label {(i, d1, d2)}") from None
        if min(values) < 0:
            raise ValueError(f"invalid label {values}")
        return tuple.__new__(cls, values)


def check_label(a: int, label: MsfLabel):
    if label.i > a:
        raise ValueError(f"bottom index {label.i} exceeds a={a}")


@point_cache
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


@point_cache
def label_weight(params: PairParams, label: MsfLabel) -> Weight:
    check_label(params.a, label)
    m = params.m
    return (bottom_weight(params, label.i)
            + spherical_lambda1(m) * label.d1 + spherical_lambda2(m) * label.d2)


def root_coordinates(w: Weight) -> list[Fraction]:
    """Expansion of w in the simple roots alpha_k = eps_k - eps_{k+1}: for
    lambda = w.partition(), c_k = lambda_1 + ... + lambda_k - k |lambda| / (m+2)
    for k = 1..m+1."""
    lam = w.partition()
    t = Fraction(sum(lam), len(lam))
    return [sum(lam[:k]) - k * t for k in range(1, len(lam))]


def dominance_leq(w1: Weight, w2: Weight) -> bool:
    """True iff w2 - w1 is a non-negative integer combination of simple roots.

    Reads the root coordinates of w2 - w1 as the integers (m+2) c_k =
    (m+2) (lambda_1 + ... + lambda_k) - k |lambda|: each must be
    non-negative and divisible by m+2."""
    lam = (w2 - w1).partition()
    n, total = len(lam), sum(lam)
    prefix = 0
    for k, x in enumerate(lam[:-1], 1):
        prefix += x
        c = n * prefix - k * total
        if c < 0 or c % n:
            return False
    return True


def casimir_numerator(params: PairParams, label: MsfLabel) -> int:
    """(m+2) times the closed-form Casimir eigenvalue at the label: every
    eigenvalue of the parameter triple has denominator dividing m+2.

    Only valid in the canonical regime b >= 0 (checked by hand to break at
    (3,2,-3)); the dual regime goes through casimir_eigenvalue_ip, which is
    coordinate-free.
    """
    check_label(params.a, label)
    if params.b < 0:
        raise ValueError("closed-form eigenvalue requires b >= 0; "
                         "use casimir_eigenvalue_ip on the label weight")
    m, a, b = params.m, params.a, params.b
    i, d1, d2 = label.i, label.d1, label.d2
    whole = (2 * i * i + 2 * i * (b + m) + (m + 1) * a + 2 * m * b
             + 2 * d1 * d1 + 4 * d1 * d2 + 4 * d2 * d2
             + 2 * d1 * (a + b + i + m + 1) + 2 * d2 * (a + 2 * b + 2 * i + 2 * m))
    return whole * (m + 2) + (m + 1) * a * a + 2 * m * b * (a + b)


def casimir_eigenvalue(params: PairParams, label: MsfLabel) -> Fraction:
    """Closed-form Casimir eigenvalue of the spherical function at the label,
    casimir_numerator over m+2."""
    return Fraction(casimir_numerator(params, label), params.m + 2)


def casimir_eigenvalue_ip(w: Weight) -> Fraction:
    """Casimir eigenvalue <w, w> + 2 <w, rho> = <w, w + 2 rho>: the
    independent route."""
    return w.ip(w + rho(w.m) * 2)


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


def dualize(params: PairParams) -> PairParams:
    """Parameters of the dual family, (m, a, -a-b), whose index i matches
    index a-i of the original. An involution between the two regimes; the
    families on the b <= -a side are the b >= 0 ones conjugated by the
    anti-diagonal flip, never built: their checks read the b >= 0 family
    with the index mirrored."""
    return PairParams(params.m, params.a, -params.a - params.b)


def degree_pair(d) -> tuple[int, int]:
    """d as a pair of ints (d1, d2); a pair that is not two non-negative
    integers raises ValueError."""
    try:
        pair = tuple(map(index, d))
    except TypeError:
        raise ValueError(f"non-integral degree pair {d}") from None
    if len(pair) != 2:
        raise ValueError(f"degree pair {d} must have two entries")
    if pair[0] < 0 or pair[1] < 0:
        raise ValueError(f"degree pair {pair} must be non-negative")
    return pair


def degree_pairs(dmax: int) -> list[tuple[int, int]]:
    """All degree pairs (d1, d2) with d1 + d2 <= dmax, d1 outer and d2 inner."""
    return [(d1, d2) for d1 in range(dmax + 1) for d2 in range(dmax + 1 - d1)]


def labels_up_to(params: PairParams, dmax: int) -> list[MsfLabel]:
    """All labels (i, d1, d2) with 0 <= i <= a and d1 + d2 <= dmax,
    in deterministic order."""
    return [MsfLabel(i, d1, d2)
            for i in range(params.a + 1)
            for d1, d2 in degree_pairs(dmax)]
