"""Exact multivariate polynomials over Q.

Every polynomial carries a fixed tuple of variable names. Arithmetic
between polynomials over different variable tuples raises instead of
merging positionally, so quantities living in different coordinate
systems cannot be mixed by accident.

A polynomial is stored as integer numerators over one denominator: `nums`
maps exponent tuples to nonzero ints and `den` is an int >= 1, the
polynomial being sum nums[e] x^e / den.  The form is in lowest terms,
gcd(den, *nums) == 1, so `den` is the lcm of the coefficient denominators
and equality is a comparison of vars, den and nums.  `terms` is a read-only
view mapping each exponent to its coefficient Fraction(num, den), for
printing, serialization and callers that want rationals.

The public constructor `MultiPoly(vars, terms)` (and `from_json`) checks
outside input: every exponent is converted with `operator.index`, must have
the arity of `vars` and no negative entry, and every coefficient is wrapped
in `Fraction`.  The results of arithmetic are built from ints by the private
constructor `MultiPoly._over`, which drops zero numerators, divides by the
common gcd once and makes the denominator positive.  It checks nothing else
and relies on one condition: its keys come from valid polynomials over the
same variable tuple, so every key is already a tuple of non-negative ints of
the right arity (a sum or difference of such tuples that was checked to
stay non-negative).

No routine mutates a stored `nums`: every result is a new dict, and
`integer_view` also hands out new dicts, never `p.nums` itself.

Two module functions work on many polynomials at once: `linear_combination`
sums scalar multiples as one integer combination over one denominator, and
`substitute_all` composes polynomials with the same images, sharing the
powers of the images and the image of each monomial between them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, index
from types import MappingProxyType
from typing import Iterable, Mapping


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    return Fraction(s.strip())


def rat_to_str(r: Fraction) -> str:
    """Canonical "p/q" form (denominator always present)."""
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}"


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class VariableMismatch(ValueError):
    pass


def integer_view(polys: Iterable["MultiPoly"]) -> tuple[int, list[dict]]:
    """The polynomials as integer numerators over one common denominator:
    (den, [{exp: int}, ...]), each polynomial equal to its numerators / den.
    The dicts are new, so a caller may edit them."""
    polys = list(polys)
    den = math.lcm(*(p.den for p in polys))
    return den, [{e: c * (den // p.den) for e, c in p.nums.items()} for p in polys]


def linear_combination(terms: Iterable[tuple[int | Fraction, "MultiPoly"]]
                       ) -> "MultiPoly":
    """sum c p over the (c, p) pairs, for int or Fraction scalars c and
    polynomials p over one variable tuple (at least one pair), as one
    integer combination of the numerators over one common denominator."""
    terms = list(terms)
    vars = terms[0][1].vars
    for _, p in terms:
        if p.vars != vars:
            raise VariableMismatch(f"{p.vars} vs {vars}")
    den = math.lcm(*(c.denominator * p.den for c, p in terms))
    acc: dict[tuple[int, ...], int] = {}
    for c, p in terms:
        f = c.numerator * (den // (c.denominator * p.den))
        for e, x in p.nums.items():
            acc[e] = acc[e] + f * x if e in acc else f * x
    return MultiPoly._over(vars, acc, den)


def _mul_numerators(a: dict, b: dict) -> dict:
    """Product of two polynomials given as {exp: int}."""
    out: dict[tuple[int, ...], int] = {}
    right = b.items()
    for e1, c1 in a.items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


class MultiPoly:
    """Sparse polynomial: nonzero integer numerators over one denominator."""

    __slots__ = ("vars", "nums", "den")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction]):
        vars = tuple(vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        n = len(vars)
        for exp, coeff in terms.items():
            try:
                exp = tuple(map(index, exp))
            except TypeError:
                raise ValueError(f"non-integral exponent in {exp}") from None
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has arity {len(exp)}, expected {n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = Fraction(coeff)
            if c != 0:
                clean[exp] = c
        # over the lcm of reduced denominators the numerators have gcd 1
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "nums", {e: c.numerator * (den // c.denominator)
                                          for e, c in clean.items()})
        object.__setattr__(self, "den", den)

    @classmethod
    def _over(cls, vars: tuple[str, ...], nums: Mapping[tuple[int, ...], int],
              den: int) -> "MultiPoly":
        """The polynomial nums / den in lowest terms (see the module
        docstring).  nums is not kept: the result holds a new dict."""
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "nums", {e: c // g for e, c in nums.items() if c})
        object.__setattr__(p, "den", den // g)
        return p

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "MultiPoly":
        return cls._over(tuple(vars), {}, 1)

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "MultiPoly":
        c = Fraction(c)
        return cls._over(tuple(vars), {(0,) * len(vars): c.numerator}, c.denominator)

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "MultiPoly":
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "MultiPoly":
        if name not in vars:
            raise VariableMismatch(f"{name!r} not among {vars}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], exp: Iterable[int], coeff=1) -> "MultiPoly":
        return cls(vars, {tuple(exp): Fraction(coeff)})

    # ---- predicates / views ----

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view: each exponent with its coefficient as a Fraction."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.nums.get(tuple([0] * len(self.vars)), 0), self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.nums, key=_grlex_key)
        return exp, Fraction(self.nums[exp], self.den)

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return Fraction(self.nums.get(tuple(exp), 0), self.den)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableMismatch(f"{name!r} not among {self.vars}") from None

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # ---- arithmetic ----

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other
        # both over the lcm of the denominators
        g = math.gcd(self.den, other.den)
        f, h = other.den // g, self.den // g
        out = {e: c * f for e, c in self.nums.items()}
        for exp, c in other.nums.items():
            out[exp] = out[exp] + c * h if exp in out else c * h
        return MultiPoly._over(self.vars, out, self.den * f)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._over(self.vars, {e: -c for e, c in self.nums.items()},
                               self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return MultiPoly._over(self.vars, {e: c * p for e, c in self.nums.items()},
                                   self.den * other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        return MultiPoly._over(self.vars, _mul_numerators(self.nums, other.nums),
                               self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars == other.vars and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        # a constant equals its number, so it must hash like it too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    # ---- calculus / composition ----

    def derive(self, name: str) -> "MultiPoly":
        i = self._index(name)
        out: dict[tuple[int, ...], int] = {}
        for exp, c in self.nums.items():
            k = exp[i]
            if k:
                e = list(exp)
                e[i] = k - 1
                out[tuple(e)] = c * k
        return MultiPoly._over(self.vars, out, self.den)

    def substitute(self, images: Mapping[str, "MultiPoly"],
                   out_vars: tuple[str, ...]) -> "MultiPoly":
        """Compose: replace each variable by the given polynomial image, a
        polynomial over ``out_vars``.

        Variables without an explicit image must exist in the output
        variable tuple and map to themselves.
        """
        return substitute_all([self], images, out_vars)[0]

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise VariableMismatch(f"no value for {missing}")
        vals = [Fraction(point[v]) for v in self.vars]
        # each value p/q enters as p^k q^(top-k) over the denominator q^top
        tops = [max((e[i] for e in self.nums), default=0) for i in range(len(vals))]
        acc = 0
        for exp, c in self.nums.items():
            for val, k, top in zip(vals, exp, tops):
                c *= val.numerator ** k * val.denominator ** (top - k)
            acc += c
        den = self.den
        for val, top in zip(vals, tops):
            den *= val.denominator ** top
        return Fraction(acc, den)

    # ---- serialization / printing ----

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(e), "coeff": rat_to_str(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        vars = tuple(data["vars"])
        terms = {tuple(t["exp"]): rat_from_str(t["coeff"]) for t in data["terms"]}
        return cls(vars, terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, exp):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            cs = str(c)
            if factors:
                body = "*".join(factors)
                if c == 1:
                    piece = body
                elif c == -1:
                    piece = f"-{body}"
                else:
                    piece = f"{cs}*{body}"
            else:
                piece = cs
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def substitute_all(polys: Iterable[MultiPoly], images: Mapping[str, MultiPoly],
                   out_vars: tuple[str, ...]) -> list[MultiPoly]:
    """MultiPoly.substitute of each polynomial (all over one variable tuple)
    with the same images.  The powers of the images and the image of each
    monomial are formed once, as numerators, and shared between them."""
    polys = list(polys)
    vars = polys[0].vars
    out_vars = tuple(out_vars)
    full: list[MultiPoly] = []
    for v in vars:
        if v in images:
            img = images[v]
            if img.vars != out_vars:
                raise VariableMismatch(
                    f"image of {v!r} has vars {img.vars}, expected {out_vars}")
            full.append(img)
        else:
            full.append(MultiPoly.var(out_vars, v))
    # each image over its own denominator, its powers as numerators
    dens = [img.den for img in full]
    imgs = [img.nums for img in full]
    unit = {(0,) * len(out_vars): 1}
    pows = [[unit] for _ in dens]
    monos: dict[tuple[int, ...], dict] = {}

    def image(exp: tuple[int, ...]) -> dict:
        # numerators of the image of x^exp over prod den_i^exp_i
        term = monos.get(exp)
        if term is None:
            term = unit
            for i, k in enumerate(exp):
                lst = pows[i]
                while len(lst) <= k:
                    lst.append(_mul_numerators(lst[-1], imgs[i]))
                if k:
                    term = lst[k] if term is unit else _mul_numerators(term, lst[k])
            monos[exp] = term
        return term

    out = []
    for p in polys:
        if p.vars != vars:
            raise VariableMismatch(f"{p.vars} vs {vars}")
        # a term with x_i^k is lifted by den_i^(top_i - k) to the common
        # denominator p.den * prod den_i^top_i
        tops = [max((e[i] for e in p.nums), default=0) for i in range(len(dens))]
        acc: dict[tuple[int, ...], int] = {}
        for exp, c in p.nums.items():
            for vden, top, k in zip(dens, tops, exp):
                if vden != 1:
                    c *= vden ** (top - k)
            for e, t in image(exp).items():
                acc[e] = acc[e] + c * t if e in acc else c * t
        den = p.den
        for vden, top in zip(dens, tops):
            den *= vden ** top
        out.append(MultiPoly._over(out_vars, acc, den))
    return out


def symmetric_reduce(p: MultiPoly, out_vars: tuple[str, str]) -> MultiPoly:
    """Rewrite an even, swap-symmetric polynomial in two variables through
    the elementary symmetric functions of the squares.

    Input p(u,v) with only even exponents and p(u,v) = p(v,u); output r
    with r(u^2 + v^2, u^2 v^2) = p(u,v).
    """
    if len(p.vars) != 2:
        raise VariableMismatch("symmetric_reduce expects a 2-variable polynomial")
    for (e1, e2) in p.nums:
        if e1 % 2 or e2 % 2:
            raise ValueError(f"odd exponent pair ({e1},{e2}): not a function of the squares")
    for (e1, e2), c in p.nums.items():
        if p.nums.get((e2, e1), 0) != c:
            raise ValueError(f"not swap-symmetric at exponents ({e1},{e2})")
    # work on q(s,t) = p with s=u^2, t=v^2
    sv = ("_s", "_t")
    rem = MultiPoly._over(sv, {(e1 // 2, e2 // 2): c for (e1, e2), c in p.nums.items()},
                          p.den)
    out: dict[tuple[int, int], Fraction] = {}
    e1p = MultiPoly(sv, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    e2p = MultiPoly(sv, {(1, 1): Fraction(1)})
    while not rem.is_zero:
        # lex-leading term has alpha >= beta by symmetry
        exp = max(rem.nums)
        alpha, beta = exp
        c = Fraction(rem.nums[exp], rem.den)
        if alpha < beta:
            raise AssertionError("symmetric reduction invariant broken")
        key = (alpha - beta, beta)
        out[key] = out.get(key, Fraction(0)) + c
        rem = rem - c * (e1p ** (alpha - beta)) * (e2p ** beta)
    result = MultiPoly(tuple(out_vars), out)
    return result
