"""Exact multivariate polynomials over Q.

Every polynomial carries a fixed tuple of variable names. Arithmetic
between polynomials over different variable tuples raises instead of
merging positionally, so quantities living in different coordinate
systems cannot be mixed by accident.

Coefficients are fractions.Fraction throughout: reduced, positive
denominator, arbitrary precision.

The public constructor `MultiPoly(vars, terms)` (and `from_json`) checks
outside input: every exponent is converted with `operator.index`, must have
the arity of `vars` and no negative entry, and every coefficient is wrapped
in `Fraction`.  The results of arithmetic are built by the private trusted
constructor `MultiPoly._trusted`, which only drops zero coefficients.  It
relies on one condition: its terms come from valid polynomials over the same
variable tuple, so every key is already a tuple of non-negative ints of the
right arity (a sum or difference of such tuples that was checked to stay
non-negative) and every value is already a Fraction (sums, products and
quotients of Fractions and ints are Fractions).

`substitute` and `divide_exact` run on Python integers.  `integer_view` puts
polynomials over one common denominator as integer numerators; the kernel
works on those, and `MultiPoly._over` turns each resulting numerator into
one reduced Fraction over the final denominator.  This relies on one
condition: each denominator is multiplied back exactly once, so the results
are the same exact rationals as the same computation in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, index, sub
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
    (den, [{exp: int}, ...]), each polynomial equal to its numerators / den."""
    polys = list(polys)
    den = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return den, [{e: c.numerator * (den // c.denominator)
                  for e, c in p.terms.items()} for p in polys]


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
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("vars", "terms")

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
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, vars: tuple[str, ...],
                 terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Result of arithmetic on valid polynomials: drops zero
        coefficients and checks nothing else (see the module docstring)."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    @classmethod
    def _over(cls, vars: tuple[str, ...], nums: Mapping[tuple[int, ...], int],
              den: int) -> "MultiPoly":
        """The polynomial with integer numerators nums over den: one reduced
        Fraction per coefficient (see the module docstring)."""
        return cls._trusted(vars, {e: Fraction(c, den) for e, c in nums.items()})

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "MultiPoly":
        return cls(vars, {tuple([0] * len(vars)): Fraction(c)})

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
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

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
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out[exp] + c if exp in out else c
        return MultiPoly._trusted(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

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
            c = Fraction(other)
            return MultiPoly._trusted(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return MultiPoly._trusted(self.vars, out)

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its number, so it must hash like it too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- calculus / composition ----

    def derive(self, name: str) -> "MultiPoly":
        i = self._index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            k = e[i]
            e[i] = k - 1
            out[tuple(e)] = c * k
        return MultiPoly._trusted(self.vars, out)

    def substitute(self, images: Mapping[str, "MultiPoly"],
                   out_vars: tuple[str, ...] | None = None) -> "MultiPoly":
        """Compose: replace each variable by the given polynomial image.

        Variables without an explicit image must exist in the output
        variable tuple and map to themselves.
        """
        if out_vars is None:
            for img in images.values():
                out_vars = img.vars
                break
            else:
                out_vars = self.vars
        out_vars = tuple(out_vars)
        full: dict[str, MultiPoly] = {}
        for v in self.vars:
            if v in images:
                img = images[v]
                if img.vars != out_vars:
                    raise VariableMismatch(
                        f"image of {v!r} has vars {img.vars}, expected {out_vars}")
                full[v] = img
            else:
                full[v] = MultiPoly.var(out_vars, v)
        # each image over its own denominator, its powers as numerators
        sden, (snum,) = integer_view([self])
        views = [integer_view([full[v]]) for v in self.vars]
        dens = [den for den, _ in views]
        imgs = [img for _, (img,) in views]
        tops = [max((e[i] for e in snum), default=0) for i in range(len(dens))]
        unit = {(0,) * len(out_vars): 1}
        pows = [[unit] for _ in dens]
        # lifts[i][k] = den_i^(top_i - k) takes a term with x_i^k to the
        # common denominator sden * prod den_i^top_i
        lifts = [[den ** (top - k) for k in range(top + 1)]
                 for den, top in zip(dens, tops)]

        def power(i: int, k: int) -> dict:
            lst = pows[i]
            while len(lst) <= k:
                lst.append(_mul_numerators(lst[-1], imgs[i]))
            return lst[k]

        acc: dict[tuple[int, ...], int] = {}
        for exp, c in snum.items():
            term = unit
            for i, k in enumerate(exp):
                c *= lifts[i][k]
                if k:
                    term = (power(i, k) if term is unit
                            else _mul_numerators(term, power(i, k)))
            for e, t in term.items():
                acc[e] = acc[e] + c * t if e in acc else c * t
        den = sden
        for vden, top in zip(dens, tops):
            den *= vden ** top
        return MultiPoly._over(out_vars, acc, den)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise VariableMismatch(f"no value for {missing}")
        vals = [Fraction(point[v]) for v in self.vars]
        acc = Fraction(0)
        for exp, c in self.terms.items():
            t = c
            for val, k in zip(vals, exp):
                if k:
                    t *= val ** k
            acc += t
        return acc

    # ---- division ----

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Quotient if divisor divides self exactly, else None.

        Long division on integer numerators: when a step's leading numerator
        is not a multiple of the divisor's, remainder and quotient are scaled
        by the missing cofactor, and the quotient is divided by the product
        of those cofactors once, at the end."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            return self / divisor.constant_value()
        # numerators: scale * self = quo * divisor + rem at every step
        pden, (rem,) = integer_view([self])
        dden, (dnum,) = integer_view([divisor])
        dexp = max(dnum, key=_grlex_key)
        dc = dnum[dexp]
        dterms = dnum.items()
        quo: dict[tuple[int, ...], int] = {}
        scale = 1
        while rem:
            rexp = max(rem, key=_grlex_key)
            qexp = tuple(map(sub, rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            q, r = divmod(rem[rexp], dc)
            if r:
                # scale by the cofactor that makes this step exact
                f = abs(dc) // math.gcd(rem[rexp], dc)
                rem = {e: c * f for e, c in rem.items()}
                quo = {e: c * f for e, c in quo.items()}
                scale *= f
                q = rem[rexp] // dc
            quo[qexp] = q
            # rem -= q x^qexp divisor, dropping what cancels
            for e, c in dterms:
                e = tuple(map(add, qexp, e))
                r = rem[e] - q * c if e in rem else -q * c
                if r:
                    rem[e] = r
                else:
                    del rem[e]
        # self / divisor = (quo / scale) (dden / pden)
        return MultiPoly._over(self.vars, {e: c * dden for e, c in quo.items()},
                               pden * scale)

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


def symmetric_reduce(p: MultiPoly, out_vars: tuple[str, str]) -> MultiPoly:
    """Rewrite an even, swap-symmetric polynomial in two variables through
    the elementary symmetric functions of the squares.

    Input p(u,v) with only even exponents and p(u,v) = p(v,u); output r
    with r(u^2 + v^2, u^2 v^2) = p(u,v).
    """
    if len(p.vars) != 2:
        raise VariableMismatch("symmetric_reduce expects a 2-variable polynomial")
    for (e1, e2) in p.terms:
        if e1 % 2 or e2 % 2:
            raise ValueError(f"odd exponent pair ({e1},{e2}): not a function of the squares")
    for (e1, e2), c in p.terms.items():
        if p.terms.get((e2, e1), Fraction(0)) != c:
            raise ValueError(f"not swap-symmetric at exponents ({e1},{e2})")
    # work on q(s,t) = p with s=u^2, t=v^2
    q = {(e1 // 2, e2 // 2): c for (e1, e2), c in p.terms.items()}
    out: dict[tuple[int, int], Fraction] = {}
    sv = ("_s", "_t")
    e1p = MultiPoly(sv, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    e2p = MultiPoly(sv, {(1, 1): Fraction(1)})
    rem = MultiPoly(sv, q)
    while not rem.is_zero:
        # lex-leading term has alpha >= beta by symmetry
        exp = max(rem.terms, key=lambda e: e)
        alpha, beta = exp
        c = rem.terms[exp]
        if alpha < beta:
            raise AssertionError("symmetric reduction invariant broken")
        key = (alpha - beta, beta)
        out[key] = out.get(key, Fraction(0)) + c
        rem = rem - c * (e1p ** (alpha - beta)) * (e2p ** beta)
    result = MultiPoly(tuple(out_vars), out)
    return result
