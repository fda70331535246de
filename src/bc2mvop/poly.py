"""Exact multivariate polynomials over Q.

Every polynomial carries a fixed tuple of variable names. Arithmetic
between polynomials over different variable tuples raises instead of
merging positionally, so quantities living in different coordinate
systems cannot be mixed by accident.

Coefficients are fractions.Fraction throughout: reduced, positive
denominator, arbitrary precision.
"""

from __future__ import annotations

from fractions import Fraction
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


class MultiPoly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction]):
        vars = tuple(vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        n = len(vars)
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has arity {len(exp)}, expected {n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = Fraction(coeff)
            if c != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if clean[exp] == 0:
                    del clean[exp]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

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
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

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
            if c == 0:
                return MultiPoly.zero(self.vars)
            return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

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
            e = tuple(e)
            out[e] = out.get(e, Fraction(0)) + c * k
        return MultiPoly(self.vars, out)

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
        # cache powers of each image
        pows: dict[str, list[MultiPoly]] = {v: [MultiPoly.one(out_vars)] for v in self.vars}

        def power(v: str, k: int) -> MultiPoly:
            lst = pows[v]
            while len(lst) <= k:
                lst.append(lst[-1] * full[v])
            return lst[k]

        acc = MultiPoly.zero(out_vars)
        for exp, c in self.terms.items():
            term = MultiPoly.const(out_vars, c)
            for v, k in zip(self.vars, exp):
                if k:
                    term = term * power(v, k)
            acc = acc + term
        return acc

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
        """Quotient if divisor divides self exactly, else None."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            return self / divisor.constant_value()
        rem = self
        quo = MultiPoly.zero(self.vars)
        dexp, dc = divisor.leading()
        while not rem.is_zero:
            rexp, rc = rem.leading()
            qexp = tuple(r - d for r, d in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qterm = MultiPoly.monomial(self.vars, qexp, rc / dc)
            quo = quo + qterm
            rem = rem - qterm * divisor
        return quo

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
