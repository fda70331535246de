"""Matrices of polynomials, plus exact linear algebra over Fraction.

The linear algebra runs on integer rows through one fraction-free echelon,
`_echelon`: rank, determinant, solve and inverse each read their answer
from its result.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from .poly import MultiPoly, VariableMismatch, substitute_all


class PolyMatrix:
    __slots__ = ("rows", "cols", "vars", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[MultiPoly]):
        entries = tuple(entries)
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        vars = entries[0].vars
        for e in entries:
            if e.vars != vars:
                raise VariableMismatch("matrix entries over mixed variable tuples")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    # ---- constructors ----

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[MultiPoly]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_entries(cls, n: int, vars: tuple[str, ...], entries: Mapping[
            tuple[int, int], MultiPoly | Fraction | int]) -> "PolyMatrix":
        """The n x n matrix over vars with the given (i, j) entries, each a
        polynomial or a number, and zeros elsewhere."""
        flat = [MultiPoly.zero(vars)] * (n * n)
        for (i, j), e in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside a {n}x{n} matrix")
            if not isinstance(e, MultiPoly):
                e = MultiPoly.const(vars, e)
            elif e.vars != vars:
                raise VariableMismatch(f"entry vars {e.vars} != {vars}")
            flat[i * n + j] = e
        return cls(n, n, flat)

    # ---- access ----

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[MultiPoly]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    # ---- algebra ----

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def _shape_check(self, other: "PolyMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        zero = MultiPoly.zero(self.vars)
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            row = self.entries[i * self.cols:(i + 1) * self.cols]
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a.nums and b.nums:
                        acc = acc + a * b
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

    def scale(self, c) -> "PolyMatrix":
        """Multiply every nonzero entry by a scalar or polynomial."""
        return self.map_entries(lambda e: e * c if e.nums else e)

    def scale_rows(self, factors: Sequence) -> "PolyMatrix":
        """Multiply row i by factors[i]: the product diag(factors) @ self,
        without the zero entries of the diagonal matrix."""
        if len(factors) != self.rows:
            raise ValueError(f"need {self.rows} row factors, got {len(factors)}")
        return PolyMatrix(self.rows, self.cols,
                          [e * factors[i // self.cols]
                           for i, e in enumerate(self.entries)])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.cols, self.rows,
                          [self.entry(i, j) for j in range(self.cols)
                           for i in range(self.rows)])

    def map_entries(self, f: Callable[[MultiPoly], MultiPoly]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [f(e) for e in self.entries])

    def substitute(self, images: Mapping[str, MultiPoly],
                   out_vars: tuple[str, ...]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols,
                          substitute_all(self.entries, images, out_vars))

    def evaluate(self, point: Mapping[str, Fraction]) -> list[list[Fraction]]:
        return [[self.entry(i, j).evaluate(point) for j in range(self.cols)]
                for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def det(self) -> MultiPoly:
        """Determinant by Laplace expansion with memoization on column sets."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        cache: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one(self.vars)}

        def minor(cols: tuple[int, ...]) -> MultiPoly:
            # determinant of the lower-right block: rows n-len(cols).., given cols
            if cols in cache:
                return cache[cols]
            i = n - len(cols)
            acc = MultiPoly.zero(self.vars)
            for pos, j in enumerate(cols):
                e = self.entry(i, j)
                if e.is_zero:
                    continue
                sub = minor(cols[:pos] + cols[pos + 1:])
                term = e * sub
                acc = acc + (term if pos % 2 == 0 else -term)
            cache[cols] = acc
            return acc

        return minor(tuple(range(n)))

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyMatrix":
        return cls(data["rows"], data["cols"],
                   [MultiPoly.from_json(e) for e in data["entries"]])

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)) + "]"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Dense exact linear algebra on plain Fraction matrices (lists of lists).


def frac_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

def frac_matmul(A: Sequence[Sequence[Fraction]],
                B: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError(f"cannot multiply {n}x{len(A[0])} by {k}x{m}")
    return [[sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def _primitive_row(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int, int]:
    """(ints, p, g): a nonzero row times p, the lcm of its denominators,
    over g, the gcd of the products signed so that the leading entry of
    the coprime integers ints is positive.  A row of ints is its own
    product, with p = 1."""
    try:
        g = math.gcd(*row)      # a TypeError unless every entry is an int
        ints, den = row, 1
    except TypeError:
        den = math.lcm(*map(operator.attrgetter("denominator"), row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = math.gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return (tuple(ints) if g == 1 else tuple(x // g for x in ints)), den, g


def _echelon(A: Sequence[Sequence[Fraction]]) -> tuple[list[tuple], int]:
    """Row echelon form of a matrix of Fractions or ints, fraction-free.

    Nonzero rows are made primitive integer vectors, and rows that are then
    equal (rational multiples of each other) count once. A reduced row is
    q * row - f * pivot row (q the pivot entry) over its gcd; rows that
    reduce to zero drop. Returns (rows, sign): sign is that of the row
    swaps, and each (row, p, g) is p / g times an input row plus a
    combination of the rows above it, where p is the product of the factors
    the row was multiplied by and g of those it was divided by.
    """
    prim = (_primitive_row(row) for row in dict.fromkeys(map(tuple, A)) if any(row))
    rows = list({r[0]: r for r in prim}.values())
    ncols = len(rows[0][0]) if rows else 0
    sign = 1
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][0][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank][0]
        q = top[c]
        rest = []
        for r in rows[rank + 1:]:
            row = r[0]
            f = row[c]
            if f:
                row = [q * x - f * y if y else q * x for x, y in zip(row, top)]
                h = math.gcd(*row)
                if not h:
                    continue
                r = ([x // h for x in row], r[1] * q, r[2] * h)
            rest.append(r)
        rows[rank + 1:] = rest
        rank += 1
        if rank == len(rows):
            break
    return rows, sign


def frac_rank(A: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions or ints: its number of echelon rows."""
    return len(_echelon(A)[0])


def frac_det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: 0 unless all n echelon rows survive, each with its
    pivot on the diagonal; then sign times each pivot * g / p."""
    rows, sign = _echelon(A)
    if len(rows) < len(A):
        return Fraction(0)
    num, den = sign, 1
    for i, (row, p, g) in enumerate(rows):
        num *= row[i] * g
        den *= p
    return Fraction(num, den)


def _solve(A: Sequence[Sequence[Fraction]],
           B: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """The unique X with A X = B, by back-substitution over the echelon of
    [A | B]; None when there is none or more than one, that is unless the
    echelon has exactly one row per column of A, with its pivot there."""
    if not A:
        return None
    n = len(A[0])
    rows, _ = _echelon([[*a, *b] for a, b in zip(A, B)])
    if len(rows) != n or not all(row[i] for i, (row, _, _) in enumerate(rows)):
        return None
    X: list[list[Fraction]] = [[]] * n
    for i in reversed(range(n)):
        row = rows[i][0]
        X[i] = [Fraction(b - sum(row[t] * X[t][j] for t in range(i + 1, n)), row[i])
                for j, b in enumerate(row[n:])]
    return X


def solve_linear(A: Sequence[Sequence[Fraction]],
                 b: Sequence[Fraction]) -> list[Fraction] | None:
    """Unique solution of a possibly rectangular consistent system.

    Returns None when the system is inconsistent or underdetermined.
    """
    X = _solve(A, [[x] for x in b])
    return None if X is None else [row[0] for row in X]


def frac_invert(A: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    X = _solve(A, frac_identity(len(A)))
    if X is None:
        raise ValueError("matrix is singular")
    return X
