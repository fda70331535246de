"""Matrices of polynomials, plus exact linear algebra over Fraction."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .poly import MultiPoly, VariableMismatch


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
        c = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_scalar_rows(cls, vars: tuple[str, ...],
                         rows: Sequence[Sequence[Fraction]]) -> "PolyMatrix":
        return cls.from_rows([[MultiPoly.const(vars, x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, rows: int, cols: int, vars: tuple[str, ...]) -> "PolyMatrix":
        z = MultiPoly.zero(vars)
        return cls(rows, cols, [z] * (rows * cols))

    @classmethod
    def diagonal(cls, vars: tuple[str, ...], diag: Sequence[Fraction]) -> "PolyMatrix":
        n = len(diag)
        z = MultiPoly.zero(vars)
        return cls(n, n, [MultiPoly.const(vars, diag[i]) if i == j else z
                          for i in range(n) for j in range(n)])

    @classmethod
    def identity(cls, n: int, vars: tuple[str, ...]) -> "PolyMatrix":
        return cls.diagonal(vars, [1] * n)

    # ---- access ----

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[MultiPoly]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self) -> list[list[MultiPoly]]:
        return [self.row(i) for i in range(self.rows)]

    # ---- algebra ----

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _shape_check(self, other: "PolyMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = MultiPoly.zero(self.vars)
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

    def scale(self, c) -> "PolyMatrix":
        """Multiply every entry by a scalar or polynomial."""
        return PolyMatrix(self.rows, self.cols, [e * c for e in self.entries])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.cols, self.rows,
                          [self.entry(i, j) for j in range(self.cols)
                           for i in range(self.rows)])

    def map_entries(self, f: Callable[[MultiPoly], MultiPoly]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [f(e) for e in self.entries])

    def substitute(self, images: Mapping[str, MultiPoly],
                   out_vars: tuple[str, ...] | None = None) -> "PolyMatrix":
        return self.map_entries(lambda e: e.substitute(images, out_vars))

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


def flip_matrix(n: int, vars: tuple[str, ...]) -> PolyMatrix:
    """Anti-diagonal permutation matrix J, J[i][j] = 1 iff i + j = n - 1."""
    z = MultiPoly.zero(vars)
    o = MultiPoly.one(vars)
    return PolyMatrix(n, n, [o if i + j == n - 1 else z
                             for i in range(n) for j in range(n)])


def conjugate_flip(mat: PolyMatrix) -> PolyMatrix:
    """J M J for the anti-diagonal flip J of matching size."""
    if mat.rows != mat.cols:
        raise ValueError("flip conjugation needs a square matrix")
    n = mat.rows
    return PolyMatrix(n, n, [mat.entry(n - 1 - i, n - 1 - j)
                             for i in range(n) for j in range(n)])


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


def _eliminate(A: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row echelon form; returns (matrix, pivot column list)."""
    M = [[Fraction(x) for x in row] for row in A]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = Fraction(1) / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M, pivots


def frac_rank(A: Sequence[Sequence[Fraction]]) -> int:
    if not A:
        return 0
    _, pivots = _eliminate(A)
    return len(pivots)


def nullspace_dim(A: Sequence[Sequence[Fraction]], ncols: int | None = None) -> int:
    if not A:
        return ncols or 0
    n = ncols if ncols is not None else len(A[0])
    return n - frac_rank(A)


def solve_linear(A: Sequence[Sequence[Fraction]],
                 b: Sequence[Fraction]) -> list[Fraction] | None:
    """Unique solution of a possibly rectangular consistent system.

    Returns None when the system is inconsistent or underdetermined.
    """
    if not A:
        return None
    ncols = len(A[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    M, pivots = _eliminate(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = M[r][ncols]
    return x


def frac_invert(A: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(A)]
    M, pivots = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in M[:n]]


def frac_det(A: Sequence[Sequence[Fraction]]) -> Fraction:
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = Fraction(1) / M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] * inv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det
