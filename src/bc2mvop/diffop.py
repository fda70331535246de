"""Second-order matrix differential operators in two variables.

An operator is a finite sum over derivative multi-indices
(0,0),(1,0),(0,1),(2,0),(1,1),(0,2) of coefficient matrices. Operators act
on the right only: the action on a matrix function F is

    D(F) = sum_idx  (d^idx F) @ coeff[idx],

i.e. coefficient matrices multiply from the right.

The action runs on the integer numerators the polynomials store.  On its
first application an operator rescales all its coefficient matrices to one
common denominator and keeps them with an image table: for each coefficient
row k and each monomial x^e met in column k of some F, the image of x^e,
i.e. per column j the numerators of sum_idx d^idx x^e coeff[idx][k, j],
with derivatives taken as falling factorials.  D(F) sums c times the image
of x^e over the terms c x^e of each F[r, k], over the product of the two
denominators.  This relies on one condition: the coefficient matrices never
change after construction (``coeffs`` is a read-only mapping of immutable
PolyMatrix values), so the stored numerators and images stay the operator's own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .matrices import PolyMatrix, frac_invert
from .poly import MultiPoly, VariableMismatch, distinct_vars, integer_view

ALLOWED_IDX = frozenset({(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)})


def _image(row: list, e: tuple[int, int]) -> tuple:
    """The image of x^e under one coefficient row, given as its nonzero
    entries (idx, j, numerators): the pairs (j, terms) of the numerators of
    sum_idx d^idx x^e coeff[idx][k, j], where d^idx x^e = (e1)_i1 (e2)_i2
    x^(e - idx).  Empty when e lies below every derivative index."""
    e1, e2 = e
    cols: dict[int, dict] = {}
    for (i1, i2), j, terms in row:
        if e1 >= i1 and e2 >= i2:
            f, s1, s2 = math.perm(e1, i1) * math.perm(e2, i2), e1 - i1, e2 - i2
            col = cols.setdefault(j, {})
            for (g1, g2), y in terms.items():
                g = (g1 + s1, g2 + s2)
                col[g] = col[g] + f * y if g in col else f * y
    return tuple((j, tuple(col.items())) for j, col in cols.items())


class MatrixDiffOp:
    __slots__ = ("vars", "size", "coeffs", "_view")

    def __init__(self, vars: tuple[str, str],
                 coeffs: Mapping[tuple[int, int], PolyMatrix]):
        vars = tuple(vars)
        if len(vars) != 2:
            raise ValueError("operators act in exactly two variables")
        clean: dict[tuple[int, int], PolyMatrix] = {}
        size = None
        for idx, mat in coeffs.items():
            idx = tuple(idx)
            if idx not in ALLOWED_IDX:
                raise ValueError(f"unsupported derivative index {idx}")
            if mat.rows != mat.cols:
                raise ValueError("coefficient matrices must be square")
            if mat.vars != vars:
                raise VariableMismatch(f"coefficient vars {mat.vars} != {vars}")
            if size is None:
                size = mat.rows
            elif mat.rows != size:
                raise ValueError("coefficient matrices of mixed size")
            if not mat.is_zero:
                clean[idx] = mat
        if size is None:
            raise ValueError("operator needs at least one coefficient to fix its size")
        if not clean:       # the zero operator: one zero coefficient fixes its size
            clean[(0, 0)] = PolyMatrix.from_entries(size, vars, {})
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        object.__setattr__(self, "_view", None)

    def __setattr__(self, *a):
        raise AttributeError("MatrixDiffOp is immutable")

    @classmethod
    def scalar_op(cls, vars: tuple[str, str],
                  coeffs: Mapping[tuple[int, int], MultiPoly]) -> "MatrixDiffOp":
        return cls(vars, {idx: PolyMatrix(1, 1, [p]) for idx, p in coeffs.items()})

    def lift(self, n: int) -> "MatrixDiffOp":
        """Tensor a scalar (1x1) operator with the identity of size n: each
        coefficient p becomes p I, built as its entries, not as a product."""
        if self.size != 1:
            raise ValueError("lift applies to scalar operators")
        return MatrixDiffOp(self.vars, {
            idx: PolyMatrix.from_entries(n, self.vars,
                                         {(i, i): mat.entry(0, 0) for i in range(n)})
            for idx, mat in self.coeffs.items()})

    def __add__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        if self.vars != other.vars or self.size != other.size:
            raise ValueError("incompatible operators")
        out = dict(self.coeffs)
        for idx, mat in other.coeffs.items():
            out[idx] = out[idx] + mat if idx in out else mat
        return MatrixDiffOp(self.vars, out)

    def __eq__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return (self.vars == other.vars and self.size == other.size
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, self.size, frozenset(self.coeffs.items())))

    # ---- action ----

    def _integer_view(self) -> tuple[int, list[list], list[dict]]:
        """One denominator for every coefficient matrix; per row k of the
        coefficients, the nonzero entries (idx, j, numerators) of
        coeff[idx][k, j]; and per row k the table of images (see `apply`),
        empty at first.  Built on the first call and kept."""
        if self._view is None:
            n = self.size
            mats = list(self.coeffs.items())
            den, nums = integer_view(e for _, mat in mats for e in mat.entries)
            rows = [[(idx, j, nums[(t * n + k) * n + j])
                     for t, (idx, _) in enumerate(mats) for j in range(n)
                     if nums[(t * n + k) * n + j]] for k in range(n)]
            object.__setattr__(self, "_view", (den, rows, [{} for _ in range(n)]))
        return self._view

    def apply(self, F: PolyMatrix) -> PolyMatrix:
        """D(F): each term c x^e of F[r, k] adds c times the image of x^e
        under coefficient row k to row r of the output.  An image is built
        the first time its monomial is met and kept, which is sound because
        the coefficients never change after construction."""
        if F.vars != self.vars:
            raise VariableMismatch(f"function vars {F.vars} != operator vars {self.vars}")
        if F.cols != self.size:
            raise ValueError(f"F has {F.cols} columns, operator size {self.size}")
        n = self.size
        oden, rows, images = self._integer_view()
        fden, fnums = integer_view(F.entries)
        out = []
        for r in range(F.rows):
            # acc[j][exp]: numerator of sum_idx sum_k d^idx F[r,k] coeff[idx][k,j]
            acc = [{} for _ in range(n)]
            for k in range(n):
                table = images[k]
                for e, c in fnums[r * n + k].items():
                    image = table.get(e)
                    if image is None:
                        image = table[e] = _image(rows[k], e)
                    for j, terms in image:
                        col = acc[j]
                        for g, y in terms:
                            col[g] = col[g] + c * y if g in col else c * y
            out.extend(MultiPoly._over(self.vars, col, oden * fden) for col in acc)
        return PolyMatrix(F.rows, n, out)

    def apply_scalar(self, f: MultiPoly) -> MultiPoly:
        if self.size != 1:
            raise ValueError("apply_scalar needs a scalar operator")
        return self.apply(PolyMatrix(1, 1, [f])).entry(0, 0)

    # ---- affine change of variables ----

    def change_vars_affine(self, new_vars: tuple[str, str],
                           backsub: Mapping[str, MultiPoly]) -> "MatrixDiffOp":
        """Rewrite the operator under an affine substitution.

        backsub maps each old variable name to its expression as a MultiPoly
        in new_vars; it rewrites the coefficient matrices, and its constant
        linear part d(old)/d(new) is inverted to give the chain rule
        d/d(old) = sum_new d(new)/d(old) d/d(new).  A non-affine backsub
        raises ValueError ("not a constant polynomial"), and so does a
        singular one ("matrix is singular") and a new_vars of other than two
        names; a backsub with no image for an old variable, and a new_vars
        that repeats a name, raise VariableMismatch.
        """
        new_vars = distinct_vars(new_vars)
        if len(new_vars) != 2:
            raise ValueError("operators act in exactly two variables")
        for old in self.vars:
            if old not in backsub:
                raise VariableMismatch(f"backsub has no image for {old!r}")
        # J[k][i] = d(new_k)/d(old_i)
        J = frac_invert([[backsub[old].derive(new).constant_value()
                          for new in new_vars] for old in self.vars])

        def chain(olds: tuple[int, ...]) -> dict[tuple[int, int], Fraction]:
            # the product of d/d(old_i) over i in olds, as factors of d^idx
            # in new_vars, zeros dropped
            out = {(0, 0): Fraction(1)}
            for i in olds:
                step: dict[tuple[int, int], Fraction] = {}
                for (a, b), v in out.items():
                    for idx, w in (((a + 1, b), J[0][i]), ((a, b + 1), J[1][i])):
                        step[idx] = step.get(idx, 0) + v * w
                out = step
            return {idx: v for idx, v in out.items() if v}

        out: dict[tuple[int, int], PolyMatrix] = {}
        for idx, mat in self.coeffs.items():
            new_mat = mat.substitute(backsub, new_vars)
            for new_idx, factor in chain((0,) * idx[0] + (1,) * idx[1]).items():
                piece = new_mat.scale(factor)
                out[new_idx] = out[new_idx] + piece if new_idx in out else piece
        return MatrixDiffOp(new_vars, out)
