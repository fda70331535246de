"""Second-order matrix differential operators in two variables.

An operator is a finite sum over derivative multi-indices
(0,0),(1,0),(0,1),(2,0),(1,1),(0,2) of coefficient matrices. Operators act
on the right only: the action on a matrix function F is

    D(F) = sum_idx  (d^idx F) @ coeff[idx],

i.e. coefficient matrices multiply from the right.

The action runs on the integer numerators the polynomials store.  Each
operator rescales the numerators of all its coefficient matrices to their
common denominator once, on its first application, and keeps them; the
entries of F are rescaled to theirs on each call.  Each output entry is
accumulated as one integer numerator per monomial, with derivatives taken
as falling factorials of the exponents, over the product of the two
denominators; the exponent pair (e1, e2) is packed into the one int
e1 << 32 | e2 while it accumulates, so a product of monomials is one
integer addition.  This relies on one condition: the coefficient matrices never
change after construction (``coeffs`` is a read-only mapping of immutable
PolyMatrix values), so the stored numerators stay the operator's own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .matrices import PolyMatrix, frac_invert
from .poly import MultiPoly, VariableMismatch, integer_view

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

ALLOWED_IDX = frozenset({(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)})


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
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        object.__setattr__(self, "_view", None)

    def __setattr__(self, *a):
        raise AttributeError("MatrixDiffOp is immutable")

    @classmethod
    def scalar_op(cls, vars: tuple[str, str],
                  coeffs: Mapping[tuple[int, int], MultiPoly]) -> "MatrixDiffOp":
        mats = {idx: PolyMatrix(1, 1, [p]) for idx, p in coeffs.items()}
        if not mats:
            mats = {(0, 0): PolyMatrix.zeros(1, 1, tuple(vars))}
        return cls(vars, mats)

    def coeff(self, idx: tuple[int, int]) -> PolyMatrix:
        return self.coeffs.get(tuple(idx),
                               PolyMatrix.zeros(self.size, self.size, self.vars))

    def lift(self, n: int) -> "MatrixDiffOp":
        """Tensor a scalar (1x1) operator with the identity of size n: each
        coefficient p becomes p I, built as its entries, not as a product."""
        if self.size != 1:
            raise ValueError("lift applies to scalar operators")
        zero = MultiPoly.zero(self.vars)
        out = {}
        for idx, mat in self.coeffs.items():
            p = mat.entry(0, 0)
            out[idx] = PolyMatrix(n, n, [p if i == j else zero
                                         for i in range(n) for j in range(n)])
        if not out:
            out[(0, 0)] = PolyMatrix.zeros(n, n, self.vars)
        return MatrixDiffOp(self.vars, out)

    def __add__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        if self.vars != other.vars or self.size != other.size:
            raise ValueError("incompatible operators")
        out = dict(self.coeffs)
        for idx, mat in other.coeffs.items():
            out[idx] = out[idx] + mat if idx in out else mat
        if not out:
            out[(0, 0)] = PolyMatrix.zeros(self.size, self.size, self.vars)
        return MatrixDiffOp(self.vars, out)

    def __sub__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "MatrixDiffOp":
        out = {idx: mat.scale(c) for idx, mat in self.coeffs.items()}
        if not out:
            out[(0, 0)] = PolyMatrix.zeros(self.size, self.size, self.vars)
        return MatrixDiffOp(self.vars, out)

    def __eq__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return (self.vars == other.vars and self.size == other.size
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, self.size, frozenset(self.coeffs.items())))

    # ---- action ----

    def _integer_view(self) -> tuple[int, tuple]:
        """One denominator for every coefficient matrix, and per row k of
        the coefficients the nonzero entries (idx, j, numerator terms) of
        coeff[idx][k, j], each exponent packed into one int (see `apply`);
        built on the first call and kept."""
        if self._view is None:
            n = self.size
            mats = list(self.coeffs.items())
            den, nums = integer_view(e for _, mat in mats for e in mat.entries)
            rows = [[] for _ in range(n)]
            for t, (idx, _) in enumerate(mats):
                for k in range(n):
                    for j in range(n):
                        terms = nums[(t * n + k) * n + j]
                        if terms:
                            rows[k].append((idx, j, tuple(
                                (e1 << _SHIFT | e2, c) for (e1, e2), c in terms.items())))
            object.__setattr__(self, "_view", (den, tuple(map(tuple, rows))))
        return self._view

    def apply(self, F: PolyMatrix) -> PolyMatrix:
        """D(F), accumulated on exponents packed as e1 << _SHIFT | e2, so
        that adding two packed exponents adds them coordinatewise (no
        exponent reaches 2^_SHIFT)."""
        if F.vars != self.vars:
            raise VariableMismatch(f"function vars {F.vars} != operator vars {self.vars}")
        if F.cols != self.size:
            raise ValueError(f"F has {F.cols} columns, operator size {self.size}")
        n = self.size
        oden, op_rows = self._integer_view()
        fden, fnums = integer_view(F.entries)
        out = []
        for r in range(F.rows):
            # acc[j][exp]: numerator of sum_idx sum_k d^idx F[r,k] coeff[idx][k,j]
            acc = [{} for _ in range(n)]
            for k in range(n):
                fterms = fnums[r * n + k]
                if not fterms:
                    continue
                derived = {}
                for (i1, i2), j, cterms in op_rows[k]:
                    dF = derived.get((i1, i2))
                    if dF is None:
                        # d^idx x^e = (e1)_i1 (e2)_i2 x^(e - idx)
                        dF = derived[i1, i2] = [
                            ((e1 - i1) << _SHIFT | (e2 - i2),
                             c * math.perm(e1, i1) * math.perm(e2, i2))
                            for (e1, e2), c in fterms.items()
                            if e1 >= i1 and e2 >= i2]
                    row = acc[j]
                    for a, x in dF:
                        for g, y in cterms:
                            e = a + g
                            row[e] = row[e] + x * y if e in row else x * y
            out.extend(MultiPoly._over(self.vars, {(e >> _SHIFT, e & _MASK): c
                                                   for e, c in nums.items()},
                                       oden * fden) for nums in acc)
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
        singular one ("matrix is singular").
        """
        new_vars = tuple(new_vars)
        # J[k][i] = d(new_k)/d(old_i)
        J = frac_invert([[backsub[old].derive(new).constant_value()
                          for new in new_vars] for old in self.vars])

        def first_order(i: int) -> dict[tuple[int, int], Fraction]:
            return {(1, 0): J[0][i], (0, 1): J[1][i]}

        def second_order(i: int, j: int) -> dict[tuple[int, int], Fraction]:
            out: dict[tuple[int, int], Fraction] = {}
            for k, dk in ((0, (1, 0)), (1, (0, 1))):
                for l, dl in ((0, (1, 0)), (1, (0, 1))):
                    idx = (dk[0] + dl[0], dk[1] + dl[1])
                    out[idx] = out.get(idx, Fraction(0)) + J[k][i] * J[l][j]
            return {k: v for k, v in out.items() if v != 0}

        translation = {
            (0, 0): {(0, 0): Fraction(1)},
            (1, 0): first_order(0),
            (0, 1): first_order(1),
            (2, 0): second_order(0, 0),
            (0, 2): second_order(1, 1),
            (1, 1): second_order(0, 1),
        }
        out: dict[tuple[int, int], PolyMatrix] = {}
        for idx, mat in self.coeffs.items():
            new_mat = mat.substitute(backsub, new_vars)
            for new_idx, factor in translation[idx].items():
                piece = new_mat.scale(factor)
                out[new_idx] = out[new_idx] + piece if new_idx in out else piece
        if not out:
            out[(0, 0)] = PolyMatrix.zeros(self.size, self.size, new_vars)
        return MatrixDiffOp(new_vars, out)
