"""Second-order matrix differential operators in two variables.

An operator is a finite sum over derivative multi-indices
(0,0),(1,0),(0,1),(2,0),(1,1),(0,2) of coefficient matrices. Operators act
on the right only: the action on a matrix function F is

    D(F) = sum_idx  (d^idx F) @ coeff[idx],

i.e. coefficient matrices multiply from the right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .matrices import PolyMatrix
from .poly import MultiPoly, VariableMismatch

ALLOWED_IDX = frozenset({(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)})


class MatrixDiffOp:
    __slots__ = ("vars", "size", "coeffs")

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
        object.__setattr__(self, "coeffs", clean)

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
        """Tensor a scalar (1x1) operator with the identity of size n."""
        if self.size != 1:
            raise ValueError("lift applies to scalar operators")
        out = {}
        for idx, mat in self.coeffs.items():
            p = mat.entry(0, 0)
            out[idx] = PolyMatrix.identity(n, self.vars).scale(p)
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

    def _derive(self, F: PolyMatrix, idx: tuple[int, int]) -> PolyMatrix:
        u, v = self.vars
        out = F
        for _ in range(idx[0]):
            out = out.map_entries(lambda e: e.derive(u))
        for _ in range(idx[1]):
            out = out.map_entries(lambda e: e.derive(v))
        return out

    def apply(self, F: PolyMatrix) -> PolyMatrix:
        if F.vars != self.vars:
            raise VariableMismatch(f"function vars {F.vars} != operator vars {self.vars}")
        if F.cols != self.size:
            raise ValueError(f"F has {F.cols} columns, operator size {self.size}")
        acc = PolyMatrix.zeros(F.rows, F.cols, self.vars)
        for idx, mat in self.coeffs.items():
            dF = self._derive(F, idx)
            acc = acc + dF @ mat
        return acc

    def apply_scalar(self, f: MultiPoly) -> MultiPoly:
        if self.size != 1:
            raise ValueError("apply_scalar needs a scalar operator")
        return self.apply(PolyMatrix(1, 1, [f])).entry(0, 0)

    # ---- affine change of variables ----

    def change_vars_affine(self, new_vars: tuple[str, str],
                           jac: Mapping[str, Mapping[str, Fraction]],
                           backsub: Mapping[str, MultiPoly]) -> "MatrixDiffOp":
        """Rewrite the operator under an affine substitution.

        jac[old][new] = d(new)/d(old), constants; backsub maps each old
        variable name to its expression as a MultiPoly in new_vars (used to
        rewrite the coefficient matrices).
        """
        new_vars = tuple(new_vars)
        o1, o2 = self.vars
        n1, n2 = new_vars
        J = [[Fraction(jac[o1][n1]), Fraction(jac[o1][n2])],
             [Fraction(jac[o2][n1]), Fraction(jac[o2][n2])]]

        def first_order(i: int) -> dict[tuple[int, int], Fraction]:
            return {(1, 0): J[i][0], (0, 1): J[i][1]}

        def second_order(i: int, j: int) -> dict[tuple[int, int], Fraction]:
            out: dict[tuple[int, int], Fraction] = {}
            for k, dk in ((0, (1, 0)), (1, (0, 1))):
                for l, dl in ((0, (1, 0)), (1, (0, 1))):
                    idx = (dk[0] + dl[0], dk[1] + dl[1])
                    out[idx] = out.get(idx, Fraction(0)) + J[i][k] * J[j][l]
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
