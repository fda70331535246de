"""Two-variable matrix orthogonal polynomials of BC2 type, built from the
spherical functions of the pair (SU(m+2), S(U(2) x U(m))), entirely in
exact rational arithmetic.

The package constructs the leading-term matrix, the matrix weight, the
transition and expansion coefficients, the full matrix polynomials, and
the radial second-order operator they satisfy, and mechanically verifies
every closed-form identity these objects are supposed to obey.  Checks
report PASS, FAIL, or REPORTED; REPORTED marks an exact disagreement with
a stored reference formula, printed with both sides.
"""

from .expansion import (L_matrices, d_coeffs, phi_expansion, poly_matrix_psi,
                        poly_matrix_x)
from .krawtchouk import poch
from .leading import (leading_term, leading_term_matrix, weight_matrix_c,
                      weight_matrix_psi, weight_matrix_x)
from .lie import (MsfLabel, PairParams, Weight, casimir_eigenvalue,
                  casimir_eigenvalue_ip, dualize, label_weight, weyl_dim)
from .matrices import PolyMatrix
from .orthogonality import gram, in_region, region_integral
from .poly import MultiPoly
from .report import FAIL, PASS, REPORTED, CheckResult

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "FAIL", "L_matrices", "MsfLabel", "MultiPoly", "PASS",
    "PairParams", "PolyMatrix", "REPORTED", "Weight", "casimir_eigenvalue",
    "casimir_eigenvalue_ip", "d_coeffs", "dualize", "gram", "in_region",
    "label_weight", "leading_term", "leading_term_matrix", "phi_expansion",
    "poch", "poly_matrix_psi", "poly_matrix_x", "region_integral",
    "weight_matrix_c", "weight_matrix_psi", "weight_matrix_x", "weyl_dim",
]
