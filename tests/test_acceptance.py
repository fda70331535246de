"""Acceptance gate: every verification suite over the default parameter grid.

One test per advertised guarantee.  A test fails only on a FAIL result;
REPORTED results (known discrepancies in the stored reference formulas,
documented in the check details) are tolerated where stated and asserted
to appear where expected.

The REPORTED lines are pinned by exact name.  Six kinds account for all 108
REPORTED lines of the default-grid `verify`: the lowering table (36), the
stored norm constant (36), the stored inverse transition (27, a >= 1), the
second coordinate expansion constants (3), the first eigenfunction
inversion (3) and the density total mass (3), one of each per m for the last
three.  At the smallest rank, m = 2, the same six kinds are all the REPORTED
lines.
"""

import json
from fractions import Fraction

import pytest

from bc2mvop import cli
from bc2mvop.casimir import (casimir_suite, conjugation_matrices,
                             scalar_radial_psi, xi_constants, xi_suite)
from bc2mvop.diffop import MatrixDiffOp
from bc2mvop.expansion import duality_suite, pde_suite, transition_suite
from bc2mvop.krawtchouk import STANDARD_PS, standard_suite
from bc2mvop.leading import PSI_VARS, X_VARS, psi_in_x, weight_suite
from bc2mvop.lie import PairParams
from bc2mvop.matrices import PolyMatrix
from bc2mvop.orthogonality import (indecomposability_suite, numeric_suite,
                                   orthogonality_suite, total_mass_check)
from bc2mvop.poly import MultiPoly
from bc2mvop.report import FAIL, PASS, REPORTED

GRID = [PairParams(m, a, b)
        for m in (3, 4, 5) for a in (0, 1, 2, 3) for b in (0, 1, 2)]


def assert_no_fail(results):
    bad = [r for r in results if r.status == FAIL]
    assert not bad, "\n".join(f"{r.name}: {r.detail}" for r in bad)


def test_krawtchouk_identities_exact():
    results = standard_suite(6, STANDARD_PS)
    assert results and all(r.status == PASS for r in results), \
        "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                  if r.status != PASS)


def test_weight_matrix_construction_and_stored_forms():
    results = [r for p in GRID for r in weight_suite(p, {})]
    assert results and all(r.status == PASS for r in results), \
        "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                  if r.status != PASS)


def test_transition_matrices_invert_and_match_expansion():
    results = [r for p in GRID for r in transition_suite(p)]
    assert_no_fail(results)
    # the only tolerated non-PASS is the stored inverse formula, whose
    # Pochhammer base is off by a shift of two; at a = 0 there is no
    # off-diagonal entry for it to get wrong
    reported = [r for r in results if r.status == REPORTED]
    assert [r.name for r in reported] == \
        [f"inverse transition closed form {p.tag()}" for p in GRID if p.a >= 1]
    for r in reported:
        assert "shift" in r.detail, f"{r.name}: {r.detail}"


def test_casimir_radial_action_identities():
    results = [r for p in GRID for r in casimir_suite(p, dmax=2, verdicts={})]
    assert_no_fail(results)
    # the one stored reference that disagrees is the lowering table
    assert [r.name for r in results if r.status == REPORTED] == \
        [f"lowering table reference comparison {p.tag()} dmax=2" for p in GRID]


def _printed_scalar_operator_x(m: int) -> MatrixDiffOp:
    """The source's scalar radial operator in (x1, x2), as printed."""
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    return MatrixDiffOp.scalar_op(X_VARS, {
        (2, 0): 2 * x1 * x1 - 4 * x2 - 4,
        (0, 2): -2 * x1 * x1 + 4 * x2 * x2 + 4 * x2,
        (1, 1): 4 * x1 * x2 - 4 * x1,
        (1, 0): 2 * (m + 2) * x1 + 4 * m - 8,
        (0, 1): 2 * (m - 2) * x1 + (4 * m + 4) * x2 + 4,
    })


def _printed_first_order_x(p: PairParams) -> tuple[PolyMatrix, PolyMatrix]:
    """The source's first-order matrices in (x1, x2), as printed: both are
    tridiagonal and share their off-diagonals."""
    a, b, n = p.a, p.b, p.size
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    rows1 = [[MultiPoly.zero(X_VARS)] * n for _ in range(n)]
    rows2 = [[MultiPoly.zero(X_VARS)] * n for _ in range(n)]
    for r in range(n):
        rows1[r][r] = 2 * (a + b + r) * x1 - (4 * b + 4 * r)
        rows2[r][r] = -2 * (b + r) * x1 + (2 * a + 4 * b + 4 * r) * x2 + 2 * a
        if r > 0:
            rows1[r][r - 1] = rows2[r][r - 1] = -r * (x1 + x2 + 1)
        if r < n - 1:
            rows1[r][r + 1] = rows2[r][r + 1] = MultiPoly.const(X_VARS, -4 * (a - r))
    return PolyMatrix.from_rows(rows1), PolyMatrix.from_rows(rows2)


def test_operator_change_of_coordinates():
    # the printed scalar operator is the affine image of the psi-side one
    for m in (3, 4, 5):
        assert (scalar_radial_psi(m).change_vars_affine(X_VARS, psi_in_x())
                == _printed_scalar_operator_x(m))
    # the printed first-order matrices are the exact negative of the affine
    # image of (C1, C2), a global sign flip that `verify` does not print; at
    # a = b = 0 both sides vanish and agree
    for p in GRID:
        c1m, c2m = conjugation_matrices(p.a, p.b)
        moved = MatrixDiffOp(PSI_VARS, {(1, 0): c1m, (0, 1): c2m}
                             ).change_vars_affine(X_VARS, psi_in_x())
        image = (moved.coeff((1, 0)), moved.coeff((0, 1)))
        printed = _printed_first_order_x(p)
        assert tuple(c.scale(Fraction(-1)) for c in image) == printed, p
        assert (image == printed) == (p.a == p.b == 0), p


def test_eigenvalue_equation_satisfied():
    results = [r for p in GRID
               for r in pde_suite(p, dmax=3 if p.a <= 2 else 2)]
    assert results and all(r.status == PASS for r in results), \
        "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                  if r.status != PASS)


def test_orthogonality_and_shared_norm_constant():
    for p in GRID:
        results = orthogonality_suite(p, dmax=2)
        assert_no_fail(results)
        assert [r.name for r in results if r.status == REPORTED] == \
            [f"norm constant stored closed form {p.tag()}"]
    # the stored mass constant is the reciprocal of the computed one
    for m in (3, 4, 5):
        r = total_mass_check(m)
        assert r.status == REPORTED, f"{r.name}: {r.status} {r.detail}"
        assert "reciprocal" in r.detail


@pytest.mark.parametrize("point, dmax", [((5, 3, 2), 3), ((6, 4, 2), 2)])
def test_orthogonality_at_higher_degree_and_larger_matrices(point, dmax):
    params = PairParams(*point)
    results = orthogonality_suite(params, dmax=dmax)
    assert_no_fail(results)
    assert [r.name for r in results if r.status == REPORTED] == \
        [f"norm constant stored closed form {params.tag()}"]


def test_weight_commutant_is_trivial():
    results = [r for p in GRID if p.a >= 1 for r in indecomposability_suite(p, {})]
    assert results and all(r.status == PASS for r in results), \
        "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                  if r.status != PASS)


def test_quadrature_agrees_with_exact_integrals():
    results = [r for p in GRID for r in numeric_suite(p, dmax=2)]
    assert results and all(r.status == PASS for r in results), \
        "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                  if r.status != PASS)


def test_eigenfunction_constants_derived_and_discrepancies_reported():
    for m in (3, 4, 5):
        t0, t1, t2 = xi_constants(m)["psi2"]
        assert t0 == Fraction(2, (m + 1) * (m + 2))
        assert t1 == Fraction(2, m + 2)
        assert t2 == Fraction(m - 1, m + 1)
        assert t0 + t1 + t2 == 1
        results = xi_suite(m)
        assert_no_fail(results)
        assert [r.name for r in results if r.status == REPORTED] == \
            [f"second coordinate expansion constants (m={m})",
             f"first eigenfunction inversion (m={m})"]


def test_flip_conjugate_family():
    for pt in [(3, 1, 0), (3, 2, 1)]:
        results = duality_suite(PairParams(*pt), dmax=2)
        assert results and all(r.status == PASS for r in results), \
            "\n".join(f"{r.status} {r.name}: {r.detail}" for r in results
                      if r.status != PASS)


def test_smallest_rank_reports_the_same_six_kinds(capsys):
    # m = 2, the pair (SU(4), S(U(2) x U(2))), is the smallest in the range
    assert cli.main(["verify", "all", "--m", "2", "--a", "0,1,2", "--b", "0,1",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"pass": 331, "fail": 0, "reported": 19}
    want = []
    for p in (PairParams(2, a, b) for a in (0, 1, 2) for b in (0, 1)):
        want.append(f"lowering table reference comparison {p.tag()} dmax=2")
        if p.a >= 1:
            want.append(f"inverse transition closed form {p.tag()}")
        want.append(f"norm constant stored closed form {p.tag()}")
    want += ["density total mass (m=2)",
             "second coordinate expansion constants (m=2)",
             "first eigenfunction inversion (m=2)"]
    assert [r["identity"] for r in payload["results"]
            if r["status"] == REPORTED] == want
