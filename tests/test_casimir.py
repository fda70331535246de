"""Radial Casimir action: lowering moves, operator families, eigenfunctions."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bc2mvop import casimir, cli, lie
from bc2mvop.casimir import (RADIAL_DENOMINATOR, casimir_suite,
                             eigenvalue_agreement_check,
                             gradient_pairing_verdict, lowering_checks,
                             lowering_moves,
                             pde_operator_psi, pde_operator_x, radial_apply,
                             reference_table_comparison, scalar_eigen_check,
                             scalar_radial_agreement_check, scalar_radial_psi,
                             vertical_term, xi_suite)
from bc2mvop.diffop import MatrixDiffOp
from bc2mvop.expansion import xi_constants
from bc2mvop.leading import (C1, C2, C_VARS, PSI1, PSI2, PSI_IN_C, PSI_IN_X,
                             PSI_VARS, X_VARS, leading_term_matrix)
from bc2mvop.lie import MsfLabel, PairParams, casimir_eigenvalue
from bc2mvop.matrices import PolyMatrix
from bc2mvop.poly import MultiPoly


def psi_vars():
    return MultiPoly.var(PSI_VARS, "psi1"), MultiPoly.var(PSI_VARS, "psi2")


def test_vertical_term_by_hand():
    # (1/(2(m+2)))(m(a+b-k)^2 - 4(a+b-k)(b+k) + m(b+k)^2) at m=3, a=1, b=0
    p = PairParams(3, 1, 0)
    assert vertical_term(p, 0) == F(3, 10)
    assert vertical_term(p, 1) == F(3, 10)
    # and an asymmetric case
    q = PairParams(3, 2, 1)
    assert vertical_term(q, 0) == F(1, 10) * (3 * 9 - 4 * 3 * 1 + 3)


def test_scalar_action_on_coordinates():
    p1, p2 = psi_vars()
    for m in (3, 4, 5):
        op = scalar_radial_psi(m)
        assert op.apply_scalar(p1) == (2 * m + 4) * p1 - 8
        assert op.apply_scalar(p2) == (4 * m + 4) * p2 - 2 * p1


def test_scalar_routes_agree():
    for m in (3, 4):
        assert scalar_radial_agreement_check(m).status == "PASS"
        assert scalar_eigen_check(m).status == "PASS"


def test_lowering_moves_shape_and_eigenvalues():
    p = PairParams(3, 1, 0)
    label = MsfLabel(0, 1, 1)
    moves = lowering_moves(p, label)
    top = casimir_eigenvalue(p, label)
    for target, coeff in moves.items():
        assert coeff != 0
        assert casimir_eigenvalue(p, target) < top


def test_reference_moves_differ_only_in_the_repeat_coefficient():
    # the stored coefficient -2 d1 (d1-1) of the (d1-2, d2+1) move is half
    # the derived one, so the comparison splits exactly when d1 >= 2
    p = PairParams(3, 1, 0)
    assert MsfLabel(0, 0, 1) not in lowering_moves(p, MsfLabel(0, 1, 0))
    assert reference_table_comparison(p, 1).status == "PASS"
    assert lowering_moves(p, MsfLabel(0, 2, 0))[MsfLabel(0, 0, 1)] == -8
    r = reference_table_comparison(p, 2)
    assert r.status == "REPORTED"
    assert "MsfLabel(i=0, d1=2, d2=0)->(0,0,1): derived -8, reference -4" in r.detail


def test_lowering_checks_green():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 2, 2)):
        assert [r.status for r in lowering_checks(params, 2)] == ["PASS"] * 2
        assert eigenvalue_agreement_check(params, 2).status == "PASS"
        assert gradient_pairing_verdict(params.a, params.b).status == "PASS"


def test_reference_table_comparison_reports():
    r = reference_table_comparison(PairParams(3, 1, 0), 2)
    assert r.status == "REPORTED"
    r1 = reference_table_comparison(PairParams(3, 1, 0), 1)
    assert r1.status == "PASS"


def test_radial_apply_is_linear_in_components():
    p = PairParams(3, 1, 0)
    v0 = casimir.label_vector(p, MsfLabel(0, 0, 0))
    v1 = casimir.label_vector(p, MsfLabel(1, 0, 0))
    a = radial_apply(p, v0)
    b = radial_apply(p, v1)
    both = radial_apply(p, tuple(x + y for x, y in zip(v0, v1)))
    assert all(x + y == z for x, y, z in zip(a, b, both))
    # PolyMatrix refuses the wrong length, MatrixDiffOp.apply the wrong
    # variables
    with pytest.raises(ValueError, match="expected 2 entries"):
        radial_apply(p, (MultiPoly.zero(C_VARS),))
    with pytest.raises(ValueError, match="function vars"):
        radial_apply(p, (MultiPoly.zero(PSI_VARS),) * 2)


_PSI_EXPS = [(u, v) for u in range(6) for v in range(6 - u)]


@given(st.integers(3, 6),
       st.dictionaries(st.sampled_from(_PSI_EXPS), st.integers(-9, 9),
                       min_size=1, max_size=6))
def test_radial_operator_matches_scalar_psi_operator(m, coeffs):
    # at a = b = 0 the c-side operator on f(psi(c)) is the psi-side scalar
    # operator on f, pulled back, over the radial denominator; degrees reach
    # 5, past AGREEMENT_DEG
    f = MultiPoly(PSI_VARS, coeffs)
    got = radial_apply(PairParams(m, 0, 0), [f.substitute(PSI_IN_C, C_VARS)])[0]
    assert got == RADIAL_DENOMINATOR * (
        scalar_radial_psi(m).apply_scalar(f).substitute(PSI_IN_C, C_VARS))


def _perturb_first_order(monkeypatch, extra: MultiPoly):
    """Add extra to the (1,0) coefficient of the scalar part of the radial
    numerator operator: the per-m checks apply that part, and every
    point's operator lifts it, so extra times the identity joins it."""
    real = casimir._radial_scalar_c
    monkeypatch.setattr(casimir, "_radial_scalar_c", lambda m: real(m) + (
        MatrixDiffOp.scalar_op(C_VARS, {(1, 0): extra})))
    lie.drop_point_caches()  # no operator built before the mutation is read


def _fail_lines(capsys):
    code = cli.main(["verify", "casimir", "--m", "3", "--a", "1", "--b", "0",
                     "--dmax", "1"])
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line.startswith("FAIL")]


def _json_results(capsys):
    cli.main(["verify", "casimir", "--m", "3", "--a", "1", "--b", "0",
              "--dmax", "1", "--format", "json"])
    return json.loads(capsys.readouterr().out)["results"]


RADIAL_CHECKS = ("radial action on symmetric coordinates",
                 "scalar operator route agreement",
                 "bottom lowering identity", "triangular recursion table")


def _assert_each_check_carries_a_residual(capsys):
    results = _json_results(capsys)
    for check in RADIAL_CHECKS:
        r = next(r for r in results if check in r["identity"])
        assert r["status"] == "FAIL"
        assert r["residual"] not in ("", "0")


def test_operator_remainder_fails_each_check(monkeypatch, capsys):
    # c1 / denominator is no polynomial: each check reports the remainder
    # as a FAIL with its label and component, not as a parameter error
    _perturb_first_order(monkeypatch, MultiPoly.var(C_VARS, "c1"))
    code, fails = _fail_lines(capsys)
    assert code == 1
    for check in RADIAL_CHECKS:
        line = next(f for f in fails if check in f)
        assert ", component " in line
    assert "label MsfLabel(" in next(f for f in fails if RADIAL_CHECKS[3] in f)
    # each of the four carries the residual numerator of that component
    _assert_each_check_carries_a_residual(capsys)


def test_exactly_dividing_operator_defect_fails(monkeypatch, capsys):
    # denominator * c1 divides exactly, so only the comparisons catch it
    _perturb_first_order(monkeypatch,
                         RADIAL_DENOMINATOR * MultiPoly.var(C_VARS, "c1"))
    code, fails = _fail_lines(capsys)
    assert code == 1
    for check in RADIAL_CHECKS:
        line = next(f for f in fails if check in f)
        assert "non-polynomial" not in line
        assert ", component " in line
    # each of the four carries the residual of its first differing component
    _assert_each_check_carries_a_residual(capsys)


def test_radial_mismatch_residual_is_the_numerator_minus_d_want():
    # want off by c1 in component k: image - want = -c1, so the residual,
    # its numerator over D, is -D c1
    p = PairParams(3, 1, 0)
    c1 = MultiPoly.var(C_VARS, "c1")
    row = casimir.label_vector(p, MsfLabel(0, 0, 0))
    want = [casimir_eigenvalue(p, MsfLabel(0, 0, 0)) * q for q in row]
    for k in range(2):
        off = list(want)
        off[k] = off[k] + c1
        r = casimir._radial_mismatch("check", "i=0", radial_apply(p, row), off)
        assert (r.status, r.detail) == ("FAIL", f"i=0, component {k}")
        assert r.residual == str(-(RADIAL_DENOMINATOR * c1))
    # c1 alone is outside the eigenfunction span: no want matches its image
    zero = MultiPoly.zero(C_VARS)
    r = casimir._radial_mismatch("check", "c1", radial_apply(p, (c1, zero)),
                                 (zero, zero))
    assert r.status == "FAIL" and r.residual not in ("", "0")


def test_operator_transform_checks():
    # the x-side operator is the affine image of the psi side, and moving it
    # back, through x in terms of psi stated here, returns the psi-side
    # operator
    x_in_psi = {"x1": 2 * PSI1 - 2, "x2": 4 * PSI2 - 2 * PSI1 + 1}
    for p in (PairParams(3, 1, 0), PairParams(4, 2, 1)):
        assert (pde_operator_x(p).change_vars_affine(PSI_VARS, x_in_psi)
                == pde_operator_psi(p))


# verify's default grid, and three points past it
_GRID = [PairParams(m, a, b) for m in (3, 4, 5) for a in range(4)
         for b in range(3)]
_POINTS = _GRID + [PairParams(8, 6, 3), PairParams(3, 6, 0), PairParams(2, 2, 1)]


# ---- each coefficient matrix as a zero-filled row table, the reference ----

def _table(vars, rows):
    """The matrix with these rows over vars; a number is a constant."""
    return PolyMatrix.from_rows([
        [e if isinstance(e, MultiPoly) else MultiPoly.const(vars, e) for e in row]
        for row in rows])


def _lifted_table(op, n):
    """The scalar operator op with each coefficient p written as the table
    of p I."""
    return MatrixDiffOp(op.vars, {
        idx: _table(op.vars, [[c.entry(0, 0) if i == j else 0 for j in range(n)]
                              for i in range(n)])
        for idx, c in op.coeffs.items()})


def _conjugation_tables(a, b):
    n = a + 1
    rows1 = [[0] * n for _ in range(n)]
    rows2 = [[0] * n for _ in range(n)]
    for r in range(n):
        rows1[r][r] = 2 * (a + 2 * b + 2 * r) - 2 * (a + b + r) * PSI1
        rows2[r][r] = 2 * (b + r) * PSI1 - 2 * (a + 2 * b + 2 * r) * PSI2
        if r > 0:
            rows1[r][r - 1] = rows2[r][r - 1] = 2 * r * PSI2
        if r < n - 1:
            rows1[r][r + 1] = rows2[r][r + 1] = 2 * (a - r)
    return _table(PSI_VARS, rows1), _table(PSI_VARS, rows2)


def _zero_order_table(p):
    """Lambda0, the diagonal of the eigenvalues of the labels (i, 0, 0),
    plus the shift, the subdiagonal -2 r (b+r), each as a table."""
    n = p.size
    lambda0 = [[casimir_eigenvalue(p, MsfLabel(i, 0, 0)) if i == j else 0
                for j in range(n)] for i in range(n)]
    shift = [[-2 * r * (p.b + r) if j == r - 1 else 0 for j in range(n)]
             for r in range(n)]
    return _table(PSI_VARS, lambda0) + _table(PSI_VARS, shift)


def _first_order_table(p):
    """-d/dpsi1 A1 - d/dpsi2 A2 + Lambda0 + shift, from the tables."""
    a1, a2 = _conjugation_tables(p.a, p.b)
    return MatrixDiffOp(PSI_VARS, {(1, 0): a1.scale(F(-1)),
                                   (0, 1): a2.scale(F(-1)),
                                   (0, 0): _zero_order_table(p)})


def _radial_table(p):
    """The radial operator's zero-order stay/hop matrix as a table, plus
    the scalar part lifted as a table."""
    m, a, b, n = p.m, p.a, p.b, p.size
    c1sq, c2sq, cc = C1 * C1, C2 * C2, C1 * C1 * C2 * C2
    split = c2sq - c1sq
    stay = 4 * cc * (c1sq + c2sq - 2 * cc)
    hop = -4 * cc * C1 * C2 * (2 - c1sq - c2sq)
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        moves = (k + 1) * (a - k) + k * (a - k + 1)
        rows[k][k] = (vertical_term(p, k) * RADIAL_DENOMINATOR
                      + moves * stay + split * split
                      * ((a + b - k) ** 2 * c2sq + (b + k) ** 2 * c1sq))
        if k < a:
            rows[k + 1][k] = rows[k][k + 1] = (k + 1) * (a - k) * hop
    return (_lifted_table(casimir._radial_scalar_c(m), n)
            + MatrixDiffOp(C_VARS, {(0, 0): _table(C_VARS, rows)}))


def test_bottom_labels_give_the_stored_drop_and_the_leading_rows():
    # the two facts that let one routine serve both lowering checks: at
    # d = (0, 0) the move table is the bottom check's stored drop, and the
    # label's vector is row i of the leading-term matrix
    for p in _POINTS:
        q0 = leading_term_matrix(p.a, p.b)
        for i in range(p.size):
            bottom = MsfLabel(i, 0, 0)
            drop = {MsfLabel(i - 1, 0, 0): -2 * i * (p.b + i)} if i else {}
            assert lowering_moves(p, bottom) == drop, (p, i)
            assert casimir.label_vector(p, bottom) == tuple(q0.row(i)), (p, i)


def test_bottom_identity_reads_its_own_stored_drop(monkeypatch, capsys):
    # doubling the (i-1, d1, d2) weight of the table breaks the recursion
    # check, and not the bottom check, which keeps its own drop to i-1
    real = casimir.lowering_moves

    def doubled(params, label):
        down = (label.i - 1, label.d1, label.d2)
        return {t: 2 * c if tuple(t) == down else c
                for t, c in real(params, label).items()}

    monkeypatch.setattr(casimir, "lowering_moves", doubled)
    code = cli.main(["verify", "casimir", "--m", "3", "--a", "1", "--b", "0",
                     "--dmax", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    status = {line.split()[0] for line in lines
              if "triangular recursion table" in line}
    assert status == {"FAIL"}
    assert next(line for line in lines if "bottom lowering identity" in line
                ).startswith("PASS")


def test_verify_casimir_applies_the_radial_operator_once_per_label(
        monkeypatch, capsys):
    # a = 2, dmax 1: 3 bottom indices times 3 degree pairs, and the bottom
    # identity reads the recursion's images of (i, 0, 0)
    calls = []
    real = casimir.radial_apply

    def counted(params, comps):
        calls.append(comps)
        return real(params, comps)
    monkeypatch.setattr(casimir, "radial_apply", counted)
    assert cli.main(["verify", "casimir", "--m", "3", "--a", "2", "--b", "0",
                     "--dmax", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 9


@pytest.mark.parametrize("label", [MsfLabel(1, 0, 0), MsfLabel(0, 1, 0),
                                   MsfLabel(2, 0, 1)], ids=str)
def test_one_perturbed_radial_image_fails_each_line_that_reads_it(
        label, monkeypatch, capsys):
    # c1 added to component 0 of one label's image: the recursion fails at
    # that label, and the bottom identity only when the label is a bottom one
    real = casimir.radial_apply
    c1 = MultiPoly.var(C_VARS, "c1")

    def perturbed(params, comps):
        image = real(params, comps)
        if tuple(comps) == casimir.label_vector(params, label):
            return (image[0] + c1, *image[1:])
        return image
    monkeypatch.setattr(casimir, "radial_apply", perturbed)
    code = cli.main(["verify", "casimir", "--m", "3", "--a", "2",
                     "--b", "0,1", "--dmax", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    table = [line for line in lines if "triangular recursion table" in line]
    bottom = [line for line in lines if "bottom lowering identity" in line]
    assert len(table) == len(bottom) == 2
    for line in table:
        assert line.startswith("FAIL")
        assert line.endswith(f"label {label}, component 0")
    for line in bottom:
        if label.d1 == label.d2 == 0:
            assert line.startswith("FAIL") and line.endswith("i=1, component 0")
        else:
            assert line.startswith("PASS") and line.endswith("3 bottom rows")


def test_operators_equal_their_zero_filled_tables():
    for p in _POINTS:
        assert (casimir.conjugation_matrices(p.a, p.b)
                == _conjugation_tables(p.a, p.b)), p
        want = (_lifted_table(scalar_radial_psi(p.m), p.size)
                + _first_order_table(p))
        assert pde_operator_psi(p) == want, p
        assert pde_operator_x(p) == want.change_vars_affine(X_VARS, PSI_IN_X), p
        assert casimir.radial_operator_c(p) == _radial_table(p), p


def test_operator_equals_its_parts_moved_one_by_one():
    # a second route to E, stated here as the reference: R0 moved to x once
    # and then lifted, plus the first-order part
    # -d/dpsi1 A1 - d/dpsi2 A2 + Lambda0 + shift built and moved on its own
    for p in _GRID + [PairParams(8, 6, 3), PairParams(3, 6, 0)]:
        first = _first_order_table(p)
        r0 = scalar_radial_psi(p.m)
        r0x = r0.change_vars_affine(X_VARS, PSI_IN_X)
        assert pde_operator_psi(p) == r0.lift(p.size) + first
        assert pde_operator_x(p) == (
            r0x.lift(p.size) + first.change_vars_affine(X_VARS, PSI_IN_X))


def test_x_family_first_order_coefficients():
    # scalar part of the x-coordinate family, first-order coefficients
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    for m in (3, 4, 5):
        op = pde_operator_x(PairParams(m, 0, 0))
        c10 = op.coeffs[1, 0].entry(0, 0)
        c01 = op.coeffs[0, 1].entry(0, 0)
        assert c10 == 2 * ((m + 2) * x1 + 2 * m - 4)
        assert c01 == 2 * ((m - 2) * x1 + 2 + (2 * m + 2) * x2)
        # and the second-order coefficients, which do not depend on m
        assert op.coeffs[2, 0].entry(0, 0) == 2 * x1 * x1 - 4 * x2 - 4
        assert op.coeffs[0, 2].entry(0, 0) == \
            -2 * x1 * x1 + 4 * x2 * x2 + 4 * x2
        assert op.coeffs[1, 1].entry(0, 0) == 4 * x1 * x2 - 4 * x1
        # at a = b = 0 the operator is its scalar part alone
        r0x = scalar_radial_psi(m).change_vars_affine(X_VARS, PSI_IN_X)
        assert op == r0x


def test_scalar_eigenpolys_low_degree():
    # phi_(1,0) = ((m+2) psi1 - 4)/(2m) and
    # phi_(0,1) = (m(m+1) psi2 - (m+1) psi1 + 2)/(m(m-1)), each 1 at the
    # identity point (2, 1); at m = 4 by hand
    data = xi_constants(4)
    p1, p2 = psi_vars()
    assert data["phi1"] == F(3, 4) * p1 - F(1, 2)
    assert data["phi2"] == F(5, 3) * p2 - F(5, 12) * p1 + F(1, 6)


def test_xi_constants_by_hand():
    data = xi_constants(4)
    assert data["psi1"] == (F(2, 3), F(4, 3))
    assert data["psi2"] == (F(1, 15), F(1, 3), F(3, 5))
    assert sum(data["psi2"]) == 1
    for m in (3, 5):
        t0, t1, t2 = xi_constants(m)["psi2"]
        assert (t0, t1, t2) == (F(2, (m + 1) * (m + 2)), F(2, m + 2),
                                F(m - 1, m + 1))


def test_xi_suite_statuses():
    statuses = [r.status for r in xi_suite(4, xi_constants(4))]
    assert statuses.count("FAIL") == 0
    assert statuses.count("REPORTED") == 2


def test_second_inversion_fail_prints_both_sides(monkeypatch):
    real = casimir.xi_references
    monkeypatch.setattr(casimir, "xi_references",
                        lambda m: {**real(m), "phi2": 2 * real(m)["phi2"]})
    r = next(r for r in xi_suite(4, xi_constants(4))
             if r.name == "second eigenfunction inversion (m=4)")
    assert r.status == "FAIL"
    ref, got = casimir.xi_references(4)["phi2"], xi_constants(4)["phi2"]
    assert r.detail == f"reference inversion {ref}, solved {got}"
    assert "matches" not in r.detail


@pytest.mark.parametrize("params,dmax", [(PairParams(3, 0, 0), 2),
                                         (PairParams(3, 2, 1), 2),
                                         (PairParams(4, 1, 0), 3)],
                         ids=lambda v: str(v))
def test_casimir_suite_no_failures(params, dmax):
    results = casimir_suite(params, dmax, {})
    bad = [r for r in results if r.status == "FAIL"]
    assert not bad, [(r.name, r.detail) for r in bad]
