"""Leading-term matrix and the matrix weight in three coordinate systems."""

import inspect
from fractions import Fraction as F

import pytest

from bc2mvop import leading
from bc2mvop.casimir import conjugation_matrices
from bc2mvop.leading import (C1, C2, C_VARS, PSI1, PSI2, PSI_IN_C, PSI_IN_X,
                             PSI_VARS, X_VARS, det_reference_c,
                             krawtchouk_route_verdict, leading_term,
                             leading_term_matrix,
                             psi_reference_matrix, weight_matrix_c,
                             weight_matrix_psi, weight_matrix_x, weight_suite,
                             x_reference_matrix)
from bc2mvop.lie import PairParams
from bc2mvop.matrices import PolyMatrix
from bc2mvop.orthogonality import indecomposability_check
from bc2mvop.poly import MultiPoly

SAMPLE = [PairParams(3, 0, 0), PairParams(3, 1, 0), PairParams(3, 1, 2),
          PairParams(3, 2, 1), PairParams(4, 2, 0), PairParams(5, 3, 1)]
K_TYPES = [(p.a, p.b) for p in SAMPLE]


# x in terms of psi and of c, stated here as the references that the
# program's maps PSI_IN_X and PSI_IN_C are checked against
X_IN_PSI = {"x1": 2 * PSI1 - 2, "x2": 4 * PSI2 - 2 * PSI1 + 1}
X_IN_C = {"x1": 2 * (C1 * C1 + C2 * C2) - 2,
          "x2": 4 * C1 * C1 * C2 * C2 - 2 * (C1 * C1 + C2 * C2) + 1}


def test_coordinate_maps_are_mutually_inverse():
    fwd = X_IN_PSI
    back = PSI_IN_X
    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    assert back["psi1"].substitute(fwd, PSI_VARS) == p1
    assert back["psi2"].substitute(fwd, PSI_VARS) == p2
    x1 = MultiPoly.var(X_VARS, "x1")
    x2 = MultiPoly.var(X_VARS, "x2")
    assert fwd["x1"].substitute(back, X_VARS) == x1
    assert fwd["x2"].substitute(back, X_VARS) == x2
    # and psi(c) carries x(psi) to x(c)
    for name, x in fwd.items():
        assert x.substitute(PSI_IN_C, C_VARS) == X_IN_C[name], name


def test_identity_point_in_all_coordinates():
    # c = (1,1) maps to psi = (2,1) maps to x = (2,1)
    at_one = {"c1": F(1), "c2": F(1)}
    assert PSI_IN_C["psi1"].evaluate(at_one) == 2
    assert PSI_IN_C["psi2"].evaluate(at_one) == 1
    assert X_IN_C["x1"].evaluate(at_one) == 2
    assert X_IN_C["x2"].evaluate(at_one) == 1


def test_size_two_leading_terms_by_hand():
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    assert leading_term(1, 0, 0, 0) == c1
    assert leading_term(1, 0, 0, 1) == c2
    assert leading_term(1, 0, 1, 0) == c1 * c2 ** 2
    assert leading_term(1, 0, 1, 1) == c1 ** 2 * c2


def test_leading_term_range_checks():
    with pytest.raises(ValueError):
        leading_term(1, 0, 2, 0)
    with pytest.raises(ValueError):
        leading_term(1, 0, 0, -1)
    with pytest.raises(ValueError, match="b=-1"):
        leading_term(1, -1, 0, 0)


def test_size_two_weight_by_hand():
    s = weight_matrix_psi(1, 0)
    p1 = MultiPoly.var(PSI_VARS, "psi1")
    p2 = MultiPoly.var(PSI_VARS, "psi2")
    assert s.entry(0, 0) == p1
    assert s.entry(0, 1) == 2 * p2
    assert s.entry(1, 0) == 2 * p2
    assert s.entry(1, 1) == p1 * p2


def test_reference_displays_match_construction():
    for a in (1, 2):
        for b in (0, 1, 2):
            assert weight_matrix_psi(a, b) == psi_reference_matrix(a, b), (a, b)
        assert weight_matrix_x(a, 0) == x_reference_matrix(a)
    with pytest.raises(ValueError):
        psi_reference_matrix(3, 0)
    with pytest.raises(ValueError):
        x_reference_matrix(0)


def test_weight_is_symmetric():
    for a, b in K_TYPES:
        s = weight_matrix_c(a, b)
        assert s == s.transpose(), (a, b)


def test_determinant_closed_form():
    for a, b in K_TYPES[:4]:
        assert weight_matrix_c(a, b).det() == det_reference_c(a, b), (a, b)


def test_determinant_vanishes_on_diagonal_boundary():
    # on c1 = c2 the rows collide for a >= 1
    d = weight_matrix_c(2, 0).det()
    t = MultiPoly.var(C_VARS, "c1")
    on_diag = d.substitute({"c1": t, "c2": t}, C_VARS)
    assert on_diag.is_zero


def test_weight_at_identity_is_rank_one():
    # Q0(1,1) is all ones, so S(1,1) = (a+1) * ones
    vals = weight_matrix_c(2, 1).evaluate({"c1": F(1), "c2": F(1)})
    assert all(v == 3 for row in vals for v in row)


@pytest.mark.parametrize("params", SAMPLE, ids=lambda p: p.tag())
def test_weight_suite_all_green(params):
    results = weight_suite(params, {})
    bad = [r for r in results if r.status != "PASS"]
    assert not bad, [(r.name, r.detail) for r in bad]


@pytest.mark.parametrize("a", [0, 3])
def test_stored_displays_refuse_a_size_without_one(a):
    # only sizes 2 and 3 have a display: elsewhere there is nothing to
    # compare, so a call is refused rather than passed
    with pytest.raises(ValueError, match=f"no stored display at size {a + 1}"):
        leading.reference_matrix_verdict(a, 0)
    names = [r.name for r in weight_suite(PairParams(3, a, 0), {})]
    assert not any("stored displays" in name for name in names)


def test_q0_depends_only_on_a_and_b():
    # m enters the weight only through downstream operators, so Q0, S in c,
    # psi and x and the closed form of det S take the K-type (a, b) alone
    matrices = (leading_term_matrix, weight_matrix_c, weight_matrix_psi,
                weight_matrix_x)
    for build in (*matrices, det_reference_c, conjugation_matrices,
                  indecomposability_check):
        assert list(inspect.signature(build).parameters) == ["a", "b"], build
    # and the matrices are cached on it: one object for all m
    for build in matrices:
        assert build(2, 1) is build(2, 1)
    # the benchmark reads the hits and misses of the x-form's cache
    before = leading.weight_matrix_x.cache_info()
    weight_matrix_x(2, 1)
    assert leading.weight_matrix_x.cache_info().hits == before.hits + 1


@pytest.mark.parametrize("a, b, value", [(-1, 0, "a=-1"), (-2, 3, "a=-2"),
                                         (1, -1, "b=-1"), (0, -3, "b=-3")])
def test_builders_of_a_and_b_refuse_a_negative_value(a, b, value):
    # no point vets (a, b) on the way in, so each builder refuses it, and
    # names the value
    for build in (leading_term_matrix, weight_matrix_c, weight_matrix_psi,
                  weight_matrix_x, det_reference_c, conjugation_matrices,
                  indecomposability_check):
        with pytest.raises(ValueError, match=value):
            build(a, b)


def _patch_entry(monkeypatch, entry, change):
    # the checks read Q0 from the cached leading_term_matrix
    real = leading.leading_term_matrix

    def patched(a, b):
        q0 = real(a, b)
        return PolyMatrix.from_rows(
            [[change(q0.entry(i, k)) if (i, k) == entry else q0.entry(i, k)
              for k in range(q0.cols)] for i in range(q0.rows)])
    monkeypatch.setattr(leading, "leading_term_matrix", patched)


def test_krawtchouk_route_catches_one_perturbed_coefficient(monkeypatch):
    assert krawtchouk_route_verdict(2, 1).status == "PASS"

    def bump(q):
        (exp, _), *_ = q.sorted_terms()
        return q + F(1, 7) * MultiPoly.monomial(C_VARS, exp)
    _patch_entry(monkeypatch, (1, 2), bump)
    r = krawtchouk_route_verdict(2, 1)
    assert r.status == "FAIL"
    assert "routes disagree at entry (1,2)" in r.detail


def test_krawtchouk_route_fails_a_non_homogeneous_entry(monkeypatch):
    _patch_entry(monkeypatch, (0, 1), lambda q: q + MultiPoly.one(C_VARS))
    r = krawtchouk_route_verdict(2, 1)
    assert r.status == "FAIL"
    assert "entry (0,1) is not homogeneous" in r.detail


def test_homogeneity_check_catches_a_non_homogeneous_entry(monkeypatch):
    assert leading.homogeneity_verdict(2, 1).status == "PASS"
    _patch_entry(monkeypatch, (0, 1), lambda q: q + MultiPoly.one(C_VARS))
    r = leading.homogeneity_verdict(2, 1)
    assert r.status == "FAIL"
    assert "(0, 1)" in r.detail
