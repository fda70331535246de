"""Exact integration, Gram matrices, positivity, indecomposability, numerics."""

import gc
import json
import weakref
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, strategies as st

from bc2mvop import cli, lie, orthogonality
from bc2mvop.expansion import poly_matrix_psi, poly_matrix_x
from bc2mvop.leading import (C1, C2, C_VARS, PSI_IN_C, X_VARS,
                             weight_matrix_x)
from bc2mvop.lie import MsfLabel, PairParams, label_weight, weyl_dim
from bc2mvop.matrices import PolyMatrix
from bc2mvop.orthogonality import (_beta_numerators, beta_moment, gram,
                                   in_region, indecomposability_check,
                                   indecomposability_suite,
                                   integrate_against_delta, moment,
                                   numeric_crosscheck, numeric_suite,
                                   orthogonality_suite, positivity_verdict,
                                   region_grid, region_integral,
                                   total_mass_check)
from bc2mvop.poly import MultiPoly


def test_beta_moments_by_hand():
    # B(p) = p! (m-2)! / (2 (p+m-1)!)
    assert beta_moment(3, 0) == F(1, 4)
    assert beta_moment(3, 1) == F(1, 12)
    assert beta_moment(3, 2) == F(1, 24)
    assert beta_moment(4, 0) == F(1, 6)
    # at m = 2 the sine factor is sin^1: 1 / (2 (p+1))
    assert [beta_moment(2, p) for p in range(3)] == [F(1, 2), F(1, 4), F(1, 6)]
    with pytest.raises(ValueError, match="m >= 2"):
        beta_moment(1, 0)


def test_delta_integral_of_one():
    # quarter-torus mass of the squared vandermonde density
    assert integrate_against_delta(3, MultiPoly.one(C_VARS)) == F(1, 36)


def test_delta_integral_even_monomial():
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    assert integrate_against_delta(3, (c1 ** 2) * (c2 ** 4)) == F(1, 720)
    with pytest.raises(ValueError):
        integrate_against_delta(3, c1)


def test_beta_numerators_match_beta_moment():
    for m in range(3, 9):
        for top in range(12):
            den, nums = _beta_numerators(m, top)
            assert all(type(v) is int for v in (den, *nums))
            assert [F(v, den) for v in nums] == \
                [beta_moment(m, p) for p in range(top + 1)] == \
                [F(factorial(p) * factorial(m - 2), 2 * factorial(p + m - 1))
                 for p in range(top + 1)], (m, top)


def _delta_reference(m, p):
    """4 times the sum of coeff B(i) B(j) over the terms c1^(2i) c2^(2j) of
    the product p (c1^2 - c2^2)^2, all in Fractions."""
    c1 = MultiPoly.var(C_VARS, "c1")
    c2 = MultiPoly.var(C_VARS, "c2")
    product = p * (c1 * c1 - c2 * c2) ** 2
    return 4 * sum((c * beta_moment(m, e1 // 2) * beta_moment(m, e2 // 2)
                    for (e1, e2), c in product.terms.items()), F(0))


_even_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=6).map(lambda terms: MultiPoly(
        C_VARS, {(2 * i, 2 * j): c for (i, j), c in terms.items()}))


@given(st.integers(3, 7), _even_polys)
@example(3, MultiPoly.zero(C_VARS))
@example(5, MultiPoly(C_VARS, {(0, 0): F(1, 2), (2, 0): F(-2, 3),
                               (2, 4): F(5, 7), (6, 2): F(3)}))
def test_integrate_against_delta_matches_fraction_reference(m, p):
    got = integrate_against_delta(m, p)
    assert type(got) is F
    assert got == _delta_reference(m, p)


def test_region_integral_of_one():
    assert region_integral(3, 0, MultiPoly.one(X_VARS)) == F(8, 9)


def test_integrals_refuse_m_below_2_and_a_negative_b():
    with pytest.raises(ValueError, match="m must be at least 2"):
        integrate_against_delta(1, MultiPoly.one(C_VARS))
    with pytest.raises(ValueError, match="m must be at least 2"):
        region_integral(1, 0, MultiPoly.one(X_VARS))
    with pytest.raises(ValueError, match="b=-1"):
        region_integral(3, -1, MultiPoly.one(X_VARS))


# ---- the moment table against two references ----
#
# With u = cos 2t1, v = cos 2t2 one has x1 = u + v, x2 = uv, and the region
# weight becomes Koornwinder's BC2 Jacobi weight with (alpha, beta, gamma) =
# (m-2, b, 1/2): half of (u-v)^2 w(u) w(v) over the square [-1, 1]^2, with
# w(u) = (1-u)^(m-2) (1+u)^b.  The first reference expands in these
# coordinates by its own binomial sums, in Fractions; the second pulls the
# integrand back through the 2:1 trigonometric cover to (c1, c2), the route
# the quadrature takes, and integrates it against the group density.

def _jacobi_moment(k, alpha, beta):
    """int_{-1}^{1} u^k (1-u)^alpha (1+u)^beta du, from u^k = ((1+u) - 1)^k
    and int (1-u)^p (1+u)^q du = 2^(p+q+1) p! q! / (p+q+1)!."""
    return sum(comb(k, r) * (-1) ** (k - r)
               * F(2 ** (alpha + beta + r + 1) * factorial(alpha)
                   * factorial(beta + r), factorial(alpha + beta + r + 1))
               for r in range(k + 1))


def _koornwinder_moment(m, b, i, j):
    """1/2 of int (u+v)^i (uv)^j (u-v)^2 w(u) w(v) du dv over [-1, 1]^2."""
    total = F(0)
    for s in range(i + 1):
        # (u-v)^2 = u^2 - 2uv + v^2
        for p, q, c in ((2, 0, 1), (1, 1, -2), (0, 2, 1)):
            total += (comb(i, s) * c
                      * _jacobi_moment(s + j + p, m - 2, b)
                      * _jacobi_moment(i - s + j + q, m - 2, b))
    return total / 2


def test_moment_table_matches_koornwinder_coordinates():
    for m in range(3, 7):
        for b in range(4):
            for i in range(7):
                for j in range(7 - i):
                    assert moment(m, b, i, j) == _koornwinder_moment(m, b, i, j), \
                        (m, b, i, j)


# x in terms of c, the trigonometric cover, stated here: the program keeps
# no map into x, so this is an independent reference for the pull-backs
X_IN_C = {"x1": 2 * (C1 * C1 + C2 * C2) - 2,
          "x2": 4 * C1 * C1 * C2 * C2 - 2 * (C1 * C1 + C2 * C2) + 1}


def _pulled_back_integral(m, b, M):
    """2^(2m+2b-1) times the integral of M(x(c)) (c1 c2)^(2b) against the
    group density: the region weight and its Jacobian, pulled back through
    the cover, are 2^(1-2m-2b) times that density times (c1 c2)^(2b)."""
    weight = MultiPoly.monomial(C_VARS, (2 * b, 2 * b))
    pulled = M.substitute(X_IN_C, C_VARS) * weight
    return 2 ** (2 * m + 2 * b - 1) * integrate_against_delta(m, pulled)


def test_moment_table_matches_the_pull_back_through_the_cover():
    for m in range(2, 7):
        for b in range(4):
            for i in range(7):
                for j in range(7 - i):
                    mono = MultiPoly.monomial(X_VARS, (i, j))
                    assert moment(m, b, i, j) == _pulled_back_integral(m, b, mono), \
                        (m, b, i, j)


_x_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=6).map(lambda terms: MultiPoly(X_VARS, terms))


@given(st.integers(2, 6), st.integers(0, 3), _x_polys)
@example(3, 0, MultiPoly.zero(X_VARS))
@example(5, 2, MultiPoly(X_VARS, {(0, 0): F(1, 2), (1, 0): F(-2, 3),
                                  (2, 3): F(5, 7), (4, 1): F(3)}))
def test_region_integral_matches_the_pull_back_reference(m, b, M):
    got = region_integral(m, b, M)
    assert type(got) is F
    assert got == _pulled_back_integral(m, b, M)


def _gram_by_entry(params, d, dp, family=poly_matrix_x):
    """The Gram matrix with every entry of R_d S R_d'^T integrated on its own."""
    s0 = weight_matrix_x(params.a, 0)
    prod = family(params, d) @ s0 @ family(params, dp).transpose()
    return [[region_integral(params.m, params.b, prod.entry(i, j))
             for j in range(prod.cols)] for i in range(prod.rows)]


# the last two have the higher degree on the left, read as a transpose
_LOW_PAIRS = (((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1)),
              ((0, 0), (1, 0)), ((2, 0), (0, 1)), ((1, 1), (1, 0)))


@pytest.mark.parametrize("params, pairs", [
    *(pytest.param(PairParams(3, a, b), _LOW_PAIRS, id=f"{b}-{a}")
      for b in (0, 2) for a in (0, 3)),
    # the entries of R_(2,1) lie over many different denominators
    pytest.param(PairParams(5, 3, 2), (((2, 1), (2, 1)),), id="5-3-2-d21")])
def test_gram_contraction_matches_entrywise_pull_back(params, pairs):
    for d, dp in pairs:
        assert gram(params, d, dp) == _gram_by_entry(params, d, dp), (d, dp)


def test_family_entries_lie_over_unequal_denominators():
    # the premise of the (5, 3, 2) case above: R_d has no one denominator
    # that the integer contraction could take for granted
    R = poly_matrix_x(PairParams(5, 3, 2), (2, 1))
    dens = {lcm(*(c.denominator for c in R.entry(i, j).terms.values()))
            for i in range(R.rows) for j in range(R.cols)
            if not R.entry(i, j).is_zero}
    assert len(dens) > 1


def _clear_module_caches():
    """Empty every cache defined in the orthogonality module, so that
    nothing cached outlives a patched moment or family."""
    for obj in vars(orthogonality).values():
        if (hasattr(obj, "cache_clear")
                and obj.__module__ == orthogonality.__name__):
            obj.cache_clear()


@pytest.fixture
def corrupted_moment(monkeypatch):
    """One moment of the table, x1 against the weight, off by a factor 1 + 1e-3."""
    true_moment = orthogonality.moment

    def corrupt(m, b, i, j):
        value = true_moment(m, b, i, j)
        return value * F(1001, 1000) if (i, j) == (1, 0) else value

    _clear_module_caches()
    monkeypatch.setattr(orthogonality, "moment", corrupt)
    yield
    _clear_module_caches()


@pytest.fixture
def skewed_family(monkeypatch):
    """Every R_d plus x1^|d| N for one matrix N that is not symmetric, so
    that the Gram matrices of distinct degrees are neither zero nor
    symmetric."""
    shift = PolyMatrix.from_entries(3, X_VARS, {(0, 1): 1, (1, 2): 2})

    def skewed(params, d):
        power = MultiPoly.monomial(X_VARS, (sum(d), 0))
        return poly_matrix_x(params, d) + shift.scale(power)

    _clear_module_caches()
    monkeypatch.setattr(orthogonality, "poly_matrix_x", skewed)
    yield skewed
    _clear_module_caches()


def test_transposed_gram_matches_entrywise_pull_back_off_the_family(
        skewed_family):
    # on the family, distinct degrees integrate to 0 either way round, so
    # only a family that is not orthogonal shows a missing transpose
    params = PairParams(3, 2, 1)
    for d, dp in (((2, 0), (0, 1)), ((1, 1), (1, 0))):
        G = gram(params, d, dp)
        assert G != [list(row) for row in zip(*G)], (d, dp)
        assert G == _gram_by_entry(params, d, dp, skewed_family), (d, dp)


# a >= 2 at dmax 4, which no benchmark workload runs: the matrix moment
# table is extended twice, to total degree 2, 4 and 8, and the last pair is
# read as a transpose
_DEEP_PAIRS = (((1, 0), (1, 0)), ((1, 1), (0, 2)), ((2, 2), (2, 2)),
               ((1, 3), (1, 3)), ((4, 0), (1, 3)), ((3, 1), (0, 2)))


def test_gram_at_dmax_4_matches_entrywise_pull_back():
    _clear_module_caches()
    params = PairParams(5, 3, 2)
    for d, dp in _DEEP_PAIRS:
        assert gram(params, d, dp) == _gram_by_entry(params, d, dp), (d, dp)


def test_perturbed_weight_entry_fails_orthogonality_at_dmax_4(monkeypatch):
    # x2 added to the entry S_00 alone: S stays symmetric, and the moment
    # table must read it
    true_weight = orthogonality.weight_matrix_x

    def perturbed(a, b):
        s = true_weight(a, b)
        return PolyMatrix(s.rows, s.cols, [
            s.entries[0] + MultiPoly.var(X_VARS, "x2"), *s.entries[1:]])

    _clear_module_caches()
    monkeypatch.setattr(orthogonality, "weight_matrix_x", perturbed)
    try:
        results = orthogonality_suite(PairParams(5, 3, 2), 4)
    finally:
        _clear_module_caches()
    r = next(r for r in results
             if r.name.startswith("orthogonality of distinct degrees"))
    assert r.status == "FAIL"
    assert r.residual != "0"


@pytest.mark.parametrize("bad", [(1.5, 0), (1,), (1, 0, 0), (-1, 0),
                                 (1.0, 0), (F(1), 0)])
def test_bad_degree_pairs_are_refused(bad):
    p = PairParams(3, 1, 0)
    for call in (lambda: gram(p, bad, (0, 0)), lambda: gram(p, (0, 0), bad),
                 lambda: numeric_crosscheck(p, bad, (0, 0)),
                 lambda: numeric_crosscheck(p, (0, 0), bad)):
        with pytest.raises(ValueError, match="degree pair"):
            call()


def test_corrupted_moment_fails_exact_and_numeric_checks(corrupted_moment):
    p = PairParams(3, 1, 0)
    assert any(r.status == "FAIL" for r in orthogonality_suite(p, 1))
    # the quadrature reads no moment, so it now disagrees with the exact Gram
    assert numeric_crosscheck(p, (0, 0), (0, 0)).status == "FAIL"


def test_a_wrong_cover_fails_the_quadrature_and_no_exact_line(monkeypatch,
                                                             capsys):
    # the exact route never reads orthogonality's PSI_IN_C: with psi2 pulled
    # back off by c1^2, every exact line stays as it was and the quadrature disagrees
    # wherever it reads a non-constant R_d, that is at every pair but
    # (0,0), (0,0)
    argv = ["verify", "orthogonality", "--m", "3", "--a", "1", "--b", "1",
            "--dmax", "1", "--numeric", "--format", "json"]

    def results():
        _clear_module_caches()
        cli.main(argv)
        return json.loads(capsys.readouterr().out)["results"]

    def exact(lines):
        return [r for r in lines
                if not r["identity"].startswith("numeric quadrature agreement")]

    before = results()
    off = PSI_IN_C["psi2"] + MultiPoly.monomial(C_VARS, (2, 0))
    monkeypatch.setattr(orthogonality, "PSI_IN_C", {**PSI_IN_C, "psi2": off})
    try:
        after = results()
    finally:
        _clear_module_caches()
    assert all(r["status"] != "FAIL" for r in before)
    assert exact(after) == exact(before)
    quadrature = [(r["identity"].split(") ", 1)[1], r["status"])
                  for r in after if r not in exact(after)]
    assert quadrature == [("d=(0,0) d'=(0,0)", "PASS")] + [
        (f"d={d} d'={dp}", "FAIL") for d, dp in (
            ("(0,0)", "(0,1)"), ("(0,0)", "(1,0)"), ("(0,1)", "(0,1)"),
            ("(0,1)", "(1,0)"), ("(1,0)", "(1,0)"))]


def test_quadrature_pull_back_from_psi_equals_the_route_through_x():
    # the old route, R_d in x pulled back through the cover, kept as a
    # reference: the quadrature's pull-back from psi is the same polynomial,
    # so every float it makes keeps its bits
    for p in (PairParams(m, a, b) for m in (3, 4, 5) for a in range(4)
              for b in range(3)):
        for d in lie.degree_pairs(2):
            via_psi = poly_matrix_psi(p, d).substitute(PSI_IN_C, C_VARS)
            assert via_psi == poly_matrix_x(p, d).substitute(X_IN_C, C_VARS), \
                (p, d)
            assert orthogonality._factor_c(p, d)[0] == via_psi, (p, d)
        lie.drop_point_caches()


def test_a_perturbed_x_family_fails_every_quadrature_line(monkeypatch):
    # the exact Gram reads the x family, the quadrature the psi family: with
    # x1^|d|/1000 added to every entry of every R_d in x, the two disagree
    # on every pair, the constant (0,0), (0,0) one included
    real = orthogonality.poly_matrix_x

    def perturbed(params, d):
        bump = F(1, 1000) * MultiPoly.monomial(X_VARS, (sum(d), 0))
        return real(params, d).map_entries(lambda e: e + bump)

    _clear_module_caches()
    monkeypatch.setattr(orthogonality, "poly_matrix_x", perturbed)
    try:
        lines = numeric_suite(PairParams(3, 1, 0), 1)
    finally:
        _clear_module_caches()
    assert len(lines) == 6
    assert all(r.status == "FAIL" for r in lines), [
        (r.name, r.status) for r in lines]


def test_total_mass_reported_with_reciprocal():
    r = total_mass_check(3)
    assert r.status == "REPORTED"
    assert "4/9" in r.detail


def test_in_region_corners_and_samples():
    assert in_region(F(2), F(1))
    assert in_region(F(-2), F(1))
    assert in_region(F(0), F(-1))
    assert in_region(F(0), F(0))
    assert in_region(F(1), F(0))
    assert not in_region(F(0), F(1))
    assert not in_region(F(-2), F(-1))
    assert not in_region(F(3), F(1))


def test_gram_diagonal_and_kappa_small_case():
    p = PairParams(3, 1, 0)
    G = gram(p, (0, 0), (0, 0))
    assert G[0][1] == 0 and G[1][0] == 0
    assert G[0][0] == F(32, 45)
    assert G[1][1] == F(32, 405)
    for k in range(2):
        dim = weyl_dim(label_weight(p, MsfLabel(k, 0, 0)))
        assert G[k][k] * dim == F(32, 9)


def test_gram_off_pair_vanishes():
    p = PairParams(3, 1, 0)
    G = gram(p, (0, 0), (1, 0))
    assert all(v == 0 for row in G for v in row)


def test_orthogonality_suite_statuses():
    results = orthogonality_suite(PairParams(3, 1, 0), 2)
    by_status = {}
    for r in results:
        by_status.setdefault(r.status, []).append(r.name)
    assert "FAIL" not in by_status, by_status.get("FAIL")
    # exactly one reported item: the stored norm-constant closed form
    assert len(by_status.get("REPORTED", [])) == 1


def test_orthogonality_suite_builds_one_table_per_degree():
    _clear_module_caches()
    orthogonality_suite(PairParams(3, 1, 0), 3)
    # ten degrees at dmax 3: each table serves every pair it is the higher
    # factor of, and is built once
    assert orthogonality._weighted_moments.cache_info().misses == 10


def test_no_comparison_line_without_anything_to_compare():
    def names(a, dmax):
        return " ".join(r.name for r in orthogonality_suite(PairParams(3, a, 0), dmax))
    # dmax 0 has no pair of distinct degrees; at a = 0 it has one norm value
    assert "orthogonality of distinct degrees" not in names(0, 0)
    assert "norm constant independence" not in names(0, 0)
    assert "orthogonality of distinct degrees" not in names(1, 0)
    assert "norm constant independence" in names(1, 0)
    assert "orthogonality of distinct degrees" in names(0, 1)
    assert "norm constant independence" in names(0, 1)


def test_positivity():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 1, 2)):
        assert positivity_verdict(params.a, params.b).status == "PASS"


def test_indecomposability_dimensions():
    assert indecomposability_check(1, 0) == (1, 1)
    assert indecomposability_check(2, 1) == (1, 1)
    assert indecomposability_check(2, 0) == (1, 1)
    results = indecomposability_suite(PairParams(3, 1, 0), {})
    assert all(r.status == "PASS" for r in results)


def test_split_weight_fails_indecomposability(monkeypatch):
    # diag(c1^2, c2^2) splits into two 1x1 blocks: the commutant and the
    # symmetric real solutions are the diagonal matrices (2 each), and the
    # antisymmetric equation Y S = -S Y^T has only Y = 0
    split = PolyMatrix.from_rows(
        [[MultiPoly.monomial(C_VARS, (2, 0)), MultiPoly.zero(C_VARS)],
         [MultiPoly.zero(C_VARS), MultiPoly.monomial(C_VARS, (0, 2))]])
    true_weight = orthogonality.weight_matrix_c
    monkeypatch.setattr(orthogonality, "weight_matrix_c", lambda a, b:
                        split if (a, b) == (1, 0) else true_weight(a, b))
    assert indecomposability_check(1, 0) == (2, 2)
    [result] = indecomposability_suite(PairParams(3, 1, 0), {})
    assert result.status == "FAIL"
    assert "dimensions (2, 2), expected (1, 1)" in result.detail
    assert indecomposability_check(2, 1) == (1, 1)


def test_numeric_crosscheck_diag_and_offdiag():
    p = PairParams(3, 1, 0)
    assert numeric_crosscheck(p, (0, 0), (0, 0)).status == "PASS"
    assert numeric_crosscheck(p, (1, 0), (0, 0)).status == "PASS"
    assert numeric_crosscheck(p, (1, 0), (1, 0)).status == "PASS"


def test_numeric_suite_green():
    results = numeric_suite(PairParams(3, 1, 1), 1)
    assert all(r.status == "PASS" for r in results)


def test_region_grid_shape():
    rows = region_grid(weight_matrix_x(1, 0))
    assert len(rows) == 1000
    x1, x2, vals, inside = rows[0]
    assert (x1, x2) == (F(-2), F(-1))
    assert len(vals) == 4
    assert inside in (True, False)
    assert any(r[3] for r in rows)
    assert not all(r[3] for r in rows)


@pytest.mark.parametrize("m, a, b", [(8, 6, 3), (3, 6, 0)])
def test_indecomposability_at_the_wide_grid_corners(m, a, b):
    # the weight reads (a, b) alone; m only names the corner of the grid
    assert indecomposability_check(a, b) == (1, 1)


def test_numeric_suite_mesh_values_are_read_only_and_dropped(monkeypatch):
    made = {}

    def spy(real):
        def wrapper(*args):
            out = real(*args)
            arrays = (out if real is node_mesh
                      else [v for row in out for v in row])
            if any(v.flags.writeable for v in arrays):
                pytest.fail(f"{real.__name__} returned a writeable array")
            made.setdefault((real.__name__, args), {}).update(
                {id(v): weakref.ref(v) for v in arrays})
            return out
        return wrapper

    node_mesh, mesh_values = orthogonality._node_mesh, orthogonality._mesh_values
    monkeypatch.setattr(orthogonality, "_node_mesh", spy(node_mesh))
    monkeypatch.setattr(orthogonality, "_mesh_values", spy(mesh_values))
    lie.drop_point_caches()
    results = numeric_suite(PairParams(3, 1, 1), 1)
    assert all(r.status == "PASS" for r in results)
    # one mesh and one evaluation per factor (three R_d and S) at the point;
    # every lookup of each gives the same arrays: the mesh's two, or a 2 x 2
    # factor's four
    assert sorted(name for name, _ in made) == ["_mesh_values"] * 4 + ["_node_mesh"]
    assert {name: len(arrays) for (name, _), arrays in made.items()} == \
        {"_mesh_values": 4, "_node_mesh": 2}
    refs = [ref for arrays in made.values() for ref in arrays.values()]
    # the point's caches hold them until the point is dropped
    gc.collect()
    assert all(ref() is not None for ref in refs)
    lie.drop_point_caches()
    gc.collect()
    assert not any(ref() is not None for ref in refs)


def test_float_terms_are_the_correctly_rounded_coefficients():
    # 2^60 + 19 and 3^40 are both above 2^53: rounding each to a float
    # before dividing gives a different last bit than rounding the quotient
    c = F(2 ** 60 + 19, 3 ** 40)
    if float(c.numerator) / float(c.denominator) == float(c):
        pytest.fail("the example no longer separates the two roundings")
    p = MultiPoly(X_VARS, {(1, 0): c, (0, 2): F(-1, 3), (0, 0): F(2)})
    got = orthogonality._float_terms(p)
    want = [(0, 2, float(F(-1, 3))), (1, 0, float(c)), (0, 0, 2.0)]
    if got != want:
        pytest.fail(f"_float_terms {got}, want {want}")
