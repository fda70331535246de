"""Weights, labels, dimensions, and Casimir eigenvalues."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bc2mvop.lie import (DualData, MsfLabel, PairParams, Weight, bottom_weight,
                         casimir_eigenvalue, casimir_eigenvalue_ip, degree_pairs,
                         dominance_leq, dualize, fundamental, label_weight,
                         labels_up_to, root_coordinates, spherical_lambda1,
                         spherical_lambda2, weyl_dim, zero_weight)
from bc2mvop.matrices import solve_linear


def test_params_validation():
    PairParams(3, 1, 0)
    PairParams(3, 1, -1)   # b = -a, the far regime
    PairParams(4, 2, -5)
    with pytest.raises(ValueError):
        PairParams(3, 2, -1)   # strictly between -a and 0
    with pytest.raises(ValueError):
        PairParams(3, 3, -2)


def test_params_regime_message_names_the_gap():
    with pytest.raises(ValueError, match="-a < b < 0"):
        PairParams(3, 2, -1)


def test_params_helpers():
    p = PairParams(3, 2, 1)
    assert p.size == 3
    assert p.tag() == "(m=3,a=2,b=1)"
    assert hash(p) == hash(PairParams(3, 2, 1))


def test_weyl_dim_small_cases():
    # SU(5): defining rep and adjoint
    assert weyl_dim(fundamental(3, 1)) == 5
    assert weyl_dim(spherical_lambda1(3)) == 24
    assert weyl_dim(zero_weight(3)) == 1


def test_spherical_eigenvalues():
    for m in (3, 4, 5):
        assert casimir_eigenvalue_ip(spherical_lambda1(m)) == 2 * m + 4
        assert casimir_eigenvalue_ip(spherical_lambda2(m)) == 4 * m + 4


def test_dominance_order():
    m = 3
    assert dominance_leq(zero_weight(m), spherical_lambda1(m))
    assert not dominance_leq(spherical_lambda1(m), zero_weight(m))
    # fundamental weights differ by a non-integral root combination
    coords = root_coordinates(fundamental(m, 2) - fundamental(m, 1))
    assert any(x.denominator != 1 for x in coords)
    assert not dominance_leq(fundamental(m, 1), fundamental(m, 2))


def test_closed_form_matches_inner_product_route():
    for params in (PairParams(3, 1, 0), PairParams(3, 2, 1), PairParams(4, 3, 2)):
        for label in labels_up_to(params, 2):
            got = casimir_eigenvalue(params, label)
            want = casimir_eigenvalue_ip(label_weight(params, label))
            assert got == want, (params, label)


def test_closed_form_refuses_far_regime():
    with pytest.raises(ValueError):
        casimir_eigenvalue(PairParams(3, 1, -1), MsfLabel(0, 0, 0))


def test_eigenvalue_ip_works_in_far_regime():
    p = PairParams(3, 1, -1)
    val = casimir_eigenvalue_ip(label_weight(p, MsfLabel(0, 0, 0)))
    assert val >= 0


def test_degree_pairs_order():
    assert degree_pairs(0) == [(0, 0)]
    assert degree_pairs(2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    p = PairParams(3, 1, 0)
    assert labels_up_to(p, 2) == [MsfLabel(i, d1, d2) for i in range(2)
                                  for d1, d2 in degree_pairs(2)]


def test_label_enumeration_count():
    p = PairParams(3, 1, 0)
    labels = labels_up_to(p, 1)
    # two bottom indices, three degree pairs with d1+d2 <= 1
    assert len(labels) == 6
    assert len(set(labels)) == 6
    assert MsfLabel(1, 0, 1) in labels


def test_zero_label_zero_weight():
    p = PairParams(3, 0, 0)
    w = label_weight(p, MsfLabel(0, 0, 0))
    assert w.is_zero()
    assert weyl_dim(w) == 1
    assert casimir_eigenvalue_ip(w) == 0


def test_bottom_weights_are_dominant():
    for params in (PairParams(3, 2, 0), PairParams(4, 3, 1), PairParams(3, 2, -2)):
        for i in range(params.a + 1):
            assert bottom_weight(params, i).is_dominant()


def test_dualize_involution():
    p = PairParams(3, 1, 0)
    q, data = dualize(p)
    assert q == PairParams(3, 1, -1)
    assert isinstance(data, DualData)
    back, _ = dualize(q)
    assert back == p


def test_dual_index_reversal():
    p = PairParams(3, 2, 1)
    _, data = dualize(p)
    assert [data.index(i) for i in range(3)] == [2, 1, 0]


def test_dual_weights_are_diagram_flips():
    p = PairParams(3, 2, 1)
    q, data = dualize(p)
    for i in range(p.a + 1):
        w = bottom_weight(p, i)
        wd = bottom_weight(q, data.index(i))
        assert wd == w.dual()
        assert weyl_dim(wd) == weyl_dim(w)


def test_weight_arithmetic():
    w = fundamental(3, 1) + 2 * fundamental(3, 2)
    assert w.omega == (1, 2, 0, 0)
    assert (w - w).is_zero()
    assert (-w).omega == (-1, -2, 0, 0)


def test_non_integral_weight_coordinates_are_refused():
    # truncating would turn (0.9, 0, 0, 0) into the zero weight
    with pytest.raises(ValueError, match="non-integral"):
        Weight((0.9, 0, 0, 0))
    with pytest.raises(ValueError, match="non-integral"):
        Weight((F(1, 2), 0, 0, 0))
    with pytest.raises(ValueError, match="non-integral"):
        fundamental(3, 1) * F(1, 2)


def test_non_integral_parameters_are_refused():
    # truncating would tag (m=3.5,a=1,b=0) and cache it beside (3, 1, 0)
    for args in ((3.5, 1, 0), (3, F(1, 2), 0), (3, 1, 0.0)):
        with pytest.raises(ValueError, match="non-integral"):
            PairParams(*args)
    assert PairParams(3, 1, 0).tag() == "(m=3,a=1,b=0)"


# ---- properties of the simple-root coordinates, on random weights ----

def _simple_roots(m):
    """alpha_k = 2 omega_k - omega_{k-1} - omega_{k+1}, for k = 1..m+1."""
    return [fundamental(m, k) * 2 - fundamental(m, k - 1) - fundamental(m, k + 1)
            for k in range(1, m + 2)]


@st.composite
def _weights(draw, m=None):
    if m is None:
        m = draw(st.integers(3, 7))
    return Weight(tuple(draw(st.lists(st.integers(-6, 6),
                                      min_size=m + 1, max_size=m + 1))))


@given(_weights())
def test_root_coordinates_solve_the_cartan_system(w):
    # the reference route: eliminate over the Cartan matrix, one column per
    # simple root
    roots = _simple_roots(w.m)
    n = w.m + 1
    A = [[F(roots[j].omega[i]) for j in range(n)] for i in range(n)]
    assert root_coordinates(w) == solve_linear(A, [F(x) for x in w.omega])


@given(_weights())
def test_root_coordinates_rebuild_the_weight(w):
    coords = root_coordinates(w)
    rebuilt = [sum(c * alpha.omega[i] for c, alpha in zip(coords, _simple_roots(w.m)))
               for i in range(w.m + 1)]
    assert rebuilt == list(w.omega)


@given(st.integers(3, 7).flatmap(lambda m: st.tuples(
    _weights(m), st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1))))
def test_dominance_is_reflexive_and_antisymmetric(case):
    w, steps = case
    above = w
    for n, alpha in zip(steps, _simple_roots(w.m)):
        above = above + alpha * n
    assert dominance_leq(w, w)
    assert dominance_leq(w, above)
    assert dominance_leq(above, w) == (above == w) == (not any(steps))
    # omega_1 has positive root coordinates, all non-integral
    assert not dominance_leq(w, above + fundamental(w.m, 1))


@given(st.integers(3, 7).flatmap(lambda m: st.tuples(
    _weights(m), st.lists(st.integers(-1, 3), min_size=m + 1, max_size=m + 1),
    st.integers(0, m + 1))))
def test_dominance_reads_the_root_coordinates(case):
    # w2 - w1 is an integer combination of simple roots, with negative
    # steps drawn too, plus omega_j (j = 0 adds nothing), which makes some
    # coordinates non-integral
    w1, steps, j = case
    w2 = w1 + fundamental(w1.m, j)
    for n, alpha in zip(steps, _simple_roots(w1.m)):
        w2 = w2 + alpha * n
    coords = root_coordinates(w2 - w1)
    assert dominance_leq(w1, w2) == all(c.denominator == 1 and c >= 0
                                        for c in coords)


@given(_weights(), _weights())
def test_weights_of_different_rank_are_refused(w1, w2):
    if w1.m == w2.m:
        w2 = Weight(w2.omega + (0,))
    with pytest.raises(ValueError, match="different ranks"):
        dominance_leq(w1, w2)
    with pytest.raises(ValueError, match="different ranks"):
        dominance_leq(w2, w1)
