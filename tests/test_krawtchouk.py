"""Krawtchouk polynomial values and their four exact identities."""

from fractions import Fraction as F

import pytest

from bc2mvop.krawtchouk import (determinant_check, generating_function_sweep,
                                krawtchouk, krawtchouk_suite, orthogonality_check,
                                poch, point_weight, self_duality_check,
                                squared_norm, standard_suite)


def test_poch():
    assert poch(F(3), 0) == 1
    assert poch(F(3), 2) == 12
    assert poch(F(-2), 3) == 0
    assert poch(F(-1, 2), 2) == F(-1, 4)


def test_values_by_hand():
    # the three-term sum at n=2, x=1, p=1/2: 1 + (-2)(-1)/(1*(-2)) * 2 = -1
    assert krawtchouk(2, 1, 2, F(1, 2)) == -1
    assert krawtchouk(0, 3, 5, F(1, 3)) == 1
    assert krawtchouk(1, 1, 1, F(1, 2)) == -1
    assert krawtchouk(1, 0, 4, F(1, 4)) == 1


def test_point_weight_and_norm_by_hand():
    assert point_weight(0, 1, F(1, 3)) == F(2, 3)
    assert point_weight(1, 1, F(1, 3)) == F(1, 3)
    # h(1) at N=1, p=1/3: (1/1) * ((2/3)/(1/3)) = 2
    assert squared_norm(1, 1, F(1, 3)) == 2


def test_out_of_range_raises():
    with pytest.raises(ValueError):
        krawtchouk(3, 0, 2, F(1, 2))
    with pytest.raises(ValueError):
        krawtchouk(0, -1, 2, F(1, 2))
    with pytest.raises(ZeroDivisionError):
        krawtchouk(1, 1, 2, F(0))


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("p", [F(1, 2), F(1, 4), F(2, 3)])
def test_identity_checks_pass(N, p):
    assert orthogonality_check(N, p).status == "PASS"
    assert self_duality_check(N, p).status == "PASS"
    assert generating_function_sweep(N, p).status == "PASS"
    assert determinant_check(N, p, F(2, 3), F(3, 5)).status == "PASS"


def test_determinant_value_by_hand():
    # N=1, p=1/2, s=t=1: M = [[1,1],[1,-1]], det = -2, det^2 = 4
    r = determinant_check(1, F(1, 2), F(1), F(1))
    assert r.status == "PASS"
    assert "det^2 = 4" in r.detail


def test_suite_shapes():
    results = krawtchouk_suite(3, F(1, 2))
    assert len(results) == 4
    assert all(r.status == "PASS" for r in results)
    sweep = standard_suite(2, (F(1, 2),))
    # three sizes, four identities each
    assert len(sweep) == 12
    assert all(r.status == "PASS" for r in sweep)
