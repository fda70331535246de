"""Krawtchouk polynomial values and their four exact identities."""

from fractions import Fraction as F

import pytest

import bc2mvop.krawtchouk as krawtchouk_module
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


def test_generating_function_fails_at_the_first_broken_point(monkeypatch):
    # K_1(2) one too large breaks the identity at x = 2 only, by C(2,1) t
    real = krawtchouk
    monkeypatch.setattr(krawtchouk_module, "krawtchouk", lambda n, x, N, p:
                        real(n, x, N, p) + ((n, x) == (1, 2)))
    r = generating_function_sweep(2, F(1, 2))
    assert (r.name, r.status, r.detail) == (
        "krawtchouk generating function N=2 p=1/2", "FAIL", "x=2: difference 2*t")


def test_determinant_value_by_hand():
    # N=1, p=1/2, s=t=1: M = [[1,1],[1,-1]], det = -2, det^2 = 4
    r = determinant_check(1, F(1, 2), F(1), F(1))
    assert r.status == "PASS"
    assert "det^2 = 4" in r.detail


def test_suite_shapes():
    results = krawtchouk_suite(3, F(1, 2))
    assert len(results) == 4
    assert all(r.status == "PASS" for r in results)
    sweep = standard_suite()
    # seven sizes N = 0..6 times four parameters, four identities each
    assert len(sweep) == 112
    assert all(r.status == "PASS" for r in sweep)


def _hypergeometric_sum(n, x, N, p):
    """Reference K_n(x; p, N): the 2F1 sum term by term in Fractions."""
    total = F(0)
    for k in range(min(n, x) + 1):
        term = F(1)
        for j in range(k):
            term = term * F((j - n) * (j - x), (j + 1) * (j - N))
        total += term / F(p) ** k
    return total


# negative (1/(1 - t^2) at t = 2, 3, as the leading-term route uses it,
# and two more), inside (0, 1), and above 1
_PARAMETERS = [F(-1, 3), F(-1, 8), F(-7, 2), F(-5), F(1, 4), F(2, 3),
               F(5, 7), F(3, 2), F(9, 4), F(7)]


@pytest.mark.parametrize("p", _PARAMETERS)
def test_krawtchouk_matches_the_hypergeometric_sum(p):
    for N in range(11):
        for n in range(N + 1):
            for x in range(N + 1):
                got, want = krawtchouk(n, x, N, p), _hypergeometric_sum(n, x, N, p)
                if got != want:
                    pytest.fail(f"K_{n}({x}; {p}, {N}) = {got}, sum gives {want}")
