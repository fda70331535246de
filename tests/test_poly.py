"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction as F

import pytest

from bc2mvop.poly import MultiPoly, VariableMismatch, symmetric_reduce

CV = ("c1", "c2")


def c_vars():
    return MultiPoly.var(CV, "c1"), MultiPoly.var(CV, "c2")


def test_binomial_square():
    c1, c2 = c_vars()
    assert (c1 + c2) ** 2 == c1 * c1 + 2 * c1 * c2 + c2 * c2


def test_scalar_coercion_both_sides():
    c1, _ = c_vars()
    assert 2 * c1 == c1 * 2
    assert F(1, 2) * c1 + c1 * F(1, 2) == c1
    assert (c1 + 1) - 1 == c1
    assert (c1 * 6) / 3 == 2 * c1


def test_zero_and_constant_predicates():
    c1, _ = c_vars()
    assert (c1 - c1).is_zero
    assert MultiPoly.const(CV, 5).is_constant()
    assert MultiPoly.const(CV, 5).constant_value() == 5
    assert not c1.is_constant()


def test_total_degree_and_leading():
    c1, c2 = c_vars()
    p = c1 ** 3 + c2 ** 2
    assert p.total_degree() == 3
    exp, coeff = p.leading()
    assert exp == (3, 0) and coeff == 1


def test_coefficient_lookup():
    c1, c2 = c_vars()
    p = 3 * c1 * c1 * c2 - F(1, 2) * c2
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((0, 1)) == F(-1, 2)
    assert p.coefficient((5, 5)) == 0


def test_derive():
    c1, c2 = c_vars()
    p = c1 ** 2 * c2 + c2 ** 3
    assert p.derive("c1") == 2 * c1 * c2
    assert p.derive("c2") == c1 ** 2 + 3 * c2 ** 2


def test_evaluate_needs_all_vars():
    c1, c2 = c_vars()
    p = c1 * c2 + 1
    assert p.evaluate({"c1": F(2), "c2": F(1, 2)}) == 2
    with pytest.raises(VariableMismatch):
        p.evaluate({"c1": F(1)})


def test_substitute_composition():
    c1, c2 = c_vars()
    pv = ("psi1", "psi2")
    images = {"psi1": c1 * c1 + c2 * c2, "psi2": c1 * c1 * c2 * c2}
    p1 = MultiPoly.var(pv, "psi1")
    p2 = MultiPoly.var(pv, "psi2")
    q = (p1 ** 2 - 4 * p2).substitute(images, CV)
    assert q == (c1 * c1 - c2 * c2) ** 2


def test_divide_exact():
    c1, c2 = c_vars()
    assert (c1 * c1 - c2 * c2).divide_exact(c1 - c2) == c1 + c2
    assert (c1 * c1 + c2).divide_exact(c1 - c2) is None


def test_symmetric_reduce_elementary():
    c1, c2 = c_vars()
    ev = ("e1", "e2")
    e1 = MultiPoly.var(ev, "e1")
    e2 = MultiPoly.var(ev, "e2")
    assert symmetric_reduce(c1 * c1 + c2 * c2, ev) == e1
    assert symmetric_reduce(c1 * c1 * c2 * c2, ev) == e2
    # power sum of the squares
    assert symmetric_reduce(c1 ** 4 + c2 ** 4, ev) == e1 * e1 - 2 * e2


def test_json_round_trip_is_canonical():
    c1, c2 = c_vars()
    p = F(7, 3) * c1 ** 2 * c2 - c2 ** 5 + 1
    data = p.to_json()
    assert MultiPoly.from_json(data) == p
    # serialized twice gives identical structures
    assert p.to_json() == data
