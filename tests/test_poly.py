"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from bc2mvop.leading import (C_VARS, PSI1, PSI2, PSI_IN_C, PSI_IN_X, PSI_VARS,
                             X_VARS)
from bc2mvop.poly import (MultiPoly, VariableMismatch, integer_view,
                          linear_combination, substitute_all, symmetric_reduce)

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
    # the leading term comes first in the canonical order
    assert p.sorted_terms()[0] == ((3, 0), 1)


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
    # a variable with no image is refused, even where out_vars has its name
    out = ("c1", "psi2")
    with pytest.raises(VariableMismatch, match="no image for 'psi2'"):
        (p1 + p2).substitute({"psi1": MultiPoly.var(out, "c1")}, out)


def test_symmetric_reduce_elementary():
    c1, c2 = c_vars()
    ev = ("e1", "e2")
    e1 = MultiPoly.var(ev, "e1")
    e2 = MultiPoly.var(ev, "e2")
    assert symmetric_reduce(c1 * c1 + c2 * c2, ev) == e1
    assert symmetric_reduce(c1 * c1 * c2 * c2, ev) == e2
    # power sum of the squares
    assert symmetric_reduce(c1 ** 4 + c2 ** 4, ev) == e1 * e1 - 2 * e2


def test_symmetric_reduce_refuses_what_is_not_a_function_of_psi():
    c1, c2 = c_vars()
    with pytest.raises(ValueError, match="odd exponent pair"):
        symmetric_reduce(c1 * c1 * c2, PSI_VARS)
    with pytest.raises(ValueError, match="not swap-symmetric"):
        symmetric_reduce(c1 ** 4 + 2 * c2 ** 4, PSI_VARS)
    with pytest.raises(VariableMismatch, match="2-variable"):
        symmetric_reduce(MultiPoly.one(("c1", "c2", "c3")), PSI_VARS)


def test_a_repeated_variable_name_is_refused():
    # x twice would make var x the product x*x, and d/dx of it x, not 1
    xx = ("x", "x")
    for build in (lambda: MultiPoly.var(xx, "x"), lambda: MultiPoly.const(xx, 3),
                  lambda: MultiPoly.one(xx), lambda: MultiPoly.zero(xx),
                  lambda: MultiPoly(("y", "x", "y"), {(1, 0, 0): 1})):
        with pytest.raises(VariableMismatch, match="repeated"):
            build()


def test_json_round_trip_is_canonical():
    c1, c2 = c_vars()
    p = F(7, 3) * c1 ** 2 * c2 - c2 ** 5 + 1
    data = p.to_json()
    assert MultiPoly.from_json(data) == p
    # serialized twice gives identical structures
    assert p.to_json() == data


def test_non_integral_exponents_are_refused():
    # truncating 1.5 to 1 would merge the two terms into 5*x1
    data = {"vars": ["x1", "x2"],
            "terms": [{"exp": [1.5, 0], "coeff": "2/1"},
                      {"exp": [1, 0], "coeff": "3/1"}]}
    with pytest.raises(ValueError, match="non-integral"):
        MultiPoly.from_json(data)
    with pytest.raises(ValueError, match="non-integral"):
        MultiPoly(CV, {(F(1, 2), 0): 1})
    with pytest.raises(ValueError, match="non-integral"):
        MultiPoly(CV, {(0.5, 0): 1})


def test_constant_hashes_like_its_number():
    for c in (0, 3, F(1, 2)):
        p = MultiPoly.const(CV, c)
        assert p == c
        assert hash(p) == hash(c)
        assert c in {p}
        assert p in {c}


# ---- properties on small random polynomials ----

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _polys(vars=CV, coeffs=_coeffs):
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           coeffs, max_size=4).map(lambda t: MultiPoly(vars, t))


@given(_polys(), _polys(), _polys())
def test_ring_laws(p, q, r):
    zero, one = MultiPoly.zero(CV), MultiPoly.one(CV)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p - p).is_zero and (p * zero).is_zero


# denominators up to 12: the images of c1 and c2 lie over different ones
_wide_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_UNEQUAL_IMAGES = {
    "c1": MultiPoly(PSI_VARS, {(1, 0): F(1, 2), (0, 0): F(1, 3)}),
    "c2": MultiPoly(PSI_VARS, {(0, 2): F(2, 5), (1, 1): F(-1, 7)})}


@given(_polys(coeffs=_wide_coeffs), _polys(), st.fixed_dictionaries(
    {"c1": _polys(PSI_VARS, _wide_coeffs), "c2": _polys(PSI_VARS, _wide_coeffs)}),
    _coeffs)
@example(MultiPoly(CV, {(2, 1): F(3, 4), (0, 2): F(-5, 6), (0, 0): F(1, 9)}),
         MultiPoly(CV, {(1, 0): F(2, 3), (0, 1): F(1, 2)}), _UNEQUAL_IMAGES,
         F(-7, 2))
def test_substitute_is_a_ring_homomorphism(p, q, images, c):
    def sub(f):
        return f.substitute(images, PSI_VARS)
    assert sub(p + q) == sub(p) + sub(q)
    assert sub(p * q) == sub(p) * sub(q)
    assert sub(MultiPoly.const(CV, c)) == MultiPoly.const(PSI_VARS, c)
    # and it is the composition: evaluating agrees with evaluating the images
    point = {"psi1": F(2, 3), "psi2": F(-3, 5)}
    at_images = {v: img.evaluate(point) for v, img in images.items()}
    assert sub(p).evaluate(point) == p.evaluate(at_images)


@given(_polys(coeffs=_wide_coeffs), _polys(), st.fixed_dictionaries(
    {"c1": _polys(PSI_VARS, _wide_coeffs), "c2": _polys(PSI_VARS, _wide_coeffs)}))
def test_substitute_all_matches_one_substitution_each(p, q, images):
    # the shared powers and monomial images change no result
    polys = [p, q, p * q, p]
    assert substitute_all(polys, images, PSI_VARS) == [
        f.substitute(images, PSI_VARS) for f in polys]


@given(_polys(coeffs=_wide_coeffs))
@example(MultiPoly(CV, {(5, 0): F(2, 3), (3, 1): F(-1, 5), (2, 2): 1, (0, 0): 7}))
def test_symmetric_reduce_inverts_psi_in_c(q):
    # p = q(c1^2, c2^2) + q(c2^2, c1^2) is even and swap-symmetric
    c1, c2 = c_vars()
    p = (q.substitute({"c1": c1 * c1, "c2": c2 * c2}, C_VARS)
         + q.substitute({"c1": c2 * c2, "c2": c1 * c1}, C_VARS))
    assert symmetric_reduce(p, PSI_VARS).substitute(PSI_IN_C, C_VARS) == p


@given(st.lists(st.tuples(st.one_of(st.integers(-4, 4), _wide_coeffs),
                          _polys(coeffs=_wide_coeffs)), min_size=1, max_size=5))
def test_linear_combination_matches_sums_of_products(terms):
    want = MultiPoly.zero(CV)
    for c, p in terms:
        want = want + c * p
    got = linear_combination(terms)
    assert got == want
    assert got.den >= 1 and gcd(got.den, *got.nums.values()) == 1
    assert all(got.nums.values())


def test_linear_combination_refuses_mixed_variables():
    with pytest.raises(VariableMismatch):
        linear_combination([(1, MultiPoly.one(CV)), (F(1, 2), MultiPoly.one(PSI_VARS))])


@given(_polys(PSI_VARS))
def test_psi_to_x_and_back_is_the_identity(p):
    # x in terms of psi, stated here as the inverse of the program's PSI_IN_X
    x_in_psi = {"x1": 2 * PSI1 - 2, "x2": 4 * PSI2 - 2 * PSI1 + 1}
    assert p.substitute(PSI_IN_X, X_VARS).substitute(x_in_psi, PSI_VARS) == p


@given(_polys())
def test_json_round_trip(p):
    assert MultiPoly.from_json(p.to_json()) == p


@given(_polys(), _polys(), st.one_of(st.integers(-3, 3), _coeffs))
def test_equal_values_hash_equal(p, q, c):
    for a, b in ((p, (p + q) - q), (p, MultiPoly.from_json(p.to_json())),
                 (MultiPoly.const(CV, c), c), (p, c)):
        if a == b:
            assert hash(a) == hash(b)


# ---- every arithmetic result is a valid polynomial ----

def _kernel_violations(p):
    """Ways in which p breaks the stored form: nonzero int numerators over
    an int denominator >= 1 in lowest terms, with `terms` its Fraction view,
    as the validating public constructor builds it from its own terms.
    Explicit checks, not assert statements, so they run under python -O as
    well."""
    out = []
    if type(p.den) is not int or p.den < 1:
        out.append(f"denominator {p.den!r} is not an int >= 1")
    elif gcd(p.den, *p.nums.values()) != 1:
        out.append(f"not in lowest terms: gcd {gcd(p.den, *p.nums.values())}")
    if p.terms != {e: F(c, p.den) for e, c in p.nums.items()}:
        out.append("terms differ from {e: Fraction(num, den)}")
    rebuilt = MultiPoly(p.vars, p.terms)
    if (rebuilt.den, rebuilt.nums) != (p.den, p.nums):
        out.append("stored form differs from MultiPoly(p.vars, p.terms)")
    for exp, c in p.nums.items():
        if type(c) is not int:
            out.append(f"numerator {c!r} at {exp} is not an int")
        elif not c:
            out.append(f"zero numerator at {exp}")
        if (type(exp) is not tuple or len(exp) != len(p.vars)
                or any(type(k) is not int or k < 0 for k in exp)):
            out.append(f"exponent {exp!r} is not a tuple of {len(p.vars)} "
                       f"non-negative ints")
    return out


def _require_valid(results):
    for name, r in results.items():
        problems = _kernel_violations(r)
        if problems:
            pytest.fail(f"{name}: {problems}")


def test_cancellation_leaves_no_zero_coefficient():
    c1, c2 = c_vars()
    _require_valid({
        "c1 + c2 - c2": c1 + c2 - c2,
        "(c1 + c2) * (c1 - c2)": (c1 + c2) * (c1 - c2),
        "(c1 + 1) * 0": (c1 + 1) * 0,
        "-(c1 - c1)": -(c1 - c1),
    })


@given(_polys(), _polys(), _coeffs, st.integers(-3, 3), st.integers(0, 3),
       st.fixed_dictionaries({"c1": _polys(PSI_VARS), "c2": _polys(PSI_VARS)}))
def test_arithmetic_results_are_valid_polynomials(p, q, c, k, n, images):
    results = {
        "p + q": p + q, "p - q": p - q, "p + k": p + k, "k - p": k - p,
        "p + (-p)": p + (-p), "-p": -p,
        "p * q": p * q, "(p + q) * (p - q)": (p + q) * (p - q),
        "c * p": c * p, "p * k": p * k, "p ** n": p ** n,
        "d/dc1 p": p.derive("c1"), "d/dc2 p": p.derive("c2"),
        "p(images)": p.substitute(images, PSI_VARS),
    }
    if c:
        results["p / c"] = p / c
    _require_valid(results)


def test_public_constructor_stores_lowest_terms():
    p = MultiPoly(CV, {(1, 0): F(1, 6), (0, 1): F(-3, 4), (0, 0): 0})
    if (p.den, p.nums) != (12, {(1, 0): 2, (0, 1): -9}):
        pytest.fail(f"stored {p.den}, {p.nums}")
    _require_valid({"p": p, "zero": MultiPoly.zero(CV), "2 p": 2 * p,
                    "p + p / 3": p + p / 3, "6 p - 6 p": 6 * p - 6 * p})


# ---- no operation changes its operands ----

def _snapshot(p):
    return p.vars, p.den, dict(p.nums), hash(p)


@given(_polys(coeffs=_wide_coeffs), _polys(coeffs=_wide_coeffs), _coeffs,
       st.integers(0, 3),
       st.fixed_dictionaries({"c1": _polys(PSI_VARS, _wide_coeffs),
                              "c2": _polys(PSI_VARS, _wide_coeffs)}))
@example(MultiPoly(CV, {(2, 1): F(3, 4), (1, 1): F(1, 6)}),
         MultiPoly(CV, {(1, 0): F(2, 3), (0, 1): F(1, 2)}), F(-7, 2), 2,
         _UNEQUAL_IMAGES)
def test_operations_leave_their_operands_unchanged(p, q, c, n, images):
    operands = [p, q, *images.values()]
    before = [_snapshot(x) for x in operands]
    results = [p + q, p - q, -p, p * q, c * p, p ** n, p.derive("c1"),
               p.substitute(images, PSI_VARS), integer_view([p, q]),
               p.evaluate({"c1": F(1, 3), "c2": F(-2)})]
    _, views = results[8]
    for view in views:            # the view is the caller's to edit
        view.clear()
    after = [_snapshot(x) for x in operands]
    if after != before:
        pytest.fail(f"operands changed: {before} -> {after}")


# ---- integer_view against a Fraction reference ----

def _reference_integer_view(polys):
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return den, [{e: c.numerator * (den // c.denominator)
                  for e, c in p.terms.items()} for p in polys]


@given(st.lists(_polys(coeffs=_wide_coeffs), max_size=4))
@example([MultiPoly(CV, {(1, 0): F(1, 4)}), MultiPoly.zero(CV),
          MultiPoly(CV, {(0, 1): F(5, 6), (0, 0): F(-1, 9)})])
def test_integer_view_matches_a_fraction_reference(polys):
    got = integer_view(polys)
    want = _reference_integer_view(polys)
    if got != want:
        pytest.fail(f"integer_view {got}, reference {want}")


@given(_polys(coeffs=_wide_coeffs), _wide_coeffs, _wide_coeffs)
def test_evaluate_matches_a_fraction_reference(p, x, y):
    want = sum((c * x ** e1 * y ** e2 for (e1, e2), c in p.terms.items()), F(0))
    got = p.evaluate({"c1": x, "c2": y})
    if type(got) is not F or got != want:
        pytest.fail(f"evaluate {got!r}, reference {want!r}")
