"""Polynomial matrices and exact Fraction linear algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from bc2mvop.matrices import (PolyMatrix, _echelon, _primitive_row, conjugate_flip,
                              flip_matrix, frac_det,
                              frac_identity, frac_invert, frac_matmul, frac_rank,
                              solve_linear)
from bc2mvop.poly import MultiPoly

V = ("x1", "x2")


def x_vars():
    return MultiPoly.var(V, "x1"), MultiPoly.var(V, "x2")


def test_matmul_and_transpose():
    x1, x2 = x_vars()
    A = PolyMatrix.from_rows([[x1, x2], [MultiPoly.zero(V), x1]])
    B = PolyMatrix.from_rows([[MultiPoly.one(V), MultiPoly.zero(V)],
                              [x1, MultiPoly.one(V)]])
    P = A @ B
    assert P.entry(0, 0) == x1 + x2 * x1
    assert P.entry(0, 1) == x2
    assert A.transpose().entry(1, 0) == x2


def test_from_scalar_rows():
    M = PolyMatrix.from_scalar_rows(V, [[1, F(1, 2)], [0, -3]])
    assert M.entry(0, 1) == MultiPoly.const(V, F(1, 2))
    assert M.entry(1, 1) == MultiPoly.const(V, -3)


def test_det_two_by_two():
    x1, x2 = x_vars()
    M = PolyMatrix.from_rows([[x1, x2], [MultiPoly.one(V), x1]])
    assert M.det() == x1 * x1 - x2


def test_scale_add_sub():
    x1, x2 = x_vars()
    M = PolyMatrix.from_rows([[x1]])
    assert (M + M).entry(0, 0) == 2 * x1
    assert (M - M).entry(0, 0).is_zero
    assert M.scale(x2).entry(0, 0) == x1 * x2


def test_substitute_and_evaluate():
    x1, x2 = x_vars()
    M = PolyMatrix.from_rows([[x1 + x2, x1 * x2]])
    vals = M.evaluate({"x1": F(2), "x2": F(3)})
    assert vals == [[F(5), F(6)]]
    sw = M.substitute({"x1": x2, "x2": x1}, V)
    assert sw.entry(0, 0) == x1 + x2
    assert sw.entry(0, 1) == x1 * x2


def test_flip_matrix_is_involution():
    J = flip_matrix(3, V)
    assert J @ J == PolyMatrix.from_scalar_rows(V, frac_identity(3))
    assert J.entry(0, 2) == MultiPoly.one(V)
    assert J.entry(0, 0).is_zero


def test_conjugate_flip_reverses_both_indices():
    rows = [[MultiPoly.const(V, i * 10 + j) for j in range(3)] for i in range(3)]
    M = PolyMatrix.from_rows(rows)
    C = conjugate_flip(M)
    for i in range(3):
        for j in range(3):
            assert C.entry(i, j) == M.entry(2 - i, 2 - j)


def test_frac_invert_known_inverse():
    A = [[F(1), F(2)], [F(3), F(4)]]
    Ainv = frac_invert(A)
    assert Ainv == [[F(-2), F(1)], [F(3, 2), F(-1, 2)]]
    assert frac_matmul(A, Ainv) == frac_identity(2)


def test_frac_det_and_rank():
    assert frac_det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert frac_det([[F(0), F(1)], [F(1), F(0)]]) == F(-1)
    assert frac_det([[F(1), F(2)], [F(2), F(4)]]) == 0
    assert frac_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert frac_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert frac_rank([]) == 0
    assert frac_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert frac_rank([[1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 7]]) == 2


def test_solve_linear_unique_and_degenerate():
    A = [[F(1), F(0)], [F(0), F(2)]]
    assert solve_linear(A, [F(3), F(4)]) == [F(3), F(2)]
    # underdetermined and inconsistent both yield no unique answer
    assert solve_linear([[F(1), F(1)]], [F(2)]) is None
    assert solve_linear([[F(1)], [F(1)]], [F(1), F(2)]) is None
    # overdetermined but consistent is fine
    assert solve_linear([[F(1)], [F(2)]], [F(3), F(6)]) == [F(3)]


def test_polymatrix_json_round_trip():
    x1, x2 = x_vars()
    M = PolyMatrix.from_rows([[x1 * x2, MultiPoly.zero(V)],
                              [MultiPoly.const(V, F(5, 7)), x1 ** 3]])
    assert PolyMatrix.from_json(M.to_json()) == M


# ---- properties on small random polynomial matrices ----

_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    max_size=2).map(lambda t: MultiPoly(V, t))


def _matrices(rows, cols):
    return st.lists(_polys, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: PolyMatrix(rows, cols, entries))


def _square_pairs():
    return st.integers(2, 3).flatmap(lambda n: st.tuples(_matrices(n, n),
                                                         _matrices(n, n)))


def _any_shape():
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: _matrices(*shape))


@given(_square_pairs())
def test_det_is_multiplicative(pair):
    A, B = pair
    assert (A @ B).det() == A.det() * B.det()


@given(_any_shape())
def test_polymatrix_json_round_trip_property(M):
    assert PolyMatrix.from_json(M.to_json()) == M


@given(_any_shape(), _any_shape())
def test_polymatrix_equal_values_hash_equal(M, N):
    same_shape = (M.rows, M.cols) == (N.rows, N.cols)
    pairs = [(M, PolyMatrix.from_json(M.to_json())),
             (M, M.transpose().transpose()), (M, N)]
    if same_shape:
        pairs.append((M, (M + N) - N))
    for a, b in pairs:
        if a == b:
            assert hash(a) == hash(b)
    if same_shape:
        assert (M + N) - N == M


# zero-heavy entries: the empty dictionary is drawn often, and half of the
# draws are the zero polynomial outright
_sparse_polys = st.one_of(st.just(MultiPoly.zero(V)), _polys)


def _sparse_products():
    return st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(
            st.lists(_sparse_polys, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
                lambda e: PolyMatrix(s[0], s[1], e)),
            st.lists(_sparse_polys, min_size=s[1] * s[2], max_size=s[1] * s[2]).map(
                lambda e: PolyMatrix(s[1], s[2], e))))


def _reference_product_terms(A, B, i, j):
    """sum_k A_ik B_kj as a dict of terms, from the coefficients alone."""
    terms = {}
    for k in range(A.cols):
        for (a1, a2), x in A.entry(i, k).terms.items():
            for (b1, b2), y in B.entry(k, j).terms.items():
                e = (a1 + b1, a2 + b2)
                terms[e] = terms.get(e, 0) + x * y
    return {e: c for e, c in terms.items() if c != 0}


@given(_sparse_products())
def test_matmul_with_zero_factors_matches_the_entrywise_sum(pair):
    A, B = pair
    P = A @ B
    if (P.rows, P.cols) != (A.rows, B.cols):
        pytest.fail(f"shape {(P.rows, P.cols)}")
    for i in range(P.rows):
        for j in range(P.cols):
            entry = P.entry(i, j)
            # dict equality: a zero coefficient left in the entry shows
            if entry.vars != V or entry.terms != _reference_product_terms(A, B, i, j):
                pytest.fail(f"entry ({i},{j}) = {entry.terms}")


_rank_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _rank_matrices(draw):
    """Random rows plus repeats, scaled copies and zero rows, shuffled."""
    ncols = draw(st.integers(0, 4))
    base = draw(st.lists(st.lists(_rank_fracs, min_size=ncols, max_size=ncols),
                         max_size=4))
    rows = list(base)
    for row in base:
        for _ in range(draw(st.integers(0, 2))):
            scale = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 3)]))
            rows.append([scale * x for x in row])
    rows += [[F(0)] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(_rank_matrices())
def test_rank_matches_the_full_elimination(A):
    """frac_rank counts the rows of the full echelon; those rows have
    strictly increasing pivot columns, and they span every input row."""
    rows = [row for row, _, _ in _echelon(A)[0]]
    assert frac_rank(A) == len(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    assert pivots == sorted(set(pivots))
    for a in A:
        assert _gauss_rank([*rows, a]) == len(rows)


def _gauss_rank(A):
    """Reference rank: Gauss elimination over Fractions, row by row."""
    M = [[F(x) for x in row] for row in A]
    ncols = len(M[0]) if M else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][c] / M[rank][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


_wide_fracs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                           max_denominator=10 ** 9)


@st.composite
def _rational_row_matrices(draw):
    """Rows over large denominators plus duplicates, negative rational
    multiples, sums of two rows and zero rows, shuffled."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(_wide_fracs, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = list(base)
    for row in base:
        for _ in range(draw(st.integers(0, 2))):
            scale = -draw(st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6,
                                       max_denominator=10 ** 6))
            rows.append([scale * x for x in row])
        rows.append(list(row))
    if len(base) > 1:
        rows.append([x + y for x, y in zip(base[0], base[1])])
    rows += [[F(0)] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(st.one_of(_rational_row_matrices(), _rank_matrices()))
@example([[F(1, 3), F(2, 3)], [F(-1, 6), F(-1, 3)], [F(1, 2), F(1, 5)]])
@example([[F(1, 3), F(1, 7), 0], [0, 0, 0], [F(2, 3), F(2, 7), 0], [1, 2, 3]])
def test_rank_matches_the_fraction_gauss_reference(A):
    got = frac_rank(A)
    want = _gauss_rank(A)
    if got != want:
        pytest.fail(f"rank {got}, reference {want}")


@st.composite
def _square_matrices(draw):
    """Square matrices over large denominators in which some rows are zero,
    repeats or rational multiples of another row; zero entries are drawn
    often, so pivots need row swaps."""
    n = draw(st.integers(1, 4))
    entries = st.just(F(0)) | _wide_fracs
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for i in range(n):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "multiple")))
        if kind == "zero":
            rows[i] = [F(0)] * n
        elif kind == "multiple":
            scale = draw(st.sampled_from([F(1), F(-1)]) | _wide_fracs)
            rows[i] = [scale * x for x in rows[draw(st.integers(0, n - 1))]]
    return rows


@given(_square_matrices())
@example([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]])
@example([[F(1, 3), F(2, 7)], [F(-2, 3), F(-4, 7)]])
def test_det_matches_the_laplace_expansion(A):
    got = frac_det(A)
    want = PolyMatrix.from_scalar_rows(V, A).det().constant_value()
    if got != want:
        pytest.fail(f"det {got}, Laplace expansion {want}")


@st.composite
def _square_systems(draw):
    A = draw(_square_matrices())
    return A, draw(st.lists(_wide_fracs, min_size=len(A), max_size=len(A)))


@given(_square_systems())
@example(([[F(2), F(1)], [F(4), F(2)]], [F(1), F(2)]))
def test_solve_and_invert_multiply_back(system):
    A, b = system
    n = len(A)
    column = [[x] for x in b]
    # the Laplace expansion decides singularity, independently of the echelon
    if PolyMatrix.from_scalar_rows(V, A).det().is_zero:
        with pytest.raises(ValueError, match="matrix is singular"):
            frac_invert(A)
        if solve_linear(A, b) is not None:
            pytest.fail("solved a singular system")
        return
    inverse = frac_invert(A)
    if frac_matmul(A, inverse) != frac_identity(n):
        pytest.fail(f"A A^-1 = {frac_matmul(A, inverse)}")
    x = solve_linear(A, b)
    if x is None or frac_matmul(A, [[t] for t in x]) != column:
        pytest.fail(f"A x != b for x = {x}")
    # one more equation, the sum of the others: consistent, then off by one
    total = [sum(col) for col in zip(*A)]
    if solve_linear(A + [total], b + [sum(b)]) != x:
        pytest.fail("overdetermined consistent system not solved")
    if solve_linear(A + [total], b + [sum(b) + 1]) is not None:
        pytest.fail("inconsistent system solved")
    if solve_linear(A[:-1], b[:-1]) is not None:
        pytest.fail("underdetermined system solved")


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3)
                .filter(any), min_size=1, max_size=4))
def test_int_rows_and_their_fraction_copies_agree(rows):
    # an all-int row skips the denominators; its Fraction copy takes the
    # lcm route, and both give the same primitive row, factors and rank
    fracs = [[F(x) for x in row] for row in rows]
    for row, frac in zip(rows, fracs):
        assert _primitive_row(tuple(row)) == _primitive_row(tuple(frac))
    assert frac_rank(rows) == frac_rank(fracs)


@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(
        st.lists(_polys, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda e: PolyMatrix(s[0], s[1], e)),
        st.lists(_rank_fracs, min_size=s[0], max_size=s[0]))))
def test_scale_rows_is_the_product_with_the_diagonal(case):
    M, diag = case
    assert M.scale_rows(diag) == PolyMatrix.diagonal(V, diag) @ M
