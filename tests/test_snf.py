from itertools import combinations
from math import gcd
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from magnuslie import (WeightScheme, bracket, fp_rank, generator_element,
                       ideal_component, integer_row_space, lyndon_words,
                       smith_normal_form, snf)

S213 = WeightScheme(2, 1, 3)


# -- independent oracle: divisor chain from gcds of k x k minors -----------


def _det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += sign * matrix[0][j] * _det(minor)
        sign = -sign
    return total


def minor_gcd_divisors(rows):
    """d_1..d_r with d_1*..*d_k = gcd of all k x k minors."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    gcds = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for row_idx in combinations(range(nrows), k):
            for col_idx in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                g = gcd(g, abs(_det(sub)))
        if g == 0:
            break
        gcds.append(g)
    return tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))


def test_known_divisors():
    assert smith_normal_form([[1]]).divisors == (1,)
    assert smith_normal_form([[2]]).divisors == (2,)
    assert smith_normal_form([[2, 0], [0, 3]]).divisors == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    assert smith_normal_form([]).rank == 0
    result = smith_normal_form([[2, 4], [6, 8]])
    assert result.rank == 2 and result.divisors == (2, 4)
    assert result.nontrivial == (2, 4)


def test_sparse_and_dense_rows_agree():
    dense = [[3, 0, -6], [0, 5, 10], [9, 0, 0]]
    sparse = [{0: 3, 2: -6}, {1: 5, 2: 10}, {0: 9}]
    assert smith_normal_form(dense) == smith_normal_form(sparse)


entries = st.integers(min_value=-9, max_value=9)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_divisors_match_minor_gcd_oracle(nrows, ncols, data):
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    expected = minor_gcd_divisors(rows)
    result = smith_normal_form(rows)
    assert result.divisors == expected
    assert result.rank == len(expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from([2, 3, 5, 7]), st.data())
def test_fp_rank_counts_divisors_coprime_to_p(nrows, ncols, p, data):
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    divisors = smith_normal_form(rows).divisors
    expected = sum(1 for d in divisors if d % p)
    assert fp_rank(rows, p) == expected


def test_row_space_invariance_under_row_operations():
    rng = Random(23)
    for _ in range(100):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)]
        reference = integer_row_space(rows, ncols)

        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert integer_row_space(shuffled, ncols) == reference

        # adding an integer multiple of one row to another keeps the span
        if nrows >= 2:
            i, j = rng.sample(range(nrows), 2)
            factor = rng.randrange(-3, 4)
            modified = [row[:] for row in rows]
            modified[i] = [a + factor * b for a, b in zip(modified[i], modified[j])]
            assert integer_row_space(modified, ncols) == reference

        # negating a row keeps the span
        k = rng.randrange(nrows)
        negated = [row[:] for row in rows]
        negated[k] = [-a for a in negated[k]]
        assert integer_row_space(negated, ncols) == reference


def test_row_space_distinguishes_index_two_subgroup():
    full = integer_row_space([[1, 0], [0, 1]], 2)
    doubled = integer_row_space([[2, 0], [0, 1]], 2)
    assert full != doubled


# -- echelon-first Smith form against the general loop it bypasses ---------
#
# smith_normal_form reduces to a row-echelon basis first and runs the
# general pivot loop only when a lead is not +-1.  The oracles below run
# that general loop directly on the raw matrix, use sympy's invariant
# factors, and recompute the Hermite form with a dense textbook loop.


def general_loop(rows):
    return snf._divisor_chain(snf._smith_diagonal(snf._sparse_rows(rows)))


def reference_hermite(rows, ncols):
    """Row Hermite form by dense column-by-column Euclid: positive
    pivots, entries above each pivot in [0, pivot), zero rows dropped."""
    mat = [[int(v) for v in row] for row in rows]
    top = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(top, len(mat)) if mat[i][c]]
            if not live:
                break
            best = min(live, key=lambda i: abs(mat[i][c]))
            mat[top], mat[best] = mat[best], mat[top]
            for i in range(top + 1, len(mat)):
                q = mat[i][c] // mat[top][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            if not any(mat[i][c] for i in range(top + 1, len(mat))):
                break
        if top < len(mat) and mat[top][c]:
            if mat[top][c] < 0:
                mat[top] = [-a for a in mat[top]]
            for i in range(top):
                q = mat[i][c] // mat[top][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            top += 1
    return tuple(tuple(row) for row in mat[:top])


def planted(rng, nrows, ncols, diagonal):
    """U * D * V with D = diag(diagonal) and U, V products of a few
    elementary operations with small multipliers, so M stays sparse."""
    mat = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(diagonal):
        mat[i][i] = d
    for _ in range(rng.randrange(nrows + 1, 2 * nrows + 2)):
        i, j = rng.sample(range(nrows), 2)
        f = rng.choice((-2, -1, 1, 2))
        mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
    for _ in range(rng.randrange(ncols + 1, 2 * ncols + 2)):
        i, j = rng.sample(range(ncols), 2)
        f = rng.choice((-2, -1, 1, 2))
        for row in mat:
            row[i] += f * row[j]
    rng.shuffle(mat)
    return mat


def planted_cases():
    rng = Random(41)
    for _ in range(40):
        nrows = rng.randrange(2, 31)
        ncols = rng.randrange(2, 31)
        rank = rng.randrange(1, min(nrows, ncols) + 1)
        diagonal = [rng.choice((1, 1, 1, -1, 2, 3, 4, 6, 12, 25))
                    for _ in range(rank)]
        yield planted(rng, nrows, ncols, diagonal), ncols


def sparse_cases():
    rng = Random(43)
    for _ in range(40):
        nrows = rng.randrange(1, 31)
        ncols = rng.randrange(1, 31)
        values = (0,) * 8 + (1, -1, 2, -2, 3, 4, -6)
        yield [[rng.choice(values) for _ in range(ncols)]
               for _ in range(nrows)], ncols


def ideal_cases():
    rho = bracket(generator_element(S213, 0), generator_element(S213, 1))
    for n in range(2, 11):
        rows = ideal_component(rho, n)
        basis = lyndon_words(S213, n)
        yield ([{c: row[w] for c, w in enumerate(basis) if w in row} for row in rows],
               len(basis))


def test_planted_divisors_are_recovered():
    rng = Random(47)
    for _ in range(30):
        nrows = rng.randrange(2, 31)
        ncols = rng.randrange(2, 31)
        rank = rng.randrange(1, min(nrows, ncols) + 1)
        diagonal = [rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(rank)]
        rows = planted(rng, nrows, ncols, diagonal)
        result = smith_normal_form(rows)
        assert result.rank == rank
        assert result.divisors == snf._divisor_chain(diagonal)


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases, ideal_cases])
def test_smith_matches_general_loop_on_raw_matrix(cases):
    for rows, _ in cases():
        result = smith_normal_form(rows)
        expected = general_loop(rows)
        assert result.divisors == expected
        assert result.rank == len(expected)


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases])
def test_smith_matches_sympy_invariant_factors(cases):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    for rows, _ in cases():
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = tuple(abs(int(d)) for d in factors if d)
        assert smith_normal_form(rows).divisors == expected


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases, ideal_cases])
def test_row_space_matches_dense_hermite_oracle(cases):
    for rows, ncols in cases():
        dense = [[row.get(c, 0) for c in range(ncols)] if isinstance(row, dict)
                 else row for row in rows]
        assert integer_row_space(rows, ncols) == reference_hermite(dense, ncols)


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases, ideal_cases])
def test_fp_rank_counts_divisors_prime_to_p_at_scale(cases):
    for rows, ncols in cases():
        divisors = general_loop(rows)
        sparse = snf._sparse_rows(rows)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in sparse]
        for p in (2, 3, 5):
            expected = sum(1 for d in divisors if d % p)
            assert fp_rank(sparse, p) == expected
            assert fp_rank(dense, p) == expected


@pytest.mark.parametrize("diagonal, chain", [
    ((1, 6, 1, 4, 1, 9), (1, 1, 1, 1, 6, 36)),
    ((-1, 2, 1, 3), (1, 1, 1, 6)),
    ((4, -1, 2), (1, 2, 4)),
    ((1, 1, 1), (1, 1, 1)),
    ((5,), (5,)),
    ((), ()),
])
def test_divisor_chain_sets_units_aside(diagonal, chain):
    assert snf._divisor_chain(list(diagonal)) == chain
