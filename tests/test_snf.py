import copy
from bisect import insort
from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from magnuslie import (WeightScheme, bracket, fp_ranks, fprank,
                       generator_element, ideal_component, integer_row_space,
                       lyndon_words, modp_dimension_check, quotient,
                       smith_normal_form, snf, torsion_free_certificate)
from magnuslie.snf import _rounded_quotient

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
    assert fp_ranks(rows, (p,))[p] == expected


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


@pytest.mark.parametrize("rows", [
    [{-1: 1}],
    [{-1: 1, 0: 2}],
    [{0: 1}, {0: 1, -3: 4}],
    [{2: 1}],
    [{0: 1, 5: 1}],
])
def test_column_outside_the_width_is_rejected(rows):
    # a negative index once densified to a zero row, or vanished from one
    for kernel in (integer_row_space, smith_normal_form):
        with pytest.raises(ValueError) as caught:
            kernel(rows, 2)
        assert str(caught.value) == "column index beyond the declared width"


def test_row_space_pads_unused_columns_with_zeros():
    rows = [{3: -4, 1: 2}, {0: 3, 3: 1}]
    assert integer_row_space(rows, 5) == ((3, 0, 0, 1, 0), (0, 2, 0, -4, 0))


# -- echelon-first Smith form against the general loop it replaced ---------
#
# smith_normal_form reduces to a row-echelon basis first and, when a lead
# is not +-1, reduces its columns by the same echelon on the transpose,
# alternating until the matrix is diagonal.  The oracles below run the
# general minimal-pivot loop that did this before (_smith_diagonal, kept
# here as the reference) directly on the raw matrix, use sympy's
# invariant factors, and recompute the Hermite form with a dense
# textbook loop.


def _smith_diagonal(mat: list[dict[int, int]]) -> list[int]:
    """Diagonal of a Smith reduction of the sparse rows ``mat`` (destroyed).

    Pivots have minimal absolute value, ties broken toward sparser rows
    and columns; nearest-integer quotients keep entries small.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(mat):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    live = {i for i, row in enumerate(mat) if row}
    row_min: dict[int, int] = {i: min(abs(v) for v in mat[i].values()) for i in live}

    def add_multiple(target: int, source: int, factor: int):
        """row[target] += factor * row[source], keeping indexes in sync."""
        trow = mat[target]
        for c, v in mat[source].items():
            value = trow.get(c, 0) + factor * v
            if value:
                if c not in trow:
                    col_rows.setdefault(c, set()).add(target)
                trow[c] = value
            elif c in trow:
                del trow[c]
                col_rows[c].discard(target)
        if trow:
            row_min[target] = min(abs(v) for v in trow.values())
        else:
            live.discard(target)
            row_min.pop(target, None)

    diagonal: list[int] = []
    while live:
        pivot_row = min(live, key=lambda i: (row_min[i], len(mat[i])))
        target = row_min[pivot_row]
        candidates = [c for c, v in mat[pivot_row].items() if abs(v) == target]
        pivot_col = min(candidates, key=lambda c: (len(col_rows[c]), c))

        while True:
            piv = mat[pivot_row][pivot_col]
            if piv < 0:
                for c in list(mat[pivot_row]):
                    mat[pivot_row][c] = -mat[pivot_row][c]
                piv = -piv

            # clear the pivot column with row operations
            smaller: int | None = None
            for r in list(col_rows.get(pivot_col, ())):
                if r == pivot_row or r not in live:
                    continue
                q = _rounded_quotient(mat[r][pivot_col], piv)
                if q:
                    add_multiple(r, pivot_row, -q)
                if r in live and mat[r].get(pivot_col):
                    smaller = r
            if smaller is not None:
                pivot_row = smaller
                continue

            # clear the pivot row with column operations; the pivot column
            # holds only the pivot now, so each update touches one entry
            leftover = False
            prow = mat[pivot_row]
            for c in [c for c in prow if c != pivot_col]:
                q = _rounded_quotient(prow[c], piv)
                if q:
                    value = prow[c] - q * piv
                    if value:
                        prow[c] = value
                    else:
                        del prow[c]
                        col_rows[c].discard(pivot_row)
                if prow.get(c):
                    leftover = True
            if not leftover:
                break
            # a remainder smaller than the pivot appeared in this row
            row_min[pivot_row] = min(abs(v) for v in prow.values())
            target = row_min[pivot_row]
            candidates = [c for c, v in prow.items() if abs(v) == target]
            pivot_col = min(candidates,
                            key=lambda c: (len(col_rows.get(c, ())), c))

        diagonal.append(piv)
        live.discard(pivot_row)
        row_min.pop(pivot_row, None)
        col_rows.get(pivot_col, set()).discard(pivot_row)
        del mat[pivot_row][pivot_col]
    return diagonal


def reference_divisor_chain(values):
    """The pairwise gcd/lcm passes over every non-unit value, one copy at a
    time: quadratic in the count of non-unit values."""
    units = tuple(1 for v in values if abs(v) == 1)
    vals = [abs(v) for v in values if abs(v) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i]:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] * vals[j] // g
                    changed = True
    return units + tuple(sorted(vals))


def general_loop(rows):
    return reference_divisor_chain(_smith_diagonal(snf._sparse_rows(rows)))


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


def bounded_echelon(monkeypatch, passes):
    """Make snf's own _echelon calls fail past the given number."""
    calls = []
    kernel = snf._echelon

    def counting(mat):
        calls.append(len(mat))
        assert len(calls) <= passes, "the row and column echelons do not settle"
        return kernel(mat)

    monkeypatch.setattr(snf, "_echelon", counting)
    return calls


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases])
def test_row_and_column_echelons_settle_in_a_few_passes(monkeypatch, cases):
    # without the sort by lead, some of these cycle forever
    calls = bounded_echelon(monkeypatch, 8)
    for rows, _ in cases():
        calls.clear()
        smith_normal_form(rows)


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
            assert fp_ranks(sparse, (p,))[p] == expected
            assert fp_ranks(dense, (p,))[p] == expected


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


def test_divisor_chain_matches_the_pairwise_passes():
    rng = Random(41)
    values = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 25, 27, 30, 36, 60, 7 * 2 ** 40)
    for _ in range(3000):
        diagonal = [rng.choice(values) * rng.choice((1, 1, -1, 2, 3, 5))
                    for _ in range(rng.randrange(13))]
        assert snf._divisor_chain(diagonal) == reference_divisor_chain(diagonal)


def test_divisor_chain_of_many_equal_values_is_fast():
    # the pairwise passes compare every pair of the 20,000 copies of 2
    diagonal = [2] * 20_000 + [-1, 1, 6, 3]
    start = time.perf_counter()
    chain = snf._divisor_chain(diagonal)
    assert time.perf_counter() - start < 2.0
    assert chain == (1, 1, 1) + (2,) * 19_999 + (6, 6)


# -- fp_ranks: one elimination mod the product of the primes ---------------
#
# The reference is the per-prime loop fp_ranks replaced: Gaussian
# elimination over F_p, run once for each prime.


def per_prime_rank(rows, p):
    """Rank over F_p, by Gaussian elimination mod p alone."""
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        current = {int(c): r for c, v in items if (r := int(v) % p)}
        leads = sorted(current)
        i = 0
        while current:
            lead = leads[i]
            i += 1
            factor = current.get(lead)
            if factor is None:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(factor, -1, p)
                pivots[lead] = {c: (v * inv) % p for c, v in current.items()}
                break
            for c, v in pivot.items():
                old = current.get(c)
                if old is None:
                    current[c] = (-factor * v) % p
                    insort(leads, c, i)
                else:
                    value = (old - factor * v) % p
                    if value:
                        current[c] = value
                    else:
                        del current[c]
    return len(pivots)


def sympy_rank(rows, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()


def moduli_of_finish(monkeypatch):
    """The moduli _finish runs under, in call order: one entry unless the
    modulus split."""
    seen = []
    finish = fprank._finish

    def recording(pivots, pending, modulus, primes, ranks):
        seen.append(modulus)
        return finish(pivots, pending, modulus, primes, ranks)

    monkeypatch.setattr(fprank, "_finish", recording)
    return seen


PRIMES = (2, 3, 5, 7)
# units, the primes, their products and 210 itself: zero divisors mod 210
ZERO_DIVISOR_ENTRIES = st.sampled_from(
    (0, 0, 0, 1, -1, 2, 3, 5, 7, -2, 6, 10, 14, 15, 21, 35, -30, 42, 70, 105,
     210, -210, 420, 11))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.data())
def test_fp_ranks_equal_the_per_prime_loop_on_zero_divisor_entries(nrows, ncols, data):
    rows = [[data.draw(ZERO_DIVISOR_ENTRIES) for _ in range(ncols)]
            for _ in range(nrows)]
    divisors = smith_normal_form(rows).divisors
    ranks = fp_ranks(rows, PRIMES)
    assert list(ranks) == list(PRIMES)
    for p in PRIMES:
        assert ranks[p] == per_prime_rank(rows, p)
        assert ranks[p] == sum(1 for d in divisors if d % p)


def random_zero_divisor_matrices(seed, count):
    rng = Random(seed)
    values = (0,) * 10 + (1, -1, 2, 3, 5, 7, 6, 10, 14, 15, 21, 35, 30, 42,
                          70, 105, 210, -105, -6)
    for _ in range(count):
        nrows = rng.randrange(1, 13)
        ncols = rng.randrange(1, 13)
        yield [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]


def test_fp_ranks_equal_the_per_prime_loop_on_random_matrices():
    for rows in random_zero_divisor_matrices(53, 1500):
        ranks = fp_ranks(rows, PRIMES)
        assert ranks == {p: per_prime_rank(rows, p) for p in PRIMES}, rows
        # every subset of the primes, in any order, reads the same ranks
        assert fp_ranks(rows, (7, 2)) == {7: ranks[7], 2: ranks[2]}


def test_fp_ranks_equal_sympy_ranks_over_gf_p():
    pytest.importorskip("sympy")
    for rows in random_zero_divisor_matrices(59, 200):
        ranks = fp_ranks(rows, PRIMES)
        for p in PRIMES:
            assert ranks[p] == sympy_rank(rows, p), (rows, p)


@pytest.mark.parametrize("cases", [planted_cases, sparse_cases, ideal_cases])
def test_fp_ranks_at_scale_equal_the_per_prime_loop(cases):
    for rows, ncols in cases():
        sparse = snf._sparse_rows(rows)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in sparse]
        ranks = fp_ranks(sparse, PRIMES)
        assert fp_ranks(dense, PRIMES) == ranks
        assert ranks == {p: per_prime_rank(sparse, p) for p in PRIMES}


def test_a_zero_divisor_lead_left_after_the_retry_splits_the_modulus(monkeypatch):
    # mod 210 both leads are 0 mod 2: both rows are set aside, the retry
    # splits 210 into 2 and 105, and mod 105 the second row stops at
    # -6, a zero divisor, so 105 splits into 3 and 35; the determinant
    # is -12
    seen = moduli_of_finish(monkeypatch)
    rows = [[2, 4], [4, 2]]
    assert fp_ranks(rows, PRIMES) == {2: 0, 3: 1, 5: 2, 7: 2}
    assert seen == [210, 2, 105, 3, 35]
    assert fp_ranks(rows, PRIMES) == {p: per_prime_rank(rows, p) for p in PRIMES}


def test_a_set_aside_row_a_later_pivot_clears_needs_no_split(monkeypatch):
    # the first row's lead 2 is a zero divisor mod 6 when it is read; the
    # second row pivots its column, and the retry reaches the unit lead 1
    seen = moduli_of_finish(monkeypatch)
    assert fp_ranks([[2, 1], [1, 0]], (2, 3)) == {2: 2, 3: 2}
    assert fp_ranks([{0: 2, 1: 1}, {0: 3}, {0: 1}], (2, 3)) == {2: 2, 3: 2}
    assert seen == [6, 6]


def test_fp_ranks_reads_its_rows_once_from_an_iterator():
    rows = [[2, 4, 0], [4, 2, 6], [1, 1, 1], [0, 35, 0]]
    consumed = []

    def stream():
        for row in rows:
            consumed.append(row)
            yield row

    ranks = fp_ranks(stream(), PRIMES)
    assert consumed == rows
    assert ranks == {p: per_prime_rank(rows, p) for p in PRIMES}
    assert rows == [[2, 4, 0], [4, 2, 6], [1, 1, 1], [0, 35, 0]]


def test_fp_ranks_with_a_mersenne_prime():
    big = 2 ** 61 - 1
    primes = (2, 3, big)
    for rows in random_zero_divisor_matrices(61, 200):
        rows = [[v * big if v % 7 == 0 else v for v in row] for row in rows]
        ranks = fp_ranks(rows, primes)
        assert ranks == {p: per_prime_rank(rows, p) for p in primes}, rows
    assert fp_ranks([[big, 1], [2 * big, 3]], primes) == {2: 2, 3: 2, big: 1}
    assert fp_ranks([[big, 1], [2 * big, 3]], (big,)) == {big: 1}


S201 = WeightScheme(2, 0, 1)
S214 = WeightScheme(2, 1, 4)


def _comm(scheme):
    return bracket(generator_element(scheme, 0), generator_element(scheme, 1))


@pytest.mark.parametrize("scheme, rho, top, mod2_zero", [
    # content 1, with leads 2 and 3 that are zero divisors mod 210
    (S201, bracket(_comm(S201), generator_element(S201, 0)).scale(2)
     + bracket(_comm(S201), generator_element(S201, 1)).scale(3), 9, False),
    # content 2: every row is even, so the rank mod 2 is 0
    (S214, bracket(_comm(S214), generator_element(S214, 0)).scale(6)
     + bracket(_comm(S214), generator_element(S214, 1)).scale(10), 9, True),
])
def test_fp_ranks_on_content_divisible_relators(monkeypatch, scheme, rho, top,
                                                mod2_zero):
    cert = torsion_free_certificate(rho, top)
    seen = moduli_of_finish(monkeypatch)
    # the rows the certificate's sweep builds, ranked before elimination
    sweep = quotient._IdealSweep(rho, top, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, top + 1):
        ranks = dict.fromkeys(PRIMES, 0)
        for block in sweep.next_degree():
            rows = sweep.next_rows(block)
            block_ranks = fp_ranks(rows, PRIMES)
            assert block_ranks == {p: per_prime_rank(rows, p) for p in PRIMES}, n
            for p in PRIMES:
                ranks[p] += block_ranks[p]
            sweep.eliminate(block, rows)
        divisors = cert.degrees[n - 1].divisors
        assert ranks == {p: sum(1 for d in divisors if d % p) for p in PRIMES}, n
        if mod2_zero:
            assert ranks[2] == 0
    # the split path ran on these rows
    assert any(modulus != 210 for modulus in seen)


@pytest.mark.parametrize("p", [4, 9, 15, 2 ** 31 * 3, 1, 0, -3])
def test_fp_rank_names_a_composite_modulus(p):
    # mod 4 the identity once read rank 2; other composites failed in pow,
    # and a modulus below 2 is no prime either
    with pytest.raises(ValueError) as caught:
        fp_ranks([[1, 0], [0, 1]], (p,))
    assert str(caught.value) == f"{p} is not a prime"
    with pytest.raises(ValueError) as caught:
        fp_ranks([[2, 1]], (2, p))
    assert str(caught.value) == f"{p} is not a prime"


@pytest.mark.parametrize("primes, message", [
    ((), "no primes given"),
    ((2, 3, 2), "the prime 2 is repeated"),
    ((5, 1), "1 is not a prime"),
])
def test_fp_ranks_needs_distinct_primes(primes, message):
    with pytest.raises(ValueError) as caught:
        fp_ranks([[1]], primes)
    assert str(caught.value) == message


def test_modp_check_eliminates_once_per_block(monkeypatch):
    rho = _comm(S213)
    calls = []
    kernel = quotient.fp_ranks
    eliminate = quotient._IdealSweep.eliminate

    def counting(rows, primes):
        calls.append(tuple(primes))
        return kernel(rows, primes)

    def eliminating(sweep, block, rows):
        calls.append(("eliminated", sweep.degree))
        return eliminate(sweep, block, rows)

    monkeypatch.setattr(quotient, "fp_ranks", counting)
    monkeypatch.setattr(quotient._IdealSweep, "eliminate", eliminating)
    cert = torsion_free_certificate(rho, 9, primes=PRIMES)
    # the certificate ranks each block once for all the primes, right
    # before its elimination; the check only reads those ranks
    check = modp_dimension_check(cert)
    assert calls[0::2] == [PRIMES] * (len(calls) // 2)
    assert [degree for _, degree in calls[1::2]] \
        == sorted(degree for _, degree in calls[1::2])
    assert {degree for _, degree in calls[1::2]} == set(range(rho.degree, 10))
    # [x1,x2] is multihomogeneous: degree 9 splits into blocks
    assert len(calls) // 2 > 9 - rho.degree + 1
    assert all(len(ranks) == 9 - rho.degree + 1
               for ranks in cert.modp_ranks.values())
    assert check.all_match


# -- Smith divisors by alternating row and column echelons ------------------


NON_UNIT_RELATORS = [
    (_comm(S213).scale(2), 11),
    (bracket(_comm(S214), generator_element(S214, 0)).scale(6)
     + bracket(_comm(S214), generator_element(S214, 1)).scale(10), 11),
    # degree 8 of this one cycles forever if the rows are not sorted by lead
    (bracket(_comm(S201), generator_element(S201, 0)).scale(2)
     + bracket(_comm(S201), generator_element(S201, 1)).scale(3), 11),
]


@pytest.mark.parametrize("rho, top", NON_UNIT_RELATORS)
def test_sweep_echelons_have_the_general_loop_divisors(monkeypatch, rho, top):
    sweep = quotient._IdealSweep(rho, top, quotient.DEFAULT_BUDGET)
    calls = bounded_echelon(monkeypatch, 4)
    non_unit = passes = 0
    for n in range(rho.degree, top + 1):
        for block in sweep.next_degree():
            pivots = sweep.eliminate(block, sweep.next_rows(block))
            non_unit += any(abs(row[lead]) != 1 for lead, row in pivots.items())
            expected = snf._divisor_chain(
                _smith_diagonal([dict(row) for row in pivots.values()]))
            calls.clear()
            result = snf._smith_from_echelon(pivots)
            passes += len(calls)
            assert result.divisors == expected, n
            assert result.rank == len(expected) == len(pivots), n
    assert non_unit and passes


def test_smith_from_echelon_leaves_the_basis_intact():
    rho, _ = NON_UNIT_RELATORS[2]
    sweep = quotient._IdealSweep(rho, 9, quotient.DEFAULT_BUDGET)
    for _ in range(rho.degree, 9):
        for block in sweep.next_degree():
            pivots = sweep.eliminate(block, sweep.next_rows(block))
    assert any(abs(row[lead]) != 1 for lead, row in pivots.items())
    before = copy.deepcopy(pivots)
    snf._smith_from_echelon(pivots)
    assert pivots == before
    assert [list(row) for row in pivots.values()] \
        == [list(row) for row in before.values()]


def test_unit_leads_need_no_column_pass(monkeypatch):
    calls = bounded_echelon(monkeypatch, 0)
    pivots = {0: {0: 1, 2: 5}, 1: {1: -1, 2: 7}}
    assert snf._smith_from_echelon(pivots) == snf.SmithResult(2, (1, 1))
    assert calls == []


@pytest.mark.parametrize("kernel, rows", [
    (smith_normal_form, [[0.5, 0]]),
    (smith_normal_form, [[Fraction(3, 2)]]),
    (smith_normal_form, [[True, 0]]),
    (lambda rows: smith_normal_form(rows, 2), [{1.7: 3}]),
    (lambda rows: smith_normal_form(rows, 2), [{True: 3}]),
    (lambda rows: integer_row_space(rows, 2), [[2.9, 1]]),
    (lambda rows: integer_row_space(rows, 2), [{0: 2.0}]),
    (lambda rows: fp_ranks(rows, (2, 3)), [[0.5, 1.5]]),
    (lambda rows: fp_ranks(rows, (2, 3)), [{0: 1, 1.0: 1}]),
    (lambda rows: fp_ranks(rows, (2,)), [[1, False]]),
])
def test_non_integer_input_is_refused(kernel, rows):
    # each was once truncated by int() and gave a divisor or a rank
    with pytest.raises(TypeError):
        kernel(rows)


def test_the_width_is_checked_before_any_elimination(monkeypatch):
    def never(mat):
        raise AssertionError("eliminated before the width check")

    monkeypatch.setattr(snf, "_echelon", never)
    for kernel in (integer_row_space, smith_normal_form):
        with pytest.raises(ValueError) as caught:
            kernel([{0: 1}, {0: 1, 3: 4}], 2)
        assert str(caught.value) == "column index beyond the declared width"
