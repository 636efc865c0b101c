"""The echelon-fed ideal sweep against the sweep it replaced.

The reference below keeps every distinct left-normed ad-monomial value,
level by level, as the sweep did before it was fed by echelon bases.
Both generate the same degree pieces of the ideal (rho), so their rows
must have equal integer row spaces, and hence equal ranks, elementary
divisors and F_p ranks.
"""

import pytest

from magnuslie import (BudgetExceeded, WeightScheme, bracket,
                       generator_element, integer_row_space, lyndon_words,
                       modp_dimension_check, smith_normal_form,
                       torsion_free_certificate)
from magnuslie import quotient
from magnuslie.liebasis import _add_bracket
from test_snf import per_prime_rank

S201 = WeightScheme(2, 0, 1)
S213 = WeightScheme(2, 1, 3)
S214 = WeightScheme(2, 1, 4)
S314 = WeightScheme(3, 1, 4)
PRIMES = (2, 3, 5, 7)


def x(scheme, i):
    return generator_element(scheme, i)


def comm(scheme):
    return bracket(x(scheme, 0), x(scheme, 1))


def dedup_sweep_rows(rho, max_degree):
    """Word-keyed rows of degrees d..max_degree: the distinct nonzero
    values of the left-normed ad-monomials on rho."""
    scheme = rho.scheme
    levels = [[dict(rho.coords)]]
    for t in range(1, max_degree - rho.degree + 1):
        fresh = {}
        for letter in range(scheme.letters):
            source = t - scheme.letter_weight(letter)
            if source < 0:
                continue
            for coords in levels[source]:
                image = _add_bracket({}, {(letter,): 1}, coords)
                key = tuple(sorted(image.items()))
                if image and key not in fresh:
                    fresh[key] = image
        levels.append(list(fresh.values()))
    return levels


def indexed(rows, scheme, n):
    index = {w: i for i, w in enumerate(lyndon_words(scheme, n))}
    return [{index[w]: c for w, c in row.items()} for row in rows]


def sweep_rows(rho, max_degree):
    sweep = quotient._IdealSweep(rho, quotient.DEFAULT_BUDGET)
    return [sweep.advance()[0] for _ in range(rho.degree, max_degree + 1)]


# relators with y letters in them, too, so weight-e sources are exercised
ROW_SPACE_CASES = [
    (S201, lambda s: comm(s)),
    (S201, lambda s: bracket(comm(s), x(s, 0)).scale(2)
     + bracket(comm(s), x(s, 1)).scale(3)),
    (S213, lambda s: comm(s)),
    (S213, lambda s: comm(s).scale(2)),
    (S213, lambda s: bracket(x(s, 0), x(s, 2))),
    (S314, lambda s: comm(s)),
    (S314, lambda s: bracket(comm(s), x(s, 2))),
    (S314, lambda s: bracket(x(s, 0), x(s, 3)) + bracket(x(s, 1), x(s, 3))),
]


@pytest.mark.parametrize("scheme, make", ROW_SPACE_CASES)
def test_row_space_equals_the_dedup_sweep_through_weight_9(scheme, make):
    rho = make(scheme)
    expected = dedup_sweep_rows(rho, 9)
    got = sweep_rows(rho, 9)
    for n, old, new in zip(range(rho.degree, 10), expected, got):
        ncols = len(lyndon_words(scheme, n))
        assert integer_row_space(new, ncols) \
            == integer_row_space(indexed(old, scheme, n), ncols), n


@pytest.mark.parametrize("scheme, make", ROW_SPACE_CASES)
def test_certificate_rows_are_the_ideal_components_over_column_indices(scheme, make):
    rho = make(scheme)
    cert = torsion_free_certificate(rho, 9)
    assert len(cert.rows) == 9 - rho.degree + 1
    for n, rows in enumerate(cert.rows, rho.degree):
        basis = lyndon_words(scheme, n)
        assert [{basis[i]: c for i, c in row.items()} for row in rows] \
            == quotient.ideal_component(rho, n), n
    sweep = quotient._IdealSweep(rho, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, 10):
        sweep.advance()
        for pivots in sweep.bases.values():
            for lead, row in pivots.items():
                assert lead.__class__ is int and row[lead], n
                assert all(c.__class__ is int for c in row), n


def test_modp_check_enumerates_no_lyndon_words(monkeypatch):
    certs = [torsion_free_certificate(make(scheme), 9)
             for scheme, make in ROW_SPACE_CASES]
    expected = [modp_dimension_check(cert, PRIMES) for cert in certs]

    def refuse(scheme, n):
        raise AssertionError("the mod-p check enumerated Lyndon words")

    monkeypatch.setattr(quotient, "lyndon_words", refuse)
    assert [modp_dimension_check(cert, PRIMES) for cert in certs] == expected


# (scheme, relator, top degree of the divisor comparison, of the mod-p one);
# on the last two the reference's own Smith form needs a minute or more
# at degree 10, where the echelon entries of its rows reach ~10^5 digits
TORSION_CASES = [
    # content 2: 2-torsion in every degree
    (S213, lambda s: comm(s).scale(2), 11, 11),
    (S214, lambda s: bracket(comm(s), x(s, 0)).scale(6)
     + bracket(comm(s), x(s, 1)).scale(10), 9, 11),
    # content 1, but every echelon from the relator's degree up has
    # leads other than +-1, and those rows are bracketed upward
    (S201, lambda s: bracket(comm(s), x(s, 0)).scale(2)
     + bracket(comm(s), x(s, 1)).scale(3), 9, 11),
]


def test_echelon_entries_stay_small_where_leads_are_not_units():
    # unreduced, the degree-10 echelons of these relators reach entries
    # of 20,456 and 731,289 bits, and bracketing them upward stalls
    # degree 11; the content-1 relator goes first as it fails fastest
    for scheme, make, _, top in (TORSION_CASES[2], TORSION_CASES[1]):
        sweep = quotient._IdealSweep(make(scheme), quotient.DEFAULT_BUDGET)
        while sweep.degree < top:
            _, pivots, _ = sweep.advance()
            largest = max(abs(v) for row in pivots.values() for v in row.values())
            assert largest.bit_length() <= 128, sweep.degree


@pytest.mark.parametrize("scheme, make, top_z, top_p", TORSION_CASES)
def test_divisors_and_fp_ranks_equal_the_dedup_sweep(scheme, make, top_z, top_p):
    rho = make(scheme)
    cert = torsion_free_certificate(rho, top_p)
    check = modp_dimension_check(cert, PRIMES)
    assert cert.aborted_degree is None
    for n, old in zip(range(rho.degree, top_p + 1), dedup_sweep_rows(rho, top_p)):
        rows = indexed(old, scheme, n)
        if n <= top_z:
            assert cert.degrees[n - 1].divisors \
                == smith_normal_form(rows).divisors, n
        for report, p in zip(check.reports, PRIMES):
            assert report.rows[n - rho.degree].rank_mod_p \
                == per_prime_rank(rows, p), n


def test_non_unit_leads_are_fed_upward():
    scheme, make, _, _ = TORSION_CASES[2]
    rho = make(scheme)
    assert rho.content() == 1
    sweep = quotient._IdealSweep(rho, quotient.DEFAULT_BUDGET)
    for _ in range(rho.degree, 10):
        _, pivots, _ = sweep.advance()
        assert any(abs(row[lead]) != 1 for lead, row in pivots.items())


@pytest.mark.parametrize("scheme, rho", [
    (S201, comm(S201)), (S213, comm(S213)), (S314, bracket(comm(S314), x(S314, 2))),
    (S214, bracket(x(S214, 0), x(S214, 2))),
])
def test_sweep_keeps_at_most_max_letter_weight_bases(scheme, rho):
    window = max(scheme.letter_weights())
    sweep = quotient._IdealSweep(rho, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, rho.degree + 6):
        sweep.advance()
        assert sweep.degree == n
        assert set(sweep.bases) == set(range(max(n - window + 1, rho.degree), n + 1))


def test_budget_is_checked_before_any_bracket_or_elimination(monkeypatch):
    # the bound read from the kept bases is the exact row count of
    # [x1,x2] over (2,1,3), degree by degree
    rho = comm(S213)
    sweep = quotient._IdealSweep(rho, quotient.DEFAULT_BUDGET)

    def unused(*args, **kwargs):
        raise AssertionError("work spent on a degree the budget refuses")

    for n in range(2, 13):
        with monkeypatch.context() as patch:
            patch.setattr(quotient, "_bracket_words", unused)
            patch.setattr(quotient, "_echelon", unused)
            sweep.budget = 0
            with pytest.raises(BudgetExceeded) as err:
                sweep.advance()
        assert (err.value.degree, err.value.cols) \
            == (n, len(lyndon_words(S213, n)))
        assert sweep.degree == n - 1
        sweep.budget = quotient.DEFAULT_BUDGET
        rows, _, _ = sweep.advance()
        assert len(rows) == err.value.rows


def test_budget_counts_the_columns_before_enumerating_them(monkeypatch):
    # degree 3 over 200 x letters has 2,666,600 Lyndon words and at most
    # 200 rows: the budget refuses it from the count alone
    scheme = WeightScheme(200, 0, 1)
    enumerate_words = quotient.lyndon_words

    def refuse_degree_3(scheme, n):
        if n == 3:
            raise AssertionError("degree 3 enumerated before the budget check")
        return enumerate_words(scheme, n)

    monkeypatch.setattr(quotient, "lyndon_words", refuse_degree_3)
    cert = torsion_free_certificate(comm(scheme), 4)
    assert cert.aborted_degree == 3
    with pytest.raises(BudgetExceeded) as err:
        quotient.ideal_component(comm(scheme), 3)
    assert (err.value.rows, err.value.cols) == (200, 2666600)


def test_budget_abort_degree_follows_the_bound():
    rho = comm(S213)
    # degree 10 is 267 x 267 = 71289 entries, degree 11 is 539 x 546
    cert = torsion_free_certificate(rho, 24, budget=71289)
    assert cert.aborted_degree == 11
    assert [r.degree for r in cert.degrees] == list(range(1, 11))
    with pytest.raises(BudgetExceeded) as err:
        quotient.ideal_component(rho, 11, budget=71289)
    assert (err.value.rows, err.value.cols) == (539, 546)
