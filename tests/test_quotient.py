from random import Random

import pytest

from magnuslie import quotient
from magnuslie import (BudgetExceeded, LieElement, TorsionReport, WeightScheme,
                       bracket, candidate_series, generator_element,
                       hilbert_crosscheck, ideal_component, ideal_component_alt,
                       integer_row_space, lyndon_words, modp_dimension_check,
                       pbw_series, torsion_free_certificate, witt_dimensions)
from magnuslie.brackets import BracketTable
from test_liebasis import product_of_powers

S20 = WeightScheme(2, 0, 1)
S112 = WeightScheme(1, 1, 2)
S213 = WeightScheme(2, 1, 3)


def xi(scheme, i):
    return generator_element(scheme, i)


def rho_comm(scheme):
    return bracket(xi(scheme, 0), xi(scheme, 1))


def dense(rows, scheme, n):
    """Word-keyed rows as a matrix over the Lyndon basis of degree n."""
    return tuple(tuple(row.get(w, 0) for w in lyndon_words(scheme, n)) for row in rows)


# -- independent dimension oracles -----------------------------------------
#
# Free dimensions by Newton's identities plus Moebius inversion on the
# word-count series 1/(1 - m t - n t^e); quotient dimensions by the
# logarithmic derivative of the candidate series.  Both paths avoid the
# Lyndon enumeration and the Smith reduction entirely.


def _moebius(k):
    out, d, left = 1, 2, k
    while d * d <= left:
        if left % d == 0:
            left //= d
            if left % d == 0:
                return 0
            out = -out
        d += 1
    if left > 1:
        out = -out
    return out


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def free_dims_oracle(m, n, e, upto):
    # power sums of the inverse roots of 1 - m t - n t^e
    coeffs = {1: -m}
    coeffs[e] = coeffs.get(e, 0) - n
    s = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = -k * coeffs.get(k, 0)
        for i in range(1, k):
            acc -= coeffs.get(i, 0) * s[k - i]
        s[k] = acc
    dims = []
    for k in range(1, upto + 1):
        total = sum(_moebius(k // j) * s[j] for j in _divisors(k))
        assert total % k == 0
        dims.append(total // k)
    return dims


def quotient_dims_oracle(m, n, e, d, upto):
    c = candidate_series(m, n, e, d, upto)
    q = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = k * c[k]
        for i in range(1, k):
            acc -= q[i] * c[k - i]
        q[k] = acc
    dims = [0] * (upto + 1)
    for k in range(1, upto + 1):
        rest = sum(j * dims[j] for j in _divisors(k) if j < k)
        assert (q[k] - rest) % k == 0
        dims[k] = (q[k] - rest) // k
    return dims[1:]


def test_free_dims_oracle_matches_witt():
    for scheme in (S20, S112, S213, WeightScheme(3, 1, 4)):
        assert witt_dimensions(scheme, 9) == free_dims_oracle(
            scheme.m, scheme.n, scheme.e, 9)


def test_ideal_component_base_degree():
    rows = ideal_component(rho_comm(S20), 2)
    assert len(rows) == 1
    assert dense(rows, S20, 2) == ((1,),)


def test_ideal_component_next_degree():
    rows = ideal_component(rho_comm(S20), 3)
    assert len(rows) == 2
    report = torsion_free_certificate(rho_comm(S20), 3).degrees[2]
    assert report.rank == 2 and report.dim_free == 2


def test_ideal_component_scalar_relator():
    rho = LieElement(S20, 1, {(0,): 2})
    rows = ideal_component(rho, 1)
    assert dense(rows, S20, 1) == ((2, 0),)


def test_ideal_component_rejects_low_degree():
    with pytest.raises(ValueError):
        ideal_component(rho_comm(S20), 1)
    with pytest.raises(ValueError):
        ideal_component(LieElement.zero(S20, 2), 2)


def test_degree_reports_abelian_quotient():
    rho = rho_comm(S20)
    r2 = torsion_free_certificate(rho, 2).degrees[1]
    assert (r2.rank, r2.divisors, r2.dim_quotient) == (1, (1,), 0)
    r3 = torsion_free_certificate(rho, 3).degrees[2]
    assert (r3.rank, r3.divisors, r3.dim_quotient) == (2, (1, 1), 0)
    for n in (4, 5, 6):
        rn = torsion_free_certificate(rho, n).degrees[n - 1]
        assert rn.dim_quotient == 0 and not rn.torsion


def test_degree_report_torsion():
    rho = LieElement(S20, 1, {(0,): 2})
    r1 = torsion_free_certificate(rho, 1).degrees[0]
    assert r1.divisors == (2,) and r1.torsion == (2,)


def test_certificate_accepted_corpus_member():
    cert = torsion_free_certificate(rho_comm(S213), 8)
    assert cert.torsion_free
    assert cert.note is None
    assert cert.aborted_degree is None
    assert [r.dim_free for r in cert.degrees] == witt_dimensions(S213, 8)
    expected_q = quotient_dims_oracle(2, 1, 3, 2, 8)
    assert [r.dim_quotient for r in cert.degrees] == expected_q
    assert expected_q == [2, 0, 1, 2, 3, 4, 7, 10]


def test_certificate_negative_control():
    rho = LieElement(S112, 1, {(0,): 2})
    cert = torsion_free_certificate(rho, 3)
    assert not cert.torsion_free
    assert cert.degrees[0].divisors == (2,)
    assert cert.note is not None and "content is 2" in cert.note


def test_certificate_budget_abort():
    cert = torsion_free_certificate(rho_comm(S213), 8, budget=10)
    assert cert.aborted_degree is not None
    assert cert.aborted_degree <= 8
    with pytest.raises(BudgetExceeded):
        ideal_component(rho_comm(S213), 8, budget=10)


def test_budget_abort_at_the_relator_degree():
    # the budget refuses the relator's own degree, so the certificate
    # holds no ranks; mod-p still reads the relator's content from it
    rho = rho_comm(S213).scale(2)
    cert = torsion_free_certificate(rho, 4, budget=0, primes=(2,))
    assert cert.aborted_degree == 2 and cert.modp_ranks == {2: ()}
    check = modp_dimension_check(cert)
    assert check.aborted_degree == 2
    assert check.reports[0].rows == ()
    assert check.note.startswith("relator content 2 is divisible by [2]")


def test_hilbert_abelian_example():
    # rank-2 abelian quotient: both sides are 1/(1-t)^2
    cert = torsion_free_certificate(rho_comm(S20), 6)
    table = hilbert_crosscheck(cert)
    assert table.all_match
    assert table.candidate == tuple(k + 1 for k in range(7))
    assert table.pbw == table.candidate


def test_hilbert_corpus_match():
    cert = torsion_free_certificate(rho_comm(S213), 8)
    table = hilbert_crosscheck(cert)
    assert table.all_match
    assert table.candidate == (1, 2, 3, 5, 9, 16, 28, 49, 86)
    assert "validated" in table.formula_status


def test_hilbert_mismatch_is_flagged():
    cert = torsion_free_certificate(rho_comm(S213), 6)
    # sabotage: a wrong relator degree shifts the candidate series
    table = hilbert_crosscheck(TorsionReport(
        cert.relator, 3, cert.max_degree, cert.degrees, cert.torsion_free,
        cert.aborted_degree, cert.note, cert.modp_ranks))
    assert not table.all_match
    assert "suspect" in table.formula_status


def test_modp_matches_on_accepted_input():
    rho = rho_comm(S213)
    cert = torsion_free_certificate(rho, 8, primes=(2, 3, 5, 7))
    check = modp_dimension_check(cert)
    assert check.all_match
    assert check.note is None
    for table in check.reports:
        assert table.all_match
        for row in table.rows:
            assert row.rank_mod_p == row.rank_integer


def test_modp_flags_two_torsion():
    rho = LieElement(S112, 1, {(0,): 2})
    check = modp_dimension_check(torsion_free_certificate(rho, 1, primes=(2,)))
    assert not check.all_match
    assert check.note is not None
    row = check.reports[0].rows[0]
    assert (row.rank_mod_p, row.rank_integer) == (0, 1)


@pytest.mark.parametrize("primes", [(4,), (2, 9), (1,)])
def test_modp_rejects_non_primes(primes):
    # mod-p checks the certificate's primes, and the certificate refuses these
    with pytest.raises(ValueError, match="not a prime"):
        modp_dimension_check(
            torsion_free_certificate(rho_comm(S213), 4, primes=primes))


def test_modp_refuses_a_prime_the_certificate_did_not_rank():
    # mod-p has no primes of its own: it checks the ones the certificate
    # ranked, in the order they were given, and no other
    rho = rho_comm(S213)
    assert torsion_free_certificate(rho, 4).modp_ranks == {}
    assert torsion_free_certificate(rho, 4, primes=iter(())).modp_ranks == {}
    with pytest.raises(ValueError, match="the prime 3 is repeated"):
        torsion_free_certificate(rho, 4, primes=(3, 2, 3))
    check = modp_dimension_check(torsion_free_certificate(rho, 4, primes=(3, 2)))
    assert check.primes == (3, 2)
    assert [r.prime for r in check.reports] == [3, 2]
    assert modp_dimension_check(torsion_free_certificate(rho, 4, primes=(2,))).reports \
        == check.reports[1:]


def test_modp_of_a_certificate_built_without_primes_raises():
    with pytest.raises(ValueError) as caught:
        modp_dimension_check(torsion_free_certificate(rho_comm(S213), 4))
    assert str(caught.value) == ("no primes given: the certificate ranked none; "
                                 "pass them to torsion_free_certificate")


@pytest.mark.parametrize("primes, message", [
    ((), "no primes given"),
    (iter(()), "no primes given"),
    ((2, 2), "the prime 2 is repeated"),
    ((3, 2, 5, 3), "the prime 3 is repeated"),
])
def test_modp_rejects_empty_or_repeated_primes(primes, message):
    # a check of no prime checked nothing, and tables of one prime twice
    # say nothing new: the certificate refuses a repeated prime, and mod-p
    # a certificate that ranked none
    with pytest.raises(ValueError) as caught:
        modp_dimension_check(
            torsion_free_certificate(rho_comm(S213), 4, primes=primes))
    assert str(caught.value).startswith(message)


def test_modp_reuses_the_certificate_rows(monkeypatch):
    rho = rho_comm(S213)
    cert = torsion_free_certificate(rho, 8, primes=(2, 3))
    expected = modp_dimension_check(
        torsion_free_certificate(rho, 8, primes=(2, 3)))
    lower = torsion_free_certificate(rho, 6, primes=(2, 3))

    def unused(*args, **kwargs):
        raise AssertionError("mod-p recomputed what the certificate holds")

    monkeypatch.setattr(quotient, "_IdealSweep", unused)
    monkeypatch.setattr(quotient, "_echelon", unused)
    monkeypatch.setattr(quotient, "fp_ranks", unused)
    assert modp_dimension_check(cert) == expected
    assert modp_dimension_check(lower).reports[0].rows \
        == expected.reports[0].rows[:5]


def test_modp_reads_the_abort_from_the_certificate():
    rho = rho_comm(S213)
    cert = torsion_free_certificate(rho, 8, budget=200, primes=(2,))
    check = modp_dimension_check(cert)
    assert check.aborted_degree == cert.aborted_degree
    assert [r.degree for r in check.reports[0].rows] \
        == list(range(2, cert.aborted_degree))
    below = torsion_free_certificate(rho, cert.aborted_degree - 1, budget=200,
                                     primes=(2,))
    assert modp_dimension_check(below).aborted_degree is None


def _fresh_relators(scheme, degree, count, seed):
    rng = Random(seed)
    basis = lyndon_words(scheme, degree)
    relators = []
    while len(relators) < count:
        coords = {w: rng.randrange(-9, 10) for w in basis}
        if any(coords.values()):
            relators.append(LieElement(scheme, degree, coords))
    return relators


def test_concurrent_certificates_match_serial_ones(on_four_threads):
    scheme = WeightScheme(3, 0, 1)
    relators = _fresh_relators(scheme, 2, 20, seed=53)
    calls = []
    for rho in relators:
        calls += [(lambda rho: torsion_free_certificate(rho, 6).degrees[5], rho),
                  (torsion_free_certificate, rho, 6)] * 2
    results = on_four_threads(calls)
    # the serial reference runs on -rho: the same ideal, hence equal
    # reports, computed from nothing the threaded calls made
    for k, rho in enumerate(relators):
        serial = (torsion_free_certificate(-rho, 6).degrees[5],
                  torsion_free_certificate(-rho, 6))
        assert tuple(results[4 * k:4 * k + 2]) == serial
        assert tuple(results[4 * k + 2:4 * k + 4]) == serial


def test_high_cap_stops_at_the_budget_without_enumerating_the_cap():
    # the free dimensions up to the cap are counted, so only the degrees
    # the sweep reaches are ever enumerated
    cert = torsion_free_certificate(rho_comm(S213), 24)
    assert cert.aborted_degree == 14
    assert cert.torsion_free
    assert [r.degree for r in cert.degrees] == list(range(1, 14))


def test_modp_generator_relator_gives_smaller_free_ring():
    scheme = WeightScheme(2, 1, 2)
    rho = generator_element(scheme, 0)
    cert = torsion_free_certificate(rho, 6, primes=(3,))
    assert cert.torsion_free
    smaller = witt_dimensions(S112, 6)
    assert [r.dim_quotient for r in cert.degrees] == smaller
    check = modp_dimension_check(cert)
    assert check.all_match


def _row_space(rows, scheme, degree):
    basis = lyndon_words(scheme, degree)
    index = {w: i for i, w in enumerate(basis)}
    rows = [{index[w]: c for w, c in row.items()} for row in rows]
    return integer_row_space(rows, len(basis))


@pytest.mark.parametrize("scheme,d_rho,extra", [
    (S20, None, 3), (S213, None, 3), (S112, None, 2),
])
def test_strategy_independence_small(scheme, d_rho, extra):
    rho = rho_comm(scheme) if scheme.m >= 2 else bracket(xi(scheme, 0), xi(scheme, 1))
    for n in range(rho.degree, rho.degree + extra + 1):
        primary = ideal_component(rho, n)
        alt = [e.coords for e in ideal_component_alt(rho, n)]
        assert _row_space(primary, scheme, n) == _row_space(alt, scheme, n)


def test_strategy_independence_random_relators():
    rng = Random(41)
    for _ in range(30):
        scheme = (S20, S112, S213)[rng.randrange(3)]
        degree = rng.randrange(1, 4)
        basis = lyndon_words(scheme, degree)
        if not basis:
            continue
        coords = {w: rng.choice([-2, -1, 1, 2]) for w in basis if rng.randrange(2)}
        if not coords:
            coords = {basis[0]: 1}
        rho = LieElement(scheme, degree, coords)
        n = degree + rng.randrange(1, 3)
        primary = ideal_component(rho, n)
        alt = [e.coords for e in ideal_component_alt(rho, n)]
        assert _row_space(primary, scheme, n) == _row_space(alt, scheme, n)


def sorted_key_alt(rho, n):
    """``ideal_component_alt`` as it deduplicated each level before, by
    the sorted tuple of each value's coordinates, and the number of
    duplicates that dropped."""
    scheme, d = rho.scheme, rho.degree
    table = BracketTable(scheme)
    levels, dropped = {d: [rho]}, 0
    for k in range(d + 1, n + 1):
        found = [bracket(LieElement(scheme, k - d, {word: 1}), rho, table)
                 for word in lyndon_words(scheme, k - d)]
        for letter in range(scheme.letters):
            for q in levels.get(k - scheme.letter_weight(letter), ()):
                found.append(bracket(xi(scheme, letter), q, table))
        found = [e for e in found if not e.is_zero()]
        levels[k] = list({tuple(sorted(e.coords.items())): e for e in found}.values())
        dropped += len(found) - len(levels[k])
    return tuple(levels[n]), dropped


def test_alt_levels_keep_the_first_of_each_value_in_order():
    rng = Random(59)
    dropped = 0
    for _ in range(40):
        scheme = (S20, S112, S213)[rng.randrange(3)]
        degree = rng.randrange(1, 4)
        basis = lyndon_words(scheme, degree)
        if not basis:
            continue
        coords = {w: rng.choice([-2, -1, 1, 2]) for w in basis if rng.randrange(2)}
        rho = LieElement(scheme, degree, coords or {basis[0]: 1})
        n = degree + rng.randrange(1, 4)
        expected, count = sorted_key_alt(rho, n)
        got = ideal_component_alt(rho, n)
        assert got == expected
        assert [list(e.coords.items()) for e in got] \
            == [list(e.coords.items()) for e in expected]
        dropped += count
    assert dropped


def test_quotient_dims_bounds():
    cert = torsion_free_certificate(rho_comm(S213), 8)
    for r in cert.degrees:
        assert 0 <= r.dim_quotient <= r.dim_free
        assert r.rank + r.dim_quotient == r.dim_free


def test_pbw_series_helper():
    # one generator in each weight 1 and 2: 1/((1-t)(1-t^2))
    assert pbw_series([1, 1], 5) == [1, 1, 2, 2, 3, 3]


def test_pbw_series_matches_the_product_of_its_factors():
    rng = Random(20)
    for _ in range(60):
        order = rng.randint(0, 16)
        dims = [rng.randint(0, 500) for _ in range(rng.randint(0, 20))]
        expected = product_of_powers(
            ((k, -dim) for k, dim in enumerate(dims, start=1)), order)
        assert pbw_series(dims, order) == expected
