"""The block-by-block ideal sweep against the sweeps it replaced.

The first reference below keeps every distinct left-normed ad-monomial
value, level by level, as the sweep did before it was fed by echelon
bases.  Both generate the same degree pieces of the ideal (rho), so
their rows must have equal integer row spaces, and hence equal ranks,
elementary divisors and F_p ranks.  The second reference is the
echelon-fed sweep as it ran before it split each degree into blocks:
one matrix per degree, ranked, eliminated and put through the Smith
step whole.  The certificate must report the same ranks, divisors and
F_p ranks as that loop.
"""

import pytest

from magnuslie import (BudgetExceeded, LieElement, WeightScheme, bracket, fp_ranks,
                       generator_element, integer_row_space, lyndon_words,
                       modp_dimension_check, smith_normal_form,
                       torsion_free_certificate)
from magnuslie import liebasis, quotient
from magnuslie.liebasis import _add_bracket
from test_snf import per_prime_rank

S112 = WeightScheme(1, 1, 2)
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


def advance(sweep):
    """Take the sweep through its next degree, block by block, and return
    the degree's echelon basis: the blocks' bases merged, as blocks
    share no lead column."""
    pivots = {}
    for block in sweep.next_degree():
        pivots.update(sweep.eliminate(block, sweep.next_rows(block)))
    return pivots


def sweep_rows(rho, max_degree):
    """The sweep's rows of degrees d..max_degree, block after block,
    copied before each block's elimination consumes them."""
    sweep = quotient._IdealSweep(rho, max_degree, quotient.DEFAULT_BUDGET)
    levels = []
    for _ in range(rho.degree, max_degree + 1):
        levels.append([])
        for block in sweep.next_degree():
            rows = sweep.next_rows(block)
            levels[-1] += [dict(row) for row in rows]
            sweep.eliminate(block, rows)
    return levels


def eliminated_rows(monkeypatch):
    """Degree -> copies of the rows the sweep's eliminations of that
    degree's blocks receive, in call order."""
    seen = {}
    eliminate = quotient._IdealSweep.eliminate

    def recording(sweep, block, rows):
        seen.setdefault(sweep.degree, []).extend(dict(row) for row in rows)
        return eliminate(sweep, block, rows)

    monkeypatch.setattr(quotient._IdealSweep, "eliminate", recording)
    return seen


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
def test_certificate_rows_are_the_ideal_components_over_column_indices(
        monkeypatch, scheme, make):
    rho = make(scheme)
    with monkeypatch.context() as patch:
        eliminated = eliminated_rows(patch)
        torsion_free_certificate(rho, 9)
    assert list(eliminated) == list(range(rho.degree, 10))
    for n, rows in eliminated.items():
        basis = lyndon_words(scheme, n)
        assert [{basis[i]: c for i, c in row.items()} for row in rows] \
            == quotient.ideal_component(rho, n), n
    sweep = quotient._IdealSweep(rho, 10, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, 10):
        advance(sweep)
        for blocks in sweep.bases.values():
            for pivots in blocks.values():
                for lead, row in pivots.items():
                    assert lead.__class__ is int and row[lead], n
                    assert all(c.__class__ is int for c in row), n


def bracket_rows(sweep, n, block):
    """A block's rows by ``bracket``: [g, e] for each (generator g, source
    block) pair of the block and each kept basis row e of that source,
    in the sweep's order, word-keyed."""
    scheme = sweep.scheme
    rows = []
    for g, key in block[1]:
        k = n - scheme.letter_weight(g)
        for coords in sweep.bases[k][key].values():
            e = LieElement(scheme, k, {sweep.words[k][j]: c for j, c in coords.items()})
            image = bracket(x(scheme, g), e)
            if not image.is_zero():
                rows.append(image.coords)
    return rows


@pytest.mark.parametrize("scheme, make", ROW_SPACE_CASES + [
    (S201, lambda s: x(s, 0).scale(2)),  # reaches [x1, x1]
])
def test_ad_table_rows_equal_brackets_with_the_kept_bases(scheme, make):
    rho = make(scheme)
    sweep = quotient._IdealSweep(rho, 9, quotient.DEFAULT_BUDGET)
    advance(sweep)
    for n in range(rho.degree + 1, 10):
        for block in sweep.next_degree():
            expected = bracket_rows(sweep, n, block)
            rows = sweep.next_rows(block)
            basis = sweep.words[n]
            assert [{basis[i]: c for i, c in row.items()} for row in rows] \
                == expected, (n, block[0])
            sweep.eliminate(block, rows)


def test_modp_check_enumerates_no_lyndon_words(monkeypatch):
    certs = [torsion_free_certificate(make(scheme), 9, primes=PRIMES)
             for scheme, make in ROW_SPACE_CASES]
    expected = [modp_dimension_check(cert) for cert in certs]

    def refuse(scheme, n):
        raise AssertionError("the mod-p check enumerated Lyndon words")

    monkeypatch.setattr(quotient, "lyndon_words", refuse)
    assert [modp_dimension_check(cert) for cert in certs] == expected


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
        sweep = quotient._IdealSweep(make(scheme), top, quotient.DEFAULT_BUDGET)
        while sweep.degree < top:
            pivots = advance(sweep)
            largest = max(abs(v) for row in pivots.values() for v in row.values())
            assert largest.bit_length() <= 128, sweep.degree


@pytest.mark.parametrize("scheme, make, top_z, top_p", TORSION_CASES)
def test_divisors_and_fp_ranks_equal_the_dedup_sweep(scheme, make, top_z, top_p):
    rho = make(scheme)
    cert = torsion_free_certificate(rho, top_p, primes=PRIMES)
    check = modp_dimension_check(cert)
    assert cert.aborted_degree is None
    for n, old in zip(range(rho.degree, top_p + 1), dedup_sweep_rows(rho, top_p)):
        rows = indexed(old, scheme, n)
        if n <= top_z:
            assert cert.degrees[n - 1].divisors \
                == smith_normal_form(rows).divisors, n
        for report, p in zip(check.reports, PRIMES):
            assert report.rows[n - rho.degree].rank_mod_p \
                == per_prime_rank(rows, p), n


@pytest.mark.parametrize("scheme, rho, top, content_two", [
    # the corpus relators
    (S213, comm(S213), 8, False),
    (S214, bracket(comm(S214), x(S214, 0)), 9, False),
    (S314, bracket(comm(S314), x(S314, 2)), 8, False),
    # content-2 negative controls: every row is even, so the rank mod 2 is 0
    (S112, x(S112, 0).scale(2), 6, True),
    (S213, comm(S213).scale(2), 8, True),
], ids=["[x1,x2]", "[[x1,x2],x1]", "[[x1,x2],x3]", "2*x1", "2*[x1,x2]"])
def test_streamed_ranks_equal_the_ranks_of_the_ideal_components(
        scheme, rho, top, content_two):
    cert = torsion_free_certificate(rho, top, primes=PRIMES)
    assert cert.aborted_degree is None
    for n in range(rho.degree, top + 1):
        rows = indexed(quotient.ideal_component(rho, n), scheme, n)
        expected = fp_ranks(rows, PRIMES)
        assert {p: cert.modp_ranks[p][n - rho.degree] for p in PRIMES} \
            == expected, n
        if content_two:
            assert expected[2] == 0, n
            assert expected[3] == cert.degrees[n - 1].rank, n
    assert all(len(ranks) == top - rho.degree + 1
               for ranks in cert.modp_ranks.values())


def test_non_unit_leads_are_fed_upward():
    scheme, make, _, _ = TORSION_CASES[2]
    rho = make(scheme)
    assert rho.content() == 1
    sweep = quotient._IdealSweep(rho, 9, quotient.DEFAULT_BUDGET)
    for _ in range(rho.degree, 10):
        pivots = advance(sweep)
        assert any(abs(row[lead]) != 1 for lead, row in pivots.items())


@pytest.mark.parametrize("scheme, rho", [
    (S201, comm(S201)), (S213, comm(S213)), (S314, bracket(comm(S314), x(S314, 2))),
    (S214, bracket(x(S214, 0), x(S214, 2))),
])
def test_sweep_keeps_at_most_max_letter_weight_bases(scheme, rho):
    weights = set(scheme.letter_weights())
    top = rho.degree + 5
    sweep = quotient._IdealSweep(rho, top, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, top + 1):
        blocks = sweep.next_degree()
        assert sweep.degree == n
        # exactly the degrees that degree n or a later one up to the cap
        # reads, at most max-letter-weight of them
        readers = {k for k in range(rho.degree, n)
                   if any(n <= k + w <= top for w in weights)}
        assert set(sweep.bases) == readers, n
        assert len(readers) <= max(weights)
        for block in blocks:
            sweep.eliminate(block, sweep.next_rows(block))
    # the cap's own blocks go once their Smith step has read them
    assert top not in sweep.bases


def test_budget_is_checked_before_any_bracket_or_elimination(monkeypatch):
    # the bound read from the kept bases is the exact row count of
    # [x1,x2] over (2,1,3), degree by degree
    rho = comm(S213)
    sweep = quotient._IdealSweep(rho, 12, quotient.DEFAULT_BUDGET)

    def unused(*args, **kwargs):
        raise AssertionError("work spent on a degree the budget refuses")

    for n in range(2, 13):
        with monkeypatch.context() as patch:
            patch.setattr(quotient, "_bracket_words", unused)
            patch.setattr(quotient, "_echelon", unused)
            sweep.budget = 0
            with pytest.raises(BudgetExceeded) as err:
                sweep.next_degree()
        assert (err.value.degree, err.value.cols) \
            == (n, len(lyndon_words(S213, n)))
        assert sweep.degree == n - 1
        sweep.budget = quotient.DEFAULT_BUDGET
        built = 0
        for block in sweep.next_degree():
            rows = sweep.next_rows(block)
            built += len(rows)
            sweep.eliminate(block, rows)
        assert built == err.value.rows


@pytest.mark.parametrize("rho, top", [
    (comm(S213), 10), (bracket(comm(S314), x(S314, 2)), 8),
    (x(S201, 0).scale(2), 6),  # reaches [x1, x1]
], ids=["[x1,x2]", "[[x1,x2],x3]", "2*x1"])
def test_certificate_reads_each_bracket_pair_once_in_stored_order(
        monkeypatch, rho, top):
    # the rule recurses through the module name, so the spy sees every
    # request, the ones the memo answers included
    table = liebasis._bracket_words
    requests = []

    def spy(u, v):
        requests.append((u, v))
        return table(u, v)

    swept = []

    def sweep_spy(u, v):
        swept.append((u, v))
        return spy(u, v)

    table.cache_clear()
    monkeypatch.setattr(liebasis, "_bracket_words", spy)
    monkeypatch.setattr(quotient, "_bracket_words", sweep_spy)
    torsion_free_certificate(rho, top)
    assert requests and all(u < v for u, v in requests)
    assert table.cache_info().currsize == len(set(requests))
    # the sweep builds [g, v] = gv for g < v itself: it asks the memo only
    # for [v, g] with v < g, g the generator
    assert swept and all(len(g) == 1 for _, g in swept)


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


# -- the degree loop the block sweep replaced ------------------------------


class DegreeSweep:
    """The echelon-fed sweep as it ran before blocks: each degree's rows
    are [g, e] for each generator g and each row e of the whole echelon
    basis of degree n - w_g, built and eliminated as one matrix."""

    def __init__(self, rho):
        self.rho = rho
        self.scheme = rho.scheme
        self.degree = rho.degree - 1
        self.bases = {}
        self.words = {}

    def next_rows(self):
        n = self.degree + 1
        basis = lyndon_words(self.scheme, n)
        index = {word: i for i, word in enumerate(basis)}
        if n == self.rho.degree:
            return [{index[w]: c for w, c in self.rho.coords.items()}], basis
        rows = []
        for letter, w in enumerate(self.scheme.letter_weights()):
            source = self.bases.get(n - w)
            if not source:
                continue
            table = quotient._ad_table((letter,), self.words[n - w], index,
                                       set().union(*source.values()))
            for coords in source.values():
                row = {}
                for j, c in coords.items():
                    for i, b in table[j]:
                        if value := row.get(i, 0) + c * b:
                            row[i] = value
                        else:
                            del row[i]
                if row:
                    rows.append(row)
        return rows, basis

    def eliminate(self, rows, basis):
        n = self.degree + 1
        pivots = quotient._echelon(rows)
        self.bases[n], self.words[n] = pivots, basis
        drop = n - max(self.scheme.letter_weights())
        self.bases.pop(drop, None)
        self.words.pop(drop, None)
        self.degree = n
        return pivots


def degree_loop(rho, top):
    """(rank, divisors, F_p ranks) of each whole degree d..top."""
    sweep = DegreeSweep(rho)
    out = []
    for _ in range(rho.degree, top + 1):
        rows, basis = sweep.next_rows()
        ranks = fp_ranks(rows, PRIMES)
        result = quotient._smith_from_echelon(sweep.eliminate(rows, basis))
        out.append((result.rank, result.divisors, ranks))
    return out


S212 = WeightScheme(2, 1, 2)

# (scheme, relator, top degree, the grading the blocks follow); the
# corpus relators first (trivial_v's [x1,x2] over (2,1,3) is
# commutator_basic's), [[x1,x2],x3] only through degree 10: degree 13
# has 143,055 columns over (3,1,4)
DEGREE_LOOP_CASES = [
    (S213, comm(S213), 13, "content"),
    (S214, bracket(comm(S214), x(S214, 0)), 13, "content"),
    (S314, bracket(comm(S314), x(S314, 2)), 10, "content"),
    (S112, x(S112, 0).scale(2), 13, "content"),
    # neither multihomogeneous nor monic: leads 2 and 3 throughout
    (S201, bracket(comm(S201), x(S201, 0)).scale(2)
     + bracket(comm(S201), x(S201, 1)).scale(3), 11, "x and y"),
    # the divisor 2 of every block must survive the merge
    (S213, comm(S213).scale(2), 11, "content"),
    # y letters in the relator, in each of the three gradings
    (S213, bracket(x(S213, 0), x(S213, 2)), 11, "content"),
    (S213, bracket(x(S213, 0), x(S213, 2))
     + bracket(x(S213, 1), x(S213, 2)).scale(2), 11, "x and y"),
    (S212, comm(S212) + x(S212, 2).scale(3), 11, "none"),
]


@pytest.mark.parametrize("scheme, rho, top, grading", DEGREE_LOOP_CASES, ids=[
    "[x1,x2]", "[[x1,x2],x1]", "[[x1,x2],x3]", "2*x1",
    "2[[x1,x2],x1]+3[[x1,x2],x2]", "2[x1,x2]", "[x1,y1]", "[x1,y1]+2[x2,y1]",
    "[x1,x2]+3y1"])
def test_block_sweep_reports_what_the_degree_loop_did(scheme, rho, top, grading):
    classes = quotient._letter_classes(rho)
    assert grading == ("none" if classes is None else
                       "content" if classes == range(scheme.letters) else "x and y")
    # the reference loop has no budget; degree 10 of [[x1,x2],x3] is
    # past the default one
    cert = torsion_free_certificate(rho, top, budget=10 ** 9, primes=PRIMES)
    assert cert.aborted_degree is None
    expected = degree_loop(rho, top)
    got = [(r.rank, r.divisors, {p: cert.modp_ranks[p][r.degree - rho.degree]
                                 for p in PRIMES})
           for r in cert.degrees[rho.degree - 1:]]
    assert got == expected
    if rho.content() == 2:
        # (2 rho) = 2 (rho), and rho's divisors are all 1
        assert all(r.divisors == (2,) * r.rank for r in cert.degrees)


def test_each_block_of_2_comm_has_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rho = comm(S213).scale(2)
    sweep = quotient._IdealSweep(rho, 7, quotient.DEFAULT_BUDGET)
    for n in range(rho.degree, 8):
        for block in sweep.next_degree():
            rows = sweep.next_rows(block)
            matrix = sympy.Matrix([[row.get(i, 0) for i in range(len(sweep.words[n]))]
                                   for row in rows])
            expected = [abs(int(v)) for v in invariant_factors(matrix, domain=sympy.ZZ)
                        if v]
            result = quotient._smith_from_echelon(sweep.eliminate(block, rows))
            assert list(result.divisors) == expected, (n, block[0])
            assert 2 in result.divisors, (n, block[0])
