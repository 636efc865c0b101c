import importlib
import pkgutil
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd
from random import Random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import magnuslie
from magnuslie import (DegreeAboveCutoff, LieElement, NotLieElement, Series,
                       WeightScheme, bracket, filtration_degree,
                       generator_element, group_commutator, leading_lie_form,
                       lyndon_words, to_lyndon_coords, witt_dimensions)
from magnuslie import free_reduce, standard_factorization, word_multiply
from magnuslie.checks import random_lie_element
from magnuslie.brackets import BracketTable
from magnuslie.liebasis import _is_lyndon, _lyndon_rewrite

S20 = WeightScheme(2, 0, 1)
S112 = WeightScheme(1, 1, 2)
S213 = WeightScheme(2, 1, 3)
S212 = WeightScheme(2, 1, 2)
S211 = WeightScheme(2, 1, 1)


# -- series oracle: products of (1 - t^k)^exponent, factor by factor -----


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or not ai:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def one_minus_tk_power(k, exponent, order):
    """(1 - t^k) ** exponent, truncated; negative exponents allowed."""
    out = [0] * (order + 1)
    if exponent >= 0:
        for j in range(0, min(exponent, order // k) + 1):
            out[k * j] = (-1) ** j * comb(exponent, j)
    else:
        g = -exponent
        for j in range(0, order // k + 1):
            out[k * j] = comb(g - 1 + j, j)
    return out


def product_of_powers(factors, order):
    """Product of (1 - t^k) ** exponent over (k, exponent) pairs."""
    out = [0] * (order + 1)
    out[0] = 1
    for k, exponent in factors:
        if exponent:
            out = poly_mul(out, one_minus_tk_power(k, exponent, order), order)
    return out


# -- brute force oracle: Lyndon = strictly smaller than all rotations ------


def brute_force_lyndon(scheme, weight):
    found = []
    letters = range(scheme.letters)
    for length in range(1, weight + 1):
        for word in product(letters, repeat=length):
            if scheme.monomial_weight(word) != weight:
                continue
            if all(word[i:] + word[:i] > word for i in range(1, length)):
                found.append(word)
    return sorted(found)


def test_lyndon_examples():
    assert lyndon_words(S20, 2) == [(0, 1)]
    assert lyndon_words(S20, 3) == [(0, 0, 1), (0, 1, 1)]
    assert lyndon_words(S112, 2) == [(1,)]


@pytest.mark.parametrize("scheme", [S20, S112, S213, WeightScheme(3, 2, 4)])
@pytest.mark.parametrize("weight", [1, 2, 3, 4, 5, 6])
def test_lyndon_against_brute_force(scheme, weight):
    assert lyndon_words(scheme, weight) == brute_force_lyndon(scheme, weight)


def _is_lyndon_by_rotation(word):
    return all(word[i:] + word[:i] > word for i in range(1, len(word)))


def test_lyndon_scan_matches_the_rotation_definition(letters=3, top=8):
    # Lyndon means smaller than every proper rotation; the standard
    # factorization's right factor is the longest proper Lyndon suffix
    for length in range(1, top + 1):
        for word in product(range(letters), repeat=length):
            lyndon = _is_lyndon_by_rotation(word)
            assert _is_lyndon(word) == lyndon, word
            if lyndon and length >= 2:
                cut = next(i for i in range(1, length)
                           if _is_lyndon_by_rotation(word[i:]))
                assert standard_factorization(word) == (word[:cut], word[cut:])
    assert not _is_lyndon(())


def test_witt_dimension_examples():
    assert witt_dimensions(S20, 5) == [2, 1, 2, 3, 6]
    assert witt_dimensions(S112, 4) == [1, 1, 1, 1]
    assert witt_dimensions(WeightScheme(1, 0, 1), 6) == [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("scheme", [S212, S213, S112, WeightScheme(3, 2, 4)])
def test_witt_generating_identity(scheme, upto=10):
    dims = witt_dimensions(scheme, upto)
    lhs = product_of_powers(((k, d) for k, d in enumerate(dims, 1)), upto)
    rhs = [0] * (upto + 1)
    rhs[0] = 1
    rhs[1] -= scheme.m
    if scheme.e <= upto:
        rhs[scheme.e] -= scheme.n
    assert lhs == rhs


def test_triangularity_of_basis_expansions():
    # expansion = own word with coefficient 1 plus lex-larger words
    for weight in range(1, 7):
        for word in lyndon_words(S212, weight):
            exp = LieElement(S212, weight, {word: 1}).expansion()
            assert exp[word] == 1
            assert min(exp) == word


def test_to_lyndon_coords_examples():
    elem = to_lyndon_coords(Series(S20, 1, {(0,): 1}), S20)
    assert elem.degree == 1 and elem.coords == {(0,): 1}

    p = Series(S20, 2, {(0, 1): 1, (1, 0): -1})
    elem = to_lyndon_coords(p, S20)
    assert elem.coords == {(0, 1): 1}

    with pytest.raises(NotLieElement):
        to_lyndon_coords(Series(S20, 2, {(0, 1): 1}), S20)


def test_to_lyndon_coords_rejects_constants_and_inhomogeneous():
    with pytest.raises(NotLieElement):
        to_lyndon_coords(Series(S20, 2, {(): 1}), S20)
    with pytest.raises(ValueError):
        to_lyndon_coords(Series(S20, 2, {(0,): 1, (0, 1): 1, (1, 0): -1}), S20)


# -- recognition against the Dynkin criterion -------------------------------


def left_normed_expansion(mono):
    """[..[[z1, z2], z3].., zk] expanded in the associative algebra."""
    out = {mono[:1]: 1}
    for z in mono[1:]:
        nxt = {}
        for m, c in out.items():
            nxt[m + (z,)] = nxt.get(m + (z,), 0) + c
            nxt[(z,) + m] = nxt.get((z,) + m, 0) - c
        out = nxt
    return out


def dynkin_accepts(terms):
    """Dynkin-Specht-Wever: p is a Lie element over Q exactly when each
    length-k part p_k has D(p_k) = k p_k; constants are never Lie."""
    by_length = {}
    for mono, c in terms.items():
        if c:
            by_length.setdefault(len(mono), {})[mono] = c
    for length, part in by_length.items():
        if length == 0:
            return False
        image = {}
        for mono, c in part.items():
            for m2, c2 in left_normed_expansion(mono).items():
                image[m2] = image.get(m2, 0) + c * c2
        if {m: c for m, c in image.items() if c} != {m: length * c for m, c in part.items()}:
            return False
    return True


def _change_one_coefficient(rng, terms):
    changed = dict(terms)
    longer = [m for m in changed if len(m) > 1]
    mono = rng.choice(sorted(longer or changed))
    changed[mono] += 1 if changed[mono] != -1 else 2
    return changed


@pytest.mark.parametrize("scheme, seed", [(S20, 1), (S212, 2), (S213, 3)])
def test_recognition_agrees_with_the_dynkin_oracle(scheme, seed):
    rng = Random(seed)
    table = BracketTable(scheme)
    verdicts = {"lie": 0, "not lie": 0}
    for _ in range(60):
        degree = rng.randrange(1, 7)
        elem = random_lie_element(rng, scheme, degree, table)
        if elem.is_zero():
            continue
        lie = elem.expansion()
        for terms in (lie, _change_one_coefficient(rng, lie)):
            series = Series(scheme, degree, terms)
            if not dynkin_accepts(terms):
                verdicts["not lie"] += 1
                with pytest.raises(NotLieElement):
                    to_lyndon_coords(series, scheme)
                continue
            verdicts["lie"] += 1
            got = to_lyndon_coords(series, scheme)
            assert got.expansion() == terms
            if terms is lie:
                assert got == elem
    assert all(verdicts.values()), verdicts


def test_bracket_examples():
    xi1 = generator_element(S20, 0)
    xi2 = generator_element(S20, 1)
    assert bracket(xi1, xi2).coords == {(0, 1): 1}
    assert bracket(xi1, xi1).is_zero()
    assert bracket(xi2, xi1).coords == {(0, 1): -1}


def test_bracket_known_nested_values():
    xi1, xi2 = generator_element(S20, 0), generator_element(S20, 1)
    inner = bracket(xi1, xi2)
    assert bracket(inner, xi1).coords == {(0, 0, 1): -1}
    assert bracket(inner, xi2).coords == {(0, 1, 1): 1}
    s3 = WeightScheme(3, 0, 1)
    a, b, c = (generator_element(s3, i) for i in range(3))
    assert bracket(bracket(a, b), c).coords == {(0, 1, 2): 1, (0, 2, 1): 1}


# -- the standard-factorization rule against the paths it replaced ---------

S314 = WeightScheme(3, 1, 4)


def associative_bracket(a, b):
    """The associative commutator of the two expansions, rewritten."""
    comm = {}
    for ma, ca in a.expansion().items():
        for mb, cb in b.expansion().items():
            comm[ma + mb] = comm.get(ma + mb, 0) + ca * cb
            comm[mb + ma] = comm.get(mb + ma, 0) - ca * cb
    return _lyndon_rewrite(comm)


@lru_cache(maxsize=None)
def bracket_words(u, v):
    """Lyndon coordinates of [u, v] for Lyndon words u < v, keyed by words:
    the standard-factorization rule as a recursion of its own, a reference
    for the package's bracket table.  The Jacobi terms [u1, [u2, v]] and
    -[u2, [u1, v]] are read in stored order: every word w of [u2, v]
    exceeds u2, which exceeds u1."""
    if len(u) == 1:
        return {u + v: 1}
    u1, u2 = standard_factorization(u)
    if u2 >= v:
        return {u + v: 1}
    terms = [(bracket_words(u1, w), c) for w, c in bracket_words(u2, v).items()]
    for w, c in bracket_words(u1, v).items():
        if u2 < w:
            terms.append((bracket_words(u2, w), -c))
        elif w < u2:
            terms.append((bracket_words(w, u2), c))
    out = {}
    for pair, c in terms:
        for z, b in pair.items():
            if value := out.get(z, 0) + c * b:
                out[z] = value
            else:
                del out[z]
    return out


def add_bracket(out, a, b):
    """Add [a, b] of word-keyed coordinates to out, by ``bracket_words``;
    [v, u] = -[u, v] for u < v."""
    for u, cu in a.items():
        for v, cv in b.items():
            if u == v:
                continue
            pair, scale = ((bracket_words(u, v), cu * cv) if u < v
                           else (bracket_words(v, u), -cu * cv))
            for w, c in pair.items():
                if value := out.get(w, 0) + scale * c:
                    out[w] = value
                else:
                    del out[w]
    return out


@pytest.mark.parametrize("scheme", [S20, S213, S314])
def test_bracket_of_basis_words_matches_associative_oracle(scheme, top=8):
    table = BracketTable(scheme)  # every pair checked is filled here
    elems = [LieElement(scheme, k, {w: 1})
             for k in range(1, top) for w in lyndon_words(scheme, k)]
    for a in elems:
        for b in elems:
            if a.degree + b.degree <= top:
                expected = associative_bracket(a, b)
                assert bracket(a, b, table).coords == expected
                assert add_bracket({}, a.coords, b.coords) == expected


@pytest.mark.parametrize("scheme", [S20, S213, S314])
def test_a_shared_table_gives_what_a_fresh_one_gives(scheme):
    rng = Random(scheme.letters + scheme.e)
    degrees = [k for k in range(1, 5) if lyndon_words(scheme, k)]
    table = BracketTable(scheme)
    for _ in range(60):
        a = random_lie_element(rng, scheme, rng.choice(degrees), table)
        b = random_lie_element(rng, scheme, rng.choice(degrees), table)
        ab = bracket(a, b, table)
        assert ab == bracket(a, b) == LieElement(scheme, ab.degree,
                                                 add_bracket({}, a.coords, b.coords))
        assert list(ab.coords) == list(bracket(a, b).coords)
    assert table.memo


def test_a_zero_factor_numbers_no_words():
    table = BracketTable(S213)
    zero = LieElement.zero(S213, 40)
    for a, b in ((zero, generator_element(S213, 0)), (generator_element(S213, 1), zero)):
        assert bracket(a, b, table) == LieElement.zero(S213, 41)
    assert table.words == [] and table.offset == [0, 0]


@pytest.mark.parametrize("table_scheme, scheme", [
    (WeightScheme(2, 1, 4), S213),  # once a TypeError from inside the table
    (S213, WeightScheme(2, 1, 4)),  # once a silent fill of useless words
])
def test_a_table_of_other_letter_weights_is_refused(table_scheme, scheme):
    table = BracketTable(table_scheme)
    a, b = generator_element(scheme, 0), generator_element(scheme, 2)
    with pytest.raises(ValueError, match="bracket table of letter weights"):
        bracket(a, b, table)
    assert table.words == []
    # equal letter weights make the same table, whatever the schemes
    s301 = WeightScheme(3, 0, 1)
    a, b = generator_element(s301, 0), generator_element(s301, 2)
    assert bracket(a, b, BracketTable(S211)) == bracket(a, b)


@pytest.mark.parametrize("scheme", [S20, S213, S314])
def test_pair_table_right_factors_match_suffix_scan(scheme, top=8):
    table = BracketTable(scheme)
    table.register(top)
    words = table.words
    assert words and len(table.factors) == len(words)
    for word, pair in zip(words, table.factors):
        if len(word) >= 2:
            assert (words[pair[0]], words[pair[1]]) == standard_factorization(word)
            assert table.concat[pair] == table.ids[word]
        else:
            assert pair is None


@pytest.mark.parametrize("scheme", [S20, S112, S213, S314, WeightScheme(2, 2, 2)])
def test_witt_count_matches_enumeration(scheme, top=14):
    assert witt_dimensions(scheme, top) == [len(lyndon_words(scheme, k))
                                            for k in range(1, top + 1)]


def quadratic_witt_dimensions(scheme, up_to):
    """The Newton and Moebius recursions summed over every index below k,
    a reference for the package's sparse sums and divisor sieve."""
    c = [0] * (up_to + 1)
    c[1] -= scheme.m
    if scheme.e <= up_to:
        c[scheme.e] -= scheme.n
    p = [0] * (up_to + 1)
    for k in range(1, up_to + 1):
        p[k] = -k * c[k] - sum(c[i] * p[k - i] for i in range(1, k))
    dims = [0] * (up_to + 1)
    for k in range(1, up_to + 1):
        dims[k] = (p[k] - sum(d * dims[d] for d in range(1, k) if k % d == 0)) // k
    return dims[1:]


@pytest.mark.parametrize("scheme", [S213, S314, S20,
                                    WeightScheme(1, 1, 1), WeightScheme(5, 3, 2)])
def test_witt_dimensions_match_the_quadratic_recursions(scheme):
    for top in (1, 2, 300):
        assert witt_dimensions(scheme, top) == quadratic_witt_dimensions(scheme, top)


def test_lyndon_buckets_built_concurrently_match_the_witt_count(on_four_threads):
    scheme = WeightScheme(2, 3, 3)  # no other test builds these buckets
    assert lyndon_words(scheme, 1) == [(0,), (1,)]
    results = on_four_threads([(lyndon_words, scheme, 12)] * 4)
    dims = witt_dimensions(scheme, 12)
    for words in results:
        assert words == sorted(set(words)) and len(words) == dims[-1]
    assert [len(lyndon_words(scheme, k)) for k in range(1, 13)] == dims


coeff = st.integers(min_value=-3, max_value=3)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_round_trip_expansion(degree, data):
    basis = lyndon_words(S212, degree)
    coords = {}
    for word in basis:
        c = data.draw(coeff)
        if c:
            coords[word] = c
    elem = LieElement(S212, degree, coords)
    if elem.is_zero():
        return
    series = Series(S212, degree, elem.expansion())
    assert to_lyndon_coords(series, S212) == elem


def test_content():
    elem = LieElement(S20, 1, {(0,): 4, (1,): -6})
    assert elem.content() == 2
    assert LieElement.zero(S20, 3).content() == 0


def test_leading_form_power():
    d, form = leading_lie_form((1, 1), S20, 4)
    assert d == 1 and form.coords == {(0,): 2}


def test_leading_form_commutator():
    word = group_commutator((1,), (2,))
    d, form = leading_lie_form(word, S20, 4)
    assert d == 2
    assert form == bracket(generator_element(S20, 0), generator_element(S20, 1))


def test_leading_form_ignores_deep_y_part():
    word = word_multiply(group_commutator((1,), (2,)), (-3,))
    d, form = leading_lie_form(word, S213, 4)
    assert d == 2 and form.coords == {(0, 1): 1}


def test_leading_form_errors():
    with pytest.raises(ValueError):
        leading_lie_form((), S20, 4)
    deep = group_commutator(group_commutator((1,), (2,)), (1,))
    with pytest.raises(DegreeAboveCutoff):
        leading_lie_form(deep, S20, 2)


signed_letters = st.integers(min_value=-3, max_value=3).filter(lambda s: s != 0)
raw_words = st.lists(signed_letters, min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(raw_words)
def test_leading_components_are_always_lie(raw):
    word = free_reduce(raw, S212)
    if not word:
        return
    bound = filtration_degree(word, S212, 5)
    if not bound.exact:
        return
    # must not raise: lowest components of group words are Lie elements
    d, form = leading_lie_form(word, S212, 5)
    assert d == bound.bound
    assert not form.is_zero()


@settings(max_examples=60, deadline=None)
@given(raw_words, raw_words)
def test_leading_form_of_commutator_is_bracket(raw_w, raw_z):
    w = free_reduce(raw_w, S212)
    z = free_reduce(raw_z, S212)
    if not w or not z:
        return
    dw = filtration_degree(w, S212, 3)
    dz = filtration_degree(z, S212, 3)
    if not (dw.exact and dz.exact):
        return
    total = dw.bound + dz.bound
    if total > 6:
        return
    _, fw = leading_lie_form(w, S212, 3)
    _, fz = leading_lie_form(z, S212, 3)
    lie = bracket(fw, fz)
    if lie.is_zero():
        return
    d, form = leading_lie_form(group_commutator(w, z), S212, total)
    assert d == total and form == lie


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_jacobi_and_antisymmetry(data):
    def draw_elem():
        degree = data.draw(st.integers(min_value=1, max_value=2))
        basis = lyndon_words(S212, degree)
        coords = {}
        for word in basis:
            c = data.draw(coeff)
            if c:
                coords[word] = c
        if not coords:
            coords[basis[0]] = 1
        return LieElement(S212, degree, coords)

    a, b, c = draw_elem(), draw_elem(), draw_elem()
    assert (bracket(a, b) + bracket(b, a)).is_zero()
    total = (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
             + bracket(bracket(c, a), b))
    assert total.is_zero()


# -- construction validates every nonzero coordinate -----------------------


@pytest.mark.parametrize("scheme, degree, coords, error, message", [
    (S20, 2, {(1, 0): 1}, ValueError, "(1, 0) is not a Lyndon word"),
    (S20, 2, {(0, 0): 1}, ValueError, "(0, 0) is not a Lyndon word"),
    (S20, 3, {(0, 1): 1}, ValueError,
     "basis word (0, 1) is not homogeneous of degree 3"),
    # the degree is checked before the Lyndon property
    (S20, 3, {(1, 0): 1}, ValueError,
     "basis word (1, 0) is not homogeneous of degree 3"),
    (S20, 1, {(): 1}, ValueError, "basis word () is not homogeneous of degree 1"),
    (S20, 0, {(): 1}, ValueError, "() is not a Lyndon word"),
    (S20, 2, {(0, 2): 1}, ValueError,
     "letter index 2 out of range for (m=2, n=0, e=1)"),
    (S20, 2, {(-1, 0): 1}, ValueError,
     "letter index -1 out of range for (m=2, n=0, e=1)"),
    (S20, 2, {(0, 1): True}, TypeError, "integer coordinate expected, got True"),
    (S20, 2, {(0, 1): 1.0}, TypeError, "integer coordinate expected, got 1.0"),
    # coordinates are checked in order: the first bad one names the error
    (S20, 2, {(0, 1): 1, (1, 0): 2, (0, 5): 3}, ValueError,
     "(1, 0) is not a Lyndon word"),
])
def test_construction_rejects_bad_coordinates(scheme, degree, coords, error,
                                              message):
    with pytest.raises(error) as caught:
        LieElement(scheme, degree, coords)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("degree, coords, error, message", [
    (2.0, {(0, 1): 1}, TypeError, "integer degree expected, got 2.0"),
    (Fraction(2), {(0, 1): 1}, TypeError,
     "integer degree expected, got Fraction(2, 1)"),
    (True, {(0,): 1}, TypeError, "integer degree expected, got True"),
    (True, {}, TypeError, "integer degree expected, got True"),
    ("2", {}, TypeError, "integer degree expected, got '2'"),
    (0, {}, ValueError, "degree must be positive, got 0"),
    (-3, {}, ValueError, "degree must be positive, got -3"),
    (-3, {(0, 1): 0}, ValueError, "degree must be positive, got -3"),
])
def test_construction_rejects_a_degree_that_is_not_a_positive_int(
        degree, coords, error, message):
    with pytest.raises(error) as caught:
        LieElement(S20, degree, coords)
    assert type(caught.value) is error and str(caught.value) == message


def test_a_rejected_degree_never_reaches_a_bracket():
    # a float degree once spread through bracket into a series' cutoff
    with pytest.raises(TypeError):
        bracket(LieElement(S20, 2.0, {(0, 1): 1}), generator_element(S20, 0))
    with pytest.raises(ValueError):
        LieElement.zero(S20, 0)
    assert bracket(LieElement(S20, 2, {(0, 1): 1}),
                   generator_element(S20, 0)).degree.__class__ is int


def test_zero_coordinates_are_dropped_unchecked():
    elem = LieElement(S20, 2, {(1, 0): 0, (7,): 0, (): 0, (0, 1): 2})
    assert elem.coords == {(0, 1): 2}
    assert LieElement(S20, 5, {(-1, 1): 0}).is_zero()


def test_one_word_under_two_weightings():
    # (0, 2) has degree 2 when y1 has weight 1 and degree 4 when it has weight 3
    low = LieElement(S211, 2, {(0, 2): 1})
    high = LieElement(S213, 4, {(0, 2): 1})
    assert low.coords == high.coords == {(0, 2): 1}
    for scheme, degree in ((S213, 2), (S211, 4)):
        with pytest.raises(ValueError) as caught:
            LieElement(scheme, degree, {(0, 2): 1})
        assert str(caught.value) == f"basis word (0, 2) is not homogeneous of degree {degree}"
    with pytest.raises(ValueError) as caught:
        low.with_scheme(S213)
    assert str(caught.value) == "basis word (0, 2) is not homogeneous of degree 2"
    assert low.with_scheme(S211) == low


def test_with_scheme_into_a_smaller_alphabet():
    elem = LieElement(S211, 2, {(0, 2): 1, (0, 1): -1})
    with pytest.raises(ValueError) as caught:
        elem.with_scheme(S20)
    assert str(caught.value) == "letter index 2 out of range for (m=2, n=0, e=1)"
    assert LieElement(S211, 2, {(0, 1): -1}).with_scheme(S20) == LieElement(S20, 2, {(0, 1): -1})


@pytest.mark.parametrize("word", [(0.0, 1.0), (0, 1.0), (Fraction(0), 1)])
def test_non_integer_letters_are_rejected(word):
    # (0.0, 1.0) equals and hashes like (0, 1), which this builds first
    LieElement(S20, 2, {(0, 1): 1})
    with pytest.raises(TypeError) as caught:
        LieElement(S20, 2, {word: 1})
    assert str(caught.value) == f"integer letters expected, got {word!r}"


def test_bool_letters_are_the_integers_they_equal():
    # bool subclasses int, and (False, True) == (0, 1) with the same hash:
    # such a word is accepted and names the basis word (0, 1)
    elem = LieElement(S20, 2, {(False, True): 3})
    assert elem == LieElement(S20, 2, {(0, 1): 3})
    assert elem.to_text() == "3*L[x1 x2]"
    with pytest.raises(ValueError) as caught:
        LieElement(S20, 2, {(True, False): 1})
    assert str(caught.value) == "(True, False) is not a Lyndon word"


@pytest.mark.parametrize("scheme", [S20, S112, S211, S213, WeightScheme(3, 1, 4)])
def test_construction_accepts_exactly_the_lyndon_words_of_its_degree(scheme):
    rng = Random(10 * scheme.letters + scheme.e)
    words = [()] + lyndon_words(scheme, 5) + [
        tuple(rng.randrange(-2, scheme.letters + 2) for _ in range(rng.randrange(1, 8)))
        for _ in range(3000)]
    for word in words:
        try:
            weight = scheme.monomial_weight(word)
        except ValueError:  # a letter out of range
            weight = None
        for degree in range(9):
            try:
                built = LieElement(scheme, degree, {word: 1}).coords == {word: 1}
            except ValueError:
                built = False
            assert built == (weight == degree and _is_lyndon(word))


@pytest.mark.parametrize("scheme", [S20, S213, WeightScheme(3, 1, 4)])
def test_unchecked_results_pass_the_checked_constructor(scheme):
    # bracket, +, generator_element and to_lyndon_coords build their
    # values without the per-word checks
    rng = Random(10 * scheme.letters + scheme.e)
    degrees = [k for k in range(1, 5) if lyndon_words(scheme, k)]
    results = [generator_element(scheme, z) for z in range(scheme.letters)]
    table = BracketTable(scheme)
    for _ in range(100):
        a = random_lie_element(rng, scheme, rng.choice(degrees), table)
        b = random_lie_element(rng, scheme, rng.choice(degrees), table)
        c = random_lie_element(rng, scheme, a.degree, table)
        ab = bracket(a, b, table)
        results += [ab, a + c, a + (-a),
                    to_lyndon_coords(Series(scheme, a.degree, a.expansion()), scheme)]
        if not ab.is_zero():
            results.append(to_lyndon_coords(Series(scheme, ab.degree, ab.expansion()),
                                            scheme))
    assert any(x.is_zero() for x in results)
    for x in results:
        assert x == LieElement(scheme, x.degree, dict(x.coords))
        assert 0 not in x.coords.values()
    with pytest.raises(TypeError) as caught:
        generator_element(scheme, 1.0)
    assert str(caught.value) == "integer letters expected, got (1.0,)"


def test_the_package_keeps_no_memo():
    # no module-level state: the Lyndon words and their brackets live in
    # a table owned by one call or one suite run
    memos = set()
    for info in pkgutil.iter_modules(magnuslie.__path__, "magnuslie."):
        if info.name == "magnuslie.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        memos |= {f"{info.name}.{name}" for name, value in vars(module).items()
                  if hasattr(value, "cache_clear") and value.__module__ == info.name}
    assert memos == set()


def _build_each(scheme, degree, words):
    out = []
    for word in words:
        try:
            out.append(LieElement(scheme, degree, {word: 1}).coords)
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_construction_on_four_threads_matches_a_serial_run(on_four_threads):
    words = [w for n in range(1, 5) for w in product(range(-1, 4), repeat=n)]
    calls = [(_build_each, scheme, degree, words)
             for scheme, degree in ((S211, 2), (S213, 4), (S211, 4), (S213, 2))]
    serial = [fn(*args) for fn, *args in calls]
    assert all({(0, 2): 1} in out and "(2, 0) is not a Lyndon word" in out
               for out in serial[:2])
    assert on_four_threads(calls) == serial


def test_lie_element_text():
    elem = LieElement(S20, 3, {(0, 0, 1): -3, (0, 1, 1): 1})
    assert elem.to_text() == "-3*L[x1 x1 x2] + 1*L[x1 x2 x2]"
    assert LieElement.zero(S20, 2).to_text() == "0"


def test_differences_negatives_and_zero_multiples():
    rng = Random(7)
    table = BracketTable(S213)
    for _ in range(20):
        a = random_lie_element(rng, S213, 4, table)
        b = random_lie_element(rng, S213, 4, table)
        assert a - b == a + (-b)
        assert (a - a).is_zero() and a.scale(0).is_zero()
        assert a.scale(0) == LieElement.zero(S213, 4)
        assert a.scale(-3) == LieElement(S213, 4, {w: -3 * c for w, c in a.coords.items()})
        assert -(-a) == a and (-a).degree == 4 and (-a).scheme == S213
    with pytest.raises(TypeError):
        a - 1


@pytest.mark.parametrize("scalar", [0.5, 2.0, Fraction(1, 2), True, False])
def test_scalars_must_be_ints(scalar):
    with pytest.raises(TypeError):
        LieElement(S20, 2, {(0, 1): 3}).scale(scalar)


def test_sums_need_one_scheme_and_one_degree():
    a = LieElement(S20, 2, {(0, 1): 1})
    for other, message in ((LieElement(S211, 2, {(0, 1): 1}), "scheme mismatch"),
                           (generator_element(S20, 0), "degree mismatch: 2 vs 1")):
        for combine in (a.__add__, a.__sub__):
            with pytest.raises(ValueError) as caught:
                combine(other)
            assert str(caught.value) == message


class _Small(IntEnum):
    TWO = 2


def test_an_int_enum_is_not_an_integer():
    with pytest.raises(TypeError) as caught:
        Series(S20, 3, {(0,): _Small.TWO})
    assert str(caught.value) == "integer coefficient expected, got <_Small.TWO: 2>"
    with pytest.raises(TypeError) as caught:
        LieElement(S20, 1, {(0,): _Small.TWO})
    assert str(caught.value) == "integer coordinate expected, got <_Small.TWO: 2>"
