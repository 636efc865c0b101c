from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from magnuslie import (DegreeAboveCutoff, LieElement, NotIntegralCoordinates,
                       NotLieElement, RATIONALS, Series, WeightScheme,
                       ad_generator, bracket, filtration_degree,
                       generator_element, group_commutator, leading_lie_form,
                       lyndon_basis, lyndon_words, to_lyndon_coords,
                       witt_dimensions)
from magnuslie import free_reduce, standard_factorization, word_multiply
from magnuslie.liebasis import _lyndon_bucket, _lyndon_rewrite
from magnuslie.truncpoly import product_of_powers

S20 = WeightScheme(2, 0, 1)
S112 = WeightScheme(1, 1, 2)
S213 = WeightScheme(2, 1, 3)
S212 = WeightScheme(2, 1, 2)


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


def test_basis_carries_standard_bracketings():
    basis = lyndon_basis(S20, 3)
    assert [b.word for b in basis] == [(0, 0, 1), (0, 1, 1)]
    assert basis[0].bracketing == (0, (0, 1))
    assert basis[1].bracketing == ((0, 1), 1)
    assert basis[0].text(S20) == "[x1, [x1, x2]]"


def test_triangularity_of_basis_expansions():
    # expansion = own word with coefficient 1 plus lex-larger words
    for weight in range(1, 7):
        for word in lyndon_words(S212, weight):
            exp = LieElement(S212, weight, {word: 1}).expansion()
            assert exp[word] == 1
            assert min(exp) == word


def test_to_lyndon_coords_examples():
    elem = to_lyndon_coords(Series.letter(S20, 1, 0), S20)
    assert elem.degree == 1 and elem.coords == {(0,): 1}

    p = Series(S20, 2, {(0, 1): 1, (1, 0): -1})
    elem = to_lyndon_coords(p, S20)
    assert elem.coords == {(0, 1): 1}

    with pytest.raises(NotLieElement):
        to_lyndon_coords(Series(S20, 2, {(0, 1): 1}), S20)


def test_to_lyndon_coords_rejects_constants_and_inhomogeneous():
    with pytest.raises(NotLieElement):
        to_lyndon_coords(Series.one(S20, 2), S20)
    with pytest.raises(ValueError):
        to_lyndon_coords(Series(S20, 2, {(0,): 1, (0, 1): 1, (1, 0): -1}), S20)


def test_non_integral_coordinates():
    half = Fraction(1, 2)
    p = Series(S20, 2, {(0, 1): half, (1, 0): -half}, RATIONALS)
    with pytest.raises(NotIntegralCoordinates):
        to_lyndon_coords(p, S20)


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


def test_ad_generator_agrees_with_bracket():
    rng = Random(7)
    for _ in range(50):
        degree = rng.randrange(1, 4)
        basis = lyndon_words(S212, degree)
        coords = {w: rng.choice([-2, -1, 1, 2]) for w in basis if rng.randrange(2)}
        if not coords:
            coords = {basis[0]: 1}
        elem = LieElement(S212, degree, coords)
        for letter in range(S212.letters):
            lhs = ad_generator(letter, elem)
            rhs = bracket(generator_element(S212, letter), elem)
            assert lhs == rhs


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


@pytest.mark.parametrize("scheme", [S20, S213, S314])
def test_bracket_of_basis_words_matches_associative_oracle(scheme, top=8):
    elems = [LieElement(scheme, k, {w: 1})
             for k in range(1, top) for w in lyndon_words(scheme, k)]
    for a in elems:
        for b in elems:
            if a.degree + b.degree <= top:
                assert bracket(a, b).coords == associative_bracket(a, b)


@pytest.mark.parametrize("scheme", [S20, S213, S314])
def test_pair_table_right_factors_match_suffix_scan(scheme, top=8):
    lyndon_words(scheme, top)
    for k in range(1, top + 1):
        for word, right in zip(*_lyndon_bucket(scheme.letter_weights(), k)):
            if len(word) >= 2:
                assert right == standard_factorization(word)[1]
            else:
                assert right is None


@pytest.mark.parametrize("scheme", [S20, S112, S213, S314, WeightScheme(2, 2, 2)])
def test_witt_count_matches_enumeration(scheme, top=14):
    try:
        assert witt_dimensions(scheme, top) == [len(lyndon_words(scheme, k))
                                                for k in range(1, top + 1)]
    finally:
        _lyndon_bucket.cache_clear()  # weight 14 over (3,1,4) holds ~600k words


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
    series = elem.to_series()
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


def test_lie_element_text():
    elem = LieElement(S20, 3, {(0, 0, 1): -3, (0, 1, 1): 1})
    assert elem.to_text() == "-3*L[x1 x1 x2] + 1*L[x1 x2 x2]"
    assert LieElement.zero(S20, 2).to_text() == "0"
