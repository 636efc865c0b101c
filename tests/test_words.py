import time
from random import Random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from magnuslie import (Series, WeightScheme, WordSyntaxError, filtration_degree,
                       free_reduce, group_commutator, inverse, invert_word,
                       magnus_embed, mul, parse_word, random_word,
                       word_multiply, word_to_text)
from magnuslie.words import MAX_POWER_LENGTH

S213 = WeightScheme(2, 1, 3)
S212 = WeightScheme(2, 1, 2)


def test_reduce_cancellation():
    assert free_reduce([1, -1], S213) == ()


def test_reduce_inner_cancellation():
    assert free_reduce([1, 2, -2, 1], S213) == (1, 1)


def test_reduce_already_reduced():
    word = (1, 3, -1)
    assert free_reduce(word, S213) == word


def test_reduce_idempotent_on_random():
    rng = Random(5)
    for _ in range(200):
        raw = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(12)]
        once = free_reduce(raw, S213)
        assert free_reduce(once, S213) == once


def test_reduce_range_error():
    with pytest.raises(ValueError):
        free_reduce([4], S213)


def test_embed_y_generator():
    assert magnus_embed((3,), S213, 6).to_text() == "1 + Y1"


def test_embed_inverse_letter():
    f = magnus_embed((-1,), S213, 3)
    assert f.to_text() == "1 - X1 + X1*X1 - X1*X1*X1"


def test_embed_product_of_letters():
    f = magnus_embed((1, 2), S213, 4)
    one = Series.one(S213, 4)
    x1 = Series.letter(S213, 4, 0)
    x2 = Series.letter(S213, 4, 1)
    assert f == (one + x1) * (one + x2)


def test_degree_of_y_is_e():
    bound = filtration_degree((3,), S213, 6)
    assert bound.exact and bound.bound == 3


def test_degree_of_commutator_is_two():
    word = group_commutator((1,), (2,))
    for scheme in (S213, S212, WeightScheme(2, 1, 5)):
        bound = filtration_degree(word, scheme, 6)
        assert bound.exact and bound.bound == 2


def test_identity_word_gives_lower_bound():
    for cutoff in (1, 4, 9):
        bound = filtration_degree((), S213, cutoff)
        assert not bound.exact
        assert bound.bound == cutoff + 1
        assert str(bound) == f">= {cutoff + 1}"


def test_commutator_examples():
    assert group_commutator((1,), (1,)) == ()
    assert group_commutator((1,), (2,)) == (1, 2, -1, -2)
    lhs = group_commutator((1, 2), (2,))
    raw = (1, 2) + (2,) + invert_word((1, 2)) + invert_word((2,))
    assert lhs == free_reduce(raw, S213)


signed_letters = st.integers(min_value=-3, max_value=3).filter(lambda s: s != 0)
raw_words = st.lists(signed_letters, max_size=8)


@settings(max_examples=60, deadline=None)
@given(raw_words, raw_words)
def test_embedding_is_a_homomorphism(raw_w, raw_z):
    w = free_reduce(raw_w, S212)
    z = free_reduce(raw_z, S212)
    product = word_multiply(w, z)
    lhs = magnus_embed(product, S212, 4)
    rhs = mul(magnus_embed(w, S212, 4), magnus_embed(z, S212, 4))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(raw_words)
def test_embedding_respects_inversion(raw_w):
    w = free_reduce(raw_w, S212)
    assert magnus_embed(invert_word(w), S212, 4) == inverse(magnus_embed(w, S212, 4))


@settings(max_examples=60, deadline=None)
@given(raw_words, raw_words)
def test_central_series_law(raw_w, raw_z):
    w = free_reduce(raw_w, S212)
    z = free_reduce(raw_z, S212)
    dw = filtration_degree(w, S212, 4)
    dz = filtration_degree(z, S212, 4)
    if not (dw.exact and dz.exact):
        return
    total = dw.bound + dz.bound
    comm = group_commutator(w, z)
    assert filtration_degree(comm, S212, total).at_least(total)


@settings(max_examples=60, deadline=None)
@given(raw_words)
def test_filtration_floor_bound(raw_w):
    w = free_reduce(raw_w, S213)
    weighted = filtration_degree(w, S213, 6)
    if not weighted.exact or weighted.bound < S213.e:
        return
    floor = weighted.bound // S213.e
    e1 = WeightScheme(2, 1, 1)
    assert filtration_degree(w, e1, floor).at_least(floor)


def test_parse_word_examples():
    assert parse_word("[x1,x2] y1^-1", S213) == (1, 2, -1, -2, -3)
    assert parse_word("x1^2", S213) == (1, 1)
    nested = group_commutator(group_commutator((1,), (2,)), (1,))
    assert parse_word("[[x1,x2],x1]", S213) == nested
    assert parse_word("1", S213) == ()
    assert parse_word("(x1 x2)^-1", S213) == (-2, -1)
    assert parse_word("", S213) == ()


def test_parse_word_range_error_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("[x1,x3]", WeightScheme(2, 1, 1))
    assert err.value.column == 4


def test_parse_word_power_matches_repeated_product():
    rng = Random(13)
    for _ in range(100):
        base = random_word(rng, S213, 6)
        k = rng.randrange(-5, 6)
        text = "(" + word_to_text(base, S213) + f")^{k}"
        step = base if k >= 0 else invert_word(base)
        expected = ()
        for _ in range(abs(k)):
            expected = word_multiply(expected, step)
        assert parse_word(text, S213) == expected


def test_parse_word_bounds_powers_before_building_them():
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x2 x1^100000000", S213)
    assert err.value.column == 5
    with pytest.raises(WordSyntaxError):
        parse_word("(x1 x2)^-" + str(MAX_POWER_LENGTH // 2 + 1), S213)
    assert time.perf_counter() - start < 1.0
    assert len(parse_word(f"x1^{MAX_POWER_LENGTH}", S213)) == MAX_POWER_LENGTH


def test_parse_word_bounds_commutators_before_building_them():
    depth = 25
    inner, level = (1,), 0
    while 2 * (len(inner) + 1) <= MAX_POWER_LENGTH:
        inner, level = group_commutator(inner, (2,)), level + 1
    allowed = "[" * level + "x1" + ",x2]" * level
    assert parse_word(allowed, S213) == inner
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError) as err:
        parse_word("[" * depth + "x1" + ",x2]" * depth, S213)
    assert time.perf_counter() - start < 1.0
    # the first commutator over the limit is level + 1 deep; its '[' opens
    # depth - (level + 1) characters into the text
    assert err.value.column == depth - level - 1


def test_parse_word_syntax_errors():
    for bad in ("[x1,x2", "x1^", "x1 )", "z1", "[x1;x2]"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, S213)


def test_word_text_round_trip():
    rng = Random(11)
    for _ in range(200):
        w = random_word(rng, S213, 10)
        assert parse_word(word_to_text(w, S213), S213) == w


def test_word_text_examples():
    assert word_to_text((), S213) == "1"
    assert word_to_text((1, 1, -3), S213) == "x1^2 y1^-1"


def test_random_word_is_seeded_and_reduced():
    rng_a, rng_b = Random(3), Random(3)
    a = [random_word(rng_a, S213, 12) for _ in range(20)]
    b = [random_word(rng_b, S213, 12) for _ in range(20)]
    assert a == b
    rng = Random(3)
    for _ in range(100):
        w = random_word(rng, S213, 12)
        assert free_reduce(w, S213) == w
