import time
from random import Random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from magnuslie import (INFINITY, DegreeAboveCutoff, DegreeBound,
                       EmbeddingTooLarge, Series, WeightScheme,
                       WordSyntaxError, filtration_degree, free_reduce,
                       group_commutator, invert_word, leading_lie_form,
                       magnus_embed, parse_word, random_word,
                       to_lyndon_coords, word_multiply, word_to_text)
from magnuslie import liebasis as liebasis_module
from magnuslie import words as words_module
from magnuslie.words import MAX_EMBED_LETTERS, MAX_POWER_LENGTH, _image_valuation

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


def _reference_embed(word, scheme, cutoff):
    """The letter-image times general product embedding, as an oracle."""
    acc = Series.one(scheme, cutoff)
    for signed in word:
        letter = abs(signed) - 1
        w = scheme.letter_weight(letter)
        terms = {(): 1}
        if signed > 0:
            if w <= cutoff:
                terms[(letter,)] = 1
        else:
            for k in range(1, cutoff // w + 1):
                terms[(letter,) * k] = (-1) ** k
        acc = acc * Series(scheme, cutoff, terms)
    return acc


def _assert_same_embedding(word, scheme, cutoff):
    got = magnus_embed(word, scheme, cutoff)
    want = _reference_embed(word, scheme, cutoff)
    assert got.terms() == want.terms()
    assert got._buckets == want._buckets
    assert got.cutoff == cutoff


def test_embedding_matches_the_product_oracle_on_random_words():
    rng = Random(29)
    schemes = (WeightScheme(2, 0, 1), WeightScheme(1, 1, 1), S212, S213,
               WeightScheme(2, 1, 4), WeightScheme(3, 1, 2))
    for _ in range(400):
        scheme = rng.choice(schemes)
        word = tuple(rng.choice((1, -1)) * rng.randrange(1, scheme.letters + 1)
                     for _ in range(rng.randrange(9)))
        _assert_same_embedding(word, scheme, rng.randrange(9))


def test_embedding_matches_the_oracle_on_edge_cases():
    words = ((), (1,), (-1,), (1, -1, 2), (-2, 2, -2), (1, 1, -1, -1),
             (1, 2, -1, -2), (-3, -3, 3))
    for scheme in (WeightScheme(2, 0, 1), S213):
        for word in words:
            if any(abs(s) > scheme.letters for s in word):
                continue
            for cutoff in (0, 1, 3, 7):
                _assert_same_embedding(word, scheme, cutoff)


def test_embedding_rejects_a_negative_cutoff():
    with pytest.raises(ValueError):
        magnus_embed((1,), S213, -1)
    with pytest.raises(ValueError):
        magnus_embed((), S213, -1)


def test_embedding_paths_need_no_general_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("general product used")

    monkeypatch.setattr(Series, "__mul__", refuse)
    word = group_commutator((1,), (-2,))
    assert magnus_embed(word, S213, 5).coefficient((0, 1)) == -1
    assert filtration_degree(word, S213, 5).bound == 2
    degree, form = leading_lie_form(word, WeightScheme(2, 0, 1), 4)
    assert degree == 2 and form.coords == {(0, 1): -1}


def test_embedding_bound_stops_before_allocating():
    scheme = WeightScheme(2, 1, 200)
    start = time.perf_counter()
    with pytest.raises(EmbeddingTooLarge) as err:
        magnus_embed((-1, -2, -1, -2), scheme, 203)
    assert time.perf_counter() - start < 2.0
    assert err.value.projected > MAX_EMBED_LETTERS == err.value.limit
    assert str(err.value.projected) in str(err.value)


def test_embedding_bound_spares_a_large_allowed_image():
    # one inverse letter at cutoff 1000 stores 1000 * 1001 / 2 letters
    f = magnus_embed((-1,), WeightScheme(2, 0, 1), 1000)
    assert len(f) == 1001
    with pytest.raises(EmbeddingTooLarge):
        magnus_embed((-1,), WeightScheme(2, 0, 1), 2500)


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
    rhs = magnus_embed(w, S212, 4) * magnus_embed(z, S212, 4)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(raw_words)
def test_embedding_respects_inversion(raw_w):
    w = free_reduce(raw_w, S212)
    assert magnus_embed(invert_word(w), S212, 4) == magnus_embed(w, S212, 4).inverse()


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


# -- the embedding window of filtration_degree and leading_lie_form -------

ORACLE_SCHEMES = [WeightScheme(2, 0, 1), S213, WeightScheme(2, 2, 3),
                  WeightScheme(3, 1, 4)]


def _oracle_words(scheme, rng, count):
    """The identity, then random words, commutators (every exponent sum
    zero) and words in the y letters alone, in turn."""
    y_letters = range(scheme.m + 1, scheme.letters + 1)
    words = [()]
    while len(words) < count:
        kind = len(words) % 3
        if kind == 1:
            words.append(group_commutator(random_word(rng, scheme, 3),
                                          random_word(rng, scheme, 3)))
        elif kind == 2 and y_letters:
            raw = [rng.choice(y_letters) * rng.choice((1, -1))
                   for _ in range(rng.randrange(1, 6))]
            words.append(free_reduce(raw, scheme))
        else:
            words.append(random_word(rng, scheme, 8))
    return words


def _full_window(word, scheme, cutoff):
    """The degree bound and the leading form read from the embedding at
    the whole cutoff; the form is None where the window sees nothing."""
    image = magnus_embed(word, scheme, cutoff)
    v = _image_valuation(image)
    if v is INFINITY:
        return DegreeBound(cutoff + 1, exact=False), None
    return (DegreeBound(v, exact=True),
            (v, to_lyndon_coords(image.homogeneous_component(v), scheme)))


@pytest.mark.parametrize("scheme", ORACLE_SCHEMES, ids=str)
def test_lowered_window_equals_the_full_window(scheme):
    rng = Random(59)
    words = _oracle_words(scheme, rng, 250)
    assert any(word and all(word.count(s) == word.count(-s) for s in word)
               for word in words)
    for word in words:
        for cutoff in range(9):
            bound, form = _full_window(word, scheme, cutoff)
            assert filtration_degree(word, scheme, cutoff) == bound, (word, cutoff)
            if not word:
                continue
            if form is None:
                with pytest.raises(DegreeAboveCutoff):
                    leading_lie_form(word, scheme, cutoff)
            else:
                assert leading_lie_form(word, scheme, cutoff) == form, (word, cutoff)


@pytest.mark.parametrize("word, window", [
    ((1, 1, 2), 1),           # x1 has exponent sum 2
    ((1, 2, -1), 1),          # x2 has exponent sum 1
    ((3, 1, -3, -1), 8),      # a commutator: every sum is zero
    ((3, 1, 3, -1), 3),       # only y1's sum is nonzero: its weight e = 3
    ((-3, -3), 3),
    ((), 8),
])
def test_the_window_is_the_least_weight_with_a_nonzero_exponent_sum(
        monkeypatch, word, window):
    cutoffs = []

    def spy(word, scheme, cutoff):
        cutoffs.append(cutoff)
        return magnus_embed(word, scheme, cutoff)

    monkeypatch.setattr(words_module, "magnus_embed", spy)
    monkeypatch.setattr(liebasis_module, "magnus_embed", spy)
    filtration_degree(word, S213, 8)
    if word:
        leading_lie_form(word, S213, 8)
    assert cutoffs == [window] * len(cutoffs) and cutoffs


@pytest.mark.parametrize("word, cutoff, error, message", [
    ((1, 0), 4, ValueError, "signed letter expected, got 0"),
    ((1, 1.0), 4, ValueError, "signed letter expected, got 1.0"),
    ((1, -4), 4, ValueError, "generator index 4 out of range for (m=2, n=1, e=3)"),
    ((1,), -1, ValueError, "cutoff must be nonnegative"),
    ((1,), 2.0, TypeError, "integer cutoff expected, got 2.0"),
    ((1,), True, TypeError, "integer cutoff expected, got True"),
    ((1, 0), 2.5, TypeError, "integer cutoff expected, got 2.5"),
])
def test_window_keeps_the_embedding_errors(word, cutoff, error, message):
    for call in (filtration_degree, leading_lie_form, magnus_embed):
        with pytest.raises(error) as caught:
            call(word, S213, cutoff)
        assert str(caught.value) == message, call
