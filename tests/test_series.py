import pytest
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from magnuslie import (INFINITY, INTEGERS, RATIONALS, Series, WeightScheme,
                       inverse, monomial_weight, mul, prime_field,
                       series_from_text, valuation)
from magnuslie.series import _PRIME_LIMIT, _is_prime

S213 = WeightScheme(2, 1, 3)
S212 = WeightScheme(2, 1, 2)
S222 = WeightScheme(2, 2, 2)


def test_monomial_weight_unit():
    assert monomial_weight((), S213) == 0


def test_monomial_weight_mixed():
    # two X letters and one Y letter at e = 3
    assert monomial_weight((0, 1, 2), S213) == 5


def test_monomial_weight_y_only():
    assert monomial_weight((2, 3), S222) == 4


def test_monomial_weight_range_error():
    with pytest.raises(ValueError):
        monomial_weight((5,), S213)


def test_valuation_examples():
    assert valuation(Series.letter(S213, 6, 0)) == 1
    assert valuation(Series.letter(S213, 6, 2)) == 3
    assert valuation(Series.zero(S213, 6)) is INFINITY
    f = Series(S213, 6, {(0, 1): 3, (2,): 1})
    assert valuation(f) == 2


def test_infinity_semantics():
    assert INFINITY > 10**9
    assert not INFINITY < 5
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY
    with pytest.raises(TypeError):
        INFINITY + 1
    with pytest.raises(TypeError):
        1 + INFINITY
    # min() with an integer picks the integer
    assert min(INFINITY, 7) == 7


def test_mul_binomial():
    one = Series.one(S212, 4)
    x1 = Series.letter(S212, 4, 0)
    x2 = Series.letter(S212, 4, 1)
    assert ((one + x1) * (one + x2)).to_text() == "1 + X1 + X2 + X1*X2"


def test_mul_noncommutative():
    one = Series.one(S212, 4)
    x1 = Series.letter(S212, 4, 0)
    x2 = Series.letter(S212, 4, 1)
    left = (one + x1) * (one + x2)
    right = (one + x2) * (one + x1)
    assert right.to_text() == "1 + X1 + X2 + X2*X1"
    assert left != right


def test_mul_truncates():
    one = Series.one(S212, 1)
    x1 = Series.letter(S212, 1, 0)
    y1 = Series.letter(S212, 1, 2)  # weight 2, dropped at cutoff 1
    assert y1.is_zero()
    product = (one + x1 + y1) * (one + x1)
    assert product.to_text() == "1 + 2*X1"


def test_mul_cutoff_narrows():
    a = Series.one(S212, 5)
    b = Series.one(S212, 3)
    assert (a * b).cutoff == 3
    assert (a + b).cutoff == 3


def test_mul_domain_mismatch():
    a = Series.one(S212, 3)
    b = Series.one(S212, 3, RATIONALS)
    with pytest.raises(ValueError):
        a * b
    c = Series.one(S213, 3)
    with pytest.raises(ValueError):
        a * c


def test_inverse_examples():
    assert inverse(Series.one(S212, 3)).to_text() == "1"
    f = Series.one(S212, 2) + Series.letter(S212, 2, 0)
    assert inverse(f).to_text() == "1 - X1 + X1*X1"
    g = Series.one(S212, 2) + Series.letter(S212, 2, 0) + Series.letter(S212, 2, 1)
    assert inverse(g).to_text() == "1 - X1 - X2 + X1*X1 + X1*X2 + X2*X1 + X2*X2"


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        inverse(Series.letter(S212, 3, 0))
    with pytest.raises(ValueError):
        inverse(Series.constant(S212, 3, 2))


def test_prime_field_normalization():
    f7 = prime_field(7)
    assert Series(S212, 3, {(0,): 7}, f7).is_zero()
    f = Series(S212, 3, {(0,): -1}, f7)
    assert f.coefficient((0,)) == 6
    assert f.to_text() == "6*X1 (mod 7)"


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        prime_field(6)


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert [p for p in range(-3, 5000) if _is_prime(p)] == \
        [p for p in range(-3, 5000) if trial(p)]


@pytest.mark.parametrize("p, prime", [
    (2 ** 61 - 1, True),
    (2 ** 31 - 1, True),
    ((2 ** 31 - 1) * (2 ** 13 - 1), False),
    # strong pseudoprime to every prime base up to 23
    (3825123056546413051, False),
    # strong pseudoprime to every prime base up to 37
    (318665857834031151167461, False),
])
def test_is_prime_large_values(p, prime):
    assert _is_prime(p) is prime


def test_is_prime_rejects_values_past_the_exact_range():
    with pytest.raises(ValueError, match="too large"):
        _is_prime(_PRIME_LIMIT)


def test_rational_text():
    f = Series(S212, 2, {(): Fraction(1, 2), (0,): Fraction(-3, 4)}, RATIONALS)
    assert f.to_text() == "1/2 - 3/4*X1"
    assert series_from_text(f.to_text(), S212, 2) == f


letters = st.integers(min_value=0, max_value=2)
monomials = st.lists(letters, max_size=4).map(tuple)
coeffs = st.integers(min_value=-9, max_value=9)
term_dicts = st.dictionaries(monomials, coeffs, max_size=6)


def _series(terms, cutoff=6, domain=INTEGERS):
    return Series(S212, cutoff, terms, domain)


@given(term_dicts, term_dicts)
def test_ultrametric(t1, t2):
    f, g = _series(t1), _series(t2)
    vf, vg = f.valuation(), g.valuation()
    vs = (f + g).valuation()
    floor = min(vf, vg)
    assert vs >= floor
    if vf != vg:
        assert vs == floor


@given(term_dicts, term_dicts)
def test_valuation_multiplicative_over_z(t1, t2):
    f, g = _series(t1), _series(t2)
    vf, vg = f.valuation(), g.valuation()
    if vf is INFINITY or vg is INFINITY:
        assert (f * g).is_zero()
        return
    if vf + vg <= 6:
        assert (f * g).valuation() == vf + vg


@given(term_dicts, term_dicts)
def test_valuation_multiplicative_mod_p(t1, t2):
    f5 = prime_field(5)
    f = _series(t1, domain=f5)
    g = _series(t2, domain=f5)
    vf, vg = f.valuation(), g.valuation()
    if vf is INFINITY or vg is INFINITY:
        assert (f * g).is_zero()
        return
    if vf + vg <= 6:
        assert (f * g).valuation() == vf + vg


@settings(max_examples=50)
@given(term_dicts, term_dicts, term_dicts)
def test_associative_distributive(t1, t2, t3):
    f, g, h = _series(t1), _series(t2), _series(t3)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(term_dicts)
def test_inverse_round_trip(t):
    f = Series.one(S212, 5) + _series(t, cutoff=5) * Series.letter(S212, 5, 0)
    assert (f * f.inverse()) == Series.one(S212, 5)
    assert (f.inverse() * f) == Series.one(S212, 5)


@given(term_dicts)
def test_text_round_trip(t):
    f = _series(t)
    assert series_from_text(f.to_text(), S212, 6) == f


@given(term_dicts)
def test_text_round_trip_mod_p(t):
    f = _series(t, domain=prime_field(7))
    assert series_from_text(f.to_text(), S212, 6) == f


def test_canonical_equality():
    a = Series(S212, 4, {(0,): 1, (1,): 2})
    b = Series(S212, 4, {(1,): 2, (0,): 2, (0,): 1})
    assert a == b
    # equal term associations at different cutoffs still compare equal
    c = Series(S212, 9, {(0,): 1, (1,): 2})
    assert a == c
