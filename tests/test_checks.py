from magnuslie import (DegreeAboveCutoff, WeightScheme, homomorphism_suite,
                       jacobi_suite, left_normed_basic_sequences,
                       floor_bound_suite, magnus_e1_suite,
                       strategy_independence_suite, valuation_mult_suite,
                       word_to_text)
from random import Random

import pytest

from magnuslie import checks, liebasis, words
from magnuslie.checks import SuiteResult
from magnuslie.report import algebra_law_suites
from magnuslie.words import DegreeBound, filtration_degree, random_word

S20 = WeightScheme(2, 0, 1)
S212 = WeightScheme(2, 1, 2)
S213 = WeightScheme(2, 1, 3)


def test_basic_sequence_counts_two_generators():
    sequences = left_normed_basic_sequences(S20, 6)
    by_weight = {}
    for seq in sequences:
        by_weight.setdefault(len(seq), []).append(seq)
    assert [len(by_weight.get(k, [])) for k in range(1, 7)] == [2, 1, 2, 3, 4, 5]
    assert len(sequences) == 17
    # the collection shape: i1 > i2 <= i3 <= ... <= ik
    for seq in sequences:
        if len(seq) >= 2:
            assert seq[0] > seq[1]
            assert all(seq[i] <= seq[i + 1] for i in range(1, len(seq) - 1))


def test_basic_sequences_respect_weight_bound():
    scheme = WeightScheme(1, 1, 3)
    for seq in left_normed_basic_sequences(scheme, 6):
        assert sum(scheme.letter_weight(g) for g in seq) <= 6


def test_magnus_e1_suite_passes():
    result = magnus_e1_suite(S20, max_weight=6)
    assert result.cases == 17
    assert result.failures == 0
    assert result.passed


def test_magnus_e1_suite_mixed_letters():
    result = magnus_e1_suite(WeightScheme(1, 1, 3), max_weight=6)
    assert result.passed


def test_magnus_e1_suite_counts_an_uncertified_degree_as_failure(monkeypatch):
    target = checks._left_normed_word((1, 0, 0))
    real = checks.leading_lie_form

    def leading_lie_form(word, scheme, cutoff):
        if word == target:
            raise DegreeAboveCutoff("simulated")
        return real(word, scheme, cutoff)

    monkeypatch.setattr(checks, "leading_lie_form", leading_lie_form)
    result = magnus_e1_suite(S20, max_weight=6)
    assert result.failures == 1
    assert result.counterexample == word_to_text(target, S20)


def test_magnus_e1_suite_embeds_an_x_only_sequence_once(monkeypatch):
    # each of the 17 sequences is embedded by its e = 1 leading form only:
    # with every letter of weight 1 the weighted check is the same embedding
    real = words.magnus_embed
    calls = []

    def spy(word, scheme, cutoff):
        calls.append(word)
        return real(word, scheme, cutoff)

    monkeypatch.setattr(words, "magnus_embed", spy)
    monkeypatch.setattr(liebasis, "magnus_embed", spy)
    assert magnus_e1_suite(S20, max_weight=6).passed
    assert len(calls) == 17


def test_magnus_e1_suite_keeps_the_weighted_check_for_y_letters(monkeypatch):
    scheme = WeightScheme(1, 1, 3)
    seen = []

    def too_low(word, scheme, cutoff):
        seen.append(word)
        return DegreeBound(1, exact=True)

    monkeypatch.setattr(checks, "filtration_degree", too_low)
    result = magnus_e1_suite(scheme, max_weight=6)
    with_y = [seq for seq in left_normed_basic_sequences(scheme, 6) if 1 in seq]
    assert with_y and result.failures == len(with_y)
    assert seen == [checks._left_normed_word(seq) for seq in with_y]


def head_floor_bound(scheme, samples, max_len, seed, cutoff=None):
    """The floor-bound loop as it was before it skipped samples by their
    decided cutoff: every sample is embedded in the weighted scheme.  It
    embeds through ``checks``, so a patched embedding reaches both."""
    filtration_degree = checks.filtration_degree
    if cutoff is None:
        cutoff = scheme.e + 3
    e1_scheme = WeightScheme(scheme.m, scheme.n, 1)
    rng = Random(seed)
    applicable = failures = 0
    counterexample = None
    for _ in range(samples):
        word = random_word(rng, scheme, max_len)
        weighted = filtration_degree(word, scheme, cutoff)
        if not weighted.exact or weighted.bound < scheme.e:
            continue
        applicable += 1
        floor = weighted.bound // scheme.e
        if not filtration_degree(word, e1_scheme, max(floor, 1)).at_least(floor):
            failures += 1
            if counterexample is None:
                counterexample = word_to_text(word, scheme)
    return SuiteResult(
        name="floor_bound", cases=samples, failures=failures, seed=seed,
        applicable=applicable, counterexample=counterexample,
        detail={"cutoff": cutoff, "max_word_len": max_len, "e": scheme.e},
    )


@pytest.mark.parametrize("scheme, cutoff", [
    (S213, None), (S212, None), (WeightScheme(3, 1, 4), None),
    (WeightScheme(1, 1, 2), None), (WeightScheme(3, 1, 4), 2),
])
def test_floor_bound_suite_skips_only_samples_that_cannot_apply(scheme, cutoff):
    for seed in range(5):
        assert floor_bound_suite(scheme, samples=200, seed=seed, cutoff=cutoff) \
            == head_floor_bound(scheme, 200, 12, seed, cutoff), seed


def test_floor_bound_suite_skip_keeps_a_planted_failure(monkeypatch):
    # a wrong e = 1 degree is still reported on every sample that applies
    real = filtration_degree

    def low_e1(word, scheme, cutoff):
        if scheme.e == 1:
            return DegreeBound(0, exact=True)
        return real(word, scheme, cutoff)

    monkeypatch.setattr(checks, "filtration_degree", low_e1)
    result = floor_bound_suite(S213, samples=200, seed=1)
    assert result == head_floor_bound(S213, 200, 12, 1)
    assert result.applicable and result.failures == result.applicable


def test_floor_bound_suite_passes_and_is_deterministic():
    a = floor_bound_suite(S213, samples=150, max_len=10, seed=9)
    b = floor_bound_suite(S213, samples=150, max_len=10, seed=9)
    assert a == b
    assert a.failures == 0
    assert a.applicable is not None and a.applicable > 0
    c = floor_bound_suite(S213, samples=150, max_len=10, seed=10)
    assert c.failures == 0


def test_homomorphism_suite_passes():
    result = homomorphism_suite(S212, samples=60, max_len=6, seed=2)
    assert result.passed and result.cases == 60


def test_valuation_suite_passes():
    result = valuation_mult_suite(S212, samples=120, seed=3)
    assert result.passed
    assert result.applicable == 120


def test_jacobi_suite_passes():
    result = jacobi_suite(S212, samples=40, seed=4)
    assert result.passed


def test_strategy_suite_passes():
    result = strategy_independence_suite(samples=25, seed=5)
    assert result.passed


def test_algebra_law_bundle():
    results = algebra_law_suites(S212, samples=20, seed=6)
    names = [r.name for r in results]
    assert names == ["mu_homomorphism", "valuation_multiplicativity",
                     "jacobi_antisymmetry", "ideal_strategy_independence"]
    assert all(r.passed for r in results)
