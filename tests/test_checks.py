from magnuslie import (DegreeAboveCutoff, WeightScheme, homomorphism_suite,
                       jacobi_suite, left_normed_basic_sequences,
                       floor_bound_suite, magnus_e1_suite,
                       strategy_independence_suite, valuation_mult_suite,
                       word_to_text)
from magnuslie import checks
from magnuslie.report import algebra_law_suites

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
