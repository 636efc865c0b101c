import pytest
from fractions import Fraction
from types import ModuleType

import hypothesis.strategies as st
from hypothesis import given, settings

import magnuslie
from magnuslie import INFINITY, Series, WeightScheme, magnus_embed
from magnuslie.fprank import _PRIME_LIMIT, _is_prime

S213 = WeightScheme(2, 1, 3)
S212 = WeightScheme(2, 1, 2)
S222 = WeightScheme(2, 2, 2)


def test_monomial_weight_unit():
    assert S213.monomial_weight(()) == 0


def test_monomial_weight_mixed():
    # two X letters and one Y letter at e = 3
    assert S213.monomial_weight((0, 1, 2)) == 5


def test_monomial_weight_y_only():
    assert S222.monomial_weight((2, 3)) == 4


def test_monomial_weight_range_error():
    with pytest.raises(ValueError):
        S213.monomial_weight((5,))


def test_valuation_examples():
    assert Series(S213, 6, {(0,): 1}).valuation() == 1
    assert Series(S213, 6, {(2,): 1}).valuation() == 3
    assert Series(S213, 6).valuation() is INFINITY
    f = Series(S213, 6, {(0, 1): 3, (2,): 1})
    assert f.valuation() == 2


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
    one_plus_x1 = Series(S212, 4, {(): 1, (0,): 1})
    one_plus_x2 = Series(S212, 4, {(): 1, (1,): 1})
    assert (one_plus_x1 * one_plus_x2).to_text() == "1 + X1 + X2 + X1*X2"


def test_mul_noncommutative():
    one_plus_x1 = Series(S212, 4, {(): 1, (0,): 1})
    one_plus_x2 = Series(S212, 4, {(): 1, (1,): 1})
    left = one_plus_x1 * one_plus_x2
    right = one_plus_x2 * one_plus_x1
    assert right.to_text() == "1 + X1 + X2 + X2*X1"
    assert left != right


def test_mul_truncates():
    y1 = Series(S212, 1, {(2,): 1})  # weight 2, dropped at cutoff 1
    assert y1.is_zero()
    product = (Series(S212, 1, {(): 1, (0,): 1, (2,): 1})
               * Series(S212, 1, {(): 1, (0,): 1}))
    assert product.to_text() == "1 + 2*X1"


def test_mul_cutoff_narrows():
    a = Series(S212, 5, {(): 1})
    b = Series(S212, 3, {(): 1})
    assert (a * b).cutoff == 3


def test_mul_domain_mismatch():
    a = Series(S212, 3, {(): 1})
    c = Series(S213, 3, {(): 1})
    with pytest.raises(ValueError):
        a * c


def test_series_offer_only_the_product_and_zero_is_falsy():
    f = Series(S212, 3, {(): 1, (0,): 2})
    with pytest.raises(TypeError):
        f + f
    with pytest.raises(TypeError):
        f * 2
    with pytest.raises(TypeError):
        2 * f
    zero = Series(S212, 3, {(0,): 0})
    assert f and not zero and not zero * f and not Series(S212, 3)
    assert sorted(name for name in vars(Series) if name != "__doc__") == [
        "__annotations__", "__bool__", "__dict__", "__init__", "__module__",
        "__mul__", "__repr__", "__weakref__", "_compared", "_defaults",
        "_fields", "_raw", "_shown", "homogeneous_component", "is_zero",
        "terms", "to_text", "valuation"]


@pytest.mark.parametrize("name", ["scheme", "cutoff", "_buckets", "unknown"])
def test_series_refuse_assignment(name):
    f = Series(S212, 3, {(): 1, (0,): 2})
    with pytest.raises(AttributeError):
        setattr(f, name, getattr(f, name, None))
    assert repr(f) == "Series('1 + 2*X1', cutoff=3)"


@pytest.mark.parametrize("name", ["scheme", "cutoff", "_buckets"])
def test_series_refuse_deletion(name):
    f = Series(S212, 3, {(): 1, (0,): 2})
    with pytest.raises(AttributeError):
        delattr(f, name)
    assert repr(f) == "Series('1 + 2*X1', cutoff=3)"


def test_series_are_unhashable():
    with pytest.raises(TypeError):
        hash(Series(S212, 3, {(0,): 1}))
    with pytest.raises(TypeError):
        hash(Series(S212, 3))


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


@pytest.mark.parametrize("coeff", [True, 2.0, Fraction(2, 1), Fraction(1, 2)])
def test_coefficients_and_scalars_must_be_ints(coeff):
    with pytest.raises(TypeError, match="integer coefficient expected"):
        Series(S212, 3, {(0,): coeff})


@pytest.mark.parametrize("mono", [(0.0, 1.0), (0, 1.0), (Fraction(0), 1)])
def test_letters_must_be_ints(mono):
    # to_lyndon_coords builds its Lie element from these letters unchecked
    with pytest.raises(TypeError) as caught:
        Series(S212, 3, {mono: 1})
    assert str(caught.value) == f"integer letters expected, got {mono!r}"
    with pytest.raises(TypeError):
        Series(S212, 3, {(1.0,): 1})
    assert Series(S212, 3, {(False, True): 1}) == Series(S212, 3, {(0, 1): 1})


@pytest.mark.parametrize("cutoff", [True, 2.5, 3.0, Fraction(3)])
def test_cutoffs_must_be_ints(cutoff):
    with pytest.raises(TypeError, match="integer cutoff expected"):
        Series(S212, cutoff)
    with pytest.raises(TypeError, match="integer cutoff expected"):
        Series(S212, cutoff, {(0,): 1})
    with pytest.raises(TypeError, match="integer cutoff expected"):
        magnus_embed((1,), S212, cutoff)


@pytest.mark.parametrize("m, n, e, name", [
    (2, 1, True, "e"), (2.0, 1, 3, "m"), (2, 1.0, 3, "n"), (True, 0, 1, "m"),
    (2, 1, Fraction(3), "e"), (2, 1, 3.0, "e"),
])
def test_weight_scheme_rejects_non_int_parameters(m, n, e, name):
    with pytest.raises(TypeError, match=f"integer {name} expected"):
        WeightScheme(m, n, e)


def test_weight_scheme_bounds_the_letter_count():
    from magnuslie.series import MAX_LETTERS
    assert WeightScheme(MAX_LETTERS - 1, 1, 3).letters == MAX_LETTERS
    assert WeightScheme(1, MAX_LETTERS - 1, 2).letters == MAX_LETTERS
    for m, n in ((MAX_LETTERS, 1), (1, MAX_LETTERS), (MAX_LETTERS + 1, 0)):
        with pytest.raises(ValueError) as caught:
            WeightScheme(m, n, 3)
        assert str(caught.value) \
            == f"{MAX_LETTERS + 1} letters exceed the limit of {MAX_LETTERS}"


def test_public_names():
    # submodules are left out: importing one (magnuslie.cli) adds its name
    names = sorted(n for n in dir(magnuslie) if not n.startswith("_")
                   and not isinstance(getattr(magnuslie, n), ModuleType))
    assert names == [
        "ALL_CHECKS", "BudgetExceeded", "DEFAULT_BUDGET",
        "DegreeAboveCutoff", "DegreeBound", "DegreeReport",
        "EXIT_CHECK_FAILED", "EXIT_GATE_REJECTED", "EXIT_INCONCLUSIVE",
        "EXIT_OK", "EXIT_USAGE", "EmbeddingTooLarge", "HilbertTable",
        "HypothesisReport", "INFINITY", "LieElement", "ModpCheck",
        "ModpReport", "NotLieElement", "Presentation", "PresentationFile",
        "PresentationSyntaxError", "RunConfig", "RunReport", "Series",
        "SmithResult", "SuiteResult", "TorsionReport", "WeightScheme",
        "Word", "WordSyntaxError", "algebra_law_suites", "bracket",
        "candidate_series", "check_relator_hypotheses",
        "filtration_degree", "floor_bound_suite", "fp_ranks",
        "free_reduce", "generator", "generator_element", "group_commutator",
        "hilbert_crosscheck", "homomorphism_suite", "ideal_component",
        "ideal_component_alt", "integer_row_space", "invert_word",
        "jacobi_suite", "leading_lie_form", "left_normed_basic_sequences",
        "lyndon_words", "magnus_e1_suite", "magnus_embed",
        "modp_dimension_check", "parse_presentation",
        "parse_presentation_file", "parse_word",
        "pbw_series", "random_word", "report_to_json",
        "report_to_json_dict", "run_report", "smith_normal_form",
        "standard_factorization", "strategy_independence_suite",
        "to_lyndon_coords", "torsion_free_certificate",
        "valuation_mult_suite", "witt_dimensions", "word_multiply",
        "word_to_text",
    ]


letters = st.integers(min_value=0, max_value=2)
monomials = st.lists(letters, max_size=4).map(tuple)
coeffs = st.integers(min_value=-9, max_value=9)
term_dicts = st.dictionaries(monomials, coeffs, max_size=6)


def _series(terms, cutoff=6):
    return Series(S212, cutoff, terms)


@given(term_dicts, term_dicts)
def test_valuation_multiplicative_over_z(t1, t2):
    f, g = _series(t1), _series(t2)
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


def test_canonical_equality():
    a = Series(S212, 4, {(0,): 1, (1,): 2})
    b = Series(S212, 4, {(1,): 2, (0,): 2, (0,): 1})
    assert a == b
    # equal term associations at different cutoffs still compare equal
    c = Series(S212, 9, {(0,): 1, (1,): 2})
    assert a == c
