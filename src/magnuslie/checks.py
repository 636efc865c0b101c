"""Seeded property suites behind the CLI and the acceptance tests.

Each suite draws its cases from a private random.Random(seed), so a
report is a pure function of its arguments.  Every suite records its
failed cases in one ``_Tally``, which counts them and keeps the text of
the first as the counterexample; pass counts and seeds go into the run
report.
"""

from __future__ import annotations

from random import Random

from .liebasis import (DegreeAboveCutoff, LieElement, generator_element,
                       leading_lie_form)
from .brackets import BracketTable, bracket
from .quotient import ideal_component, ideal_component_alt
from .record import Record, field
from .series import INFINITY, Series, WeightScheme
from .snf import integer_row_space
from .words import (Word, _decided_cutoff, _image_valuation, filtration_degree,
                    free_reduce, generator, group_commutator, magnus_embed,
                    random_word, word_to_text)


class SuiteResult(Record):
    name: str
    cases: int
    failures: int
    seed: int | None = None
    applicable: int | None = None
    counterexample: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Tally(Record, frozen=False):
    """A suite's failed cases: their count and the first one's text."""

    failures: int = 0
    counterexample: str | None = None

    def fail(self, text: str) -> None:
        self.failures += 1
        if self.counterexample is None:
            self.counterexample = text

    def result(self, name: str, cases: int, **fields) -> SuiteResult:
        return SuiteResult(name=name, cases=cases, failures=self.failures,
                           counterexample=self.counterexample, **fields)


# -- weighted filtration vs lower central series --------------------------


def floor_bound_suite(scheme: WeightScheme, samples: int = 1000, max_len: int = 12,
                      seed: int = 0) -> SuiteResult:
    """Sampled floor bound between the two filtrations.

    For every sampled word whose weighted degree i is certified by the
    window e + 3 and satisfies i >= e, the e = 1 degree of the same word
    must be at least floor(i / e).  The e = 1 degree only needs
    certifying down to that floor, so a tiny second window suffices.
    """
    cutoff = scheme.e + 3
    e1_scheme = WeightScheme(scheme.m, scheme.n, 1)
    rng = Random(seed)
    applicable = 0
    tally = _Tally()
    for _ in range(samples):
        word = random_word(rng, scheme, max_len)
        window = _decided_cutoff(word, scheme, cutoff)
        if window < scheme.e:
            continue  # the weighted degree is at most that: never applicable
        # the weighted degree, embedded in the window just decided
        weighted = _image_valuation(magnus_embed(word, scheme, window))
        if weighted is INFINITY or weighted < scheme.e:
            continue
        applicable += 1
        floor = weighted // scheme.e
        lower = filtration_degree(word, e1_scheme, max(floor, 1))
        if not lower.at_least(floor):
            tally.fail(word_to_text(word, scheme))
    return tally.result("floor_bound", samples, seed=seed, applicable=applicable,
                        detail={"cutoff": cutoff, "max_word_len": max_len, "e": scheme.e})


# -- basic commutators under e = 1 -----------------------------------------

_BASIC_LETTERS = 2  # the basic commutators are those of the first two letters


def left_normed_basic_sequences(scheme: WeightScheme,
                                max_weight: int) -> list[tuple[int, ...]]:
    """Index sequences of the left-normed basic commutators.

    Weight-1 sequences are the bare generators.  Longer ones satisfy
    i1 > i2 <= i3 <= ... <= ik, the standard collection condition for a
    left-normed bracket to be basic; over the two letters 0 and 1 that is
    exactly the shape (1, 0, 0^a, 1^b).  Those whose weighted degree is
    at most max_weight, ordered by weight, then lexicographically.
    """
    weight = scheme.monomial_weight
    letters = min(_BASIC_LETTERS, scheme.letters)
    sequences = [(g,) for g in range(letters)]
    if letters == _BASIC_LETTERS:
        # every letter weighs at least 1, so a, b < max_weight
        sequences += [(1, 0) + (0,) * a + (1,) * b
                      for a in range(max_weight) for b in range(max_weight)]
    return sorted((seq for seq in sequences if weight(seq) <= max_weight),
                  key=lambda seq: (weight(seq), seq))


def _left_normed_word(seq: tuple[int, ...]) -> Word:
    word = generator(seq[0])
    for g in seq[1:]:
        word = group_commutator(word, generator(g))
    return word


def _left_normed_bracket(scheme: WeightScheme, seq: tuple[int, ...],
                         brackets: BracketTable) -> LieElement:
    elem = generator_element(scheme, seq[0])
    for g in seq[1:]:
        elem = bracket(elem, generator_element(scheme, g), brackets)
    return elem


def magnus_e1_suite(scheme: WeightScheme) -> SuiteResult:
    """Basic commutators pin the e = 1 filtration exactly.

    Every left-normed basic commutator word must have e = 1 degree equal
    to its letter count, with leading form the matching bracket of
    generators; under the weighted scheme its degree is at least its
    weighted letter sum.  Deterministic, no sampling.
    """
    e1_scheme = WeightScheme(scheme.m, scheme.n, 1)
    brackets = BracketTable(e1_scheme)
    max_weight = 6
    sequences = left_normed_basic_sequences(scheme, max_weight)
    tally = _Tally()
    for seq in sequences:
        word = _left_normed_word(seq)
        length = len(seq)
        try:
            degree, form = leading_lie_form(word, e1_scheme, length)
        except DegreeAboveCutoff:
            degree = form = None
        weighted_total = sum(scheme.letter_weight(g) for g in seq)
        # with every letter of weight 1 the weighted embedding is the one
        # just checked, at the same cutoff
        if (degree != length or form != _left_normed_bracket(e1_scheme, seq, brackets)
                or weighted_total != length
                and not filtration_degree(word, scheme, weighted_total)
                .at_least(weighted_total)):
            tally.fail(word_to_text(word, scheme))
    return tally.result("magnus_e1", len(sequences),
                        detail={"max_weight": max_weight, "num_letters": _BASIC_LETTERS})


# -- algebra law suites -----------------------------------------------------


def homomorphism_suite(scheme: WeightScheme, samples: int = 500,
                       seed: int = 0) -> SuiteResult:
    """Embedding of a product equals the product of the embeddings.

    The two sides take different code paths: the left one is the
    embedding's in-place letter steps alone, the right one multiplies two
    images with the general truncated product, Series.__mul__.
    """
    max_len, cutoff = 6, 5
    rng = Random(seed)
    tally = _Tally()
    for _ in range(samples):
        w = random_word(rng, scheme, max_len)
        z = random_word(rng, scheme, max_len)
        product = free_reduce(w + z, scheme)
        lhs = magnus_embed(product, scheme, cutoff)
        rhs = magnus_embed(w, scheme, cutoff) * magnus_embed(z, scheme, cutoff)
        if lhs != rhs:
            tally.fail(f"w = {word_to_text(w, scheme)}, z = {word_to_text(z, scheme)}")
    return tally.result("mu_homomorphism", samples, seed=seed,
                        detail={"cutoff": cutoff, "max_word_len": max_len})


def random_series(rng: Random, scheme: WeightScheme, cutoff: int,
                  max_term_weight: int) -> Series:
    """A random nonzero integer series of at most five terms, each of
    weight at most max_term_weight."""
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        length = rng.randrange(0, max_term_weight + 1)
        mono = tuple(rng.randrange(scheme.letters) for _ in range(length))
        if scheme.monomial_weight(mono) > max_term_weight:
            continue
        coeff = rng.choice([-9, -3, -2, -1, 1, 2, 3, 9])
        terms[mono] = terms.get(mono, 0) + coeff
    if not any(terms.values()):
        terms[()] = 1
    return Series(scheme, cutoff, terms)


def valuation_mult_suite(scheme: WeightScheme, samples: int = 500,
                         seed: int = 0) -> SuiteResult:
    """Valuations add under multiplication when the sum fits the window."""
    cutoff = 8
    rng = Random(seed)
    applicable = 0
    tally = _Tally()
    for _ in range(samples):
        f = random_series(rng, scheme, cutoff, cutoff // 2)
        g = random_series(rng, scheme, cutoff, cutoff // 2)
        if f.is_zero() or g.is_zero():
            continue
        applicable += 1
        if (f * g).valuation() != f.valuation() + g.valuation():
            tally.fail(f"f = {f.to_text()}, g = {g.to_text()}")
    return tally.result("valuation_multiplicativity", samples, seed=seed,
                        applicable=applicable, detail={"cutoff": cutoff})


def random_lie_element(rng: Random, scheme: WeightScheme, degree: int,
                       brackets: BracketTable) -> LieElement:
    basis = brackets.basis(degree)
    coords = {}
    for word in basis:
        if rng.randrange(2):
            coords[word] = rng.choice([-3, -2, -1, 1, 2, 3])
    if not coords:
        coords[rng.choice(basis)] = 1
    return LieElement._raw(scheme, degree, coords)


def jacobi_suite(scheme: WeightScheme, samples: int = 500, seed: int = 0) -> SuiteResult:
    """Antisymmetry and the Jacobi identity on random homogeneous triples."""
    max_degree = 3
    rng = Random(seed)
    tally = _Tally()
    brackets = BracketTable(scheme)
    degrees = [k for k in range(1, max_degree + 1) if brackets.basis(k)]
    for _ in range(samples):
        a = random_lie_element(rng, scheme, rng.choice(degrees), brackets)
        b = random_lie_element(rng, scheme, rng.choice(degrees), brackets)
        c = random_lie_element(rng, scheme, rng.choice(degrees), brackets)
        anti = bracket(a, b, brackets) + bracket(b, a, brackets)
        jac = (bracket(bracket(a, b, brackets), c, brackets)
               + bracket(bracket(b, c, brackets), a, brackets)
               + bracket(bracket(c, a, brackets), b, brackets))
        if not (anti.is_zero() and jac.is_zero()):
            tally.fail(f"a = {a}, b = {b}, c = {c}")
    return tally.result("jacobi_antisymmetry", samples, seed=seed,
                        detail={"max_degree": max_degree})


_STRATEGY_SCHEMES = (
    WeightScheme(2, 0, 1),
    WeightScheme(2, 1, 2),
    WeightScheme(1, 1, 2),
    WeightScheme(3, 1, 3),
)


def _row_space(rows, basis) -> tuple[tuple[int, ...], ...]:
    """The integer row space of word-keyed rows over the basis."""
    index = {w: i for i, w in enumerate(basis)}
    return integer_row_space([{index[w]: c for w, c in row.items()} for row in rows],
                             len(basis))


def strategy_independence_suite(samples: int = 500, seed: int = 0) -> SuiteResult:
    """Both ideal generation strategies span the same integer row space."""
    max_extra = 3
    rng = Random(seed)
    tally = _Tally()
    tables = {scheme: BracketTable(scheme) for scheme in _STRATEGY_SCHEMES}
    for _ in range(samples):
        scheme = _STRATEGY_SCHEMES[rng.randrange(len(_STRATEGY_SCHEMES))]
        table = tables[scheme]
        d = rng.randrange(1, 4)
        rho = random_lie_element(rng, scheme, d, table)
        n = d + rng.randrange(1, max_extra + 1)
        basis = table.basis(n)
        primary = _row_space(ideal_component(rho, n, brackets=table), basis)
        alt = _row_space((e.coords for e in ideal_component_alt(rho, n, table)), basis)
        if primary != alt:
            tally.fail(f"scheme {scheme}, rho = {rho}, degree {n}")
    return tally.result("ideal_strategy_independence", samples, seed=seed,
                        detail={"max_extra": max_extra})
