"""Degree-by-degree study of the one-relator quotient of the free Lie ring.

Given a homogeneous relator rho of degree d, the degree-n piece of the
two-sided ideal (rho) is spanned by the left-normed operators
[g_1, [g_2, [... [g_k, rho]]]] over all sequences of generators with
total added weight n - d; the Jacobi identity folds every other
bracketing into these.  So for n > d it is the span of [g, B_{n - w_g}]
over the generators g, where B_k is any Z-basis of the degree-k piece:
the sweep brackets each generator with the row-echelon basis of the
degree below, and eliminates the resulting integer matrix over the
Lyndon basis once.  That echelon basis yields the Smith normal form,
which certifies, exactly, the rank of the ideal and any torsion in the
quotient component, and it feeds the degrees above.

The certificate (``torsion_free_certificate``) carries its relator, its
per-degree reports and the sweep's rows, and it is the only input of the
two cross-checks of it:

* the candidate enveloping-algebra series 1/(1 - m t - n t^e + t^d),
  imported from the literature on one-relator graded Lie algebras and
  always validated against the certified dimensions, never assumed
  (``hilbert_crosscheck``),
* ranks of the certificate's rows over small prime fields, which agree
  with the integer ranks exactly when no p-torsion exists
  (``modp_dimension_check``); the ranks for all the primes come from one
  elimination per degree modulo their product, which splits the modulus
  only at a zero-divisor lead (``fprank.fp_ranks``).

An independent generation strategy (direct brackets with basis elements
plus one round of generator brackets, ``ideal_component_alt``) must span
the same integer row space as the sweep's rows (``ideal_component``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import truncpoly
from .fprank import _distinct_primes, fp_ranks
from .liebasis import (LieElement, _bracket_words, bracket, generator_element,
                       lyndon_words, witt_dimensions)
from .series import WeightScheme
from .snf import _echelon, _smith_from_echelon

DEFAULT_BUDGET = 8_000_000


class BudgetExceeded(RuntimeError):
    """A degree-component matrix outgrew the configured budget."""

    def __init__(self, degree: int, rows: int, cols: int, budget: int):
        super().__init__(f"degree {degree} needs a {rows} x {cols} matrix, "
                         f"beyond the budget of {budget} entries")
        self.degree = degree
        self.rows = rows
        self.cols = cols
        self.budget = budget


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    dim_free: int
    rank: int
    divisors: tuple[int, ...]
    dim_quotient: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class TorsionReport:
    # rho and -rho generate the same ideal: certificates compare by what
    # they certify, not by the relator that was given
    relator: LieElement = field(compare=False)
    relator_degree: int
    max_degree: int
    degrees: tuple[DegreeReport, ...]
    torsion_free: bool
    aborted_degree: int | None
    note: str | None
    # ideal rows of degrees d, d + 1, ..., each over the column indices
    # of its degree's Lyndon words: the brackets the sweep made before
    # eliminating them (the mod-p check reads these)
    rows: tuple[list[dict], ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class HilbertTable:
    relator_degree: int | None
    max_degree: int
    candidate: tuple[int, ...]
    pbw: tuple[int, ...]
    matches: tuple[bool, ...]
    all_match: bool
    formula_status: str


@dataclass(frozen=True)
class ModpDegreeRow:
    degree: int
    rank_mod_p: int
    rank_integer: int
    match: bool


@dataclass(frozen=True)
class ModpReport:
    prime: int
    rows: tuple[ModpDegreeRow, ...]
    all_match: bool


@dataclass(frozen=True)
class ModpCheck:
    primes: tuple[int, ...]
    reports: tuple[ModpReport, ...]
    all_match: bool
    aborted_degree: int | None
    note: str | None


# -- echelon-fed ideal sweep ----------------------------------------------


class _IdealSweep:
    """Generating rows of the ideal (rho) and their echelon bases, degree by
    degree from the relator's degree up.

    The rows of degree d are rho alone; those of degree n > d are
    [g, e] for each generator g and each row e of the echelon basis of
    degree n - w_g.  Bracketing is Z-linear and the echelon steps are
    unimodular, so the rows span the degree-n piece of the ideal.  Only
    the bases a later degree reads are kept: the last max-letter-weight
    ones.  A sweep belongs to one computation and is never shared.
    """

    def __init__(self, rho: LieElement, budget: int):
        self.rho = rho
        self.scheme = rho.scheme
        self.budget = budget
        self.degree = rho.degree - 1
        # degree -> its echelon basis as _echelon returns it, and its words
        self.bases: dict[int, dict[int, dict[int, int]]] = {}
        self.words: dict[int, list[tuple[int, ...]]] = {}

    def next_rows(self) -> tuple[list[dict[int, int]], list[tuple[int, ...]]]:
        """The next degree's rows over the column indices of its Lyndon
        basis, and that basis.

        The row count is bounded by the kept bases, and the columns are
        counted, not enumerated, before the basis or any bracket is
        computed; BudgetExceeded when the bound times the columns
        outgrows the budget.
        """
        n = self.degree + 1
        weights = self.scheme.letter_weights()
        first = n == self.rho.degree
        bound = 1 if first else sum(len(self.bases.get(n - w, ())) for w in weights)
        cols = witt_dimensions(self.scheme, n)[-1]
        if bound * max(cols, 1) > self.budget:
            raise BudgetExceeded(n, bound, cols, self.budget)
        basis = lyndon_words(self.scheme, n)
        index = {word: i for i, word in enumerate(basis)}
        if first:
            return [{index[w]: c for w, c in self.rho.coords.items()}], basis
        rows = []
        for letter, w in enumerate(weights):
            g, words = (letter,), self.words.get(n - w)
            for coords in self.bases.get(n - w, {}).values():
                row: dict[int, int] = {}
                for j, c in coords.items():
                    for word, b in _bracket_words(g, words[j]).items():
                        i = index[word]
                        if value := row.get(i, 0) + c * b:
                            row[i] = value
                        else:
                            del row[i]
                if row:
                    rows.append(row)
        return rows, basis

    def advance(self) -> tuple[list[dict[int, int]], dict[int, dict[int, int]], int]:
        """Build the next degree: its rows, their echelon basis and the
        column count, all over the column indices of its Lyndon basis."""
        rows, basis = self.next_rows()
        n = self.degree + 1
        # _echelon reduces its rows in place; the rows stay for mod-p
        pivots = _echelon([dict(row) for row in rows])
        self.bases[n], self.words[n] = pivots, basis
        drop = n - max(self.scheme.letter_weights())
        self.bases.pop(drop, None)
        self.words.pop(drop, None)
        self.degree = n
        return rows, pivots, len(basis)


def _check_relator(rho: LieElement, n: int) -> None:
    if rho.is_zero():
        raise ValueError("the relator must be nonzero")
    if n < rho.degree:
        raise ValueError(f"degree {n} is below the relator degree {rho.degree}")


def ideal_component(rho: LieElement, n: int, *,
                    budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Generating rows of the degree-n piece of (rho), word-keyed: rho
    itself at its own degree, above it the nonzero brackets of each
    generator with the echelon basis of the degree below it.  These are
    TorsionReport.rows with each column index replaced by its word."""
    _check_relator(rho, n)
    sweep = _IdealSweep(rho, budget)
    while sweep.degree < n - 1:
        sweep.advance()
    rows, basis = sweep.next_rows()
    return [{basis[i]: c for i, c in row.items()} for row in rows]


def ideal_component_alt(rho: LieElement, n: int) -> tuple[LieElement, ...]:
    """Alternative generating set for the degree-n ideal piece.

    Brackets rho directly with every Lyndon basis element of the needed
    intermediate weights and closes with one more round of generator
    brackets at each step.  Spans the same row space as the echelon-fed
    sweep; small-instance tests compare the two.
    """
    _check_relator(rho, n)
    scheme = rho.scheme
    d = rho.degree
    memo: dict[int, list[LieElement]] = {}

    def level(k: int) -> list[LieElement]:
        if k in memo:
            return memo[k]
        if k == d:
            memo[k] = [rho]
            return memo[k]
        seen: dict[tuple, LieElement] = {}

        def push(elem: LieElement):
            if elem.is_zero():
                return
            key = tuple(sorted(elem.coords.items()))
            if key not in seen:
                seen[key] = elem

        for word in lyndon_words(scheme, k - d):
            push(bracket(LieElement(scheme, k - d, {word: 1}), rho))
        for letter in range(scheme.letters):
            source = k - scheme.letter_weight(letter)
            if source >= d:
                for q in level(source):
                    push(bracket(generator_element(scheme, letter), q))
        memo[k] = list(seen.values())
        return memo[k]

    return tuple(level(n))


def torsion_free_certificate(rho: LieElement, max_degree: int, *,
                             budget: int = DEFAULT_BUDGET) -> TorsionReport:
    """Per-degree divisor chains for all degrees up to max_degree.

    The verdict is "torsion free up to the computed range": true exactly
    when every elementary divisor equals 1.  A relator of content
    greater than 1 is allowed, the certificate then legitimately fails
    and the note records the violated expectation.  One sweep serves
    every degree, one elimination per degree; the relator and the
    bracket rows stay on the report for the cross-checks.
    """
    _check_relator(rho, rho.degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    d = rho.degree
    dims = witt_dimensions(rho.scheme, max_degree)
    note = None
    content = rho.content()
    if content != 1:
        note = (f"relator content is {content}, not 1; "
                "torsion in the quotient is expected")
    sweep = _IdealSweep(rho, budget)
    reports: list[DegreeReport] = []
    rows: list[list[dict[int, int]]] = []
    aborted: int | None = None
    for n in range(1, max_degree + 1):
        dim_free = dims[n - 1]
        if n < d:
            reports.append(DegreeReport(n, dim_free, 0, (), dim_free, ()))
            continue
        try:
            level, pivots, ncols = sweep.advance()
        except BudgetExceeded:
            aborted = n
            break
        result = _smith_from_echelon(pivots)
        reports.append(DegreeReport(n, ncols, result.rank, result.divisors,
                                    ncols - result.rank, result.nontrivial))
        rows.append(level)
    torsion_free = all(not r.torsion for r in reports)
    return TorsionReport(
        relator=rho,
        relator_degree=d,
        max_degree=max_degree,
        degrees=tuple(reports),
        torsion_free=torsion_free,
        aborted_degree=aborted,
        note=note,
        rows=tuple(rows),
    )


# -- series cross-checks ---------------------------------------------------


def candidate_series(m: int, n: int, e: int, d: int | None, order: int) -> list[int]:
    """Coefficients of 1/(1 - m t - n t^e + t^d) up to the order.

    With d = None the t^d term is dropped: the relator-free sanity
    variant whose coefficients count all words in the free algebra.
    """
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for k in range(1, order + 1):
        value = m * coeffs[k - 1]
        if k >= e:
            value += n * coeffs[k - e]
        if d is not None and k >= d:
            value -= coeffs[k - d]
        coeffs[k] = value
    return coeffs


def pbw_series(dimensions: list[int], order: int) -> list[int]:
    """Graded product prod_k (1 - t^k)^(-dim_k), truncated."""
    return truncpoly.product_of_powers(
        ((k, -g) for k, g in enumerate(dimensions, start=1)), order)


def hilbert_crosscheck(report: TorsionReport) -> HilbertTable:
    """Compare the certified quotient dimensions against the imported series.

    The closed form 1/(1 - m t - n t^e + t^d) comes from the cited
    literature on graded algebras with one defining relator; it is
    validated against the independent Smith-form dimensions of every
    degree the certificate reached, and a mismatch flags the import as
    suspect instead of trusting either side.
    """
    dims = [r.dim_quotient for r in report.degrees]
    return _hilbert_table(report.relator.scheme, report.relator_degree,
                          dims, len(dims))


def pbw_sanity_table(scheme: WeightScheme, max_degree: int) -> HilbertTable:
    """Relator-free variant: the graded product of the free dimensions
    must reproduce 1/(1 - m t - n t^e)."""
    return _hilbert_table(scheme, None, witt_dimensions(scheme, max_degree),
                          max_degree, status="relator-free sanity variant")


def _hilbert_table(scheme: WeightScheme, d: int | None, dims: list[int],
                   max_degree: int, status: str | None = None) -> HilbertTable:
    """The candidate series against the graded product of dims, degree by
    degree; without a status, one that names the degrees that differ."""
    candidate = candidate_series(scheme.m, scheme.n, scheme.e, d, max_degree)
    pbw = pbw_series(dims, max_degree)
    matches = tuple(candidate[k] == pbw[k] for k in range(max_degree + 1))
    if status is None:
        bad = [k for k, ok in enumerate(matches) if not ok]
        status = (f"formula import suspect: mismatch at degrees {bad}" if bad
                  else "closed form imported from the literature, "
                       "validated degree by degree against the certified dimensions")
    return HilbertTable(
        relator_degree=d,
        max_degree=max_degree,
        candidate=tuple(candidate),
        pbw=tuple(pbw),
        matches=matches,
        all_match=all(matches),
        formula_status=status,
    )


def modp_dimension_check(report: TorsionReport, primes) -> ModpCheck:
    """Ranks of the certificate's ideal rows over each F_p against its
    integer ranks.

    Equality in every degree for every prime is exactly the absence of
    p-torsion there.  A relator whose content is divisible by one of
    the primes is expected to mismatch; the note says so.  The rows,
    integer ranks, relator and budget abort all come from ``report``;
    each degree's rows are eliminated once for all the primes, which
    must be distinct and at least one.
    """
    primes = _distinct_primes(primes)
    rho = report.relator
    note = None
    content = rho.content()
    divisible = [p for p in primes if content % p == 0]
    if divisible:
        note = (f"relator content {content} is divisible by {divisible}; "
                "mismatches are expected for those primes")

    tables: list[list[ModpDegreeRow]] = [[] for _ in primes]
    for n, rows in enumerate(report.rows, report.relator_degree):
        ranks = fp_ranks(rows, primes)
        rank_z = report.degrees[n - 1].rank
        for table, p in zip(tables, primes):
            table.append(ModpDegreeRow(
                degree=n, rank_mod_p=ranks[p], rank_integer=rank_z,
                match=ranks[p] == rank_z))
    reports = [ModpReport(prime=p, rows=tuple(table),
                          all_match=all(r.match for r in table))
               for p, table in zip(primes, tables)]
    return ModpCheck(
        primes=primes,
        reports=tuple(reports),
        all_match=all(r.all_match for r in reports),
        aborted_degree=report.aborted_degree,
        note=note,
    )
