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
quotient component, and it feeds the degrees above.  Each generator's
brackets go through one ad table, in column indices, over the source
degree's Lyndon words that its basis uses; the table lives only while
that generator's rows are built (``_ad_table``).

The certificate (``torsion_free_certificate``) takes each degree through
one pass: the sweep builds the degree's rows, ``fprank.fp_ranks`` ranks
them over the requested prime fields, ``_echelon`` eliminates those same
rows in place, the Smith step reads the echelon basis, and the rows are
released.  The certificate carries its relator, its per-degree reports
and those ranks, no rows, and it is the only input of the two
cross-checks of it:

* the candidate enveloping-algebra series 1/(1 - m t - n t^e + t^d),
  imported from the literature on one-relator graded Lie algebras and
  always validated against the certified dimensions, never assumed
  (``hilbert_crosscheck``),
* the ranks of the sweep's rows over small prime fields, which agree
  with the integer ranks exactly when no p-torsion exists
  (``modp_dimension_check``, over the primes the certificate ranked and
  no others); the ranks for all the primes come from one elimination
  per degree modulo their product, which splits the modulus only at a
  zero-divisor lead (``fprank.fp_ranks``).

An independent generation strategy (direct brackets with basis elements
plus one round of generator brackets, ``ideal_component_alt``) must span
the same integer row space as the sweep's rows (``ideal_component``).
"""

from __future__ import annotations

from .fprank import _distinct_primes, fp_ranks
from .liebasis import (LieElement, _bracket_words, bracket, generator_element,
                       lyndon_words, witt_dimensions)
from .record import Record, field
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


class DegreeReport(Record):
    degree: int
    dim_free: int
    rank: int
    divisors: tuple[int, ...]
    dim_quotient: int
    torsion: tuple[int, ...]


class TorsionReport(Record):
    # rho and -rho generate the same ideal: certificates compare by what
    # they certify, not by the relator that was given
    relator: LieElement = field(compare=False)
    relator_degree: int
    max_degree: int
    degrees: tuple[DegreeReport, ...]
    torsion_free: bool
    aborted_degree: int | None
    note: str | None
    # prime -> the F_p ranks of the ideal rows of degrees d, d + 1, ...,
    # taken before each degree's elimination for the primes the
    # certificate was given (the mod-p check reads these)
    modp_ranks: dict[int, tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False)


class HilbertTable(Record):
    relator_degree: int
    max_degree: int
    candidate: tuple[int, ...]
    pbw: tuple[int, ...]
    matches: tuple[bool, ...]
    all_match: bool
    formula_status: str


class ModpDegreeRow(Record):
    degree: int
    rank_mod_p: int
    rank_integer: int
    match: bool


class ModpReport(Record):
    prime: int
    rows: tuple[ModpDegreeRow, ...]
    all_match: bool


class ModpCheck(Record):
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
        outgrows the budget.  Above the relator's degree, each generator
        g whose source degree keeps a basis gets one ad table over the
        columns that basis uses, and each row [g, e] is the sum of the
        table's entries over the columns of e; the table is dropped once
        g's rows are built.
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
            source = self.bases.get(n - w)
            if not source:
                continue
            table = _ad_table((letter,), self.words[n - w], index,
                              set().union(*source.values()))
            for coords in source.values():
                row: dict[int, int] = {}
                for j, c in coords.items():
                    for i, b in table[j]:
                        if value := row.get(i, 0) + c * b:
                            row[i] = value
                        else:
                            del row[i]
                if row:
                    rows.append(row)
            del table  # before the next generator's table is built
        return rows, basis

    def eliminate(self, rows: list[dict[int, int]], basis: list[tuple[int, ...]]
                  ) -> dict[int, dict[int, int]]:
        """Eliminate the next degree's rows, as ``next_rows`` built them,
        in place into their echelon basis; keep that basis and its words
        for the degrees above, and return it.  The rows are consumed."""
        n = self.degree + 1
        pivots = _echelon(rows)
        self.bases[n], self.words[n] = pivots, basis
        drop = n - max(self.scheme.letter_weights())
        self.bases.pop(drop, None)
        self.words.pop(drop, None)
        self.degree = n
        return pivots


def _ad_table(g: tuple[int], words: list[tuple[int, ...]],
              index: dict[tuple[int, ...], int], used: set[int]) -> list[tuple]:
    """ad g over one degree's Lyndon words: entry j holds the (target
    column, coefficient) pairs of [g, words[j]] for each used column j,
    and nothing for the others.

    For a letter g < v the standard-factorization rule gives gv itself;
    only v < g reads the bracket memo, in its stored order, as
    [g, v] = -[v, g]; and [g, g] = 0.
    """
    table: list[tuple] = [()] * len(words)
    for j in used:
        v = words[j]
        if g < v:
            table[j] = ((index[g + v], 1),)
        elif v < g:
            table[j] = tuple([(index[w], -c) for w, c in _bracket_words(v, g).items()])
    return table


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
    the rows the certificate ranks and eliminates at degree n, with each
    column index replaced by its word."""
    _check_relator(rho, n)
    sweep = _IdealSweep(rho, budget)
    while sweep.degree < n - 1:
        sweep.eliminate(*sweep.next_rows())
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
                             budget: int = DEFAULT_BUDGET,
                             primes=()) -> TorsionReport:
    """Per-degree divisor chains for all degrees up to max_degree.

    The verdict is "torsion free up to the computed range": true exactly
    when every elementary divisor equals 1.  A relator of content
    greater than 1 is allowed, the certificate then legitimately fails
    and the note records the violated expectation.  One sweep serves
    every degree, one pass per degree: its rows are ranked over F_p for
    each of the given primes (distinct, possibly none), then eliminated
    in place; the relator and the ranks stay on the report for the
    cross-checks.
    """
    _check_relator(rho, rho.degree)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    primes = tuple(primes)
    if primes:
        primes = _distinct_primes(primes)
    d = rho.degree
    dims = witt_dimensions(rho.scheme, d)
    note = None
    content = rho.content()
    if content != 1:
        note = (f"relator content is {content}, not 1; "
                "torsion in the quotient is expected")
    sweep = _IdealSweep(rho, budget)
    reports: list[DegreeReport] = []
    ranks: list[dict[int, int]] = []
    aborted: int | None = None
    for n in range(1, max_degree + 1):
        if n < d:
            reports.append(DegreeReport(n, dims[n - 1], 0, (), dims[n - 1], ()))
            continue
        try:
            rows, basis = sweep.next_rows()
        except BudgetExceeded:
            aborted = n
            break
        if primes:
            ranks.append(fp_ranks(rows, primes))
        result = _smith_from_echelon(sweep.eliminate(rows, basis))
        # the rows that did not become pivots are spent: free them before
        # the next degree's rows are built
        del rows
        ncols = len(basis)
        reports.append(DegreeReport(n, ncols, result.rank, result.divisors,
                                    ncols - result.rank, result.nontrivial))
    torsion_free = all(not r.torsion for r in reports)
    return TorsionReport(
        relator=rho,
        relator_degree=d,
        max_degree=max_degree,
        degrees=tuple(reports),
        torsion_free=torsion_free,
        aborted_degree=aborted,
        note=note,
        modp_ranks={p: tuple(r[p] for r in ranks) for p in primes},
    )


# -- series cross-checks ---------------------------------------------------


def candidate_series(m: int, n: int, e: int, d: int, order: int) -> list[int]:
    """Coefficients of 1/(1 - m t - n t^e + t^d) up to the order."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for k in range(1, order + 1):
        value = m * coeffs[k - 1]
        if k >= e:
            value += n * coeffs[k - e]
        if k >= d:
            value -= coeffs[k - d]
        coeffs[k] = value
    return coeffs


def pbw_series(dimensions: list[int], order: int) -> list[int]:
    """Graded product prod_k (1 - t^k)^(-dim_k), truncated.

    Its logarithmic derivative gives N a_N = sum of q_i a_(N-i) over
    i = 1..N, with q_i the sum of k dim_k over k | i (the power sums of
    witt_dimensions); each division is exact, as every a_N is an integer.
    """
    q = [0] * (order + 1)
    for k, dim in enumerate(dimensions[:order], start=1):
        for multiple in range(k, order + 1, k):
            q[multiple] += k * dim
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        coeffs[n] = sum(q[i] * coeffs[n - i] for i in range(1, n + 1)) // n
    return coeffs


def hilbert_crosscheck(report: TorsionReport) -> HilbertTable:
    """Compare the certified quotient dimensions against the imported series.

    The closed form 1/(1 - m t - n t^e + t^d) comes from the cited
    literature on graded algebras with one defining relator; it is
    validated against the independent Smith-form dimensions of every
    degree the certificate reached, and a mismatch flags the import as
    suspect instead of trusting either side.
    """
    scheme, d = report.relator.scheme, report.relator_degree
    dims = [r.dim_quotient for r in report.degrees]
    order = len(dims)
    candidate = candidate_series(scheme.m, scheme.n, scheme.e, d, order)
    pbw = pbw_series(dims, order)
    matches = tuple(candidate[k] == pbw[k] for k in range(order + 1))
    bad = [k for k, ok in enumerate(matches) if not ok]
    status = (f"formula import suspect: mismatch at degrees {bad}" if bad
              else "closed form imported from the literature, "
                   "validated degree by degree against the certified dimensions")
    return HilbertTable(
        relator_degree=d,
        max_degree=order,
        candidate=tuple(candidate),
        pbw=tuple(pbw),
        matches=matches,
        all_match=not bad,
        formula_status=status,
    )


def modp_dimension_check(report: TorsionReport) -> ModpCheck:
    """The certificate's ranks over each F_p against its integer ranks.

    Equality in every degree for every prime is exactly the absence of
    p-torsion there.  A relator whose content is divisible by one of
    the primes is expected to mismatch; the note says so.  The primes,
    in the order the certificate was given them, the F_p ranks, integer
    ranks, relator and budget abort all come from ``report``; ValueError
    when the certificate ranked no primes.
    """
    primes = tuple(report.modp_ranks)
    if not primes:
        raise ValueError("no primes given: the certificate ranked none; "
                         "pass them to torsion_free_certificate")
    rho = report.relator
    note = None
    content = rho.content()
    divisible = [p for p in primes if content % p == 0]
    if divisible:
        note = (f"relator content {content} is divisible by {divisible}; "
                "mismatches are expected for those primes")

    reports = []
    for p in primes:
        table = tuple(
            ModpDegreeRow(degree=n, rank_mod_p=rank,
                          rank_integer=report.degrees[n - 1].rank,
                          match=rank == report.degrees[n - 1].rank)
            for n, rank in enumerate(report.modp_ranks[p], report.relator_degree))
        reports.append(ModpReport(prime=p, rows=table,
                                  all_match=all(r.match for r in table)))
    return ModpCheck(
        primes=primes,
        reports=tuple(reports),
        all_match=all(r.all_match for r in reports),
        aborted_degree=report.aborted_degree,
        note=note,
    )
