"""Block-by-block study of the one-relator quotient of the free Lie ring.

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

Rho is homogeneous in its content vector when it is multihomogeneous,
else perhaps in its x-degree and y-count, and a bracket with g adds g
to the content of each word.  So each degree splits into blocks that
share no column: block c of degree n is built from the blocks of degree
n - w_g that g maps to c, and is eliminated on its own.  Ranks add over
the blocks and the divisors of the block-diagonal matrix are the
blocks' merged into one chain (``snf._divisor_chain``), so nothing the
certificate reports depends on the split.  Each generator's brackets
go through one ad table, in column indices, over the columns that its
source block uses; the table lives only while that generator's rows are
built (``_ad_table``).

The certificate (``torsion_free_certificate``) takes each block through
one pass: the sweep builds the block's rows, ``fprank.fp_ranks`` ranks
them over the requested prime fields, ``_echelon`` eliminates those same
rows in place, the Smith step reads the echelon basis, and the rows are
released before the next block is built.  The sweep keeps a block's
echelon basis only while a degree up to the certificate's cap still
reads it.  The certificate carries its relator, its per-degree reports
and those ranks, no rows, and it is the only input of the two
cross-checks of it:

* the candidate enveloping-algebra series 1/(1 - m t - n t^e + t^d)
  (``hilbert.hilbert_crosscheck``),
* the ranks of the sweep's rows over small prime fields, which agree
  with the integer ranks exactly when no p-torsion exists
  (``modp_dimension_check``, over the primes the certificate ranked and
  no others); the ranks for all the primes come from one elimination
  per block modulo their product, which splits the modulus only at a
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
from .snf import SmithResult, _divisor_chain, _echelon, _smith_from_echelon

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
    # taken before each block's elimination for the primes the
    # certificate was given (the mod-p check reads these)
    modp_ranks: dict[int, tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False)


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
    """Generating rows of the ideal (rho) and their echelon bases, one
    block of one degree at a time, from the relator's degree up to
    ``top``.

    The rows of degree d are rho alone; those of degree n > d are
    [g, e] for each generator g and each row e of the echelon basis of
    degree n - w_g.  Bracketing is Z-linear and the echelon steps are
    unimodular, so the rows span the degree-n piece of the ideal.  The
    rows of a degree fall into the blocks of the grading that rho is
    homogeneous in (``_letter_classes``); block c of degree n is built
    from the blocks of degree n - w_g that g maps to c, and no
    elimination step mixes two blocks, as they share no column.  A
    block's basis is kept only while a degree up to ``top`` still reads
    it; the sweep never goes past ``top``.  A sweep belongs to one
    computation and is never shared.
    """

    def __init__(self, rho: LieElement, top: int, budget: int):
        self.rho = rho
        self.scheme = rho.scheme
        self.top = top
        self.budget = budget
        self.degree = rho.degree - 1
        self.classes = _letter_classes(rho)
        # degree -> block key -> the block's echelon basis as _echelon
        # returns it; degree -> its Lyndon words, the basis columns; the
        # current degree's word -> column
        self.bases = {}
        self.words = {}
        self.index = {}

    def next_degree(self) -> list[tuple]:
        """Advance to the next degree and return its blocks, each its key
        and the (letter, source block key) pairs that build it.

        The row count is bounded by the kept bases, and the columns are
        counted, not enumerated, before the basis or any bracket is
        computed; BudgetExceeded when the bound times the columns
        outgrows the budget, with the sweep left as it was.  Then the
        bases that no degree from this one to ``top`` reads are dropped.
        """
        n = self.degree + 1
        weights = self.scheme.letter_weights()
        bound = 1 if n == self.rho.degree else sum(
            len(basis) for w in weights for basis in self.bases.get(n - w, {}).values())
        cols = witt_dimensions(self.scheme, n)[-1]
        if bound * max(cols, 1) > self.budget:
            raise BudgetExceeded(n, bound, cols, self.budget)
        # degree k is read by degrees k + 1 and k + w for the largest
        # letter weight w
        for k in list(self.words):
            if k < n - 1 and not n <= k + weights[-1] <= self.top:
                self.bases.pop(k, None)
                del self.words[k]
        self.degree = n
        self.words[n] = basis = lyndon_words(self.scheme, n)
        self.index = {word: i for i, word in enumerate(basis)}
        classes = self.classes
        blocks: dict[tuple, list] = {}
        if n == self.rho.degree:
            blocks[()] = []
        for letter, w in enumerate(weights):
            for key in self.bases.get(n - w, ()):
                target = key if classes is None else tuple(sorted(key + (classes[letter],)))
                blocks.setdefault(target, []).append((letter, key))
        return list(blocks.items())

    def next_rows(self, block: tuple) -> list[dict[int, int]]:
        """One block's rows over the column indices of the current degree's
        Lyndon basis: rho at the relator's degree, above it [g, e] for
        each row e of each source block of g.  Each generator g gets one
        ad table over the columns its source block uses, and each row
        [g, e] is the sum of the table's entries over the columns of e;
        the table is dropped once g's rows are built.
        """
        if self.degree == self.rho.degree:
            return [{self.index[w]: c for w, c in self.rho.coords.items()}]
        rows = []
        for letter, key in block[1]:
            k = self.degree - self.scheme.letter_weight(letter)
            source = self.bases[k][key]
            table = _ad_table((letter,), self.words[k], self.index,
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
        return rows

    def eliminate(self, block: tuple, rows: list[dict[int, int]]
                  ) -> dict[int, dict[int, int]]:
        """Eliminate one block's rows, as ``next_rows`` built them, in place
        into their echelon basis, and return it; the basis is kept when
        the degree above, which the x letters read it from, is at most
        ``top``.  The rows are consumed."""
        pivots = _echelon(rows)
        if pivots and self.degree < self.top:
            self.bases.setdefault(self.degree, {})[block[0]] = pivots
        return pivots


def _letter_classes(rho: LieElement):
    """The class of each letter in the finest of three gradings that rho
    is homogeneous in: each letter its own (the content vector), x
    letters against y letters, or none (None: one block per degree).  A
    block's key is the sorted classes of the letters a bracket added to
    rho, so the blocks of one degree share no Lyndon word."""
    letters = range(rho.scheme.letters)
    for classes in (letters, [z >= rho.scheme.m for z in letters]):
        if len({tuple(sorted([classes[z] for z in word])) for word in rho.coords}) == 1:
            return classes
    return None


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
    the rows the certificate ranks and eliminates at degree n, block
    after block, with each column index replaced by its word."""
    _check_relator(rho, n)
    sweep = _IdealSweep(rho, n, budget)
    while sweep.degree < n - 1:
        for block in sweep.next_degree():
            sweep.eliminate(block, sweep.next_rows(block))
    blocks = sweep.next_degree()
    basis = sweep.words[n]
    return [{basis[i]: c for i, c in row.items()}
            for block in blocks for row in sweep.next_rows(block)]


def ideal_component_alt(rho: LieElement, n: int) -> tuple[LieElement, ...]:
    """Alternative generating set for the degree-n ideal piece.

    Brackets rho directly with every Lyndon basis element of each
    intermediate weight and closes with one more round of generator
    brackets at each step, keeping each distinct nonzero value once.
    Spans the same row space as the echelon-fed sweep; small-instance
    tests compare the two.
    """
    _check_relator(rho, n)
    scheme, d = rho.scheme, rho.degree
    levels = {d: [rho]}
    for k in range(d + 1, n + 1):
        found = [bracket(LieElement(scheme, k - d, {word: 1}), rho)
                 for word in lyndon_words(scheme, k - d)]
        for letter in range(scheme.letters):
            for q in levels.get(k - scheme.letter_weight(letter), ()):
                found.append(bracket(generator_element(scheme, letter), q))
        levels[k] = list({tuple(sorted(e.coords.items())): e
                          for e in found if not e.is_zero()}.values())
    return tuple(levels[n])


def torsion_free_certificate(rho: LieElement, max_degree: int, *,
                             budget: int = DEFAULT_BUDGET,
                             primes=()) -> TorsionReport:
    """Per-degree divisor chains for all degrees up to max_degree.

    The verdict is "torsion free up to the computed range": true exactly
    when every elementary divisor equals 1.  A relator of content
    greater than 1 is allowed, the certificate then legitimately fails
    and the note records the violated expectation.  One sweep serves
    every degree, one pass per block: its rows are ranked over F_p for
    each of the given primes (distinct, possibly none), then eliminated
    in place; ranks are summed and divisors merged over the blocks of a
    degree.  The relator and the ranks stay on the report for the
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
    sweep = _IdealSweep(rho, max_degree, budget)
    reports: list[DegreeReport] = []
    ranks: list[dict[int, int]] = []
    aborted: int | None = None
    for n in range(1, max_degree + 1):
        if n < d:
            reports.append(DegreeReport(n, dims[n - 1], 0, (), dims[n - 1], ()))
            continue
        try:
            blocks = sweep.next_degree()
        except BudgetExceeded:
            aborted = n
            break
        rank, diagonal, fp = 0, [], dict.fromkeys(primes, 0)
        for block in blocks:
            rows = sweep.next_rows(block)
            for p, r in (fp_ranks(rows, primes) if primes else {}).items():
                fp[p] += r
            result = _smith_from_echelon(sweep.eliminate(block, rows))
            del rows  # spent: freed before the next block's rows are built
            rank += result.rank
            diagonal += result.divisors
        ranks.append(fp)
        # the degree's matrix is block diagonal: its divisors are the
        # blocks' merged into one chain
        result = SmithResult(rank=rank, divisors=_divisor_chain(diagonal))
        ncols = len(sweep.words[n])
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


# -- the mod-p cross-check -------------------------------------------------


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
