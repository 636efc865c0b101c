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

Cross-checks on the same data:

* an independent generation strategy (direct brackets with basis
  elements plus one round of generator brackets) that must produce the
  same integer row space,
* the candidate enveloping-algebra series 1/(1 - m t - n t^e + t^d),
  imported from the literature on one-relator graded Lie algebras and
  always validated against the certified dimensions, never assumed,
* ranks over small prime fields, which agree with the integer ranks
  exactly when no p-torsion exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import truncpoly
from .liebasis import (LieElement, _add_bracket, bracket, generator_element,
                       lyndon_words, witt_dimensions)
from .series import WeightScheme, _is_prime
from .snf import _echelon, _smith_from_echelon, fp_rank

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
class IdealComponent:
    degree: int
    generators: tuple[LieElement, ...]
    matrix: tuple[tuple[int, ...], ...]

    def matrix_text(self) -> str:
        """One row per line, space-separated integers, for external tools."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.matrix)


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
    scheme: WeightScheme
    relator_degree: int
    max_degree: int
    degrees: tuple[DegreeReport, ...]
    torsion_free: bool
    aborted_degree: int | None
    note: str | None
    # word-keyed ideal rows of degrees d, d + 1, ..., the brackets the
    # sweep made before eliminating them (the mod-p check reads these)
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
        # degree -> its echelon basis, word-keyed
        self.bases: dict[int, list[dict]] = {}

    def next_rows(self) -> tuple[list[dict], list[tuple[int, ...]]]:
        """The next degree's word-keyed rows and its Lyndon basis.

        The row count is bounded by the kept bases before any bracket is
        computed; BudgetExceeded when that bound times the columns
        outgrows the budget.
        """
        n = self.degree + 1
        basis = lyndon_words(self.scheme, n)
        weights = self.scheme.letter_weights()
        first = n == self.rho.degree
        sources = [self.bases.get(n - w, ()) for w in weights]
        bound = 1 if first else sum(map(len, sources))
        if bound * max(len(basis), 1) > self.budget:
            raise BudgetExceeded(n, bound, len(basis), self.budget)
        if first:
            rows = [dict(self.rho.coords)]
        else:
            rows = [image for letter, source in enumerate(sources)
                    for coords in source
                    if (image := _add_bracket({}, {(letter,): 1}, coords))]
        return rows, basis

    def advance(self) -> tuple[list[dict], dict[int, dict[int, int]], int]:
        """Build the next degree: its word-keyed rows, their echelon basis
        over the column indices of its Lyndon basis, and the column count."""
        rows, basis = self.next_rows()
        n = self.degree + 1
        pivots = _echelon(_indexed(rows, basis))
        self.bases[n] = [{basis[c]: v for c, v in row.items()}
                         for row in pivots.values()]
        self.bases.pop(n - max(self.scheme.letter_weights()), None)
        self.degree = n
        return rows, pivots, len(basis)


def _check_relator(rho: LieElement, n: int, scheme: WeightScheme) -> LieElement:
    if scheme != rho.scheme:
        rho = rho.with_scheme(scheme)
    if rho.is_zero():
        raise ValueError("the relator must be nonzero")
    if n < rho.degree:
        raise ValueError(f"degree {n} is below the relator degree {rho.degree}")
    return rho


def _indexed(rows: list[dict], basis: list[tuple[int, ...]]) -> list[dict[int, int]]:
    """Word-keyed rows over the column indices of the basis."""
    index = {word: i for i, word in enumerate(basis)}
    return [{index[w]: c for w, c in coords.items()} for coords in rows]


def _sweep_below(rho: LieElement, n: int, budget: int) -> _IdealSweep:
    """A sweep of (rho) that has built every degree below n."""
    sweep = _IdealSweep(rho, budget)
    while sweep.degree < n - 1:
        sweep.advance()
    return sweep


def ideal_component(rho: LieElement, n: int, scheme: WeightScheme,
                    budget: int = DEFAULT_BUDGET) -> IdealComponent:
    """Generators and coordinate matrix of the degree-n piece of (rho).

    Generators are the sweep's rows: the nonzero brackets of each
    generator with the echelon basis of the degree below it.  Columns run
    over the Lyndon basis of the degree in lexicographic order.
    """
    rho = _check_relator(rho, n, scheme)
    rows, basis = _sweep_below(rho, n, budget).next_rows()
    generators = tuple(LieElement(scheme, n, coords) for coords in rows)
    matrix = tuple(tuple(row.get(w, 0) for w in basis) for row in rows)
    return IdealComponent(degree=n, generators=generators, matrix=matrix)


def ideal_component_alt(rho: LieElement, n: int, scheme: WeightScheme) -> tuple[LieElement, ...]:
    """Alternative generating set for the degree-n ideal piece.

    Brackets rho directly with every Lyndon basis element of the needed
    intermediate weights and closes with one more round of generator
    brackets at each step.  Spans the same row space as the echelon-fed
    sweep; small-instance tests compare the two.
    """
    rho = _check_relator(rho, n, scheme)
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


def _degree_report(n: int, pivots: dict[int, dict[int, int]], ncols: int
                   ) -> DegreeReport:
    result = _smith_from_echelon(pivots)
    return DegreeReport(
        degree=n,
        dim_free=ncols,
        rank=result.rank,
        divisors=result.divisors,
        dim_quotient=ncols - result.rank,
        torsion=result.nontrivial,
    )


def quotient_degree_report(rho: LieElement, n: int, scheme: WeightScheme,
                           budget: int = DEFAULT_BUDGET) -> DegreeReport:
    """Exact rank, divisor chain, and quotient data at one degree."""
    rho = _check_relator(rho, n, scheme)
    _, pivots, ncols = _sweep_below(rho, n, budget).advance()
    return _degree_report(n, pivots, ncols)


def torsion_free_certificate(rho: LieElement, max_degree: int,
                             scheme: WeightScheme,
                             budget: int = DEFAULT_BUDGET) -> TorsionReport:
    """Per-degree divisor chains for all degrees up to max_degree.

    The verdict is "torsion free up to the computed range": true exactly
    when every elementary divisor equals 1.  A relator of content
    greater than 1 is allowed, the certificate then legitimately fails
    and the note records the violated expectation.  One sweep serves
    every degree, one elimination per degree; the bracket rows stay on
    the report for the mod-p check.
    """
    rho = _check_relator(rho, rho.degree, scheme)
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    d = rho.degree
    dims = witt_dimensions(scheme, max_degree)
    note = None
    content = rho.content()
    if content != 1:
        note = (f"relator content is {content}, not 1; "
                "torsion in the quotient is expected")
    sweep = _IdealSweep(rho, budget)
    reports: list[DegreeReport] = []
    rows: list[list[dict]] = []
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
        reports.append(_degree_report(n, pivots, ncols))
        rows.append(level)
    torsion_free = all(not r.torsion for r in reports)
    return TorsionReport(
        scheme=scheme,
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


def hilbert_crosscheck(report: TorsionReport, scheme: WeightScheme | None = None,
                       d: int | None = None, max_degree: int | None = None) -> HilbertTable:
    """Compare certified quotient dimensions against the imported series.

    The closed form 1/(1 - m t - n t^e + t^d) comes from the cited
    literature on graded algebras with one defining relator; it is
    validated against the independent Smith-form dimensions here and a
    mismatch flags the import as suspect instead of trusting either side.
    """
    scheme = report.scheme if scheme is None else scheme
    d = report.relator_degree if d is None else d
    covered = len(report.degrees)
    if max_degree is None:
        max_degree = min(report.max_degree, covered)
    max_degree = min(max_degree, covered)
    dims = [r.dim_quotient for r in report.degrees[:max_degree]]
    candidate = candidate_series(scheme.m, scheme.n, scheme.e, d, max_degree)
    pbw = pbw_series(dims, max_degree)
    matches = tuple(candidate[k] == pbw[k] for k in range(max_degree + 1))
    all_match = all(matches)
    if all_match:
        status = ("closed form imported from the literature, "
                  "validated degree by degree against the certified dimensions")
    else:
        bad = [k for k, ok in enumerate(matches) if not ok]
        status = f"formula import suspect: mismatch at degrees {bad}"
    return HilbertTable(
        relator_degree=d,
        max_degree=max_degree,
        candidate=tuple(candidate),
        pbw=tuple(pbw),
        matches=matches,
        all_match=all_match,
        formula_status=status,
    )


def pbw_sanity_table(scheme: WeightScheme, max_degree: int) -> HilbertTable:
    """Relator-free variant: the graded product of the free dimensions
    must reproduce 1/(1 - m t - n t^e)."""
    dims = witt_dimensions(scheme, max_degree)
    candidate = candidate_series(scheme.m, scheme.n, scheme.e, None, max_degree)
    pbw = pbw_series(dims, max_degree)
    matches = tuple(candidate[k] == pbw[k] for k in range(max_degree + 1))
    return HilbertTable(
        relator_degree=None,
        max_degree=max_degree,
        candidate=tuple(candidate),
        pbw=tuple(pbw),
        matches=matches,
        all_match=all(matches),
        formula_status="relator-free sanity variant",
    )


def modp_dimension_check(rho: LieElement, max_degree: int, scheme: WeightScheme,
                         primes, report: TorsionReport | None = None,
                         budget: int = DEFAULT_BUDGET) -> ModpCheck:
    """Ranks of the ideal components over each F_p against integer ranks.

    Equality in every degree for every prime is exactly the absence of
    p-torsion there.  A relator whose content is divisible by one of
    the primes is expected to mismatch; the note says so.  The rows,
    integer ranks and budget abort come from ``report``, the certificate
    of the same relator to at least ``max_degree``; without one, a
    certificate is computed under ``budget``.
    """
    rho = _check_relator(rho, rho.degree, scheme)
    primes = tuple(primes)
    for p in primes:
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
    d = rho.degree
    if report is None:
        report = torsion_free_certificate(rho, max_degree, scheme, budget)
    elif (report.scheme != scheme or report.relator_degree != d
          or report.max_degree < max_degree
          or len(report.rows) != max(len(report.degrees) - d + 1, 0)
          or (report.rows and report.rows[0] != [rho.coords])):
        raise ValueError("the report is not a certificate of this relator "
                         f"up to degree {max_degree}")
    note = None
    content = rho.content()
    divisible = [p for p in primes if content % p == 0]
    if divisible:
        note = (f"relator content {content} is divisible by {divisible}; "
                "mismatches are expected for those primes")

    tables: list[list[ModpDegreeRow]] = [[] for _ in primes]
    for n, rows in zip(range(d, max_degree + 1), report.rows):
        indexed = _indexed(rows, lyndon_words(scheme, n))
        rank_z = report.degrees[n - 1].rank
        for table, p in zip(tables, primes):
            rank_p = fp_rank(indexed, p)
            table.append(ModpDegreeRow(
                degree=n, rank_mod_p=rank_p, rank_integer=rank_z,
                match=rank_p == rank_z))
    reports = [ModpReport(prime=p, rows=tuple(table),
                          all_match=all(r.match for r in table))
               for p, table in zip(primes, tables)]
    aborted = report.aborted_degree
    return ModpCheck(
        primes=primes,
        reports=tuple(reports),
        all_match=all(r.all_match for r in reports),
        aborted_degree=aborted if aborted is not None and aborted <= max_degree else None,
        note=note,
    )
