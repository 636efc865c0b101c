"""The Hilbert series cross-check of a torsion certificate.

The candidate enveloping-algebra series 1/(1 - m t - n t^e + t^d) is
imported from the literature on one-relator graded Lie algebras and is
always validated against the dimensions the certificate certified, never
assumed.  The check reads the certificate and nothing else.  It is a
module of its own, not part of ``quotient``, to keep that module's
compile peak low (see ``fprank``).
"""

from __future__ import annotations

from .quotient import TorsionReport
from .record import Record


class HilbertTable(Record):
    relator_degree: int
    max_degree: int
    candidate: tuple[int, ...]
    pbw: tuple[int, ...]
    matches: tuple[bool, ...]
    all_match: bool
    formula_status: str


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
