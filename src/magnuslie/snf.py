"""Exact integer matrix kernels: Smith elementary divisors and canonical
integer row-space bases.

Both eliminate row by row in lead-column order.  Each row walks its
sorted columns with a cursor; a column added by fill-in lies past the
cursor and is inserted by bisection.  Over Z (``_echelon``) a row is
reduced by exact division when the kept row's lead divides its lead and
by a unimodular Bezout step otherwise, so the echelon basis spans the
input lattice; a pivot row made by a Bezout step or kept with a lead
other than +-1 has its later entries reduced by the pivots of their
columns, which keeps the entries small.  The Smith routine starts from
that basis (``_smith_from_echelon``, which the ideal sweep calls on the
echelon it feeds to the next degree).  When every lead is +-1, as for
the usual ideal matrices of the torsion certificates, the basis
column-reduces to [I 0] and every divisor is 1.  Otherwise its columns
are reduced by ``_echelon`` on the transpose, alternating with the rows
until the matrix is diagonal; equal lattices have equal divisors.  Only
the rank and the divisor chain are returned.  Everything is
arbitrary-precision, no modular shortcuts; ranks over prime fields are
in ``fprank``.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from math import gcd

from .record import Record


def _sparse_rows(rows, ncols: int | None = None) -> list[dict[int, int]]:
    """The rows as {column: nonzero entry} dicts, checked: TypeError for
    an entry or column index that is not an int (a bool, float or
    Fraction is not), ValueError for a column outside a given width."""
    out = []
    for row in rows:
        sparse = {}
        for c, v in row.items() if isinstance(row, dict) else enumerate(row):
            if c.__class__ is not int or v.__class__ is not int:
                raise TypeError(f"integer entry and column expected, got {v!r} "
                                f"in column {c!r}")
            if v:
                sparse[c] = v
        if ncols is not None and sparse and (min(sparse) < 0 or max(sparse) >= ncols):
            raise ValueError("column index beyond the declared width")
        out.append(sparse)
    return out


def _rounded_quotient(a: int, b: int) -> int:
    """Nearest-integer quotient for b > 0; remainder lands in (-b/2, b/2]."""
    return (a + (b >> 1)) // b


def _divisor_chain(values: list[int]) -> tuple[int, ...]:
    """Normalize a diagonal to the divisibility chain via gcd/lcm steps.

    Units divide everything, so they are set aside first.  The others are
    counted by value: a step turns k copies each of a and b, neither
    dividing the other, into k copies each of their gcd and lcm, k the
    smaller count, so many equal values cost one step.  Each step keeps
    the Smith form and raises the sum of squares, so the steps end.
    """
    counts = Counter(abs(v) for v in values if abs(v) != 1)
    units = (1,) * (len(values) - counts.total())
    while True:
        distinct = sorted(counts)
        pair = next(((a, b) for i, a in enumerate(distinct)
                     for b in distinct[i + 1:] if b % a), None)
        if pair is None:
            return units + tuple(sorted(counts.elements()))
        a, b = pair
        k, g = min(counts[a], counts[b]), gcd(a, b)
        counts.subtract({a: k, b: k})
        counts = Counter({g: k, a // g * b: k}) + counts


class SmithResult(Record):
    rank: int
    divisors: tuple[int, ...]

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d != 1)


def _echelon(mat: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row-echelon basis over Z of the span of ``mat``, keyed by lead column.

    The sparse rows of ``mat`` are reduced in place and become the basis
    rows.  Every step is unimodular, so the basis spans the same lattice.
    """
    pivots: dict[int, dict[int, int]] = {}
    for current in mat:
        leads = sorted(current)
        i = 0
        while current:
            lead = leads[i]
            i += 1
            b = current.get(lead)
            if b is None:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = current
                if abs(b) != 1:
                    _reduce_past_lead(current, pivots)
                break
            a = pivot[lead]
            if b % a == 0:
                _subtract(current, b // a, pivot, leads, i)
                continue
            # unimodular 2x2 combination: new pivot has entry gcd(a, b) at lead
            g = gcd(a, b)
            x, y = _bezout(a, b)
            fa, fb = a // g, b // g
            combo: dict[int, int] = {}
            reduced: dict[int, int] = {}
            for c in set(pivot) | set(current):
                u, w = pivot.get(c, 0), current.get(c, 0)
                value = x * u + y * w
                if value:
                    combo[c] = value
                value = fa * w - fb * u
                if value:
                    reduced[c] = value
            pivots[lead] = combo
            _reduce_past_lead(combo, pivots)
            current = reduced
            leads = sorted(current)
            i = 0
    return pivots


def _subtract(row: dict[int, int], q: int, pivot: dict[int, int],
              cols: list[int], i: int) -> None:
    """row -= q * pivot; a column the row gains is inserted into the
    sorted ``cols`` at or past position i."""
    for c, v in pivot.items():
        old = row.get(c)
        if old is None:
            row[c] = -q * v
            insort(cols, c, i)
        elif old == q * v:
            del row[c]
        else:
            row[c] = old - q * v


def _reduce_past_lead(row: dict[int, int], pivots: dict[int, dict[int, int]]
                      ) -> None:
    """Reduce each entry of a pivot row past its lead by the kept pivot of
    that column, to at most half that pivot's lead.  Without this, the
    rows of an elimination with many non-unit leads grow to entries of
    hundreds of thousands of digits."""
    cols = sorted(row)
    i = 1
    while i < len(cols):
        c = cols[i]
        i += 1
        v = row.get(c)
        pivot = pivots.get(c)
        if v is None or pivot is None:
            continue
        a = pivot[c]
        q = _rounded_quotient(v, a) if a > 0 else _rounded_quotient(-v, -a)
        if q:
            _subtract(row, q, pivot, cols, i)


def smith_normal_form(rows, ncols: int | None = None) -> SmithResult:
    """Rank and elementary divisors of an integer matrix.

    ``rows`` is an iterable of dense sequences or sparse {col: value}
    dicts.  ``ncols`` is only used for validation when given.
    """
    return _smith_from_echelon(_echelon(_sparse_rows(rows, ncols)))


def _smith_from_echelon(pivots: dict[int, dict[int, int]]) -> SmithResult:
    """Rank and elementary divisors of the lattice an ``_echelon`` basis
    spans; the basis is left intact, as the ideal sweep feeds it upward.

    When every lead is +-1 the rows column-reduce to [I 0].  Otherwise
    the columns are reduced by ``_echelon`` on the transpose, built in
    fresh dicts, and the two alternate until every lead is +-1 or every
    row is its lead alone (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    This ends because the rows are sorted by lead: the first row of the
    transpose is {0: a}, where a is the first lead, so the first new lead
    is the gcd of the old first row.  That is either a proper divisor of
    a, or a itself, and then that row and column are cleared.  A cleared
    row and column stay cleared in later passes, so each lead can shrink
    only finitely often, and there are at most rank phases.
    """
    while (any(abs(row[lead]) != 1 for lead, row in pivots.items())
           and any(len(row) > 1 for row in pivots.values())):
        columns: dict[int, dict[int, int]] = {}
        for i, lead in enumerate(sorted(pivots)):
            for c, v in pivots[lead].items():
                columns.setdefault(c, {})[i] = v
        pivots = _echelon([columns[c] for c in sorted(columns)])
    diagonal = [row[lead] for lead, row in pivots.items()]
    return SmithResult(rank=len(diagonal), divisors=_divisor_chain(diagonal))


def integer_row_space(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer span of the rows (Hermite form).

    Two generating sets span the same subgroup of Z^ncols exactly when
    this function returns identical tuples for both.
    """
    pivots = _echelon(_sparse_rows(rows, ncols))
    # normalize: positive pivots, entries above each pivot reduced into [0, pivot)
    for lead in sorted(pivots):
        row = pivots[lead]
        if row[lead] < 0:
            pivots[lead] = row = {c: -v for c, v in row.items()}
        for other_lead, other in pivots.items():
            if other_lead == lead or lead not in other:
                continue
            q = other[lead] // row[lead]
            if q:
                for c, v in row.items():
                    value = other.get(c, 0) - q * v
                    if value:
                        other[c] = value
                    else:
                        other.pop(c, None)
    out = []
    for lead in sorted(pivots):
        row = pivots[lead]
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v
        out.append(tuple(dense))
    return tuple(out)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_x, -old_y
    return old_x, old_y
