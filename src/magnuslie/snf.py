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
column-reduces to [I 0] and every divisor is 1.  Otherwise the general
minimal-pivot loop runs on the echelon rows alone; equal lattices have
equal divisors.  Only the rank and the divisor chain are returned.
Everything is arbitrary-precision, no modular shortcuts; ranks over
prime fields are in ``fprank``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import gcd


def _sparse_rows(rows) -> list[dict[int, int]]:
    out = []
    for row in rows:
        if isinstance(row, dict):
            out.append({int(c): int(v) for c, v in row.items() if v})
        else:
            out.append({c: int(v) for c, v in enumerate(row) if v})
    return out


def _rounded_quotient(a: int, b: int) -> int:
    """Nearest-integer quotient for b > 0; remainder lands in (-b/2, b/2]."""
    return (a + (b >> 1)) // b


def _divisor_chain(values: list[int]) -> tuple[int, ...]:
    """Normalize a diagonal to the divisibility chain via gcd/lcm passes.

    Units divide everything, so they are set aside before the passes.
    """
    units = tuple(1 for v in values if abs(v) == 1)
    vals = [abs(v) for v in values if abs(v) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i]:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] * vals[j] // g
                    changed = True
    return units + tuple(sorted(vals))


@dataclass(frozen=True)
class SmithResult:
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


def _smith_diagonal(mat: list[dict[int, int]]) -> list[int]:
    """Diagonal of a Smith reduction of the sparse rows ``mat`` (destroyed).

    Pivots have minimal absolute value, ties broken toward sparser rows
    and columns; nearest-integer quotients keep entries small.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(mat):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    live = {i for i, row in enumerate(mat) if row}
    row_min: dict[int, int] = {i: min(abs(v) for v in mat[i].values()) for i in live}

    def add_multiple(target: int, source: int, factor: int):
        """row[target] += factor * row[source], keeping indexes in sync."""
        trow = mat[target]
        for c, v in mat[source].items():
            value = trow.get(c, 0) + factor * v
            if value:
                if c not in trow:
                    col_rows.setdefault(c, set()).add(target)
                trow[c] = value
            elif c in trow:
                del trow[c]
                col_rows[c].discard(target)
        if trow:
            row_min[target] = min(abs(v) for v in trow.values())
        else:
            live.discard(target)
            row_min.pop(target, None)

    diagonal: list[int] = []
    while live:
        pivot_row = min(live, key=lambda i: (row_min[i], len(mat[i])))
        target = row_min[pivot_row]
        candidates = [c for c, v in mat[pivot_row].items() if abs(v) == target]
        pivot_col = min(candidates, key=lambda c: (len(col_rows[c]), c))

        while True:
            piv = mat[pivot_row][pivot_col]
            if piv < 0:
                for c in list(mat[pivot_row]):
                    mat[pivot_row][c] = -mat[pivot_row][c]
                piv = -piv

            # clear the pivot column with row operations
            smaller: int | None = None
            for r in list(col_rows.get(pivot_col, ())):
                if r == pivot_row or r not in live:
                    continue
                q = _rounded_quotient(mat[r][pivot_col], piv)
                if q:
                    add_multiple(r, pivot_row, -q)
                if r in live and mat[r].get(pivot_col):
                    smaller = r
            if smaller is not None:
                pivot_row = smaller
                continue

            # clear the pivot row with column operations; the pivot column
            # holds only the pivot now, so each update touches one entry
            leftover = False
            prow = mat[pivot_row]
            for c in [c for c in prow if c != pivot_col]:
                q = _rounded_quotient(prow[c], piv)
                if q:
                    value = prow[c] - q * piv
                    if value:
                        prow[c] = value
                    else:
                        del prow[c]
                        col_rows[c].discard(pivot_row)
                if prow.get(c):
                    leftover = True
            if not leftover:
                break
            # a remainder smaller than the pivot appeared in this row
            row_min[pivot_row] = min(abs(v) for v in prow.values())
            target = row_min[pivot_row]
            candidates = [c for c, v in prow.items() if abs(v) == target]
            pivot_col = min(candidates,
                            key=lambda c: (len(col_rows.get(c, ())), c))

        diagonal.append(piv)
        live.discard(pivot_row)
        row_min.pop(pivot_row, None)
        col_rows.get(pivot_col, set()).discard(pivot_row)
        del mat[pivot_row][pivot_col]
    return diagonal


def smith_normal_form(rows, ncols: int | None = None) -> SmithResult:
    """Rank and elementary divisors of an integer matrix.

    ``rows`` is an iterable of dense sequences or sparse {col: value}
    dicts.  ``ncols`` is only used for validation when given.
    """
    mat = _sparse_rows(rows)
    if ncols is not None:
        for row in mat:
            if row and (min(row) < 0 or max(row) >= ncols):
                raise ValueError("column index beyond the declared width")
    return _smith_from_echelon(_echelon(mat))


def _smith_from_echelon(pivots: dict[int, dict[int, int]]) -> SmithResult:
    """Rank and elementary divisors of the lattice an ``_echelon`` basis
    spans; the basis is left intact, as the ideal sweep feeds it upward."""
    if all(abs(row[lead]) == 1 for lead, row in pivots.items()):
        diagonal = [1] * len(pivots)
    else:
        diagonal = _smith_diagonal([dict(row) for row in pivots.values()])
    return SmithResult(rank=len(diagonal), divisors=_divisor_chain(diagonal))


def integer_row_space(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer span of the rows (Hermite form).

    Two generating sets span the same subgroup of Z^ncols exactly when
    this function returns identical tuples for both.
    """
    pivots = _echelon(_sparse_rows(rows))
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
        if min(row) < 0 or max(row) >= ncols:
            raise ValueError("column index beyond the declared width")
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
