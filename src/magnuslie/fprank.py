"""Ranks over prime fields, for several primes from one elimination.

``fp_ranks`` gives the F_p ranks for distinct primes from one Gaussian
elimination over Z/N, N their product.  Z/N is the product of those
fields, so a step with a unit lead is a step in each of them at once,
and N splits into coprime parts only at a zero-divisor lead (dynamic
evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL '85).  Each row
walks its sorted columns with a cursor, as in ``snf``.  The ranks are
exact: reducing mod p is what a rank over F_p means.

This is a module of its own, not part of ``snf``: compiled from source,
one module holding both kernels peaked at 1.18 MB instead of 1.01 MB,
and the malloc heap grown for that stayed resident in every process
that imports the package.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, prod


# Miller-Rabin with the first 13 prime bases is exact below this bound;
# the first 12 are not, 318665857834031151167461 fools all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError from _PRIME_LIMIT up."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"{p} is too large to test for primality "
                         f"(limit {_PRIME_LIMIT})")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _distinct_primes(primes) -> tuple[int, ...]:
    """The primes as a tuple; ValueError unless there is at least one and
    they are distinct primes."""
    primes = tuple(primes)
    if not primes:
        raise ValueError("no primes given")
    for p in primes:
        if not _is_prime(p):
            raise ValueError(f"{p} is not a prime")
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise ValueError(f"the prime {p} is repeated")
    return primes


def fp_ranks(rows, primes) -> dict[int, int]:
    """Rank over F_p of the rows for each of the distinct primes, from one
    Gaussian elimination modulo their product N.

    The rows are read once, with the class test of ``snf._sparse_rows``:
    TypeError for an entry or column index that is not an int.  A row
    whose first unpivoted lead is a zero divisor mod N is set aside and
    retried after all the others; if it still stops at one, N splits
    (``_finish``).
    """
    primes = _distinct_primes(primes)
    modulus = prod(primes)
    pivots: dict[int, dict[int, int]] = {}
    pending: list[dict[int, int]] = []
    for row in rows:
        current = {}
        for c, v in row.items() if isinstance(row, dict) else enumerate(row):
            if c.__class__ is not int or v.__class__ is not int:
                raise TypeError(f"integer entry and column expected, got {v!r} "
                                f"in column {c!r}")
            if r := v % modulus:
                current[c] = r
        if current and _eliminate(current, pivots, modulus):
            pending.append(current)
    ranks: dict[int, int] = {}
    _finish(pivots, pending, modulus, primes, ranks)
    return {p: ranks[p] for p in primes}


def _eliminate(current: dict[int, int], pivots: dict[int, dict[int, int]],
               modulus: int) -> bool:
    """Reduce a nonzero row mod modulus against the pivots, each of lead
    1, in place.  A row that reaches an unpivoted unit lead is scaled to
    lead 1 and kept as its pivot.  True when it stops at an unpivoted
    zero-divisor lead instead, which is then its smallest column."""
    leads = sorted(current)
    i = 0
    while current:
        lead = leads[i]
        i += 1
        factor = current.get(lead)
        if factor is None:
            continue
        pivot = pivots.get(lead)
        if pivot is None:
            if gcd(factor, modulus) != 1:
                return True
            inv = pow(factor, -1, modulus)
            for c, v in current.items():
                current[c] = v * inv % modulus
            pivots[lead] = current
            return False
        for c, v in pivot.items():
            old = current.get(c)
            if old is None:
                current[c] = -factor * v % modulus
                insort(leads, c, i)
            else:
                value = (old - factor * v) % modulus
                if value:
                    current[c] = value
                else:
                    del current[c]
    return False


def _finish(pivots: dict[int, dict[int, int]], pending: list[dict[int, int]],
            modulus: int, primes: tuple[int, ...], ranks: dict[int, int]
            ) -> None:
    """Retry the set-aside rows, then record the pivot count as the rank
    of each prime dividing the modulus.  A row that stops at a
    zero-divisor lead a splits the modulus into g = gcd(a, modulus) and
    modulus / g, of which a is a unit (the modulus is squarefree); each
    part finishes on the pivots and the rows left, reduced mod it."""
    for i, current in enumerate(pending):
        if _eliminate(current, pivots, modulus):
            g = gcd(current[min(current)], modulus)
            for part in (g, modulus // g):
                _finish({lead: _reduced(row, part) for lead, row in pivots.items()},
                        [r for row in pending[i:] if (r := _reduced(row, part))],
                        part, primes, ranks)
            return
    for p in primes:
        if modulus % p == 0:
            ranks[p] = len(pivots)


def _reduced(row: dict[int, int], modulus: int) -> dict[int, int]:
    return {c: r for c, v in row.items() if (r := v % modulus)}
