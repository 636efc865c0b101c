"""Truncated integer power series in noncommuting letters.

The alphabet has m letters X1..Xm of weight 1 and n letters Y1..Yn of
weight e.  A series keeps only terms of weight at most its cutoff and is
stored in canonical form: no zero coefficients, terms grouped by weight.
Coefficients are arbitrary-precision integers, exact and never
floating point: the graded quotients this package certifies are Z-modules.

A series is a record of its scheme, cutoff and terms.  It offers its
terms, valuation and homogeneous components, the truncated product of
two series and a text form.  There is no sum, scalar multiple or
inverse: the Magnus embedding builds its images in place.

The weighted valuation of a series is the least weight carrying a
nonzero term.  The zero series gets the distinguished value INFINITY,
which compares above every integer and refuses arithmetic.  Because all
series here are truncations, a valuation of INFINITY only certifies
"greater than the cutoff"; callers that report it must say so.
"""

from __future__ import annotations

from .record import Record, field


class InfiniteValuation:
    """Valuation of the zero series.

    A singleton that compares strictly above every integer.  It defines
    no arithmetic, so accidentally adding it to a weight raises
    TypeError instead of silently producing a sentinel value.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INFINITY = InfiniteValuation()


def _check_int(value, what: str) -> None:
    """TypeError unless value is an int; a bool, float or Fraction is not."""
    if value.__class__ is not int:
        raise TypeError(f"integer {what} expected, got {value!r}")


def _signed_sum(terms) -> str:
    """Join (negative, text) pairs as ``a - b + c``: a leading ``-`` when
    the first term is negative, ``0`` when there are none."""
    pieces = []
    for negative, text in terms:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(text)
    return "".join(pieces) or "0"


def _check_cutoff(cutoff) -> None:
    _check_int(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")


# Most letters, m + n, a scheme may have: per-letter tuples and tables
# grow with the count, so a larger alphabet is refused before any exists.
MAX_LETTERS = 100_000


class WeightScheme(Record):
    """Letter alphabet and weights: m letters of weight 1, n of weight e.

    The paperless rule of thumb: letters 0..m-1 are the X letters
    (weight 1), letters m..m+n-1 are the Y letters (weight e).  n = 0 is
    allowed so that the x-only subalgebra can be handled by the same
    machinery.
    """

    m: int
    n: int
    e: int = 1

    def __post_init__(self):
        for name in ("m", "n", "e"):
            _check_int(getattr(self, name), name)
        if self.m < 1:
            raise ValueError("need at least one weight-1 letter")
        if self.n < 0:
            raise ValueError("Y letter count must be nonnegative")
        if self.e < 1:
            raise ValueError("Y letter weight e must be a positive integer")
        if self.m + self.n > MAX_LETTERS:
            raise ValueError(f"{self.m + self.n} letters exceed the limit of "
                             f"{MAX_LETTERS}")

    @property
    def letters(self) -> int:
        return self.m + self.n

    def letter_weight(self, letter: int) -> int:
        if not 0 <= letter < self.letters:
            raise ValueError(f"letter index {letter} out of range for {self}")
        return 1 if letter < self.m else self.e

    def letter_weights(self) -> tuple[int, ...]:
        return (1,) * self.m + (self.e,) * self.n

    def monomial_weight(self, mono: tuple[int, ...]) -> int:
        total = 0
        for letter in mono:
            total += self.letter_weight(letter)
        return total

    def letter_name(self, letter: int) -> str:
        """Series-variable spelling: X1..Xm, Y1..Yn."""
        if not 0 <= letter < self.letters:
            raise ValueError(f"letter index {letter} out of range for {self}")
        if letter < self.m:
            return f"X{letter + 1}"
        return f"Y{letter - self.m + 1}"

    def generator_name(self, letter: int) -> str:
        """Group/Lie generator spelling: x1..xm, y1..yn."""
        return self.letter_name(letter).lower()

    def __str__(self):
        return f"(m={self.m}, n={self.n}, e={self.e})"


class Series(Record):
    """An element of the truncated weighted algebra.

    A record: its fields cannot be assigned or deleted, and the product
    and ``homogeneous_component`` return fresh series.  Equality compares
    scheme and the term association; the cutoff is bookkeeping about how
    much was computed, not part of the value, so truncations of the same
    series at different depths that agree term by term compare equal.
    The terms are a dict, so a series is unhashable.
    """

    scheme: WeightScheme
    cutoff: int = field(compare=False)
    _buckets: dict

    def __init__(self, scheme: WeightScheme, cutoff: int, terms=None):
        _check_cutoff(cutoff)
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                _check_int(coeff, "coefficient")
                if not coeff:
                    continue
                # (0.0, 1.0) would pass for (0, 1) in the weight below
                if sum(mono).__class__ is not int:
                    raise TypeError(f"integer letters expected, got {mono!r}")
                w = scheme.monomial_weight(mono)
                if w > cutoff:
                    continue
                bucket = buckets.setdefault(w, {})
                value = bucket.get(mono)
                value = coeff if value is None else value + coeff
                if value:
                    bucket[mono] = value
                elif mono in bucket:
                    del bucket[mono]
            for w in [w for w, b in buckets.items() if not b]:
                del buckets[w]
        self.__dict__.update(scheme=scheme, cutoff=cutoff, _buckets=buckets)

    @classmethod
    def _raw(cls, scheme, cutoff, buckets):
        """Trusted constructor: buckets already normalized."""
        self = object.__new__(cls)
        self.__dict__.update(scheme=scheme, cutoff=cutoff, _buckets=buckets)
        return self

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._buckets

    def __bool__(self):
        return bool(self._buckets)

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Canonically ordered (weight, then lexicographic) term list."""
        out = []
        for w in sorted(self._buckets):
            bucket = self._buckets[w]
            for mono in sorted(bucket):
                out.append((mono, bucket[mono]))
        return out

    def valuation(self):
        """Least weight with a nonzero term; INFINITY if there is none."""
        if not self._buckets:
            return INFINITY
        return min(self._buckets)

    def homogeneous_component(self, weight: int) -> "Series":
        bucket = self._buckets.get(weight)
        if not bucket:
            return Series._raw(self.scheme, self.cutoff, {})
        return Series._raw(self.scheme, self.cutoff, {weight: dict(bucket)})

    # -- product -------------------------------------------------------

    def __mul__(self, other):
        """The truncated product of two series; there is no scalar one."""
        if not isinstance(other, Series):
            return NotImplemented
        if self.scheme != other.scheme:
            raise ValueError(f"scheme mismatch: {self.scheme} vs {other.scheme}")
        cutoff = min(self.cutoff, other.cutoff)
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for w1, terms1 in self._buckets.items():
            if w1 > cutoff:
                continue
            for w2, terms2 in other._buckets.items():
                w = w1 + w2
                if w > cutoff:
                    continue
                bucket = out.setdefault(w, {})
                get = bucket.get
                for mono1, c1 in terms1.items():
                    for mono2, c2 in terms2.items():
                        key = mono1 + mono2
                        value = get(key)
                        bucket[key] = c1 * c2 if value is None else value + c1 * c2
        buckets = {}
        for w, bucket in out.items():
            clean = {mono: c for mono, c in bucket.items() if c}
            if clean:
                buckets[w] = clean
        return Series._raw(self.scheme, cutoff, buckets)

    # -- canonical text form --------------------------------------------

    def to_text(self) -> str:
        """Canonical textual form, e.g. ``1 + X1 + X2 + X1*X2``."""
        pieces = []
        for mono, coeff in self.terms():
            factors = [self.scheme.letter_name(z) for z in mono]
            if not mono or abs(coeff) != 1:
                factors.insert(0, str(abs(coeff)))
            pieces.append((coeff < 0, "*".join(factors)))
        return _signed_sum(pieces)

    def __repr__(self):
        return f"Series({self.to_text()!r}, cutoff={self.cutoff})"
