"""Truncated exact arithmetic for power series in noncommuting letters.

The alphabet has m letters X1..Xm of weight 1 and n letters Y1..Yn of
weight e.  A series keeps only terms of weight at most its cutoff and is
stored in canonical form: no zero coefficients, terms grouped by weight.
Coefficients are arbitrary-precision integers, exact and never
floating point: the graded quotients this package certifies are Z-modules.

The weighted valuation of a series is the least weight carrying a
nonzero term.  The zero series gets the distinguished value INFINITY,
which compares above every integer and refuses arithmetic.  Because all
series here are truncations, a valuation of INFINITY only certifies
"greater than the cutoff"; callers that report it must say so.
"""

from __future__ import annotations

from .record import Record


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

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("magnuslie.INFINITY")

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


class Series:
    """An element of the truncated weighted algebra.

    Immutable by convention: every operation returns a fresh series.
    Equality compares scheme and the term association; the
    cutoff is bookkeeping about how much was computed, not part of the
    value, so truncations of the same series at different depths that
    happen to agree term by term compare equal.
    """

    __slots__ = ("scheme", "cutoff", "_buckets")

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
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "_buckets", buckets)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def _raw(cls, scheme, cutoff, buckets):
        """Trusted constructor: buckets already normalized."""
        self = object.__new__(cls)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "_buckets", buckets)
        return self

    @classmethod
    def zero(cls, scheme, cutoff):
        return cls(scheme, cutoff)

    @classmethod
    def constant(cls, scheme, cutoff, value):
        return cls(scheme, cutoff, {(): value})

    @classmethod
    def one(cls, scheme, cutoff):
        return cls.constant(scheme, cutoff, 1)

    @classmethod
    def letter(cls, scheme, cutoff, index):
        return cls(scheme, cutoff, {(index,): 1})

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

    def coefficient(self, mono) -> int:
        mono = tuple(mono)
        w = self.scheme.monomial_weight(mono)
        return self._buckets.get(w, {}).get(mono, 0)

    def constant_term(self):
        return self.coefficient(())

    def valuation(self):
        """Least weight with a nonzero term; INFINITY if there is none."""
        if not self._buckets:
            return INFINITY
        return min(self._buckets)

    def homogeneous_component(self, weight: int) -> "Series":
        bucket = self._buckets.get(weight)
        if not bucket:
            return Series.zero(self.scheme, self.cutoff)
        return Series._raw(self.scheme, self.cutoff, {weight: dict(bucket)})

    def __len__(self):
        return sum(len(b) for b in self._buckets.values())

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Series"):
        if self.scheme != other.scheme:
            raise ValueError(f"scheme mismatch: {self.scheme} vs {other.scheme}")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        buckets = {}
        for w, bucket in self._buckets.items():
            if w <= cutoff:
                buckets[w] = dict(bucket)
        for w, bucket in other._buckets.items():
            if w > cutoff:
                continue
            mine = buckets.setdefault(w, {})
            for mono, c in bucket.items():
                value = mine.get(mono)
                value = c if value is None else value + c
                if value:
                    mine[mono] = value
                elif mono in mine:
                    del mine[mono]
            if not mine:
                del buckets[w]
        return Series._raw(self.scheme, cutoff, buckets)

    def __neg__(self):
        buckets = {
            w: {mono: -c for mono, c in bucket.items()}
            for w, bucket in self._buckets.items()
        }
        return Series._raw(self.scheme, self.cutoff, buckets)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar: int) -> "Series":
        _check_int(scalar, "scalar")
        if not scalar:
            return Series.zero(self.scheme, self.cutoff)
        buckets = {
            w: {mono: c * scalar for mono, c in bucket.items()}
            for w, bucket in self._buckets.items()
        }
        return Series._raw(self.scheme, self.cutoff, buckets)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
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

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def inverse(self) -> "Series":
        """Two-sided inverse up to the cutoff, by the geometric series.

        Requires constant term exactly 1.
        """
        if self.constant_term() != 1:
            raise ValueError("inverse requires constant term exactly 1")
        one = Series.one(self.scheme, self.cutoff)
        x = one - self
        acc = one
        power = one
        for _ in range(self.cutoff):
            power = power * x
            if power.is_zero():
                break
            acc = acc + power
        return acc

    # -- canonical text form --------------------------------------------

    def to_text(self) -> str:
        """Canonical textual form, e.g. ``1 + X1 + X2 + X1*X2``."""
        terms = self.terms()
        if not terms:
            return "0"
        pieces = []
        for mono, coeff in terms:
            negative = coeff < 0
            mag_text = str(-coeff if negative else coeff)
            if mono:
                mono_text = "*".join(self.scheme.letter_name(z) for z in mono)
                body_piece = mono_text if mag_text == "1" else f"{mag_text}*{mono_text}"
            else:
                body_piece = mag_text
            if not pieces:
                pieces.append(f"-{body_piece}" if negative else body_piece)
            else:
                pieces.append(f" - {body_piece}" if negative else f" + {body_piece}")
        return "".join(pieces)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.scheme == other.scheme and self._buckets == other._buckets

    def __repr__(self):
        return f"Series({self.to_text()!r}, cutoff={self.cutoff})"
