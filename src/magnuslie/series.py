"""Truncated exact arithmetic for power series in noncommuting letters.

The alphabet has m letters X1..Xm of weight 1 and n letters Y1..Yn of
weight e.  A series keeps only terms of weight at most its cutoff and is
stored in canonical form: no zero coefficients, terms grouped by weight.
Coefficients live in one of three exact domains (arbitrary-precision
integers, rationals, or a prime field); floating point never appears.

The weighted valuation of a series is the least weight carrying a
nonzero term.  The zero series gets the distinguished value INFINITY,
which compares above every integer and refuses arithmetic.  Because all
series here are truncations, a valuation of INFINITY only certifies
"greater than the cutoff"; callers that report it must say so.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True)
class Domain:
    """One of the three exact coefficient domains: "Z", "Q", or "Fp"."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown coefficient domain {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"prime field needs a prime modulus, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"domain {self.kind} takes no modulus")

    def coerce(self, value):
        """Bring a raw coefficient into the domain, or raise TypeError."""
        if self.kind == "Q":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise TypeError(f"rational coefficient expected, got {value!r}")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise TypeError(f"integer coefficient expected, got {value!r}")
            value = value.numerator
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"integer coefficient expected, got {value!r}")
        if self.kind == "Fp":
            return value % self.p
        return value

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def __str__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


INTEGERS = Domain("Z")
RATIONALS = Domain("Q")


def prime_field(p: int) -> Domain:
    return Domain("Fp", p)


@dataclass(frozen=True)
class WeightScheme:
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
        if self.m < 1:
            raise ValueError("need at least one weight-1 letter")
        if self.n < 0:
            raise ValueError("Y letter count must be nonnegative")
        if self.e < 1:
            raise ValueError("Y letter weight e must be a positive integer")

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


def monomial_weight(mono: tuple[int, ...], scheme: WeightScheme) -> int:
    """Weight a + e*b of a monomial with a X-letters and b Y-letters."""
    return scheme.monomial_weight(mono)


class Series:
    """An element of the truncated weighted algebra.

    Immutable by convention: every operation returns a fresh series.
    Equality compares scheme, domain and the term association; the
    cutoff is bookkeeping about how much was computed, not part of the
    value, so truncations of the same series at different depths that
    happen to agree term by term compare equal.
    """

    __slots__ = ("scheme", "cutoff", "domain", "_buckets")

    def __init__(self, scheme: WeightScheme, cutoff: int, terms=None,
                 domain: Domain = INTEGERS):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        buckets: dict[int, dict[tuple[int, ...], object]] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                coeff = domain.coerce(coeff)
                if not coeff:
                    continue
                w = scheme.monomial_weight(mono)
                if w > cutoff:
                    continue
                bucket = buckets.setdefault(w, {})
                value = bucket.get(mono)
                value = coeff if value is None else domain.coerce(value + coeff)
                if value:
                    bucket[mono] = value
                elif mono in bucket:
                    del bucket[mono]
            for w in [w for w, b in buckets.items() if not b]:
                del buckets[w]
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_buckets", buckets)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def _raw(cls, scheme, cutoff, domain, buckets):
        """Trusted constructor: buckets already normalized."""
        self = object.__new__(cls)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_buckets", buckets)
        return self

    @classmethod
    def zero(cls, scheme, cutoff, domain=INTEGERS):
        return cls._raw(scheme, cutoff, domain, {})

    @classmethod
    def constant(cls, scheme, cutoff, value, domain=INTEGERS):
        return cls(scheme, cutoff, {(): value}, domain)

    @classmethod
    def one(cls, scheme, cutoff, domain=INTEGERS):
        return cls.constant(scheme, cutoff, 1, domain)

    @classmethod
    def letter(cls, scheme, cutoff, index, domain=INTEGERS):
        return cls(scheme, cutoff, {(index,): 1}, domain)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._buckets

    def __bool__(self):
        return bool(self._buckets)

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Canonically ordered (weight, then lexicographic) term list."""
        out = []
        for w in sorted(self._buckets):
            bucket = self._buckets[w]
            for mono in sorted(bucket):
                out.append((mono, bucket[mono]))
        return out

    def coefficient(self, mono) -> object:
        mono = tuple(mono)
        w = self.scheme.monomial_weight(mono)
        zero = 0 if self.domain.kind != "Q" else Fraction(0)
        return self._buckets.get(w, {}).get(mono, zero)

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
            return Series.zero(self.scheme, self.cutoff, self.domain)
        return Series._raw(self.scheme, self.cutoff, self.domain, {weight: dict(bucket)})

    def __len__(self):
        return sum(len(b) for b in self._buckets.values())

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Series"):
        if self.scheme != other.scheme:
            raise ValueError(f"scheme mismatch: {self.scheme} vs {other.scheme}")
        if self.domain != other.domain:
            raise ValueError(f"coefficient domain mismatch: {self.domain} vs {other.domain}")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        coerce = self.domain.coerce
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
                value = c if value is None else coerce(value + c)
                if value:
                    mine[mono] = value
                elif mono in mine:
                    del mine[mono]
            if not mine:
                del buckets[w]
        return Series._raw(self.scheme, cutoff, self.domain, buckets)

    def __neg__(self):
        coerce = self.domain.coerce
        buckets = {
            w: {mono: coerce(-c) for mono, c in bucket.items()}
            for w, bucket in self._buckets.items()
        }
        return Series._raw(self.scheme, self.cutoff, self.domain, buckets)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "Series":
        scalar = self.domain.coerce(scalar)
        if not scalar:
            return Series.zero(self.scheme, self.cutoff, self.domain)
        coerce = self.domain.coerce
        buckets = {}
        for w, bucket in self._buckets.items():
            out = {}
            for mono, c in bucket.items():
                value = coerce(c * scalar)
                if value:
                    out[mono] = value
            if out:
                buckets[w] = out
        return Series._raw(self.scheme, self.cutoff, self.domain, buckets)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        cutoff = min(self.cutoff, other.cutoff)
        is_fp = self.domain.kind == "Fp"
        p = self.domain.p
        out: dict[int, dict[tuple[int, ...], object]] = {}
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
            if is_fp:
                clean = {mono: c % p for mono, c in bucket.items() if c % p}
            else:
                clean = {mono: c for mono, c in bucket.items() if c}
            if clean:
                buckets[w] = clean
        return Series._raw(self.scheme, cutoff, self.domain, buckets)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def inverse(self) -> "Series":
        """Two-sided inverse up to the cutoff, by the geometric series.

        Requires constant term exactly 1.
        """
        if self.constant_term() != self.domain.one:
            raise ValueError("inverse requires constant term exactly 1")
        one = Series.one(self.scheme, self.cutoff, self.domain)
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
            body = "0"
        else:
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
            body = "".join(pieces)
        if self.domain.kind == "Fp":
            return f"{body} (mod {self.domain.p})"
        return body

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.scheme == other.scheme and self.domain == other.domain
                and self._buckets == other._buckets)

    def __repr__(self):
        return f"Series({self.to_text()!r}, cutoff={self.cutoff})"


_LETTER_RE = re.compile(r"^([XY])(\d+)$")
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_MOD_RE = re.compile(r"\(mod\s+(\d+)\)\s*$")


def series_from_text(text: str, scheme: WeightScheme, cutoff: int,
                     domain: Domain | None = None) -> Series:
    """Parse the canonical textual form back into a Series.

    The domain is inferred when not given: a ``(mod p)`` suffix selects
    the prime field, a ``/`` anywhere selects rationals, and plain
    integers otherwise.
    """
    text = text.strip()
    match = _MOD_RE.search(text)
    if match:
        p = int(match.group(1))
        if domain is None:
            domain = prime_field(p)
        elif domain != prime_field(p):
            raise ValueError(f"modulus suffix {p} conflicts with domain {domain}")
        text = text[: match.start()].strip()
    if domain is None:
        domain = RATIONALS if "/" in text else INTEGERS
    if text == "0":
        return Series.zero(scheme, cutoff, domain)
    terms: dict[tuple[int, ...], object] = {}
    index = 0
    sign = 1
    if text.startswith("-"):
        sign = -1
        index = 1
    elif text.startswith("+"):
        index = 1
    chunks = re.split(r"\s*([+-])\s*", text[index:].strip())
    # chunks = [term, sep, term, sep, ...]
    pending_sign = sign
    for position, chunk in enumerate(chunks):
        if position % 2 == 1:
            pending_sign = -1 if chunk == "-" else 1
            continue
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in series text {text!r}")
        coeff = Fraction(1) if domain.kind == "Q" else 1
        letters: list[int] = []
        for piece in chunk.split("*"):
            piece = piece.strip()
            lmatch = _LETTER_RE.match(piece)
            if lmatch:
                kind, idx = lmatch.group(1), int(lmatch.group(2))
                letter = idx - 1 if kind == "X" else scheme.m + idx - 1
                if kind == "X" and not 1 <= idx <= scheme.m:
                    raise ValueError(f"letter {piece} out of range for {scheme}")
                if kind == "Y" and not 1 <= idx <= scheme.n:
                    raise ValueError(f"letter {piece} out of range for {scheme}")
                letters.append(letter)
                continue
            cmatch = _COEFF_RE.match(piece)
            if cmatch is None:
                raise ValueError(f"cannot read series term piece {piece!r}")
            if letters:
                raise ValueError(f"coefficient after letters in term {chunk!r}")
            num = int(cmatch.group(1))
            den = cmatch.group(2)
            coeff = Fraction(num, int(den)) if den else num
        mono = tuple(letters)
        value = pending_sign * coeff
        if mono in terms:
            terms[mono] = terms[mono] + value
        else:
            terms[mono] = value
    return Series(scheme, cutoff, terms, domain)


def valuation(f: Series):
    """Weighted valuation; INFINITY for the zero series."""
    return f.valuation()


def mul(f: Series, g: Series) -> Series:
    """Noncommutative product, truncated at the smaller cutoff."""
    return f * g


def inverse(f: Series) -> Series:
    """Inverse of a series with constant term 1, up to the cutoff."""
    return f.inverse()
