"""The free Lie ring on weighted generators, over a Lyndon word basis.

Generators mirror the series letters: xi_1..xi_m of weight 1 and
eta_1..eta_n of weight e.  The basis of the weight-k component consists
of the Lyndon words of weighted degree k over the ordered alphabet
xi_1 < .. < xi_m < eta_1 < .. < eta_n, each word carrying its standard
factorization bracketing.

One classical rule builds the basis (Reutenauer, Free Lie Algebras, 5.1;
Lothaire, Combinatorics on Words, ch. 5): for Lyndon words u < v, uv is
Lyndon with standard factorization (u, v) exactly when u is a letter or
the right factor of u is >= v, and each Lyndon word of length >= 2
comes from exactly one such pair.  ``brackets`` enumerates and brackets
by the rule; recognition splits one word by a suffix scan instead.

Associative expansion serves only recognition of series components and
the map back into series.  Recognition rests on triangularity: expanding
the standard bracketing of a Lyndon word in the associative algebra
gives the word itself with coefficient 1 plus lexicographically larger
words of the same length.  So the least monomial of a Lie element is
always a Lyndon word, and back substitution along increasing monomials
rewrites a polynomial into Lyndon coordinates exactly when it lies in
the Lie span.  Each step subtracts an integer multiple of an expansion
whose leading coefficient is 1, so integer input never leaves the
integers.

A LieElement built from outside coordinates checks each nonzero one: an
integer coefficient, integer letters, and a Lyndon word of the element's
degree.  Values that are valid by construction (brackets, sums,
differences, scalar multiples and negatives, the generators, recognized
components) skip the check: ``LieElement._raw``.
"""

from __future__ import annotations

from math import gcd

from .record import Record
from .series import INFINITY, Series, WeightScheme, _check_int, _signed_sum
from .words import Word, _decided_cutoff, _image_valuation, magnus_embed


class NotLieElement(ValueError):
    """Raised when a homogeneous component fails Lie recognition."""


class DegreeAboveCutoff(ValueError):
    """Raised when a leading form is not certified by the cutoff window."""


# -- Lyndon words --------------------------------------------------------


def _least_suffix(word: tuple[int, ...]) -> int:
    """The start of the least proper suffix of a word of length >= 2."""
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return best


def _is_lyndon(word: tuple[int, ...]) -> bool:
    """A letter, or a word smaller than its least proper suffix, hence
    smaller than every proper rotation."""
    return len(word) == 1 or len(word) > 1 and word < word[_least_suffix(word):]


def witt_dimensions(scheme: WeightScheme, up_to: int) -> list[int]:
    """dim of the weight-k component for k = 1..up_to, counted, not enumerated.

    By the logarithm of prod_k (1 - t^k)^dim_k = 1 - m t - n t^e, the sums
    p_N = sum of d dim_d over d | N are the power sums of the inverse roots
    of 1 - m t - n t^e (Newton); Moebius inversion recovers dim_N.
    """
    if up_to < 1:
        raise ValueError("up_to must be positive")
    # a_i = m, n at i = 1, e (summed when e = 1): p_k = k a_k + sum a_i p_{k-i}
    coeffs = {1: scheme.m}
    coeffs[scheme.e] = coeffs.get(scheme.e, 0) + scheme.n
    p = [0] * (up_to + 1)
    for k in range(1, up_to + 1):
        p[k] = k * coeffs.get(k, 0) + sum(a * p[k - i] for i, a in coeffs.items() if i < k)
    # a divisor sieve: once p_d is down to d dim_d, it leaves each multiple
    for d in range(1, up_to + 1):
        for k in range(2 * d, up_to + 1, d):
            p[k] -= p[d]
    return [p[k] // k for k in range(1, up_to + 1)]


def standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word at its lexicographically least proper suffix."""
    if len(word) < 2:
        raise ValueError("factorization needs length at least 2")
    best = _least_suffix(word)
    return word[:best], word[best:]


# -- associative expansions ----------------------------------------------


def _expand_word(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Associative expansion of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return {word: 1}
    left, right = standard_factorization(word)
    a = _expand_word(left)
    b = _expand_word(right)
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = ma + mb
            out[key] = out.get(key, 0) + ca * cb
            key = mb + ma
            out[key] = out.get(key, 0) - ca * cb
    return {k: v for k, v in out.items() if v}


def _lyndon_rewrite(terms: dict) -> dict:
    """Back-substitute a Lie combination into Lyndon coordinates.

    Repeatedly strips the lexicographically least monomial; it must be
    Lyndon (triangularity) or the input was not in the Lie span.
    """
    rem = {mono: c for mono, c in terms.items() if c}
    coords: dict[tuple[int, ...], int] = {}
    while rem:
        mono = min(rem)
        if not _is_lyndon(mono):
            raise NotLieElement(f"monomial {mono} is not a Lyndon word; "
                                "input is outside the Lie span")
        c = rem[mono]
        coords[mono] = c
        for m2, c2 in _expand_word(mono).items():
            value = rem.get(m2, 0) - c * c2
            if value:
                rem[m2] = value
            else:
                rem.pop(m2, None)
    return coords


# -- Lie elements ---------------------------------------------------------


class LieElement(Record):
    """A homogeneous element, as integer coordinates over Lyndon words."""

    scheme: WeightScheme
    degree: int
    coords: dict

    # the one check of outside coordinates; a direct __init__ beats
    # Record's generic one
    def __init__(self, scheme: WeightScheme, degree: int, coords: dict):
        clean = {}
        for word, c in coords.items():
            word = tuple(word)
            _check_int(c, "coordinate")
            if not c:
                continue
            # one C-level pass; a float or Fraction letter makes a float or
            # Fraction sum, and (0.0, 1.0) would pass for (0, 1) below
            if sum(word).__class__ is not int:
                raise TypeError(f"integer letters expected, got {word!r}")
            if scheme.monomial_weight(word) != degree:
                raise ValueError(f"basis word {word} is not homogeneous of "
                                 f"degree {degree}")
            if not _is_lyndon(word):
                raise ValueError(f"{word} is not a Lyndon word")
            clean[word] = c
        # after the coordinates, so a bad word is named first
        _check_int(degree, "degree")
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        self.__dict__.update(scheme=scheme, degree=degree, coords=clean)

    @classmethod
    def _raw(cls, scheme: WeightScheme, degree: int, coords: dict) -> "LieElement":
        """Trusted constructor: nonzero integer coordinates over Lyndon words
        of a positive integer degree, in a dict the element may own."""
        self = object.__new__(cls)
        self.__dict__.update(scheme=scheme, degree=degree, coords=coords)
        return self

    @classmethod
    def zero(cls, scheme: WeightScheme, degree: int) -> "LieElement":
        return cls(scheme, degree, {})

    def is_zero(self) -> bool:
        return not self.coords

    def content(self) -> int:
        """gcd of the coordinates; 0 for the zero element."""
        g = 0
        for c in self.coords.values():
            g = gcd(g, abs(c))
        return g

    def scale(self, scalar: int) -> "LieElement":
        _check_int(scalar, "scalar")
        coords = {w: c * scalar for w, c in self.coords.items()} if scalar else {}
        return LieElement._raw(self.scheme, self.degree, coords)

    def __neg__(self):
        return self.scale(-1)

    def _check_compatible(self, other: "LieElement"):
        if self.scheme != other.scheme:
            raise ValueError("scheme mismatch")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coords)
        for w, c in other.coords.items():
            if value := out.get(w, 0) + c:
                out[w] = value
            else:
                del out[w]
        return LieElement._raw(self.scheme, self.degree, out)

    def __sub__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self + (-other)

    def with_scheme(self, scheme: WeightScheme) -> "LieElement":
        """Reinterpret over a larger scheme; letters and weights must agree."""
        return LieElement(scheme, self.degree, dict(self.coords))

    def expansion(self) -> dict:
        """Associative expansion: sum of coordinates times word expansions."""
        out: dict[tuple[int, ...], int] = {}
        for word, c in self.coords.items():
            for mono, c2 in _expand_word(word).items():
                value = out.get(mono, 0) + c * c2
                if value:
                    out[mono] = value
                else:
                    del out[mono]
        return out

    def to_text(self) -> str:
        """Report form: ``1*L[x1 x2] - 3*L[x1 x1 x2]``, words sorted."""
        name = self.scheme.generator_name
        return _signed_sum((c < 0, f"{abs(c)}*L[{' '.join(map(name, word))}]")
                           for word, c in sorted(self.coords.items()))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"LieElement(degree={self.degree}, {self.to_text()})"


def generator_element(scheme: WeightScheme, letter: int) -> LieElement:
    """The degree-w(letter) basis generator as a LieElement."""
    if not isinstance(letter, int):
        raise TypeError(f"integer letters expected, got {(letter,)!r}")
    return LieElement._raw(scheme, scheme.letter_weight(letter), {(letter,): 1})


def to_lyndon_coords(component: Series, scheme: WeightScheme) -> LieElement:
    """Recognize a homogeneous series component as a Lie element.

    Rewrites into integer Lyndon coordinates by back substitution, which
    fails with NotLieElement on a monomial that is not Lyndon (a constant
    term included).
    """
    if component.is_zero():
        raise ValueError("the zero component has no defined degree")
    weights = {scheme.monomial_weight(mono) for mono, _ in component.terms()}
    if len(weights) != 1:
        raise ValueError(f"component is not homogeneous: weights {sorted(weights)}")
    degree = weights.pop()
    return LieElement._raw(scheme, degree, _lyndon_rewrite(dict(component.terms())))


def leading_lie_form(word: Word, scheme: WeightScheme, cutoff: int) -> tuple[int, LieElement]:
    """Degree and Lie form of the lowest-weight part of (embedding - 1).

    The identity word has no leading form; a nontrivial word whose
    degree exceeds the cutoff raises DegreeAboveCutoff, since the
    window certifies nothing there.  The word is embedded only up to
    the least weight of a letter with a nonzero exponent sum, when that
    is below the cutoff, as the degree is at most that weight.
    """
    if not word:
        raise ValueError("the identity word has no leading form")
    f = magnus_embed(word, scheme, _decided_cutoff(word, scheme, cutoff))
    v = _image_valuation(f)
    if v is INFINITY:
        raise DegreeAboveCutoff(
            f"degree of the word exceeds the cutoff {cutoff}")
    return v, to_lyndon_coords(f.homogeneous_component(v), scheme)
