"""Free-group words over the x/y generators and their series shadows.

A word is a tuple of signed letters: +k stands for generator k-1 and -k
for its inverse (k runs from 1 to m+n).  Words are kept freely reduced;
anything unreduced enters only through free_reduce.  The embedding into
the unit group of the series algebra sends x_i to 1+X_i and y_j to
1+Y_j, inverses going to the geometric series.  The filtration degree
of a word w is the valuation of (image of w) - 1, reported as an exact
value when it fits under the cutoff and as an explicit lower bound
otherwise; the truncation window cannot tell deep elements from the
identity, so no finite claim is made beyond it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random

from .series import INFINITY, INTEGERS, Domain, Series, WeightScheme

Word = tuple[int, ...]


@dataclass(frozen=True)
class DegreeBound:
    """Either an exact filtration degree or a certified lower bound.

    ``exact`` means the degree equals ``bound``; otherwise the degree is
    at least ``bound`` (= cutoff + 1) and the window saw nothing.
    """

    bound: int
    exact: bool

    def at_least(self, k: int) -> bool:
        return self.bound >= k

    def __str__(self):
        return str(self.bound) if self.exact else f">= {self.bound}"


class WordSyntaxError(ValueError):
    """Word grammar violation, with a 0-based column offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _check_letter(signed: int, scheme: WeightScheme):
    if not isinstance(signed, int) or signed == 0:
        raise ValueError(f"signed letter expected, got {signed!r}")
    if abs(signed) > scheme.letters:
        raise ValueError(f"generator index {abs(signed)} out of range for {scheme}")


def free_reduce(raw, scheme: WeightScheme) -> Word:
    """Freely reduce a raw sequence of signed letters.  Idempotent."""
    stack: list[int] = []
    for signed in raw:
        _check_letter(signed, scheme)
        if stack and stack[-1] == -signed:
            stack.pop()
        else:
            stack.append(signed)
    return tuple(stack)


def is_reduced(word: Word) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def invert_word(word: Word) -> Word:
    return tuple(-s for s in reversed(word))


def word_multiply(a: Word, b: Word) -> Word:
    """Product of two already reduced words, with boundary cancellation."""
    stack = list(a)
    for signed in b:
        if stack and stack[-1] == -signed:
            stack.pop()
        else:
            stack.append(signed)
    return tuple(stack)


def group_commutator(w: Word, z: Word) -> Word:
    """The commutator w z w^-1 z^-1, freely reduced."""
    out = word_multiply(w, z)
    out = word_multiply(out, invert_word(w))
    return word_multiply(out, invert_word(z))


def generator(letter: int) -> Word:
    """The one-letter word for generator index ``letter`` (0-based)."""
    return (letter + 1,)


def only_x_letters(word: Word, scheme: WeightScheme) -> bool:
    return all(abs(s) - 1 < scheme.m for s in word)


def only_y_letters(word: Word, scheme: WeightScheme) -> bool:
    return all(abs(s) - 1 >= scheme.m for s in word)


def _letter_image(scheme: WeightScheme, cutoff: int, letter: int,
                  positive: bool, domain: Domain) -> Series:
    w = scheme.letter_weight(letter)
    terms = {(): 1}
    if positive:
        if w <= cutoff:
            terms[(letter,)] = 1
    else:
        sign = -1
        for k in range(1, cutoff // w + 1):
            terms[(letter,) * k] = sign
            sign = -sign
    return Series(scheme, cutoff, terms, domain)


def magnus_embed(word: Word, scheme: WeightScheme, cutoff: int,
                 domain: Domain = INTEGERS) -> Series:
    """Image of a word in the unit group of the truncated algebra."""
    acc = Series.one(scheme, cutoff, domain)
    for signed in word:
        _check_letter(signed, scheme)
        img = _letter_image(scheme, cutoff, abs(signed) - 1, signed > 0, domain)
        acc = acc * img
    return acc


def filtration_degree(word: Word, scheme: WeightScheme, cutoff: int) -> DegreeBound:
    """Valuation of (embedded word) - 1, windowed at the cutoff.

    Returns an exact DegreeBound when the valuation is at most the
    cutoff and the lower bound cutoff+1 otherwise.  The identity word
    yields the lower bound at every cutoff; only callers who know the
    word is syntactically trivial may render that as infinity.
    """
    f = magnus_embed(word, scheme, cutoff)
    delta = f - Series.one(scheme, cutoff)
    v = delta.valuation()
    if v is INFINITY:
        return DegreeBound(cutoff + 1, exact=False)
    return DegreeBound(v, exact=True)


def random_word(rng: Random, scheme: WeightScheme, max_len: int) -> Word:
    """A freely reduced word of length up to max_len, drawn from rng."""
    length = rng.randrange(max_len + 1)
    raw = []
    for _ in range(length):
        letter = rng.randrange(scheme.letters) + 1
        raw.append(letter if rng.randrange(2) else -letter)
    return free_reduce(raw, scheme)


# -- word grammar -------------------------------------------------------
#
# tokens:   x<k>, y<k>, ^<int>, [ w1, w2 ], ( w ), 1
# meaning:  juxtaposition concatenates, ^k is an integer power,
#           [a, b] is the commutator a b a^-1 b^-1, 1 is the identity.

# Longest word a power or a commutator may expand to; larger ones are
# rejected before any letter is built.
MAX_POWER_LENGTH = 10_000

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[xy]\d+)|(?P<power>\^-?\d+)"
                       r"|(?P<one>1)|(?P<punct>[\[\](),]))")


class _WordParser:
    def __init__(self, text: str, scheme: WeightScheme):
        self.text = text
        self.scheme = scheme
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                column = len(text) - len(rest)
                raise WordSyntaxError(f"unexpected character {rest[0]!r}", column)
            for kind in ("name", "power", "one", "punct"):
                value = match.group(kind)
                if value is not None:
                    self.tokens.append((kind, value, match.start(kind)))
                    break
            pos = match.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, None, len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def parse(self) -> Word:
        word = self.parse_word()
        kind, value, column = self.peek()
        if kind is not None:
            raise WordSyntaxError(f"unexpected {value!r}", column)
        return word

    def parse_word(self) -> Word:
        out: Word = ()
        while True:
            kind, value, _ = self.peek()
            if kind is None or (kind == "punct" and value in ",])"):
                return out
            out = word_multiply(out, self.parse_factor())

    def parse_factor(self) -> Word:
        base = self.parse_atom()
        kind, value, column = self.peek()
        if kind == "power":
            self.advance()
            exponent = int(value[1:])
            if abs(exponent) * len(base) > MAX_POWER_LENGTH:
                raise WordSyntaxError(
                    f"power {value} of a word of length {len(base)} exceeds "
                    f"{MAX_POWER_LENGTH} letters", column)
            if exponent < 0:
                base = invert_word(base)
            return free_reduce(base * abs(exponent), self.scheme)
        return base

    def parse_atom(self) -> Word:
        kind, value, column = self.advance()
        if kind == "one":
            return ()
        if kind == "name":
            letter = value[0]
            idx = int(value[1:])
            if letter == "x":
                if not 1 <= idx <= self.scheme.m:
                    raise WordSyntaxError(
                        f"generator {value} out of range (m={self.scheme.m})", column)
                return (idx,)
            if not 1 <= idx <= self.scheme.n:
                raise WordSyntaxError(
                    f"generator {value} out of range (n={self.scheme.n})", column)
            return (self.scheme.m + idx,)
        if kind == "punct" and value == "(":
            inner = self.parse_word()
            kind, value, column = self.advance()
            if value != ")":
                raise WordSyntaxError("expected ')'", column)
            return inner
        if kind == "punct" and value == "[":
            start = column
            first = self.parse_word()
            kind, value, column = self.advance()
            if value != ",":
                raise WordSyntaxError("expected ',' inside commutator", column)
            second = self.parse_word()
            kind, value, column = self.advance()
            if value != "]":
                raise WordSyntaxError("expected ']'", column)
            if 2 * (len(first) + len(second)) > MAX_POWER_LENGTH:
                raise WordSyntaxError(
                    f"commutator of words of lengths {len(first)} and "
                    f"{len(second)} exceeds {MAX_POWER_LENGTH} letters", start)
            return group_commutator(first, second)
        if kind is None:
            raise WordSyntaxError("unexpected end of word", column)
        raise WordSyntaxError(f"unexpected {value!r}", column)


def parse_word(text: str, scheme: WeightScheme) -> Word:
    """Parse the word grammar; raises WordSyntaxError with a column."""
    return _WordParser(text, scheme).parse()


def word_to_text(word: Word, scheme: WeightScheme) -> str:
    """Canonical spelling with collapsed powers, identity spelled 1."""
    if not word:
        return "1"
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        count = j - i
        signed = word[i]
        name = scheme.generator_name(abs(signed) - 1)
        exponent = count if signed > 0 else -count
        pieces.append(name if exponent == 1 else f"{name}^{exponent}")
        i = j
    return " ".join(pieces)
