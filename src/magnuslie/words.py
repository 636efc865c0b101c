"""Free-group words over the x/y generators and their series shadows.

A word is a tuple of signed letters: +k stands for generator k-1 and -k
for its inverse (k runs from 1 to m+n).  Words are kept freely reduced;
anything unreduced enters only through free_reduce.  The embedding into
the unit group of the series algebra sends x_i to 1+X_i and y_j to
1+Y_j, inverses going to the geometric series.  It is built one letter
at a time, in place on the image's weight buckets: a letter of weight w
adds (or, inverted, subtracts) bucket[wt]·A into bucket[wt + w], so no
letter image and no general product is formed.  Before each step the
letters it could store are projected from the bucket sizes, and a step
projected past MAX_EMBED_LETTERS raises EmbeddingTooLarge before it
allocates.  The filtration degree
of a word w is the valuation of (image of w) - 1, reported as an exact
value when it fits under the cutoff and as an explicit lower bound
otherwise; the truncation window cannot tell deep elements from the
identity, so no finite claim is made beyond it.
"""

from __future__ import annotations

import re
from bisect import insort
from random import Random

from .record import Record
from .series import INFINITY, Series, WeightScheme, _check_cutoff

Word = tuple[int, ...]


class DegreeBound(Record):
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


class EmbeddingTooLarge(RuntimeError):
    """A letter step of the embedding would store too many letters.

    Raised before the step allocates; ``projected`` is the step's
    projected count of stored letters and ``limit`` is MAX_EMBED_LETTERS.
    """

    def __init__(self, projected: int, limit: int, cutoff: int):
        super().__init__(
            f"the Magnus embedding at cutoff {cutoff} would store up to "
            f"{projected} letters (limit {limit})")
        self.projected = projected
        self.limit = limit
        self.cutoff = cutoff


# Most letters an embedding may store; a letter step projected past it
# raises EmbeddingTooLarge before it allocates.  No embedding that the
# test suite, the corpus or the benchmark builds projects past 50,000.
MAX_EMBED_LETTERS = 2_000_000


def _projected_letters(buckets, w: int, cutoff: int, positive: bool) -> int:
    """Upper bound on the letters stored after one letter step.

    A term of weight wt has at most wt letters.  A positive letter adds
    mono·A to each term with wt + w <= cutoff; an inverse letter turns a
    term into mono·A^k for k = 0 .. (cutoff - wt) // w.
    """
    total = 0
    for wt, bucket in buckets.items():
        steps = (cutoff - wt) // w
        if positive:
            total += len(bucket) * (wt + (wt + w if steps else 0))
        else:
            total += len(bucket) * ((steps + 1) * wt + w * steps * (steps + 1) // 2)
    return total


def magnus_embed(word: Word, scheme: WeightScheme, cutoff: int) -> Series:
    """Image of a word in the unit group of the truncated algebra.

    Each letter multiplies the image on the right in place, one weight
    bucket at a time.  For 1 + A the walk runs down the weights and adds
    bucket[wt]·A into bucket[wt + w]; for (1 + A)^-1 it runs up and
    subtracts the already final bucket[wt]·A, solving r = acc - r·A.
    Either walk costs time in proportion to the terms it writes.
    """
    _check_cutoff(cutoff)
    buckets = {0: {(): 1}}
    for signed in word:
        _check_letter(signed, scheme)
        letter = abs(signed) - 1
        w = scheme.letter_weight(letter)
        positive = signed > 0
        projected = _projected_letters(buckets, w, cutoff, positive)
        if projected > MAX_EMBED_LETTERS:
            raise EmbeddingTooLarge(projected, MAX_EMBED_LETTERS, cutoff)
        suffix = (letter,)
        if positive:
            for wt in sorted(buckets, reverse=True):
                if wt + w <= cutoff:
                    _add_times_letter(buckets, wt, wt + w, suffix, True)
            continue
        weights = sorted(buckets)
        i = 0
        while i < len(weights) and weights[i] + w <= cutoff:
            wt = weights[i]
            i += 1
            if wt in buckets and _add_times_letter(buckets, wt, wt + w, suffix, False):
                insort(weights, wt + w, i)
    return Series._raw(scheme, cutoff, buckets)


def _add_times_letter(buckets, source_wt, target, suffix, positive) -> bool:
    """Add (or subtract) bucket[source_wt]·A into bucket[target].

    Returns True when the target bucket did not exist before.
    """
    source = buckets[source_wt]
    dest = buckets.get(target)
    if dest is None:
        if positive:
            buckets[target] = {mono + suffix: c for mono, c in source.items()}
        else:
            buckets[target] = {mono + suffix: -c for mono, c in source.items()}
        return True
    get = dest.get
    for mono, c in source.items():
        key = mono + suffix
        value = get(key, 0) + c if positive else get(key, 0) - c
        if value:
            dest[key] = value
        else:
            del dest[key]
    if not dest:
        del buckets[target]
    return False


def _image_valuation(image: Series):
    """Valuation of image - 1 for a Magnus image.

    The constant term is exactly 1 and is the only term of weight 0, so
    the valuation is the least positive weight present.
    """
    return min((wt for wt in image._buckets if wt), default=INFINITY)


def _decided_cutoff(word: Word, scheme: WeightScheme, cutoff: int) -> int:
    """The cutoff, lowered to the least weight of a letter whose exponent
    sum in the word is nonzero: that letter's linear term in image - 1
    cannot cancel, so the valuation is at most its weight."""
    _check_cutoff(cutoff)
    sums: dict[int, int] = {}
    for signed in word:
        _check_letter(signed, scheme)
        sums[abs(signed)] = sums.get(abs(signed), 0) + (1 if signed > 0 else -1)
    return min([scheme.letter_weight(k - 1) for k, s in sums.items() if s] + [cutoff])


def filtration_degree(word: Word, scheme: WeightScheme, cutoff: int) -> DegreeBound:
    """Valuation of (embedded word) - 1, windowed at the cutoff.

    Returns an exact DegreeBound when the valuation is at most the
    cutoff and the lower bound cutoff+1 otherwise.  The word is embedded
    only up to the least weight of a letter with a nonzero exponent sum,
    when that is below the cutoff: the valuation is at most that weight.
    The identity word yields the lower bound at every cutoff; only
    callers who know the word is syntactically trivial may render that
    as infinity.
    """
    v = _image_valuation(magnus_embed(word, scheme,
                                      _decided_cutoff(word, scheme, cutoff)))
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
