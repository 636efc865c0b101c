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

from .record import Record, field
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
        self.message = message
        self.column = column


def _check_letter(signed: int, letters: int, scheme: WeightScheme):
    """ValueError unless ``signed`` is a signed letter of the scheme, which
    has ``letters`` letters (read once by the caller)."""
    if signed.__class__ is not int or signed == 0:  # a bool is no letter
        raise ValueError(f"signed letter expected, got {signed!r}")
    if abs(signed) > letters:
        raise ValueError(f"generator index {abs(signed)} out of range for {scheme}")


def free_reduce(raw, scheme: WeightScheme) -> Word:
    """Freely reduce a raw sequence of signed letters.  Idempotent."""
    letters = scheme.letters
    raw = tuple(raw)
    for signed in raw:
        _check_letter(signed, letters, scheme)
    return word_multiply((), raw)


def invert_word(word: Word) -> Word:
    return tuple(-s for s in reversed(word))


def word_multiply(a: Word, b) -> Word:
    """Product of a reduced word and a sequence of signed letters, freely
    reduced: each letter of b cancels against the result so far or is
    appended.  For two reduced words only their boundary cancels."""
    return tuple(_multiply_onto(list(a), b))


def _multiply_onto(stack: list, b) -> list:
    """word_multiply in place on a reduced list, which it returns."""
    for signed in b:
        if stack and stack[-1] == -signed:
            stack.pop()
        else:
            stack.append(signed)
    return stack


def group_commutator(w: Word, z: Word) -> Word:
    """The commutator w z w^-1 z^-1, freely reduced."""
    return word_multiply(w, z + invert_word(w) + invert_word(z))


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
    letters = scheme.letters
    buckets = {0: {(): 1}}
    for signed in word:
        _check_letter(signed, letters, scheme)
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
    letters = scheme.letters
    sums: dict[int, int] = {}
    for signed in word:
        _check_letter(signed, letters, scheme)
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
    letters = scheme.letters
    raw = []
    for _ in range(rng.randrange(max_len + 1)):
        letter = rng.randrange(letters) + 1
        raw.append(letter if rng.randrange(2) else -letter)
    # drawn in range, so reduced without free_reduce's letter checks
    return word_multiply((), raw)


# -- word grammar -------------------------------------------------------
#
# tokens:   x<k>, y<k>, ^<int>, [ w1, w2 ], ( w ), 1
# meaning:  juxtaposition concatenates, ^k is an integer power,
#           [a, b] is the commutator a b a^-1 b^-1, 1 is the identity.

# Longest word a power or a commutator may expand to; larger ones are
# rejected before any letter is built.
MAX_POWER_LENGTH = 10_000

_TOKEN_RE = re.compile(r"(?P<name>[xy][0-9]+)|(?P<power>\^-?[0-9]+)|(?P<one>1)"
                       r"|(?P<punct>[\[\](),])|(?P<space>\s+)|(?P<bad>.)")

_EXPECTED = {")": "expected ')'", ",": "expected ',' inside commutator",
             "]": "expected ']'"}


def _tokens(text: str):
    """(kind, value, column) for each token, then (None, None, len(text))."""
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise WordSyntaxError(f"unexpected character {match[0]!r}", match.start())
        if match.lastgroup != "space":
            yield match.lastgroup, match[0], match.start()
    yield None, None, len(text)


def _integer(digits: str, column: int) -> int:
    """int(digits), or a WordSyntaxError where int refuses that many digits."""
    try:
        return int(digits)
    except ValueError:
        raise WordSyntaxError("integer has too many digits", column) from None


class _Group(Record, frozen=False):
    """An open '(' or '[' at ``column``, or the whole text (closer None):
    a commutator's first word once its ',' is read, the product so far as
    a reduced list that grows in place, so a group of k letters parses in
    O(k), and the last factor apart, since a following power may raise it."""

    closer: str | None
    column: int
    first: Word | None = None
    product: list = field(default_factory=list)
    last: Word | None = None

    def push(self, factor: Word | None):
        """Multiply the last factor into the product and hold ``factor``."""
        if self.last is not None:
            _multiply_onto(self.product, self.last)
        self.last = factor

    def word(self) -> Word:
        self.push(None)  # even a last (): no power may follow the word
        return tuple(self.product)


def parse_word(text: str, scheme: WeightScheme) -> Word:
    """Parse the word grammar; raises WordSyntaxError with a column.

    One loop over a stack of open groups, so nesting depth is unbounded.
    All tokens are read first: a bad character is the error wherever it is."""
    m, n = scheme.m, scheme.n
    stack = [_Group(None, 0)]
    for kind, value, column in list(_tokens(text)):
        group = stack[-1]
        if kind == "one":
            group.push(())
        elif kind == "name":
            index = _integer(value[1:], column)
            offset, count, size = (0, m, "m") if value[0] == "x" else (m, n, "n")
            if not 1 <= index <= count:
                raise WordSyntaxError(
                    f"generator {value} out of range ({size}={count})", column)
            group.push((offset + index,))
        elif kind == "power":
            base = group.last
            if base is None:
                raise WordSyntaxError(f"unexpected {value!r}", column)
            exponent = _integer(value[1:], column)
            if abs(exponent) * len(base) > MAX_POWER_LENGTH:
                raise WordSyntaxError(
                    f"power {value} of a word of length {len(base)} exceeds "
                    f"{MAX_POWER_LENGTH} letters", column)
            base = invert_word(base) if exponent < 0 else base
            _multiply_onto(group.product, base * abs(exponent))
            group.last = None  # a power is not raised again
        elif value in ("(", "["):
            stack.append(_Group(")" if value == "(" else ",", column))
        elif value != group.closer:  # a ',', ']', ')' or the end out of place
            raise WordSyntaxError(
                _EXPECTED.get(group.closer, f"unexpected {value!r}"), column)
        elif value is None:
            return group.word()
        elif value == ",":
            group.closer, group.first = "]", group.word()
            group.product = []
        else:
            word = group.word()
            if value == "]":
                if 2 * (len(group.first) + len(word)) > MAX_POWER_LENGTH:
                    raise WordSyntaxError(
                        f"commutator of words of lengths {len(group.first)} and "
                        f"{len(word)} exceeds {MAX_POWER_LENGTH} letters",
                        group.column)
                word = group_commutator(group.first, word)
            stack.pop()
            stack[-1].push(word)


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
