"""The bracket of Lyndon words (Reutenauer, Free Lie Algebras, 5.1): for
u < v, [u, v] = uv when u is a letter or the right factor of u is >= v;
otherwise u = (u1, u2) and Jacobi gives [u1, [u2, v]] - [u2, [u1, v]].
A ``BracketTable`` keeps this rule for one scheme, keyed by int ids, not
by words: column j of degree k is the id ``offset[k] + j``.  ``concat``
maps (left id, right id) to the word's id, [u, v] = uv in each case the
rule settles without Jacobi, and ``memo`` holds the rest.  A table
belongs to the call or the suite run that reads it; it is not shared.
"""

from __future__ import annotations

from .liebasis import LieElement, _lyndon_bucket
from .series import WeightScheme


class BracketTable:
    def __init__(self, scheme: WeightScheme):
        self.weights = scheme.letter_weights()
        # id -> word and its (left id, right id), None for a letter;
        # word -> id; degree k -> its first id, degree k + 1 -> the end
        self.words, self.factors, self.ids = [], [], {}
        self.offset = [0, 0]
        self.concat, self.memo = {}, {}

    def register(self, n: int) -> None:
        """Number the Lyndon words of each degree up to n, lowest first."""
        words, ids = self.words, self.ids
        for k in range(len(self.offset) - 1, n + 1):
            for word, right in zip(*_lyndon_bucket(self.weights, k)):
                ids[word] = len(words)
                pair = None if right is None else (ids[word[:-len(right)]], ids[right])
                if pair:
                    self.concat[pair] = len(words)
                words.append(word)
                self.factors.append(pair)
            self.offset.append(len(words))

    def pair(self, u: int, v: int) -> dict[int, int]:
        """[u, v] for the ids of words u < v, as id -> coefficient; read-only.
        Past the rule's first case u = (u1, u2), u2 < v, and Jacobi gives
        [u1, [u2, v]] - [u2, [u1, v]], each pair read in stored order:
        every word w of [u2, v] exceeds u2, which exceeds u1."""
        if (w := self.concat.get((u, v))) is not None:
            return {w: 1}
        if (out := self.memo.get((u, v))) is not None:
            return out
        words, concat, pair = self.words, self.concat, self.pair
        u1, u2 = self.factors[u]
        terms = [(u1, w, c) for w, c in pair(u2, v).items()]
        for w, c in pair(u1, v).items():
            if words[u2] < words[w]:
                terms.append((u2, w, -c))
            elif words[w] < words[u2]:
                terms.append((w, u2, c))
        out = {}
        for a, b, c in terms:
            # most terms are a rule's first case: no call, no dict
            w = concat.get((a, b))
            for z, x in pair(a, b).items() if w is None else ((w, 1),):
                if value := out.get(z, 0) + c * x:
                    out[z] = value
                else:
                    del out[z]
        self.memo[u, v] = out
        return out

    def ad(self, g: int, k: int, used) -> list[tuple]:
        """ad of the letter g on degree k, in column indices: entry j holds
        the (column, coefficient) pairs of [g, v], v the word of column j,
        for each used column j; [g, v] = gv for g < v, -[v, g] for v < g."""
        words, first = self.words, self.offset[k]
        shift = self.offset[k + self.weights[g]]
        letter = self.ids[g,]
        table: list[tuple] = [()] * (self.offset[k + 1] - first)
        for j in used:
            if words[letter] < words[v := first + j]:
                table[j] = ((self.concat[letter, v] - shift, 1),)
            elif v != letter:
                table[j] = tuple([(i - shift, -c) for i, c in self.pair(v, letter).items()])
        return table


def bracket(a: LieElement, b: LieElement,
            brackets: BracketTable | None = None) -> LieElement:
    """Lie bracket, bilinear over the pairs of Lyndon words it reads from
    ``brackets``, a table of the elements' letter weights that a caller
    who brackets often keeps for its run, or else a fresh table:
    [v, u] = -[u, v] for u < v, [u, u] = 0."""
    scheme, n = a.scheme, a.degree + b.degree
    if scheme != b.scheme:
        raise ValueError("scheme mismatch")
    brackets = BracketTable(scheme) if brackets is None else brackets
    if brackets.weights != scheme.letter_weights():
        raise ValueError(f"bracket table of letter weights {brackets.weights}, "
                         f"not {scheme.letter_weights()}")
    if not (a.coords and b.coords):
        return LieElement._raw(scheme, n, {})
    if len(brackets.offset) <= n + 1:
        brackets.register(n)
    ids, concat, memo = brackets.ids, brackets.concat, brackets.memo
    right = [(v, ids[v], cv) for v, cv in b.coords.items()]
    out: dict[int, int] = {}
    for u, cu in a.coords.items():
        i = ids[u]
        for v, j, cv in right:
            if u == v:
                continue
            key, scale = ((i, j), cu * cv) if u < v else ((j, i), -cu * cv)
            # most pairs are the rule's first case: no call, no dict
            if (w := concat.get(key)) is not None:
                if value := out.get(w, 0) + scale:
                    out[w] = value
                else:
                    del out[w]
                continue
            for z, c in (memo.get(key) or brackets.pair(*key)).items():
                if value := out.get(z, 0) + scale * c:
                    out[z] = value
                else:
                    del out[z]
    words = brackets.words
    return LieElement._raw(scheme, n, {words[z]: c for z, c in out.items()})
