"""The Lyndon basis of the free Lie ring and its bracket, by one rule
(Reutenauer, Free Lie Algebras, 5.1; Lothaire, Combinatorics on Words,
ch. 5): for Lyndon words u < v, uv is Lyndon with standard factorization
(u, v) exactly when u is a letter or right(u) >= v, each Lyndon word of
length >= 2 comes from one such pair, and then [u, v] = uv; otherwise
u = (u1, u2) and Jacobi gives [u1, [u2, v]] - [u2, [u1, v]].
A ``BracketTable`` enumerates one scheme's words by the rule and keys
them by int ids, not by words: degree k holds the ids ``offset[k]`` to
``offset[k + 1] - 1``, in the order of its words.  The ideal sweep keys
its rows and echelon bases by these ids too, so no bracket is re-keyed.
``concat`` maps (left id, right id) to the word's id, [u, v] = uv in
each case the rule settles without Jacobi, and ``memo`` holds the rest.
A table belongs to the call or the suite run that reads it; it is not
shared.
"""

from __future__ import annotations

from bisect import bisect_right

from .liebasis import LieElement
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
        """Number the Lyndon words of each degree up to n, lowest first:
        degree k is its letters and uv for each standard pair (u, v) of
        lower degrees, v bisected in (u, right(u)], or > u for a letter u."""
        words, factors, ids, offset = self.words, self.factors, self.ids, self.offset
        for k in range(len(offset) - 1, n + 1):
            found = [((z,), None) for z, w in enumerate(self.weights) if w == k]
            for a in range(1, k):
                start, end = offset[k - a], offset[k - a + 1]
                for u in words[offset[a]:offset[a + 1]]:
                    i = ids[u]
                    pair = factors[i]
                    lo = bisect_right(words, u, start, end)
                    hi = end if pair is None else bisect_right(words, words[pair[1]], lo, end)
                    # stored id objects: a new int per pair costs memory
                    found += [(u + v, (i, ids[v])) for v in words[lo:hi]]
            found.sort()
            for word, pair in found:
                ids[word] = i = len(words)
                if pair:
                    self.concat[pair] = i
                words.append(word)
                factors.append(pair)
            offset.append(len(words))

    def basis(self, k: int) -> list[tuple[int, ...]]:
        """The Lyndon words of degree k in order, numbered first if need be."""
        self.register(k)
        return self.words[self.offset[k]:self.offset[k + 1]]

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

    def ad(self, g: int, used) -> dict:
        """ad of the letter g on the used ids v of one degree: the id of
        [g, v] = gv for g < v, else the table's own [v, g] = -[g, v] as
        id -> coefficient, which the caller negates; {} for v = g."""
        words, concat, pair = self.words, self.concat, self.pair
        letter = self.ids[g,]
        word = words[letter]
        return {v: concat[letter, v] if word < words[v]
                else pair(v, letter) if v != letter else {} for v in used}


def lyndon_words(scheme: WeightScheme, weight: int) -> list[tuple[int, ...]]:
    """Lyndon words of the given weighted degree, in lexicographic order,
    read from a fresh table."""
    if weight < 1:
        raise ValueError("weight must be positive")
    return BracketTable(scheme).basis(weight)


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
