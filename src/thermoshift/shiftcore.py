"""One-step shifts of finite type: language enumeration, irreducibility,
weak specification, bridging words and periodic points.

Words are tuples of symbol indices into ``Sft.alphabet``.  All outputs are
in lexicographic index order so results are deterministic and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[int, ...]

EPSILON: Word = ()


class SftError(ValueError):
    pass


class Sft:
    """A one-step shift of finite type given by an alphabet and a 0/1
    transition matrix (entry (i, j) = 1 iff the word ij is allowable).

    Longer forbidden words must be pre-encoded via a higher-block alphabet;
    only adjacent-pair constraints are represented here.
    """

    def __init__(self, alphabet: Sequence[str], transitions: Sequence[Sequence[int]]):
        alphabet = tuple(str(a) for a in alphabet)
        if not alphabet:
            raise SftError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise SftError("alphabet has repeated symbols")
        n = len(alphabet)
        if len(transitions) != n or any(len(row) != n for row in transitions):
            raise SftError("transition matrix must be %dx%d" % (n, n))
        rows = []
        for row in transitions:
            for v in row:
                if v not in (0, 1):
                    raise SftError("transition entries must be 0 or 1")
            rows.append(tuple(int(v) for v in row))
        self.alphabet = alphabet
        self.transitions = tuple(rows)
        self.size = n
        for i in range(n):
            if not any(self.transitions[i][j] for j in range(n)):
                raise SftError("symbol %r has no outgoing transition" % (alphabet[i],))
            if not any(self.transitions[j][i] for j in range(n)):
                raise SftError("symbol %r has no incoming transition" % (alphabet[i],))
        self._followers = tuple(
            tuple(j for j in range(n) if self.transitions[i][j]) for i in range(n)
        )
        self._blocks_cache: dict[int, list[Word]] = {0: [EPSILON]}

    @classmethod
    def full_shift(cls, alphabet: Sequence[str]) -> "Sft":
        n = len(alphabet)
        return cls(alphabet, [[1] * n for _ in range(n)])

    def __repr__(self):
        return "Sft(alphabet=%r)" % (list(self.alphabet),)

    # language automaton: the state is the last symbol read, -1 before any
    start = -1

    def step(self, state: int, b: int) -> int | None:
        """State after reading b, or None when b cannot follow."""
        return b if state < 0 or self.transitions[state][b] else None

    def follows(self, i: int, j: int) -> bool:
        return bool(self.transitions[i][j])

    def followers(self, i: int) -> tuple[int, ...]:
        return self._followers[i]

    def index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise SftError("unknown symbol %r" % (name,)) from None

    def word_from_names(self, names: Iterable[str]) -> Word:
        return tuple(self.index(s) for s in names)

    def names(self, word: Word) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in word)

    def is_word(self, word: Word) -> bool:
        if any(not (0 <= s < self.size) for s in word):
            return False
        return all(self.transitions[a][b] for a, b in zip(word, word[1:]))

    def blocks(self, n: int) -> list[Word]:
        """All allowable n-blocks, lexicographic; B_0 = {epsilon}."""
        if n < 0:
            raise SftError("block length must be >= 0")
        if n not in self._blocks_cache:
            m = max(self._blocks_cache)
            for k in range(m + 1, n + 1):
                if k == 1:
                    self._blocks_cache[1] = [(i,) for i in range(self.size)]
                    continue
                prev = self._blocks_cache[k - 1]
                self._blocks_cache[k] = [
                    w + (j,) for w in prev for j in self._followers[w[-1]]
                ]
        return self._blocks_cache[n]

    def extensions(self, word: Word, k: int) -> list[Word]:
        """Suffix extensions e of length k with word+e allowable, lexicographic."""
        return extensions_from(self, word[-1] if word else self.start, k)

    def count_blocks(self, n: int) -> int:
        """|B_n| via exact integer matrix powers (no enumeration)."""
        if n == 0:
            return 1
        vec = [1] * self.size
        for _ in range(n - 1):
            vec = [sum(vec[j] for j in self._followers[i]) for i in range(self.size)]
        return sum(vec)

    def count_periodic(self, q: int) -> int:
        """Number of points with sigma^q x = x, i.e. trace of the q-th power."""
        if q < 1:
            raise SftError("period must be >= 1")
        total = 0
        for i in range(self.size):
            vec = [0] * self.size
            vec[i] = 1
            for _ in range(q):
                vec = [sum(vec[k] for k in range(self.size) if self.transitions[k][j])
                       for j in range(self.size)]
            total += vec[i]
        return total

    def is_periodic_block(self, word: Word) -> bool:
        """Wrap-around legality: (word)^infinity is a point of the shift."""
        if not word:
            return False
        return self.is_word(word) and self.follows(word[-1], word[0])


def extensions_from(lang, state, k: int) -> list[Word]:
    """Words e of length k that the language automaton of ``lang`` (an Sft
    or an image language) reads from ``state``, lexicographic."""
    out = [(EPSILON, state)]
    for _ in range(k):
        out = [(e + (b,), nxt) for e, st in out for b in range(len(lang.alphabet))
               if (nxt := lang.step(st, b)) is not None]
    return [e for e, _ in out]


@dataclass(frozen=True)
class PeriodicPoint:
    """The periodic point (block)^infinity; block is the lexicographically
    least rotation and period == len(block) is the primitive period."""

    block: Word
    period: int

    def __post_init__(self):
        if self.period != len(self.block) or self.period < 1:
            raise SftError("period must equal the block length")

    def word(self, length: int) -> Word:
        reps = -(-length // self.period)
        return (self.block * reps)[:length]


def is_irreducible(sft: Sft) -> bool:
    """True iff the transition digraph is strongly connected."""
    n = sft.size

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                edge = sft.transitions[i][j] if forward else sft.transitions[j][i]
                if edge and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return len(reach(0, True)) == n and len(reach(0, False)) == n


def weak_spec_number(sft: Sft) -> int | None:
    """Smallest p such that every symbol pair (a, b) is joined by a word of
    length <= p; None iff the shift is not irreducible."""
    n = sft.size
    worst = 0
    for a in range(n):
        # BFS over paths with >= 1 edge, depth capped at n edges
        dist: dict[int, int] = {}
        frontier = list(sft.followers(a))
        for j in frontier:
            dist.setdefault(j, 1)
        edges = 1
        while frontier and edges < n:
            edges += 1
            nxt = []
            for i in frontier:
                for j in sft.followers(i):
                    if j not in dist:
                        dist[j] = edges
                        nxt.append(j)
            frontier = nxt
        if len(dist) < n:
            return None
        worst = max(worst, max(dist.values()) - 1)
    return worst


def bridge(sft: Sft, u: Word, v: Word, max_gap: int) -> Word | None:
    """Shortest w (ties lexicographic) with uwv allowable and |w| <= max_gap."""
    if not sft.is_word(u) or not sft.is_word(v):
        raise SftError("bridge requires allowable words")
    if not u or not v:
        return EPSILON
    a, b = u[-1], v[0]
    for k in range(max_gap + 1):
        if k == 0:
            if sft.follows(a, b):
                return EPSILON
            continue
        found: list[Word] = []

        def rec(last: int, acc: Word):
            if found:
                return
            if len(acc) == k:
                if sft.follows(last, b):
                    found.append(acc)
                return
            for j in sft.followers(last):
                rec(j, acc + (j,))
                if found:
                    return

        rec(a, EPSILON)
        if found:
            return found[0]
    return None


def _least_rotation(word: Word) -> Word:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _is_primitive(word: Word) -> bool:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def periodic_points(sft: Sft, max_period: int) -> list[PeriodicPoint]:
    """All periodic orbits of primitive period <= max_period, one canonical
    representative each (lexicographically least rotation), sorted by
    (period, block)."""
    if max_period < 1:
        raise SftError("max_period must be >= 1")
    seen: set[Word] = set()
    out: list[PeriodicPoint] = []
    for q in range(1, max_period + 1):
        for w in sft.blocks(q):
            if not sft.follows(w[-1], w[0]):
                continue
            if not _is_primitive(w):
                continue
            canon = _least_rotation(w)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(PeriodicPoint(block=canon, period=q))
    out.sort(key=lambda p: (p.period, p.block))
    return out
