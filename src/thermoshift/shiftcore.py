"""Shift languages read by one automaton, and one-step shifts of finite type:
block enumeration and counting, irreducibility, weak specification,
bridging words and periodic points.

``Language`` builds every language query from an alphabet, a ``start``
state and ``step(state, b)``: ``Sft`` steps on its last symbol, the image
language of a factor map (``factor.ImageLanguage``) on a subset of domain
symbols.  Words are tuples of symbol indices into ``alphabet``.  All outputs
are in lexicographic index order so results are deterministic and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[int, ...]

EPSILON: Word = ()


class SftError(ValueError):
    pass


class Language:
    """A language read by a deterministic automaton.  Subclasses call
    ``__init__`` with the alphabet and start state and define
    ``step(state, b)``, which returns the next state or None once the word
    leaves the language.  States must be hashable and are compared with
    ``is None``, so any other value (0 included) is a live state."""

    error: type[ValueError] = ValueError  # raised on bad names and lengths

    def __init__(self, alphabet: tuple[str, ...], start):
        self.alphabet = alphabet
        self.start = start
        self._levels: list[list[Word]] = [[EPSILON]]  # B_0, B_1, ... built so far
        self._frontier = [(EPSILON, start)]  # (word, state) on the last built level
        self._counts = [1]  # |B_0|, |B_1|, ... counted so far
        self._paths = {start: 1}  # paths per state on the last counted level

    def index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise self.error("unknown symbol %r" % (name,)) from None

    def word_from_names(self, names: Iterable[str]) -> Word:
        return tuple(self.index(s) for s in names)

    def names(self, word: Word) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in word)

    def run(self, word: Word):
        """State after reading word, or None once it leaves the language."""
        state = self.start
        for b in word:
            state = self.step(state, b)
            if state is None:
                break
        return state

    def is_word(self, word: Word) -> bool:
        k = len(self.alphabet)
        return all(0 <= b < k for b in word) and self.run(word) is not None

    def blocks(self, n: int) -> list[Word]:
        """All n-blocks, lexicographic; B_0 = {epsilon}.  Each level grows
        from the sorted level below in symbol order, so it comes out sorted."""
        if n < 0:
            raise self.error("block length must be >= 0")
        while len(self._levels) <= n:
            self._frontier = self._grow(self._frontier)
            self._levels.append([w for w, _ in self._frontier])
        return self._levels[n]

    def extensions(self, word: Word, k: int) -> list[Word]:
        """Words e of length k with word+e in the language, lexicographic."""
        state = self.run(word)
        return [] if state is None else self.extensions_from(state, k)

    def extensions_from(self, state, k: int) -> list[Word]:
        """Words of length k the automaton reads from ``state``, lexicographic."""
        out = [(EPSILON, state)]
        for _ in range(k):
            out = self._grow(out)
        return [e for e, _ in out]

    def _grow(self, pairs: list) -> list:
        """Each (word, state) extended by one symbol, in symbol order."""
        return [(w + (b,), nxt) for w, st in pairs for b in range(len(self.alphabet))
                if (nxt := self.step(st, b)) is not None]

    def block_counts(self, n: int) -> list[int]:
        """[|B_0|, ..., |B_n|] by path counting over the automaton states (no
        enumeration), every depth in one walk, kept and grown on demand."""
        if n < 0:
            raise self.error("block length must be >= 0")
        while len(self._counts) <= n:
            nxt: dict = {}
            for st, c in self._paths.items():
                for b in range(len(self.alphabet)):
                    st2 = self.step(st, b)
                    if st2 is not None:
                        nxt[st2] = nxt.get(st2, 0) + c
            self._paths = nxt
            self._counts.append(sum(nxt.values()))
        return self._counts[:n + 1]

    def count_blocks(self, n: int) -> int:
        """|B_n| (``block_counts``)."""
        return self.block_counts(n)[n]

    def is_periodic_block(self, word: Word) -> bool:
        """(word)^infinity is a point of the shift iff every repetition of
        word stays in the language; the state after each repetition is
        eventually periodic, so repeating until a state recurs decides it."""
        if not word or not self.is_word(word):
            return False
        state, seen = self.run(word), set()
        while state not in seen:
            seen.add(state)
            for b in word:
                state = self.step(state, b)
                if state is None:
                    return False
        return True


class Sft(Language):
    """A one-step shift of finite type given by an alphabet and a 0/1
    transition matrix (entry (i, j) = 1 iff the word ij is allowable).

    Longer forbidden words must be pre-encoded via a higher-block alphabet;
    only adjacent-pair constraints are represented here.  The automaton
    state is the last symbol read, -1 before any.
    """

    error = SftError
    blocks = Language.blocks  # own attribute: perfbench/tracer.py reads vars(cls)
    count_blocks = Language.count_blocks  # own attribute: perfbench/tracer.py reads vars(cls)

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
        super().__init__(alphabet, -1)
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

    @classmethod
    def full_shift(cls, alphabet: Sequence[str]) -> "Sft":
        n = len(alphabet)
        return cls(alphabet, [[1] * n for _ in range(n)])

    def __repr__(self):
        return "Sft(alphabet=%r)" % (list(self.alphabet),)

    def step(self, state: int, b: int) -> int | None:
        """State after reading b, or None when b cannot follow."""
        return b if state < 0 or self.transitions[state][b] else None

    def follows(self, i: int, j: int) -> bool:
        return bool(self.transitions[i][j])

    def followers(self, i: int) -> tuple[int, ...]:
        return self._followers[i]

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
    return weak_spec_number(sft) is not None


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
    for k in range(max_gap + 1):
        for w in sft.extensions(u, k):
            if sft.follows((u + w)[-1], v[0]):
                return w
    return None


def _least_rotation(word: Word) -> Word:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _is_primitive(word: Word) -> bool:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def periodic_points(lang: Language, max_period: int) -> list[PeriodicPoint]:
    """All periodic orbits of primitive period <= max_period of the shift
    whose language is ``lang`` (an Sft or a sofic image), one canonical
    representative each (lexicographically least rotation), sorted by
    (period, block)."""
    seen: set[Word] = set()
    out: list[PeriodicPoint] = []
    for q in range(1, max_period + 1):
        for w in lang.blocks(q):
            if not _is_primitive(w):
                continue
            canon = _least_rotation(w)
            if canon not in seen and lang.is_periodic_block(canon):
                seen.add(canon)
                out.append(PeriodicPoint(block=canon, period=q))
    out.sort(key=lambda p: (p.period, p.block))
    return out
