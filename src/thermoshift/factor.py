"""One-block factor maps, the induced image language, fiber enumeration and
exact pushforward of Markov measures.

The image subshift Y is never specified independently: its language is
derived from the map via the subset automaton (state = set of domain
symbols a preimage word can currently end in).  ``ImageLanguage`` supplies
only that automaton's ``step``; blocks, counts, membership, extensions and
periodic blocks come from the shared ``shiftcore.Language``, so they are
cheap without enumerating fibers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .markov import MarkovMeasure, MeasureError
from .shiftcore import EPSILON, Language, Sft, SftError, Word


class FactorError(ValueError):
    pass


class OneBlockFactor:
    def __init__(self, domain: Sft, symbol_map: Mapping[str, str] | Sequence[str]):
        self.domain = domain
        if isinstance(symbol_map, Mapping):
            try:
                targets = [str(symbol_map[name]) for name in domain.alphabet]
            except KeyError as e:
                raise FactorError("symbol map misses domain symbol %s" % e) from None
        else:
            if len(symbol_map) != domain.size:
                raise FactorError("symbol map must cover the whole domain alphabet")
            targets = [str(t) for t in symbol_map]
        self.image_alphabet: tuple[str, ...] = tuple(sorted(set(targets)))
        self._target_index = {name: i for i, name in enumerate(self.image_alphabet)}
        self.symbol_map: tuple[int, ...] = tuple(self._target_index[t] for t in targets)
        self._preimages: tuple[tuple[int, ...], ...] = tuple(
            tuple(x for x in range(domain.size) if self.symbol_map[x] == b)
            for b in range(len(self.image_alphabet))
        )
        self.image = ImageLanguage(self)

    def __repr__(self):
        pairs = ", ".join("%s->%s" % (a, self.image_alphabet[self.symbol_map[i]])
                          for i, a in enumerate(self.domain.alphabet))
        return "OneBlockFactor(%s)" % pairs

    @classmethod
    def identity(cls, sft: Sft) -> "OneBlockFactor":
        return cls(sft, {a: a for a in sft.alphabet})

    def apply(self, word: Word) -> Word:
        return tuple(self.symbol_map[x] for x in word)

    def preimage_symbols(self, b: int) -> tuple[int, ...]:
        return self._preimages[b]


class ImageLanguage(Language):
    """Language of the image subshift, read by the subset automaton: the
    state is the set of domain symbols a preimage word can currently end in."""

    error = FactorError
    blocks = Language.blocks  # own attribute: perfbench/tracer.py reads vars(cls)
    count_blocks = Language.count_blocks  # own attribute: perfbench/tracer.py reads vars(cls)

    def __init__(self, factor: OneBlockFactor):
        super().__init__(factor.image_alphabet, frozenset(range(factor.domain.size)))
        self.factor = factor
        self._steps: dict[tuple[frozenset, int], frozenset | None] = {}

    def step(self, state: frozenset, b: int) -> frozenset | None:
        """Advance the set of possible preimage end-symbols by one image
        symbol; None when the word leaves the language.  Transitions are
        cached, so the subset automaton is determinized lazily, once."""
        try:
            return self._steps[state, b]
        except KeyError:
            pass
        dom = self.factor.domain
        nxt = frozenset(x for x in self.factor.preimage_symbols(b)
                        if any(dom.follows(s, x) for s in state)) or None
        self._steps[state, b] = nxt
        return nxt


def fiber_words(pi: OneBlockFactor, y: Word) -> list[Word]:
    """All u in B_n(X) with pi(u) = y, lexicographic; empty iff y is not in
    the image language."""
    if not y:
        return [EPSILON]
    dom = pi.domain
    out: list[Word] = []

    def rec(acc: Word, pos: int):
        if pos == len(y):
            out.append(acc)
            return
        for x in pi.preimage_symbols(y[pos]):
            if pos == 0 or dom.follows(acc[-1], x):
                rec(acc + (x,), pos + 1)

    rec(EPSILON, 0)
    return out


def induced_image_sft(pi: OneBlockFactor, verify_depth: int = 8) -> Sft | None:
    """1-step SFT presentation of the image shift when one exists: the
    candidate built from the image 2-blocks, verified against the true
    image language up to verify_depth.  None when the image is not 1-step
    at that depth (it is sofic in general)."""
    lang = pi.image
    k = len(lang.alphabet)
    trans = [[0] * k for _ in range(k)]
    for a, b in lang.blocks(2):
        trans[a][b] = 1
    try:
        candidate = Sft(lang.alphabet, trans)
    except SftError:
        return None
    for n in range(1, verify_depth + 1):
        if candidate.blocks(n) != lang.blocks(n):
            return None
    return candidate


def pushforward_cylinder(mu: MarkovMeasure, pi: OneBlockFactor, y: Word):
    """Mass of the image cylinder [y] under pi(mu): the exact sum of
    mu-cylinder masses over the fiber of y.

    Fractions in, Fractions out; on the float path the per-state sums use
    plain accumulation and the fiber sum is compensated.
    """
    if mu.sft is not pi.domain and mu.alphabet != pi.domain.alphabet:
        raise MeasureError("measure alphabet does not match the factor domain")
    n = len(y)
    if n == 0:
        return Fraction(1) if mu.exact else 1.0
    if n <= mu.order:
        masses = [mu.cylinder_mass(u) for u in fiber_words(pi, y)]
        if mu.exact:
            return sum(masses, Fraction(0))
        return math.fsum(masses)
    return _state_total(mu, _cylinder_states(mu, pi, y))


def pushforward_masses(mu: MarkovMeasure, pi: OneBlockFactor, levels):
    """Yield {y: mass of [y] under pi(mu)} for each list of image words in
    ``levels`` (words of length 1, 2, ...), equal to pushforward_cylinder
    word by word, floats bit for bit.

    Past the measure's order k a word's per-state masses are its parent's
    advanced by one symbol, so one walk down the word tree serves every
    word whose prefix was in the previous level.
    """
    if mu.sft is not pi.domain and mu.alphabet != pi.domain.alphabet:
        raise MeasureError("measure alphabet does not match the factor domain")
    k = mu.order
    prev: dict[Word, dict] = {}
    for n, words in enumerate(levels, start=1):
        cur: dict[Word, dict] = {}
        masses = {}
        for y in words:
            if n <= k:
                masses[y] = pushforward_cylinder(mu, pi, y)
                if n == k:
                    cur[y] = _cylinder_states(mu, pi, y)
                continue
            parent = prev.get(y[:-1])
            states = (_advance(mu, pi, parent, y[-1]) if parent is not None
                      else _cylinder_states(mu, pi, y))
            cur[y] = states
            masses[y] = _state_total(mu, states)
        prev = cur
        yield masses


def _cylinder_states(mu: MarkovMeasure, pi: OneBlockFactor, y: Word) -> dict:
    """{k-block state s: mass of the words in the fiber of y ending in s},
    for len(y) >= k; empty once no fiber word carries mass."""
    k = mu.order
    states: dict[Word, object] = {}
    for s in mu.states:
        if pi.apply(s) == y[:k]:
            m = mu.state_mass(s)
            if m:
                states[s] = m
    for b in y[k:]:
        if not states:
            break
        states = _advance(mu, pi, states, b)
    return states


def _advance(mu: MarkovMeasure, pi: OneBlockFactor, states: dict, b: int) -> dict:
    """Per-state masses after appending the image symbol b."""
    dom = pi.domain
    zero = Fraction(0) if mu.exact else 0.0
    nxt: dict[Word, object] = {}
    for s, m in states.items():
        i = mu._index[s]
        for x in pi.preimage_symbols(b):
            if not dom.follows(s[-1], x):
                continue
            t = s[1:] + (x,)
            j = mu._index.get(t)
            if j is None:
                continue
            p = mu.matrix[i][j]
            if p:
                nxt[t] = nxt.get(t, zero) + m * p
    return nxt


def _state_total(mu: MarkovMeasure, states: dict):
    total = Fraction(0) if mu.exact else 0.0
    for m in states.values():
        total += m
    return total
