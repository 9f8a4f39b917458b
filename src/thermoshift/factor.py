"""One-block factor maps, the induced image language, fiber enumeration and
the fiber walk: the one level-by-level kernel for products of per-symbol
matrices over the fibers, g-tables (seqtable) and pushforward masses alike.

The image subshift Y is never specified independently: its language is
derived from the map via the subset automaton (state = set of domain
symbols a preimage word can currently end in).  ``ImageLanguage`` supplies
only that automaton's ``step``; the rest comes from ``shiftcore.Language``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .markov import MarkovMeasure, MeasureError
from .numerics import INT64_MAX, array_max, integer_rows, row_sums
from .shiftcore import EPSILON, Language, Sft, Word


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
        self._mass_steps = weakref.WeakKeyDictionary()  # pushforward_cylinder's, per measure
        # seqtable's linear representation of the fiber sums, per potential
        self._representations = weakref.WeakKeyDictionary()

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


def pushforward_cylinder(mu: MarkovMeasure, pi: OneBlockFactor, y: Word):
    """Mass of the image cylinder [y] under pi(mu): the sum of mu-cylinder
    masses over the fiber of y, by the mass walk restricted to the symbols
    of y.  A Fraction on exact measures, a float otherwise.  The steps are
    built once per measure and factor, and kept only while both live."""
    if mu not in pi._mass_steps:
        pi._mass_steps[mu] = _measure_steps(mu, pi)
    v, steps, den = pi._mass_steps[mu]
    for v, *_ in _fiber_walk(v, lambda n: tuple(a[:, y[n - 1], None] for a in steps(n)), len(y)):
        pass
    total = sum(row_sums(v).tolist())
    return Fraction(total, den(len(y))) if mu.exact else float(total)


def _fiber_walk(v: np.ndarray, steps, depth: int):
    """The fibers of pi level by level: V_n = stack_b(V_{n-1} M_b) from the
    row vector v, a row per image word (word-major, so lexicographic) and a
    column per domain state.  ``steps(n)`` is (M, edge), indexed [source
    state, image symbol, target state]; a word is kept while ``edge`` (the
    domain transitions) reaches it, whatever the weights.  Integers run in
    int64 while a bound allows, Python ints past it.  Yields (V_n, parent,
    sym, tail): ranks one depth down of w[:-1] and w[1:], last symbols."""
    live = np.ones(v.shape, dtype=bool)
    tail = child = np.zeros(1, dtype=np.int32)
    for n in range(1, depth + 1):
        m, edge = steps(n)
        if v.dtype == np.int64 and (m.dtype == object or
                                    array_max(v) * array_max(m.sum(axis=0)) > INT64_MAX):
            v = v.astype(object)
        m = m.astype(v.dtype)
        # accumulate over the source states in ascending order (float bits)
        rows, n_img = len(v), m.shape[1]
        out = np.zeros((rows,) + m.shape[1:], dtype=v.dtype)
        reach = np.zeros(out.shape, dtype=bool)
        for j in range(m.shape[0]):
            out += v[:, j, None, None] * m[j]
            reach |= live[:, j, None, None] & edge[j]
        out, reach = out.reshape(rows * n_img, -1), reach.reshape(rows * n_img, -1)
        kept = np.flatnonzero(reach.any(axis=1))
        v, live = out[kept], reach[kept]
        parent, sym = (kept // n_img).astype(np.int32), (kept % n_img).astype(np.int32)
        # w[1:] is the parent's tail followed by sym, one depth down
        tail = np.zeros(len(kept), np.int32) if n == 1 else child[tail[parent] * n_img + sym]
        child = np.full(rows * n_img, -1, dtype=np.int32)  # row * |B| + symbol -> rank
        child[kept] = np.arange(len(kept), dtype=np.int32)
        yield v, parent, sym, tail


def _measure_steps(mu: MarkovMeasure, pi: OneBlockFactor):
    """(start, steps, den): the mass walk of pi(mu) on mu's k-block states,
    from the stationary vector.  Step n <= k keeps the state and reads the
    image of its n-th symbol; later steps are P split by the image of the
    symbol entered.  Exact measures walk integers, the stationary vector
    times d0 and P times d (lcms of denominators): a depth-n mass is an
    integer over den(n) = d0 d^max(0, n-k)."""
    if mu.sft is not pi.domain and mu.alphabet != pi.domain.alphabet:
        raise MeasureError("measure alphabet does not match the factor domain")
    k, start, p = mu.order, mu.stationary, mu.matrix
    d0 = d = 1
    if mu.exact:
        [start], d0 = integer_rows([start])
        p, d = integer_rows(p)
    dtype = float if not mu.exact else np.int64 if max(d0, d) <= INT64_MAX else object
    shape = (len(mu.states), len(pi.image_alphabet), len(mu.states))
    walk = [(np.zeros(shape, dtype), np.zeros(shape, dtype=bool)) for _ in range(k + 1)]
    for i, s in enumerate(mu.states):
        moves = [(n, s[n], i, 1) for n in range(k)] + [(k, x, j, p[i][j]) for j, x in mu._moves[i]]
        for n, x, j, w in moves:  # step, symbol read, target state, weight
            m, edge = walk[n]
            m[i, pi.symbol_map[x], j], edge[i, pi.symbol_map[x], j] = w, True
    return (np.array([start], dtype), lambda n: walk[min(n, k + 1) - 1],
            lambda n: d0 * d ** max(0, n - k))
