"""One-block factor maps, the induced image language, fiber enumeration and
the fiber rows (``_Rows``): the one level-by-level kernel for products of
per-symbol matrices over the fibers, which every g-table (seqtable), its
projective classes and the pushforward masses step, with one word index
over them (``_word_levels``).

The image subshift Y is never specified independently: its language is
derived from the map via the subset automaton (state = set of domain
symbols a preimage word can currently end in).  ``ImageLanguage`` supplies
only that automaton's ``step``; the rest comes from ``shiftcore.Language``.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .markov import MarkovMeasure, MeasureError
from .numerics import INT64_MAX, array_max, integer_rows, row_sums, unique_rows
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
    walk = _Rows(v, lambda n: tuple(a[:, y[n - 1], None] for a in steps(n)), row_sums)
    total = sum(row_sums(walk.to(len(y)).rows[-1]).tolist())
    return Fraction(total, den(len(y))) if mu.exact else float(total)


class _Rows:
    """The fibers of pi level by level, as their distinct rows: V_n =
    stack_b(V_{n-1} M_b) from the row vector ``root``, a column per domain
    state.  ``steps(n)`` is (M, edge), M indexed [source state, image
    symbol, target state].  A row grown by b stays a word while it reaches
    a state: its support on a counting walk, which passes edge None as its
    transitions are exactly its positive weights; else the states ``edge``
    (the domain transitions, whatever the weights: a float walk can
    underflow, a mass walk has zero-probability transitions) leads to from
    those reached, every state at the start.  Every allowed block extends
    to the left, so what the root's zero states add is the left-extension
    of its real reach: the word test and the rows kept do not change.  One
    kernel for every product of per-symbol matrices over the fibers:
    g-tables, float (``seqtable.build_g_table``) and exact, their
    projective classes and the pushforward masses.

    Each depth keeps each distinct row (with its reach, on an edge walk)
    once, compared by their bits (by value on Python ints), as equal rows
    step to equal rows; with ``primitive`` each row is first divided by its
    gcd, which gives the projective classes of an integer walk.
    ``next[n][i, b]`` is the row at depth n + 1 of row i grown by b (-1
    where no word), ``g[n]`` the ``value`` of the rows at depth n (g[0]
    None) and ``rows[n]`` the rows themselves: every depth's with
    ``primitive``, else the deepest only, the one stepped again.  ``to(n)``
    walks as deep as a read reaches.  The rows are never more than the
    words, and few where the words share their fibers' shape (2n at depth
    n on the collapse factor, 1842 of 8192 words of an r2-float table at
    depth 13)."""

    def __init__(self, root: np.ndarray, steps, value, primitive: bool = False):
        self._steps, self._value, self._primitive = steps, value, primitive
        self.rows, self.live = [root], np.ones(root.shape, dtype=bool)
        self.g, self.next = [None], []

    @classmethod
    def given(cls, nxt: list, g: list) -> _Rows:
        """Rows given outright, never stepped: a table built from dicts,
        each of whose words is its own row."""
        rows = cls.__new__(cls)
        rows.next, rows.g = nxt, g
        return rows

    def to(self, n: int) -> _Rows:
        """The rows through depth n."""
        while len(self.g) <= n:
            m, edge = self._steps(len(self.g))
            out = _grow(self.rows[-1], m)
            reach = out if edge is None else \
                (self.live @ edge.reshape(len(m), -1)).reshape(out.shape)
            nxt = np.full(len(out), -1, np.intp)
            grown = np.flatnonzero(reach.any(axis=1))  # per (row, symbol) cell: a word
            out, reach = out[grown], reach[grown]
            if self._primitive:
                out = out // np.gcd.reduce(out, axis=1)[:, None]
            first = inv = np.arange(len(out))
            if len(out) > 1:
                key = [out, reach] if out.dtype == object else [out.view(np.uint8),
                                                                reach.view(np.uint8)]
                first, inv = unique_rows(out if edge is None else np.hstack(key))
            nxt[grown] = inv
            self.next.append(nxt.reshape(len(self.rows[-1]), -1))
            if not self._primitive:
                self.rows[-1] = None
            self.rows.append(out[first])
            self.live = None if edge is None else reach[first]
            self.g.append(self._value(self.rows[-1]))
        return self

    def find(self, word: Word) -> int | None:
        """The row reached from the root by the symbols of ``word``; None
        when it is no word."""
        i = 0
        for n, b in enumerate(word):
            i = int(self.next[n][i, b]) if 0 <= b < self.next[n].shape[1] else -1
            if i < 0:
                return None
        return i


def _grow(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row i of v grown by image symbol b, v M_b, at row i * |symbols| + b.
    Floats accumulate over the source states in ascending order (their
    bits); integers stay in int64 while the largest entry times the largest
    column sum of M stays below 2^63, Python ints past it."""
    if v.dtype == np.int64 and (m.dtype == object or
                                array_max(v) * array_max(m.sum(axis=0)) > INT64_MAX):
        v = v.astype(object)
    flat = m.reshape(len(m), -1).astype(v.dtype)
    if v.dtype == float:
        out = np.zeros((len(v), flat.shape[1]))
        for j in range(len(flat)):
            out += v[:, j, None] * flat[j]
    else:
        out = v @ flat
    return out.reshape(-1, m.shape[2])


def _word_levels(rows: _Rows):
    """The word index over ``rows``, one depth n = 1, 2, ... per
    resumption: (ids, parent, sym, tail), each word's row (next[n-1][its
    parent's row, its last symbol]), the ranks one depth down of w[:-1] and
    w[1:] and the last symbols, words in lexicographic order.  w[1:] is the
    parent's tail followed by sym.  It builds the level index of every
    g-table (``seqtable._Levels``) and spells the sandwich's failures."""
    ids, tail, child = np.zeros(1, np.intp), np.zeros(1, np.int32), None
    for n in itertools.count(1):
        nxt = rows.to(n).next[n - 1]
        n_img, cells = nxt.shape[1], nxt[ids].ravel()
        kept = np.flatnonzero(cells >= 0)
        ids = cells[kept]
        parent, sym = (kept // n_img).astype(np.int32), (kept % n_img).astype(np.int32)
        below = np.full(len(cells), -1, dtype=np.int32)
        below[kept] = np.arange(len(kept), dtype=np.int32)
        tail = np.zeros(len(kept), np.int32) if child is None else \
            child[tail[parent] * n_img + sym]
        child = below
        yield ids, parent, sym, tail


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
