"""Sequence-level computations: the relative-pressure tables g_n, partition
sums and pressure estimates, the bridging-condition (D2) checker and the
almost-additivity defect profile C_{n,m}.

Tables are built once per depth and immutable afterwards.  Two arithmetic
modes: exact integer counting (fiber cardinalities, the f = 0 path) and
floating log space.  The counting path keeps exact values alongside their
logs so downstream checks can be zero-tolerance.

A table lives in its rows (``SeqTable.rows``) and its level index
(``SeqTable.levels``).  A g-table's rows are its distinct fiber rows
(``factor._Rows``, the one walker), a table built from dicts makes each
word its own row; either way ``next`` steps a row by a symbol and the
values are held once per row, so every value read (``entry``, the power
base, the uniform defects' walk, the periodic blocks) is a walk down the
rows that reads no word.  The level index holds per depth the logs, the
exact values as integers over one denominator, each word's last symbol and
the ranks of its prefix and suffix one depth down, so prefixes and
suffixes of any length are chained gathers; words are spelled out on
demand.  A g-table builds it, with no Fraction in it, from its rows' word
index (``factor._word_levels``) a level at a time, when the level is first
read (``_Levels``); a float g-table walks its rows through every depth at
build time, an exact one as deep as a read reaches.  The dict views
``logs`` / ``exact`` are built only when asked for.  Z_n comes from the
one-row walk of the total collapse (``partition_table``): the fibers
partition B_n(X), so no image word is needed.  A float walk whose entries
near the bottom of the float range gives each domain state its own
power-of-two exponent.  On exact tables floats only propose; exact integer
comparison (int64 below 2^63, Python ints past it) decides.

Every walk steps by one transfer matrix per (factor, potential) on the
domain's prefix states, kept on the factor (``_Representation``): the float
walk by its bands, the exact walks whole.  On an exact g-table (the
counting path, f = 0, of any range) g is a rational series, g(uv) = x_u .
y_v.  The C_{n,m} profile and the D2 bridging search read projective
fiber classes instead of words (``_FiberClasses``): g(uv) / (g(u) g(v))
depends on u and v only through the primitive rows of x_u and y_v, and the
classes grow by themselves, depth by depth, as deep as a scan reads (a
primitive ``_Rows`` per direction).  That pays when a depth holds few
classes next to its words; each scan counts the class products it needs and
takes the class path only when they are fewer than the word scan's cells,
the profile row by row (``_profile_rows``).  On exact tables both scans
report log_fraction of an exact extreme ratio (``_max_ratios``): C_{n,m}
the largest spread, D_{n,m} the least bridged ratio, so the class and word
paths give the same floats.  The class path reads no word level and steps
none of the table's rows; only the unbridged pairs check_D2 lists are
spelled from the levels.  Float tables, tables built from dicts and exact
g-tables whose classes do not pay keep the word scans (``_splits``,
``_ranks``, ``_word_bridges``).  A verdict reads the profile rows only up
to the first that grows (``growth_witness``).  Where the series has Hankel
rank 1 (``_Representation.rank``, computed exactly, and only on a
full-shift image, the one place it can be 1) g(uv) = g(u) g(v), every
C_{n,m} is 1 and the profile rows come with no scan at all.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .factor import OneBlockFactor, _grow, _Rows, _word_levels
from .numerics import (INT64_MAX, array_max, common_power_base, int_array, integer_rows,
                       log_fraction, logsumexp, perron, perron_exact, power_exponent, row_reduce,
                       row_sums, span_basis, unique_rows)
from .potential import LocallyConstantPotential, birkhoff_sup
from .shiftcore import Sft, Word
from .verdicts import DEFAULT_SLOPE_THRESHOLD, TrendStats, growth_flag, decays_to_zero


class TableError(ValueError):
    pass


class SeqTable:
    """Per-depth log values of a sequence {log f_n} on cylinder words.

    The table lives in its rows ``rows``, which every value read walks, and
    its level index ``levels``.  ``logs[n][word]`` is
    log f_n on the cylinder of ``word`` and ``exact`` (when present) holds
    the same values as exact Fractions: read-only views, built on first
    access.  ``potential`` is the potential the table was built from (None
    for tables built from dicts); its transfer matrix gives the pressure.
    """

    def __init__(self, alphabet, logs, exact=None, kind="table", language=None,
                 potential=None):
        logs = {int(n): dict(v) for n, v in logs.items()}
        if not logs:
            raise TableError("table has no depths")
        for n in range(1, max(logs) + 1):
            if n not in logs:
                raise TableError("missing depth %d" % n)
            if not all(map(math.isfinite, logs[n].values())):
                raise TableError(_NON_FINITE % n)
        if exact is not None:
            exact = {int(n): dict(v) for n, v in exact.items()}
            if set(exact) != set(logs):
                raise TableError("exact values must cover the same depths as the logs")
            for n, vals in exact.items():
                if set(vals) != set(logs[n]):
                    raise TableError("exact values disagree with words at depth %d" % n)
                # Fractions (and ints) carry their sign in the numerator
                if not all(v.numerator > 0 for v in vals.values()):
                    raise TableError("exact values must be positive (depth %d)" % n)
        self._init(alphabet, max(logs), exact is not None, kind, language, potential, None)
        self.logs = _view(logs)
        self.exact = None if exact is None else _view(exact)

    @classmethod
    def from_rows(cls, pi: OneBlockFactor, f: LocallyConstantPotential, rows: _Rows,
                  depth_max: int, is_exact: bool) -> SeqTable:
        """The g-table of (pi, f) over its fiber rows ``rows``, whose values
        ``rows.g[n]`` (a _Level, one entry per row) it reads; its level index
        gathers them to the words on demand (``_Levels``)."""
        t = cls.__new__(cls)
        t._init(pi.image_alphabet, depth_max, is_exact, "g", pi.image, f, pi)
        t.rows, t.levels = rows, _Levels(rows, depth_max)
        return t

    def _init(self, alphabet, depth_max, is_exact, kind, language, potential, factor):
        self.alphabet, self.depth_max, self.is_exact = tuple(alphabet), depth_max, is_exact
        self.kind, self.language = kind, language
        self.potential: LocallyConstantPotential | None = potential
        self.factor: OneBlockFactor | None = factor  # the map a g-table counts fibers of
        self._z: dict[int, tuple] = {}  # see _partition
        self._powers: dict[tuple[int, int], tuple | None] = {}  # see powers

    @cached_property
    def logs(self) -> Mapping[int, Mapping[Word, float]]:
        return _view({n: dict(zip(lv.words, lv.logs.tolist()))
                      for n, lv in enumerate(self.levels) if n})

    @cached_property
    def exact(self) -> Mapping[int, Mapping[Word, Fraction]] | None:
        if not self.is_exact:
            return None
        return _view({n: {w: Fraction(lv.value(v)) for w, v in zip(lv.words, lv.num.tolist())}
                      for n, lv in enumerate(self.levels) if n})

    def _level(self, n: int) -> _Level:
        if not 1 <= n <= self.depth_max:
            raise TableError("depth %d not in table (max %d)" % (n, self.depth_max))
        return self.levels[n]

    def words(self, n: int) -> list[Word]:
        return sorted(self._level(n).words)

    def _row(self, n: int, word: Word) -> int | None:
        """The row of ``word`` at depth n, one step per symbol through
        ``rows.next``; None when it is not stored."""
        if not (1 <= n <= self.depth_max and len(word) == n):
            return None
        return self.rows.to(n).find(word)

    def entry(self, n: int, word: Word) -> tuple[float, int | Fraction | None] | None:
        """(log value, exact value or None) of ``word`` at depth n, read from
        its row; None when it is not stored."""
        i = self._row(n, word)
        if i is None:
            return None
        values = self.rows.g[n]
        return values.log(i), None if values.num is None else values.value(int(values.num[i]))

    def _stored(self, n: int, word: Word) -> tuple[float, int | Fraction | None]:
        found = self.entry(n, word)
        if found is None:
            raise TableError("word %s not stored at depth %d" % (word, n))
        return found

    def log_value(self, n: int, word: Word) -> float:
        return self._stored(n, word)[0]

    def exact_value(self, n: int, word: Word) -> Fraction:
        if not self.is_exact:
            raise TableError("table has no exact values")
        return Fraction(self._stored(n, word)[1])

    def has_word(self, n: int, word: Word) -> bool:
        return self._row(n, word) is not None

    def _partition(self, n: int) -> tuple[float, int | Fraction | None]:
        """(log Z_n, Z_n), the sum of the depth-n values, once per depth:
        Z_n exact (an int on integer levels) on exact tables, else None."""
        if n not in self._z:
            level = self._level(n)
            if level.num is None:
                self._z[n] = (logsumexp(level.logs.tolist()), None)
            else:
                total = level.value(int(row_sums(level.num[None])[0]))
                self._z[n] = (log_fraction(total), total)
        return self._z[n]

    def exponents(self, n: int, base: int) -> np.ndarray | None:
        """Per rank at depth n of an exact table, the k with value = base**k
        (int64); None if any value lacks one."""
        found = self.powers(n, base)
        return None if found is None else found[1][np.searchsorted(found[0], self._level(n).num)]

    def powers(self, n: int, base: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(the sorted distinct exact numerators at depth n, the k with each
        value = base**k), once per depth and base; None if any lacks one."""
        if (n, base) not in self._powers:
            nums, den = self._distinct_nums(n)
            ks = [power_exponent(v if den == 1 else Fraction(v, den), base) for v in nums.tolist()]
            self._powers[n, base] = None if None in ks else (nums, np.array(ks, np.int64))
        return self._powers[n, base]

    def _distinct_nums(self, n: int) -> tuple[np.ndarray, int]:
        """(the sorted distinct exact numerators at depth n, their
        denominator), from the rows."""
        values = self.rows.to(n).g[n]
        return np.unique(values.num), values.den

    @cached_property
    def power_base(self) -> int | None:
        """Common integer base b with every exact value a power of b; None
        without exact values or when there is no such base."""
        if not self.is_exact:
            return None
        return common_power_base({v if den == 1 else Fraction(v, den)
                                  for nums, den in map(self._distinct_nums,
                                                       range(1, self.depth_max + 1))
                                  for v in nums.tolist()})

    @cached_property
    def levels(self) -> list[_Level | None]:
        """The level index ``levels[n]``, 1 <= n <= depth_max, derived from
        the dicts on first use, each level sorted; TableError when a word's
        w[:-1] or w[1:] is not stored or a symbol is outside the alphabet."""
        out: list[_Level | None] = [None]
        prev = {(): 0}
        for n in range(1, self.depth_max + 1):
            level = self.logs[n]
            words = sorted(level)
            try:
                parent = np.array([prev[w[:-1]] for w in words], dtype=np.int32)
                tail = np.array([prev[w[1:]] for w in words], dtype=np.int32)
            except KeyError as err:
                raise TableError("word %s at depth %d lacks its prefix or suffix at "
                                 "depth %d" % (err.args[0], n, n - 1)) from None
            sym = np.array([w[-1] for w in words], dtype=np.int32)
            if not all(0 <= b < len(self.alphabet) for b in sym.tolist()):
                raise TableError("depth %d holds a symbol outside the alphabet" % n)
            num, den = None, 1
            if self.exact is not None:
                [num], den = integer_rows([[self.exact[n][w] for w in words]])
                num = int_array(num)
            out.append(_Level(np.fromiter(level.values(), float, len(words)), num, den,
                              parent, tail, sym, words=words))
            prev = dict(zip(words, range(len(words))))
        return out

    @cached_property
    def rows(self) -> _Rows:
        """The rows of a table built from dicts: each word is its own, grown
        by b to its child (-1 where none is stored), and its values are the
        levels'.  A g-table's are its fiber rows (``from_rows``)."""
        k, nxt = len(self.alphabet), []
        for n in range(1, self.depth_max + 1):
            level, up = self.levels[n], len(self.levels[n - 1]) if n > 1 else 1
            flat = np.full(up * k, -1, dtype=np.intp)
            flat[level.parent.astype(np.intp) * k + level.sym] = np.arange(len(level))
            nxt.append(flat.reshape(up, k))
        return _Rows.given(nxt, self.levels)

    @cached_property
    def classes(self) -> _FiberClasses | None:
        """The projective fiber classes of an exact g-table, built when a
        scan first asks; None on float tables and on tables built from
        dicts, whose scans walk the words.  The scans on the classes decline
        (return None) where the words are cheaper."""
        return _FiberClasses(self) if self.is_exact and self.factor is not None else None


_NON_FINITE = "non-finite log value at depth %d (float under- or overflow)"
# the deepest level a verdict's Chebyshev fits read; past it an exact
# verdict reads the fiber rows alone (``SeqTable.rows``) and builds no level
FIT_DEPTH = 8
# a float walk gauges its states once a step could reach below _FLOOR (the
# smallest normal float, 2^-1022, with 53 bits to spare); an empty state's
# exponent is _EMPTY, so it never leads a step
_FLOOR = 2.0 ** -969
_EMPTY = -2 ** 30


def _view(levels: dict) -> Mapping:
    return MappingProxyType({n: MappingProxyType(level) for n, level in levels.items()})


class _Level:
    """One depth's values: logs and exact values num / den (``hi`` the
    largest num), one per fiber row (``SeqTable.rows``) or, in the level
    index, one per word.  A level of the index adds each word's last symbol
    and the ranks one depth down of w[:-1] and w[1:]; its ``words``
    (lexicographic) are given or derived on first use from the level
    ``below``.  Logs not given are taken on first read, one log_fraction
    per distinct value."""

    def __init__(self, logs: np.ndarray | None, num: np.ndarray | None, den: int,
                 parent: np.ndarray | None = None, tail: np.ndarray | None = None,
                 sym: np.ndarray | None = None, words: list[Word] | None = None,
                 below: _Level | None = None):
        self._logs, self.parent, self.tail, self.sym = logs, parent, tail, sym
        self.num, self.den, self.hi = num, den, 0 if num is None else array_max(num)
        self._words, self._below = words, below

    def __len__(self) -> int:
        return len(self._logs if self.num is None else self.num)

    @property
    def logs(self) -> np.ndarray:
        if self._logs is None:
            uniq, inv = np.unique(self.num, return_inverse=True)
            self._logs = np.array([log_fraction(self.value(x)) for x in uniq.tolist()],
                                  dtype=float)[inv.reshape(-1)]
        return self._logs

    @property
    def words(self) -> list[Word]:
        if self._words is None:
            up = [()] if self._below is None else self._below.words
            self._words = [up[p] + (b,) for p, b in zip(self.parent.tolist(), self.sym.tolist())]
        return self._words

    def value(self, v: int) -> int | Fraction:
        """The stored value v / den: the int itself on integer levels."""
        return v if self.den == 1 else Fraction(v, self.den)

    def log(self, i: int) -> float:
        """The log of entry i, as ``logs[i]``, taking no other entry's."""
        return float(self._logs[i]) if self._logs is not None else \
            log_fraction(self.value(int(self.num[i])))


class _Levels:
    """The level index of a g-table, built on demand: reading ``levels[n]``
    resumes the word index over its fiber rows (``factor._word_levels``)
    through depth n, each word's values gathered from its row's.  ``built``
    counts the levels made so far."""

    def __init__(self, rows: _Rows, depth: int):
        self._done: list[_Level | None] = [None]
        self._depth, self._rows, self._walk = depth, rows, _word_levels(rows)

    @property
    def built(self) -> int:
        return len(self._done) - 1

    def __len__(self) -> int:
        return self._depth + 1

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(len(self)))]
        if not 0 <= n < len(self._done):
            n = range(self._depth + 1)[n]  # IndexError past the depth, negative n from the end
        while len(self._done) <= n:
            ids, parent, sym, tail = next(self._walk)
            values = self._rows.g[len(self._done)]  # one per row
            self._done.append(_Level(values.logs[ids],
                                     None if values.num is None else values.num[ids],
                                     values.den, parent, tail, sym, below=self._done[-1]))
            if len(self._done) > self._depth:
                self._walk = None  # a finished walk still holds its last arrays
        return self._done[n]


def _ranks(levels: list, total: int, pointer: str) -> list:
    """out[j]: rank at depth j of the length-j prefix (pointer "parent") or
    suffix ("tail") of each word at depth ``total``."""
    out = [None] * (total + 1)
    out[total] = np.arange(len(levels[total]), dtype=np.int32)
    for j in range(total, 1, -1):
        out[j - 1] = getattr(levels[j], pointer)[out[j]]
    return out


def _times(x: np.ndarray, y, bound: int) -> np.ndarray:
    """x * y elementwise, in int64 while ``bound`` caps the products below
    2^63, in Python ints past it."""
    return np.multiply(x, y, dtype=object if bound > INT64_MAX else None)


def _splits(t: SeqTable, first: int = 1):
    """Every split w = w[:n] w[n:], n >= first, of the words at each depth
    total > first, one (total, n) at a time: yields (total, n, slack,
    exact) with the float slack (log f_total - log f_n) - log f_m o sigma^n
    per word and, on exact tables, exact = (v, ab), integer arrays ordered
    like f_total and f_n * f_m o sigma^n (both scaled by the three level
    denominators)."""
    levels = t.levels
    for total in range(first + 1, t.depth_max + 1):
        top = levels[total]
        pre, suf = _ranks(levels, total, "parent"), _ranks(levels, total, "tail")
        for n in range(first, total):
            a, b = levels[n], levels[total - n]
            ia, ib = pre[n], suf[total - n]
            slack = (top.logs - a.logs[ia]) - b.logs[ib]
            exact = None
            if top.num is not None:
                scale = a.den * b.den
                ab = _times(a.num[ia], b.num[ib], a.hi * b.hi)
                exact = (_times(top.num, scale, top.hi * scale),
                         _times(ab, top.den, a.hi * b.hi * top.den))
            yield total, n, slack, exact


class _FiberClasses:
    """Projective fiber classes of the words of an exact g-table.

    g(uv) = x_u . y_v for the forward and backward rows of the table's
    representation (``_Representation``), x_u = (a_{u_1} A_{u_2} ...
    A_{u_n}, 0) and y_v = (A_v 1, g(v)).  The forward class of u is the
    primitive integer row of x_u, the backward class of v that of y_v; on
    the class rows x, (y, g) the ratio g(uv) / (g(u) g(v)) is (x . y) /
    ((x . 1) g), so a scan can read one product per pair of classes instead
    of one per word.

    That pays only when a depth holds few classes next to its words (2 per
    depth on the collapse factor, n + 1 at depth n on phase-blocked), and
    nothing bounds the count below the word count: on two blocks of two
    domain symbols, letters acting by [[1, 1], [0, 1]] and [[1, 0], [1, 1]]
    within and across the blocks give every word its own backward class.
    So each scan counts the class products it needs against the splits the
    word scan would read for the same cells (``_scan_cost``): the profile
    row by row (``defect_row``), the bridges at once, and returns None (the
    caller scans the words) unless the products are fewer.

    Each direction is one primitive walk of the fiber rows (``_Rows``:
    ``fwd`` from alpha, ``bwd`` from tau, grown at the front), whose class
    rows grow by themselves (a row grown by b has the primitive image of
    its class row grown by b) and only as deep as a scan reads: ``x(n)``
    holds the forward class rows at depth n, ``ys(top)`` the backward ones
    at depths 1..top, and ``g`` the value of each class row.  Both scans
    read exact ratios of class rows alone, so neither walks the table's
    rows or reads a word; the class of each rank (``rank_classes``) is
    gathered only to spell unbridged pairs.
    """

    def __init__(self, t: SeqTable):
        rep = _representation(t.factor, t.potential)
        self.levels, self.depth, self._m = t.levels, t.depth_max, rep.m
        self.counts = t.language.block_counts(t.depth_max)  # words per depth
        self.fwd = _Rows(rep.start, lambda n: (rep.m, None), row_sums, primitive=True)
        self.bwd = _Rows(np.ones_like(rep.start), lambda n: (rep.back, None),
                         lambda rows: rows[:, -1], primitive=True)
        self._ranks = {"fwd": [np.zeros(1, np.intp)], "bwd": [np.zeros(1, np.intp)]}
        self._first: list[np.ndarray | None] = [None]  # first symbol of each rank

    def x(self, n: int) -> np.ndarray:
        """The forward class rows at depth n."""
        return self.fwd.to(n).rows[n]

    def ys(self, top: int) -> list[np.ndarray]:
        """The backward class rows (y, g) at depths 1..top."""
        return self.bwd.to(top).rows[1:top + 1]

    def rank_classes(self, side: str, n: int) -> np.ndarray:
        """The forward ("fwd") or backward ("bwd") class of each rank at
        depth n, gathered level by level through depth n."""
        ids, walk = self._ranks[side], getattr(self, side).to(n)
        for d in range(len(ids), n + 1):
            level = self.levels[d]
            if side == "fwd":
                ids.append(walk.next[d - 1][ids[-1][level.parent], level.sym])
            else:
                self._first.append(level.sym if d == 1 else self._first[d - 1][level.parent])
                ids.append(walk.next[d - 1][ids[-1][level.tail], self._first[d]])
        return ids[n]

    def _scan_cost(self, cells: list[tuple[int, int]], gap: int) -> int:
        """The cells the word scan reads for the (n, m) ``cells``: one per
        split of each word at depths n+m..n+m+gap."""
        return sum(sum(self.counts[n + m:n + m + gap + 1]) for n, m in cells)

    def _against(self, n: int, top: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """The classes at depth n against those at depths 1..top side by
        side: (their rows (y, g) stacked, [c, d] = (x_c . 1) g_d, the
        columns of each m).  An x row's last (start) entry is 0 past the
        empty word, so x . (y, g) = x . y."""
        ys = self.ys(top)
        cat, edges = np.concatenate(ys), np.cumsum([0] + [len(y) for y in ys]).tolist()
        sx, g = self.fwd.to(n).g[n], cat[:, -1]
        den = _times(sx[:, None], g, array_max(sx) * array_max(g))
        return cat, den, {m: slice(a, b) for m, a, b in zip(range(1, top + 1), edges, edges[1:])}

    def defect_row(self, n: int) -> dict[int, Fraction] | None:
        """Row n of the profile, m -> C_{n,m} for m = 1..depth-n: the max
        over the words w at depth n+m of max(R, 1/R), R = g(w) / (g(w[:n])
        g(w[n:])), is the same maximum over the class pairs present at
        depths n and m whose product x . y is positive (their words
        concatenate to stored words); 1 where depth n+m holds no word.
        ``_max_spreads`` proves the whole row at once.  None when the row's
        class pairs are not fewer than its word splits."""
        top = self.depth - n
        if len(self.x(n)) * sum(map(len, self.ys(top))) >= \
                self._scan_cost([(n, m) for m in range(1, top + 1)], 0):
            return None
        y, den, cols = self._against(n, top)
        num = _dot(self.x(n), y)
        spread = np.where(num > 0, np.abs(_logs(num) - _logs(den)), -np.inf)
        return _max_spreads(num, den, spread, cols)

    def bridges(self, gap: int) -> dict[tuple[int, int], tuple[float | None, list]] | None:
        """check_D2's (n, m) -> (log D_{n,m} or None, unbridged word pairs);
        None when the class products would not be fewer than the word scan's
        (u, v) cells, one per split of each word at depths s..s+gap.

        A pair of classes (c, d) is bridged by the largest x_c A_w y_d over
        the gap words, |w| <= gap, and by none when that is 0.  Every word
        pair of a bridged class pair has the same best ratio, max_w g(uwv) /
        (g(u) g(v)) = max_w x_c A_w y_d / ((x_c . 1) g_d), so log D_{n,m} is
        log_fraction of the least of these over the cell's bridged class
        pairs, taken exactly (``_max_ratios`` of the inverse ratios).  The
        cells of depth n take their minima from one pass over the whole
        block; the unbridged word pairs are spelled from the levels."""
        top = self.depth - gap
        if top < 2:
            return {}
        cells = [(n, s - n) for s in range(2, top + 1) for n in range(1, s)]
        grown = self._gap_rows(top, gap, self._scan_cost(cells, gap))
        if grown is None:
            return None
        starts, steps = grown
        found = {}
        for n in range(1, top):
            y, den, cols = self._against(n, top - n)
            best = np.zeros((len(self.x(n)), len(y)), np.int64)
            for owners, bounds, rows in steps:
                a, b = np.searchsorted(owners, starts[n - 1:n + 1])
                if a < b:  # depth n's owners: one maximum over the rows of each
                    lo, mine = bounds[a], owners[a:b] - starts[n - 1]
                    peak = np.maximum.reduceat(_dot(rows[lo:bounds[b]], y), bounds[a:b] - lo)
                    if peak.dtype == object:
                        best = best.astype(object)
                    best[mine] = np.maximum(best[mine], peak)
            hit = best > 0
            inverse = _max_ratios(den, best, np.where(hit, _logs(den) - _logs(best), -np.inf),
                                  cols)
            for m, col in cols.items():
                missing = []
                if not hit[:, col].all():
                    a, b = self.levels[n].words, self.levels[m].words
                    iu, iv = np.nonzero(~hit[:, col][self.rank_classes("fwd", n)[:, None],
                                                     self.rank_classes("bwd", m)[None, :]])
                    missing = [(a[i], b[j]) for i, j in zip(iu.tolist(), iv.tolist())]
                found[(n, m)] = (None if inverse[m] is None else log_fraction(1 / inverse[m]),
                                 missing)
        return {key: found[key] for key in cells}

    def _gap_rows(self, top: int, gap: int, budget: int) -> tuple[list, list] | None:
        """(starts, [(owners, bounds, rows)] per gap length k <= gap): the
        distinct (owner, x_c A_w), |w| = k, x_c A_w nonzero, sorted by owner
        (owners[i]'s rows at bounds[i]:bounds[i + 1]); the owners number the
        classes at depths 1..top-1 depth after depth (depth n's from
        starts[n - 1] on).  None once the products with the backward classes
        each row meets (depths 1..top-n) reach ``budget``."""
        xs = [self.x(n) for n in range(1, top)]
        starts = np.cumsum([0] + [len(x) for x in xs]).tolist()
        width = np.repeat([sum(map(len, self.ys(top - n))) for n in range(1, top)],
                          [len(x) for x in xs])
        owner, rows = np.arange(starts[-1]), np.concatenate(xs)
        out, cost = [], 0
        for k in range(gap + 1):
            if k:
                grown = _grow(rows, self._m)
                owner = np.repeat(owner, self._m.shape[1])
                keep = grown.any(axis=1)
                pairs = np.column_stack([owner[keep], grown[keep]])
                pairs = pairs[unique_rows(pairs)[0]]
                pairs = pairs[np.argsort(pairs[:, 0])]
                owner, rows = pairs[:, 0].astype(np.intp), pairs[:, 1:]
            owners, first = np.unique(owner, return_index=True)
            out.append((owners, np.append(first, len(owner)), rows))
            cost += int(width[owner].sum())
            if cost >= budget:
                return None
        return starts, out


class _Representation:
    """The transfer matrix of one (factor, potential), built once per pair
    (``_representation``): the only code that turns (pi, f) into
    transitions, read by every walk of the pair.

    ``m[i, b, j]`` steps the domain's prefix states, the allowed blocks of
    length s, s - 1, ..., 1 and last the empty block, the start
    (``bands[k]`` slices those of length k): a domain symbol x over image
    symbol b leads from block u to the last s symbols of ux, with weight
    e^{f(window) - fmax} once ux spans f's range r, 1 before; ``edge``
    marks the transitions, whose weights may underflow to 0.  s = max(r -
    1, 1), and 1 when f = 0, whose windows all weigh 1; m is then 0/1 in
    int64 (the row walks promote per step, ``factor._grow``).  ``tails[i]``
    is the sup of f's windows reaching past state i (``birkhoff_sup``),
    for the float readout; None where none does (f = 0 or r = 1).  The
    float walk steps depth n by m[bands[min(n - 1, s)], :, bands[min(n,
    s)]]; ``log_perron``'s W is the s-band block summed over the symbols.

    The counting walks read m whole: with G_b = m[:, b, :], alpha =
    e_start (``start``) and tau = 1, g(y) = alpha G_{y_1} ... G_{y_n} tau
    is a rational series, g(uv) = x_u . y_v for the forward row x_u =
    alpha G_u and the backward row y_v = G_v tau = (A_v 1, g(v)), A_b the
    1-block part of G_b.  Forward walks step by m, backward ones by
    ``back`` (G_b transposed), with no edge: their transitions are exactly
    their positive weights.  ``rank``, computed when first read, is the
    Hankel rank of g."""

    def __init__(self, pi: OneBlockFactor, f: LocallyConstantPotential):
        dom, fmax = pi.domain, f.max_value()
        self.s = 1 if f.is_zero else max(f.range - 1, 1)
        states, self.bands = [], {}
        for k in range(self.s, -1, -1):
            self.bands[k] = slice(len(states), len(states) + len(dom.blocks(k)))
            states += dom.blocks(k)
        index = {u: i for i, u in enumerate(states)}
        m = np.zeros((len(states), len(pi.image_alphabet), len(states)),
                     dtype=np.int64 if f.is_zero else float)
        self.edge = np.zeros(m.shape, dtype=bool)
        for i, u in enumerate(states):
            for x in range(dom.size):
                if not u or dom.follows(u[-1], x):
                    grown = u + (x,)
                    b, j = pi.symbol_map[x], index[grown[-self.s:]]
                    self.edge[i, b, j] = True
                    m[i, b, j] = 1 if f.is_zero or len(grown) < f.range else \
                        math.exp(f.value(grown[-f.range:]) - fmax)
        self.m, self.back = m, m.T
        self.start = np.eye(1, len(states), len(states) - 1, dtype=np.int64)
        self.tails = None if f.is_zero or f.range == 1 else \
            np.array([birkhoff_sup(f, u) if u else 0.0 for u in states])

    @cached_property
    def rank(self) -> int:
        """The rank of the Hankel matrix H[u, v] = g(uv) over image words u,
        v, the dimension of a minimal representation of g (Fliess 1974): the
        rank of F B^T for bases F of the forward rows alpha G_u and B of the
        backward rows G_v tau (Schuetzenberger 1961), each found breadth
        first over the symbols (``span_basis``).  Counting path only."""
        fwd = span_basis(self.start.tolist(), self.m.transpose(1, 0, 2).tolist())
        bwd = span_basis([[1] * len(self.m)], self.m.transpose(1, 2, 0).tolist())
        hankel = [[sum(map(operator.mul, x, y)) for y in bwd] for x in fwd]
        return len(row_reduce(hankel, len(bwd))[0])


def _representation(pi: OneBlockFactor, f: LocallyConstantPotential) -> _Representation:
    """The representation of (pi, f), kept on pi while f lives."""
    if f not in pi._representations:
        pi._representations[f] = _Representation(pi, f)
    return pi._representations[f]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y.T exactly: in int64 while the largest entries' product times
    the row length stays below 2^63, in Python ints past it."""
    if x.dtype != object and array_max(x) * array_max(y) * x.shape[1] > INT64_MAX:
        x = x.astype(object)
    return x @ y.T


def _logs(a: np.ndarray) -> np.ndarray:
    """The log of each entry of an integer array, -inf at 0, to within a
    few ulps (they only propose and filter)."""
    if a.dtype != object:
        with np.errstate(divide="ignore"):
            return np.log(a.astype(float))
    return np.array([log_fraction(v) if v else -np.inf for v in a.ravel().tolist()],
                    dtype=float).reshape(a.shape)


def build_g_table(pi: OneBlockFactor, f: LocallyConstantPotential,
                  depth_max: int, mode: str = "auto") -> SeqTable:
    """Relative-pressure table: log g_n(y) = log sum over the fiber of y of
    the per-cylinder sup of e^{S_n f}.

    The sup over representative choices factorizes per cylinder (each
    representative is chosen independently), so the sup of the fiber sum is
    the sum of per-cylinder sups; that is what the state-vector recursion
    accumulates.  The transfer matrix of (pi, f) (``_Representation``)
    steps the table's fiber rows (``factor._Rows``), which the table keeps
    (``SeqTable.rows``): it reads every value from them, one per distinct
    row, and its level index gathers them to the words when a level is
    first read.  mode "exact" demands the counting path (f = 0), whose rows
    alpha G_u step by the whole matrix (in int64 while a bound allows,
    Python ints past it) as deep as a read reaches.  The float path walks
    V_{n+1} = stack_b(V_n M_b) by the matrix's band blocks through every
    depth here and reads the logs out once per distinct row (bit for bit
    what a row per word gives), so a non-finite log is a TableError then.
    """
    if depth_max < 1:
        raise TableError("depth_max must be >= 1")
    if f.language is not pi.domain:
        raise TableError("potential must live on the factor's domain shift")
    if mode not in ("auto", "exact", "float"):
        raise TableError("mode must be auto, exact or float")
    exact = f.is_zero and mode != "float"
    if mode == "exact" and not f.is_zero:
        raise TableError("exact counting requires f = 0")

    rep = _representation(pi, f)
    if exact:
        rows = _Rows(rep.start, lambda n: (rep.m, None), lambda v: _Level(None, row_sums(v), 1))
        return SeqTable.from_rows(pi, f, rows, depth_max, True)

    r, s, fmax = f.range, rep.s, f.max_value()
    # e^{-fmax} per step keeps the weights at most 1, but an entry can shrink
    # by the smallest weight w per step, and one far below the others can
    # catch up later.  Once the next step could reach below _FLOOR, each
    # domain state (a column of V_n) gets its own power-of-two exponent: the
    # column is scaled in place (the walk steps on from it) to a top in
    # [1/2, 1), the step matrices carry the exponent differences
    # (``_gauged``) and the readout adds the exponents back.  A one-row walk
    # then loses only terms below 2^-1022 of their own entry.  Ordinary
    # potentials never get that low, so their bits do not move.
    w, gauge, n, offset = rep.m[rep.m > 0].min(initial=1), None, 0, 0.0

    def step(n):  # from the states of depth n - 1 to those of depth n
        nonlocal gauge
        a, b = rep.bands[min(n - 1, s)], rep.bands[min(n, s)]
        m, edge = rep.m[a, :, b], rep.edge[a, :, b]
        if gauge is not None:
            m, gauge = _gauged(m, gauge)
        return m, edge

    def readout(v):  # the logs of the distinct rows v at the next depth n
        nonlocal gauge, n, offset
        n += 1
        if n >= r:
            offset += fmax
        if gauge is None and v[v > 0].min(initial=1.0) * w < _FLOOR:
            gauge = np.zeros(v.shape[1], dtype=np.int64)
        shift = None if rep.tails is None else rep.tails[rep.bands[min(n, s)]]
        if gauge is not None:
            top = v.max(axis=0, initial=0.0)
            e = np.frexp(top)[1]
            np.ldexp(v, -e, out=v)
            gauge = np.where(top > 0, gauge + e, _EMPTY)
            shift = (0.0 if shift is None else shift) + gauge * math.log(2)
        logs = _float_readout(v, shift, offset)
        if not np.isfinite(logs).all():
            raise TableError(_NON_FINITE % n)
        return _Level(logs, None, 1)

    rows = _Rows(np.ones((1, 1)), step, readout).to(depth_max)
    return SeqTable.from_rows(pi, f, rows, depth_max, False)


def _gauged(m: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step m[i, b, j] 2^(src_i - dst_j) of a gauged walk and the target
    exponents dst: per target, the largest src_i plus the exponent of the
    largest weight from i, so with column tops in [1/2, 1) coming in, the
    largest term into each state keeps its size."""
    top = m.max(axis=1)
    lead = np.where(top > 0, src[:, None] + np.frexp(top)[1], _EMPTY)
    dst = lead.max(axis=0, initial=_EMPTY)
    return np.ldexp(m, (src[:, None] - dst)[:, None, :]), dst


def _float_readout(v: np.ndarray, tails: np.ndarray | None, offset: float) -> np.ndarray:
    """Per row, logsumexp over the positive weights of log weight (plus the
    state's tail sup), plus ``offset``: the global fmax shift undone.

    Bit for bit numerics.logsumexp: log and exp are libm's (math), the
    differences and the final additions are the same IEEE operations, and
    the fsum of one or two terms is their rounded sum, so math.fsum runs
    only on rows with three or more terms.  A row's top terms give
    exp(0.0) = 1.0 and a one-term row log(1.0) = 0.0, so neither is called
    there."""
    rows, cols = np.nonzero(v > 0)  # row-major: each row's terms together
    x = np.array(list(map(math.log, v[rows, cols].tolist())))
    if tails is not None:
        x = x + np.asarray(tails)[cols]
    count = np.bincount(rows, minlength=len(v))
    starts = np.concatenate(([0], np.cumsum(count)))
    live = count > 0
    top = np.full(len(v), -np.inf)
    if len(x):
        top[live] = np.maximum.reduceat(x, starts[:-1][live])
    d = x - top[rows]
    terms, below = np.ones(len(x)), np.flatnonzero(d != 0.0)
    terms[below] = list(map(math.exp, d[below].tolist()))
    sums = np.bincount(rows, weights=terms, minlength=len(v))
    for i in np.flatnonzero(count > 2).tolist():
        sums[i] = math.fsum(terms[starts[i]:starts[i + 1]].tolist())
    lse, many = np.zeros(len(v)), np.flatnonzero(count > 1)
    lse[many] = list(map(math.log, sums[many].tolist()))
    out = np.full(len(v), -np.inf)
    out[live] = top[live] + lse[live]
    return out + offset


def build_additive_table(f: LocallyConstantPotential, depth_max: int) -> SeqTable:
    """Table of the additive sequence f_n = e^{S_n f} (per-cylinder sups).
    Exact (all values 1) on the f = 0 path."""
    if depth_max < 1:
        raise TableError("depth_max must be >= 1")
    lang = f.language
    exact = f.is_zero
    logs = {n: {w: 0.0 if exact else birkhoff_sup(f, w) for w in lang.blocks(n)}
            for n in range(1, depth_max + 1)}
    exacts = {n: dict.fromkeys(level, Fraction(1)) for n, level in logs.items()}
    return SeqTable(lang.alphabet, logs, exact=exacts if exact else None,
                    kind="additive", language=lang, potential=f)


def partition_table(f: LocallyConstantPotential, depth_max: int,
                    mode: str = "auto") -> SeqTable:
    """The g-table of the total collapse of f's shift (every symbol to one
    image symbol): one row per level, holding the domain's partition sum
    Z_n.  The fibers of any factor partition B_n(X), so its Z_n is that of
    every g-table of f and of f's additive table, for O(depth S^2) work on
    S domain states instead of a row per image word."""
    return build_g_table(_collapse(f.language), f, depth_max, mode)


def _collapse(dom: Sft) -> OneBlockFactor:
    """The total collapse of the shift dom, one per shift (kept on it), so
    each potential's representation on it (``_representation``) is built
    once and steps both Z_n and ``log_perron``'s W."""
    if dom._collapse is None:
        dom._collapse = OneBlockFactor(dom, ["*"] * dom.size)
    return dom._collapse


def partition_sum(t: SeqTable, n: int) -> float:
    """log Z_n = log sum over depth-n words of the stored values."""
    return t._partition(n)[0]


def partition_sum_exact(t: SeqTable, n: int) -> int | Fraction:
    """Z_n exactly: an int when the level's values are integers."""
    if not t.is_exact:
        raise TableError("table has no exact values")
    return t._partition(n)[1]


def log_perron(f: LocallyConstantPotential):
    """(P(f), W, (root, right, left, residual), exact, s) for the transfer
    matrix W = sum_b m[band, b, band] of the representation of (total
    collapse, f) (``_Representation``; one image symbol b, the one Z_n
    walks) on its band of s-block states, s = max(r-1, 1) (1 when f = 0),
    with weights e^{f - fmax} (integers when f = 0): any factor's sum over
    its symbols gives the same W, each transition lying over one symbol.
    P(f) = log root + fmax, ``perron`` on W; ``exact`` is ``perron_exact``'s
    (c, right, left) when f = 0 and the root is an integer c, else None.
    TableError when a weight underflows: W would lose a transition.
    Computed once per potential and kept on it (``f._perron``)."""
    if f._perron is None:
        rep = _representation(_collapse(f.language), f)
        band = rep.bands[rep.s]
        m, edge = rep.m[band, :, band], rep.edge[band, :, band]
        if (m[edge] == 0).any():
            raise TableError("transfer weight e^(f - fmax) underflows to 0 (float path)")
        w = m.sum(axis=1)
        eig = perron(w)
        exact = perron_exact(w, eig[0]) if f.is_zero else None
        f._perron = (math.log(eig[0] if exact is None else exact[0]) + f.max_value(), w, eig,
                     exact, rep.s)
    return f._perron


@dataclass
class PressureEstimate:
    """(1/n) log Z_n per depth, its Fekete infimum, the pressure log rho(W) +
    fmax of the table's potential (None without one) and the exact base of
    a geometric Z_n (None unless exact, at least three depths)."""

    per_n: list[float]
    fekete_upper: float
    extrapolated: float | None
    exact_base: Fraction | None
    depth: int

    def as_dict(self):
        return {
            "per_n": self.per_n,
            "fekete_upper": self.fekete_upper,
            "extrapolated": self.extrapolated,
            "exact_base": str(self.exact_base) if self.exact_base is not None else None,
            "depth": self.depth,
        }


def pressure_estimate(t: SeqTable) -> PressureEstimate:
    """Pressure report: the sequence (1/n) log Z_n, its Fekete infimum (a
    rigorous upper bound for subadditive tables) and the limit itself.

    The fibers partition B_n(X), so Z_n is the domain's partition sum and
    its limit P(f) is ``log_perron`` of the table's potential, bit for bit
    ``gibbs.transfer_pressure``'s;
    tables built from dicts have none.  On the exact counting path a
    geometric Z_1, ..., Z_n (n >= 3) gives the base exactly.
    """
    n_max = t.depth_max
    per_n = [partition_sum(t, n) / n for n in range(1, n_max + 1)]
    exact_base = None
    if t.is_exact and n_max >= 3:
        z = [partition_sum_exact(t, n) for n in range(1, n_max + 1)]
        if all(z[i + 1] * z[i - 1] == z[i] * z[i] for i in range(1, n_max - 1)):
            exact_base = Fraction(z[1], z[0])
    extrapolated = None if t.potential is None else log_perron(t.potential)[0]
    return PressureEstimate(per_n, min(per_n), extrapolated, exact_base, n_max)


@dataclass
class D2Report:
    gap_cap: int
    log_d: dict[tuple[int, int], float]
    bridged: bool
    unbridged: list[tuple[Word, Word]]
    trend_ok: bool
    detail: dict = field(default_factory=dict)

    def as_dict(self, names=None):
        key = names or (lambda w: list(w))
        return {"gap_cap": self.gap_cap,
                "log_d": {"%d,%d" % k: v for k, v in sorted(self.log_d.items())},
                "bridged": self.bridged,
                "unbridged": [[list(key(u)), list(key(v))] for u, v in self.unbridged[:5]],
                "trend_ok": self.trend_ok,
                "detail": self.detail}


def check_D2(t: SeqTable, gap_cap: int) -> D2Report:
    """Bridging-condition search: for each pair (u, v) find the gap word w,
    |w| <= gap_cap, maximizing value(uwv) / (value(u) value(v)); D_{n,m} is
    the minimum over pairs of the best ratio.

    Exact g-tables read their fiber classes (``_FiberClasses.bridges``)
    where those take fewer products than the words, other tables scan the
    words (``_word_bridges``); on exact tables both report log_fraction of
    the exact least ratio, and both list the unbridged pairs as words, by
    (n, m) and then by rank.  ``pairs_checked`` counts the word pairs of
    the bridged cells from the language counts on g-tables.  The normalized
    trend (1/n) log D_{n,m} -> 0 is evaluated at finite depth and labeled
    as evidence only.
    """
    if gap_cap < 0:
        raise TableError("gap cap must be >= 0")
    found = None if t.classes is None else t.classes.bridges(gap_cap)
    if found is None:
        found = _word_bridges(t, gap_cap)
    log_d: dict[tuple[int, int], float] = {}
    unbridged: list[tuple[Word, Word]] = []
    for key in sorted(found):
        worst, missing = found[key]
        unbridged.extend(missing)
        if worst is not None:
            log_d[key] = worst
    bridged = not unbridged
    # evidence for (1/n) log D_{n,m} -> 0 at fixed m (and symmetrically)
    trends = []
    ms = sorted({m for _, m in log_d})
    for m in ms:
        ns = sorted(n for n, mm in log_d if mm == m)
        if len(ns) >= 3:
            trends.append(decays_to_zero(ns, [abs(log_d[(n, m)]) / n for n in ns]))
    trend_ok = all(trends) if trends else True
    # a g-table stores every word of its image language
    counts = t.language.block_counts(t.depth_max) if t.factor is not None else \
        [0] + [len(level) for level in t.levels[1:]]
    detail = {"pairs_checked": sum(counts[n] * counts[m] for n, m in log_d)}
    return D2Report(gap_cap, log_d, bridged, unbridged, trend_ok, detail)


def _word_bridges(t: SeqTable, gap_cap: int) -> dict[tuple[int, int], tuple]:
    """check_D2's (n, m) -> (log D_{n,m} or None, unbridged pairs) by the
    words: each stored word uwv at depth n+m+k scatters its log into the
    cell (rank of u, rank of v); rounding is monotone, so on float tables
    the cell maximum gives the best ratio.  Exact tables also scatter their
    numerators, brought to one denominator over the depths s..s+gap, and
    take log_fraction of the least exact ratio (``_max_ratios`` of the
    inverse ratios, the floats proposing).  Cells never hit are the
    unbridged pairs."""
    levels = t.levels
    found: dict[tuple[int, int], tuple] = {}
    for s in range(2, t.depth_max - gap_cap + 1):
        totals = range(s, s + gap_cap + 1)
        tops = {n: np.full((len(levels[n]), len(levels[s - n])), -np.inf)
                for n in range(1, s)}
        if t.is_exact:
            den = math.lcm(*(levels[k].den for k in totals))
            nums = {k: _times(levels[k].num, den // levels[k].den,
                              levels[k].hi * (den // levels[k].den)) for k in totals}
            wide = any(v.dtype == object for v in nums.values())
            bests = {n: np.zeros(top.shape, object if wide else np.int64)
                     for n, top in tops.items()}
        for total in totals:
            pre, suf = _ranks(levels, total, "parent"), _ranks(levels, total, "tail")
            for n, top in tops.items():
                np.maximum.at(top, (pre[n], suf[s - n]), levels[total].logs)
                if t.is_exact:
                    np.maximum.at(bests[n], (pre[n], suf[s - n]), nums[total])
        for n, top in tops.items():
            a, b = levels[n], levels[s - n]
            hit = top > -np.inf
            ratio = np.where(hit, (top - a.logs[:, None]) - b.logs, np.inf)
            worst = float(ratio.flat[np.argmin(ratio)]) if hit.any() else None
            if t.is_exact and worst is not None:
                # the ratio of cell (u, v) is best * a.den * b.den / (den * a_u * b_v)
                au = _times(a.num, den, a.hi * den)
                inverse = _max_ratios(_times(au[:, None], b.num, a.hi * den * b.hi),
                                      _times(bests[n], a.den * b.den,
                                             array_max(bests[n]) * a.den * b.den),
                                      -ratio, {0: slice(0, len(b))})[0]
                worst = log_fraction(1 / inverse)
            iu, iv = np.nonzero(~hit)
            found[(n, s - n)] = (worst, [(a.words[i], b.words[j])
                                         for i, j in zip(iu.tolist(), iv.tolist())])
    return found


@dataclass
class DefectProfile:
    """Almost-additivity defects log C_{n,m} (exact ratios retained on the
    counting path) plus the growth flag that refutes any continuous fit."""

    log_c: dict[tuple[int, int], float]
    exact_c: dict[tuple[int, int], Fraction] | None
    growth: bool
    witness: dict | None
    slopes: dict[int, TrendStats]
    slope_threshold: float
    d_table: D2Report | None = None

    def as_dict(self, names=None):
        return {
            "log_c": {"%d,%d" % k: v for k, v in sorted(self.log_c.items())},
            "exact_c": None if self.exact_c is None else
            {"%d,%d" % k: str(v) for k, v in sorted(self.exact_c.items())},
            "growth": self.growth,
            "witness": self.witness,
            "slopes": {str(n): {"slope": s.slope, "r_squared": s.r_squared}
                       for n, s in sorted(self.slopes.items())},
            "slope_threshold": self.slope_threshold,
            "d_table": None if self.d_table is None else self.d_table.as_dict(names),
        }


def _max_ratios(num: np.ndarray, den: np.ndarray, key: np.ndarray,
                cols: dict[int, slice]) -> dict[int, Fraction | None]:
    """Per group of columns (``cols``), the exact max of num / den (positive
    integers) over the group's live entries, those whose float ``key`` is
    above -inf; None where none is live.  The key proposes each group's
    candidate wn / wd, and one cross-multiplication over the whole block,
    num * wd <= den * wn, proves them all; the live entries that beat their
    group's candidate are resolved one by one."""
    if not key.size:
        return dict.fromkeys(cols)
    top = key.argmax(axis=0)
    lead = key[top, np.arange(key.shape[1])].tolist()
    best, owner, wn, wd = {}, [], [], []
    for g, col in cols.items():
        j = max(range(col.start, col.stop), key=lead.__getitem__, default=None)
        best[g] = None if j is None or lead[j] == -np.inf else \
            (int(num[top[j], j]), int(den[top[j], j]))
        width, pair = col.stop - col.start, best[g] or (1, 1)  # (1, 1): nothing live
        owner += [g] * width
        wn += [pair[0]] * width
        wd += [pair[1]] * width
    bound = max(array_max(num), array_max(den)) * max(wn + wd)
    dtype = object if bound > INT64_MAX else np.int64
    beaten = (key > -np.inf) & (_times(num, np.array(wd, dtype), bound) >
                                _times(den, np.array(wn, dtype), bound))
    for i, j in np.argwhere(beaten).tolist():
        (bn, bd), nj, dj = best[owner[j]], int(num[i, j]), int(den[i, j])
        if nj * bd > dj * bn:
            best[owner[j]] = (nj, dj)
    return {g: None if pair is None else Fraction(*pair) for g, pair in best.items()}


def _max_spreads(v: np.ndarray, ab: np.ndarray, key: np.ndarray,
                 cols: dict[int, slice]) -> dict[int, Fraction]:
    """Per group of columns, the exact max of max(v, ab) / min(v, ab) over
    the live entries (``_max_ratios``); 1 where none is."""
    got = _max_ratios(np.maximum(v, ab), np.minimum(v, ab), key, cols)
    return {g: Fraction(1) if c is None else c for g, c in got.items()}


def _multiplicative(t: SeqTable) -> bool:
    """Whether t is an exact g-table whose g has Hankel rank 1
    (``_Representation.rank``): with g(empty) = 1 that is g(uv) = g(u) g(v)
    for all words u, v.  Then uv is a word whenever u and v are, so the
    image is the full shift, and the rank is computed only where |B_2| is
    k^2 on k image symbols."""
    k = len(t.alphabet)
    return t.is_exact and t.factor is not None and t.language.block_counts(2)[2] == k * k \
        and _representation(t.factor, t.potential).rank == 1


def _profile_rows(t: SeqTable):
    """The defect profile one row at a time, n = 1..depth-1 in order:
    yields (n, {m: log C_{n,m}}, {m: C_{n,m}} or None on float tables).
    On an exact g-table of Hankel rank 1 (``_multiplicative``) every C_{n,m}
    is 1, so each row is yielded with no scan: no class grows, no fiber row
    is walked and no word is read.  Other exact g-tables read each row from
    their fiber classes (``_FiberClasses.defect_row``) while its class
    pairs are fewer than its splits; from the first row that declines on,
    and on other tables throughout, the rows come from one word scan of the
    splits there."""
    if t.depth_max < 2:
        raise TableError("need depth_max >= 2")
    if _multiplicative(t):
        for n in range(1, t.depth_max):
            ms = range(1, t.depth_max - n + 1)
            yield n, dict.fromkeys(ms, 0.0), dict.fromkeys(ms, Fraction(1))
        return
    n = 1
    while t.classes is not None and n < t.depth_max:
        row = t.classes.defect_row(n)
        if row is None:
            break
        yield n, {m: log_fraction(c) for m, c in row.items()}, row
        n += 1
    rest = range(n, t.depth_max)
    if not rest:
        return
    logs = {k: {} for k in rest}
    exacts = {k: {} for k in rest} if t.is_exact else None
    for total, k, slack, exact in _splits(t, n):
        d = np.abs(slack)
        if exact is None:
            logs[k][total - k] = float(d.max(initial=0.0))
        else:
            worst = _max_spreads(exact[0][:, None], exact[1][:, None], d[:, None],
                                 {0: slice(0, 1)})[0]
            exacts[k][total - k] = worst
            logs[k][total - k] = log_fraction(worst)
    for k in rest:
        yield k, logs[k], None if exacts is None else exacts[k]


def _row_growth(n: int, row: dict[int, float],
                slope_threshold: float) -> tuple[TrendStats, dict | None] | None:
    """(the slope statistics of row n of log C, the growth witness when its
    flag fires, else None); None when the row has fewer than 4 cells."""
    ms = sorted(row)
    if len(ms) < 4:
        return None
    fired, stats = growth_flag(ms, [row[m] for m in ms], slope_threshold)
    return stats, {"n": n, "m": ms[-1], "log_c": row[ms[-1]], "slope": stats.slope,
                   "r_squared": stats.r_squared} if fired else None


def defect_profile(t: SeqTable, slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> DefectProfile:
    """log C_{n,m} = max over words of |log f_{n+m} - log f_n - log f_m o sigma^n|,
    with an exponential-growth flag (least-squares slope in m at fixed n),
    witnessed by the first row whose flag fires.  Every row of
    ``_profile_rows``: exact g-tables read their fiber classes where those
    take fewer products than the splits, other tables every split of
    every word."""
    log_c, exact_c = {}, {} if t.is_exact else None
    witness, slopes = None, {}
    for n, row, exact in _profile_rows(t):
        log_c.update(((n, m), v) for m, v in row.items())
        if exact_c is not None:
            exact_c.update(((n, m), c) for m, c in exact.items())
        trend = _row_growth(n, row, slope_threshold)
        if trend is not None:
            slopes[n], found = trend
            witness = witness or found
    return DefectProfile(log_c, exact_c, witness is not None, witness, slopes, slope_threshold)


def growth_witness(t: SeqTable, slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> dict | None:
    """``defect_profile(t).witness``, reading the profile rows only up to
    the first whose growth flag fires: one row growing linearly in m
    refutes every continuous h.  None when no row fires; the reading stops
    at the first row of fewer than 4 cells, past which no flag can fire.
    On an exact g-table of Hankel rank 1 every C_{n,m} is 1, known without
    a scan (``_profile_rows``), and the flags read those same rows."""
    for n, row, _ in _profile_rows(t):
        trend = _row_growth(n, row, slope_threshold)
        if trend is None:
            return None
        if trend[1] is not None:
            return trend[1]
    return None
