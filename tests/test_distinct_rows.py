"""Float g-tables step and read out each distinct fiber row once.

``factor._Rows`` keeps one row per distinct (row, reach) pair and steps
each word to its row (``next``).  The reference below is the per-word
walk it replaced, a row per image word, behind the same interface:
``build_g_table`` on either walk must give the same levels byte for byte
(logs, parent, tail, sym), and the same TableError when one is raised;
the per-word walk's own word index must equal the levels it gives.
Inputs are random SFTs on <= 4 symbols with random one-block maps
(strictly sofic images among them), float potentials of range 1..3, some
spread widely enough that the walk gauges its states, plus the
phase-blocked factor, a chain that gauges at depth 12 and a walk whose
rows differ only in what they reach.
"""

from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, OneBlockFactor, build_g_table, seqtable
from thermoshift.factor import _Rows
from thermoshift.jsonio import load_factor, read_json
from thermoshift.numerics import INT64_MAX, array_max
from thermoshift.seqtable import TableError
from thermoshift.shiftcore import Sft

DEPTH = 6
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def per_word_walk(v, steps):
    """The fiber walk with a row per image word: V_n = stack_b(V_{n-1} M_b),
    yielding (V_n, the cells word * |symbols| + symbol one depth up that
    stay words, their number, parent, sym, tail) for n = 1, 2, ..."""
    live = np.ones(v.shape, dtype=bool)
    tail = child = np.zeros(1, dtype=np.int32)
    n = 0
    while True:
        n += 1
        m, edge = steps(n)
        if v.dtype == np.int64 and (m.dtype == object or
                                    array_max(v) * array_max(m.sum(axis=0)) > INT64_MAX):
            v = v.astype(object)
        m = m.astype(v.dtype)
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
        tail = np.zeros(len(kept), np.int32) if n == 1 else child[tail[parent] * n_img + sym]
        child = np.full(rows * n_img, -1, dtype=np.int32)
        child[kept] = np.arange(len(kept), dtype=np.int32)
        yield v, kept, rows * n_img, parent, sym, tail


class PerWordRows:
    """``per_word_walk`` behind the interface of ``factor._Rows``: the row
    of word i grown by b is that word's child, next[n][i, b] (-1 where
    none), g[n] the value of each word's row and ``index[n]`` the walk's
    own (parent, sym, tail)."""

    def __init__(self, root, steps, value):
        self._walk, self._value = per_word_walk(root, steps), value
        self.g, self.next, self.index = [None], [], [None]

    def to(self, n):
        while len(self.g) <= n:
            v, kept, cells, *index = next(self._walk)
            nxt = np.full(cells, -1, np.intp)
            nxt[kept] = np.arange(len(kept))
            self.next.append(nxt.reshape(len(self.index[-1][0]) if self.next else 1, -1))
            self.index.append(index)
            self.g.append(self._value(v))
        return self


def build(pi, f, depth, walk, counts=None):
    """build_g_table in float mode on ``walk``: its levels 1..depth, or the
    TableError it raised.  ``counts`` collects (rows, words) per level, and
    a per-word walk's levels must be its own word index."""
    real = seqtable._Rows
    seqtable._Rows = walk
    try:
        t = build_g_table(pi, f, depth, mode="float")
    except TableError as e:
        return str(e)
    finally:
        seqtable._Rows = real
    levels = t.levels[1:]
    if counts is not None:
        counts.extend((len(t.rows.g[n]), len(t.levels[n])) for n in range(1, depth + 1))
    if walk is PerWordRows:
        for level, index in zip(levels, t.rows.index[1:]):
            got = (level.parent, level.sym, level.tail)
            assert all(np.array_equal(x, y) for x, y in zip(got, index))
    return levels


def _chain():
    """0 -> 1 -> 2 -> 3 with self-loops of weight e^-300: the walk gauges."""
    sft = Sft(["0", "1", "2", "3"], [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)])
    f = LocallyConstantPotential(sft, 2, {w: -300.0 if w[0] == w[1] else 0.0
                                          for w in sft.blocks(2)})
    return OneBlockFactor(sft, ["a", "a", "b", "b"]), f, 12


def _underflow():
    """0 -> 1 has weight e^-800 = 0: two words share the bits of a row, and
    only one of them reaches 1 (where a word of weight 0 follows)."""
    sft = Sft(["0", "1", "2", "3"], [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    f = LocallyConstantPotential(sft, 2, {w: -800.0 if w == (0, 1) else 0.0
                                          for w in sft.blocks(2)})
    return OneBlockFactor(sft, ["a", "a", "a", "b"]), f, 5


def _phase_blocked():
    pi = load_factor(read_json(str(FIXTURES / "factor_phase_blocked.json")))
    values = {w: ((7 * sum(w) + len(w)) % 5) / 2.0 - 1.0 for w in pi.domain.blocks(2)}
    return pi, LocallyConstantPotential(pi.domain, 2, values), 10


@st.composite
def triples(draw):
    """(factor, float potential of range 1..3, depth)."""
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    # a permutation of edges gives every symbol a follower and a predecessor
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    targets = draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n))
    r = draw(st.integers(1, 3))
    # windows down to -700 spread V_n past one float scale: the walk gauges;
    # at -800 a weight underflows to 0 on a domain edge (a TableError, or a
    # row that reaches a state with weight 0)
    values = draw(st.sampled_from([st.floats(-3, 3), st.floats(-700, 0),
                                   st.sampled_from([0.0, -1.0, -2.0]),
                                   st.sampled_from([0.0, -800.0])]))
    f = LocallyConstantPotential(sft, r, {w: draw(values) for w in sft.blocks(r)})
    return OneBlockFactor(sft, targets), f, DEPTH


@settings(max_examples=150, deadline=None)
@given(triples())
@example(_chain())
@example(_underflow())
@example(_phase_blocked())
def test_distinct_rows_build_equals_the_per_word_walk(case):
    pi, f, depth = case
    counts = []
    got, want = build(pi, f, depth, _Rows, counts), build(pi, f, depth, PerWordRows)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want) == depth
    assert all(rows <= words for rows, words in counts), counts
    for a, b in zip(got, want):
        for name in ("logs", "parent", "tail", "sym"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_examples_gauge_and_share_rows():
    """The fixed examples reach what they are there for: the chain's walk
    gauges its states, and the phase-blocked walk (a strictly sofic image)
    shares rows between words."""
    pi, f, depth = _chain()
    seen = []
    real = seqtable._gauged
    seqtable._gauged = lambda m, src: seen.append(1) or real(m, src)
    try:
        build_g_table(pi, f, depth, mode="float")
    finally:
        seqtable._gauged = real
    assert seen
    pi, f, depth = _phase_blocked()
    counts = []
    build(pi, f, depth, _Rows, counts)
    assert counts[-1][0] < counts[-1][1]
