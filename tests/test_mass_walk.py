"""The mass walk behind pushforward_cylinder and pushforward_sandwich (the
fiber rows, ``factor._Rows``, fed the measure's steps, and their word
index), against brute-force fiber enumeration and against the per-state
dict walk it replaced, kept here as the reference oracle."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, MarkovMeasure, OneBlockFactor, build_g_table
from thermoshift import factor
from thermoshift.cli import HARD_DEPTH_CAP
from thermoshift.factor import (_measure_steps, _Rows, _word_levels, fiber_words,
                                pushforward_cylinder)
from thermoshift.markov import _solve_stationary, _state_transitions
from thermoshift.numerics import row_sums
from thermoshift.shiftcore import Sft


def ref_masses(mu, pi, levels):
    """Yield {y: mass of [y] under pi(mu)} for each list of image words in
    ``levels`` (words of length 1, 2, ...): past the order k, each word's
    per-state masses are its parent's advanced by one symbol, in Fractions
    on exact measures."""
    k = mu.order
    prev = {}
    for n, words in enumerate(levels, start=1):
        cur, masses = {}, {}
        for y in words:
            if n <= k:
                fiber = [mu.cylinder_mass(u) for u in fiber_words(pi, y)]
                masses[y] = sum(fiber, Fraction(0)) if mu.exact else math.fsum(fiber)
                if n == k:
                    cur[y] = ref_states(mu, pi, y)
                continue
            parent = prev.get(y[:-1])
            cur[y] = (ref_advance(mu, pi, parent, y[-1]) if parent is not None
                      else ref_states(mu, pi, y))
            masses[y] = sum(cur[y].values(), Fraction(0) if mu.exact else 0.0)
        prev = cur
        yield masses


def ref_states(mu, pi, y):
    """{k-block state s: mass of the words in the fiber of y ending in s}."""
    k = mu.order
    states = {s: m for s, m in zip(mu.states, mu.stationary) if pi.apply(s) == y[:k] and m}
    for b in y[k:]:
        if not states:
            break
        states = ref_advance(mu, pi, states, b)
    return states


def ref_advance(mu, pi, states, b):
    """Per-state masses after appending the image symbol b."""
    zero = Fraction(0) if mu.exact else 0.0
    nxt = {}
    for s, m in states.items():
        i = mu._index[s]
        for x in pi.preimage_symbols(b):
            if not pi.domain.follows(s[-1], x):
                continue
            t = s[1:] + (x,)
            j = mu._index.get(t)
            if j is not None and mu.matrix[i][j]:
                nxt[t] = nxt.get(t, zero) + m * mu.matrix[i][j]
    return nxt


def walk_masses(mu, pi, depth):
    """[{y: mass}] per depth from the mass walk, words spelled from the
    ranks; exact masses as Fractions M / den(n).  The walk keeps no more
    rows than words."""
    start, steps, den = _measure_steps(mu, pi)
    walk = _Rows(start, steps, row_sums)
    out, words = [], [()]
    for n, (ids, parent, sym, _) in zip(range(1, depth + 1), _word_levels(walk)):
        words = [words[p] + (b,) for p, b in zip(parent.tolist(), sym.tolist())]
        mass = walk.g[n][ids].tolist()
        assert len(walk.g[n]) <= len(ids)
        out.append({y: Fraction(m, den(n)) if mu.exact else m for y, m in zip(words, mass)})
    return out


def _bottom_class(moves, start):
    """A closed communicating class of the state graph reachable from
    ``start`` (moves: per state the target states of positive weight)."""
    reach = []
    for i in range(len(moves)):
        seen, todo = {i}, [i]
        while todo:
            for j in moves[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    return next(sorted(reach[i]) for i in sorted(reach[start])
                if all(i in reach[j] for j in reach[i]))


@st.composite
def triples(draw):
    """(mu, pi, depth): an essential SFT on <= 4 symbols, reducible too (a
    permutation keeps every symbol entered and left, extra edges are
    random), a one-block map onto <= 3 symbols, and a Markov measure of
    order 1-3 with zero transitions, exact or float, stationary on one
    closed class of its states."""
    size = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(size)))
    trans = [[int(perm[i] == j or draw(st.booleans())) for j in range(size)] for i in range(size)]
    sft = Sft("abcd"[:size], trans)
    pi = OneBlockFactor(sft, ["xyz"[draw(st.integers(0, 2))] for _ in range(size)])
    k = draw(st.integers(1, 3))
    states = sft.blocks(k)
    _, moves = _state_transitions(sft, states)
    matrix = []
    for row in moves:
        ws = [draw(st.integers(0, 3)) for _ in row]
        ws = ws if any(ws) else [1] + ws[1:]
        line = [Fraction(0)] * len(states)
        for (j, _), w in zip(row, ws):
            line[j] = Fraction(w, sum(ws))
        matrix.append(line)
    positive = [[j for j, p in enumerate(line) if p] for line in matrix]
    closed = _bottom_class(positive, draw(st.integers(0, len(states) - 1)))
    sub = _solve_stationary([[matrix[i][j] for j in closed] for i in closed], True)
    stationary = [Fraction(0)] * len(states)
    for i, p in zip(closed, sub):
        stationary[i] = p
    if not draw(st.booleans()):
        matrix = [[float(p) for p in line] for line in matrix]
        stationary = [float(p) for p in stationary]
    mu = MarkovMeasure.from_transition(sft, matrix, order=k, stationary=stationary)
    return mu, pi, draw(st.integers(1, 6))


def _close(got, want, rel):
    return got == want if isinstance(want, Fraction) else math.isclose(got, want, rel_tol=rel,
                                                                       abs_tol=0.0)


@settings(max_examples=120, deadline=None)
@given(case=triples())
def test_mass_walk_matches_fibers_and_the_dict_walk(case):
    mu, pi, depth = case
    walked = walk_masses(mu, pi, depth)
    # one mass per stored table word, at its rank
    gt = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), depth)
    assert [list(level) for level in walked] == [gt.levels[n].words for n in range(1, depth + 1)]
    for level, ref in zip(walked, ref_masses(mu, pi, [list(lv) for lv in walked])):
        for y, got in level.items():
            assert type(got) is (Fraction if mu.exact else float)
            brute = [mu.cylinder_mass(x) for x in fiber_words(pi, y)]
            brute = sum(brute, Fraction(0)) if mu.exact else math.fsum(brute)
            assert _close(got, brute, 1e-12), (y, got, brute)
            assert _close(got, ref[y], 1e-15), (y, got, ref[y])
            one = pushforward_cylinder(mu, pi, y)
            assert type(one) is type(got) and _close(one, got, 1e-15)


def test_mass_walk_at_the_depth_cap(collapse, full3):
    # masses 2^k / 3^64 pass 2^63: the walk widens to Python ints
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    a, b = collapse.image.index("a"), collapse.image.index("b")
    for k in (HARD_DEPTH_CAP, 63, 40, 1, 0):
        y = (a,) * k + (b,) * (HARD_DEPTH_CAP - k)
        want = Fraction(2, 3) ** k * Fraction(1, 3) ** (HARD_DEPTH_CAP - k)
        assert pushforward_cylinder(mu, collapse, y) == want
    assert pushforward_cylinder(mu, collapse, ()) == 1


def test_zero_mass_words_keep_their_rows(full2):
    # [bb] has zero mass but a nonempty fiber: the row stays, with mass 0
    pi = OneBlockFactor.identity(full2)
    mu = MarkovMeasure.from_transition(
        full2, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(0)]])
    masses = walk_masses(mu, pi, 3)
    assert list(masses[0]) == [(0,), (1,)]
    assert len(masses[1]) == 4 and masses[1][(1, 1)] == 0 and masses[2][(1, 1, 0)] == 0
    assert sum(masses[2].values()) == 1


def test_pushforward_cylinder_builds_the_steps_once(monkeypatch):
    """A loop over the 256 image words of length 8 on one measure builds
    the mass walk's steps once, gives the fiber sums, and keeps neither the
    measure nor the factor alive.  Under a Bernoulli measure the mass of
    [y] is p(a)^#a p(b)^#b, with p(a) = 1/10 + 2/10 and p(b) = 3/10 + 4/10."""
    full4 = Sft.full_shift(["1", "2", "3", "4"])
    pi = OneBlockFactor(full4, ["a", "a", "b", "b"])
    mu = MarkovMeasure.bernoulli(full4, [Fraction(k, 10) for k in (1, 2, 3, 4)])
    built = []

    def counted(*args):
        built.append(args)
        return _measure_steps(*args)

    monkeypatch.setattr(factor, "_measure_steps", counted)
    for y in itertools.product(range(2), repeat=8):
        want = Fraction(3, 10) ** y.count(0) * Fraction(7, 10) ** y.count(1)
        assert pushforward_cylinder(mu, pi, y) == want
    assert len(built) == 1
    refs = weakref.ref(mu), weakref.ref(pi)
    del mu, pi, built
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
