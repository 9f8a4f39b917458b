"""build_g_table against brute-force fiber enumeration, and the level index
it emits against the one the dict constructor derives.

The oracle reads only ``fiber_words`` and ``birkhoff_sup``: g_n(y) is the
number of domain words over y on the counting path (f = 0), and otherwise
the sum over them of e^{sup S_n f}.  Inputs are random SFTs on <= 4 symbols
(reducible ones too), random one-block maps, r in {1, 2, 3} and potential
values in [-20, 20].
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor, SeqTable,
                         build_g_table, partition_sum, partition_sum_exact,
                         pressure_estimate)
from thermoshift.factor import fiber_words
from thermoshift.numerics import log_fraction, logsumexp
from thermoshift.potential import birkhoff_sup
from thermoshift.seqtable import TableError
from thermoshift.shiftcore import Sft

DEPTH = 6


@st.composite
def triples(draw):
    """(factor, potential, mode) with the potential on the factor's domain."""
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    # a permutation of edges gives every symbol a follower and a predecessor
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    targets = draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n))
    pi = OneBlockFactor(sft, targets)
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = {w: 0.0 for w in sft.blocks(r)}
        mode = draw(st.sampled_from(("auto", "exact", "float")))
    else:
        values = {w: draw(st.floats(-20, 20)) for w in sft.blocks(r)}
        mode = "auto"
    return pi, LocallyConstantPotential(sft, r, values), mode


def oracle(pi, f, depth, exact):
    """{n: {y: g_n(y)}} over the image words with a nonempty fiber, as ints
    (exact) or logs, lexicographic."""
    out = {}
    for n in range(1, depth + 1):
        level = {}
        for y in pi.image.blocks(n):
            fiber = fiber_words(pi, y)
            assert fiber
            level[y] = len(fiber) if exact else logsumexp(birkhoff_sup(f, u) for u in fiber)
        out[n] = level
    return out


@settings(max_examples=120, deadline=None)
@given(triples())
def test_g_table_matches_fiber_enumeration(case):
    pi, f, mode = case
    t = build_g_table(pi, f, DEPTH, mode=mode)
    exact = f.is_zero and mode != "float"
    assert t.is_exact == exact
    want = oracle(pi, f, DEPTH, exact)
    for n, level in want.items():
        assert list(t.logs[n]) == list(level)  # lexicographic, same words
        if exact:
            assert t.exact[n] == {y: Fraction(v) for y, v in level.items()}
            assert partition_sum_exact(t, n) == sum(level.values())
            continue
        for y, v in level.items():
            assert math.isclose(t.logs[n][y], v, rel_tol=1e-12, abs_tol=1e-12), (n, y)
        assert math.isclose(partition_sum(t, n), logsumexp(level.values()),
                            rel_tol=1e-12, abs_tol=1e-12)
        # read from the rows, Z_n has the bits of logsumexp over the words
        assert partition_sum(t, n) == logsumexp(t.levels[n].logs.tolist())
    assert_levels_match_dict_constructor(t)


def assert_levels_match_dict_constructor(t):
    """The levels of ``t`` equal those SeqTable(alphabet, logs, exact)
    derives from its own dict views: words, ranks, values and dtypes."""
    ref = SeqTable(t.alphabet, t.logs, t.exact)
    assert len(t.levels) == len(ref.levels) == t.depth_max + 1
    for got, want in zip(t.levels[1:], ref.levels[1:]):
        assert got.words == want.words
        assert got.logs.dtype == want.logs.dtype and np.array_equal(got.logs, want.logs)
        for name in ("parent", "tail"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.hi == want.hi
        if want.num is None:
            assert got.num is None
        else:
            assert got.num.dtype == want.num.dtype
            assert got.num.tolist() == want.num.tolist()


def test_levels_match_dict_constructor_past_int64():
    """g_n = 5^n on the full 5-shift collapsed to one symbol: the stored
    values leave int64 at depth 28 in both derivations."""
    full5 = Sft.full_shift(["1", "2", "3", "4", "5"])
    pi = OneBlockFactor(full5, {s: "a" for s in "12345"})
    t = build_g_table(pi, LocallyConstantPotential.zero(full5), 29)
    assert_levels_match_dict_constructor(t)
    assert partition_sum_exact(t, 29) == 5 ** 29


def test_levels_match_dict_constructor_on_fixtures(collapse, phase_blocked, amalgamation):
    for pi in (collapse, phase_blocked, amalgamation):
        zero = LocallyConstantPotential.zero(pi.domain)
        assert_levels_match_dict_constructor(build_g_table(pi, zero, 9))
        assert_levels_match_dict_constructor(build_g_table(pi, zero, 7, mode="float"))


def test_partition_sum_exact_past_int64():
    """Each value fits int64, their sum does not: a wrapping int64 sum
    would come out negative.  Integral Fractions are taken as the ints."""
    big = 2 ** 62 + 1
    values = {1: {(0,): Fraction(big), (1,): big},
              2: {(0, 0): big - 2, (0, 1): big, (1, 0): 2 ** 63 - 1}}
    t = SeqTable(("s", "t"), {n: {w: math.log(v) for w, v in level.items()}
                               for n, level in values.items()}, exact=values)
    assert t.levels[1].num.dtype == t.levels[2].num.dtype == "int64"
    assert partition_sum_exact(t, 1) == 2 * big
    assert partition_sum_exact(t, 2) == 2 * big - 2 + 2 ** 63 - 1
    assert partition_sum(t, 1) == math.log(2 * big)


def test_partition_sums_count_words_past_int64(collapse):
    """Collapse at depth 64 has 2^n image words on 2n fiber rows: the words
    reaching the rows pass 2^63 at depth 63, and Z_n = 3^n still, exact
    and float, with no word level built."""
    zero = LocallyConstantPotential.zero(collapse.domain)
    t, tf = build_g_table(collapse, zero, 64), build_g_table(collapse, zero, 64, mode="float")
    assert [partition_sum_exact(t, n) for n in (62, 63, 64)] == [3 ** 62, 3 ** 63, 3 ** 64]
    assert partition_sum(t, 64) == log_fraction(3 ** 64)
    assert math.isclose(partition_sum(tf, 64), 64 * math.log(3), rel_tol=1e-14)
    assert t.levels.built == tf.levels.built == 0


def test_pressure_estimate_on_counting_table(collapse):
    """Z_n = 3^n on the collapse factor: the exact base is 3 and every
    partition sum is the integer itself."""
    t = build_g_table(collapse, LocallyConstantPotential.zero(collapse.domain), 12)
    est = pressure_estimate(t)
    assert est.exact_base == 3
    assert [partition_sum_exact(t, n) for n in range(1, 13)] == [3 ** n for n in range(1, 13)]
    assert est.per_n == [math.log(3 ** n) / n for n in range(1, 13)]


@settings(max_examples=40, deadline=None)
@given(triples())
def test_lookups_match_dict_views(case):
    """entry / log_value / exact_value walk the rows; they must
    agree with the dict views on every word over the alphabet (and one
    symbol past it), and refuse words of the wrong length or depth."""
    pi, f, mode = case
    t = build_g_table(pi, f, 4, mode=mode)
    k = len(t.alphabet)
    for n in range(1, t.depth_max + 1):
        for w in itertools.product(range(k + 1), repeat=n):
            stored = w in t.logs[n]
            assert t.entry(n, w) == ((t.logs[n][w], t.exact[n][w] if t.is_exact else None)
                                     if stored else None)
            if stored:
                assert t.log_value(n, w) == t.logs[n][w]
                if t.is_exact:
                    assert t.exact_value(n, w) == t.exact[n][w]
            else:
                with pytest.raises(TableError):
                    t.log_value(n, w)
    first = next(iter(t.logs[1]))
    for n, w in ((0, ()), (-1, first), (2, first), (t.depth_max + 1, first * (t.depth_max + 1))):
        assert t.entry(n, w) is None
        with pytest.raises(TableError):
            t.log_value(n, w)
        if t.is_exact:
            with pytest.raises(TableError):
                t.exact_value(n, w)
    with pytest.raises(TypeError):
        t.logs[1][first] = 0.0  # the views are read-only


def test_float_readout_is_logsumexp_bit_for_bit():
    """The vectorised readout equals numerics.logsumexp row by row, bit for
    bit, on rows with zero, one, two and more positive weights, with and
    without tails, including weights near the float range's ends."""
    from thermoshift.seqtable import _float_readout

    rng = np.random.default_rng(1)
    for trial in range(200):
        rows, cols = rng.integers(1, 40), rng.integers(1, 7)
        v = rng.random((rows, cols)) * 10.0 ** rng.integers(-300, 5, (rows, cols))
        v[rng.random((rows, cols)) < 0.4] = 0.0
        tails = list(rng.normal(size=cols) * 30) if trial % 2 else [0.0] * cols
        offset = float(rng.normal() * 100)
        got = _float_readout(v, tails if trial % 2 else None, offset)
        for row, value in zip(v.tolist(), got.tolist()):
            want = logsumexp([math.log(x) + t for x, t in zip(row, tails) if x > 0]) + offset
            assert value == want


def test_float_readout_on_gauged_rows_with_ties():
    """Gauged weights (column tops in [1/2, 1), per-state power-of-two
    scales) drawn from a few values, so rows tie at their top term, with
    all-zero rows and rows of three or more terms: the readout equals
    numerics.logsumexp row by row, bit for bit."""
    from thermoshift.seqtable import _float_readout

    rng = np.random.default_rng(7)
    seen = {"tie": 0, "empty": 0, "many": 0}
    for trial in range(300):
        rows, cols = rng.integers(1, 30), rng.integers(1, 9)
        v = rng.choice([0.0, 0.5, 0.625, 0.75, 0.9375], size=(rows, cols))
        v[rng.random(rows) < 0.2] = 0.0
        v = np.ldexp(v, rng.choice([0, -1, -40], size=cols))
        tails = rng.choice([0.0, -1.5, 2.25], size=cols).tolist() if trial % 2 else None
        offset = float(rng.choice([0.0, 3.5, -17.25]))
        got = _float_readout(v, tails, offset)
        for row, value in zip(v.tolist(), got.tolist()):
            x = [math.log(w) + (tails[j] if tails else 0.0) for j, w in enumerate(row) if w > 0]
            assert value.hex() == (logsumexp(x) + offset).hex()
            seen["tie"] += len(x) > 1 and x.count(max(x)) > 1
            seen["empty"] += not x
            seen["many"] += len(x) > 2
    assert all(seen.values()), seen
