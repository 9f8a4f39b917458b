import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermoshift.shiftcore import (PeriodicPoint, Sft, SftError, bridge,
                                   is_irreducible, periodic_points,
                                   weak_spec_number)


def count_periodic(sft, q):
    """Oracle: the number of points with sigma^q x = x, the trace of the
    q-th power of the transition matrix."""
    return int(np.trace(np.linalg.matrix_power(np.array(sft.transitions, dtype=np.int64), q)))


def brute_blocks(sft, n):
    """Independent oracle: filter the full product by adjacency."""
    if n == 0:
        return [()]
    out = []
    for w in itertools.product(range(sft.size), repeat=n):
        if all(sft.transitions[a][b] for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def random_sft(rng, max_size=4):
    while True:
        k = rng.randint(2, max_size)
        rows = [[1 if rng.random() < 0.6 else 0 for _ in range(k)] for _ in range(k)]
        try:
            return Sft([chr(ord("a") + i) for i in range(k)], rows)
        except SftError:
            continue


def test_full_shift_block_counts(full2):
    assert len(full2.blocks(3)) == 8
    assert [full2.names(w) for w in full2.blocks(1)] == [("a",), ("b",)]


def test_goldenmean_blocks_match_bruteforce(goldenmean):
    for n in range(0, 7):
        assert goldenmean.blocks(n) == brute_blocks(goldenmean, n)
    assert len(goldenmean.blocks(3)) == 5


def test_depth_zero_is_empty_word(full2, goldenmean):
    assert full2.blocks(0) == [()]
    assert goldenmean.blocks(0) == [()]


def test_blocks_are_lexicographic(goldenmean):
    for n in (2, 5):
        ws = goldenmean.blocks(n)
        assert ws == sorted(ws)


def test_block_count_matches_matrix_power(goldenmean, full3):
    for sft in (goldenmean, full3):
        for n in range(1, 9):
            assert sft.count_blocks(n) == len(sft.blocks(n))
    # arbitrary-precision path: no float overflow at large depth
    assert Sft.full_shift(list("abcd")).count_blocks(200) == 4 ** 200


def test_random_sfts_count_vs_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        sft = random_sft(rng)
        for n in range(1, 6):
            assert sft.blocks(n) == brute_blocks(sft, n)
            assert sft.count_blocks(n) == len(sft.blocks(n))


def test_stranded_symbol_rejected():
    with pytest.raises(SftError):
        Sft(["a", "b"], [[1, 0], [1, 0]])  # b has no incoming... outgoing ok
    with pytest.raises(SftError):
        Sft(["a", "b"], [[1, 1], [0, 0]])  # b has no outgoing


def test_irreducibility(full2, goldenmean):
    assert is_irreducible(full2)
    assert is_irreducible(goldenmean)
    disjoint = Sft(["a", "b"], [[1, 0], [0, 1]])
    assert not is_irreducible(disjoint)


def test_weak_spec_numbers(full2, goldenmean):
    assert weak_spec_number(full2) == 0
    assert weak_spec_number(goldenmean) == 1
    disjoint = Sft(["a", "b"], [[1, 0], [0, 1]])
    assert weak_spec_number(disjoint) is None


def _weak_spec_by_matrix_powers(rows) -> int | None:
    """Independent oracle: the least p such that every pair (a, b) is
    joined by a path of at most p + 1 edges, from the boolean powers A^k;
    None when some pair is never joined (no path of at most n edges)."""
    a = np.array(rows, dtype=bool)
    power, joined = a.copy(), a.copy()  # A^k, and A or ... or A^k
    for k in range(1, len(rows) + 1):
        if joined.all():
            return k - 1
        power = (power.astype(np.int64) @ a.astype(np.int64)) > 0
        joined |= power
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k)))
@example([[1, 0], [0, 1]])
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
@example([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]])
def test_weak_spec_present_iff_irreducible(rows):
    """weak_spec_number against boolean matrix powers on random SFTs of
    1-5 symbols, reducible ones included: the value where every pair is
    joined, None (and not irreducible) where some pair is not."""
    try:
        sft = Sft([chr(ord("a") + i) for i in range(len(rows))], rows)
    except SftError:
        assume(False)
    want = _weak_spec_by_matrix_powers(rows)
    assert weak_spec_number(sft) == want
    assert is_irreducible(sft) == (want is not None)


def test_block_counts_walk_every_depth_once():
    """block_counts gives |B_0|..|B_n| from one walk, grown on demand, and
    count_blocks reads it."""
    rng = random.Random(5)
    for _ in range(10):
        sft = random_sft(rng)
        counts = sft.block_counts(6)
        assert counts == [len(brute_blocks(sft, n)) for n in range(7)]
        assert sft.block_counts(3) == counts[:4]
        assert [sft.count_blocks(n) for n in range(9)] == sft.block_counts(8)
    with pytest.raises(SftError):
        sft.block_counts(-1)


def _strongly_connected(rows) -> bool:
    """Independent oracle: every symbol reaches every symbol (itself too)
    by a path of >= 1 edge, from the boolean transitive closure (Warshall)."""
    n = len(rows)
    reach = [[bool(v) for v in row] for row in rows]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return all(all(row) for row in reach)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k)))
@example([[1, 0], [0, 1]])
@example([[1, 1], [0, 1]])
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
def test_irreducible_iff_strongly_connected(rows):
    """is_irreducible and weak_spec_number against the transitive closure,
    on random SFTs of <= 5 symbols, reducible ones included."""
    try:
        sft = Sft([chr(ord("a") + i) for i in range(len(rows))], rows)
    except SftError:
        assume(False)
    assert is_irreducible(sft) == _strongly_connected(rows)
    assert (weak_spec_number(sft) is None) == (not _strongly_connected(rows))


def test_weak_spec_matches_bruteforce_bridges(goldenmean):
    # oracle: smallest p such that all length-2 pairs bridge within p
    p = weak_spec_number(goldenmean)
    for u in goldenmean.blocks(2):
        for v in goldenmean.blocks(2):
            assert bridge(goldenmean, u, v, p) is not None
    # p is minimal: some pair needs the full gap
    needs_full = any(
        bridge(goldenmean, u, v, p - 1) is None
        for u in goldenmean.blocks(2) for v in goldenmean.blocks(2))
    assert needs_full


def test_bridge_full_shift(full2):
    u = full2.word_from_names(["a", "b"])
    v = full2.word_from_names(["b", "a"])
    assert bridge(full2, u, v, 0) == ()


def test_bridge_goldenmean(goldenmean):
    b = goldenmean.index("b")
    a = goldenmean.index("a")
    w = bridge(goldenmean, (a, b), (b, a), 1)
    assert w == (a,)
    assert bridge(goldenmean, (a, b), (b, a), 0) is None


def test_bridge_respects_adjacency(goldenmean):
    rng = random.Random(3)
    words = goldenmean.blocks(4)
    for _ in range(50):
        u = rng.choice(words)
        v = rng.choice(words)
        w = bridge(goldenmean, u, v, 2)
        assert w is not None
        assert goldenmean.is_word(u + w + v)


def test_bridge_across_components_absent():
    disjoint = Sft(["a", "b"], [[1, 0], [0, 1]])
    assert bridge(disjoint, (0,), (1,), 3) is None


def test_periodic_points_full2(full2):
    pts = periodic_points(full2, 1)
    assert len(pts) == 2
    assert all(p.period == 1 for p in pts)


def test_periodic_points_goldenmean(goldenmean):
    p1 = periodic_points(goldenmean, 1)
    assert [p.block for p in p1] == [(0,)]
    p2 = periodic_points(goldenmean, 2)
    assert [p.block for p in p2] == [(0,), (0, 1)]
    assert count_periodic(goldenmean, 2) == 3


def test_periodic_counts_match_traces(goldenmean, full3):
    for sft in (goldenmean, full3):
        pts = periodic_points(sft, 6)
        for q in range(1, 7):
            with_mult = sum(p.period for p in pts if q % p.period == 0)
            assert with_mult == count_periodic(sft, q)


def test_periodic_blocks_are_canonical(goldenmean):
    for p in periodic_points(goldenmean, 5):
        rots = [p.block[i:] + p.block[:i] for i in range(p.period)]
        assert p.block == min(rots)
        assert goldenmean.is_periodic_block(p.block)


def test_periodic_point_word_expansion():
    p = PeriodicPoint(block=(0, 1), period=2)
    assert p.word(5) == (0, 1, 0, 1, 0)
    with pytest.raises(SftError):
        PeriodicPoint(block=(0, 1), period=3)
