"""The shared language automaton (shiftcore.Language) against brute force.

The oracles read the domain transition matrix and fiber_words only: a word
is in the image language iff its fiber is nonempty, and the image blocks
are the images of the domain blocks.  Inputs are random SFTs on <= 4
symbols (reducible ones too), random one-block factors of them (some
strictly sofic), the even shift and a factor whose runs of one symbol die
out after three steps.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift.factor import OneBlockFactor, fiber_words
from thermoshift.shiftcore import Sft, bridge, periodic_points

MAX_LEN = 5      # block, membership and extension checks
MAX_CYCLE = 8    # longest domain cycle the periodic oracle enumerates
MAX_PERIOD = 4


def even_shift() -> OneBlockFactor:
    """0s free, 1s in runs of even length between 0s: x -> 0, y, z -> 1."""
    sft = Sft(["x", "y", "z"], [[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    return OneBlockFactor(sft, {"x": "0", "y": "1", "z": "1"})


def fading_run() -> OneBlockFactor:
    """a^3 is a word but a^4 is not: the preimage path p q r of a run of a
    must leave through s, so the subset state shrinks for three steps."""
    sft = Sft(["p", "q", "r", "s"],
              [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 1]])
    return OneBlockFactor(sft, {"p": "a", "q": "a", "r": "a", "s": "b"})


@st.composite
def factors(draw) -> OneBlockFactor:
    fixed = draw(st.integers(0, 7))
    if fixed < 2:
        return (even_shift, fading_run)[fixed]()
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    # a permutation of edges gives every symbol a follower and a predecessor
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    targets = draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n))
    return OneBlockFactor(sft, targets)


def domain_blocks(sft: Sft, n: int) -> list:
    words = [()]
    for _ in range(n):
        words = [w + (j,) for w in words for j in range(sft.size)
                 if not w or sft.transitions[w[-1]][j]]
    return words


def all_words(k: int, n: int):
    return itertools.product(range(k), repeat=n)


def in_image(pi: OneBlockFactor, y) -> bool:
    return bool(fiber_words(pi, y))


def periodic_oracle(pi: OneBlockFactor, cycles: dict, w) -> bool:
    """w^infinity lies in the image iff some domain cycle of length m|w|
    maps onto w^m with m <= |pi^-1(w[0])| (pigeonhole on the symbols at
    the multiples of |w|); ``cycles`` must reach that length."""
    return any(w * m in cycles[m * len(w)]
               for m in range(1, len(pi.preimage_symbols(w[0])) + 1))


def image_cycles(pi: OneBlockFactor, longest: int) -> dict:
    """{n: images of the domain words u of length n with u^infinity in X}."""
    dom = pi.domain
    return {n: {pi.apply(u) for u in domain_blocks(dom, n) if dom.follows(u[-1], u[0])}
            for n in range(1, longest + 1)}


def least_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_primitive(w) -> bool:
    return not any(len(w) % d == 0 and w == w[:d] * (len(w) // d) for d in range(1, len(w)))


def languages(pi: OneBlockFactor):
    """(language, factor whose fibers decide it): the image and the domain."""
    return [(pi.image, pi), (pi.domain, OneBlockFactor.identity(pi.domain))]


@settings(max_examples=60, deadline=None)
@given(factors(), st.permutations(range(MAX_LEN + 1)))
def test_blocks_counts_and_membership(pi, order):
    for lang, fac in languages(pi):
        k = len(lang.alphabet)
        for n in order:  # the block cache is filled out of order
            expected = sorted({fac.apply(u) for u in domain_blocks(fac.domain, n)})
            assert lang.blocks(n) == expected
            assert lang.count_blocks(n) == len(expected)
            words = set(expected)
            for y in all_words(k, n):
                assert lang.is_word(y) == (y in words) == in_image(fac, y)
        assert not lang.is_word((k,)) and not lang.is_word((-1,))


@settings(max_examples=60, deadline=None)
@given(factors())
def test_extensions(pi):
    for lang, fac in languages(pi):
        k = len(lang.alphabet)
        for n in range(3):
            for u in all_words(k, n):
                for m in range(3):
                    got = lang.extensions(u, m)
                    if not in_image(fac, u):
                        assert got == []
                        continue
                    assert got == [e for e in all_words(k, m) if in_image(fac, u + e)]


@settings(max_examples=60, deadline=None)
@given(factors())
def test_periodic_blocks_and_orbits(pi):
    for lang, fac in languages(pi):
        k = len(lang.alphabet)
        fold = max(len(fac.preimage_symbols(b)) for b in range(k))
        q_max = min(MAX_PERIOD, MAX_CYCLE // fold)
        cycles = image_cycles(fac, q_max * fold)
        orbits = set()
        for q in range(1, q_max + 1):
            for w in all_words(k, q):
                expected = periodic_oracle(fac, cycles, w)
                assert lang.is_periodic_block(w) == expected
                if expected and is_primitive(w):
                    orbits.add(least_rotation(w))
        got = periodic_points(lang, q_max)
        assert [p.block for p in got] == sorted(orbits, key=lambda w: (len(w), w))
        assert all(p.period == len(p.block) for p in got)
        assert not lang.is_periodic_block(())


@settings(max_examples=60, deadline=None)
@given(factors(), st.integers(0, 3))
def test_bridge(pi, max_gap):
    sft = pi.domain
    n = sft.size
    for u in domain_blocks(sft, 1) + domain_blocks(sft, 2):
        for v in domain_blocks(sft, 1):
            expected = next((w for g in range(max_gap + 1) for w in all_words(n, g)
                             if all(sft.transitions[a][b] for a, b in
                                    itertools.pairwise(u + w + v))), None)
            assert bridge(sft, u, v, max_gap) == expected
