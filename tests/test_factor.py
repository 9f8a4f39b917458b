import math
from fractions import Fraction

import pytest

from thermoshift import (MarkovMeasure, OneBlockFactor, fiber_words,
                         pushforward_cylinder)
from thermoshift.markov import MeasureError


def brute_fibers(pi, n):
    table = {}
    for u in pi.domain.blocks(n):
        table.setdefault(pi.apply(u), []).append(u)
    return table


def test_image_blocks_identity(identity_gm, goldenmean):
    assert len(identity_gm.image.blocks(2)) == 3
    assert identity_gm.image.blocks(2) == goldenmean.blocks(2)


def test_image_blocks_collapse(collapse):
    assert collapse.image.blocks(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_image_of_total_collapse(full2):
    pi = OneBlockFactor(full2, {"a": "a", "b": "a"})
    assert pi.image.blocks(5) == [(0,) * 5]


def test_image_blocks_match_bruteforce(collapse, phase_blocked, amalgamation):
    for pi in (collapse, phase_blocked, amalgamation):
        for n in range(1, 7):
            assert pi.image.blocks(n) == sorted(brute_fibers(pi, n))


def test_fiber_words_collapse(collapse, full3):
    y = collapse.image.word_from_names(["a", "b"])
    fw = fiber_words(collapse, y)
    assert [full3.names(u) for u in fw] == [("1", "3"), ("2", "3")]


def test_fiber_words_identity(identity_gm, goldenmean):
    for y in goldenmean.blocks(4):
        assert fiber_words(identity_gm, y) == [y]


def test_fiber_of_pure_a_word(collapse):
    a = collapse.image.index("a")
    assert len(fiber_words(collapse, (a,) * 6)) == 2 ** 6


def test_fiber_words_empty_for_non_image_word(phase_blocked):
    one = phase_blocked.image.index("1")
    assert fiber_words(phase_blocked, (one, one)) == []


def test_fiber_words_match_bruteforce(collapse, phase_blocked):
    for pi in (collapse, phase_blocked):
        for n in range(1, 6):
            brute = brute_fibers(pi, n)
            for y in pi.image.blocks(n):
                assert fiber_words(pi, y) == brute[y]


def test_fiber_table_partitions_domain(collapse, phase_blocked):
    for pi in (collapse, phase_blocked):
        fibers = [fiber_words(pi, y) for y in pi.image.blocks(5)]
        assert all(fibers)
        # disjoint and covering: the fibers list every domain block once
        assert sorted(u for fiber in fibers for u in fiber) == pi.domain.blocks(5)


def test_image_language_periodic_blocks(phase_blocked):
    lang = phase_blocked.image
    one, two = lang.index("1"), lang.index("2")
    assert lang.is_periodic_block((two,))
    assert lang.is_periodic_block((one, two))
    assert not lang.is_periodic_block((one,))      # "11" is forbidden
    assert not lang.is_periodic_block((one, one))


def test_image_count_blocks(collapse, phase_blocked):
    for pi in (collapse, phase_blocked):
        for n in range(1, 8):
            assert pi.image.count_blocks(n) == len(pi.image.blocks(n))


def test_pushforward_total_collapse_mass(full2):
    pi = OneBlockFactor(full2, {"a": "a", "b": "a"})
    mu = MarkovMeasure.bernoulli(full2, [Fraction(1, 2), Fraction(1, 2)])
    a = pi.image.index("a")
    assert pushforward_cylinder(mu, pi, (a,) * 7) == 1


def test_pushforward_uniform3_closed_form(collapse, full3):
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    for n in range(1, 7):
        for y in collapse.image.blocks(n):
            k = sum(1 for s in y if s == collapse.image.index("a"))
            expect = Fraction(2, 3) ** k * Fraction(1, 3) ** (n - k)
            assert pushforward_cylinder(mu, collapse, y) == expect


def test_pushforward_identity_unchanged(identity_gm, goldenmean):
    mu = MarkovMeasure.from_transition(
        goldenmean, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(0)]])
    for y in goldenmean.blocks(5):
        assert pushforward_cylinder(mu, identity_gm, y) == mu.cylinder_mass(y)


def test_pushforward_total_mass_and_consistency(collapse, full3):
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    for n in range(1, 6):
        total = sum(pushforward_cylinder(mu, collapse, y)
                    for y in collapse.image.blocks(n))
        assert total == 1
    for y in collapse.image.blocks(3):
        mass = pushforward_cylinder(mu, collapse, y)
        ext = sum(pushforward_cylinder(mu, collapse, y + (b,)) for b in range(2))
        assert mass == ext


def test_pushforward_float_path_matches_exact(collapse, full3):
    mu_e = MarkovMeasure.bernoulli(full3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    mu_f = MarkovMeasure.bernoulli(full3, [0.5, 0.25, 0.25])
    for y in collapse.image.blocks(4):
        assert math.isclose(pushforward_cylinder(mu_f, collapse, y),
                            float(pushforward_cylinder(mu_e, collapse, y)),
                            rel_tol=1e-12)


def test_pushforward_alphabet_mismatch(collapse, goldenmean):
    mu = MarkovMeasure.from_transition(
        goldenmean, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(0)]])
    with pytest.raises(MeasureError):
        pushforward_cylinder(mu, collapse, (0,))


def test_surjectivity_is_forced(full3):
    pi = OneBlockFactor(full3, {"1": "a", "2": "a", "3": "a"})
    assert pi.image_alphabet == ("a",)


def test_factor_requires_total_map(full3):
    from thermoshift.factor import FactorError
    with pytest.raises(FactorError):
        OneBlockFactor(full3, {"1": "a", "2": "a"})
