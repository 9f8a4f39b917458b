import math
from fractions import Fraction

import pytest

from thermoshift import (LocallyConstantPotential, birkhoff_extremes,
                         birkhoff_inf, birkhoff_sup, periodic_birkhoff,
                         periodic_points, variation_constant)
from thermoshift.potential import PotentialError, periodic_birkhoff_coeff
from thermoshift.shiftcore import PeriodicPoint

from conftest import symbol_weights
from fraction_oracles import birkhoff_extremes_coeff


def brute_extremes(f, u):
    """Oracle: enumerate all length n+r-1 continuations and take max/min."""
    lang, r, n = f.language, f.range, len(u)
    sums = []
    for e in lang.extensions(u, r - 1):
        w = u + e
        sums.append(math.fsum(f.value(w[i:i + r]) for i in range(n)))
    return max(sums), min(sums)


@pytest.fixture(scope="module")
def weight_gm(goldenmean):
    return symbol_weights(goldenmean, {"a": math.log(2.0), "b": 0.0})


@pytest.fixture(scope="module")
def r2_full2(full2):
    vals = {(0, 0): 0.25, (0, 1): -0.5, (1, 0): 0.75, (1, 1): -0.25}
    return LocallyConstantPotential(full2, 2, vals)


def test_zero_potential(full3):
    f = LocallyConstantPotential.zero(full3)
    for u in full3.blocks(4):
        assert birkhoff_sup(f, u) == 0.0
        assert birkhoff_inf(f, u) == 0.0
    assert f.is_zero and f.is_exact


def test_weight_sum_on_word(weight_gm, goldenmean):
    u = goldenmean.word_from_names(["a", "b", "a"])
    s, i = birkhoff_extremes(weight_gm, u)
    assert s == i == pytest.approx(2 * math.log(2.0), abs=1e-15)


def test_r2_needs_extensions(r2_full2):
    # length-1 word: one window, two possible extensions
    s, i = birkhoff_extremes(r2_full2, (0,))
    assert s == 0.25 and i == -0.5
    s, i = birkhoff_extremes(r2_full2, (1,))
    assert s == 0.75 and i == -0.25


def test_extremes_match_bruteforce(goldenmean, full2, r2_full2, weight_gm):
    vals = {w: 0.3 * w[0] - 0.7 * w[1] + 0.11 for w in goldenmean.blocks(2)}
    f_gm2 = LocallyConstantPotential(goldenmean, 2, vals)
    for f in (r2_full2, weight_gm, f_gm2):
        for n in range(1, 6):
            for u in f.language.blocks(n):
                assert birkhoff_extremes(f, u) == pytest.approx(brute_extremes(f, u), abs=1e-12)


def test_unallowable_word_raises(weight_gm, goldenmean):
    b = goldenmean.index("b")
    with pytest.raises(PotentialError):
        birkhoff_sup(weight_gm, (b, b))


def test_values_must_cover_language(goldenmean):
    with pytest.raises(PotentialError):
        LocallyConstantPotential(goldenmean, 2, {(0, 0): 1.0})
    with pytest.raises(PotentialError):
        LocallyConstantPotential(goldenmean, 2,
                                 {w: 0.0 for w in goldenmean.blocks(2)} | {(1, 1): 0.0})


def test_variation_constant_r1(weight_gm):
    for n in range(1, 8):
        assert variation_constant(weight_gm, n) == 0.0


def test_variation_constant_zero(full3):
    f = LocallyConstantPotential.zero(full3)
    assert variation_constant(f, 5) == 0.0


def test_variation_constant_r2_explicit(r2_full2):
    # depth 1: spread of the single window over its two extensions
    assert variation_constant(r2_full2, 1) == pytest.approx(
        max(0.25 - (-0.5), 0.75 - (-0.25)), abs=1e-15)


def test_variation_constant_matches_bruteforce(r2_full2, goldenmean):
    vals = {w: 0.3 * w[0] - 0.7 * w[1] + 0.11 for w in goldenmean.blocks(2)}
    f_gm2 = LocallyConstantPotential(goldenmean, 2, vals)
    for f in (r2_full2, f_gm2):
        for n in range(1, 6):
            brute = max(brute_extremes(f, u)[0] - brute_extremes(f, u)[1]
                        for u in f.language.blocks(n))
            assert variation_constant(f, n) == pytest.approx(brute, abs=1e-12)


def test_bounded_variation_invariant(r2_full2):
    bound = (r2_full2.range - 1) * (r2_full2.max_value() - min(r2_full2.values.values()))
    tops = [variation_constant(r2_full2, n) for n in range(1, 9)]
    assert all(v <= bound + 1e-12 for v in tops)
    # tempered variation, strengthened: a uniform constant bound
    assert max(tops) <= bound


def test_birkhoff_additivity_on_periodic_points(goldenmean):
    coeffs = {(0,): Fraction(3, 2), (1,): Fraction(-1, 3)}
    f = LocallyConstantPotential(goldenmean, 1,
                                 {w: float(c) * math.log(2) for w, c in coeffs.items()},
                                 exact_coeffs=coeffs, exact_base=2)
    for p in periodic_points(goldenmean, 4):
        for n in range(1, 5):
            for m in range(1, 5):
                whole = periodic_birkhoff_coeff(f, p, n + m)
                first = periodic_birkhoff_coeff(f, p, n)
                # sigma^n of the periodic point rotates the block
                q = p.period
                rot = p.block[n % q:] + p.block[:n % q]
                shifted = PeriodicPoint(block=rot, period=q)
                second = periodic_birkhoff_coeff(f, shifted, m)
                assert whole == first + second


def test_periodic_birkhoff_float_close_to_exact(goldenmean):
    coeffs = {(0,): Fraction(3, 2), (1,): Fraction(-1, 3)}
    f = LocallyConstantPotential(goldenmean, 1,
                                 {w: float(c) * math.log(2) for w, c in coeffs.items()},
                                 exact_coeffs=coeffs, exact_base=2)
    for p in periodic_points(goldenmean, 3):
        for n in (1, 4, 6):
            assert periodic_birkhoff(f, p, n) == pytest.approx(
                float(periodic_birkhoff_coeff(f, p, n)) * math.log(2), abs=5e-13)


def test_cylinder_sum_table(r2_full2):
    for u in r2_full2.language.blocks(3):
        sup, inf = birkhoff_extremes(r2_full2, u)
        assert sup >= inf
        assert (sup, inf) == pytest.approx(brute_extremes(r2_full2, u), abs=1e-12)


def test_exact_coeff_extremes_match_float(goldenmean):
    coeffs = {w: Fraction(w[0] - w[1] + 1, 2) for w in goldenmean.blocks(2)}
    f = LocallyConstantPotential(goldenmean, 2,
                                 {w: float(c) * math.log(3) for w, c in coeffs.items()},
                                 exact_coeffs=coeffs, exact_base=3)
    for u in goldenmean.blocks(4):
        cs, ci = birkhoff_extremes_coeff(f, u)
        fs, fi = birkhoff_extremes(f, u)
        assert fs == pytest.approx(float(cs) * math.log(3), abs=1e-12)
        assert fi == pytest.approx(float(ci) * math.log(3), abs=1e-12)


def test_shifted_potential(weight_gm):
    g = LocallyConstantPotential(weight_gm.language, 1,
                                 {w: v + 0.5 for w, v in weight_gm.values.items()})
    u = (0, 1, 0)
    assert birkhoff_sup(g, u) == pytest.approx(birkhoff_sup(weight_gm, u) + 1.5, abs=1e-12)
