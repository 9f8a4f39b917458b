import math
import random
from fractions import Fraction

import pytest

from thermoshift import (LocallyConstantPotential, MarkovMeasure,
                         build_additive_table, build_g_table, pressure_estimate,
                         pushforward_sandwich, transfer_pressure,
                         weak_gibbs_constants)
from thermoshift.gibbs import GibbsError
from thermoshift.markov import MeasureError
from thermoshift.shiftcore import Sft
from thermoshift.verdicts import GibbsVerdict

from conftest import symbol_weights
from table_oracles import entropy_rate, kingman_averages, random_measure

PHI = (1 + 5 ** 0.5) / 2


def test_measure_validation(goldenmean, full2):
    with pytest.raises(MeasureError):
        MarkovMeasure.bernoulli(goldenmean, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(MeasureError):
        MarkovMeasure(full2, 1, [[0.6, 0.6], [0.5, 0.5]], [0.5, 0.5], exact=False)
    with pytest.raises(MeasureError):
        MarkovMeasure(full2, 1,
                      [[Fraction(1, 2), Fraction(1, 2)]] * 2,
                      [Fraction(3, 4), Fraction(1, 4)], exact=True)


def test_bernoulli_cylinder_masses(full2):
    mu = MarkovMeasure.bernoulli(full2, [Fraction(2, 3), Fraction(1, 3)])
    assert mu.cylinder_mass((0, 1, 0)) == Fraction(4, 27)
    assert mu.cylinder_mass(()) == 1


def test_stationary_solve_analytic(full2):
    p = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]]
    mu = MarkovMeasure.from_transition(full2, p)
    assert mu.stationary == [Fraction(1, 3), Fraction(2, 3)]
    assert mu.exact


def test_order2_measure_consistency(goldenmean):
    rng = random.Random(23)
    mu = random_measure(goldenmean, rng, order=2)
    for w in goldenmean.blocks(3):
        ext = sum(mu.cylinder_mass(w + (x,)) for x in range(2)
                  if goldenmean.is_word(w + (x,)))
        assert mu.cylinder_mass(w) == pytest.approx(ext, abs=1e-12)
    short = sum(mu.cylinder_mass((x,)) for x in range(2))
    assert short == pytest.approx(1.0, abs=1e-12)


def test_entropy_bernoulli_half(full2):
    mu = MarkovMeasure.bernoulli(full2, [Fraction(1, 2), Fraction(1, 2)])
    assert entropy_rate(mu) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_point_mass(goldenmean):
    mu = MarkovMeasure.from_transition(
        goldenmean, [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert entropy_rate(mu) == 0.0


def test_transfer_pressure_full2(full2):
    f = LocallyConstantPotential.zero(full2)
    gd = transfer_pressure(full2, f)
    assert gd.lam_exact == 2
    assert gd.pressure == pytest.approx(math.log(2), abs=1e-15)
    assert gd.measure.exact
    assert gd.measure.stationary == [Fraction(1, 2), Fraction(1, 2)]
    assert gd.measure.matrix[0] == [Fraction(1, 2), Fraction(1, 2)]


def test_transfer_pressure_goldenmean_parry(goldenmean):
    f = LocallyConstantPotential.zero(goldenmean)
    gd = transfer_pressure(goldenmean, f)
    assert gd.lam_exact is None
    assert gd.pressure == pytest.approx(math.log(PHI), abs=1e-12)
    assert gd.residual <= 1e-10
    mu = gd.measure
    assert float(mu.matrix[0][0]) == pytest.approx(1 / PHI, abs=1e-10)
    assert float(mu.matrix[0][1]) == pytest.approx(1 / PHI ** 2, abs=1e-10)
    assert float(mu.stationary[0]) == pytest.approx(PHI ** 2 / (1 + PHI ** 2), abs=1e-10)
    # Parry measure is the measure of maximal entropy
    assert entropy_rate(mu) == pytest.approx(math.log(PHI), abs=1e-10)


def test_transfer_pressure_constant_shift(goldenmean):
    f = symbol_weights(goldenmean, {"a": 0.2, "b": -0.4})
    g = symbol_weights(goldenmean, {"a": 0.2 + 0.7, "b": -0.4 + 0.7})
    gd_f = transfer_pressure(goldenmean, f)
    gd_g = transfer_pressure(goldenmean, g)
    assert gd_g.pressure == pytest.approx(gd_f.pressure + 0.7, abs=1e-10)
    for i in range(2):
        for j in range(2):
            assert float(gd_g.measure.matrix[i][j]) == pytest.approx(
                float(gd_f.measure.matrix[i][j]), abs=1e-9)


def test_transfer_pressure_r2(full2):
    vals = {(0, 0): 0.25, (0, 1): -0.5, (1, 0): 0.75, (1, 1): -0.25}
    f = LocallyConstantPotential(full2, 2, vals)
    gd = transfer_pressure(full2, f)
    est = pressure_estimate(build_additive_table(f, 16))
    assert gd.pressure == pytest.approx(est.extrapolated, abs=1e-8)
    assert gd.residual <= 1e-10


def test_transfer_pressure_needs_irreducible():
    disjoint = Sft(["a", "b"], [[1, 0], [0, 1]])
    f = LocallyConstantPotential.zero(disjoint)
    with pytest.raises(GibbsError):
        transfer_pressure(disjoint, f)


def test_integrate_additive_table_constant(goldenmean):
    f = symbol_weights(goldenmean, {"a": 0.5, "b": -1.0})
    t = build_additive_table(f, 8)
    gd = transfer_pressure(goldenmean, f)
    mu = gd.measure
    expect = sum(float(mu.stationary[i]) * f.value((i,)) for i in range(2))
    for v in kingman_averages(t, mu, 8):
        assert v == pytest.approx(expect, abs=1e-10)


def test_integrate_collapse_counts(collapse, full2):
    f = LocallyConstantPotential.zero(collapse.domain)
    gt = build_g_table(collapse, f, 8)
    q = 0.3
    mu = MarkovMeasure.bernoulli(full2, [q, 1 - q])  # the image is the full 2-shift
    for v in kingman_averages(gt, mu, 8):
        assert v == pytest.approx(q * math.log(2), abs=1e-12)


def test_weak_gibbs_constants_exact_identity(full2):
    f = LocallyConstantPotential.zero(full2)
    mu = MarkovMeasure.bernoulli(full2, [Fraction(1, 2), Fraction(1, 2)])
    rep = weak_gibbs_constants(mu, f, math.log(2), 10, exact_base=Fraction(2))
    assert rep.verdict == GibbsVerdict.GIBBS
    assert rep.exact
    assert all(c == 1 for c in rep.exact_cn.values())


def test_weak_gibbs_self_check(goldenmean):
    # the transfer measure against its own potential's additive table
    f = symbol_weights(goldenmean, {"a": 0.4, "b": -0.3})
    gd = transfer_pressure(goldenmean, f)
    rep = weak_gibbs_constants(gd.measure, f, gd.pressure,
                               depth_max=12, exact_base=gd.lam_exact)
    assert rep.verdict == GibbsVerdict.GIBBS
    assert max(rep.log_cn.values()) < 2.0


def test_weak_gibbs_wrong_pressure_is_neither(full3, collapse):
    f = LocallyConstantPotential.zero(full3)
    mu = MarkovMeasure.bernoulli(full3, [1 / 3] * 3)
    rep = weak_gibbs_constants(mu, f, math.log(2), 8)  # wrong P: log C_n grows linearly
    assert rep.verdict == GibbsVerdict.NEITHER


def test_pushforward_sandwich_exact(collapse, full3):
    f = LocallyConstantPotential.zero(full3)
    gt = build_g_table(collapse, f, 8)
    est = pressure_estimate(gt)
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    gd = transfer_pressure(full3, f)
    wg = weak_gibbs_constants(mu, f, gd.pressure, 8, exact_base=gd.lam_exact)
    rep = pushforward_sandwich(mu, collapse, f, gt, float(est.extrapolated),
                               est.exact_base, wg, 8)
    assert rep.ok and rep.exact


def test_variational_inequality_sampled(collapse, full2, full3):
    f = LocallyConstantPotential.zero(full3)
    gt = build_g_table(collapse, f, 10)
    est = pressure_estimate(gt)
    rng = random.Random(31)
    for _ in range(5):
        mu = random_measure(full2, rng)  # on the image, the full 2-shift
        assert entropy_rate(mu) + min(kingman_averages(gt, mu, 10)) <= est.fekete_upper + 1e-6
