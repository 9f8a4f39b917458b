"""The transfer walk behind weak_gibbs_constants, against the enumerating
C_n scan it replaced (kept here as the reference oracle).  The sandwich
masses have their own tests in test_mass_walk.py."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, MarkovMeasure,
                         build_additive_table, transfer_pressure,
                         weak_gibbs_constants)
from thermoshift.cli import HARD_DEPTH_CAP
from thermoshift.gibbs import GibbsError
from thermoshift.markov import MeasureError, _state_transitions
from thermoshift.numerics import log_fraction
from thermoshift.shiftcore import Sft
from thermoshift.verdicts import (DEFAULT_SLOPE_THRESHOLD, GibbsVerdict,
                                  growth_flag, trend_stats)


def ref_weak_gibbs(mu, f, pressure, depth, exact_base=None,
                   slope_threshold=DEFAULT_SLOPE_THRESHOLD):
    """(log_cn, exact_cn or None, verdict) by enumerating every domain word:
    C_n = max over w of max(rho, 1/rho), rho = mu[w] e^{nP} / e^{sup S_n f}."""
    t = build_additive_table(f, depth)
    exact = mu.exact and t.is_exact and exact_base is not None
    log_cn, exact_cn = {}, {}
    for n in range(1, depth + 1):
        worst_log, worst_exact = 0.0, Fraction(1)
        for w, lv in t.logs[n].items():
            mw = mu.cylinder_mass(w)
            if not mw:
                worst_log, worst_exact = math.inf, None
                break
            if exact:
                rho = mw * exact_base ** n / t.exact[n][w]
                worst_exact = max(worst_exact, rho, 1 / rho)
            else:
                log_rho = (log_fraction(mw) if isinstance(mw, Fraction)
                           else math.log(mw)) + n * pressure - lv
                worst_log = max(worst_log, abs(log_rho))
        log_cn[n] = worst_log if worst_exact is None or not exact else log_fraction(worst_exact)
        exact_cn[n] = worst_exact
    ns = sorted(log_cn)
    values = [log_cn[n] for n in ns]
    if any(math.isinf(v) for v in values):
        return log_cn, None, GibbsVerdict.NEITHER
    if exact and all(c == 1 for c in exact_cn.values()):
        return log_cn, exact_cn, GibbsVerdict.GIBBS
    fired, _ = growth_flag(ns, values, slope_threshold)
    if trend_stats(ns, values).bounded:
        verdict = GibbsVerdict.GIBBS
    elif fired:
        verdict = GibbsVerdict.NEITHER
    else:
        verdict = GibbsVerdict.WEAK_GIBBS
    return log_cn, exact_cn if exact else None, verdict


@st.composite
def settings_(draw):
    """(sft, mu, f, pressure, exact_base, depth): an irreducible SFT
    on <= 4 symbols (a cycle through every symbol plus random edges), a
    Markov measure of order 1 or 2 with some zero transitions (or the Gibbs
    measure of f), f of range 1-3 (zero when the exact path is drawn)."""
    size = draw(st.integers(1, 4))
    trans = [[int(j == (i + 1) % size) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            trans[i][j] |= draw(st.booleans())
    sft = Sft("abcd"[:size], trans)
    r = draw(st.integers(1, 3))
    exact = draw(st.booleans())
    blocks = sft.blocks(r)
    if exact:
        values = dict.fromkeys(blocks, 0.0)
    else:
        values = {w: draw(st.integers(-12, 12)) / 4 for w in blocks}
    f = LocallyConstantPotential(sft, r, values)
    if draw(st.booleans()):
        gd = transfer_pressure(sft, f)
        mu, pressure, base = gd.measure, gd.pressure, gd.lam_exact
    else:
        k = draw(st.integers(1, 2))
        states = sft.blocks(k)
        _, moves = _state_transitions(sft, states)
        drawn = [[draw(st.integers(0, 3)) for _ in row] for row in moves]
        try:
            mu = _measure(sft, k, moves, drawn, exact)
        except (MeasureError, ValueError, ZeroDivisionError):
            # several closed classes: no unique stationary vector
            mu = _measure(sft, k, moves, [[w + 1 for w in ws] for ws in drawn], exact)
        base = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)]))
        pressure = float(log_fraction(base)) if exact else draw(st.integers(-8, 8)) / 4
        if not exact:
            base = None
    depth = draw(st.sampled_from([6, 5, 4, 3, 2, 1]))
    return sft, mu, f, pressure, base, depth


def _measure(sft, k, moves, weights, exact):
    """Order-k chain with transition weights proportional to ``weights``
    (a row of zeros puts all its mass on the first move)."""
    matrix = []
    for row, ws in zip(moves, weights):
        ws = ws if any(ws) else [1] + ws[1:]
        line = [Fraction(0)] * len(moves)
        for (j, _), w in zip(row, ws):
            line[j] = Fraction(w, sum(ws))
        matrix.append(line if exact else [float(v) for v in line])
    return MarkovMeasure.from_transition(sft, matrix, order=k)


@settings(max_examples=80, deadline=None)
@given(case=settings_())
def test_walk_matches_enumeration(case):
    sft, mu, f, pressure, base, depth = case
    rep = weak_gibbs_constants(mu, f, pressure, depth, exact_base=base)
    log_cn, exact_cn, verdict = ref_weak_gibbs(mu, f, pressure, depth, base)
    assert rep.verdict == verdict
    assert rep.exact_cn == exact_cn
    assert sorted(rep.log_cn) == list(range(1, depth + 1))
    for n, want in log_cn.items():
        got = rep.log_cn[n]
        if math.isinf(want) or exact_cn is not None:
            assert got == want
        else:
            # 1e-12 relative; the floor covers values that cancel to ~0
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (n, got, want)


def test_vanishing_mass_is_neither_whatever_the_word_order(full2):
    f = LocallyConstantPotential.zero(full2)
    half = Fraction(1, 2)
    cases = [
        # [a] has zero mass: the first word at every depth
        ([[half, half], [Fraction(0), Fraction(1)]], [Fraction(0), Fraction(1)]),
        # [b] has zero mass: the last word
        ([[Fraction(1), Fraction(0)], [half, half]], [Fraction(1), Fraction(0)]),
        # every symbol has mass, [aa] does not: found inside the walk
        ([[Fraction(0), Fraction(1)], [half, half]], None),
    ]
    for matrix, stationary in cases:
        mu = MarkovMeasure.from_transition(full2, matrix, stationary=stationary)
        rep = weak_gibbs_constants(mu, f, math.log(2), 4, exact_base=Fraction(2))
        assert rep.verdict == GibbsVerdict.NEITHER
        assert rep.stats == {"certainty": "exact", "reason": "vanishing cylinder mass"}
        assert rep.exact_cn is None
        assert rep.as_dict()["exact_cn"] is None
        assert math.isinf(rep.log_cn[4])


def test_float_masses_do_not_underflow(full2):
    mu = MarkovMeasure.bernoulli(full2, [1e-300, 1.0])
    f = LocallyConstantPotential.zero(full2)
    rep = weak_gibbs_constants(mu, f, math.log(2), 4)
    slope = abs(math.log(2e-300))
    for n in range(1, 5):
        assert rep.log_cn[n] == pytest.approx(n * slope, rel=1e-12, abs=0)
    assert "reason" not in rep.stats
    assert rep.verdict == GibbsVerdict.NEITHER


def test_exact_constants_at_the_depth_cap(full3):
    # 3^64 domain words: only the transfer walk reaches this depth
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    f = LocallyConstantPotential.zero(full3)
    rep = weak_gibbs_constants(mu, f, math.log(3), HARD_DEPTH_CAP, exact_base=Fraction(3))
    assert rep.exact and rep.verdict == GibbsVerdict.GIBBS
    assert sorted(rep.exact_cn) == list(range(1, HARD_DEPTH_CAP + 1))
    assert all(c == 1 for c in rep.exact_cn.values())


def test_weak_gibbs_constants_rejects_bad_inputs(full2, full3):
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    with pytest.raises(MeasureError):
        weak_gibbs_constants(mu, LocallyConstantPotential.zero(full2), 0.0, 3)
    with pytest.raises(GibbsError):
        weak_gibbs_constants(mu, LocallyConstantPotential.zero(full3), 0.0, 0)
