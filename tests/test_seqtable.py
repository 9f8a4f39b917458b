import math
import random
from fractions import Fraction

import pytest

from thermoshift import (LocallyConstantPotential, OneBlockFactor, SeqTable,
                         birkhoff_sup, build_additive_table, build_g_table,
                         check_D2, defect_profile, fiber_words, partition_sum, partition_sum_exact,
                         pressure_estimate, transfer_pressure)
from thermoshift.numerics import logsumexp
from thermoshift.seqtable import TableError

from conftest import symbol_weights
from table_oracles import ref_check_subadditive

PHI = (1 + 5 ** 0.5) / 2


def brute_g_value(pi, f, y):
    """Oracle for log g_n(y): enumerate the fiber, per-cylinder sups."""
    return logsumexp(birkhoff_sup(f, u) for u in fiber_words(pi, y))


def synthetic_table(logs_by_depth, alphabet=("s",)):
    return SeqTable(alphabet, logs_by_depth, kind="synthetic")


def single_word_table(values):
    """One word per depth on a one-symbol alphabet."""
    return synthetic_table({n: {(0,) * n: v} for n, v in enumerate(values, start=1)})


def test_g_counts_match_fiber_enumeration(collapse, phase_blocked, amalgamation, full3):
    f0 = LocallyConstantPotential.zero(full3)
    for pi in (collapse, phase_blocked, amalgamation):
        f = LocallyConstantPotential.zero(pi.domain)
        gt = build_g_table(pi, f, 6)
        assert gt.is_exact
        for n in range(1, 7):
            for y in pi.image.blocks(n):
                assert gt.exact_value(n, y) == len(fiber_words(pi, y))


def test_g_float_matches_bruteforce(collapse, identity_gm):
    rng = random.Random(5)
    vals3 = {w: rng.uniform(-1, 1) for w in collapse.domain.blocks(2)}
    f3 = LocallyConstantPotential(collapse.domain, 2, vals3)
    vals_gm = {w: rng.uniform(-1, 1) for w in identity_gm.domain.blocks(1)}
    f_gm = LocallyConstantPotential(identity_gm.domain, 1, vals_gm)
    for pi, f in ((collapse, f3), (identity_gm, f_gm)):
        gt = build_g_table(pi, f, 6)
        assert not gt.is_exact
        for n in range(1, 7):
            for y in pi.image.blocks(n):
                assert gt.log_value(n, y) == pytest.approx(brute_g_value(pi, f, y), abs=1e-10)


def test_g_identity_is_birkhoff_sup(identity_gm):
    rng = random.Random(9)
    vals = {w: rng.uniform(-1, 1) for w in identity_gm.domain.blocks(2)}
    f = LocallyConstantPotential(identity_gm.domain, 2, vals)
    gt = build_g_table(identity_gm, f, 6)
    for n in range(1, 7):
        for y in identity_gm.image.blocks(n):
            assert gt.log_value(n, y) == pytest.approx(birkhoff_sup(f, y), abs=1e-12)


def test_g_collapse_closed_form(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    gt = build_g_table(collapse, f, 10)
    a = collapse.image.index("a")
    for n in range(1, 11):
        for y in gt.words(n):
            k = sum(1 for s in y if s == a)
            assert gt.exact_value(n, y) == 2 ** k


def test_g_table_rejects_mismatched_potential(collapse, goldenmean):
    f = LocallyConstantPotential.zero(goldenmean)
    with pytest.raises(TableError):
        build_g_table(collapse, f, 4)


def test_exact_mode_requires_zero_potential(collapse):
    vals = {w: 0.1 for w in collapse.domain.blocks(1)}
    f = LocallyConstantPotential(collapse.domain, 1, vals)
    with pytest.raises(TableError):
        build_g_table(collapse, f, 4, mode="exact")


def test_rebuild_is_deterministic(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    t1 = build_g_table(collapse, f, 8)
    t2 = build_g_table(collapse, f, 8)
    assert t1.logs == t2.logs and t1.exact == t2.exact


def test_partition_sums(full2, goldenmean, collapse):
    f2 = LocallyConstantPotential.zero(full2)
    t2 = build_additive_table(f2, 8)
    for n in range(1, 9):
        assert partition_sum(t2, n) == pytest.approx(n * math.log(2), abs=1e-12)
    fgm = LocallyConstantPotential.zero(goldenmean)
    tgm = build_additive_table(fgm, 8)
    assert partition_sum_exact(tgm, 3) == 5
    fc = LocallyConstantPotential.zero(collapse.domain)
    tc = build_g_table(collapse, fc, 8)
    for n in range(1, 9):
        assert partition_sum_exact(tc, n) == 3 ** n


def test_partition_subadditivity(collapse, phase_blocked):
    for pi in (collapse, phase_blocked):
        f = LocallyConstantPotential.zero(pi.domain)
        t = build_g_table(pi, f, 10)
        lz = {n: partition_sum(t, n) for n in range(1, 11)}
        for n in range(1, 10):
            for m in range(1, 11 - n):
                assert lz[n + m] <= lz[n] + lz[m] + 1e-9


def test_pressure_full_shift_exact(full2):
    f = LocallyConstantPotential.zero(full2)
    est = pressure_estimate(build_additive_table(f, 8))
    assert est.exact_base == 2
    assert est.extrapolated == pytest.approx(math.log(2), abs=1e-15)
    assert est.fekete_upper == pytest.approx(math.log(2), abs=1e-12)


def test_pressure_goldenmean_extrapolation(goldenmean):
    f = LocallyConstantPotential.zero(goldenmean)
    est = pressure_estimate(build_additive_table(f, 20))
    assert est.exact_base is None
    assert est.extrapolated == pytest.approx(math.log(PHI), abs=1e-12)
    # the Fekete bound is rigorous but converges like 1/n
    assert est.fekete_upper >= math.log(PHI) - 1e-12
    assert est.fekete_upper == min(est.per_n)


def test_pressure_collapse_base3(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    est = pressure_estimate(build_g_table(collapse, f, 8))
    assert est.exact_base == 3
    assert est.extrapolated == pytest.approx(math.log(3), abs=1e-15)


def test_pressure_additive_matches_transfer(goldenmean):
    f = symbol_weights(goldenmean, {"a": math.log(2.0), "b": -0.25})
    est = pressure_estimate(build_additive_table(f, 20))
    gd = transfer_pressure(goldenmean, f)
    assert est.extrapolated == pytest.approx(gd.pressure, abs=1e-8)


def test_pressure_at_depths_one_and_two(goldenmean, collapse):
    for depth in (1, 2):
        est = pressure_estimate(build_additive_table(LocallyConstantPotential.zero(goldenmean),
                                                     depth))
        assert est.exact_base is None
        assert est.extrapolated == pytest.approx(math.log(PHI), rel=1e-14)
        est = pressure_estimate(build_g_table(collapse, LocallyConstantPotential.zero(
            collapse.domain), depth))
        assert est.exact_base is None and est.extrapolated == math.log(3)
    # a table built from dicts carries no potential, so no limit
    assert pressure_estimate(single_word_table([1.0, 2.0])).extrapolated is None


def test_check_subadditive_on_g_tables(collapse, phase_blocked):
    for pi in (collapse, phase_blocked):
        f = LocallyConstantPotential.zero(pi.domain)
        ok, worst, _ = ref_check_subadditive(build_g_table(pi, f, 10))
        assert ok
        assert worst <= 1e-12


def test_check_subadditive_additive_equality(goldenmean):
    f = symbol_weights(goldenmean, {"a": 0.4, "b": -0.9})
    ok, worst, _ = ref_check_subadditive(build_additive_table(f, 8))
    assert ok
    assert abs(worst) <= 1e-12


def test_check_subadditive_detects_corruption(collapse):
    # the oracle the subadditivity tests rest on must see a raised word
    f = LocallyConstantPotential.zero(collapse.domain)
    t = build_g_table(collapse, f, 6)
    logs = {n: dict(t.logs[n]) for n in t.logs}
    bad_word = t.words(4)[0]
    logs[4][bad_word] += 1.0
    ok, worst, (n, m, w) = ref_check_subadditive(SeqTable(t.alphabet, logs, kind="corrupted"))
    assert not ok
    assert worst >= 1.0 - 1e-9
    assert w == bad_word and n + m == 4


def test_check_subadditive_exact_decides():
    # f_2 = 1 + 10^-20 rounds to log 0 like f_1 = 1, so only the exact values
    # show f_2 > f_1 f_1
    logs = {1: {(0,): 0.0}, 2: {(0, 0): 0.0}}
    ok, worst, _ = ref_check_subadditive(synthetic_table(logs))
    assert ok and worst == 0.0
    exact = {1: {(0,): Fraction(1)}, 2: {(0, 0): 1 + Fraction(1, 10 ** 20)}}
    ok, worst, _ = ref_check_subadditive(SeqTable(("s",), logs, exact=exact))
    assert not ok and worst == 0.0


def test_check_d2_collapse(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    t = build_g_table(collapse, f, 8)
    rep = check_D2(t, 0)
    assert rep.bridged
    for v in rep.log_d.values():
        assert v == pytest.approx(0.0, abs=1e-12)


def test_check_d2_identity_full(full2):
    pi = OneBlockFactor.identity(full2)
    f = LocallyConstantPotential.zero(full2)
    rep = check_D2(build_g_table(pi, f, 8), 0)
    assert rep.bridged and all(abs(v) <= 1e-12 for v in rep.log_d.values())


def test_check_d2_goldenmean_identity(identity_gm):
    f = LocallyConstantPotential.zero(identity_gm.domain)
    t = build_g_table(identity_gm, f, 8)
    rep = check_D2(t, 1)
    assert rep.bridged
    assert all(abs(v) <= 1e-12 for v in rep.log_d.values())
    # with gap 0 the pair (..b, b..) has no bridge
    rep0 = check_D2(t, 0)
    assert not rep0.bridged


def test_check_d2_matches_exhaustive_oracle(collapse):
    rng = random.Random(17)
    vals = {w: rng.uniform(-0.5, 0.5) for w in collapse.domain.blocks(1)}
    f = LocallyConstantPotential(collapse.domain, 1, vals)
    t = build_g_table(collapse, f, 7)
    gap = 1
    rep = check_D2(t, gap)
    for (n, m), got in rep.log_d.items():
        worst = None
        for u in t.words(n):
            for v in t.words(m):
                best = None
                for k in range(gap + 1):
                    for w in ([()] if k == 0 else [(x,) for x in range(2)]):
                        cand = u + w + v
                        if t.has_word(n + m + k, cand):
                            val = t.log_value(n + m + k, cand) \
                                - t.log_value(n, u) - t.log_value(m, v)
                            best = val if best is None else max(best, val)
                worst = best if worst is None else min(worst, best)
        assert got == pytest.approx(worst, abs=1e-12)


def test_defect_profile_additive_zero(goldenmean):
    f = symbol_weights(goldenmean, {"a": 0.3, "b": -0.2})
    prof = defect_profile(build_additive_table(f, 8))
    assert not prof.growth
    assert max(prof.log_c.values()) <= 1e-12


def test_defect_profile_collapse_exactly_multiplicative(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    prof = defect_profile(build_g_table(collapse, f, 8))
    assert not prof.growth
    assert all(v == 0.0 for v in prof.log_c.values())
    assert all(c == 1 for c in prof.exact_c.values())


def test_defect_profile_constructed_growth():
    t = single_word_table([-0.2 * n * n for n in range(1, 13)])
    prof = defect_profile(t)
    assert prof.log_c[(2, 9)] == pytest.approx(0.4 * 2 * 9, abs=1e-12)
    assert prof.growth
    assert prof.witness["n"] in (1, 2)
    assert prof.witness["slope"] > 0.05


def test_defect_profile_phase_blocked_exact_growth(phase_blocked):
    f = LocallyConstantPotential.zero(phase_blocked.domain)
    gt = build_g_table(phase_blocked, f, 14)
    prof = defect_profile(gt)
    assert prof.growth
    for m in (3, 5, 7, 9):
        assert prof.exact_c[(2, m)] >= 2 ** ((m - 1) // 2) + 2


def test_table_validation():
    with pytest.raises(TableError):
        SeqTable(("s",), {2: {(0, 0): 1.0}})  # missing depth 1
    with pytest.raises(TableError):
        SeqTable(("s",), {1: {(0,): 0.0}}, exact={1: {(0, 0): Fraction(1)}})


def test_table_rejects_exact_values_missing_a_depth():
    logs = {1: {(0,): 0.0}, 2: {(0, 0): 0.0}}
    with pytest.raises(TableError, match="same depths"):
        SeqTable(("s",), logs, exact={1: {(0,): Fraction(1)}})


def test_table_rejects_non_positive_exact_values():
    logs = {1: {(0,): 0.0}, 2: {(0, 0): 0.0}}
    for bad in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(TableError, match="positive"):
            SeqTable(("s",), logs, exact={1: {(0,): Fraction(1)}, 2: {(0, 0): bad}})


def test_scans_reject_words_without_stored_prefix():
    t = synthetic_table({1: {(0,): 0.0}, 2: {(0, 1): 0.0}}, alphabet=("s", "t"))
    for scan in (defect_profile, lambda t: check_D2(t, 0)):
        with pytest.raises(TableError, match="prefix or suffix"):
            scan(t)


def test_table_rejects_non_finite_logs(full2):
    for bad in (float("-inf"), float("inf"), float("nan")):
        with pytest.raises(TableError, match="non-finite"):
            SeqTable(("s",), {1: {(0,): 0.0}, 2: {(0, 0): bad}})
    pi = OneBlockFactor.identity(full2)
    f = symbol_weights(full2, {"a": 0.0, "b": -800.0})
    with pytest.raises(TableError, match="non-finite"):
        build_g_table(pi, f, 2)
