import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor,
                         build_g_table, c2_certificate, chebyshev_defect,
                         fit_h, image_periodic_points, periodic_defect,
                         table_verdict, uniform_defect, variation_constant)
from thermoshift import detect, lp, seqtable
from thermoshift.detect import (DetectError, orbit_defects,
                                table_power_base, uniform_defects,
                                uniform_defects_exact_all)
from thermoshift.jsonio import load_factor, read_json
from thermoshift.potential import (PotentialError, birkhoff_sup, periodic_birkhoff,
                                   periodic_birkhoff_coeff)
from thermoshift.numerics import common_power_base, power_exponent
from thermoshift.seqtable import SeqTable, TableError
from thermoshift.shiftcore import PeriodicPoint, Sft
from thermoshift.verdicts import Verdict

from conftest import small_factors, symbol_weights
from fraction_oracles import birkhoff_extremes_coeff
from table_oracles import ref_orbit_defects

LOG2 = math.log(2)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def uniform_defect_exact(gt, h, n):
    """Reference for the exact uniform defects: u_n in units of log(base),
    word by word through birkhoff_extremes_coeff; None when the exact
    representations don't line up."""
    if not (gt.is_exact and h.is_exact):
        return None
    worst = Fraction(0)
    for w in gt.words(n):
        e = power_exponent(int(gt.exact_value(n, w)), h.exact_base)
        if e is None:
            return None
        worst = max(worst, abs(e - birkhoff_extremes_coeff(h, w)[0]))
    return worst / n


@pytest.fixture(scope="module")
def collapse_gt(collapse):
    f = LocallyConstantPotential.zero(collapse.domain)
    return build_g_table(collapse, f, 12)


def test_table_power_base_is_computed_once_per_table(collapse, monkeypatch):
    gt = build_g_table(collapse, LocallyConstantPotential.zero(collapse.domain), 8)
    calls = []

    def counted(values):
        calls.append(len(values))
        return common_power_base(values)

    monkeypatch.setattr(seqtable, "common_power_base", counted)
    fits = [fit_h(gt, 1, n) for n in (4, 6, 8)]
    assert table_power_base(gt) == 2  # g_n(y) = 2^{#a in y}
    assert all(fit.solver == "exact-simplex" for fit in fits)
    assert len(calls) == 1
    floats = build_g_table(collapse, LocallyConstantPotential.zero(collapse.domain), 4,
                           mode="float")
    assert table_power_base(floats) is None


@pytest.fixture(scope="module")
def fitted_h(collapse_gt, collapse):
    return fit_h(collapse_gt, 1, 6).potential(collapse.image)


def test_fit_collapse_exact(collapse_gt, collapse):
    res = fit_h(collapse_gt, 1, 6)
    assert res.solver == "exact-simplex"
    assert res.tstar_exact == 0 and res.tstar == 0.0
    a, b = collapse.image.index("a"), collapse.image.index("b")
    assert res.coeffs[(a,)] == 1 and res.coeffs[(b,)] == 0
    assert res.values[(a,)] == pytest.approx(LOG2, abs=1e-15)
    assert res.values[(b,)] == 0.0


def test_fit_identity_additive_r2(identity_gm):
    rng = random.Random(77)
    vals = {w: rng.uniform(-1, 1) for w in identity_gm.domain.blocks(2)}
    f = LocallyConstantPotential(identity_gm.domain, 2, vals)
    gt = build_g_table(identity_gm, f, 8)
    res = fit_h(gt, 2, 8)
    # the additive table is exactly fitted by h = f up to boundary slack
    assert res.tstar <= 1e-9
    for w, v in vals.items():
        assert res.values[w] - vals[w] == pytest.approx(
            res.values[(0, 0)] - vals[(0, 0)], abs=1e-7)


def test_fit_amalgamation(amalgamation):
    f = LocallyConstantPotential.zero(amalgamation.domain)
    gt = build_g_table(amalgamation, f, 8)
    res = fit_h(gt, 1, 6)
    assert res.tstar_exact == 0
    for w in gt.words(1):
        assert res.values[w] == pytest.approx(LOG2, abs=1e-15)


def test_fit_range_exceeding_depth_errors(collapse_gt):
    with pytest.raises(DetectError):
        fit_h(collapse_gt, 4, 3)


def test_fit_additive_tables_zero_at_every_depth(identity_gm, collapse_gt):
    rng = random.Random(99)
    vals = {w: rng.uniform(-1, 1) for w in identity_gm.domain.blocks(2)}
    f = LocallyConstantPotential(identity_gm.domain, 2, vals)
    gt = build_g_table(identity_gm, f, 8)
    for nf in (4, 6, 8):
        assert fit_h(gt, 2, nf).tstar <= 1e-9
    for nf in (2, 5, 9):
        assert fit_h(collapse_gt, 1, nf).tstar_exact == 0


def test_uniform_defect_fitted_zero(collapse_gt, fitted_h):
    for n in (1, 4, 8, 12):
        assert uniform_defect(collapse_gt, fitted_h, n) <= 1e-12
        assert uniform_defect_exact(collapse_gt, fitted_h, n) == 0


def test_uniform_defect_identity_h_equals_f(identity_gm):
    f = symbol_weights(identity_gm.domain, {"a": 0.8, "b": -0.1})
    gt = build_g_table(identity_gm, f, 8)
    h = symbol_weights(identity_gm.image, {"a": 0.8, "b": -0.1})
    for n in (1, 5, 8):
        assert uniform_defect(gt, h, n) <= 1e-12


def test_uniform_defect_h_zero_is_log2(collapse_gt, collapse):
    h0 = LocallyConstantPotential.zero(collapse.image)
    for n in (1, 6, 12):
        assert uniform_defect(collapse_gt, h0, n) == pytest.approx(LOG2, abs=1e-12)


# the even shift as the image of an edge shift: 1s separated by runs of 0s
# of even length, so the extensions of a word depend on the parity of its
# trailing 0-run (its subset-automaton state), not on its last symbol
EVEN_EDGES = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
EVEN_MAP = ["1", "0", "0"]


def _exact_potential(lang, r, coeffs):
    return LocallyConstantPotential(lang, r, {w: float(c) * LOG2 for w, c in coeffs.items()},
                                    exact_coeffs=coeffs, exact_base=2)


def test_uniform_defects_sofic_tails_follow_automaton_state():
    dom = Sft(["e1", "e2", "e3"], EVEN_EDGES)
    pi = OneBlockFactor(dom, EVEN_MAP)
    gt = build_g_table(pi, LocallyConstantPotential.zero(dom), 8)
    h = _exact_potential(pi.image, 2, {(0, 0): Fraction(-4, 3), (0, 1): Fraction(6),
                                       (1, 0): Fraction(-2), (1, 1): Fraction(1, 2)})
    ref = {n: uniform_defect_exact(gt, h, n) for n in range(1, 9)}
    assert ref[3] == Fraction(7, 3)
    assert uniform_defects_exact_all(gt, h) == ref
    rep = table_verdict(gt, h=h)
    assert rep.uniform == {n: float(v) * LOG2 for n, v in ref.items()}


def _exact_table(lang, exponents):
    """Exact table with value 2**k (k a nonnegative integer) on each word,
    per depth."""
    return SeqTable(lang.alphabet,
                    {n: {w: float(k) * LOG2 for w, k in level.items()}
                     for n, level in exponents.items()},
                    exact={n: {w: 2 ** k for w, k in level.items()}
                           for n, level in exponents.items()}, language=lang)


@settings(max_examples=100, deadline=None)
@given(factor=small_factors(), f_range=st.integers(1, 2), r=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
@example(factor=(EVEN_EDGES, EVEN_MAP), f_range=2, r=2, seed=0)
@example(factor=(EVEN_EDGES, EVEN_MAP), f_range=1, r=3, seed=1)
def test_uniform_defects_match_per_word_reference(factor, f_range, r, seed):
    """The walk against the per-word references on random factors.  Besides
    the real g tables, each path gets a table pinned to sup S_n h itself, on
    which every reference defect is 0, so one wrong sup tail on any word
    shows."""
    trans, targets = factor
    depth = 6
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    img = pi.image
    rng = random.Random(seed)
    ns = range(1, depth + 1)

    # exact path: rational h on the counting table and on random powers of
    # the base; integer h on the table pinned to its own sups, each window
    # raised by 36 so that every sup S_n h is >= 0 and the table's values
    # 2^{sup S_n h} are integers (raising every window by c raises each
    # sup S_n h by n c, so the defects the walk reads keep their shape)
    coeffs = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for w in img.blocks(r)}
    h = _exact_potential(img, r, coeffs)
    hz = _exact_potential(img, r, {w: 6 * c + 36 for w, c in coeffs.items()})
    pinned = _exact_table(img, {n: {w: int(birkhoff_extremes_coeff(hz, w)[0])
                                    for w in img.blocks(n)} for n in ns})
    counting = build_g_table(pi, LocallyConstantPotential.zero(dom), depth)
    cases = [(counting, h),
             (_exact_table(img, {n: {w: rng.randint(0, 4) for w in img.blocks(n)} for n in ns}), h),
             (pinned, hz)]
    for gt, hh in cases:
        ref = {n: uniform_defect_exact(gt, hh, n) for n in ns}
        want = None if None in ref.values() else ref
        assert uniform_defects(gt, hh, exact=True) == want
    assert set(uniform_defects_exact_all(pinned, hz).values()) == {0}

    # float path: bit-identical to uniform_defect (floats compared with ==),
    # on the counting table too, where the walk runs over the fiber rows' keys
    f = LocallyConstantPotential(dom, f_range, {w: rng.uniform(-2, 2)
                                                for w in dom.blocks(f_range)})
    hf = LocallyConstantPotential(img, r, {w: rng.uniform(-2, 2) for w in img.blocks(r)})
    pinned_f = SeqTable(img.alphabet, {n: {w: birkhoff_sup(hf, w) for w in img.blocks(n)}
                                       for n in ns}, language=img)
    for gt in (counting, build_g_table(pi, f, depth), pinned_f):
        assert uniform_defects(gt, hf) == {n: uniform_defect(gt, hf, n) for n in ns}
        assert uniform_defects(gt, hf, exact=True) is None
    assert set(uniform_defects(pinned_f, hf).values()) == {0.0}


def test_periodic_defects_zero_for_fitted(collapse_gt, collapse, fitted_h):
    for orbit in image_periodic_points(collapse.image, 4):
        j_max = collapse_gt.depth_max // orbit.period
        ds = periodic_defect(collapse_gt, fitted_h, orbit, j_max)
        assert all(abs(d) <= 1e-12 for d in ds)
        de = orbit_defects(collapse_gt, fitted_h, orbit, j_max)[1]
        assert all(c == 0 for c in de)


def test_periodic_defect_h_zero_fixed_point(collapse_gt, collapse):
    h0 = LocallyConstantPotential.zero(collapse.image)
    a_orbit = PeriodicPoint(block=(collapse.image.index("a"),), period=1)
    ds = periodic_defect(collapse_gt, h0, a_orbit, 12)
    assert all(d == pytest.approx(LOG2, abs=1e-12) for d in ds)


def test_periodic_defect_depth_guard(collapse_gt, fitted_h):
    orbit = PeriodicPoint(block=(0,), period=1)
    with pytest.raises(TableError):
        periodic_defect(collapse_gt, fitted_h, orbit, 13)


def test_periodic_defect_rejects_non_image_block(phase_blocked):
    f = LocallyConstantPotential.zero(phase_blocked.domain)
    gt = build_g_table(phase_blocked, f, 6)
    h0 = LocallyConstantPotential.zero(phase_blocked.image)
    one = phase_blocked.image.index("1")
    bad = PeriodicPoint(block=(one,), period=1)  # "11" forbidden in the image
    with pytest.raises(DetectError):
        periodic_defect(gt, h0, bad, 2)


def test_chebyshev_defect_matches_tstar(collapse_gt, fitted_h):
    got = chebyshev_defect(collapse_gt, fitted_h.values, 1, 6)
    assert got <= 1e-12


def test_lp_optimality_under_perturbation(collapse_gt, amalgamation):
    rng = random.Random(13)
    fits = [(collapse_gt, fit_h(collapse_gt, 1, 6))]
    f = LocallyConstantPotential.zero(amalgamation.domain)
    gt2 = build_g_table(amalgamation, f, 6)
    fits.append((gt2, fit_h(gt2, 1, 6)))
    for gt, res in fits:
        for _ in range(25):
            values = {w: v + rng.gauss(0, 0.1) for w, v in res.values.items()}
            assert chebyshev_defect(gt, values, res.r, res.n_fit) >= res.tstar - 1e-12


def test_monotone_refinement(phase_blocked, identity_gm):
    rng = random.Random(41)
    f = LocallyConstantPotential.zero(phase_blocked.domain)
    gt = build_g_table(phase_blocked, f, 8)
    vals = {w: rng.uniform(-1, 1) for w in identity_gm.domain.blocks(1)}
    gt2 = build_g_table(identity_gm,
                        LocallyConstantPotential(identity_gm.domain, 1, vals), 8)
    for table in (gt, gt2):
        t1 = fit_h(table, 1, 8).tstar
        t2 = fit_h(table, 2, 8).tstar
        t3 = fit_h(table, 3, 8).tstar
        assert t2 <= t1 + 1e-10
        assert t3 <= t2 + 1e-10


def test_c2_certificate_identity_full2(full2):
    pi = OneBlockFactor.identity(full2)
    f = LocallyConstantPotential.zero(full2)
    gt = build_g_table(pi, f, 9)
    u = pi.image.word_from_names(["a", "b", "a"])
    cert = c2_certificate(gt, pi, f, u, 0, 3)
    assert cert.gap == 0
    assert cert.log_bound == 0.0
    assert cert.slacks == [0.0, 0.0, 0.0]
    assert cert.ok and cert.exact


def test_c2_certificate_collapse(collapse, collapse_gt):
    f = LocallyConstantPotential.zero(collapse.domain)
    for names in (["a", "b"], ["b", "a", "a"], ["b", "b"]):
        u = collapse.image.word_from_names(names)
        cert = c2_certificate(collapse_gt, collapse, f, u, 0, 3)
        assert cert.ok
        assert cert.log_bound >= -math.log(9)  # 1/(L1 L2) >= 1/L^2
        assert all(s >= -1e-12 for s in cert.slacks)


def test_c2_certificate_goldenmean_bridge(identity_gm):
    f = LocallyConstantPotential.zero(identity_gm.domain)
    gt = build_g_table(identity_gm, f, 12)
    b = identity_gm.image.index("b")
    a = identity_gm.image.index("a")
    u = (b, a, b)  # ends and starts with b: the wrap needs the bridge "a"
    cert = c2_certificate(gt, identity_gm, f, u, 1, 3)
    assert cert.gap == 1
    assert cert.bridge_word == (identity_gm.domain.index("a"),)
    assert cert.block == (b, a, b, a)
    assert cert.ok
    assert all(abs(s) <= 1e-12 for s in cert.slacks)


def test_c2_certificate_errors(collapse, collapse_gt):
    f = LocallyConstantPotential.zero(collapse.domain)
    with pytest.raises(DetectError):
        c2_certificate(collapse_gt, collapse, f, (9,), 0, 2)
    disjoint = Sft(["a", "b"], [[1, 0], [0, 1]])
    pi = OneBlockFactor.identity(disjoint)
    f2 = LocallyConstantPotential.zero(disjoint)
    gt2 = build_g_table(pi, f2, 4)
    with pytest.raises(DetectError):
        c2_certificate(gt2, pi, f2, (0,), 2, 2)


def test_c2_certificate_builds_no_level(collapse):
    """The certificate reads its values from the table's rows: on collapse
    at depth 20 it builds no word level (depth n holds 2^n words)."""
    f = LocallyConstantPotential.zero(collapse.domain)
    t = build_g_table(collapse, f, 20)
    cert = c2_certificate(t, collapse, f, (0, 1), 2, 20)
    assert cert.ok and cert.exact
    assert t.levels.built == 0


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_uniform_defects_refuse_a_word_outside_h_language(full2, goldenmean, r, exact):
    """A table over the full 2-shift against h on the golden mean, which
    forbids bb: the walk raises uniform_defect's PotentialError, naming the
    same word, for every range and on the float and exact paths."""
    logs = {n: {w: n * LOG2 for w in full2.blocks(n)} for n in (1, 2, 3)}
    gt = SeqTable(full2.alphabet, logs,
                  exact={n: dict.fromkeys(level, Fraction(2 ** n)) for n, level in logs.items()})
    coeffs = dict.fromkeys(goldenmean.blocks(r), Fraction(1))
    h = LocallyConstantPotential(goldenmean, r, dict.fromkeys(coeffs, LOG2),
                                 exact_coeffs=coeffs, exact_base=2)
    with pytest.raises(PotentialError) as want:
        uniform_defect(gt, h, 2)
    with pytest.raises(PotentialError) as got:
        uniform_defects(gt, h, exact)
    assert str(got.value) == str(want.value) == "word (1, 1) is not allowable"


def test_defect_coherence_invariant(collapse_gt, collapse, fitted_h, identity_gm):
    """|periodic defect at jq| <= uniform defect at jq + log M_{jq}(h)/(jq)."""
    cases = [(collapse_gt, collapse.image, fitted_h)]
    rng = random.Random(3)
    vals = {w: rng.uniform(-0.6, 0.6) for w in identity_gm.domain.blocks(1)}
    f = LocallyConstantPotential(identity_gm.domain, 1, vals)
    gt = build_g_table(identity_gm, f, 10)
    h2vals = {w: rng.uniform(-0.6, 0.6) for w in identity_gm.image.blocks(2)}
    h2 = LocallyConstantPotential(identity_gm.image, 2, h2vals)
    cases.append((gt, identity_gm.image, h2))
    for table, lang, h in cases:
        u_cache = {}
        for orbit in image_periodic_points(lang, 4):
            q = orbit.period
            j_max = table.depth_max // q
            ds = periodic_defect(table, h, orbit, j_max)
            for j, d in enumerate(ds, start=1):
                n = j * q
                if n not in u_cache:
                    u_cache[n] = uniform_defect(table, h, n)
                slack = variation_constant(h, n) / n
                assert abs(d) <= u_cache[n] + slack + 1e-12


def test_verdict_certified_collapse(collapse_gt):
    rep = table_verdict(collapse_gt, r=1)
    assert rep.verdict == Verdict.CERTIFIED
    assert rep.uniform_exact_zero and rep.periodic_exact_zero
    assert all(v == 0.0 for v in rep.tstars.values())


def test_verdict_certified_identity_h0(full2):
    pi = OneBlockFactor.identity(full2)
    f = LocallyConstantPotential.zero(full2)
    gt = build_g_table(pi, f, 8)
    h0 = LocallyConstantPotential.zero(pi.image)
    rep = table_verdict(gt, h=h0)
    assert rep.verdict == Verdict.CERTIFIED


def test_verdict_refuted_phase_blocked(phase_blocked):
    rep = table_verdict(build_g_table(
        phase_blocked, LocallyConstantPotential.zero(phase_blocked.domain), 14))
    assert rep.verdict == Verdict.REFUTED
    assert rep.profile_growth
    assert rep.profile_witness["slope"] > 0.05


def test_verdict_refuted_synthetic_growth():
    logs = {n: {(0,) * n: -0.2 * n * n} for n in range(1, 13)}
    t = SeqTable(("s",), logs, kind="synthetic")
    rep = table_verdict(t)
    assert rep.verdict == Verdict.REFUTED
    assert rep.profile_witness["n"] in (1, 2)


def test_verdict_refuted_exact_periodic(collapse_gt, collapse):
    h0 = LocallyConstantPotential.zero(collapse.image)
    rep = table_verdict(collapse_gt, h=h0)
    assert rep.verdict == Verdict.REFUTED
    assert "periodic" in rep.reason
    assert rep.stats["limit_defect"] == pytest.approx(LOG2, abs=1e-12)


def test_verdict_evidence_on_float_table(identity_gm):
    rng = random.Random(55)
    vals = {w: rng.uniform(-0.4, 0.4) for w in identity_gm.domain.blocks(2)}
    f = LocallyConstantPotential(identity_gm.domain, 2, vals)
    gt = build_g_table(identity_gm, f, 8)
    rep = table_verdict(gt, r=1)
    assert rep.verdict == Verdict.EVIDENCE
    assert rep.stats["uniform_decays"] in (True, False)


def test_verdict_report_serializes(collapse_gt, collapse):
    rep = table_verdict(collapse_gt, r=1)
    doc = rep.as_dict(lambda w: tuple(collapse.image.alphabet[i] for i in w))
    assert doc["verdict"] == "CERTIFIED"
    assert doc["coverage"]["orbits"] > 0


@functools.lru_cache(maxsize=None)
def _orbit_table(name, depth, float_f):
    """(factor, table) for a factor fixture, every level built; ``float_f``
    gives a float table built from a fixed range-1 potential instead of the
    counting table."""
    pi = load_factor(read_json(str(FIXTURES / name)))
    f = LocallyConstantPotential.zero(pi.domain)
    if float_f:
        f = LocallyConstantPotential(pi.domain, 1, {w: 0.3 - 0.25 * w[0]
                                                    for w in pi.domain.blocks(1)})
    gt = build_g_table(pi, f, depth)
    gt.levels[depth]
    return pi, gt


class CountedReads(list):
    """A list that counts the items read from it (``reads``)."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


ORBIT_CASES = [("factor_collapse.json", 4, False), ("factor_collapse.json", 9, False),
               ("factor_collapse.json", 7, True), ("factor_phase_blocked.json", 6, False),
               ("factor_phase_blocked.json", 11, False), ("factor_amalgamation.json", 5, False),
               ("factor_amalgamation.json", 8, False)]


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(ORBIT_CASES), r=st.integers(1, 2),
       base=st.sampled_from([2, 3, 4]), exact_h=st.booleans(), data=st.data())
def test_orbit_defects_match_word_oracles(case, r, base, exact_h, data):
    """The one orbit pass against word-by-word oracles: float defects bit for
    bit, exact defects through power_exponent (None exactly when some value
    at a checked depth is no power of h's base), the stored values, and one
    walk down the table's rows, float or exact: Jq reads of ``next`` for J
    multiples of period q; a table with no level built reads the same."""
    pi, gt = _orbit_table(*case)
    lazy = build_g_table(pi, gt.potential, gt.depth_max)
    windows = pi.image.blocks(r)
    if exact_h:
        coeffs = {w: Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
                  for w in windows}
        h = LocallyConstantPotential(pi.image, r, {w: float(c) * math.log(base)
                                                   for w, c in coeffs.items()},
                                     exact_coeffs=coeffs, exact_base=base)
    else:
        h = LocallyConstantPotential(pi.image, r, {w: data.draw(st.floats(-2, 2))
                                                   for w in windows})
    for y in image_periodic_points(pi.image, 4):
        q = y.period
        ns = list(range(q, gt.depth_max + 1, q))
        if not ns:
            continue
        gt.rows.next = CountedReads(gt.rows.next)
        floats, exact, values = orbit_defects(gt, h, y, len(ns))
        assert gt.rows.next.reads == ns[-1]
        assert orbit_defects(lazy, h, y, len(ns)) == (floats, exact, values)
        assert floats == [(gt.log_value(n, y.word(n)) - periodic_birkhoff(h, y, n)) / n
                          for n in ns]
        powers = gt.is_exact and h.is_exact and all(
            power_exponent(int(v), base) is not None for n in ns for v in gt.exact[n].values())
        assert exact == ([(power_exponent(int(gt.exact_value(n, y.word(n))), base)
                           - periodic_birkhoff_coeff(h, y, n)) / n for n in ns]
                         if powers else None)
        assert values == ([gt.exact_value(n, y.word(n)) for n in ns] if gt.is_exact else None)


@settings(max_examples=40, deadline=None)
@given(factor=small_factors(), depth=st.integers(1, 7), r=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16))
def test_orbit_walk_matches_the_per_multiple_lookups(factor, depth, r, seed):
    """orbit_defects' one walk against the per-multiple lookups it replaced
    (``ref_orbit_defects``), bit for bit, on the tables of f = 0 and of a
    random float range-2 potential: exact and float candidates of range r.
    Blocks outside the image language or its alphabet (symbols -1 and
    |alphabet|) fail as the lookups do: DetectError, or PotentialError for
    a found block with a window h has no value for."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    rng = random.Random(seed)
    windows = pi.image.blocks(r)
    coeffs = {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in windows}
    hs = [_exact_potential(pi.image, r, coeffs),
          LocallyConstantPotential(pi.image, r, {w: rng.uniform(-2, 2) for w in windows})]
    f2 = LocallyConstantPotential(dom, 2, {w: rng.uniform(-2, 2) for w in dom.blocks(2)})
    symbols = range(-1, len(pi.image.alphabet) + 1)
    strays = [PeriodicPoint(b, len(b)) for q in (1, 2) for b in itertools.product(symbols, repeat=q)]
    for f in (LocallyConstantPotential.zero(dom), f2):
        gt = build_g_table(pi, f, depth)
        for y in image_periodic_points(pi.image, 4) + strays:
            J = depth // y.period
            for h in hs if J else []:
                assert _outcome(orbit_defects, gt, h, y, J) == _outcome(ref_orbit_defects, gt, h, y, J)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


@st.composite
def full_factors(draw):
    """(transitions, symbol map) of the full shift on 2 to 4 symbols mapped
    onto abc: g(y) is the product of the preimage counts of its symbols,
    Hankel rank 1."""
    k = draw(st.integers(2, 4))
    return [[1] * k] * k, draw(st.lists(st.sampled_from("abc"), min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(factor=st.one_of(full_factors(), small_factors()), depth=st.integers(2, 7),
       P_max=st.integers(1, 4), J=st.one_of(st.none(), st.integers(1, 3)))
@example(factor=([[1] * 5] * 5, list("aabbb")), depth=6, P_max=3, J=None)
@example(factor=([[1] * 3] * 3, list("aab")), depth=7, P_max=4, J=2)
def test_rank_one_verdict_matches_the_general_stages(factor, depth, P_max, J):
    """On exact g-tables of Hankel rank 1 the closed-form branch of
    table_verdict(r=1) reports the bytes of the stages it skips (the fit
    LPs, the uniform walk and the exact orbit walk: the same table with
    ``_multiplicative`` patched to False).  It fires exactly where the
    values have a common power base: not on the full 5-shift with 1,2 -> a
    and 3,4,5 -> b, whose g = 2^#a 3^#b."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    f = LocallyConstantPotential.zero(dom)
    t = build_g_table(pi, f, depth)
    assume(seqtable._multiplicative(t))
    fits, real = [], detect.fit_depths
    with mock.patch.object(detect, "fit_depths", lambda *a: fits.append(a) or real(*a)):
        got = table_verdict(t, r=1, P_max=P_max, J=J).as_dict()
    assert (not fits) == (table_power_base(t) is not None)
    with mock.patch.object(detect, "_multiplicative", lambda t: False):
        want = table_verdict(build_g_table(pi, f, depth), r=1, P_max=P_max, J=J).as_dict()
    assert got == want


def test_rank_one_collapse_verdict_at_depth_64_runs_no_lp(monkeypatch):
    """The depth-64 collapse verdict certifies with both exact LP solvers
    made to raise, reading level 1 alone."""
    def refuse(*args):
        raise AssertionError("an exact LP ran")

    for module in (lp, detect):
        monkeypatch.setattr(module, "chebyshev_fit_exact", refuse)
        monkeypatch.setattr(module, "solve_exact", refuse)
    pi = load_factor(read_json(FIXTURES / "factor_collapse.json"))
    t = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), 64)
    assert table_verdict(t, r=1).verdict is Verdict.CERTIFIED
    assert t.levels.built <= 1


def test_rank_one_power_base_reads_depth_one():
    """On Hankel rank 1 every value is a product of depth-1 values, so the
    depth-64 collapse table's power base is read from depth 1 alone: its
    rows are walked to depth 1 only and no level is built."""
    pi = load_factor(read_json(FIXTURES / "factor_collapse.json"))
    t = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), 64)
    assert table_power_base(t) == 2
    assert len(t.rows.g) == 2 and t.levels.built == 0


def test_rank_one_growth_witness_fits_no_slope(monkeypatch):
    """On Hankel rank 1 every profile row is 0 in log: growth_witness fits
    no slope and finds nothing unless the threshold is below 0, where the
    first flat row fires as the row scan makes it."""
    pi = load_factor(read_json(FIXTURES / "factor_collapse.json"))
    t = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), 64)
    assert seqtable.growth_witness(t, -0.01) == {"n": 1, "m": 63, "log_c": 0.0, "slope": 0.0,
                                                 "r_squared": 1.0}

    def refuse(*args):
        raise AssertionError("a slope was fitted")

    monkeypatch.setattr(seqtable, "growth_flag", refuse)
    assert seqtable.growth_witness(t) is None
    assert seqtable.growth_witness(t, 0.0) is None
