"""The table scans (check_D2, defect_profile) against the nested word
loops they replaced, kept here as reference oracles: every report must
serialize to the same JSON.  Exact g-tables take the fiber-class
path (``SeqTable.classes``) when their class products are fewer than the
word scan's cells, float and dict-built tables the word kernels; the
oracles cover both, and exact tables are checked on each path forced, with
their levels built and with none built.  Verdicts on exact g-tables that
read their fiber rows past the built levels (``SeqTable.rows``) must equal
the verdicts on the same tables with every level built.  On exact tables
the D2 oracle takes each cell's least ratio in Fractions, so both paths
must report its log_fraction bit for bit."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor, SeqTable,
                         build_g_table, check_D2, defect_profile, detect,
                         seqtable)
from thermoshift.cli import main
from thermoshift.detect import table_verdict
from thermoshift.jsonio import load_factor, read_json
from thermoshift.numerics import log_fraction
from thermoshift.seqtable import D2Report, DefectProfile
from thermoshift.shiftcore import Sft
from thermoshift.verdicts import DEFAULT_SLOPE_THRESHOLD, decays_to_zero, growth_flag

from conftest import symbol_weights

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _all_words(alphabet_size, k):
    if k == 0:
        yield ()
        return
    for w in _all_words(alphabet_size, k - 1):
        for b in range(alphabet_size):
            yield w + (b,)


def ref_check_D2(t, gap_cap):
    """On exact tables each pair's best ratio and the cell's least are
    Fractions, reported as log_fraction of the least; float tables take the
    float differences of the logs."""
    L = len(t.alphabet)
    vals = t.exact if t.is_exact else t.logs
    log_d = {}
    unbridged = []
    for n in range(1, t.depth_max):
        for m in range(1, t.depth_max - n + 1):
            if n + m + gap_cap > t.depth_max:
                continue
            worst = None
            for u in t.logs[n]:
                for v in t.logs[m]:
                    best = None
                    for k in range(gap_cap + 1):
                        level = vals[n + m + k]
                        for w in _all_words(L, k):
                            x = level.get(u + w + v)
                            if x is None:
                                continue
                            ratio = Fraction(x) / (vals[n][u] * vals[m][v]) if t.is_exact \
                                else x - vals[n][u] - vals[m][v]
                            if best is None or ratio > best:
                                best = ratio
                    if best is None:
                        unbridged.append((u, v))
                    elif worst is None or best < worst:
                        worst = best
            if worst is not None:
                log_d[(n, m)] = log_fraction(worst) if t.is_exact else worst
    trends = []
    for m in sorted({m for _, m in log_d}):
        ns = sorted(n for n, mm in log_d if mm == m)
        if len(ns) >= 3:
            trends.append(decays_to_zero(ns, [abs(log_d[(n, m)]) / n for n in ns]))
    detail = {"pairs_checked": sum(len(t.logs[n]) * len(t.logs[m]) for n, m in log_d)}
    return D2Report(gap_cap, log_d, not unbridged, unbridged,
                    all(trends) if trends else True, detail)


def ref_defect_profile(t, slope_threshold=DEFAULT_SLOPE_THRESHOLD):
    log_c = {}
    exact_c = {} if t.is_exact else None
    for total in range(2, t.depth_max + 1):
        for n in range(1, total):
            m = total - n
            if t.is_exact:
                worst = Fraction(1)
                for w, v in t.exact[total].items():
                    ratio = Fraction(v) / (t.exact[n][w[:n]] * t.exact[m][w[n:]])
                    worst = max(worst, ratio, 1 / ratio)
                exact_c[(n, m)] = worst
                log_c[(n, m)] = log_fraction(worst)
            else:
                worst = 0.0
                for w, lv in t.logs[total].items():
                    d = abs(lv - t.logs[n][w[:n]] - t.logs[m][w[n:]])
                    if d > worst:
                        worst = d
                log_c[(n, m)] = worst
    growth, witness, slopes = False, None, {}
    for n in sorted({n for n, _ in log_c}):
        ms = sorted(m for nn, m in log_c if nn == n)
        if len(ms) < 4:
            continue
        fired, stats = growth_flag(ms, [log_c[(n, m)] for m in ms], slope_threshold)
        slopes[n] = stats
        if fired and not growth:
            growth = True
            witness = {"n": n, "m": ms[-1], "log_c": log_c[(n, ms[-1])],
                       "slope": stats.slope, "r_squared": stats.r_squared}
    return DefectProfile(log_c, exact_c, growth, witness, slopes, slope_threshold)


def _json(report):
    return json.dumps(report.as_dict(), sort_keys=True)


# word-scan costs that force the fiber-class path or the word kernels
FORCE = {"classes": lambda self, cells, gap: math.inf, "words": lambda self, cells, gap: 0}


def assert_scans_match(t, gaps=(0,)):
    """The scans on t against the oracles; on an exact g-table also on a
    fresh copy with no level built, each scan reading what it needs."""
    fresh = (lambda: build_g_table(t.factor, t.potential, t.depth_max)) \
        if t.classes is not None else None
    want = [_json(ref_defect_profile(t))] + [ref_check_D2(t, gap) for gap in gaps]
    for path in [None] + (list(FORCE) if t.classes is not None else []):
        with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE.get(
                path, seqtable._FiberClasses._scan_cost)):
            for table in [t] + ([fresh()] if fresh else []):
                assert _json(defect_profile(table)) == want[0], path
                for gap, ref in zip(gaps, want[1:]):
                    got = check_D2(table, gap)
                    assert _json(got) == _json(ref), (path, gap)
                    assert got.unbridged == ref.unbridged


def exact_table(lang, values):
    """Exact table with the given Fraction values; logs from log_fraction."""
    return SeqTable(lang.alphabet,
                    {n: {w: log_fraction(v) for w, v in level.items()}
                     for n, level in values.items()},
                    exact=values, language=lang)


@st.composite
def small_factors(draw):
    """(transitions, symbol map) of a one-block factor on <= 4 domain
    symbols; merged symbols often give strictly sofic images."""
    k = draw(st.integers(2, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(k)] for _ in range(k)]
    for i in range(k):  # every symbol needs an outgoing and an incoming edge
        if not any(trans[i]) or not any(row[i] for row in trans):
            trans[i][i] = 1
    return trans, draw(st.lists(st.sampled_from("abc"), min_size=k, max_size=k))


@settings(max_examples=40, deadline=None)
@given(factor=small_factors(), seed=st.integers(0, 2 ** 16))
def test_scans_match_nested_loops(factor, seed):
    """Random domains, reducible ones included: zero potentials of range 1
    to 3 (exact g-tables, on both paths), float potentials and a dict-built
    exact table (the word kernels), at depth 7 with gaps 0 to 3."""
    trans, targets = factor
    depth = 7
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    img = pi.image
    rng = random.Random(seed)
    tables = [build_g_table(pi, LocallyConstantPotential(dom, r, dict.fromkeys(dom.blocks(r), 0.0)),
                            depth) for r in (1, 2, 3)]
    assert all(t.classes is not None for t in tables)
    for r in (1, 2):
        f = LocallyConstantPotential(dom, r, {w: rng.uniform(-2, 2) for w in dom.blocks(r)})
        tables.append(build_g_table(pi, f, depth))
    # few distinct values, so ties decide the witnesses
    tables.append(exact_table(img, {n: {w: Fraction(2) ** rng.randint(-3, 3)
                                        for w in img.blocks(n)}
                                    for n in range(1, depth + 1)}))
    for t in tables:
        assert_scans_match(t, gaps=range(4))


def _fixture_table(name, depth):
    pi = load_factor(read_json(FIXTURES / name))
    return build_g_table(pi, LocallyConstantPotential.zero(pi.domain), depth)


def _class_rows(t, side):
    """The forward ("fwd") or backward ("bwd") class rows of t at every
    depth through the table depth."""
    return getattr(t.classes, side).classes(t.depth_max).prim


def test_exact_g_tables_take_the_class_path(monkeypatch):
    """With the word kernels made to raise, defect_profile and check_D2 on
    exact g-tables still match the oracles."""
    tables = [_fixture_table(name, depth) for name, depth in
              [("factor_collapse.json", 8), ("factor_phase_blocked.json", 10),
               ("factor_amalgamation.json", 7), ("factor_full4_abc.json", 5),
               ("factor_identity_goldenmean.json", 8)]]
    want = [(_json(ref_defect_profile(t)), [_json(ref_check_D2(t, gap)) for gap in range(4)])
            for t in tables]

    def word_kernel(*args):
        raise AssertionError("word kernel ran on an exact g-table")

    for name in ("_splits", "_ranks", "_word_bridges"):
        monkeypatch.setattr(seqtable, name, word_kernel)
    for t, (profile, bridges) in zip(tables, want):
        assert _json(defect_profile(t)) == profile
        assert [_json(check_D2(t, gap)) for gap in range(4)] == bridges
    full2 = Sft.full_shift(["a", "b"])  # float tables still scan the words
    f = symbol_weights(full2, {"a": 0.5, "b": -0.25})
    with pytest.raises(AssertionError, match="word kernel"):
        defect_profile(build_g_table(OneBlockFactor.identity(full2), f, 4))


@pytest.mark.parametrize("path", list(FORCE))
def test_multiplicative_bridges_read_exact_logs(path):
    """g(uwv) = g(u) g(w) g(v) on collapse, so the best ratio of every pair
    at gap k is the largest g(w), |w| <= k, which is 2^k: check_D2 at gaps
    0 to 3 reports each log_d as log_fraction(2^k), at gap 0 as 0.0 with a
    positive sign, on the class path and on the word path."""
    with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE[path]):
        t = _fixture_table("factor_collapse.json", 8)
        for gap in range(4):
            log_d = check_D2(t, gap).log_d
            assert set(log_d) == {(n, m) for n in range(1, 8) for m in range(1, 9 - n - gap)}
            assert {(v, math.copysign(1.0, v)) for v in log_d.values()} == \
                {(log_fraction(2 ** gap), 1.0)}, (path, gap)


def test_class_path_promotes_past_int64(monkeypatch):
    """With the int64 bound lowered to 10, the class rows turn to Python
    ints at the step where they could pass it, and with them the class
    products and gap maxima, and the reports do not change."""
    t = _fixture_table("factor_phase_blocked.json", 9)
    want = [_json(ref_defect_profile(t))] + [_json(ref_check_D2(t, gap)) for gap in range(4)]
    monkeypatch.setattr(seqtable, "INT64_MAX", 10)
    for rows in (_class_rows(t, "fwd"), _class_rows(t, "bwd")):
        promoted = [r.dtype == object for r in rows]
        assert promoted == sorted(promoted) and not promoted[1] and promoted[-1]
    assert [_json(defect_profile(t))] + [_json(check_D2(t, gap)) for gap in range(4)] == want


def test_collapse_stays_on_int64_at_depth_40(monkeypatch):
    """The walks promote per step, so the collapse class rows and the
    verdict's forward rows (at most 3 2^40 at depth 40, against 3^40 domain
    words) stay in int64, and the reports equal those of the walks forced
    onto Python ints."""
    t = _fixture_table("factor_collapse.json", 40)
    got = [_json(defect_profile(t)), _json(check_D2(t, 3))]
    classes = _class_rows(t, "fwd") + _class_rows(t, "bwd")
    assert all(x.dtype == np.int64 for x in classes + t.classes.fwd.cg + t.classes.bwd.cg)
    assert all(v.dtype == np.int64 for v in t.rows.rows + t.rows.g)
    assert t.levels.built == 0
    monkeypatch.setattr(seqtable, "INT64_MAX", 10)
    forced = _fixture_table("factor_collapse.json", 40)
    assert [_json(defect_profile(forced)), _json(check_D2(forced, 3))] == got
    assert any(v.dtype == object for v in forced.rows.rows)


@pytest.mark.parametrize("name, depth, counts", [
    ("factor_collapse.json", 18, [2] * 18),
    ("factor_full4_abc.json", 12, [3] * 12),
    ("factor_phase_blocked.json", 18, list(range(2, 20))),
])
def test_class_counts_per_level(name, depth, counts):
    """Distinct forward classes per depth: 2 of 2^18 words on collapse, 3 on
    the full-4 abc factor, n + 1 at depth n on phase-blocked (19 at 18)."""
    t = _fixture_table(name, depth)
    assert [len(x) for x in _class_rows(t, "fwd")[1:]] == counts
    assert t.levels.built == 0
    assert [len(set(t.classes.rank_classes("fwd", n).tolist()))
            for n in range(1, depth + 1)] == counts


def _two_block_table(trans, depth):
    """Zero-potential g-table of the factor sending domain symbols 1, 2 to a
    and 3, 4 to b."""
    dom = Sft(["1", "2", "3", "4"], trans)
    return build_g_table(OneBlockFactor(dom, ["a", "a", "b", "b"]),
                         LocallyConstantPotential.zero(dom), depth)


# a acts by [[1, 1], [0, 1]] and b by [[1, 0], [1, 1]] within their blocks,
# by the identity across them: the class of a word is that of its runs
STERN_BROCOT = [[1, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]]
# ... and by the same matrices across the blocks: the free monoid acts on
# (1, 1) and every word has its own backward class
CALKIN_WILF = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]


@pytest.mark.parametrize("trans, forward, backward", [
    (STERN_BROCOT, [2, 4, 8, 14, 24, 40, 66, 108, 176, 286, 464, 752],
     [2, 4, 8, 14, 24, 40, 66, 108, 176, 286, 464, 752]),
    (CALKIN_WILF, [2, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
     [2 ** n for n in range(1, 13)]),
])
def test_scans_on_factors_whose_classes_barely_compress(trans, forward, backward):
    """Class counts that grow with the words (1.6^n and 2^n of 2^n): each
    (n, m) cell's products are taken apart, so the class path stays within
    the word scan's cells, and both paths match the oracles at depth 12.
    The class walks build no fiber row.  The forward rows, as many as the
    classes at each depth, do not pay past the fit depth."""
    t = _two_block_table(trans, 12)
    assert [len(lv) for lv in t.levels[1:]] == [2 ** n for n in range(1, 13)]
    assert [len(x) for x in _class_rows(t, "fwd")[1:]] == forward
    assert [len(y) for y in _class_rows(t, "bwd")[1:]] == backward
    assert len(t.classes.fwd.rows) == len(t.classes.bwd.rows) == 1
    assert t.rows is None
    walked = t.classes.fwd.rows[1:]
    assert len(walked) > seqtable.FIT_DEPTH
    assert [len(rows) for rows in walked] == forward[:len(walked)]
    assert_scans_match(t, gaps=(0, 2))


@settings(max_examples=30, deadline=None)
@given(factor=small_factors(), f_range=st.integers(1, 3))
def test_class_values_from_rows_match_the_levels(factor, f_range):
    """Random domains and zero potentials of range 1 to 3: on a table with
    no level built the class scans at gaps 0 to 3, which read class rows
    alone, match the oracles on the levels and build only the levels that
    their unbridged pairs spell."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    f = LocallyConstantPotential(dom, f_range, dict.fromkeys(dom.blocks(f_range), 0.0))
    depth = 7
    t = build_g_table(pi, f, depth)
    fresh = build_g_table(pi, f, depth)
    deepest = 0
    with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE["classes"]):
        assert _json(defect_profile(fresh)) == _json(ref_defect_profile(t))
        assert fresh.levels.built == 0
        for gap in range(4):
            got, want = check_D2(fresh, gap), ref_check_D2(t, gap)
            assert _json(got) == _json(want) and got.unbridged == want.unbridged
            deepest = max([deepest] + [max(len(u), len(v)) for u, v in got.unbridged])
            assert fresh.levels.built == deepest


@pytest.mark.parametrize("name, depth", [("factor_phase_blocked.json", 9),
                                         ("factor_phase_blocked.json", 12),
                                         ("factor_phase_blocked.json", 15),
                                         ("factor_phase_blocked.json", 18),
                                         ("factor_phase_blocked.json", 28),
                                         ("factor_phase_blocked.json", 40),
                                         ("factor_collapse.json", 14),
                                         ("factor_collapse.json", 40)])
def test_profile_and_bridges_build_no_level(name, depth):
    """profile-cnm's scans (defect_profile, check_D2 at gap 3) read class
    rows alone, whether or not the forward rows pay for the verdict (on
    phase-blocked they do not from depth 9 to 15): neither walks a fiber
    row or builds a level, and pairs_checked comes from the language
    counts; below depth 28 the reports equal the word scans'."""
    t = _fixture_table(name, depth)
    walks = (t.classes.fwd, t.classes.bwd)
    got = [_json(defect_profile(t)), _json(check_D2(t, 3))]
    assert [len(walk.rows) for walk in walks] == [1, 1]
    assert t.levels.built == 0
    if depth < 28:
        with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE["words"]):
            words = _fixture_table(name, depth)
            assert [_json(defect_profile(words)), _json(check_D2(words, 3))] == got


def test_unbridged_pairs_still_name_their_words():
    """Phase-blocked at gap 0 leaves pairs unbridged: the class path spells
    the same words as the oracle, building the levels through the deepest
    depth of a pair and no further."""
    t = _fixture_table("factor_phase_blocked.json", 9)
    want = ref_check_D2(t, 0)
    fresh = _fixture_table("factor_phase_blocked.json", 9)
    got = check_D2(fresh, 0)
    assert want.unbridged and got.unbridged == want.unbridged
    assert _json(got) == _json(want)
    assert fresh.levels.built == max(max(len(u), len(v)) for u, v in got.unbridged) < 9


def test_class_path_yields_where_it_reads_more_than_the_words(monkeypatch):
    """At depth 2 the golden mean's 2 x 2 class pairs outnumber its 3 words:
    the class scans decline, and the reports come from the word kernels."""
    t = _fixture_table("factor_identity_goldenmean.json", 2)
    assert t.classes.defect_row(1) is None and t.classes.bridges(0) is None
    assert t.classes.bridges(1) == {}  # no (n, m) fits under a gap of 1
    calls = []
    monkeypatch.setattr(seqtable, "_splits", lambda t, first=1: calls.append(first) or iter(()))
    defect_profile(t)
    assert calls == [1]


def test_scans_promote_past_int64():
    """g_n = 5^n passes 2^53 at n = 23 and 2^63 at n = 28."""
    full5 = Sft.full_shift(["1", "2", "3", "4", "5"])
    pi = OneBlockFactor(full5, {s: "a" for s in "12345"})
    t = build_g_table(pi, LocallyConstantPotential.zero(full5), 30)
    assert t.exact_value(30, (0,) * 30) == 5 ** 30
    assert t.levels[27].num.dtype == "int64" and t.levels[28].num.dtype == object
    assert_scans_match(t, gaps=(0, 3))
    assert set(defect_profile(t).exact_c.values()) == {1}


@pytest.mark.parametrize("seed", range(6))
def test_exact_scans_decide_beyond_float_resolution(seed):
    """Values base^n + small offsets (some over 3) on the full 2-shift: the
    float logs at depth 2 cannot tell them apart, the values pass 2^63 at
    depth 3 and the cross products pass it at every depth."""
    rng = random.Random(seed)
    full2 = Sft.full_shift(["a", "b"])
    base = 2 ** 26
    t = exact_table(full2, {n: {w: Fraction(base ** n + rng.randint(0, 5), rng.choice((1, 1, 3)))
                                for w in full2.blocks(n)} for n in (1, 2, 3)})
    assert t.levels[2].num.dtype == "int64" and t.levels[3].num.dtype == object
    assert_scans_match(t, gaps=(0, 1))


def test_exact_scans_are_not_decided_by_floats():
    """f_2(w) = f_1^2 + offset(w) near 2^62: the floats see an additive
    table, so the float filter's candidate for C_{1,1} is the first word,
    and the cross products that overturn it pass 2^63."""
    full2 = Sft.full_shift(["a", "b"])
    a = 2 ** 31 - 1
    offsets = {(0, 0): 0, (0, 1): 5, (1, 0): 3, (1, 1): 7}
    t = exact_table(full2, {1: {(0,): Fraction(a), (1,): Fraction(a)},
                            2: {w: Fraction(a * a + k) for w, k in offsets.items()}})
    assert defect_profile(t).exact_c[(1, 1)] == 1 + Fraction(7, a * a)
    assert_scans_match(t)


def _verdicts(pi, f, depth, **kw):
    """(lazy, built): table_verdict's report on a g-table read as the
    verdict needs, and on the same table with every level built first."""
    lazy, full = build_g_table(pi, f, depth), build_g_table(pi, f, depth)
    full.levels[depth]
    got = json.dumps(table_verdict(lazy, **kw).as_dict(), sort_keys=True)
    want = json.dumps(table_verdict(full, **kw).as_dict(), sort_keys=True)
    assert full.levels.built == depth
    return lazy, got, want


def _candidate(img, r, kind, rng):
    """None (fit h), or an exact (base 2) or float candidate of range r."""
    if kind == "fit":
        return None
    windows = img.blocks(r)
    if kind == "float":
        return LocallyConstantPotential(img, r, {w: rng.uniform(-1, 1) for w in windows})
    coeffs = {w: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for w in windows}
    return LocallyConstantPotential(img, r, {w: float(c) * math.log(2) for w, c in coeffs.items()},
                                    exact_coeffs=coeffs, exact_base=2)


@settings(max_examples=40, deadline=None)
@given(factor=small_factors(), f_range=st.integers(1, 3), r=st.integers(1, 3),
       kind=st.sampled_from(["fit", "exact", "float"]), short_fits=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_lazy_verdicts_match_built_tables(factor, f_range, r, kind, short_fits, seed):
    """Random domains, reducible ones included, zero potentials of range 1-3
    and fit ranges 1-3, with a fitted h and with given exact and float
    candidates: the verdict on a g-table read lazily equals the verdict
    with every level built (short fits leave most levels unbuilt).  On a
    table with no level built, the power base, the uniform defects of both
    candidates and the periodic defects read the fiber rows alone and equal
    the built table's."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    f = LocallyConstantPotential(dom, f_range, dict.fromkeys(dom.blocks(f_range), 0.0))
    depth, rng = 7, random.Random(seed)
    hs = {kind: _candidate(pi.image, r, kind, rng) for kind in ("fit", "exact", "float")}
    lazy, got, want = _verdicts(pi, f, depth, h=hs[kind], r=r,
                                n_fits=list(range(r, r + 2)) if short_fits else None)
    assert got == want
    full, fresh = build_g_table(pi, f, depth), build_g_table(pi, f, depth)
    full.levels[depth]
    assert fresh.power_base == full.power_base
    for h in (hs["exact"], hs["float"]):
        for exact in (False, True):
            assert detect.uniform_defects(fresh, h, exact) == detect.uniform_defects(full, h, exact)
        for y in detect.image_periodic_points(pi.image, 3):
            j = depth // y.period
            assert detect.orbit_defects(fresh, h, y, j) == detect.orbit_defects(full, h, y, j)
    assert fresh.levels.built == 0


@pytest.mark.parametrize("kind", ["fit", "exact", "float"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name, depth, short_fits", [("factor_collapse.json", 12, False),
                                                     ("factor_phase_blocked.json", 18, False),
                                                     ("factor_amalgamation.json", 10, False),
                                                     ("factor_full4_abc.json", 9, True)])
def test_lazy_verdicts_on_fixtures_read_rows_past_the_fit_depth(name, depth, short_fits, r,
                                                                 kind):
    """Past the fit depth the fiber rows serve: the verdict leaves the
    levels past FIT_DEPTH unbuilt and equals the verdict on the built
    table (the full-4 factor fits at depths r and r + 1 only: its default
    fits hold 6561 words at depth 8)."""
    pi = load_factor(read_json(FIXTURES / name))
    lazy, got, want = _verdicts(pi, LocallyConstantPotential.zero(pi.domain), depth,
                                h=_candidate(pi.image, r, kind, random.Random(r)), r=r,
                                n_fits=[r, r + 1] if short_fits else None)
    assert got == want
    assert lazy.rows is not None
    assert lazy.levels.built <= seqtable.FIT_DEPTH


@pytest.mark.parametrize("trans", [STERN_BROCOT, CALKIN_WILF])
@pytest.mark.parametrize("r, kind", [(1, "fit"), (2, "exact"), (1, "float")])
def test_rows_decline_where_every_word_has_its_own(trans, r, kind):
    """On the Stern-Brocot and Calkin-Wilf factors the fiber rows are 18%
    and 50% of the words at depth 12, more than a row's cost allows: the
    row walk declines, and the power base and the uniform defects read the
    words."""
    dom = Sft(["1", "2", "3", "4"], trans)
    pi = OneBlockFactor(dom, ["a", "a", "b", "b"])
    f = LocallyConstantPotential.zero(dom)
    h = _candidate(pi.image, r, "exact" if kind == "fit" else kind, random.Random(3))
    lazy, got, want = _verdicts(pi, f, 12, h=None if kind == "fit" else h, r=r)
    assert got == want
    assert lazy.rows is None
    full = build_g_table(pi, f, 12)
    full.levels[12]
    for exact in (False, True):
        assert detect.uniform_defects(lazy, h, exact) == detect.uniform_defects(full, h, exact)
    assert lazy.power_base == full.power_base
    assert lazy.levels.built == 12


@pytest.mark.parametrize("name, depth, built", [("factor_collapse.json", 14, 8),
                                                ("factor_phase_blocked.json", 18, 0)])
def test_verdict_builds_no_level_past_the_fit_depth(name, depth, built):
    """table_verdict(r=1) builds the collapse table to depth 8 (the fits),
    and refutes phase-blocked from its classes with no level built: the
    resumed walk has produced only those levels."""
    pi = load_factor(read_json(FIXTURES / name))
    t = build_g_table(pi, LocallyConstantPotential.zero(pi.domain), depth)
    assert t.levels.built == 0
    table_verdict(t, r=1)
    assert t.levels.built == built


@pytest.mark.parametrize("depth", [18, 28])
def test_refuting_verdict_reads_the_first_profile_row(depth):
    """Phase-blocked's first profile row already grows: table_verdict(r=1)
    refutes from row 1 alone, growing the forward classes through depth 1
    and the backward ones through depth - 1, with no fiber row and no
    level."""
    t = _fixture_table("factor_phase_blocked.json", depth)
    report = table_verdict(t, r=1)
    assert report.verdict.value == "REFUTED" and report.profile_witness["n"] == 1
    assert [len(t.classes.fwd.prim), len(t.classes.bwd.prim)] == [2, depth]
    assert len(t.classes.fwd.rows) == len(t.classes.bwd.rows) == 1
    assert t.levels.built == 0


def _declines_from(k):
    """A word-scan cost that keeps the bridges and the profile rows before
    row k on the classes and declines the rows from k on."""
    return lambda self, cells, gap: math.inf if cells[0][0] < k else 0


def assert_growth_exits_early(pi, f, depth, slope_threshold=DEFAULT_SLOPE_THRESHOLD):
    """The verdict's early-exit growth flag and witness equal the whole
    profile's, with the profile rows on the classes, on the words, and
    handed from the classes to the words at rows 2 and depth // 2; the
    handed-over profile equals the one the gates choose."""
    want = _json(defect_profile(build_g_table(pi, f, depth), slope_threshold))
    costs = {"classes": FORCE["classes"], "words": FORCE["words"],
             2: _declines_from(2), depth // 2: _declines_from(depth // 2)}
    for path, cost in costs.items():
        with mock.patch.object(seqtable._FiberClasses, "_scan_cost", cost):
            report = table_verdict(build_g_table(pi, f, depth), r=1,
                                   slope_threshold=slope_threshold)
            firsts, real = [], seqtable._splits

            def spied(t, first=1):
                firsts.append(first)
                return real(t, first)

            with mock.patch.object(seqtable, "_splits", spied):
                profile = defect_profile(build_g_table(pi, f, depth), slope_threshold)
        assert (report.profile_growth, report.profile_witness) == \
            (profile.growth, profile.witness), path
        assert _json(profile) == want, path
        assert firsts == {"classes": [], "words": [1]}.get(path, [path]), path


@settings(max_examples=30, deadline=None)
@given(factor=small_factors(), f_range=st.integers(1, 3),
       slope_threshold=st.sampled_from([DEFAULT_SLOPE_THRESHOLD, 0.01, 0.2]))
@example(factor=([[1, 0, 1], [0, 1, 1], [0, 0, 1]], ["c", "a", "a"]), f_range=1,
         slope_threshold=0.2)
def test_early_growth_exit_matches_the_profile(factor, f_range, slope_threshold):
    """Random domains of at most 4 symbols and zero potentials of range 1 to
    3 at depth 7: ``assert_growth_exits_early``.  The example's rows 1 and
    2 do not fire and row 3 does, so its witness comes from the words when
    the rows decline from row 2 or 3."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    f = LocallyConstantPotential(dom, f_range, dict.fromkeys(dom.blocks(f_range), 0.0))
    assert_growth_exits_early(OneBlockFactor(dom, targets), f, 7, slope_threshold)


@pytest.mark.parametrize("name, depth", [("factor_collapse.json", 8),
                                         ("factor_phase_blocked.json", 10),
                                         ("factor_amalgamation.json", 7),
                                         ("factor_full4_abc.json", 5),
                                         ("factor_identity_goldenmean.json", 8)])
def test_early_growth_exit_matches_the_profile_on_fixtures(name, depth):
    """The five fixtures: ``assert_growth_exits_early``."""
    pi = load_factor(read_json(FIXTURES / name))
    assert_growth_exits_early(pi, LocallyConstantPotential.zero(pi.domain), depth)


def test_keys_past_the_rows_budget_hand_over_to_the_words():
    """With range 3 the collapse keys (row, state, last two symbols) past
    the fit depth outnumber the rows: with the rows' budget cut to just
    above the rows, the key walk hands over to the words, which builds
    every level, and the defects do not change."""
    pi = load_factor(read_json(FIXTURES / "factor_collapse.json"))
    f = LocallyConstantPotential.zero(pi.domain)
    h = _candidate(pi.image, 3, "exact", random.Random(1))
    for exact in (False, True):
        t = build_g_table(pi, f, 11)
        want = detect.uniform_defects(t, h, exact)
        assert t.levels.built == 0  # read from the keys
        t.row_budget = sum(len(t.rows.g[n]) for n in range(seqtable.FIT_DEPTH + 1, 12)) + 1
        assert detect.uniform_defects(t, h, exact) == want
        assert t.levels.built == 11


@pytest.mark.parametrize("argv", [
    ["verdict", "--factor", str(FIXTURES / "factor_collapse.json"), "--depth", "14",
     "--range", "1"],
    ["verdict", "--factor", str(FIXTURES / "factor_phase_blocked.json"), "--depth", "18"],
    ["profile-cnm", "--factor", str(FIXTURES / "factor_phase_blocked.json"), "--depth", "18"],
])
def test_one_transfer_build_per_factor_potential_and_state_lengths(argv, tmp_path, monkeypatch):
    """A command builds each step of its representations once: one
    ``_transfer`` per (factor, potential, source length, target length)."""
    built = []  # holds the factors and potentials, so their ids stay unique
    real = seqtable._transfer

    def counted(pi, f, src_len, dst_len):
        built.append((pi, f, src_len, dst_len))
        return real(pi, f, src_len, dst_len)

    monkeypatch.setattr(seqtable, "_transfer", counted)
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    keys = [(id(pi), id(f), src_len, dst_len) for pi, f, src_len, dst_len in built]
    assert keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("name, depth", [("factor_collapse.json", 14),
                                         ("factor_phase_blocked.json", 12),
                                         ("factor_phase_blocked.json", 18)])
def test_one_row_walk_per_direction(name, depth, monkeypatch):
    """defect_profile, check_D2 and table_verdict on one exact g-table share
    one forward and one backward walk.  The profile and check_D2 at gap 3
    walk no fiber row, and the verdict walks the forward rows through the
    table depth on collapse (where they pay past the fit depth) and none on
    phase-blocked (it refutes from the classes; at depth 12 the rows would
    not pay)."""
    walks = []
    real = seqtable._Rows.__init__

    def counted(self, *args):
        walks.append(self)
        real(self, *args)

    def walked():
        return [len(walk.rows) - 1 for walk in walks]

    monkeypatch.setattr(seqtable._Rows, "__init__", counted)
    t = _fixture_table(name, depth)
    defect_profile(t)
    check_D2(t, 3)
    assert walked() == [0, 0]
    table_verdict(t, r=1)
    assert walks == [t.classes.fwd, t.classes.bwd]
    assert walked() == ([depth, 0] if name == "factor_collapse.json" else [0, 0])
    assert (t.rows is None) == (depth == 12)
