"""The table scans (check_D2, defect_profile) against the nested word loops
they replaced, kept here as reference oracles: every report must
serialize to the same JSON.  Exact g-tables take the fiber-class path
(``SeqTable.classes``) when their class products are fewer than the word
scan's cells, float and dict-built tables the word kernels; the oracles
cover both, and exact tables are checked on each path forced, with their
levels built and with none built.  Verdicts on exact g-tables, which read
their values from their fiber rows (``SeqTable.rows``), must equal the
verdicts on the same tables rebuilt from their dict views, each word its
own row.  On exact tables the D2 oracle takes each cell's least ratio in
Fractions, so both paths must report its log_fraction bit for bit.  Exact
g-tables whose fiber counts have Hankel rank 1 yield their profile rows
with no scan; their ranks are checked against the Hankel matrix of the
fiber-count oracle, and both scan kernels are run on them directly."""

import functools
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
from thermoshift.factor import _Rows, fiber_words
from thermoshift.jsonio import load_factor, read_json
from thermoshift.numerics import log_fraction, row_reduce
from thermoshift.seqtable import D2Report, DefectProfile
from thermoshift.shiftcore import Sft
from thermoshift.verdicts import DEFAULT_SLOPE_THRESHOLD, decays_to_zero, growth_flag

from conftest import small_factors, symbol_weights

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
    """Exact table with the given positive integer values; logs from
    log_fraction."""
    return SeqTable(lang.alphabet,
                    {n: {w: log_fraction(v) for w, v in level.items()}
                     for n, level in values.items()},
                    exact=values, language=lang)


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
    # few distinct values, so ties decide the witnesses: 2^k, |k| <= 3, at
    # each depth n scaled by 2^{3n} to an integer (C_{n,m} does not move)
    tables.append(exact_table(img, {n: {w: 2 ** (rng.randint(-3, 3) + 3 * n)
                                        for w in img.blocks(n)}
                                    for n in range(1, depth + 1)}))
    for t in tables:
        assert_scans_match(t, gaps=range(4))


@settings(max_examples=40, deadline=None)
@given(factor=small_factors())
def test_counting_reach_is_the_support(factor):
    """Counting walks step with no edge mask: their transitions are exactly
    their positive weights, so what a row reaches is its support.  The
    exact rows and both class walks of a zero potential, walked again with
    (M, M > 0) steps, keep the same rows, next and g at every depth."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    t = build_g_table(OneBlockFactor(dom, targets), LocallyConstantPotential.zero(dom), 6)
    for walk in (t.rows, t.classes.fwd, t.classes.bwd):
        def masked(n, steps=walk._steps):
            m, edge = steps(n)
            assert edge is None
            return m, m > 0

        twin = _Rows(walk.rows[0], masked, walk._value, walk._primitive)
        for n in range(1, 7):
            a, b = walk.to(n), twin.to(n)
            for x, y in ((a.rows[-1], b.rows[-1]), (a.next[-1], b.next[-1]),
                         (getattr(a.g[n], "num", a.g[n]), getattr(b.g[n], "num", b.g[n]))):
                assert x.dtype == y.dtype and np.array_equal(x, y), n


def _fixture_table(name, depth):
    pi = load_factor(read_json(FIXTURES / name))
    return build_g_table(pi, LocallyConstantPotential.zero(pi.domain), depth)


def _class_rows(t, side):
    """The forward ("fwd") or backward ("bwd") class rows of t at every
    depth through the table depth."""
    return getattr(t.classes, side).to(t.depth_max).rows


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
    monkeypatch.setattr("thermoshift.factor.INT64_MAX", 10)
    for rows in (_class_rows(t, "fwd"), _class_rows(t, "bwd")):
        promoted = [r.dtype == object for r in rows]
        assert promoted == sorted(promoted) and not promoted[1] and promoted[-1]
    assert [_json(defect_profile(t))] + [_json(check_D2(t, gap)) for gap in range(4)] == want


def test_collapse_stays_on_int64_at_depth_40(monkeypatch):
    """The walks promote per step, so the collapse class rows and the
    forward rows through depth 40 (at most 3 2^40, against 3^40 domain
    words) stay in int64, and the reports equal those of the walks forced
    onto Python ints."""
    t = _fixture_table("factor_collapse.json", 40)
    got = [_json(defect_profile(t)), _json(check_D2(t, 3))]
    classes = _class_rows(t, "fwd") + _class_rows(t, "bwd")
    assert all(x.dtype == np.int64 for x in classes + t.classes.fwd.g[1:] + t.classes.bwd.g[1:])
    assert t.levels.built == 0
    assert all(v.dtype == np.int64
               for v in [t.rows.to(40).rows[-1]] + [g.num for g in t.rows.g[1:]])
    monkeypatch.setattr(seqtable, "INT64_MAX", 10)
    monkeypatch.setattr("thermoshift.factor.INT64_MAX", 10)
    forced = _fixture_table("factor_collapse.json", 40)
    assert [_json(defect_profile(forced)), _json(check_D2(forced, 3))] == got
    assert forced.rows.to(40).rows[-1].dtype == object


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
    The class walks step none of the table's fiber rows; those, as many as
    the forward classes at each depth, are walked only as deep as the
    levels the word scans read."""
    t = _two_block_table(trans, 12)
    assert [len(x) for x in _class_rows(t, "fwd")[1:]] == forward
    assert [len(y) for y in _class_rows(t, "bwd")[1:]] == backward
    assert len(t.rows.g) == 1
    assert [len(lv) for lv in t.levels[1:5]] == [2 ** n for n in range(1, 5)]
    assert len(t.rows.g) == 5
    assert [len(lv) for lv in t.levels[1:]] == [2 ** n for n in range(1, 13)]
    assert [len(g) for g in t.rows.g[1:]] == forward
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
    rows alone: neither steps the table's fiber rows or builds a level,
    and pairs_checked comes from the language counts; below depth 28 the
    reports equal the word scans'."""
    t = _fixture_table(name, depth)
    got = [_json(defect_profile(t)), _json(check_D2(t, 3))]
    assert len(t.rows.g) == 1
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
    """Values base^n + small offsets (some over 3) on the full 2-shift,
    scaled by 3^n at depth n to integers (C_{n,m} does not move): the float
    logs at depth 2 cannot tell them apart, the values pass 2^63 at depth 3
    and the cross products pass it at every depth."""
    rng = random.Random(seed)
    full2 = Sft.full_shift(["a", "b"])
    base = 2 ** 26
    t = exact_table(full2, {n: {w: 3 ** n * (base ** n + rng.randint(0, 5)) // rng.choice((1, 1, 3))
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


def _word_table(pi, f, depth):
    """A g-table rebuilt from its dict views, as a table built from dicts:
    every level built and each word its own row, so that every read
    (values, power base, uniform and periodic defects, scans) takes the
    words."""
    t = build_g_table(pi, f, depth)
    return SeqTable(t.alphabet, t.logs, t.exact, kind=t.kind, language=t.language,
                    potential=t.potential)


def _verdicts(pi, f, depth, **kw):
    """(lazy, built): table_verdict's report on a g-table read as the
    verdict needs, and on the same table read from its words
    (``_word_table``)."""
    lazy, full = build_g_table(pi, f, depth), _word_table(pi, f, depth)
    got = json.dumps(table_verdict(lazy, **kw).as_dict(), sort_keys=True)
    want = json.dumps(table_verdict(full, **kw).as_dict(), sort_keys=True)
    assert len(full.levels) == depth + 1 and full.classes is None
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
    on the same table read from its words (short fits leave most levels
    unbuilt).  On a
    table with no level built, the power base, the uniform defects of both
    candidates and the periodic defects read the fiber rows alone and equal
    those read from the words."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    f = LocallyConstantPotential(dom, f_range, dict.fromkeys(dom.blocks(f_range), 0.0))
    depth, rng = 7, random.Random(seed)
    hs = {kind: _candidate(pi.image, r, kind, rng) for kind in ("fit", "exact", "float")}
    lazy, got, want = _verdicts(pi, f, depth, h=hs[kind], r=r,
                                n_fits=list(range(r, r + 2)) if short_fits else None)
    assert got == want
    full, fresh = _word_table(pi, f, depth), build_g_table(pi, f, depth)
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
    levels past FIT_DEPTH unbuilt, walks the rows through the table depth
    (phase-blocked, refuted from its classes, not at all) and equals the
    verdict on the built table read from its words (the full-4 factor fits
    at depths r and r + 1 only: its default fits hold 6561 words at depth
    8)."""
    pi = load_factor(read_json(FIXTURES / name))
    lazy, got, want = _verdicts(pi, LocallyConstantPotential.zero(pi.domain), depth,
                                h=_candidate(pi.image, r, kind, random.Random(r)), r=r,
                                n_fits=[r, r + 1] if short_fits else None)
    assert got == want
    assert len(lazy.rows.g) - 1 == (0 if name == "factor_phase_blocked.json" else depth)
    assert lazy.levels.built <= seqtable.FIT_DEPTH


@pytest.mark.parametrize("trans", [STERN_BROCOT, CALKIN_WILF])
@pytest.mark.parametrize("r, kind", [(1, "fit"), (2, "exact"), (1, "float")])
def test_rows_serve_where_every_word_has_its_own(trans, r, kind):
    """On the Stern-Brocot and Calkin-Wilf factors the fiber rows are 18%
    and 50% of the words at depth 12: the verdict, the power base and the
    uniform defects read from them equal those read from the words."""
    dom = Sft(["1", "2", "3", "4"], trans)
    pi = OneBlockFactor(dom, ["a", "a", "b", "b"])
    f = LocallyConstantPotential.zero(dom)
    h = _candidate(pi.image, r, "exact" if kind == "fit" else kind, random.Random(3))
    lazy, got, want = _verdicts(pi, f, 12, h=None if kind == "fit" else h, r=r)
    assert got == want
    full = _word_table(pi, f, 12)
    for exact in (False, True):
        assert detect.uniform_defects(lazy, h, exact) == detect.uniform_defects(full, h, exact)
    assert lazy.power_base == full.power_base


@pytest.mark.parametrize("name, depth, built", [("factor_identity_goldenmean.json", 14, 8),
                                                ("factor_collapse.json", 14, 1),
                                                ("factor_phase_blocked.json", 18, 0)])
def test_verdict_builds_no_level_past_the_fit_depth(name, depth, built):
    """table_verdict(r=1) builds the identity golden-mean table (Hankel rank
    2) to depth 8, the fits; on collapse (rank 1) its fits read level 1
    alone; it refutes phase-blocked from its classes with no level built:
    the resumed walk has produced only those levels."""
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
    level.  Its image is not the full shift (3 words of length 2), so no
    Hankel rank is computed."""
    t = _fixture_table("factor_phase_blocked.json", depth)
    report = table_verdict(t, r=1)
    assert report.verdict.value == "REFUTED" and report.profile_witness["n"] == 1
    assert [len(t.classes.fwd.rows), len(t.classes.bwd.rows)] == [2, depth]
    assert len(t.rows.g) == 1
    assert t.levels.built == 0
    assert "rank" not in vars(seqtable._representation(t.factor, t.potential))


@pytest.mark.parametrize("name, rank", [("factor_collapse.json", 1),
                                        ("factor_amalgamation.json", 1),
                                        ("factor_full4_abc.json", 1),
                                        ("factor_identity_goldenmean.json", 2),
                                        ("factor_phase_blocked.json", 5),
                                        ("factor_calkin_wilf.json", 3)])
def test_hankel_rank_of_fixtures(name, rank):
    """The Hankel rank of each fixture's fiber counts."""
    pi = load_factor(read_json(FIXTURES / name))
    assert seqtable._representation(pi, LocallyConstantPotential.zero(pi.domain)).rank == rank


@settings(max_examples=30, deadline=None)
@given(factor=small_factors(), f_range=st.integers(1, 3))
@example(factor=([[1, 1], [1, 1]], ["a", "a"]), f_range=2)
@example(factor=([[1, 1, 1], [1, 1, 1], [1, 1, 1]], ["a", "b", "b"]), f_range=3)
@example(factor=([[1, 1, 1, 1]] * 4, ["a", "b", "c", "a"]), f_range=1)
def test_hankel_rank_matches_the_fiber_count_oracle(factor, f_range):
    """Random domains and zero potentials of range 1 to 3: the Hankel rank
    equals the rank, by ``row_reduce``, of H[u, v] = |fiber_words(uv)| over
    the image words u, v shorter than the representation's dimension D
    (the forward and backward spans are reached by then).  On a rank-1
    table the class scan and the word scan, each run directly, give C_{n,m}
    = 1 in every cell: the scans that its profile skips.  Rank 1 needs
    g(ab) = g(a) g(b) for symbols a, b, so every domain transition, and
    random domains are rarely full shifts: the examples are."""
    trans, targets = factor
    dom = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(dom, targets)
    f = LocallyConstantPotential(dom, f_range, dict.fromkeys(dom.blocks(f_range), 0.0))
    rep = seqtable._representation(pi, f)
    words = [()] + [w for n in range(1, rep.start.shape[1]) for w in pi.image.blocks(n)]
    count = functools.lru_cache(maxsize=None)(lambda y: len(fiber_words(pi, y)))
    hankel = [[count(u + v) for v in words] for u in words]
    assert rep.rank == len(row_reduce(hankel, len(words))[0])
    depth = 6
    t = build_g_table(pi, f, depth)
    assert seqtable._multiplicative(t) == (rep.rank == 1)
    if rep.rank == 1:
        with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE["classes"]):
            for n in range(1, depth):
                assert t.classes.defect_row(n) == dict.fromkeys(range(1, depth - n + 1), 1)
        for total, n, _, (v, ab) in seqtable._splits(t):
            assert np.array_equal(v, ab), (total, n)


def test_rank_one_verdict_scans_no_profile_row(monkeypatch):
    """Collapse has Hankel rank 1, so every C_{n,m} is 1: table_verdict at
    depth 14 certifies with no class row (``defect_row`` is not called and
    no class grows) and no word scan, and equals the verdict on the table
    read from its words."""
    rows = []
    monkeypatch.setattr(seqtable._FiberClasses, "defect_row", lambda self, n: rows.append(n))
    pi = load_factor(read_json(FIXTURES / "factor_collapse.json"))
    lazy, got, want = _verdicts(pi, LocallyConstantPotential.zero(pi.domain), 14, r=1)
    assert got == want and json.loads(got)["verdict"] == "CERTIFIED"
    assert rows == [] and "classes" not in vars(lazy)


def _declines_from(k):
    """A word-scan cost that keeps the bridges and the profile rows before
    row k on the classes and declines the rows from k on."""
    return lambda self, cells, gap: math.inf if cells[0][0] < k else 0


def assert_growth_exits_early(pi, f, depth, slope_threshold=DEFAULT_SLOPE_THRESHOLD):
    """The verdict's early-exit growth flag and witness equal the whole
    profile's, with the profile rows on the classes, on the words, and
    handed from the classes to the words at rows 2 and depth // 2; the
    handed-over profile equals the one the gates choose.  Where the fiber
    counts have Hankel rank 1 no row is scanned on any path."""
    want = _json(defect_profile(build_g_table(pi, f, depth), slope_threshold))
    multiplicative = seqtable._representation(pi, f).rank == 1
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
        assert firsts == ([] if multiplicative else
                          {"classes": [], "words": [1]}.get(path, [path])), path


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


@pytest.mark.parametrize("argv, zero_range", [
    (["verdict", "--factor", str(FIXTURES / "factor_collapse.json"), "--depth", "14",
      "--range", "1"], None),
    (["verdict", "--factor", str(FIXTURES / "factor_collapse.json"), "--depth", "10",
      "--range", "1"], 3),
    (["verdict", "--factor", str(FIXTURES / "factor_phase_blocked.json"), "--depth", "18"], None),
    (["profile-cnm", "--factor", str(FIXTURES / "factor_phase_blocked.json"), "--depth", "18"],
     None),
    (["pressure", "--factor", str(FIXTURES / "factor_collapse.json"), "--depth", "12"], None),
    (["pressure", "--sft", str(FIXTURES / "sft_full2.json"), "--depth", "8",
      "--potential", str(FIXTURES / "potential_r2_full2.json")], None),
    (["pressure", "--factor", str(FIXTURES / "factor_amalgamation.json"), "--depth", "6",
      "--mode", "float"], None),
])
def test_one_representation_per_factor_and_potential(argv, zero_range, tmp_path, monkeypatch):
    """A command builds one ``_Representation``, and every walk of its
    (factor, potential) reads it: ``pressure`` too, whose Z_n walk and
    ``log_perron`` share the shift's one total collapse.  Under a zero
    potential of range 3 (``zero_range``) the g-table's representation has
    the 1-block states and the start last, whatever the range: G_b[i, j] =
    1 when domain symbol j lies over b and may follow i, G_b[start, j] = 1
    when j lies over b.  For every representation built, ``log_perron``'s
    W is its s-band block summed over the image symbols: the domain's
    transfer matrix, whatever the factor."""
    built = []
    real = seqtable._Representation.__init__

    def counted(self, pi, f):
        built.append((pi, f, self))
        real(self, pi, f)

    if zero_range is not None:
        dom = load_factor(read_json(argv[2])).domain
        values = {"".join(dom.alphabet[x] for x in w): 0.0 for w in dom.blocks(zero_range)}
        (tmp_path / "zero.json").write_text(json.dumps({"range": zero_range, "values": values}))
        argv = argv + ["--potential", str(tmp_path / "zero.json")]
    monkeypatch.setattr(seqtable._Representation, "__init__", counted)
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(built) == 1
    for pi, f, rep in built:
        _, w, _, _, s = seqtable.log_perron(f)
        band = rep.bands[rep.s]
        assert s == rep.s and np.array_equal(w, rep.m[band, :, band].sum(axis=1))
    if zero_range is not None:
        [(pi, f, rep)] = [(pi, f, rep) for pi, f, rep in built
                          if f.range == zero_range and pi.image_alphabet == ("a", "b")]
        d = pi.domain.size
        assert rep.s == 1 and rep.bands == {1: slice(0, d), 0: slice(d, d + 1)}
        assert np.array_equal(rep.start, np.eye(1, d + 1, d))
        want = np.zeros((d + 1, 2, d + 1), np.int64)
        for j in range(d):
            want[d, pi.symbol_map[j], j] = 1
            for i in range(d):
                want[i, pi.symbol_map[j], j] = pi.domain.follows(i, j)
        assert np.array_equal(rep.m, want) and np.array_equal(rep.edge, want > 0)


@pytest.mark.parametrize("name, depth", [("factor_collapse.json", 14),
                                         ("factor_phase_blocked.json", 12),
                                         ("factor_phase_blocked.json", 18)])
def test_one_row_walk_per_direction(name, depth, monkeypatch):
    """defect_profile, check_D2 and table_verdict on one exact g-table share
    the table's fiber rows and one class walk per direction.  The profile
    and check_D2 at gap 3 step none of the table's rows, and the verdict
    steps them through the table depth on collapse and not at all on
    phase-blocked (it refutes from the classes)."""
    walks = []
    real = seqtable._Rows.__init__

    def counted(self, *args, **kw):
        walks.append(self)
        real(self, *args, **kw)

    monkeypatch.setattr(seqtable._Rows, "__init__", counted)
    t = _fixture_table(name, depth)
    defect_profile(t)
    check_D2(t, 3)
    assert walks == [t.rows, t.classes.fwd, t.classes.bwd]
    assert len(t.rows.g) == 1
    table_verdict(t, r=1)
    assert walks == [t.rows, t.classes.fwd, t.classes.bwd]
    assert len(t.rows.g) - 1 == (depth if name == "factor_collapse.json" else 0)


@pytest.mark.parametrize("name, built", [("factor_identity_goldenmean.json", seqtable.FIT_DEPTH),
                                         ("factor_collapse.json", 1)])
def test_one_forward_row_walk_serves_levels_classes_and_reads(monkeypatch, name, built):
    """An exact g-table steps one walk of its forward fiber rows: the
    verdict's levels through the fit depth (level 1 alone on collapse,
    whose rank-1 fits are closed-form) and the values it reads past the fit
    depth (power base, uniform and periodic defects) all come from the rows
    made with the table, each depth stepped once and in order; the only
    other walks are the classes'."""
    made = []
    real_init = seqtable._Rows.__init__

    def init(self, *args, **kw):
        made.append(self)
        real_init(self, *args, **kw)

    monkeypatch.setattr(seqtable._Rows, "__init__", init)
    t = _fixture_table(name, 14)
    assert made == [t.rows] and len(t.rows.g) == 1
    stepped, steps = [], t.rows._steps
    t.rows._steps = lambda n: stepped.append(n) or steps(n)
    assert table_verdict(t, r=1).verdict.value == "CERTIFIED"
    assert t.levels.built == built
    assert made == [t.rows, t.classes.fwd, t.classes.bwd]
    assert stepped == list(range(1, 15)) and len(t.rows.g) == 15
