"""The table scans (check_subadditive, check_D2, defect_profile) against
the nested word loops they replaced, kept here as reference oracles: every
report must serialize to the same JSON.  Exact g-tables take the fiber-class
path (``SeqTable.classes``) when their class products are fewer than the
word scan's cells, float and dict-built tables the word kernels; the
oracles cover both, and exact tables are checked on each path forced."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor, SeqTable,
                         build_g_table, check_D2, check_subadditive,
                         defect_profile, seqtable)
from thermoshift.jsonio import load_factor, read_json
from thermoshift.numerics import log_fraction
from thermoshift.seqtable import D2Report, DefectProfile, SubadditivityReport
from thermoshift.shiftcore import Sft
from thermoshift.verdicts import DEFAULT_SLOPE_THRESHOLD, decays_to_zero, growth_flag

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ref_check_subadditive(t, tol=1e-12):
    worst = float("-inf")
    witness = None
    for total in range(2, t.depth_max + 1):
        for w, lv in t.logs[total].items():
            for n in range(1, total):
                slack = lv - t.logs[n][w[:n]] - t.logs[total - n][w[n:]]
                if slack > worst:
                    worst = slack
                    witness = (n, total - n, w)
    ok = worst <= tol
    if t.is_exact:
        ok = all(v <= t.exact[n][w[:n]] * t.exact[total - n][w[n:]]
                 for total in range(2, t.depth_max + 1)
                 for w, v in t.exact[total].items() for n in range(1, total))
    return SubadditivityReport(ok, worst, witness, tol)


def _all_words(alphabet_size, k):
    if k == 0:
        yield ()
        return
    for w in _all_words(alphabet_size, k - 1):
        for b in range(alphabet_size):
            yield w + (b,)


def ref_check_D2(t, gap_cap):
    L = len(t.alphabet)
    log_d = {}
    unbridged = []
    for n in range(1, t.depth_max):
        for m in range(1, t.depth_max - n + 1):
            if n + m + gap_cap > t.depth_max:
                continue
            worst = None
            for u, lu in t.logs[n].items():
                for v, lv in t.logs[m].items():
                    best = None
                    for k in range(gap_cap + 1):
                        level = t.logs[n + m + k]
                        for w in _all_words(L, k):
                            lw = level.get(u + w + v)
                            if lw is not None and (best is None or lw - lu - lv > best):
                                best = lw - lu - lv
                    if best is None:
                        unbridged.append((u, v))
                    elif worst is None or best < worst:
                        worst = best
            if worst is not None:
                log_d[(n, m)] = worst
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
FORCE = {"classes": lambda self, top, gap: math.inf, "words": lambda self, top, gap: 0}


def assert_scans_match(t, gaps=(0,)):
    assert _json(check_subadditive(t)) == _json(ref_check_subadditive(t))
    want = [_json(ref_defect_profile(t))] + [ref_check_D2(t, gap) for gap in gaps]
    for path in [None] + (list(FORCE) if t.classes is not None else []):
        with mock.patch.object(seqtable._FiberClasses, "_scan_cost", FORCE.get(
                path, seqtable._FiberClasses._scan_cost)):
            assert _json(defect_profile(t)) == want[0], path
            for gap, ref in zip(gaps, want[1:]):
                got = check_D2(t, gap)
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
    f = LocallyConstantPotential.from_symbol_weights(full2, {"a": 0.5, "b": -0.25})
    with pytest.raises(AssertionError, match="word kernel"):
        defect_profile(build_g_table(OneBlockFactor.identity(full2), f, 4))


def test_class_path_promotes_past_int64(monkeypatch):
    """With the int64 bound lowered to 10, the class rows, and with them
    every class product and gap maximum, are Python ints, and the reports
    do not change."""
    t = _fixture_table("factor_phase_blocked.json", 9)
    want = [_json(ref_defect_profile(t))] + [_json(ref_check_D2(t, gap)) for gap in range(4)]
    monkeypatch.setattr(seqtable, "INT64_MAX", 10)
    assert all(x.dtype == object for x in t.classes.x)
    assert [_json(defect_profile(t))] + [_json(check_D2(t, gap)) for gap in range(4)] == want


@pytest.mark.parametrize("name, depth, counts", [
    ("factor_collapse.json", 18, [2] * 18),
    ("factor_full4_abc.json", 12, [3] * 12),
    ("factor_phase_blocked.json", 18, list(range(2, 20))),
])
def test_class_counts_per_level(name, depth, counts):
    """Distinct forward classes per depth: 2 of 2^18 words on collapse, 3 on
    the full-4 abc factor, n + 1 at depth n on phase-blocked (19 at 18)."""
    t = _fixture_table(name, depth)
    assert [len(x) for x in t.classes.x[1:]] == counts
    assert [len(set(ids.tolist())) for ids in t.classes.fwd[1:]] == counts


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
    the word scan's cells, and both paths match the oracles at depth 12."""
    t = _two_block_table(trans, 12)
    assert [len(lv) for lv in t.levels[1:]] == [2 ** n for n in range(1, 13)]
    assert [len(x) for x in t.classes.x[1:]] == forward
    assert [len(y) for y in t.classes.y[1:]] == backward
    assert_scans_match(t, gaps=(0, 2))


def test_class_path_yields_where_it_reads_more_than_the_words(monkeypatch):
    """At depth 2 the golden mean's 2 x 2 class pairs outnumber its 3 words:
    the class scans decline, and the reports come from the word kernels."""
    t = _fixture_table("factor_identity_goldenmean.json", 2)
    assert t.classes.defects() is None and t.classes.bridges(0) is None
    assert t.classes.bridges(1) == {}  # no (n, m) fits under a gap of 1
    calls = []
    monkeypatch.setattr(seqtable, "_splits", lambda t: calls.append(1) or iter(()))
    defect_profile(t)
    assert calls


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
    rep = check_subadditive(t)
    assert rep.worst_slack <= rep.tolerance and not rep.ok
    assert defect_profile(t).exact_c[(1, 1)] == 1 + Fraction(7, a * a)
    assert_scans_match(t)
