"""Sequence-level computations: the relative-pressure tables g_n, partition
sums and pressure estimates, subadditivity and bridging-condition checkers,
and the almost-additivity defect profile C_{n,m}.

Tables are built once per depth and immutable afterwards.  Two arithmetic
modes: exact big-integer counting (fiber cardinalities, the f = 0 path) and
floating log space.  The counting path keeps exact values alongside their
logs so downstream checks can be zero-tolerance.

The scans over split words run on a level index (``SeqTable.levels``):
per depth the words, logs, exact values as integers and the ranks of each
word's prefix and suffix one depth down, so prefixes and suffixes of any
length are chained gathers.  On exact tables floats only propose; exact
integer comparison (int64 below 2^63, Python ints past it) decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .factor import OneBlockFactor, fiber_words
from .numerics import aitken_last, common_power_base, log_fraction, logsumexp
from .potential import LocallyConstantPotential, birkhoff_sup, variation_constant
from .shiftcore import Word
from .verdicts import DEFAULT_SLOPE_THRESHOLD, TrendStats, growth_flag, decays_to_zero


class TableError(ValueError):
    pass


class SeqTable:
    """Per-depth log values of a sequence {log f_n} on cylinder words.

    ``logs[n][word]`` is log f_n on the cylinder of ``word``; ``exact`` (when
    present) holds the same values as exact Fractions.  ``log_mn`` carries
    the variation constants of the potential the table was built from (zero
    for counting tables), used by the sandwich checks.
    """

    def __init__(self, alphabet, logs, exact=None, kind="table", language=None,
                 log_mn=None, meta=None):
        self.alphabet = tuple(alphabet)
        self.logs: dict[int, dict[Word, float]] = {int(n): dict(v) for n, v in logs.items()}
        if not self.logs:
            raise TableError("table has no depths")
        self.depth_max = max(self.logs)
        for n in range(1, self.depth_max + 1):
            if n not in self.logs:
                raise TableError("missing depth %d" % n)
            if not all(map(math.isfinite, self.logs[n].values())):
                raise TableError("non-finite log value at depth %d (float under- or "
                                 "overflow)" % n)
        self.exact: dict[int, dict[Word, Fraction]] | None = None
        if exact is not None:
            self.exact = {int(n): dict(v) for n, v in exact.items()}
            if set(self.exact) != set(self.logs):
                raise TableError("exact values must cover the same depths as the logs")
            for n, vals in self.exact.items():
                if set(vals) != set(self.logs[n]):
                    raise TableError("exact values disagree with words at depth %d" % n)
                # Fractions (and ints) carry their sign in the numerator
                if not all(v.numerator > 0 for v in vals.values()):
                    raise TableError("exact values must be positive (depth %d)" % n)
        self.kind = kind
        self.language = language
        self.log_mn: dict[int, float] = dict(log_mn) if log_mn else {n: 0.0 for n in self.logs}
        self.meta = dict(meta) if meta else {}

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def words(self, n: int) -> list[Word]:
        try:
            return sorted(self.logs[n])
        except KeyError:
            raise TableError("depth %d not in table (max %d)" % (n, self.depth_max)) from None

    def log_value(self, n: int, word: Word) -> float:
        try:
            return self.logs[n][word]
        except KeyError:
            raise TableError("word %s not stored at depth %d" % (word, n)) from None

    def exact_value(self, n: int, word: Word) -> Fraction:
        if not self.is_exact:
            raise TableError("table has no exact values")
        return self.exact[n][word]

    def has_word(self, n: int, word: Word) -> bool:
        return n in self.logs and word in self.logs[n]

    @cached_property
    def power_base(self) -> int | None:
        """Common integer base b with every exact value a power of b; None
        without exact values or when there is no such base."""
        if self.exact is None:
            return None
        return common_power_base({v for level in self.exact.values() for v in level.values()})

    @cached_property
    def levels(self) -> list[_Level | None]:
        """The level index ``levels[n]``, 1 <= n <= depth_max, built on first
        use; TableError when a word's w[:-1] or w[1:] is not stored."""
        out: list[_Level | None] = [None]
        prev = {(): 0}
        for n in range(1, self.depth_max + 1):
            level = self.logs[n]
            words = list(level)
            try:
                parent = np.array([prev[w[:-1]] for w in words], dtype=np.int32)
                tail = np.array([prev[w[1:]] for w in words], dtype=np.int32)
            except KeyError as err:
                raise TableError("word %s at depth %d lacks its prefix or suffix at "
                                 "depth %d" % (err.args[0], n, n - 1)) from None
            num, den, hi = None, 1, 0
            if self.exact is not None:
                vals = [self.exact[n][w] for w in words]
                den = math.lcm(*{v.denominator for v in vals})
                nums = [v.numerator * (den // v.denominator) for v in vals]
                hi = max(nums, default=0)
                num = np.array(nums, dtype=np.int64 if hi <= _INT64_MAX else object)
            out.append(_Level(words, np.fromiter(level.values(), float, len(words)),
                              parent, tail, num, den, hi))
            prev = dict(zip(words, range(len(words))))
        return out


_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class _Level:
    """One depth: words in dict order, logs, exact values num / den (``hi``
    the largest num), and the ranks one depth down of w[:-1] and w[1:]."""

    words: list[Word]
    logs: np.ndarray
    parent: np.ndarray
    tail: np.ndarray
    num: np.ndarray | None
    den: int
    hi: int


def _ranks(levels: list, total: int, pointer: str) -> list:
    """out[j]: rank at depth j of the length-j prefix (pointer "parent") or
    suffix ("tail") of each word at depth ``total``."""
    out = [None] * (total + 1)
    out[total] = np.arange(len(levels[total].words), dtype=np.int32)
    for j in range(total, 1, -1):
        out[j - 1] = getattr(levels[j], pointer)[out[j]]
    return out


def _times(x: np.ndarray, y, bound: int) -> np.ndarray:
    """x * y elementwise, in int64 while ``bound`` caps the products below
    2^63, in Python ints past it."""
    return np.multiply(x, y, dtype=object if bound > _INT64_MAX else None)


def _splits(t: SeqTable):
    """Every split w = w[:n] w[n:] of the words at each depth total >= 2,
    one (total, n) at a time: yields (total, n, slack, exact) with the float
    slack (log f_total - log f_n) - log f_m o sigma^n per word and, on exact
    tables, exact = (v, ab), integer arrays ordered like f_total and
    f_n * f_m o sigma^n (both scaled by the three level denominators)."""
    levels = t.levels
    for total in range(2, t.depth_max + 1):
        top = levels[total]
        pre, suf = _ranks(levels, total, "parent"), _ranks(levels, total, "tail")
        for n in range(1, total):
            a, b = levels[n], levels[total - n]
            ia, ib = pre[n], suf[total - n]
            slack = (top.logs - a.logs[ia]) - b.logs[ib]
            exact = None
            if top.num is not None:
                scale = a.den * b.den
                ab = _times(a.num[ia], b.num[ib], a.hi * b.hi)
                exact = (_times(top.num, scale, top.hi * scale),
                         _times(ab, top.den, a.hi * b.hi * top.den))
            yield total, n, slack, exact


def build_g_table(pi: OneBlockFactor, f: LocallyConstantPotential,
                  depth_max: int, mode: str = "auto") -> SeqTable:
    """Relative-pressure table: log g_n(y) = log sum over the fiber of y of
    the per-cylinder sup of e^{S_n f}.

    The sup over representative choices factorizes per cylinder (each
    representative is chosen independently), so the sup of the fiber sum is
    the sum of per-cylinder sups; that is what the state-vector recursion
    accumulates.  mode "exact" demands the counting path (f = 0).
    """
    if depth_max < 1:
        raise TableError("depth_max must be >= 1")
    if f.language is not pi.domain:
        raise TableError("potential must live on the factor's domain shift")
    if mode not in ("auto", "exact", "float"):
        raise TableError("mode must be auto, exact or float")
    exact = f.is_zero and mode != "float"
    if mode == "exact" and not f.is_zero:
        raise TableError("exact counting requires f = 0")

    dom = pi.domain
    r = f.range
    s_len = max(r - 1, 1)
    fmax = f.max_value()
    n_img = len(pi.image_alphabet)

    # tail sup per (r-1)-suffix state, applied at readout (r >= 2 only)
    tails: dict[Word, float] = {}
    if r >= 2 and not exact:
        for s in dom.blocks(r - 1):
            tails[s] = birkhoff_sup(f, s)

    logs: dict[int, dict[Word, float]] = {}
    exacts: dict[int, dict[Word, Fraction]] = {}

    # frontier: image word -> {suffix state -> accumulated weight}
    frontier: dict[Word, dict[Word, object]] = {(): {(): 1 if exact else 1.0}}
    offset = 0.0
    for n in range(1, depth_max + 1):
        window_done = n >= r
        nxt: dict[Word, dict[Word, object]] = {}
        for y, states in frontier.items():
            for b in range(n_img):
                acc: dict[Word, object] = {}
                for st, val in states.items():
                    for x in pi.preimage_symbols(b):
                        if st and not dom.follows(st[-1], x):
                            continue
                        grown = st + (x,)
                        if window_done:
                            if exact:
                                mult = 1
                            else:
                                mult = math.exp(f.value(grown[-r:]) - fmax)
                            new_st = grown[-s_len:]
                            acc[new_st] = acc.get(new_st, 0) + val * mult
                        else:
                            new_st = grown[-s_len:] if len(grown) > s_len else grown
                            acc[new_st] = acc.get(new_st, 0) + val
                if acc:
                    nxt[y + (b,)] = acc
        frontier = nxt
        if window_done:
            offset += fmax
        level_logs: dict[Word, float] = {}
        level_exact: dict[Word, Fraction] = {}
        for y, states in frontier.items():
            if exact:
                total = sum(states.values())
                level_exact[y] = Fraction(total)
                level_logs[y] = log_fraction(total)
            elif r >= 2 and n >= r - 1:
                level_logs[y] = logsumexp(
                    math.log(v) + tails[st] for st, v in states.items() if v > 0
                ) + offset
            elif r == 1:
                level_logs[y] = logsumexp(math.log(v) for v in states.values() if v > 0) + offset
            else:
                # n < r-1: too short for suffix states, enumerate the fiber
                level_logs[y] = logsumexp(
                    birkhoff_sup(f, u) for u in fiber_words(pi, y)
                )
        logs[n] = level_logs
        if exact:
            exacts[n] = level_exact

    log_mn = {n: variation_constant(f, n) for n in range(1, depth_max + 1)}
    meta = {"source": "g", "domain": list(dom.alphabet), "image": list(pi.image_alphabet),
            "potential_range": r, "exact": exact}
    return SeqTable(pi.image_alphabet, logs, exact=exacts if exact else None,
                    kind="g", language=pi.image, log_mn=log_mn, meta=meta)


def build_additive_table(f: LocallyConstantPotential, depth_max: int) -> SeqTable:
    """Table of the additive sequence f_n = e^{S_n f} (per-cylinder sups).
    Exact (all values 1) on the f = 0 path."""
    if depth_max < 1:
        raise TableError("depth_max must be >= 1")
    lang = f.language
    exact = f.is_zero
    logs: dict[int, dict[Word, float]] = {}
    exacts: dict[int, dict[Word, Fraction]] = {}
    for n in range(1, depth_max + 1):
        level: dict[Word, float] = {}
        for w in lang.blocks(n):
            level[w] = 0.0 if exact else birkhoff_sup(f, w)
        logs[n] = level
        if exact:
            exacts[n] = {w: Fraction(1) for w in level}
    log_mn = {n: variation_constant(f, n) for n in range(1, depth_max + 1)}
    meta = {"source": "additive", "potential_range": f.range, "exact": exact}
    return SeqTable(lang.alphabet, logs, exact=exacts if exact else None,
                    kind="additive", language=lang, log_mn=log_mn, meta=meta)


def partition_sum(t: SeqTable, n: int) -> float:
    """log Z_n = log sum over depth-n words of the stored values."""
    if t.is_exact:
        return log_fraction(partition_sum_exact(t, n))
    return logsumexp(t.logs[n].values())


def partition_sum_exact(t: SeqTable, n: int) -> Fraction:
    if not t.is_exact:
        raise TableError("table has no exact values")
    return sum(t.exact[n].values(), Fraction(0))


@dataclass
class PressureEstimate:
    per_n: list[float]
    fekete_upper: float
    extrapolated: float
    exact_base: Fraction | None
    depth: int

    def as_dict(self):
        return {
            "per_n": self.per_n,
            "fekete_upper": self.fekete_upper,
            "extrapolated": self.extrapolated,
            "exact_base": str(self.exact_base) if self.exact_base is not None else None,
            "depth": self.depth,
        }


def pressure_estimate(t: SeqTable) -> PressureEstimate:
    """Finite-depth pressure report: the full sequence (1/n) log Z_n, the
    Fekete infimum (a rigorous upper bound for subadditive tables) and an
    accelerated estimate.  Never claims the limit itself.

    The acceleration applies Aitken's delta-squared rule to the difference
    sequence log Z_n - log Z_{n-1}, which converges geometrically for
    primitive transfer structures; on the exact counting path a geometric
    partition sequence is detected and the base reported exactly.
    """
    n_max = t.depth_max
    if n_max < 3:
        raise TableError("pressure estimates need depth_max >= 3")
    log_z = [partition_sum(t, n) for n in range(1, n_max + 1)]
    per_n = [lz / n for n, lz in zip(range(1, n_max + 1), log_z)]
    fekete = min(per_n)
    exact_base = None
    if t.is_exact:
        z = [partition_sum_exact(t, n) for n in range(1, n_max + 1)]
        if all(z[i + 1] * z[i - 1] == z[i] * z[i] for i in range(1, n_max - 1)):
            exact_base = z[1] / z[0]
    if exact_base is not None:
        extrapolated = log_fraction(exact_base)
    else:
        diffs = [log_z[i] - log_z[i - 1] for i in range(1, n_max)]
        extrapolated = aitken_last(diffs)
    return PressureEstimate(per_n, fekete, extrapolated, exact_base, n_max)


@dataclass
class SubadditivityReport:
    ok: bool
    worst_slack: float
    witness: tuple[int, int, Word] | None
    tolerance: float

    def as_dict(self):
        return {"ok": self.ok, "worst_slack": self.worst_slack,
                "witness": None if self.witness is None else
                {"n": self.witness[0], "m": self.witness[1], "word": list(self.witness[2])},
                "tolerance": self.tolerance}


def check_subadditive(t: SeqTable, tol: float = 1e-12) -> SubadditivityReport:
    """Verify log f_{n+m}(y) <= log f_n(y) + log f_m(sigma^n y) for every
    split of every stored word; returns the worst signed slack, witnessed by
    its first occurrence in the order total, word, n.  Exact tables decide
    ``ok`` by exact comparison."""
    if t.depth_max < 2:
        raise TableError("need depth_max >= 2")
    best: dict[int, list] = {}  # total -> [(largest slack at n, first word rank, n)]
    exact_ok = True
    for total, n, slack, exact in _splits(t):
        if len(slack):
            i = int(np.argmax(slack))
            best.setdefault(total, []).append((float(slack[i]), i, n))
        if exact is not None and exact_ok:
            exact_ok = not np.any(exact[0] > exact[1])
    worst = float("-inf")
    witness = None
    for total, cands in best.items():
        top = max(c[0] for c in cands)
        if top > worst:
            i, n, worst = min((i, n, s) for s, i, n in cands if s == top)
            witness = (n, total - n, t.levels[total].words[i])
    ok = exact_ok if t.is_exact else worst <= tol
    return SubadditivityReport(ok, worst, witness, tol)


@dataclass
class D2Report:
    gap_cap: int
    log_d: dict[tuple[int, int], float]
    bridged: bool
    unbridged: list[tuple[Word, Word]]
    trend_ok: bool
    detail: dict = field(default_factory=dict)

    def as_dict(self, names=None):
        key = names or (lambda w: list(w))
        return {"gap_cap": self.gap_cap,
                "log_d": {"%d,%d" % k: v for k, v in sorted(self.log_d.items())},
                "bridged": self.bridged,
                "unbridged": [[list(key(u)), list(key(v))] for u, v in self.unbridged[:5]],
                "trend_ok": self.trend_ok,
                "detail": self.detail}


def check_D2(t: SeqTable, gap_cap: int) -> D2Report:
    """Bridging-condition search: for each pair (u, v) find the gap word w,
    |w| <= gap_cap, maximizing value(uwv) / (value(u) value(v)); D_{n,m} is
    the minimum over pairs of the best ratio.

    Each stored word uwv at depth n+m+k scatters its log into the cell
    (rank of u, rank of v); rounding is monotone, so the cell maximum gives
    the best ratio.  Cells never hit are the unbridged pairs.

    The normalized trend (1/n) log D_{n,m} -> 0 is evaluated at finite depth
    and labeled as evidence only.
    """
    if gap_cap < 0:
        raise TableError("gap cap must be >= 0")
    levels = t.levels
    found: dict[tuple[int, int], tuple] = {}  # (n, m) -> (log D or None, unbridged)
    for s in range(2, t.depth_max - gap_cap + 1):
        tops = {n: np.full((len(levels[n].words), len(levels[s - n].words)), -np.inf)
                for n in range(1, s)}
        for total in range(s, s + gap_cap + 1):
            pre, suf = _ranks(levels, total, "parent"), _ranks(levels, total, "tail")
            for n, top in tops.items():
                np.maximum.at(top, (pre[n], suf[s - n]), levels[total].logs)
        for n, top in tops.items():
            a, b = levels[n], levels[s - n]
            hit = top > -np.inf
            ratio = np.where(hit, (top - a.logs[:, None]) - b.logs, np.inf)
            worst = float(ratio.flat[np.argmin(ratio)]) if hit.any() else None
            iu, iv = np.nonzero(~hit)
            found[(n, s - n)] = (worst, [(a.words[i], b.words[j])
                                         for i, j in zip(iu.tolist(), iv.tolist())])
    log_d: dict[tuple[int, int], float] = {}
    unbridged: list[tuple[Word, Word]] = []
    for key in sorted(found):
        worst, missing = found[key]
        unbridged.extend(missing)
        if worst is not None:
            log_d[key] = worst
    bridged = not unbridged
    # evidence for (1/n) log D_{n,m} -> 0 at fixed m (and symmetrically)
    trends = []
    ms = sorted({m for _, m in log_d})
    for m in ms:
        ns = sorted(n for n, mm in log_d if mm == m)
        if len(ns) >= 3:
            trends.append(decays_to_zero(ns, [abs(log_d[(n, m)]) / n for n in ns]))
    trend_ok = all(trends) if trends else True
    detail = {"pairs_checked": sum(len(t.logs[n]) * len(t.logs[m]) for n, m in log_d)}
    return D2Report(gap_cap, log_d, bridged, unbridged, trend_ok, detail)


@dataclass
class DefectProfile:
    """Almost-additivity defects log C_{n,m} (exact ratios retained on the
    counting path) plus the growth flag that refutes any continuous fit."""

    log_c: dict[tuple[int, int], float]
    exact_c: dict[tuple[int, int], Fraction] | None
    growth: bool
    witness: dict | None
    slopes: dict[int, TrendStats]
    slope_threshold: float
    d_table: D2Report | None = None

    def as_dict(self, names=None):
        return {
            "log_c": {"%d,%d" % k: v for k, v in sorted(self.log_c.items())},
            "exact_c": None if self.exact_c is None else
            {"%d,%d" % k: str(v) for k, v in sorted(self.exact_c.items())},
            "growth": self.growth,
            "witness": self.witness,
            "slopes": {str(n): {"slope": s.slope, "r_squared": s.r_squared}
                       for n, s in sorted(self.slopes.items())},
            "slope_threshold": self.slope_threshold,
            "d_table": None if self.d_table is None else self.d_table.as_dict(names),
        }


def _max_ratio(v: np.ndarray, ab: np.ndarray, i: int) -> Fraction:
    """Exact max over words of max(v, ab) / min(v, ab).  The float filter's
    candidate i is proven by cross-multiplication, num * wd <= den * wn for
    every word; the words that beat it are resolved one by one."""
    num, den = np.maximum(v, ab), np.minimum(v, ab)
    wn, wd = int(num[i]), int(den[i])
    bound = int(num.max()) * max(wn, wd)
    for j in np.flatnonzero(_times(num, wd, bound) > _times(den, wn, bound)).tolist():
        nj, dj = int(num[j]), int(den[j])
        if nj * wd > dj * wn:
            wn, wd = nj, dj
    return Fraction(wn, wd)


def defect_profile(t: SeqTable, slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> DefectProfile:
    """log C_{n,m} = max over words of |log f_{n+m} - log f_n - log f_m o sigma^n|,
    with an exponential-growth flag (least-squares slope in m at fixed n)."""
    if t.depth_max < 2:
        raise TableError("need depth_max >= 2")
    log_c: dict[tuple[int, int], float] = {}
    exact_c: dict[tuple[int, int], Fraction] | None = {} if t.is_exact else None
    for total, n, slack, exact in _splits(t):
        d = np.abs(slack)
        i = int(np.argmax(d)) if len(d) else None
        if exact is None:
            log_c[(n, total - n)] = 0.0 if i is None else float(d[i])
        else:
            worst = Fraction(1) if i is None else _max_ratio(*exact, i)
            exact_c[(n, total - n)] = worst
            log_c[(n, total - n)] = log_fraction(worst)
    growth = False
    witness = None
    slopes: dict[int, TrendStats] = {}
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
