"""Transfer-operator machinery: pressure of a locally constant potential,
the induced Gibbs Markov measure, weak-Gibbs constants C_n and the
pushforward sandwich, whose masses come from the fiber walk by table rank.

For a Markov measure of order k and f of range r, log mu[w] + nP -
sup_[w] S_n f is a path sum on the max(k, r-1)-block graph plus a terminal
sup tail, so C_n comes from a max/min transfer walk in O(n S^2), not from
the |A|^n words.  C_n is exact (max/min-times over integer masses on one
denominator per depth, then one Fraction) when the measure is exact, f = 0
and the pressure base is rational; otherwise it is a float computed in log
space, so tiny masses do not underflow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .factor import _fiber_walk, _measure_steps
from .markov import MarkovMeasure, MeasureError
from .numerics import integer_rows, log_fraction, row_sums
from .potential import LocallyConstantPotential, birkhoff_sup, variation_constant
from .seqtable import SeqTable, TableError, log_perron
from .shiftcore import Sft, Word, is_irreducible
from .verdicts import DEFAULT_SLOPE_THRESHOLD, GibbsVerdict, growth_flag, trend_stats

__all__ = [
    "MarkovMeasure", "GibbsData", "transfer_pressure", "weak_gibbs_constants",
    "WeakGibbsReport", "pushforward_sandwich", "SandwichReport", "GibbsError",
]

class GibbsError(ValueError):
    pass


@dataclass
class GibbsData:
    potential: LocallyConstantPotential
    pressure: float
    lam_exact: Fraction | None
    states: tuple[Word, ...]
    right: tuple[float, ...]
    left: tuple[float, ...]
    measure: MarkovMeasure
    residual: float


def transfer_pressure(sft: Sft, f: LocallyConstantPotential) -> GibbsData:
    """Pressure P(f) = log rho(W) + fmax by ``seqtable.log_perron`` (W on the
    (r-1)-block states, 1-block states for r = 1, weighting the window
    entered), plus the Gibbs Markov measure P_ij = W_ij v_j / (rho v_i) and
    stationary l_i v_i.  Exact, with residual 0, when f = 0 and the Perron
    root is an integer; ``right`` and ``left`` are the float vectors."""
    if f.language is not sft:
        raise GibbsError("potential must live on the given shift")
    if not is_irreducible(sft):
        raise GibbsError("transfer pressure needs an irreducible shift")
    pressure, w, (lam, right, left, residual), exact = log_perron(f)
    k = max(f.range - 1, 1)
    right, left = tuple(right.tolist()), tuple(left.tolist())
    r, l = right, left
    if exact is not None:
        lam, r, l = exact
        residual = 0.0
    matrix = [[x * r[j] / (lam * r[i]) for j, x in enumerate(row)]
              for i, row in enumerate(w.tolist())]
    if exact is None:  # renormalize rows against float drift before the measure validates
        matrix = [[x / total for x in row] for row, total in zip(matrix, map(math.fsum, matrix))]
    stationary = [a * b for a, b in zip(l, r)]
    total = sum(stationary)
    measure = MarkovMeasure(sft, k, matrix, [x / total for x in stationary],
                            exact=exact is not None)
    return GibbsData(potential=f, pressure=pressure,
                     lam_exact=None if exact is None else Fraction(lam),
                     states=tuple(sft.blocks(k)), right=right, left=left, measure=measure,
                     residual=residual)


@dataclass
class WeakGibbsReport:
    log_cn: dict[int, float]
    exact_cn: dict[int, Fraction] | None
    verdict: GibbsVerdict
    exact: bool
    pressure: float
    stats: dict

    def as_dict(self):
        return {"log_cn": {str(n): v for n, v in sorted(self.log_cn.items())},
                "exact_cn": None if self.exact_cn is None else
                {str(n): str(v) for n, v in sorted(self.exact_cn.items())},
                "verdict": self.verdict.value, "exact": self.exact,
                "pressure": self.pressure, "stats": self.stats}


def weak_gibbs_constants(mu: MarkovMeasure, f: LocallyConstantPotential, pressure: float,
                         depth_max: int, exact_base: Fraction | None = None,
                         slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> WeakGibbsReport:
    """C_n = worst two-sided ratio of mu[w] against e^{-nP + sup_[w] S_n f}
    over the words w of length n, for n = 1..depth_max.

    Verdict: GIBBS when sup_n C_n shows no growth, WEAK-GIBBS when the trend
    is consistent with (1/n) log C_n -> 0, NEITHER on linear growth of
    log C_n or when some cylinder has zero mass.  C_n is exact (a Fraction
    from an integer walk) when the measure is exact, f = 0 and the pressure
    base is given; only then is C_n == 1 a certified identity.
    """
    if mu.alphabet != f.language.alphabet:
        raise MeasureError("measure alphabet does not match the potential")
    if depth_max < 1:
        raise GibbsError("depth_max must be >= 1")
    exact = mu.exact and f.is_zero and exact_base is not None
    walked = _ratio_extremes(mu, f, pressure, depth_max, exact_base if exact else None)
    log_cn = {n: row[0] for n, row in walked.items()}
    exact_cn = {n: row[1] for n, row in walked.items()} if exact else None
    ns = sorted(log_cn)
    values = [log_cn[n] for n in ns]
    if any(math.isinf(v) for v in values):
        return WeakGibbsReport(log_cn, None, GibbsVerdict.NEITHER, False, pressure,
                               {"certainty": "exact", "reason": "vanishing cylinder mass"})
    if exact and all(c == 1 for c in exact_cn.values()):
        stats = {"certainty": "exact", "max_log_cn": 0.0}
        return WeakGibbsReport(log_cn, exact_cn, GibbsVerdict.GIBBS, True, pressure, stats)
    fired, stats = growth_flag(ns, values, slope_threshold)
    trend = trend_stats(ns, values)
    if trend.bounded:
        verdict = GibbsVerdict.GIBBS
    elif fired:
        verdict = GibbsVerdict.NEITHER
    else:
        verdict = GibbsVerdict.WEAK_GIBBS
    detail = {"certainty": "evidence", "slope": stats.slope,
              "r_squared": stats.r_squared, "max_log_cn": max(values),
              "normalized_last": values[-1] / ns[-1]}
    return WeakGibbsReport(log_cn, exact_cn, verdict, exact, pressure, detail)


def _log(x) -> float:
    """log of a mass or a probability; -inf for zero."""
    if not x:
        return -math.inf
    return log_fraction(x) if isinstance(x, Fraction) else math.log(x)


def _ratio_extremes(mu: MarkovMeasure, f: LocallyConstantPotential, pressure: float,
                    depth: int, base: Fraction | None) -> dict[int, tuple]:
    """{n: (log C_n, exact C_n or None)} by a max/min transfer walk.

    The value of a word w is mu[w] (exact, ``base`` given, f = 0: an
    integer over den(n) = d0 d^max(0, n-k), the stationary vector over d0
    and P over d) or log mu[w] - (the sum of f over the windows inside w).
    Each symbol appended multiplies (adds) a weight fixed by the last
    m = max(k, r-1) symbols and the new one, so words with n <= m are
    enumerated and past m the walk carries per m-block state only the
    largest and the smallest value of the words ending there.  The ratio is
    then value * base^n, or value + nP - tail, the tail being the sup of
    the windows reaching past w, a function of its last r-1 symbols.
    log C_n = inf when a cylinder has zero mass.
    """
    sft, k, r = mu.sft, mu.order, f.range
    m = max(k, r - 1)
    exact = base is not None
    join = operator.mul if exact else operator.add
    (start,), d0 = integer_rows([mu.stationary]) if exact else ((mu.stationary,), 1)
    p, d = integer_rows(mu.matrix) if exact else (mu.matrix, 1)
    tails: dict[Word, float] = {}

    def tail(w: Word) -> float:
        if exact or r == 1:
            return 0.0
        key = w[max(0, len(w) - r + 1):]
        if key not in tails:
            tails[key] = birkhoff_sup(f, key)
        return tails[key]

    def weight(w: Word):
        """The factor of the last symbol of w (len(w) > k)."""
        x = p[mu._index[w[-k - 1:-1]]][mu._index[w[-k:]]]
        if exact:
            return x
        return _log(x) - f.value(w[-r:]) if len(w) >= r else _log(x)

    def extremes(n: int, highs, lows, tail_values) -> tuple:
        if exact:
            lo = min(lows)
            if not lo:
                return math.inf, None
            # C_n = max(1, hi base^n, 1 / (lo base^n)) over den(n): hi s / u, u / (lo s)
            s, u = base.numerator ** n, d0 * d ** max(0, n - k) * base.denominator ** n
            hi, lo = max(highs) * s, lo * s
            c = Fraction(max(hi, u), u) if hi * lo >= u * u else Fraction(max(u, lo), lo)
            return log_fraction(c), c
        shift = n * pressure
        top = max(h + shift - t for h, t in zip(highs, tail_values))
        bottom = min(v + shift - t for v, t in zip(lows, tail_values))
        return max(0.0, top, -bottom), None

    out = {}
    values: dict[Word, object] = {}
    for n in range(1, min(m, depth) + 1):
        if n <= k:
            values = {w: sum(x for x, state in zip(start, mu.states) if state[:n] == w)
                      for w in sft.blocks(n)}
            if not exact:
                values = {w: _log(v) - sum(f.value(w[i:i + r]) for i in range(n - r + 1))
                          for w, v in values.items()}
        else:
            values = {w: join(values[w[:-1]], weight(w)) for w in sft.blocks(n)}
        vals = list(values.values())
        out[n] = extremes(n, vals, vals, [tail(w) for w in values])
    if depth <= m:
        return out
    states = list(values)
    index = {s: i for i, s in enumerate(states)}
    edges = [(index[s], index[s[1:] + (x,)], weight(s + (x,)))
             for s in states for x in sft.followers(s[-1])]
    tail_values = [tail(s) for s in states]
    highs = lows = vals
    for n in range(m + 1, depth + 1):
        new_hi: list = [None] * len(states)
        new_lo: list = [None] * len(states)
        for a, b, w in edges:
            hi, lo = join(highs[a], w), join(lows[a], w)
            if new_hi[b] is None or hi > new_hi[b]:
                new_hi[b] = hi
            if new_lo[b] is None or lo < new_lo[b]:
                new_lo[b] = lo
        highs, lows = new_hi, new_lo
        out[n] = extremes(n, highs, lows, tail_values)
    return out


@dataclass
class SandwichReport:
    depth: int
    ok: bool
    exact: bool
    worst_margin: float
    failures: list

    def as_dict(self):
        return {"depth": self.depth, "ok": self.ok, "exact": self.exact,
                "worst_margin": self.worst_margin,
                "failures": self.failures[:5]}


def pushforward_sandwich(mu: MarkovMeasure, pi, f: LocallyConstantPotential,
                         gt: SeqTable, pressure: float,
                         exact_base: Fraction | None,
                         weak_report: WeakGibbsReport, depth: int) -> SandwichReport:
    """Check 1/(C_n M_n) <= pi(mu)[y] / (e^{-nP} g_n(y)) <= C_n M_n for all
    stored image words, where C_n are the weak-Gibbs constants of mu for f
    on the domain and M_n the variation constants of f.

    Masses come from the mass walk, one per stored word at its rank.  Zero
    tolerance on the exact path (once per distinct integer mass and value
    pair, by integer cross-multiplication); 1e-9 slack on floats.
    """
    if depth > gt.depth_max:
        raise TableError("depth %d exceeds the table (max %d)" % (depth, gt.depth_max))
    exact = (exact_base is not None and mu.exact and gt.is_exact
             and weak_report.exact_cn is not None)
    worst = float("inf")
    failures = []
    start, steps, den = _measure_steps(mu, pi)
    for n, (v, parent, sym, _) in enumerate(_fiber_walk(start, steps, depth), start=1):
        level, mass = gt.levels[n], row_sums(v)
        if not (np.array_equal(parent, level.parent) and np.array_equal(sym, level.sym)):
            raise TableError("table words at depth %d are not the image words of pi" % n)
        log_mn = variation_constant(f, n)
        if exact and log_mn == 0.0:
            cn, s = weak_report.exact_cn[n], level.den * exact_base.numerator ** n
            u, a, b = den(n) * exact_base.denominator ** n, cn.numerator, cn.denominator
            pairs = list(zip(mass.tolist(), level.num.tolist()))
            checked = {}  # (ok, |log ratio|) once per distinct pair
            for x, v in set(pairs):  # ratio (x s) / (v u) against cn = a / b both ways
                top, bottom = x * s, v * u
                checked[x, v] = (b * bottom <= a * top and b * top <= a * bottom,
                                 abs(log_fraction(top, bottom)) if top else math.inf)
            ok = np.array([checked[p][0] for p in pairs])
            margin = float(log_fraction(cn)) - np.array([checked[p][1] for p in pairs])
            zero = np.zeros(len(pairs), dtype=bool)  # exact failures carry no reason
        else:
            zero = mass == 0
            logm = [log_fraction(x, den(n)) if mu.exact else math.log(x)
                    for x in mass[~zero].tolist()]
            log_q = (np.array(logm) + n * pressure) - level.logs[~zero]
            margin = (weak_report.log_cn[n] + log_mn) - np.abs(log_q) + 1e-9
            ok = ~zero
            ok[~zero] = margin >= 0
        worst = min([worst] + margin.tolist())
        for i in np.flatnonzero(~ok).tolist():
            failures.append({"n": n, "word": [gt.alphabet[b] for b in level.words[i]]})
            if zero[i]:
                failures[-1]["reason"] = "zero mass"
    return SandwichReport(depth, not failures, exact, worst, failures)
