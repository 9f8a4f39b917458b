"""Word-by-word oracles for table and measure properties that no command
reports: subadditivity of a table, and the Kingman averages
(1/n) int log f_n dmu with the entropy rate of a Markov measure, the two
sides of the variational inequality h(mu) + lim (1/n) int log g_n dmu <= P;
the per-multiple periodic defects that ``detect.orbit_defects`` walks
in one pass, and the word-by-word pushforward sandwich that
``gibbs.pushforward_sandwich`` checks once per joint (mass, fiber) row."""

import math

import numpy as np

from thermoshift import MarkovMeasure
from thermoshift.detect import DetectError
from thermoshift.factor import _measure_steps, _Rows, _word_levels
from thermoshift.gibbs import SandwichReport
from thermoshift.numerics import log_fraction, power_exponent, row_sums
from thermoshift.potential import (periodic_birkhoff, periodic_birkhoff_coeff,
                                   variation_constant)
from thermoshift.seqtable import TableError


def ref_check_subadditive(t, tol=1e-12):
    """(ok, worst slack, witness (n, m, word)) of log f_{n+m}(w) <=
    log f_n(w[:n]) + log f_m(w[n:]) over every split of every stored word,
    the witness at the first worst slack; exact tables decide ok exactly."""
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
    return ok, worst, witness


def kingman_averages(t, mu, n):
    """[(1/k) int log f_k dmu for k = 1..n]: the stored logs weighted by
    their cylinder masses."""
    return [math.fsum(float(mu.cylinder_mass(w)) * lv for w, lv in t.logs[k].items()) / k
            for k in range(1, n + 1)]


def entropy_rate(mu):
    """-sum_i pi_i sum_j P_ij log P_ij (nats)."""
    return -math.fsum(float(s) * float(p) * math.log(float(p))
                      for s, row in zip(mu.stationary, mu.matrix) for p in row if p > 0)


def random_measure(sft, rng, order=1):
    """Random stationary chain of the given order on the allowable moves."""
    states = sft.blocks(order)
    index = {s: i for i, s in enumerate(states)}
    matrix = []
    for s in states:
        weights = {index[s[1:] + (x,)]: rng.uniform(0.1, 1.0) for x in sft.followers(s[-1])}
        total = sum(weights.values())
        matrix.append([weights.get(j, 0.0) / total for j in range(len(states))])
    return MarkovMeasure.from_transition(sft, matrix, order=order)


def ref_orbit_defects(gt, h, y, J):
    """``detect.orbit_defects`` one multiple n = jq at a time: a lookup of
    the block B^j from the root (``SeqTable.entry``) and S_n h by
    periodic_birkhoff over its n windows."""
    q = y.period
    if J < 1 or J * q > gt.depth_max:
        raise TableError("J*q exceeds the table depth")
    floats, values = [], ([] if gt.is_exact else None)
    exact = [] if gt.is_exact and h.is_exact else None
    unit = None  # S_q h(y) in units of log(base); S_jq h(y) = j unit on the orbit
    for j in range(1, J + 1):
        n, w = j * q, y.word(j * q)
        found = gt.entry(n, w)
        if found is None:
            raise DetectError("periodic block %s is not in the image language" % (w,))
        log, value = found
        floats.append((log - periodic_birkhoff(h, y, n)) / n)
        if values is not None:
            values.append(value)
        if exact is not None and all(power_exponent(int(v), h.exact_base) is not None
                                     for v in gt.exact[n].values()):
            if unit is None:
                unit = periodic_birkhoff_coeff(h, y, q)
            exact.append((power_exponent(value, h.exact_base) - j * unit) / n)
        else:
            exact = None
    return floats, exact, values


def ref_pushforward_sandwich(mu, pi, f, gt, pressure, exact_base, weak_report, depth):
    """``gibbs.pushforward_sandwich`` one stored image word at a time: each
    word's mass from the mass walk's word index, its value from the table's
    level index, every failing word listed."""
    if depth > gt.depth_max:
        raise TableError("depth %d exceeds the table (max %d)" % (depth, gt.depth_max))
    exact = (exact_base is not None and mu.exact and gt.is_exact
             and weak_report.exact_cn is not None)
    worst = float("inf")
    failures = []
    start, steps, den = _measure_steps(mu, pi)
    walk = _Rows(start, steps, row_sums)
    for n, (ids, parent, sym, _) in zip(range(1, depth + 1), _word_levels(walk)):
        level, mass = gt.levels[n], walk.g[n][ids]
        if not (np.array_equal(parent, level.parent) and np.array_equal(sym, level.sym)):
            raise TableError("table words at depth %d are not the image words of pi" % n)
        log_mn = variation_constant(f, n)
        if exact and log_mn == 0.0:
            cn, s = weak_report.exact_cn[n], exact_base.numerator ** n
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
