"""Word-by-word oracles for table and measure properties that no command
reports: subadditivity of a table, and the Kingman averages
(1/n) int log f_n dmu with the entropy rate of a Markov measure, the two
sides of the variational inequality h(mu) + lim (1/n) int log g_n dmu <= P;
and the per-multiple periodic defects that ``detect.orbit_defects`` walks
in one pass."""

import math

from thermoshift import MarkovMeasure
from thermoshift.detect import DetectError
from thermoshift.numerics import power_exponent
from thermoshift.potential import periodic_birkhoff, periodic_birkhoff_coeff
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
