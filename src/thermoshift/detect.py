"""Decision procedures: periodic-point and uniform defects of a candidate
h against a sequence table, sup-norm (Chebyshev) fitting of h, periodic
certificates built from bridged fiber words, and the aggregate
compensation-function verdict.

Verdicts are three-valued: CERTIFIED needs exact arithmetic identities,
REFUTED needs an exact witness of growth (or the profile flag), everything
else is EVIDENCE with decay statistics.  Where the fiber counts have Hankel
rank 1 and a common power base, a fitted range-1 verdict certifies in
closed form, h(b) = log g_1(b), with no fit LP and no uniform walk, in the
bytes the fit LP's unique optimum gives (``_product_fits``); r >= 2, given
candidates and rank-1 counts with no common base take the fits and walks.
Each periodic orbit is one walk down the table's rows (``orbit_defects``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .factor import OneBlockFactor, fiber_words
from .lp import LpError, chebyshev_fit_exact, chebyshev_fit_float, solve_exact
from .numerics import array_max, integer_rows, logsumexp, power_exponent
from .potential import (LocallyConstantPotential, PotentialError, birkhoff_inf,
                        birkhoff_sup, periodic_birkhoff_coeff, variation_constant)
from .seqtable import FIT_DEPTH, SeqTable, TableError, _multiplicative, growth_witness
from .shiftcore import (PeriodicPoint, Word, bridge, is_irreducible,
                        periodic_points)
from .verdicts import DEFAULT_SLOPE_THRESHOLD, Verdict, decays_to_zero


class DetectError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact exponent plumbing

def table_power_base(gt: SeqTable) -> int | None:
    """Common integer base b with every exact table value a power of b."""
    return gt.power_base


# ---------------------------------------------------------------------------
# defects of a candidate h

def orbit_defects(gt: SeqTable, h: LocallyConstantPotential, y: PeriodicPoint, J: int):
    """One walk down the table's rows (``SeqTable.rows``) along the orbit y
    to depth Jq, reading the row reached at each multiple n = jq (j =
    1..J): Jq row steps in all.  Returns the float defects d_{y,j} = (1/n)
    (log g_n(B^j) - S_n h(y)), S_n h the fsum of the period's q window
    values repeated j times (the terms periodic_birkhoff sums, so the same
    bits); the same in units of log(base), or None when the table or h is
    not exact or a value at a checked depth is no power of the base; and
    the stored g_n(B^j) on exact tables, else None.  A symbol outside the
    table's alphabet, like a block with no fiber, is a DetectError.  Every
    verdict, exact or float, reads its orbits here."""
    q = y.period
    if J < 1 or J * q > gt.depth_max:
        raise TableError("J*q exceeds the table depth")
    rows, windows = gt.rows.to(J * q), None
    floats, values = [], ([] if gt.is_exact else None)
    exact = [] if gt.is_exact and h.is_exact else None
    unit = None  # S_q h(y) in units of log(base); S_jq h(y) = j unit on the orbit
    i = 0
    for n in range(1, J * q + 1):
        b, step = y.block[(n - 1) % q], rows.next[n - 1]
        i = int(step[i, b]) if 0 <= b < step.shape[1] else -1
        if i < 0:
            raise DetectError("periodic block %s is not in the image language"
                              % (y.word(-(-n // q) * q),))
        if n % q:
            continue
        if windows is None:  # after B is found: a block off the language is a DetectError first
            w = y.word(q + h.range - 1)
            windows = [h.value(w[k:k + h.range]) for k in range(q)]
        j, level = n // q, rows.g[n]
        floats.append((level.log(i) - math.fsum(windows * j)) / n)
        value = None if level.num is None else level.value(int(level.num[i]))
        if values is not None:
            values.append(value)
        if exact is not None and gt.powers(n, h.exact_base) is not None:
            if unit is None:
                unit = periodic_birkhoff_coeff(h, y, q)
            k = power_exponent(value, h.exact_base)  # (k - j unit) / n in one Fraction
            exact.append(Fraction(k * unit.denominator - j * unit.numerator, n * unit.denominator))
        else:
            exact = None
    return floats, exact, values


def periodic_defect(gt: SeqTable, h: LocallyConstantPotential, y: PeriodicPoint,
                    J: int) -> list[float]:
    """The float defects of orbit_defects."""
    return orbit_defects(gt, h, y, J)[0]


def uniform_defect(gt: SeqTable, h: LocallyConstantPotential, n: int) -> float:
    """u_n = max over depth-n words of (1/n)|log g_n(y) - sup S_n h on [y]|,
    word by word through birkhoff_sup (the reference for uniform_defects)."""
    worst = 0.0
    for w in gt.words(n):
        worst = max(worst, abs(gt.log_value(n, w) - birkhoff_sup(h, w)))
    return worst / n


def uniform_defects(gt: SeqTable, h: LocallyConstantPotential,
                    exact: bool = False) -> dict[int, float] | dict[int, Fraction] | None:
    """Uniform defects at every table depth in one pass down the depths.

    Each word carries the Birkhoff sum of the windows it contains: its
    parent's sum plus the weight of its last window (floats added left to
    right, or integer coefficients over a common denominator when
    ``exact``), so the float values equal uniform_defect bit for bit and the
    exact ones the word-by-word defects.  The weight and the sup over the
    r-1 windows reaching past the word are cached per key (automaton state,
    last r-1 symbols): on a sofic image the extensions of a word depend on
    its state, not on its suffix alone.

    The walk reads no word: it runs over the keys (row of
    ``SeqTable.rows``, state, last r-1 symbols) of each depth, each
    carrying the largest and the smallest Birkhoff sum of its words (on a
    table built from dicts each word is its own row).  A word's value
    depends on its row only, rounded addition is monotone and |L - S| peaks
    at an extreme S, so that is the word maximum bit for bit.  A word
    outside h's language is a PotentialError naming the first such word,
    as uniform_defect's.  The exact variant (in units of log(base)) is None
    when the table or h has no exact form or a table value is not a power
    of h's base.
    """
    r = h.range
    if exact:
        if not (gt.is_exact and h.is_exact):
            return None
        [coeffs], den = integer_rows([list(h.exact_coeffs.values())])
        weight = dict(zip(h.exact_coeffs, coeffs))
        zero = 0
        # every sum and tail is at most (depth + r) max |weight| in size
        small = (gt.depth_max + r) * max(map(abs, weight.values())) < 2 ** 62
        dtype = np.int64 if small else object
    else:
        weight, zero, dtype, den = h.values, 0.0, float, 1
    lang, k, out = h.language, len(gt.alphabet), {}
    # (state, last min(n, r-1) symbols) by id; ids step once per (id,
    # symbol), and a step adds the weight of the window it completes
    keys, sups, steps, adds = [(lang.start, ())], [zero], {}, {}
    ids = {keys[0]: 0}
    # per node (a row ``row`` with a key ``kid``): its largest and smallest
    # Birkhoff sums
    kid, row, hi = np.zeros(1, np.int64), np.zeros(1, np.intp), np.zeros(1, dtype)
    lo = hi
    for n in range(1, gt.depth_max + 1):
        nxt = gt.rows.to(n).next[n - 1][row]
        src, sym = np.nonzero(nxt >= 0)  # node-major, symbols in order
        cells = kid[src] * k + sym  # (key, symbol) of each cell
        pairs = np.flatnonzero(np.bincount(cells))
        for p in pairs.tolist():
            if p not in steps:
                state, s_word = keys[p // k]
                state = lang.step(state, p % k)
                if state is None:  # the first word outside h's language, as uniform_defect
                    bad = next(w for w in gt.words(n) if not lang.is_word(w))
                    raise PotentialError("word %s is not allowable" % (bad,))
                grown_word = s_word + (p % k,)
                adds[p] = weight[grown_word] if len(grown_word) == r else zero
                key = (state, grown_word[1 - r:] if r >= 2 else ())
                if key not in ids:
                    ids[key] = len(keys)
                    keys.append(key)
                    sups.append(max(_window_sum(key[1] + e, len(key[1]), r, weight, zero)
                                    for e in lang.extensions_from(state, r - 1)))
                steps[p] = ids[key]
        inv = np.searchsorted(pairs, cells)
        step = np.array([steps[p] for p in pairs.tolist()], np.int64)[inv]
        add = np.array([adds[p] for p in pairs.tolist()], dtype)[inv]
        nodes = nxt[src, sym].astype(np.int64) * len(keys) + step
        order = np.argsort(nodes)  # each node's cells together
        starts = np.flatnonzero(np.diff(nodes[order], prepend=-1))
        row, kid = np.divmod(nodes[order][starts], len(keys))
        hi = np.maximum.reduceat((hi[src] + add)[order], starts)
        lo = np.minimum.reduceat((lo[src] + add)[order], starts)
        top, bottom = hi, lo
        if r >= 2:
            tail = np.array(sups, dtype)[kid]
            top, bottom = hi + tail, lo + tail
        values = gt.rows.g[n]
        if not exact:
            d = np.maximum(np.abs(values.logs[row] - top), np.abs(values.logs[row] - bottom))
            out[n] = (float(d.max()) if len(d) else 0.0) / n
            continue
        found = gt.powers(n, h.exact_base)
        if found is None:
            return None
        es = found[1][np.searchsorted(found[0], values.num)][row]
        small = dtype is not object and array_max(np.abs(es)) * den < 2 ** 62
        es = (es if small else es.astype(object)) * den
        d = np.maximum(np.abs(es - top), np.abs(es - bottom))
        out[n] = Fraction(int(d.max()) if len(d) else 0, den * n)
    return out


def uniform_defects_exact_all(gt: SeqTable, h: LocallyConstantPotential) -> dict[int, Fraction] | None:
    """The exact form of uniform_defects."""
    return uniform_defects(gt, h, exact=True)


def _window_sum(w: Word, count: int, r: int, weight, zero):
    """The first ``count`` length-r windows of w, summed as birkhoff_sup does."""
    total = zero
    for i in range(count):
        total = total + weight[w[i:i + r]]
    return total


# ---------------------------------------------------------------------------
# Chebyshev fit

@dataclass
class FitResult:
    r: int
    n_fit: int
    values: dict[Word, float]
    tstar: float
    solver: str
    coeffs: dict[Word, Fraction] | None = None
    base: int | None = None
    tstar_exact: Fraction | None = None
    boundary: dict[Word, float] | None = None

    @property
    def exact(self) -> bool:
        return self.tstar_exact is not None

    def potential(self, language) -> LocallyConstantPotential:
        return LocallyConstantPotential(language, self.r, self.values,
                                        exact_coeffs=self.coeffs, exact_base=self.base)

    def as_dict(self, names=None):
        def key(w):
            return ",".join(names(w)) if names else ",".join(map(str, w))
        return {"r": self.r, "n_fit": self.n_fit, "solver": self.solver,
                "tstar": self.tstar,
                "tstar_exact": None if self.tstar_exact is None else str(self.tstar_exact),
                "values": {key(w): v for w, v in sorted(self.values.items())},
                "exact_base": self.base}


def _fit_rows(gt: SeqTable, r: int, n: int, classes: np.ndarray | None = None):
    """Constraint rows of the Chebyshev LP at depth n as one integer matrix.

    Unknowns: h on the depth-r words, plus (for r >= 2) one boundary
    correction per (r-1)-suffix class (it absorbs the sup-convention tail
    and keeps t*(r) monotone in r).  Each word gives a row: the counts of
    its n-r+1 windows, by one walk down the level index (``win`` the rank
    at depth r of the last window), and a 1 at its class.  Classes (ranks
    at depth r-1) come in order of first appearance, or as given, dropping
    rows of other classes.  Returns (a, classes, the mask of kept rows)."""
    levels = gt.levels
    if n < r:  # n = r - 1: no window, the class is the word
        a, cls = np.zeros((len(levels[n]), len(levels[r])), np.int64), np.arange(len(levels[n]))
    else:
        win, a = np.arange(len(levels[r])), np.eye(len(levels[r]), dtype=np.int64)
        for d in range(r + 1, n + 1):
            win, a = win[levels[d].tail], a[levels[d].parent]
            a[np.arange(len(win)), win] += 1
        cls = levels[r].tail[win]
    if r == 1:
        return a, None, None
    if classes is None:
        classes = cls[np.sort(np.unique(cls, return_index=True)[1])]
    tau = (cls[:, None] == classes).astype(np.int64)
    keep = tau.any(axis=1)
    return np.hstack([a, tau])[keep], classes, keep


def fit_h(gt: SeqTable, r: int, n_fit: int) -> FitResult:
    """Minimize max over depth-n_fit words of |log g_n(y) - S_n h(y)| over
    potentials h of range r (a Chebyshev-center LP); see fit_depths."""
    return fit_depths(gt, r, [n_fit])[0]


def fit_depths(gt: SeqTable, r: int, n_fits) -> list[FitResult]:
    """fit_h at each depth of n_fits, in order.

    Exact in units of log(base) on a counting table with a common power
    base; otherwise exact on the logs, which as floats are dyadic
    rationals (``lp.chebyshev_fit_float``: a float simplex proposes the
    optimal basis and the integers certify it; no scipy), rounded to
    floats.  For r >= 2 the boundary gauge (h += c, tau -= (n_fit-r+1) c)
    is free wherever the fit leaves it so: the rows at n_fit - 1 with the
    same classes pin it, to their canonical solution if the joint exact
    system is consistent at t* = 0, and on a float fit to the c giving
    their residuals midrange 0 (``_pin_gauge``).
    """
    if r < 1:
        raise DetectError("fit range must be >= 1")
    base = table_power_base(gt)
    out = []
    for n_fit in n_fits:
        if r > n_fit:
            raise DetectError("fit range exceeds the fit depth")
        if n_fit > gt.depth_max:
            raise TableError("n_fit exceeds the table depth")
        r_words = gt.levels[r].words
        a, classes, _ = _fit_rows(gt, r, n_fit)
        exps = None if base is None else gt.exponents(n_fit, base)
        fit = None if exps is None else chebyshev_fit_exact(a, exps)
        if fit is not None and r >= 2 and fit[1] == 0:
            b, _, keep = _fit_rows(gt, r, n_fit - 1, classes)
            e = np.concatenate([exps, gt.exponents(n_fit - 1, base)[keep]])
            fit = (solve_exact(np.vstack([a, b]), e) or fit[0], fit[1])
        if fit is None:
            try:
                z, tstar = chebyshev_fit_float(a, gt.levels[n_fit].logs)
            except LpError as e:
                raise LpError("float fit at n_fit %d: %s" % (n_fit, e)) from None
            if r >= 2:
                z = _pin_gauge(gt, r, n_fit, classes, z)
        else:
            z, tstar = fit
        scale = 1.0 if fit is None else math.log(base)  # x * 1.0 keeps the bits
        tau = [] if classes is None else [gt.levels[r - 1].words[i] for i in classes.tolist()]
        boundary = {s: float(c) * scale for s, c in zip(tau, z[len(r_words):])}
        exact = {} if fit is None else {"coeffs": dict(zip(r_words, z)), "base": base,
                                        "tstar_exact": tstar}
        solver = "dyadic-exact" if fit is None else "exact-simplex"
        out.append(FitResult(r, n_fit, {w: float(c) * scale for w, c in zip(r_words, z)},
                             float(tstar) * scale, solver, boundary=boundary or None, **exact))
    return out


def _product_fits(gt: SeqTable, n_fits) -> list[FitResult] | None:
    """fit_depths(gt, 1, n_fits) in closed form on an exact g-table of Hankel
    rank 1 (``seqtable._multiplicative``) with a common power base, else
    None.  There g(uv) = g(u) g(v), so with base^{k_b} = g_1(b) the range-1
    h(b) = k_b log(base) has S_n h = log g_n on every word: t* = 0 at every
    depth, read from level 1 alone with no LP.  The bytes are the LP's: the
    image is the full shift, so the row of b^n makes z_b = k_b its only
    optimum at t* = 0, and values at every depth are products of depth-1
    values, so they share depth 1's base.  The solver label stays the exact
    fit's."""
    base = table_power_base(gt) if _multiplicative(gt) else None
    if base is None or not all(1 <= n <= gt.depth_max for n in n_fits):
        return None  # fit_depths fits, or names the bad depth
    coeffs = {w: Fraction(k) for w, k in zip(gt.levels[1].words, gt.exponents(1, base).tolist())}
    values = {w: float(c) * math.log(base) for w, c in coeffs.items()}
    return [FitResult(1, n, values, 0.0, "exact-simplex", coeffs, base, Fraction(0))
            for n in n_fits]


def _pin_gauge(gt: SeqTable, r: int, n_fit: int, classes: np.ndarray,
               z: list[float]) -> list[float]:
    """Float fit z (r >= 2) moved along the free gauge direction so that the
    residuals of the rows at n_fit - 1 with its classes have midrange 0.
    Those rows all have a . delta = -1 for delta = (1 on each r-word,
    -(n_fit-r+1) on each class), the rows at n_fit a . delta = 0; so
    z + c delta with c = -(max + min)/2 of the residuals.  Unchanged when
    there is no such row."""
    b, _, keep = _fit_rows(gt, r, n_fit - 1, classes)
    if not len(b):
        return z
    resid = gt.levels[n_fit - 1].logs[keep] - b @ np.array(z)
    c = -(resid.max() + resid.min()) / 2.0
    k = len(gt.levels[r])
    return [v + c for v in z[:k]] + [v - (n_fit - r + 1) * c for v in z[k:]]


def chebyshev_defect(gt: SeqTable, values: dict[Word, float], r: int, n: int) -> float:
    """Achieved sup-norm defect of candidate h values in the same functional
    the LP minimizes (boundary corrections eliminated by midrange)."""
    residuals: dict[Word, list[float]] = {}
    level = gt._level(n)
    for w, log in zip(level.words, level.logs.tolist()):
        resid = log - sum(values[w[i:i + r]] for i in range(n - r + 1))
        key = w[n - r + 1:] if r >= 2 else ()
        residuals.setdefault(key, []).append(resid)
    worst = 0.0
    for res in residuals.values():
        if r >= 2:
            worst = max(worst, (max(res) - min(res)) / 2.0)
        else:
            worst = max(worst, max(abs(v) for v in res))
    return worst


# ---------------------------------------------------------------------------
# periodic certificates (bridged fiber words)

@dataclass
class C2Certificate:
    """Certificate that the fiber sums over [u] reproduce themselves along
    the bridged periodic image word, with at worst the stated constant:
    g_{j(n+q)}((u w')^j) >= (bound * g_n(u))^j for the verified j."""

    u: Word
    endpoints: tuple[int, int]
    bridge_word: Word
    gap: int
    block: Word
    log_bound: float
    verified_j: list[int]
    slacks: list[float]
    ok: bool
    exact: bool
    constants: dict = field(default_factory=dict)

    def as_dict(self, domain_names=None, image_names=None):
        img = image_names or (lambda w: list(w))
        dom = domain_names or (lambda w: list(w))
        return {
            "u": list(img(self.u)),
            "endpoints": list(dom(self.endpoints)),
            "bridge": list(dom(self.bridge_word)), "gap": self.gap,
            "block": list(img(self.block)), "log_bound": self.log_bound,
            "verified_j": self.verified_j, "slacks": self.slacks,
            "ok": self.ok, "exact": self.exact, "constants": self.constants,
        }


def c2_certificate(gt: SeqTable, pi: OneBlockFactor, f: LocallyConstantPotential,
                   u: Word, gap_cap: int, J: int) -> C2Certificate:
    """Build the bridged periodic image word from the best preimage
    endpoint pair and verify the per-period lower bound numerically
    (exactly on the counting path)."""
    if not is_irreducible(pi.domain):
        raise DetectError("certificates need an irreducible domain shift")
    if not pi.image.is_word(u):
        raise DetectError("word %s is not in the image language" % (u,))
    n = len(u)
    if n > gt.depth_max:
        raise TableError("certificate word is deeper than the table")
    groups: dict[tuple[int, int], list[Word]] = {}
    for x in fiber_words(pi, u):
        groups.setdefault((x[0], x[-1]), []).append(x)
    exact = gt.is_exact and f.is_zero
    best_key = None
    best = None
    for key in sorted(groups):
        xs = groups[key]
        total = len(xs) if exact else logsumexp(birkhoff_sup(f, x) for x in xs)
        if best is None or total > best:
            best = total
            best_key = key
    i0, j0 = best_key
    w = bridge(pi.domain, (j0,), (i0,), gap_cap)
    if w is None:
        raise DetectError("no bridge of length <= %d from %s to %s"
                          % (gap_cap, pi.domain.alphabet[j0], pi.domain.alphabet[i0]))
    q = len(w)
    block = u + pi.apply(w)

    log_mn = variation_constant(f, n)
    l1 = len(pi.preimage_symbols(u[0]))
    l2 = len(pi.preimage_symbols(u[-1]))
    if q == 0:
        m_log = 0.0
    else:
        m_log = min(birkhoff_inf(f, wq) for wq in pi.domain.blocks(q))
        m_log = min(m_log, 0.0)
    log_bound = m_log - math.log(l1 * l2) - 2 * log_mn

    g_u = gt.log_value(n, u)
    verified = []
    slacks = []
    ok = True
    period = n + q
    j = 1
    while j <= J and j * period <= gt.depth_max:
        word_j = block * j
        lhs = gt.log_value(j * period, word_j)
        slack = lhs - j * (log_bound + g_u)
        verified.append(j)
        slacks.append(slack)
        if exact:
            bound_exact = Fraction(1, l1 * l2)
            if gt.exact_value(j * period, word_j) < (bound_exact * gt.exact_value(n, u)) ** j:
                ok = False
        elif slack < -1e-9:
            ok = False
        j += 1
    if not verified:
        raise TableError("table too shallow to verify any multiple of %d" % period)
    return C2Certificate(u, (i0, j0), w, q, block, log_bound, verified, slacks,
                         ok, exact,
                         constants={"m_log": m_log, "l1": l1, "l2": l2,
                                    "log_mn": log_mn})


# ---------------------------------------------------------------------------
# aggregate verdict

def image_periodic_points(language, max_period: int) -> list[PeriodicPoint]:
    """Canonical periodic orbits of the image shift up to max_period."""
    return periodic_points(language, max_period)


@dataclass
class DefectReport:
    verdict: Verdict
    reason: str
    h: FitResult | None = None
    uniform: dict[int, float] = field(default_factory=dict)
    uniform_exact_zero: bool = False
    periodic: dict[PeriodicPoint, list[float]] = field(default_factory=dict)
    periodic_exact_zero: bool = False
    tstars: dict[int, float] = field(default_factory=dict)
    profile_growth: bool = False
    profile_witness: dict | None = None
    coverage: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def as_dict(self, names=None):
        def orbit_key(p):
            return ",".join(names(p.block)) if names else ",".join(map(str, p.block))
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "h": None if self.h is None else self.h.as_dict(names),
            "uniform": {str(n): v for n, v in sorted(self.uniform.items())},
            "uniform_exact_zero": self.uniform_exact_zero,
            "periodic": {orbit_key(p): v for p, v in sorted(self.periodic.items(),
                                                            key=lambda kv: (kv[0].period, kv[0].block))},
            "periodic_exact_zero": self.periodic_exact_zero,
            "tstars": {str(n): v for n, v in sorted(self.tstars.items())},
            "profile_growth": self.profile_growth,
            "profile_witness": self.profile_witness,
            "coverage": self.coverage,
            "stats": self.stats,
        }


def table_verdict(gt: SeqTable, h: LocallyConstantPotential | None = None,
                  r: int = 1, P_max: int = 6, J: int | None = None,
                  n_fits=None, slope_threshold: float = DEFAULT_SLOPE_THRESHOLD) -> DefectReport:
    """Full detector for a g-table and a candidate h (fitted when None).

    Aggregates (a) periodic defects over all image orbits with period
    <= P_max and all multiples inside the table, (b) the uniform defect
    trend, (c) the defect-profile growth flag, plus the Chebyshev t* per
    fitted depth when h is fitted rather than given.  For f = 0 this is the
    saturated-compensation test.  The defect profile is read only up to its
    first growing row (``growth_witness``), which leaves the Hankel rank
    computed.  A fitted range-1 h on rank-1 counts with a common power base
    comes in closed form (``_product_fits``) and every uniform defect is
    then exactly 0: the bytes of the fits and walks this skips.  r >= 2
    (its fit pinned by a gauge), given candidates and rank-1 counts with no
    common base take them.  The orbits take the one row walk of every
    verdict (``orbit_defects``)."""
    witness = growth_witness(gt, slope_threshold)
    if witness is not None:
        return DefectReport(
            Verdict.REFUTED, "defect profile grows linearly in log", profile_growth=True,
            profile_witness=witness,
            coverage={"depth_max": gt.depth_max, "orbits": 0, "P_max": P_max},
            stats={"slope_threshold": slope_threshold})

    fit = product = None
    tstars: dict[int, float] = {}
    exact_fit_zero = True
    if h is None:
        if gt.language is None:
            return DefectReport(
                Verdict.EVIDENCE, "no growth found; no candidate h to certify",
                coverage={"depth_max": gt.depth_max, "orbits": 0, "P_max": P_max})
        if n_fits is None:
            hi = min(gt.depth_max, FIT_DEPTH)
            n_fits = list(range(max(r, min(2, hi)), hi + 1))
        if not n_fits:
            raise DetectError("fit range exceeds the fit depth")
        product = _product_fits(gt, n_fits) if r == 1 else None
        for fit in product or fit_depths(gt, r, n_fits):
            tstars[fit.n_fit] = fit.tstar
            if not (fit.exact and fit.tstar_exact == 0):
                exact_fit_zero = False
        h = fit.potential(gt.language)
    elif gt.language is not None:
        for nf in (n_fits or [min(gt.depth_max, FIT_DEPTH)]):
            tstars[nf] = chebyshev_defect(gt, h.values, h.range, nf)

    if product:  # g(y) = e^{S_n h(y)} exactly: every uniform defect is 0
        uniform, uniform_exact = dict.fromkeys(range(1, gt.depth_max + 1), 0.0), True
    elif (exact_u := uniform_defects_exact_all(gt, h)) is not None:
        log_b = math.log(h.exact_base)
        uniform = {n: float(ue) * log_b for n, ue in exact_u.items()}
        uniform_exact = all(ue == 0 for ue in exact_u.values())
    else:
        uniform = uniform_defects(gt, h)
        uniform_exact = False

    orbits = image_periodic_points(gt.language, P_max) if gt.language is not None else []
    periodic: dict[PeriodicPoint, list[float]] = {}
    periodic_exact = True
    refuted_orbit = None
    for orbit in orbits:
        q = orbit.period
        j_max = min(J, gt.depth_max // q) if J else gt.depth_max // q
        if j_max < 1:
            continue
        ds, de, values = orbit_defects(gt, h, orbit, j_max)
        periodic[orbit] = ds
        if de is None or any(de):
            periodic_exact = False
            # exact multiplicativity witness: g_{jq}(B^j) == g_q(B)^j makes
            # the defect constant in j, so a nonzero value is the Kingman
            # limit itself; it refutes that h only, so a given candidate,
            # not a fit (one of many).  With a float h it still stands when
            # the defect clears the Birkhoff-sum rounding by many orders.
            nonzero = de[0] != 0 if de is not None else abs(ds[0]) > 1e-6
            if refuted_orbit is None and fit is None and gt.is_exact and nonzero and \
                    all(v == values[0] ** j for j, v in enumerate(values, start=1)):
                limit = float(de[0]) * math.log(h.exact_base) if de is not None else ds[0]
                refuted_orbit = (orbit, limit)

    coverage = {"depth_max": gt.depth_max, "P_max": P_max,
                "orbits": len(periodic),
                "multiples": {",".join(map(str, o.block)): len(v) for o, v in periodic.items()}}

    if refuted_orbit is not None:
        orbit, d = refuted_orbit
        return DefectReport(
            Verdict.REFUTED, "periodic defect bounded away from 0 with exact arithmetic",
            h=fit, uniform=uniform, periodic=periodic, tstars=tstars, coverage=coverage,
            stats={"orbit": list(orbit.block), "limit_defect": d})

    exact_ok = (uniform_exact and periodic_exact and
                (exact_fit_zero if fit is not None else h.is_exact))
    if exact_ok and uniform:
        return DefectReport(
            Verdict.CERTIFIED, "exact zero defects at every checked depth", h=fit,
            uniform=uniform, uniform_exact_zero=True, periodic=periodic,
            periodic_exact_zero=True, tstars=tstars, coverage=coverage)

    ns = sorted(uniform)
    stats = {
        "uniform_decays": decays_to_zero(ns, [uniform[n] for n in ns]),
        "max_uniform_tail": max(uniform[n] for n in ns[len(ns) // 2:]) if ns else None,
        "max_abs_periodic_last": max((abs(v[-1]) for v in periodic.values()), default=None),
    }
    return DefectReport(
        Verdict.EVIDENCE, "finite-depth decay statistics only", h=fit, uniform=uniform,
        uniform_exact_zero=uniform_exact, periodic=periodic,
        periodic_exact_zero=periodic_exact, tstars=tstars, coverage=coverage, stats=stats)
