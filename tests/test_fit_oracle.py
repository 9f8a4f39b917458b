"""fit_h against the word-by-word fit it replaced, kept here as the oracle.

The oracle builds one dict row of Fraction window counts per word, slicing
the words of ``gt.words(n_fit)``, reads each word's exponent through
``exact_value`` and runs the Fraction fit of ``fraction_oracles`` on every
row (interpolation, then the dual simplex) or scipy's HiGHS on the same
rows.  For r >= 2 and t* = 0 it also builds the rows at n_fit - 1 with the
same boundary classes: where those and the rows at n_fit are consistent,
fit_h must return their canonical solution (the boundary gauge pinned).  A
float fit is the exact optimum of the float data on the distinct rows,
rounded: it must match the oracle's t*, the defect its z attains on the
oracle's rows (in Fractions) must be t* up to rounding, and for r >= 2 the
rows at n_fit - 1 must have residuals of midrange 0 (its gauge pinned).
Inputs are random SFTs on <= 4 symbols (reducible ones too), random
one-block maps, f = 0 (exact tables) or random float potentials, fit
ranges r in {1, 2, 3} and depths <= 7.  Some tables are rebuilt from dicts
in shuffled order: their level index must come out sorted, as the row
order of the fit needs.  Two property tests close the file: the float
simplex's proposed basis changes the speed of ``lp._fit_dyadic``, never its
exact t*, and ``lp._dyadic`` is exact on every kind of finite float.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, OneBlockFactor, SeqTable, build_g_table, lp
from thermoshift.detect import fit_h
from thermoshift.numerics import power_exponent
from thermoshift.shiftcore import Sft

from fraction_oracles import _dual_simplex, chebyshev_defect_value, try_exact_interpolation

MAX_ROWS = 200  # keeps the oracle's Fraction simplex quick


def oracle_rows(gt, r, n_fit):
    """The constraint rows as dicts of Fraction counts, word by word."""
    r_words = gt.words(r)
    h_index = {w: i for i, w in enumerate(r_words)}
    tau_index = {}
    if r >= 2:
        for w in gt.words(n_fit):
            s = w[n_fit - r + 1:]
            if s not in tau_index:
                tau_index[s] = len(r_words) + len(tau_index)
    rows = []
    words = gt.words(n_fit)
    for w in words:
        row = {}
        for i in range(n_fit - r + 1):
            j = h_index[w[i:i + r]]
            row[j] = row.get(j, Fraction(0)) + 1
        if r >= 2:
            row[tau_index[w[n_fit - r + 1:]]] = Fraction(1)
        rows.append(row)
    return r_words, tau_index, rows, words


def oracle_rows_below(gt, r, n_fit, r_words, taus, value=None):
    """Rows and exponents (or ``value(n, w)``) at depth n_fit - 1 over the
    unknowns of the fit at n_fit, for the words whose class is one of its
    classes (at n_fit = r they have no window)."""
    n = n_fit - 1
    h_index = {w: i for i, w in enumerate(r_words)}
    tau_index = {s: len(r_words) + i for i, s in enumerate(taus)}
    rows, rhs = [], []
    for w in gt.words(n):
        if w[n - r + 1:] not in tau_index:
            continue
        row = {tau_index[w[n - r + 1:]]: Fraction(1)}
        for i in range(n - r + 1):
            j = h_index[w[i:i + r]]
            row[j] = row.get(j, Fraction(0)) + 1
        rows.append(row)
        rhs.append(Fraction(power_exponent(gt.exact_value(n, w), gt.power_base))
                   if value is None else value(n, w))
    return rows, rhs


def oracle_fit_exact(rows, rhs, nvars):
    direct = try_exact_interpolation(rows, rhs, nvars)
    if direct is not None:
        return direct, Fraction(0)
    z, tstar = _dual_simplex(rows, rhs, nvars)
    assert chebyshev_defect_value(rows, rhs, z) == tstar
    return z, tstar


def oracle_fit_float(rows, rhs, nvars):
    from scipy.optimize import linprog

    w = len(rows)
    a_ub = np.zeros((2 * w, nvars + 1))
    b_ub = np.zeros(2 * w)
    for i, (a, g) in enumerate(zip(rows, rhs)):
        for j, c in a.items():
            a_ub[i, j] = -float(c)
            a_ub[w + i, j] = float(c)
        a_ub[i, nvars] = -1.0
        a_ub[w + i, nvars] = -1.0
        b_ub[i] = -float(g)
        b_ub[w + i] = float(g)
    c = np.zeros(nvars + 1)
    c[nvars] = 1.0
    bounds = [(None, None)] * nvars + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    return [float(v) for v in res.x[:nvars]], float(res.x[nvars])


def oracle(gt, r, n_fit):
    """(r_words, tau words, rows, rhs, z, t*, exact)."""
    r_words, tau_index, rows, words = oracle_rows(gt, r, n_fit)
    nvars = len(r_words) + len(tau_index)
    base = gt.power_base
    exps = None if base is None else [power_exponent(gt.exact_value(n_fit, w), base)
                                      for w in words]
    if exps is not None and None not in exps:
        rhs = [Fraction(e) for e in exps]
        z, tstar = oracle_fit_exact(rows, rhs, nvars)
        return r_words, list(tau_index), rows, rhs, z, tstar, True
    rhs = [gt.log_value(n_fit, w) for w in words]
    z, tstar = oracle_fit_float(rows, rhs, nvars)
    return r_words, list(tau_index), rows, rhs, z, tstar, False


@st.composite
def cases(draw):
    """(table, fit range, n_fit)."""
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    # a permutation of edges gives every symbol a follower and a predecessor
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    pi = OneBlockFactor(sft, draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        f = LocallyConstantPotential.zero(sft)
    else:
        fr = draw(st.integers(1, 2))
        f = LocallyConstantPotential(sft, fr, {w: draw(st.floats(-3, 3)) for w in sft.blocks(fr)})
    r = draw(st.integers(1, 3))
    depth = draw(st.integers(r, 7))
    gt = build_g_table(pi, f, depth)
    n_fit = max(n for n in range(r, depth + 1) if n == r or len(gt.levels[n]) <= MAX_ROWS)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        logs = {n: dict(rng.sample(list(v.items()), len(v))) for n, v in gt.logs.items()}
        exact = None if gt.exact is None else {n: {w: gt.exact[n][w] for w in v}
                                               for n, v in logs.items()}
        gt = SeqTable(gt.alphabet, logs, exact)
    return gt, r, n_fit


def float_defect(rows, rhs, z):
    """max over the rows of |rhs_i - a_i . z| in floats."""
    return max(abs(e - sum(float(c) * z[j] for j, c in row.items())) for row, e in zip(rows, rhs))


def assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


@settings(max_examples=150, deadline=None)
@given(cases())
def test_fit_matches_the_word_by_word_oracle(case):
    gt, r, n_fit = case
    res = fit_h(gt, r, n_fit)
    r_words, taus, rows, rhs, z, tstar, exact = oracle(gt, r, n_fit)
    assert res.exact == exact
    assert list(res.values) == r_words
    if not exact:
        # the exact optimum of the float data, on the distinct rows: its
        # vertex may differ from HiGHS's on the word rows, so compare t*,
        # the defect z attains and, for r >= 2, the pinned boundary gauge
        # (the residuals at n_fit - 1 of the same classes have midrange 0)
        assert res.solver == "dyadic-exact"
        # HiGHS's objective can sit below the defect its own z attains (its
        # feasibility tolerance): there the exact t* lies between the two
        oracle_defect = float_defect(rows, rhs, z)
        assert abs(res.tstar - tstar) <= 1e-12 or tstar < res.tstar <= oracle_defect + 1e-12
        got = [res.values[w] for w in r_words] + [res.boundary[s] for s in taus]
        # rounding z (and the pin's float shift) moves its defect by a few
        # ulps of the largest term of a residual, |log| or sum |a_ij z_j|,
        # not by a solver tolerance
        exact_got = [Fraction(v) for v in got]
        attained = max(abs(Fraction(e) - sum(c * exact_got[j] for j, c in row.items()))
                       for row, e in zip(rows, rhs))
        terms = max(max(abs(e), float(sum(abs(c * got[j]) for j, c in row.items())))
                    for row, e in zip(rows, rhs))
        assert abs(attained - Fraction(res.tstar)) <= 4 * math.ulp(terms)
        if r >= 2:
            below, below_rhs = oracle_rows_below(gt, r, n_fit, r_words, taus, gt.log_value)
            resid = [e - sum(float(c) * got[j] for j, c in row.items())
                     for row, e in zip(below, below_rhs)]
            assert abs(max(resid) + min(resid)) / 2 <= 1e-12
        return
    assert res.solver == "exact-simplex" and res.tstar_exact == tstar
    if r >= 2 and tstar == 0:
        # the gauge rule: the canonical solution of the rows at n_fit and at
        # n_fit - 1 (same boundary classes) when that joint system is
        # consistent; it still attains t* = 0 on the oracle's rows
        below, below_rhs = oracle_rows_below(gt, r, n_fit, r_words, taus)
        distinct = dict.fromkeys((tuple(sorted(row.items())), e)
                                 for row, e in zip(rows + below, rhs + below_rhs))
        joint = try_exact_interpolation([dict(row) for row, _ in distinct],
                                        [e for _, e in distinct], len(r_words) + len(taus))
        if joint is not None:
            assert chebyshev_defect_value(rows, rhs, joint) == 0
            z = joint
    assert res.coeffs == dict(zip(r_words, z))
    log_b = math.log(res.base)
    assert_same_bits(res.values, {w: float(c) * log_b for w, c in zip(r_words, z)})
    assert_same_bits(res.boundary or {},
                     {s: float(c) * log_b for s, c in zip(taus, z[len(r_words):])})


@st.composite
def float_systems(draw):
    """(a, rhs): a small integer matrix with repeated rows and float rhs of
    mixed scales."""
    nvars = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 4), min_size=nvars, max_size=nvars),
                         min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    rhs = draw(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e-3, 1e-3),
                        min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.int64), np.array(rhs)


def _artificial_basis(a, hi, lo):
    return list(range(2 * len(a), 2 * len(a) + a.shape[1] + 1))


@settings(max_examples=200, deadline=None)
@given(float_systems())
def test_guided_fit_equals_bland(case):
    """The exact t* from the float simplex's basis equals the one Bland's
    rule finds from scratch (the proposer patched to the artificial basis),
    as Fractions; and the float fit rounds it."""
    a, rhs = case
    zn, tn, den = lp._fit_dyadic(a, rhs)
    with mock.patch.object(lp, "_propose_basis", _artificial_basis):
        _, tb, db = lp._fit_dyadic(a, rhs)
    assert den > 0 and tn * db == tb * den
    assert lp.chebyshev_fit_float(a, rhs) == ([x / den for x in zn], tn / den)


def test_dyadic_round_trips_every_kind_of_float():
    values = [0.0, -0.0, 1.0, -2.5, 0.1, -1e-3, 5e-324, -2.2250738585072014e-308,
              1e300, -1e300, float.fromhex("0x1.fffffffffffffp+1023")]
    ints, k = lp._dyadic(values)
    assert k == 1074  # the smallest subnormal sets the power
    assert [Fraction(n, 2 ** k) for n in ints] == [Fraction(x) for x in values]
    assert [n / 2 ** k for n in ints] == values
    assert lp._dyadic([0.5, 3.0]) == ([1, 6], 1) and lp._dyadic([]) == ([], 0)
