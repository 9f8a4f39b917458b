"""fit_depths: the fits of a verdict, the float ones in one HiGHS solve.

Against fit_h run one depth at a time on random tables (float, exact, and
exact with some depths past the exact simplex's size cap, so they fall to
HiGHS), the pinned boundary gauge of float fits, the one solve per float
verdict, and the depths named when the solver fails.
"""

import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, OneBlockFactor, build_g_table, lp
from thermoshift.detect import _fit_rows, _pin_gauge, fit_depths, fit_h, table_verdict
from thermoshift.jsonio import load_factor, load_potential, read_json
from thermoshift.lp import LpError, chebyshev_fits_float
from thermoshift.shiftcore import Sft

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def _count_linprog(result=None):
    """Count scipy's linprog calls; with ``result``, return it instead of solving."""
    calls, real = [], scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs) if result is None else result

    with mock.patch.object(scipy.optimize, "linprog", counted):
        yield calls


@st.composite
def tables(draw):
    """(table, fit range, depth, exact simplex cap): a random SFT on <= 3
    symbols with a random one-block map, f = 0 or a random float potential."""
    n = draw(st.integers(1, 3))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    pi = OneBlockFactor(sft, draw(st.lists(st.sampled_from("abc"[:n]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        f = LocallyConstantPotential.zero(sft)
    else:
        fr = draw(st.integers(1, 2))
        f = LocallyConstantPotential(sft, fr, {w: draw(st.floats(-3, 3)) for w in sft.blocks(fr)})
    r = draw(st.integers(1, 3))
    depth = draw(st.integers(max(r, 2), 8 if n < 3 else 6))
    # a small cap sends the larger exact fits with t* > 0 to HiGHS: a mixed verdict
    return build_g_table(pi, f, depth), r, depth, draw(st.sampled_from([8, 40, 400]))


@settings(max_examples=60, deadline=None)
@given(tables())
def test_one_batch_matches_one_fit_per_depth(case):
    gt, r, depth, cap = case
    n_fits = list(range(max(r, 2), depth + 1))
    with mock.patch.object(lp, "_EXACT_FIT_LIMIT", cap):
        batch = fit_depths(gt, r, n_fits)
        single = [fit_h(gt, r, n) for n in n_fits]
    assert [fit.n_fit for fit in batch] == n_fits
    for got, want in zip(batch, single):
        assert got.solver == want.solver
        assert abs(got.tstar - want.tstar) <= 1e-12
        if got.exact:  # exact fits run one depth at a time either way: the same bits
            assert got.tstar_exact == want.tstar_exact and got.coeffs == want.coeffs
            assert [v.hex() for v in got.values.values()] == \
                [v.hex() for v in want.values.values()]


def test_mixed_verdict_fits_exact_and_float_depths():
    """A counting table with power base 2 whose fits have t* > 0: with the
    exact simplex capped at 40 constraints, the shallow fits stay exact and
    the deeper ones fall to HiGHS, all of them in one solve, with the same t*
    as one depth at a time."""
    sft = Sft(["0", "1", "2"], [[1, 1, 1], [0, 1, 1], [1, 1, 1]])
    pi = OneBlockFactor(sft, ["b", "a", "b"])
    gt = build_g_table(pi, LocallyConstantPotential.zero(sft), 8)
    with mock.patch.object(lp, "_EXACT_FIT_LIMIT", 40):
        with _count_linprog() as calls:
            batch = fit_depths(gt, 1, range(2, 9))
        single = [fit_h(gt, 1, n) for n in range(2, 9)]
    assert [fit.solver for fit in batch] == ["exact-simplex"] * 3 + ["highs"] * 4
    assert len(calls) == 1
    for got, want in zip(batch, single):
        assert got.tstar > 0 and abs(got.tstar - want.tstar) <= 1e-12


def _random_float_table(seed, depth):
    rng = random.Random(seed)
    sft = Sft(["0", "1", "2"], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    pi = OneBlockFactor(sft, ["a", "a", "b"])
    f = LocallyConstantPotential(sft, 2, {w: rng.uniform(-1, 1) for w in sft.blocks(2)})
    return build_g_table(pi, f, depth)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r", [2, 3])
def test_pin_is_invariant_along_the_gauge(seed, r):
    """z and z + c delta fit equally well (delta = 1 on each r-word, -(n_fit
    - r + 1) on each class); pinning either gives the same z, whose
    residuals at n_fit - 1 have midrange 0."""
    gt = _random_float_table(seed, 7)
    k = len(gt.levels[r])
    for n_fit in range(r, 8):
        a, classes, _ = _fit_rows(gt, r, n_fit)
        [(z, _)] = chebyshev_fits_float([(a, gt.levels[n_fit].logs)])
        pinned = _pin_gauge(gt, r, n_fit, classes, z)
        for c in (-3.25, 0.5, 7.0):
            moved = [v + c for v in z[:k]] + [v - (n_fit - r + 1) * c for v in z[k:]]
            assert np.allclose(_pin_gauge(gt, r, n_fit, classes, moved), pinned,
                               rtol=0, atol=1e-12)
        b, _, keep = _fit_rows(gt, r, n_fit - 1, classes)
        resid = gt.levels[n_fit - 1].logs[keep] - b @ np.array(pinned)
        assert abs(resid.max() + resid.min()) / 2 <= 1e-12


def test_one_highs_solve_per_float_verdict():
    pi = load_factor(read_json(ROOT / "fixtures" / "factor_collapse.json"))
    f = load_potential(read_json(ROOT / "tests" / "golden" / "potential_r2_full3.json"),
                       pi.domain)
    gt = build_g_table(pi, f, 9)
    with _count_linprog() as calls:
        report = table_verdict(gt, r=2)
    assert len(calls) == 1
    assert list(report.tstars) == list(range(2, 9)) and report.h.solver == "highs"


def test_solver_failure_names_the_depths():
    failed = scipy.optimize.OptimizeResult(success=False, message="iteration limit reached")
    gt = _random_float_table(0, 6)
    with _count_linprog(failed), pytest.raises(LpError, match=r"n_fit 4: .*iteration limit"):
        fit_h(gt, 2, 4)
    with _count_linprog(failed), pytest.raises(LpError, match=r"n_fit 2, 3, 4, 5, 6: "):
        fit_depths(gt, 2, range(2, 7))
