"""fit_depths: the fits of a verdict, exact counting fits and float fits
solved exactly on their dyadic data.

Against fit_h run one depth at a time on random tables (float, exact, and
exact with some depths past the exact simplex's size cap, so they fall to
the float path), the pinned boundary gauge of float fits, a float verdict
run without scipy, the exact simplex taking over from a proposed basis that
is not optimal, the depth named when a float fit fails, and refinement
certifying optima whose ties lie at the rounding level of the logs.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, OneBlockFactor, build_g_table, lp
from thermoshift.detect import _fit_rows, _pin_gauge, fit_depths, fit_h
from thermoshift.jsonio import load_factor, read_json
from thermoshift.lp import LpError, chebyshev_fit_float
from thermoshift.shiftcore import Sft

ROOT = Path(__file__).resolve().parent.parent


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
    # a small cap sends the larger exact fits with t* > 0 to the float path: a mixed verdict
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
    the deeper ones fall to the float path on their logs, with the same t*
    as one depth at a time."""
    sft = Sft(["0", "1", "2"], [[1, 1, 1], [0, 1, 1], [1, 1, 1]])
    pi = OneBlockFactor(sft, ["b", "a", "b"])
    gt = build_g_table(pi, LocallyConstantPotential.zero(sft), 8)
    with mock.patch.object(lp, "_EXACT_FIT_LIMIT", 40):
        batch = fit_depths(gt, 1, range(2, 9))
        single = [fit_h(gt, 1, n) for n in range(2, 9)]
    assert [fit.solver for fit in batch] == ["exact-simplex"] * 3 + ["dyadic-exact"] * 4
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
        z, _ = chebyshev_fit_float(a, gt.levels[n_fit].logs)
        pinned = _pin_gauge(gt, r, n_fit, classes, z)
        for c in (-3.25, 0.5, 7.0):
            moved = [v + c for v in z[:k]] + [v - (n_fit - r + 1) * c for v in z[k:]]
            assert np.allclose(_pin_gauge(gt, r, n_fit, classes, moved), pinned,
                               rtol=0, atol=1e-12)
        b, _, keep = _fit_rows(gt, r, n_fit - 1, classes)
        resid = gt.levels[n_fit - 1].logs[keep] - b @ np.array(pinned)
        assert abs(resid.max() + resid.min()) / 2 <= 1e-12


def test_float_verdict_runs_without_scipy():
    """The float verdict of the golden reports, in a fresh interpreter where
    importing scipy fails: it exits 0, leaves scipy unloaded and writes the
    golden bytes."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from thermoshift.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "assert sys.modules['scipy'] is None\n"
            "sys.exit(code)")
    argv = ["verdict", "--factor", "fixtures/factor_collapse.json",
            "--potential", "tests/golden/potential_r2_full3.json", "--depth", "7", "--range", "2"]
    out = subprocess.run([sys.executable, "-c", code] + argv, cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (ROOT / "tests" / "golden" / "verdict_float.json").read_text()


def _not_optimal(a, hi, lo):
    """The artificial basis: feasible for phase 1 only, never optimal."""
    return list(range(2 * len(a), 2 * len(a) + a.shape[1] + 1))


@pytest.mark.parametrize("seed", range(3))
def test_exact_simplex_takes_over_from_a_basis_that_is_not_optimal(seed):
    gt = _random_float_table(seed, 6)
    for n_fit in range(2, 7):
        a, _, _ = _fit_rows(gt, 2, n_fit)
        logs = gt.levels[n_fit].logs
        guided = lp._fit_dyadic(a, logs)
        calls = []

        def counted(*args, real=lp._dual_simplex):
            calls.append(args[3] if len(args) > 3 else None)
            return real(*args)

        with mock.patch.object(lp, "_propose_basis", _not_optimal), \
                mock.patch.object(lp, "_dual_simplex", counted):
            fallback = lp._fit_dyadic(a, logs)
        assert calls == [None]  # no usable start: the simplex ran from scratch
        zn, tn, den = fallback
        assert Fraction(tn, den) == Fraction(guided[1], guided[2])
        # the fallback is the exact dual simplex on the same integers
        groups = {}
        for row, x in zip(map(tuple, a.tolist()), logs.tolist()):
            groups.setdefault(row, []).append(x)
        ints, k = lp._dyadic([max(v) for v in groups.values()] + [min(v) for v in groups.values()])
        z, t, d = lp._dual_simplex(np.array(list(groups)), ints[:len(groups)], ints[len(groups):])
        assert (zn, tn, den) == (z, t, d << k)


def test_float_fit_failure_names_the_depth():
    """An LpError inside the block of one depth names that depth: here every
    block with at least as many distinct rows as depth 4's fails."""
    gt = _random_float_table(0, 6)
    rows4 = len(np.unique(_fit_rows(gt, 2, 4)[0], axis=0))
    assert rows4 > len(np.unique(_fit_rows(gt, 2, 3)[0], axis=0))

    def fails_from_depth_4(a, hi, lo, real=lp._propose_basis):
        if len(a) >= rows4:
            raise LpError("iteration limit reached")
        return real(a, hi, lo)

    with mock.patch.object(lp, "_propose_basis", fails_from_depth_4):
        with pytest.raises(LpError, match=r"n_fit 4: .*iteration limit"):
            fit_h(gt, 2, 4)
        with pytest.raises(LpError, match=r"n_fit 4: .*iteration limit"):
            fit_depths(gt, 2, range(2, 7))


def test_refinement_certifies_optima_at_the_rounding_level():
    """A range-1 potential fitted at range 3: in reals t* = 0, on the float
    logs t* is rounding noise and nearly every constraint ties.  The float
    pass cannot order such ties at the scale of the logs; refined on the
    exact reduced costs, its basis is certified with no exact simplex step,
    and its t* is the one Bland's rule finds from scratch.  With refinement
    switched off, the exact simplex goes on from the proposed basis to the
    same t*."""
    pi = load_factor(read_json(ROOT / "fixtures" / "factor_collapse.json"))
    rng = random.Random(5)
    f = LocallyConstantPotential(pi.domain, 1, {w: rng.uniform(-1, 1)
                                                for w in pi.domain.blocks(1)})
    gt = build_g_table(pi, f, 7)
    rounds, starts = [], []

    def counted(*args, real=lp._refine_basis):
        rounds.append(1)
        return real(*args)

    def warm(*args, real=lp._dual_simplex):
        starts.append(args[3])
        return real(*args)

    for n_fit in range(3, 8):
        a, _, _ = _fit_rows(gt, 3, n_fit)
        logs = gt.levels[n_fit].logs
        with mock.patch.object(lp, "_refine_basis", counted), \
                mock.patch.object(lp, "_dual_simplex", side_effect=AssertionError):
            _, tn, den = lp._fit_dyadic(a, logs)
        with mock.patch.object(lp, "_propose_basis", _not_optimal):
            _, tb, db = lp._fit_dyadic(a, logs)
        with mock.patch.object(lp, "_refine_basis", lambda a, start, reduced: start[0]), \
                mock.patch.object(lp, "_dual_simplex", warm):
            _, tw, dw = lp._fit_dyadic(a, logs)
        assert tn * db == tb * den and tw * db == tb * dw and 0 <= tn / den < 1e-14
    assert rounds and starts and None not in starts
