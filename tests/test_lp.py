import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import thermoshift
from thermoshift.lp import chebyshev_fit_exact, chebyshev_fit_float

from fraction_oracles import _dual_simplex, chebyshev_defect_value, try_exact_interpolation


def system(rows, rhs, nvars):
    """Dict rows with integral coefficients and right-hand side as the
    integer matrix and vector the fit entry points take."""
    return (np.array([[int(row.get(j, 0)) for j in range(nvars)] for row in rows]),
            np.array([int(g) for g in rhs]))


def test_interpolation_path_counts():
    # fit h(a), h(b) to the exponent of 2 in 2^{#a} over length-3 words
    rows, rhs = [], []
    for bits in range(8):
        word = [(bits >> i) & 1 for i in range(3)]
        counts = {}
        for s in word:
            counts[s] = counts.get(s, 0) + 1
        rows.append({k: Fraction(v) for k, v in counts.items()})
        rhs.append(Fraction(word.count(0)))
    z, t = chebyshev_fit_exact(*system(rows, rhs, 2))
    assert z == [Fraction(1), Fraction(0)] and t == 0


def test_interpolation_rejects_inconsistent():
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    rhs = [Fraction(0), Fraction(1)]
    assert try_exact_interpolation(rows, rhs, 1) is None


def test_simplex_midpoint():
    z, t = chebyshev_fit_exact(*system([{0: Fraction(1)}, {0: Fraction(1)}],
                                       [Fraction(0), Fraction(1)], 1))
    assert t == Fraction(1, 2) and z == [Fraction(1, 2)]


def test_simplex_weighted_spread():
    # residuals at z: 3-z, -1-z: optimum at z=1, t=2
    rows = [{0: Fraction(1)}, {0: Fraction(1)}, {0: Fraction(1)}]
    rhs = [Fraction(3), Fraction(-1), Fraction(1)]
    z, t = chebyshev_fit_exact(*system(rows, rhs, 1))
    assert z == [Fraction(1)] and t == Fraction(2)


def test_exact_matches_float_on_random_instances():
    rng = random.Random(19)
    for _ in range(40):
        nv = rng.randint(1, 4)
        nw = rng.randint(nv + 1, 12)
        rows, rhs = [], []
        for _ in range(nw):
            row = {j: Fraction(rng.randint(-3, 3)) for j in range(nv)
                   if rng.random() < 0.8}
            rows.append(row)
            rhs.append(Fraction(rng.randint(-12, 12), rng.randint(1, 5)))
        ze, te = _dual_simplex([dict(r) for r in rows], list(rhs), nv)
        assert chebyshev_defect_value(rows, rhs, ze) == te
        zf, tf = chebyshev_fit_float(system(rows, [0] * nw, nv)[0], rhs)
        assert float(te) == pytest.approx(tf, abs=1e-8)


def test_defect_value_arithmetic():
    rows = [{0: Fraction(2), 1: Fraction(-1)}]
    rhs = [Fraction(5)]
    assert chebyshev_defect_value(rows, rhs, [Fraction(1), Fraction(1)]) == Fraction(4)


def test_cli_import_leaves_scipy_unloaded():
    # no module of the package imports scipy
    src = str(Path(thermoshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, thermoshift.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
