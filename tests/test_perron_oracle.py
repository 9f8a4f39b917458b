"""The pressure of a table and of the transfer operator against a Perron
root the test computes itself.

``pressure_estimate`` and ``transfer_pressure`` read one transfer matrix
and one Perron routine, so their pressures agree bit for bit.  The oracle
builds its own weight matrix from the drawn transition matrix and the
potential's r-block windows, with plain itertools and numpy: states are the
(r-1)-blocks (symbols for r = 1), an edge u -> u[1:] + (x,) weighs
e^{f(u + (x,))} for r >= 2 and e^{f(u)} for r = 1 (the source symbol; the
program weights the symbol entered, and A D and D A have one spectrum).
"""

import itertools
import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor, build_g_table,
                         pressure_estimate, transfer_pressure)
from thermoshift.shiftcore import Sft


@st.composite
def cases(draw):
    """(trans, factor, potential, depth) on an irreducible SFT of <= 4
    symbols: a random cycle through every symbol plus random edges."""
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    order = draw(st.permutations(range(n)))
    for a, b in zip(order, order[1:] + order[:1]):
        trans[a][b] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    pi = OneBlockFactor(sft, draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n)))
    r = draw(st.integers(1, 3))
    zero = draw(st.booleans())
    values = {w: 0.0 if zero else draw(st.floats(-3, 3)) for w in sft.blocks(r)}
    # depth >= n + 1: a geometric Z_1..Z_depth is then geometric for ever
    return trans, pi, LocallyConstantPotential(sft, r, values), draw(st.integers(n + 1, 7))


def log_spectral_radius(trans, f) -> float:
    n, r = len(trans), f.range
    k = max(r - 1, 1)
    states = [w for w in itertools.product(range(n), repeat=k)
              if all(trans[a][b] for a, b in zip(w, w[1:]))]
    index = {s: i for i, s in enumerate(states)}
    w = np.zeros((len(states), len(states)))
    for s in states:
        for x in range(n):
            if trans[s[-1]][x]:
                w[index[s], index[(s + (x,))[-k:]]] = math.exp(
                    f.values[s + (x,)] if r >= 2 else f.values[s])
    return math.log(max(abs(np.linalg.eigvals(w))))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_table_and_transfer_pressures_are_one_perron_root(case):
    trans, pi, f, depth = case
    est = pressure_estimate(build_g_table(pi, f, depth))
    gd = transfer_pressure(pi.domain, f)
    assert est.extrapolated == gd.pressure  # bit for bit
    assert math.isclose(gd.pressure, log_spectral_radius(trans, f), rel_tol=1e-12, abs_tol=1e-12)
    assert gd.residual <= 1e-12
    assert gd.measure.exact == (gd.lam_exact is not None)
    if f.is_zero and est.exact_base is not None:
        assert gd.lam_exact == est.exact_base
        assert gd.measure.exact and gd.residual == 0.0  # MarkovMeasure validated it exactly


def test_range2_pressures_hit_the_perron_root(collapse, full3):
    # seeded range-2 potentials of the r2-float benchmark's kind, at its depth
    rng = random.Random(13)
    for _ in range(60):
        values = {w: rng.uniform(-1.0, 1.0) for w in full3.blocks(2)}
        est = pressure_estimate(build_g_table(collapse, LocallyConstantPotential(full3, 2, values),
                                              13))
        root = math.log(max(abs(np.linalg.eigvals(np.exp(
            [[values[a, b] for b in range(3)] for a in range(3)])))))
        assert abs(est.extrapolated - root) <= 1e-12
