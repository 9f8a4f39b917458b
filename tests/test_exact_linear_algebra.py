"""The integer-only exact linear algebra against its Fraction oracles.

``numerics.solve_int`` (the canonical solve on the fraction-free pivot)
must return the Fraction row reduction's solution, or its None, on
consistent, inconsistent and rank-deficient integer systems, entries past
2^63 included; ``lp._dual_simplex`` on its integer tableau the Fraction
simplex's (z, t*); and the exact stationary vector and ``perron_exact``
the values of partial-pivoting Gaussian elimination over Fractions;
``numerics.scaled_inverse`` (int64 while a bound allows) the integers of
``row_reduce``, and ``numerics.span_basis`` (one candidate reduced at a
time) the rank ``row_reduce`` gives every word's row.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoshift.lp import _dual_simplex, chebyshev_fit_exact
from thermoshift.markov import _solve_stationary
from thermoshift.numerics import (perron, perron_exact, pivot, row_reduce, scaled_inverse,
                                  solve_int, span_basis)

import fraction_oracles as oracle

BIG = 2 ** 70


def entries(big):
    return st.integers(-BIG, BIG) if big else st.integers(-3, 3)


@st.composite
def systems(draw):
    """Integer rows [a_i | b_i]: some rows are integer combinations of the
    others (rank deficiency), and b is a z-image (consistent) or free."""
    nvars, nrows = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    big = draw(st.booleans())
    a = [[draw(entries(big)) for _ in range(nvars)] for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(-2, 2))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])] if draw(st.booleans()) else a[j][:]
    if draw(st.booleans()):
        z = [Fraction(draw(entries(big)), draw(st.integers(1, 6))) for _ in range(nvars)]
        den = draw(st.integers(1, 6))
        b = [sum((c * x for c, x in zip(row, z)), Fraction(0)) * den for row in a]
        a = [[c * den * x.denominator for c in row] for row, x in zip(a, b)]
        b = [x.numerator for x in b]
    else:
        b = [draw(entries(big)) for _ in range(nrows)]
    return a, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_int_matches_the_fraction_row_reduction(case):
    a, b = case
    nvars = len(a[0])
    want = oracle.try_exact_interpolation([dict(enumerate(row)) for row in a], b, nvars)
    got = solve_int([row + [x] for row, x in zip(a, b)], nvars)
    if want is None:
        assert got is None
    else:
        z, den = got
        assert den > 0 and [Fraction(x, den) for x in z] == want


@st.composite
def chebyshev_problems(draw, bound=BIG):
    """Integer rows a_i (<= 9) over <= 4 unknowns and right-hand sides e_i,
    some entries up to ``bound``."""
    nvars, nrows = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    big = st.integers(-bound, bound)
    small = draw(st.integers(0, 3)) > 0
    a = [[draw(st.integers(-3, 3) if small else big) for _ in range(nvars)] for _ in range(nrows)]
    e = [draw(st.integers(-12, 12) if small else big) for _ in range(nrows)]
    return a, e


@settings(max_examples=300, deadline=None)
@given(chebyshev_problems())
# entries in [2^63, 2^64) make np.asarray uint64, and with negatives beside them float64
@example(([[2 ** 63 + 5]], [1]))
@example(([[14348088201511108608], [-663], [-652]], [-1070, -520, 9556]))
def test_integer_simplex_matches_the_fraction_simplex(case):
    a, e = case
    zn, tn, d = _dual_simplex([row[:] for row in a], list(e))
    z, t = oracle._dual_simplex([dict(enumerate(row)) for row in a],
                                [Fraction(g) for g in e], len(a[0]))
    assert d > 0
    assert [Fraction(x, d) for x in zn] == z and Fraction(tn, d) == t


@settings(max_examples=200, deadline=None)
@given(chebyshev_problems(bound=2 ** 40))
def test_exact_fit_matches_the_fraction_fit(case):
    # the fit takes int64 arrays (window counts and exponents); its checks
    # move to Python ints where a product could pass 2^63
    a, e = case
    rows = [dict(enumerate(row)) for row in a]
    want = oracle.try_exact_interpolation(rows, e, len(a[0]))
    want = (want, 0) if want is not None else oracle._dual_simplex(rows, [Fraction(g) for g in e],
                                                                  len(a[0]))
    z, t = chebyshev_fit_exact(np.array(a, dtype=np.int64), np.array(e, dtype=np.int64))
    assert (z, t) == want and oracle.chebyshev_defect_value(rows, e, z) == t


def test_pivot_divides_exactly_by_the_previous_pivot():
    rows = [[2, 1, 1, 5], [4, 3, 3, 13], [8, 7, 9, 31]]
    prev = 1
    for k in range(3):
        prev = pivot(rows, k, k, prev)
    # every row is det(A) times the reduced row: det = 4, solution (1, 2, 1)
    assert prev == 4 and rows == [[4, 0, 0, 4], [0, 4, 0, 8], [0, 0, 4, 4]]


@st.composite
def exact_chains(draw):
    """A row-stochastic Fraction matrix on <= 4 states, zeros allowed, some
    states absorbing (two of them make the stationary system singular)."""
    n = draw(st.integers(1, 4))
    matrix = []
    for i in range(n):
        ws = [draw(st.integers(0, 4)) for _ in range(n)]
        ws[draw(st.integers(0, n - 1))] += 1
        if draw(st.integers(0, 3)) == 0:
            ws = [int(i == j) for j in range(n)]
        matrix.append([Fraction(w, sum(ws)) for w in ws])
    return matrix


@settings(max_examples=300, deadline=None)
@given(exact_chains())
def test_exact_stationary_vector_matches_gaussian_elimination(matrix):
    try:
        want = oracle.stationary(matrix)
    except ValueError:
        with pytest.raises(ValueError):
            _solve_stationary(matrix, True)
        return
    assert _solve_stationary(matrix, True) == want


@settings(max_examples=300, deadline=None)
@given(exact_chains(), st.booleans())
def test_perron_exact_matches_gaussian_elimination(matrix, constant_rows):
    # integer weights of a chain: d P (d the lcm of the denominators) has
    # the Perron root d, often accepted; the numerators alone mostly not
    d = math.lcm(*(p.denominator for row in matrix for p in row))
    w = np.array([[(p * d if constant_rows else p).numerator for p in row] for row in matrix],
                 dtype=np.int64)
    rho = perron(w)[0]
    assert perron_exact(w, rho) == oracle.perron_exact(w, rho)


@st.composite
def bases(draw):
    """Square integer matrices: small entries (the int64 path), entries past
    the Hadamard bound's 2^30 (the Python-int path), and singular ones (a
    row an integer combination of others, or a zero column)."""
    m = draw(st.integers(1, 7))
    big = draw(st.sampled_from([0, 3, 2 ** 20, 2 ** 40]))
    b = [[draw(st.integers(-big, big) if big else st.integers(0, 1)) for _ in range(m)]
         for _ in range(m)]
    shape = draw(st.sampled_from(["free", "combination", "zero column"]))
    if m > 1 and shape == "combination":
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.integers(-2, 2))
        b[i] = [x + k * y for x, y in zip(b[i], b[j])] if draw(st.booleans()) else list(b[j])
    elif shape == "zero column":
        c = draw(st.integers(0, m - 1))
        for row in b:
            row[c] = 0
    return np.array(b, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(bases())
@example(np.array([[2, 0], [0, 2]], dtype=np.int64))
def test_scaled_inverse_matches_the_row_reduction(b):
    """(|det B| B^-1, |det B|) from ``scaled_inverse``, vectorized in int64
    or not, are the integers of ``row_reduce`` on [B | I], and None exactly
    when B is singular."""
    m = len(b)
    rows = [row + [int(i == j) for j in range(m)] for i, row in enumerate(b.tolist())]
    pivots, d = row_reduce(rows, m)
    got = scaled_inverse(b)
    if len(pivots) < m:
        assert got is None
        return
    want = [row[m:] if d > 0 else [-x for x in row[m:]] for row in rows]
    assert got == (want, abs(d))
    assert all(type(x) is int for row in got[0] for x in row)
    inv = np.array(got[0], dtype=object)
    assert (b.astype(object) @ inv == abs(d) * np.eye(m, dtype=int).astype(object)).all()


@st.composite
def spans(draw):
    """(seeds, mats): one or two integer rows and up to three square
    integer matrices on <= 4 columns, some entries past 2^63, some
    matrices of low rank."""
    n, big = draw(st.integers(1, 4)), draw(st.booleans())
    row = st.lists(entries(big), min_size=n, max_size=n)
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        m = [draw(row) for _ in range(n)]
        if draw(st.booleans()):  # rank <= 1
            m = [[x * c for x in m[0]] for c in draw(st.lists(entries(False), min_size=n,
                                                               max_size=n))]
        mats.append(m)
    return draw(st.lists(row, min_size=1, max_size=2)), mats


@settings(max_examples=300, deadline=None)
@given(spans())
def test_span_basis_matches_the_rank_of_every_word(case):
    """The rows v M_w, |w| < n columns, span the whole space reached (it
    grows at each length until it stops); ``span_basis`` keeps as many of
    them as their rank, each outside the span of those before it."""
    seeds, mats = case
    n = len(seeds[0])
    every, level = [list(v) for v in seeds], [list(v) for v in seeds]
    for _ in range(n - 1):
        level = [[sum(x * m[i][j] for i, x in enumerate(v)) for j in range(n)]
                 for v in level for m in mats]
        every += level
    found = span_basis(seeds, mats)
    assert all(v in every for v in found)
    assert len(found) == len(row_reduce([v[:] for v in every], n)[0])
    assert [len(row_reduce([v[:] for v in found[:i]], n)[0]) for i in range(len(found) + 1)] \
        == list(range(len(found) + 1))
