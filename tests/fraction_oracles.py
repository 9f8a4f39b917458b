"""Fraction oracles for the integer-only exact linear algebra.

A row reduction, a two-phase dual simplex and partial-pivoting Gaussian
elimination over Fractions, the textbook forms of ``numerics.solve_int``,
``lp._dual_simplex``, ``markov._solve_stationary`` and
``numerics.perron_exact`` (which run in integers on the fraction-free
``numerics.pivot``): the differential tests require both forms to return
the same exact values.  Rows of the fit oracles are dicts
{unknown: coefficient}.  The exact Birkhoff extremes of a potential's
coefficients are the word-by-word reference of the exact uniform defects.
"""

import math
import operator
from fractions import Fraction

from thermoshift.lp import LpError
from thermoshift.numerics import gaussian_solve


def chebyshev_defect_value(rows, rhs, z):
    """max_i |G_i - a_i . z| for a candidate z (same arithmetic as inputs)."""
    return max((abs(g - sum(c * z[j] for j, c in a.items())) for a, g in zip(rows, rhs)),
               default=None)


def try_exact_interpolation(rows, rhs, nvars):
    """If the equality system a_i . z = G_i is consistent, return the
    canonical solution (free variables pinned to 0), else None.  It depends
    only on the row space: the distinct rows give the same z as all rows."""
    aug = [[Fraction(a.get(j, 0)) for j in range(nvars)] + [Fraction(g)] for a, g in zip(rows, rhs)]
    pivots, row = [], 0
    for col in range(nvars):
        piv = next((i for i in range(row, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    for i in range(row, len(aug)):
        if aug[i][nvars] != 0:
            return None
    z = [Fraction(0)] * nvars
    for i, col in enumerate(pivots):
        z[col] = aug[i][nvars]
    if chebyshev_defect_value(rows, rhs, z) != 0:
        return None
    return z


def _dual_simplex(rows, rhs, nvars):
    """Two-phase primal simplex on the dual of the Chebyshev LP.

    Dual: min sum_i G_i (y-_i - y+_i) subject to
          sum_i a_i (y+_i - y-_i) = 0   (one row per structural unknown)
          sum_i (y+_i + y-_i) = 1,  y >= 0.
    The primal optimum is (z, t) = (-pi_z, -pi_t) for the optimal simplex
    multipliers pi.
    """
    w = len(rows)
    m = nvars + 1                    # constraint rows
    ncols = 2 * w + m                # y+, y-, artificials
    zero = Fraction(0)
    one = Fraction(1)

    # sparse original columns: (row, coeff) pairs
    orig: list[list[tuple[int, Fraction]]] = []
    for i, a in enumerate(rows):
        orig.append([(j, Fraction(c)) for j, c in sorted(a.items())] + [(nvars, one)])
    for i, a in enumerate(rows):
        orig.append([(j, -Fraction(c)) for j, c in sorted(a.items())] + [(nvars, one)])
    for r in range(m):
        orig.append([(r, one)])

    tab = [[zero] * ncols for _ in range(m)]
    rhs_col = [zero] * m
    for j, col in enumerate(orig):
        for r, c in col:
            tab[r][j] = c
    rhs_col[nvars] = one
    basis = [2 * w + r for r in range(m)]
    basis_set = set(basis)

    cost2 = [-g for g in rhs] + [g for g in rhs] + [zero] * m

    def run(costs, allow_artificial):
        while True:
            # simplex multipliers from the artificial (identity) columns
            pi = [sum(costs[basis[i]] * tab[i][2 * w + r] for i in range(m))
                  for r in range(m)]
            entering = -1
            limit = ncols if allow_artificial else 2 * w
            for j in range(limit):       # Bland: first improving column
                if j in basis_set:
                    continue
                rc = costs[j] - sum(pi[r] * c for r, c in orig[j])
                if rc < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best = None
            for r in range(m):
                if tab[r][entering] > 0:
                    ratio = rhs_col[r] / tab[r][entering]
                    if best is None or ratio < best or \
                            (ratio == best and basis[r] < basis[leaving]):
                        best = ratio
                        leaving = r
            if leaving < 0:
                raise LpError("dual LP unbounded; Chebyshev primal infeasible")
            piv = tab[leaving][entering]
            tab[leaving] = [v / piv for v in tab[leaving]]
            rhs_col[leaving] /= piv
            for r in range(m):
                if r != leaving and tab[r][entering]:
                    factor = tab[r][entering]
                    tab[r] = [v - factor * p for v, p in zip(tab[r], tab[leaving])]
                    rhs_col[r] -= factor * rhs_col[leaving]
            basis_set.discard(basis[leaving])
            basis[leaving] = entering
            basis_set.add(entering)

    cost1 = [zero] * (2 * w) + [one] * m
    run(cost1, allow_artificial=True)
    phase1 = sum(cost1[basis[r]] * rhs_col[r] for r in range(m))
    if phase1 != 0:
        raise LpError("phase-1 simplex failed (value %s)" % phase1)
    run(cost2, allow_artificial=False)

    # multipliers pi_r = cB . B^{-1} e_r, read from the artificial columns
    pi = [sum(cost2[basis[i]] * tab[i][2 * w + r] for i in range(m)) for r in range(m)]
    z = [-pi[j] for j in range(nvars)]
    tstar = -pi[nvars]
    return z, tstar


def stationary(matrix):
    """pi P = pi, sum(pi) = 1 by ``gaussian_solve`` over Fractions (the last
    balance equation replaced by the sum); ValueError when singular."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) - (i == j) for i in range(n)] for j in range(n)]
    a[-1] = [Fraction(1)] * n
    return gaussian_solve(a, [Fraction(0)] * (n - 1) + [Fraction(1)])


def perron_exact(w, rho):
    """(c, right, left) with Fraction eigenvectors of unit sum when the
    integer c nearest rho is the Perron root of W, by ``gaussian_solve``
    over Fractions; else None."""
    c, n = round(rho), len(w)
    vecs = []
    for m in (w.tolist(), w.T.tolist()):
        a = [[Fraction(x - c * (i == j)) for j, x in enumerate(row)]
             for i, row in enumerate(m[:-1])] + [[Fraction(1)] * n]
        try:
            v = gaussian_solve(a, [0] * (n - 1) + [1])
        except ValueError:
            return None
        d = math.lcm(*(x.denominator for x in v))
        u = [x.numerator * (d // x.denominator) for x in v]
        if min(u) <= 0 or any(sum(map(operator.mul, row, u)) != c * x for row, x in zip(m, u)):
            return None
        vecs.append(v)
    return c, vecs[0], vecs[1]


def birkhoff_extremes_coeff(f, u):
    """(sup, inf) over the cylinder [u] of the exact Birkhoff sums of f's
    coefficients (units of log(exact_base)), over the length-(n+r-1)
    extensions of u."""
    r = f.range
    sums = [sum((f.coeff(w[i:i + r]) for i in range(len(u))), Fraction(0))
            for w in (u + e for e in f.language.extensions(u, r - 1))]
    return max(sums), min(sums)
