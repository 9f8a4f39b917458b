"""Chebyshev (sup-norm) linear programming.

The fit problem is min_z max_i |G_i - a_i . z|.  Two solvers:

* an exact simplex over Fractions applied to the dual (whose tableau has
  one row per structural unknown, so it stays small even with thousands of
  residual constraints), with Bland's rule for determinism; the optimal
  primal point is read off the simplex multipliers and re-verified;
* scipy's HiGHS for the floating path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class LpError(RuntimeError):
    pass


def chebyshev_defect_value(rows, rhs, z):
    """max_i |G_i - a_i . z| for a candidate z (same arithmetic as inputs)."""
    worst = None
    for a, g in zip(rows, rhs):
        resid = g - sum(coeff * z[j] for j, coeff in a.items())
        if resid < 0:
            resid = -resid
        if worst is None or resid > worst:
            worst = resid
    return worst


def try_exact_interpolation(rows, rhs, nvars):
    """If the equality system a_i . z = G_i is consistent, return the
    canonical solution (free variables pinned to 0) and defect 0."""
    aug = [[Fraction(0)] * nvars + [Fraction(g)] for g in rhs]
    for r, a in zip(aug, rows):
        for j, c in a.items():
            r[j] = Fraction(c)
    pivots = []
    row = 0
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


def chebyshev_fit_exact(rows, rhs, nvars):
    """Exact minimax fit over Fractions; returns (z, t_star)."""
    rows = [dict(a) for a in rows]
    rhs = [Fraction(g) for g in rhs]
    direct = try_exact_interpolation(rows, rhs, nvars)
    if direct is not None:
        return direct, Fraction(0)
    z, tstar = _dual_simplex(rows, rhs, nvars)
    achieved = chebyshev_defect_value(rows, rhs, z)
    if achieved != tstar:
        raise LpError("simplex multiplier recovery failed (%s vs %s)" % (achieved, tstar))
    return z, tstar


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


def chebyshev_fit_float(rows, rhs, nvars):
    """HiGHS solve of min t, |G_i - a_i . z| <= t; returns (z, t_star)."""
    from scipy.optimize import linprog  # imported here: only float fits need scipy

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
    if not res.success:
        raise LpError("LP solver failed: %s" % res.message)
    return [float(v) for v in res.x[:nvars]], float(res.x[nvars])
