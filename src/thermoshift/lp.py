"""Chebyshev (sup-norm) linear programming.

The fit problem is min_z max_i |e_i - a_i . z| over the rows of a matrix.
On integer systems t* = 0 is decided exactly by interpolation on the
distinct rows (no size cap), and t* > 0 on small systems by an exact
simplex over Fractions applied to the dual (one tableau row per structural
unknown), with Bland's rule for determinism; the optimal primal point is
read off the simplex multipliers and re-verified.  scipy's HiGHS solves
the floating path.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numerics import INT64_MAX

_EXACT_FIT_LIMIT = 4096  # constraint cap (two per row) for the exact dual simplex


class LpError(RuntimeError):
    pass


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


def solve_exact(a: np.ndarray, e: np.ndarray) -> list[Fraction] | None:
    """The canonical solution of a z = e (integers), or None when there is
    none: try_exact_interpolation on the distinct rows of [a | e] (None at
    once when equal rows of a have different e), checked on every row in
    integers (int64 while a bound allows, Python ints past it)."""
    aug = np.unique(np.column_stack([a, e]), axis=0)
    if len(np.unique(aug[:, :-1], axis=0)) < len(aug):
        return None
    z = try_exact_interpolation([{j: c for j, c in enumerate(row) if c} for row in aug[:, :-1].tolist()],
                                aug[:, -1].tolist(), a.shape[1])
    if z is None:
        return None
    den = math.lcm(*(v.denominator for v in z))
    zi = [int(v * den) for v in z]
    bound = int(np.abs(a).sum(axis=1).max()) * max(map(abs, zi)) + int(np.abs(e).max()) * den
    dtype = object if bound > INT64_MAX else np.int64
    if not np.array_equal(a.astype(dtype) @ np.array(zi, dtype), e.astype(dtype) * den):
        raise LpError("interpolation on the distinct rows misses a repeated row")
    return z


def chebyshev_fit_exact(a: np.ndarray, e: np.ndarray) -> tuple[list[Fraction], Fraction] | None:
    """Exact minimax fit of integer a, e: (z, t_star) over Fractions, or
    None when t* > 0 on more than ``_EXACT_FIT_LIMIT`` constraints.  t* = 0
    by solve_exact; else the dual simplex on all rows in their order."""
    z = solve_exact(a, e)
    if z is not None:
        return z, Fraction(0)
    if 2 * len(a) > _EXACT_FIT_LIMIT:
        return None
    rows = [{j: c for j, c in enumerate(row) if c} for row in a.tolist()]
    rhs = [Fraction(g) for g in e.tolist()]
    z, tstar = _dual_simplex(rows, rhs, a.shape[1])
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


def chebyshev_fit_float(a, rhs):
    """HiGHS solve of min t, |rhs_i - a_i . z| <= t over the rows of the
    matrix a; returns (z, t_star)."""
    from scipy.optimize import linprog  # imported here: only float fits need scipy

    a, rhs = np.asarray(a, dtype=float), np.asarray(rhs, dtype=float)
    w, nvars = a.shape
    a_ub = np.zeros((2 * w, nvars + 1))
    a_ub[:w, :nvars] = np.subtract(0.0, a)  # 0 - a: no negative zeros
    a_ub[w:, :nvars] = a
    a_ub[:, nvars] = -1.0
    b_ub = np.concatenate([-rhs, rhs])
    c = np.zeros(nvars + 1)
    c[nvars] = 1.0
    bounds = [(None, None)] * nvars + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise LpError("LP solver failed: %s" % res.message)
    return [float(v) for v in res.x[:nvars]], float(res.x[nvars])
