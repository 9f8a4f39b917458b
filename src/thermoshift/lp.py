"""Chebyshev (sup-norm) linear programming.

The fit problem is min_z max_i |e_i - a_i . z| over the rows of a matrix.
Integer systems are solved exactly, in integers only: t* = 0 by the
canonical solve ``numerics.solve_int`` on the distinct rows (no size cap),
and t* > 0 on small systems by the simplex applied to the dual (one tableau
row per structural unknown), with Bland's rule for determinism, on an
integer tableau stepped by the fraction-free ``numerics.pivot``.  The
optimal primal point is read off the simplex multipliers and re-verified.
scipy's HiGHS solves the floating path, every fit of a batch in one LP
on the distinct rows.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .numerics import INT64_MAX, pivot, solve_int

_EXACT_FIT_LIMIT = 4096  # constraint cap (two per row) for the exact dual simplex


class LpError(RuntimeError):
    pass


def solve_exact(a: np.ndarray, e: np.ndarray) -> list[Fraction] | None:
    """The canonical solution of a z = e (integers), or None when there is
    none: ``solve_int`` on the distinct rows of [a | e] (None at once when
    equal rows of a have different e), checked on every row in integers
    (int64 while a bound allows, Python ints past it)."""
    aug = np.unique(np.column_stack([a, e]), axis=0)
    if len(np.unique(aug[:, :-1], axis=0)) < len(aug):
        return None
    sol = solve_int(aug.tolist(), a.shape[1])
    if sol is None:
        return None
    zi, den = sol
    bound = int(np.abs(a).sum(axis=1).max()) * max(map(abs, zi)) + int(np.abs(e).max()) * den
    dtype = object if bound > INT64_MAX else np.int64
    if not np.array_equal(a.astype(dtype) @ np.array(zi, dtype), e.astype(dtype) * den):
        raise LpError("interpolation on the distinct rows misses a repeated row")
    return [Fraction(x, den) for x in zi]


def chebyshev_fit_exact(a: np.ndarray, e: np.ndarray) -> tuple[list[Fraction], Fraction] | None:
    """Exact minimax fit of integer a, e: (z, t_star) as Fractions, or None
    when t* > 0 on more than ``_EXACT_FIT_LIMIT`` constraints.  t* = 0 by
    solve_exact; else the dual simplex on all rows in their order, its
    defect checked against t* in integers."""
    z = solve_exact(a, e)
    if z is not None:
        return z, Fraction(0)
    if 2 * len(a) > _EXACT_FIT_LIMIT:
        return None
    rows, rhs = a.tolist(), e.tolist()
    zn, tn, d = _dual_simplex(rows, rhs)
    achieved = max(abs(g * d - sum(map(operator.mul, row, zn))) for row, g in zip(rows, rhs))
    if achieved != tn:
        raise LpError("simplex multiplier recovery failed (%s vs %s)"
                      % (Fraction(achieved, d), Fraction(tn, d)))
    return [Fraction(x, d) for x in zn], Fraction(tn, d)


def _dual_simplex(a: list[list[int]], e: list[int]) -> tuple[list[int], int, int]:
    """Two-phase primal simplex on the dual of the Chebyshev LP.

    Dual: min sum_i e_i (y-_i - y+_i) subject to
          sum_i a_i (y+_i - y-_i) = 0   (one row per structural unknown)
          sum_i (y+_i + y-_i) = 1,  y >= 0.
    The primal optimum is (z, t) = (-pi_z, -pi_t) for the optimal simplex
    multipliers pi.  The tableau is d B^-1 [A | b] in integers, d = det B
    for the basis B; each pivot entry is positive (the ratio test takes
    positive entries), so d stays positive and the tableau's signs and
    cross-multiplied ratios are those of B^-1 [A | b].  Returns (d z, d t*, d).
    """
    nvars = len(a[0])
    m = nvars + 1                    # constraint rows
    art = 2 * len(a)                 # columns y+, y-, then the artificials
    cols = ([row + [1] for row in a] + [[-c for c in row] + [1] for row in a]
            + [[int(r == q) for r in range(m)] for q in range(m)])
    tab = [[col[r] for col in cols] + [int(r == nvars)] for r in range(m)]
    basis, d = list(range(art, art + m)), 1

    def multipliers(costs):  # d pi, from the artificial columns of d B^-1
        return [sum(costs[b] * row[art + r] for b, row in zip(basis, tab)) for r in range(m)]

    def run(costs, limit):
        nonlocal d
        while True:
            pi, basic = multipliers(costs), set(basis)
            # Bland: the first column with reduced cost c_j - pi . col_j < 0
            entering = next((j for j in range(limit) if j not in basic
                             and d * costs[j] < sum(map(operator.mul, pi, cols[j]))), None)
            if entering is None:
                return
            leaving = None  # least ratio rhs / entry, ties to the least basic column
            for r, row in enumerate(tab):
                if row[entering] > 0 and (leaving is None or
                                          (row[-1] * tab[leaving][entering], basis[r])
                                          < (tab[leaving][-1] * row[entering], basis[leaving])):
                    leaving = r
            if leaving is None:
                raise LpError("dual LP unbounded; Chebyshev primal infeasible")
            d = pivot(tab, leaving, entering, d)
            basis[leaving] = entering

    cost1 = [0] * art + [1] * m
    run(cost1, len(cols))
    phase1 = sum(cost1[b] * row[-1] for b, row in zip(basis, tab))
    if phase1 != 0:
        raise LpError("phase-1 simplex failed (value %s)" % Fraction(phase1, d))
    cost2 = [-g for g in e] + e + [0] * m
    run(cost2, art)
    pi = multipliers(cost2)
    return [-p for p in pi[:nvars]], -pi[nvars], d


def chebyshev_fit_float(a, rhs):
    """HiGHS solve of min t, |rhs_i - a_i . z| <= t over the rows of the
    matrix a; returns (z, t_star)."""
    return chebyshev_fits_float([(a, rhs)])[0]


def chebyshev_fits_float(systems) -> list[tuple[list[float], float]]:
    """Several Chebyshev fits, one (a, rhs) each, in one HiGHS solve: a
    block-diagonal LP minimizing the sum of the blocks' t, which is
    separable, so each t is at its own optimum.  Equal rows of a share one
    pair of constraints, hi - a_i . z <= t and a_i . z - lo <= t with hi and
    lo the largest and smallest rhs of the group: the feasible set of one
    pair per row.  Returns (z, t_star) per system, in order."""
    if not systems:
        return []
    from scipy.linalg import block_diag  # imported here: only float fits need scipy
    from scipy.optimize import linprog

    rows, hi, lo = [], [], []
    for a, rhs in systems:
        uniq, inv = np.unique(np.asarray(a), axis=0, return_inverse=True)
        inv, rhs = inv.reshape(-1), np.asarray(rhs, dtype=float)
        top, bottom = np.full(len(uniq), -np.inf), np.full(len(uniq), np.inf)
        np.maximum.at(top, inv, rhs)
        np.minimum.at(bottom, inv, rhs)
        rows.append(uniq.astype(float))
        hi.append(top)
        lo.append(bottom)
    a_z = block_diag(*rows)  # columns: the z of every block, then every t
    a_t = block_diag(*[np.ones((len(x), 1)) for x in rows])
    a_ub = np.block([[np.subtract(0.0, a_z), -a_t], [a_z, -a_t]])  # 0 - a: no negative zeros
    nz, k = a_z.shape[1], len(rows)
    res = linprog(np.r_[np.zeros(nz), np.ones(k)], A_ub=a_ub,
                  b_ub=np.concatenate([-np.concatenate(hi), np.concatenate(lo)]),
                  bounds=[(None, None)] * nz + [(0, None)] * k, method="highs")
    if not res.success:
        raise LpError("LP solver failed: %s" % res.message)
    zs = np.split(res.x[:nz], np.cumsum([x.shape[1] for x in rows])[:-1])
    return [(zk.tolist(), float(tk)) for zk, tk in zip(zs, res.x[nz:])]
