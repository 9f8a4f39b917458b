"""Chebyshev (sup-norm) linear programming.

The fit problem is min_z max_i |e_i - a_i . z| over the rows of a matrix.
Integer systems are solved exactly, in integers only: t* = 0 by the
canonical solve ``numerics.solve_int`` on the distinct rows (no size cap),
and t* > 0 on small systems by the simplex applied to the dual (one tableau
row per structural unknown), with Bland's rule for determinism, on an
integer tableau stepped by the fraction-free ``numerics.pivot``.  The
optimal primal point is read off the simplex multipliers and re-verified.
Float systems are solved exactly too, on their dyadic values: every float
is an integer over a power of two, so one power of two per system turns
the float LP into an integer LP with the same optimum.  A float simplex on
the same dual tableau proposes an optimal basis and the integers certify
it (one fraction-free elimination of the basis); a basis they do not
certify is refined in floats on its exact reduced costs, and past a few
rounds the exact dual simplex goes on from it.  So the answer is the
exact optimum of the float data whatever the floats do, and no scipy is
needed.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .numerics import INT64_MAX, pivot, scaled_inverse, solve_int, unique_rows

_EXACT_FIT_LIMIT = 4096  # constraint cap (two per row) for the exact dual simplex


class LpError(RuntimeError):
    pass


def solve_exact(a: np.ndarray, e: np.ndarray) -> list[Fraction] | None:
    """The canonical solution of a z = e (integers), or None when there is
    none: ``solve_int`` on the distinct rows of [a | e] (``unique_rows``;
    the canonical solution does not depend on their order), None at once
    when equal rows of a have different e, checked on every row in integers
    (int64 while a bound allows, Python ints past it)."""
    aug = np.column_stack([a, e])
    aug = aug[unique_rows(aug)[0]]
    if len(unique_rows(aug[:, :-1])[0]) < len(aug):
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
    rhs = e.tolist()
    zn, tn, d = _dual_simplex(a, rhs)
    _check_defect(max(_residuals(a, rhs, rhs, zn, d)), tn, d)
    return [Fraction(x, d) for x in zn], Fraction(tn, d)


def _residuals(a: np.ndarray, hi, lo, zn: list[int], d: int) -> list[int]:
    """d hi_i - a_i . zn for every row of a, then a_i . zn - d lo_i: d times
    the two constraint residuals per row of z = zn / d (d > 0), in
    integers.  The largest is d times the defect of z; t minus each is d
    times the reduced cost of y+_i, then of y-_i, at multipliers (z, t)."""
    dots = (a.astype(object) @ np.array(zn, dtype=object)).tolist()
    return [h * d - x for h, x in zip(hi, dots)] + [x - l * d for l, x in zip(lo, dots)]


def _check_defect(achieved: int, tn: int, d: int) -> None:
    if achieved != tn:
        raise LpError("simplex multiplier recovery failed (%s vs %s)"
                      % (Fraction(achieved, d), Fraction(tn, d)))


def _dual_simplex(a, hi: list[int], lo: list[int] | None = None,
                  start=None) -> tuple[list[int], int, int]:
    """Two-phase primal simplex on the dual of the Chebyshev LP whose row i
    of the integer matrix a asks hi_i - a_i . z <= t and a_i . z - lo_i <= t
    (lo = hi = e by default: the fit of e; a group of equal rows: its
    largest and smallest e).

    Dual: min sum_i (lo_i y-_i - hi_i y+_i) subject to
          sum_i a_i (y+_i - y-_i) = 0   (one row per structural unknown)
          sum_i (y+_i + y-_i) = 1,  y >= 0,
    over the columns y+_i = (a_i, 1), y-_i = (-a_i, 1), then one artificial
    per constraint row.  The primal optimum is (z, t) = (-pi_z, -pi_t) for
    the optimal simplex multipliers pi.  Revised form in integers: the
    simplex keeps d B^-1, d = det B for the basis B (its last column is d
    times the basic values: the right side is the unit vector of the sum
    row), and forms d B^-1 col_j for the entering column only.  Each pivot
    entry is positive (the ratio test takes positive entries), so d stays
    positive and the signs and cross-multiplied ratios are those of B^-1.
    Bland's rule: the first column of negative reduced cost enters, the
    least ratio leaves, ties to the least basic column.  ``start``, a
    feasible basis as (basis, d B^-1, d) from ``_basis_start``, skips
    phase 1.  Returns (d z, d t*, d).
    """
    if not isinstance(a, np.ndarray):  # np.asarray would make big ints uint64 or float
        big = max((abs(x) for row in a for x in row), default=0) > INT64_MAX
        a = np.array(a, dtype=object if big else np.int64)
    u, nvars = a.shape
    m, art = nvars + 1, 2 * u
    a_obj, cols = a.astype(object), _columns(a)
    if start is None:
        basis, inv, d = list(range(art, art + m)), np.eye(m, dtype=np.int64).tolist(), 1
    else:
        basis, inv, d = list(start[0]), start[1], start[2]

    def multipliers(costs):  # d pi = c_B d B^-1
        return [sum(map(operator.mul, costs[basis].tolist(), col)) for col in zip(*inv)]

    def run(costs, limit):
        nonlocal inv, d
        while True:
            pi = multipliers(costs)
            s = a_obj @ np.array(pi[:nvars], dtype=object)
            dots = np.concatenate([s + pi[nvars], pi[nvars] - s, np.array(pi, dtype=object)])
            below = np.flatnonzero(d * costs[:limit] < dots[:limit])  # reduced cost < 0
            if not len(below):
                return
            j = int(below[0])
            col = cols[:, j].tolist()
            alpha = [sum(map(operator.mul, row, col)) for row in inv]
            leaving = None  # least ratio x_r / alpha_r, ties to the least basic column
            for r, row in enumerate(inv):
                if alpha[r] > 0 and (leaving is None or
                                     (row[-1] * alpha[leaving], basis[r])
                                     < (inv[leaving][-1] * alpha[r], basis[leaving])):
                    leaving = r
            if leaving is None:
                raise LpError("dual LP unbounded; Chebyshev primal infeasible")
            rows = [row + [x] for row, x in zip(inv, alpha)]
            d = pivot(rows, leaving, m, d)
            inv = [row[:m] for row in rows]
            basis[leaving] = j

    if start is None:
        cost1 = np.array([0] * art + [1] * m, dtype=object)
        run(cost1, art + m)
        phase1 = sum(inv[r][-1] for r, b in enumerate(basis) if b >= art)
        if phase1 != 0:
            raise LpError("phase-1 simplex failed (value %s)" % Fraction(phase1, d))
    cost2 = np.array([-g for g in hi] + list(hi if lo is None else lo) + [0] * m, dtype=object)
    run(cost2, art)
    pi = multipliers(cost2)
    return [-p for p in pi[:nvars]], -pi[nvars], d


def chebyshev_fit_float(a, rhs) -> tuple[list[float], float]:
    """min t, |rhs_i - a_i . z| <= t over the rows of the integer matrix a,
    solved exactly on the dyadic values of the floats rhs (``_fit_dyadic``):
    (z, t_star) correctly rounded from the exact optimum."""
    zn, tn, den = _fit_dyadic(a, rhs)
    return [x / den for x in zn], tn / den  # int / int: correctly rounded


def _fit_dyadic(a, rhs) -> tuple[list[int], int, int]:
    """The exact Chebyshev fit of the floats rhs over the rows of the
    integer matrix a: (den z, den t_star, den) in integers, den > 0.

    Equal rows of a share one pair of constraints, hi - a_i . z <= t and
    a_i . z - lo <= t with hi and lo the largest and smallest rhs of the
    group: the feasible set of one pair per row.  hi and lo are scaled to
    integers by one power of two (``_dyadic``), so the LP is an integer LP
    with the same optimum.  The float simplex ``_propose_basis`` proposes an
    optimal basis; it is certified when, in integers, its basic values are
    >= 0 and the defect of its multipliers is <= their t (then both are
    optimal, and the defect equals t*).  A basis that is not certified is
    refined (``_refine_basis``) up to ``_REFINE_ROUNDS`` times; then the
    exact dual simplex solves the same integers, from the last feasible
    basis, else from scratch.  The defect of the result is checked against
    t* in integers either way."""
    groups: dict[tuple, list[float]] = {}  # distinct row -> [hi, lo], in order of appearance
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise LpError("non-finite value in the fit data")
    for row, x in zip(map(tuple, np.asarray(a).tolist()), rhs.tolist()):
        g = groups.get(row)
        if g is None:
            groups[row] = [x, x]
        elif x > g[0]:
            g[0] = x
        elif x < g[1]:
            g[1] = x
    uniq = np.array(list(groups), dtype=np.int64).reshape(len(groups), -1)
    hi, lo = (np.array(v) for v in zip(*groups.values()))
    ints, k = _dyadic(hi.tolist() + lo.tolist())
    hi_n, lo_n = ints[:len(uniq)], ints[len(uniq):]
    start = _basis_start(uniq, _propose_basis(uniq, hi, lo))
    for _ in range(_REFINE_ROUNDS + 1):
        if start is None:
            break
        zn, tn, d = _basic_solution(hi_n, lo_n, start)
        res = _residuals(uniq, hi_n, lo_n, zn, d)
        if max(res) <= tn:  # certified
            _check_defect(max(res), tn, d)
            return zn, tn, d << k
        refined = _basis_start(uniq, _refine_basis(uniq, start, [tn - x for x in res]))
        if refined is None:
            break
        start = refined
    zn, tn, d = _dual_simplex(uniq, hi_n, lo_n, start)
    _check_defect(max(_residuals(uniq, hi_n, lo_n, zn, d)), tn, d)
    return zn, tn, d << k


def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Finite floats as integers over one power of two: (ints, k) with
    value_i = ints_i / 2^k exactly and k >= 0 the least such exponent."""
    ratios = [x.as_integer_ratio() for x in values]  # denominators are powers of two
    k = max((q for _, q in ratios), default=1).bit_length() - 1
    return [p << (k - q.bit_length() + 1) for p, q in ratios], k


def _basis_start(a: np.ndarray, basis: list[int]) -> tuple[list[int], list[list[int]], int] | None:
    """(basis, d B^-1, d), d = |det B|, for a basis of the dual tableau of
    ``_dual_simplex`` over the rows of a (columns y+, y-, then the
    artificials), by one fraction-free Gauss-Jordan elimination of [B | I]
    (``numerics.scaled_inverse``); None when B is singular, when its basic
    values (the last column of B^-1: the dual's right side is the unit
    vector of the sum row) are not a feasible dual point, or when an
    artificial is basic in a row that is not redundant (a phase 2 from this
    basis could lift it above 0)."""
    found = scaled_inverse(_columns(a)[:, basis])
    if found is None:
        return None
    inv, d = found
    art = 2 * len(a)
    for j, row in zip(basis, inv):
        if row[-1] < 0 or j >= art and (row[-1] or (a.astype(object) @ row[:-1]).any()):
            return None
    return basis, inv, d


def _basic_solution(hi, lo, start) -> tuple[list[int], int, int]:
    """(d z, d t, d) from the simplex multipliers d pi = c_B d B^-1 of a
    basis, costs -hi on y+, lo on y- and 0 on the artificials."""
    basis, inv, d = start
    u = len(hi)
    costs = [-hi[j] if j < u else lo[j - u] if j < 2 * u else 0 for j in basis]
    pi = [sum(map(operator.mul, costs, col)) for col in zip(*inv)]
    return [-p for p in pi[:-1]], -pi[-1], d


_PIVOT_TOL = 1e-9     # float tableau entries at or below it are not pivots
_STALL = 2            # degenerate pivots in a row, per row, before Bland's rule
_REFINE_ROUNDS = 3    # float refinements of a basis the integers did not certify


def _propose_basis(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """A float two-phase simplex (``_float_simplex``) on the dual tableau of
    ``_dual_simplex`` (columns y+, y-, then the artificials; m = nvars + 1
    rows): the basis it ends in, which ``_fit_dyadic`` certifies in
    integers.  Between the phases, artificials left basic at 0 are pivoted
    out where their row allows it."""
    u, nvars = a.shape
    m, art = nvars + 1, 2 * u
    tab = np.zeros((m + 1, art + m + 1))  # the last row holds the reduced costs
    tab[:m] = _columns(a)
    basis = list(range(art, art + m))
    tol = 1e-12 * max(1.0, float(np.abs(hi).max()), float(np.abs(lo).max()))
    # phase 1, cost 1 on each artificial: reduced costs minus the column sums
    sums = a.sum(axis=1)  # integers: exact
    tab[m, :u], tab[m, u:art], tab[m, -1] = -1.0 - sums, sums - 1.0, -1.0
    _float_simplex(tab, basis, art, tol, lambda: tab[m, -1] >= -tol)
    for r in range(m):
        if basis[r] >= art:
            row = np.abs(tab[r, :art])
            j = int(row.argmax())
            if row[j] > _PIVOT_TOL:
                _float_pivot(tab, basis, r, j)
    # phase 2: costs -hi on y+, lo on y-
    tab[m] = 0.0
    tab[m, :u], tab[m, u:art] = np.negative(hi), lo
    for r, j in enumerate(basis):
        c = tab[m, j]
        if c:
            tab[m] -= c * tab[r]
    _float_simplex(tab, basis, art, tol)
    return basis


def _refine_basis(a: np.ndarray, start, reduced: list[int]) -> list[int]:
    """One round of iterative refinement (Gleixner, Steffy & Wolter 2016)
    for a basis the integers did not certify: the float phase 2 again, from
    its exact tableau d B^-1 [A | b] divided by d and its exact reduced
    costs (``reduced``: d times those of y+, then y-) scaled so that the
    most negative is -1.  Ties that the first pass could not see at the
    scale of the data, a few ulps of the logs, are of order 1 here."""
    basis, inv, d = start
    m, art = a.shape[1] + 1, 2 * len(a)
    cols = _columns(a)
    inv = np.array(inv)
    if inv.dtype == object or int(np.abs(inv).max()) * int(np.abs(cols).max()) * m >= 2 ** 62:
        inv, cols = inv.astype(object), cols.astype(object)
    tab = np.zeros((m + 1, art + m + 1))
    tab[:m] = (inv @ cols) / d  # integers: exact whatever the summation order
    scale = -min(reduced)
    tab[m, :art] = [x / scale if x < scale << 1000 else 1e300 for x in reduced]
    basis = list(basis)
    _float_simplex(tab, basis, art, 1e-12)
    return basis


def _columns(a: np.ndarray) -> np.ndarray:
    """[A | b] of the dual tableau in integers (int64, or Python ints for
    an a of Python ints): y+ = (a_i, 1), y- = (-a_i, 1), the artificials,
    then the right side, the unit vector of the sum row."""
    u, nvars = a.shape
    m, art = nvars + 1, 2 * u
    cols = np.zeros((m, art + m + 1), object if a.dtype == object else np.int64)
    cols[:nvars, :u] = a.T
    cols[:nvars, u:art] = np.negative(a.T)
    cols[nvars, :art] = 1
    cols[:, art:art + m] = np.eye(m, dtype=np.int64)
    cols[nvars, -1] = 1
    return cols


def _float_pivot(tab: np.ndarray, basis: list[int], r: int, j: int) -> None:
    col = tab[:, j].copy()
    col[r] = 0.0
    tab[r] /= tab[r, j]
    tab[:] -= np.multiply.outer(col, tab[r])
    basis[r] = j


def _float_simplex(tab: np.ndarray, basis: list[int], limit: int, tol: float,
                   done=lambda: False) -> None:
    """Float simplex steps on a tableau in place (m constraint rows, then
    the reduced costs; the right side last), columns below ``limit``
    entering, until no reduced cost is below -tol, ``done()`` holds or an
    iteration cap: Dantzig pricing, switching to Bland's rule after 2 m
    degenerate pivots in a row.  Every step is elementwise numpy or a
    Python loop over the m rows, with no matrix product or sum reduction,
    so the floats, and the basis, do not depend on BLAS or CPU dispatch."""
    m = len(tab) - 1
    cost, rhs = tab[m, :limit], tab[:m, -1]  # views
    stall, bland = 0, False
    for _ in range(50 * len(cost)):
        if done():
            return
        if bland:
            below = np.flatnonzero(cost < -tol)
            if not len(below):
                return
            j = int(below[0])
        else:
            j = int(cost.argmin())
            if cost[j] >= -tol:
                return
        best = None
        for r, (x, b) in enumerate(zip(tab[:m, j].tolist(), rhs.tolist())):
            if x > _PIVOT_TOL:
                key = (max(b, 0.0) / x, basis[r])
                if best is None or key < best[0]:
                    best = key, r
        if best is None:
            return  # unbounded in floats: the certificate decides
        stall = stall + 1 if best[0][0] <= tol else 0
        bland = bland or stall > _STALL * m
        _float_pivot(tab, basis, best[1], j)
