"""Small numeric helpers shared across modules: stable log-space sums,
integer arrays widened past 2^63, line fits, exact power-of-base exponent
extraction, the one Perron routine ``perron`` (numpy ``eig``) with its
exact check ``perron_exact``, and exact linear algebra in integers only:
every exact solve and simplex step is ``pivot``, one fraction-free
Gauss-Jordan step (Bareiss 1968; Edmonds 1967), taken on whole arrays in
``scaled_inverse``, and one candidate at a time in ``span_basis``.
``gaussian_solve`` serves floats."""

from __future__ import annotations

import collections
import math
import operator
from fractions import Fraction

import numpy as np

INT64_MAX = 2 ** 63 - 1


def array_max(a: np.ndarray) -> int:
    """Largest entry of an integer array, 0 when it is empty."""
    return int(a.max()) if a.size else 0


def int_array(values: list[int]) -> np.ndarray:
    """Integers as int64 when the largest fits, as Python ints past 2^63."""
    return np.array(values, dtype=np.int64 if max(values, default=0) <= INT64_MAX else object)


def row_sums(v: np.ndarray) -> np.ndarray:
    """Row sums of a 2-d array: plain float sums, or exact integer sums (in
    int64 while no sum can pass 2^63, in Python ints past it)."""
    if v.dtype == float or (v.dtype != object and array_max(v) * v.shape[1] <= INT64_MAX):
        return v.sum(axis=1)
    return int_array(v.astype(object).sum(axis=1).tolist())


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inv) for a 2-d array: the index of one row of each distinct
    row, and each row's index among the distinct rows.  Fixed-width rows
    (int64, float, bool) are compared as raw bytes, so floats by their bits
    (numbered in their byte order); Python ints by a dict (numbered in
    order of first appearance)."""
    if a.dtype != object:
        a = np.ascontiguousarray(a)
        _, first, inv = np.unique(a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
        return first, inv.reshape(-1)
    index: dict[tuple, int] = {}
    inv = np.array([index.setdefault(row, len(index)) for row in map(tuple, a.tolist())],
                   dtype=np.intp)
    return np.unique(inv, return_index=True)[1], inv


def logsumexp(values) -> float:
    vals = list(values)
    if not vals:
        return float("-inf")
    m = max(vals)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_fraction(x, q: int = 1) -> float:
    """log(x / q) of an int or Fraction x and a positive int q, taken in
    lowest terms; safe for values far outside float range."""
    p, q = x.numerator, x.denominator * q
    g = math.gcd(p, q)
    return _log_int(p // g) - _log_int(q // g)


def _log_int(n: int) -> float:
    if n <= 0:
        raise ValueError("log of nonpositive integer")
    try:
        return math.log(n)
    except OverflowError:
        return math.log(float(n >> (n.bit_length() - 53)) ) + (n.bit_length() - 53) * math.log(2)


def power_exponent(value: int, base: int) -> int | None:
    """If the positive int value == base**k for an integer k, return k,
    else None.  base >= 2."""
    k = round(math.log(value) / math.log(base))  # the only candidate; math.log takes any int
    return k if base ** k == value else None


def common_power_base(values) -> int | None:
    """Smallest integer base b >= 2 with every value (a positive int) an
    exact power of b; None if no such base.  Values of 1 are compatible
    with every base."""
    nontrivial = sorted({v for v in values if v != 1})
    if not nontrivial:
        return 2
    first = nontrivial[0]
    # candidate bases are roots of the smallest nontrivial value
    candidates = []
    for k in range(first.bit_length(), 0, -1):
        root = round(first ** (1.0 / k))
        for r in (root - 1, root, root + 1):
            if r >= 2 and r ** k == first:
                candidates.append(r)
    for b in candidates:
        if all(power_exponent(v, b) is not None for v in nontrivial):
            return b
    return None


def integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rows of ints and Fractions as integer rows over one common
    denominator: (rows * den, den)."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on integer rows, in place: row
    i != r becomes (p m_i - m_ic m_r) // prev, p = m_rc and ``prev`` the
    pivot before (1 at first).  The rows stay d B^-1 times the original rows,
    d = +-det B for the basis B of pivoted columns, so the division is exact
    and every entry an integer minor.  Returns p, the next d."""
    p, top = rows[r][c], rows[r]
    for i, row in enumerate(rows):
        if i != r:
            m = row[c]
            rows[i] = [(p * x - m * y) // prev for x, y in zip(row, top)]
    return p


def row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan in place, each of the first ``ncols``
    columns pivoted on its first nonzero in the rows not yet used: (pivot
    columns, den), row i then den times the reduced row of pivot i."""
    cols, prev = [], 1
    for c in range(ncols):
        r = next((i for i in range(len(cols), len(rows)) if rows[i][c]), None)
        if r is not None:
            rows[len(cols)], rows[r] = rows[r], rows[len(cols)]
            prev = pivot(rows, len(cols), c, prev)
            cols.append(c)
    return cols, prev


def span_basis(seeds: list[list[int]], mats: list[list[list[int]]]) -> list[list[int]]:
    """A basis of the span of the rows v M_{b_1} ... M_{b_k} for v in
    ``seeds`` and every word b_1 ... b_k (the empty one too) over the
    square integer matrices ``mats``, found breadth first: each candidate
    joins the basis when it is outside the span of the rows before it, and
    only then are its images v M_b queued.  The rows kept so far are held
    in fraction-free Gauss-Jordan form (row i is den times the reduced row
    of pivot column cols[i]), so a candidate v reduces in one pass to den
    v - sum_i v[cols[i]] row_i, and joining takes one ``pivot``: no row is
    reduced twice.  Returns the kept candidates themselves, in the order
    found."""
    columns = [list(zip(*m)) for m in mats]
    queue, found, rows, cols, den = collections.deque(seeds), [], [], [], 1
    while queue:
        v = queue.popleft()
        red = [den * x for x in v]
        for row, c in zip(rows, cols):
            if v[c]:
                red = [x - v[c] * y for x, y in zip(red, row)]
        c = next((j for j, x in enumerate(red) if x), None)
        if c is not None:
            rows.append(red)
            den = pivot(rows, len(cols), c, den)
            cols.append(c)
            found.append(v)
            queue.extend([sum(map(operator.mul, v, col)) for col in m] for m in columns)
    return found


def scaled_inverse(b: np.ndarray) -> tuple[list[list[int]], int] | None:
    """(|det B| B^-1, |det B|) for a square integer array B, None when B is
    singular: ``row_reduce`` of [B | I] on whole arrays, in int64 while the
    Hadamard bound H of the rows of [B | I] keeps every product below 2 H^2
    < 2^63 (each entry is a minor, at most H), in Python ints past it."""
    m, prev = len(b), 1
    aug = np.hstack([b, np.eye(m, dtype=np.int64)])
    if math.prod(np.sqrt(np.square(aug.astype(float)).sum(axis=1)).tolist()) >= 2.0 ** 30:
        aug = aug.astype(object)
    for c in range(m):
        col = aug[:, c]
        if not col[c]:  # pivot on the first nonzero below, as row_reduce does
            nz = col[c:].nonzero()[0]
            if not len(nz):
                return None
            aug[[c, c + nz[0]]] = aug[[c + nz[0], c]]
        top = aug[c]
        aug = (aug * top[c] - np.multiply.outer(col, top)) // prev
        aug[c], prev = top, int(top[c])
    return [row[m:] if prev > 0 else [-x for x in row[m:]] for row in aug.tolist()], abs(prev)


def solve_int(rows, nvars: int) -> tuple[list[int], int] | None:
    """The canonical solution of the integer system whose rows are
    [a_i | b_i]: free unknowns 0, pivot columns leftmost.  Returns
    (numerators, positive denominator), or None when it is inconsistent."""
    rows = [list(row) for row in rows]
    cols, den = row_reduce(rows, nvars)
    if any(row[nvars] for row in rows[len(cols):]):
        return None
    z = [0] * nvars
    for row, c in zip(rows, cols):
        z[c] = row[nvars] if den > 0 else -row[nvars]
    return z, abs(den)


def gaussian_solve(matrix, rhs):
    """Solve A x = b by Gaussian elimination with partial pivoting (the
    float stationary vector; entries must support +,-,*,/).
    Raises ValueError on a singular system.
    """
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, n + 1):
                a[r][c] = a[r][c] - factor * a[col][c]
    xs = [None] * n
    for row in range(n - 1, -1, -1):
        s = a[row][n]
        for c in range(row + 1, n):
            s = s - a[row][c] * xs[c]
        xs[row] = s / a[row][row]
    return xs


def fit_line(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    n = len(xs)
    if n < 2:
        return 0.0, (ys[0] if ys else 0.0), 1.0
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0, my, 1.0
    slope = sxy / sxx
    intercept = my - slope * mx
    syy = math.fsum((y - my) ** 2 for y in ys)
    if syy == 0:
        return slope, intercept, 1.0
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, max(0.0, 1.0 - ss_res / syy)


def perron(w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Perron root of a nonnegative square matrix W by numpy ``eig`` on W
    and W^T: (root, right and left vectors of unit 1-norm, residual).  The
    root is the eigenvalue of largest real part, which for a nonnegative
    matrix is the spectral radius; the residual is the largest entry of
    |W v - root v| and |l W - root l| and the gap between the two roots."""
    out = []
    for m in (w, w.T):
        vals, vecs = np.linalg.eig(m)
        i = int(np.argmax(vals.real))
        v = np.abs(vecs[:, i].real)
        out.append((float(vals[i].real), v / v.sum()))
    (rho, right), (rho_left, left) = out
    residual = max(np.abs(w @ right - rho * right).max(),
                   np.abs(left @ w - rho * left).max(), abs(rho - rho_left))
    return rho, right, left, float(residual)


def perron_exact(w: np.ndarray, rho: float) -> tuple[int, list, list] | None:
    """(c, right, left) for the integer c nearest ``rho`` when it is the
    Perron root of the integer matrix W, with exact Fraction eigenvectors of
    unit sum; else None.  Each vector u / d is solved by ``solve_int`` from
    n - 1 rows of W - cI and the sum row (a free unknown is 0: rejected),
    and c is accepted only when both are positive and W u = c u, l W = c l.
    A positive eigenvector makes c the Perron root (Collatz-Wielandt), and a
    rational Perron root of an integer matrix is an integer."""
    c, n = round(rho), len(w)
    vecs = []
    for m in (w.tolist(), w.T.tolist()):
        rows = [[x - c * (i == j) for j, x in enumerate(row)] + [0]
                for i, row in enumerate(m[:-1])] + [[1] * n + [1]]
        u, d = solve_int(rows, n) or ([0], 1)  # inconsistent: not accepted
        if min(u) <= 0 or any(sum(map(operator.mul, row, u)) != c * x for row, x in zip(m, u)):
            return None
        vecs.append([Fraction(x, d) for x in u])
    return c, vecs[0], vecs[1]
