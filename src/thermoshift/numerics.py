"""Small numeric helpers shared across modules: stable log-space sums,
integer arrays widened past 2^63, field-generic Gaussian elimination, line
fits, exact power-of-base exponent extraction and the one Perron routine,
``perron`` (numpy ``eig``), with its exact check ``perron_exact`` for
integer matrices.
"""

from __future__ import annotations

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
    if v.dtype != float and array_max(v) * v.shape[1] > INT64_MAX:
        v = v.astype(object)
    return v.sum(axis=1) if v.dtype == float else int_array(v.sum(axis=1).tolist())


def logsumexp(values) -> float:
    vals = list(values)
    if not vals:
        return float("-inf")
    m = max(vals)
    if m == float("-inf"):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_fraction(x) -> float:
    """log of an int or Fraction, safe for values far outside float range."""
    if isinstance(x, Fraction):
        return _log_int(x.numerator) - _log_int(x.denominator)
    return _log_int(x)


def _log_int(n: int) -> float:
    if n <= 0:
        raise ValueError("log of nonpositive integer")
    try:
        return math.log(n)
    except OverflowError:
        return math.log(float(n >> (n.bit_length() - 53)) ) + (n.bit_length() - 53) * math.log(2)


def power_exponent(value, base: int):
    """If value == base**k for an integer k (value an int or Fraction),
    return k, else None.  base >= 2."""
    if base < 2:
        return None
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return power_exponent(value.numerator, base)
        if value.numerator == 1:
            k = power_exponent(value.denominator, base)
            return None if k is None else -k
        return None
    n = int(value)
    if n <= 0:
        return None
    k = 0
    while n % base == 0:
        n //= base
        k += 1
    return k if n == 1 else None


def common_power_base(values) -> int | None:
    """Smallest integer base b >= 2 with every value an exact power of b;
    None if no such base.  Values of 1 are compatible with every base."""
    nontrivial = sorted({v for v in values if v != 1})
    if not nontrivial:
        return 2
    first = nontrivial[0]
    if isinstance(first, Fraction):
        first = first.numerator if first.numerator > 1 else first.denominator
    # candidate bases are roots of the smallest nontrivial value
    candidates = []
    for k in range(int(first).bit_length(), 0, -1):
        root = round(int(first) ** (1.0 / k))
        for r in (root - 1, root, root + 1):
            if r >= 2 and r ** k == first:
                candidates.append(r)
    for b in candidates:
        if all(power_exponent(v, b) is not None for v in nontrivial):
            return b
    return None


def gaussian_solve(matrix, rhs):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Works over floats and Fractions alike (entries must support +,-,*,/).
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
    unit sum; else None.  Each vector is solved by ``gaussian_solve`` from
    n - 1 rows of W - cI and the sum row, and c is accepted only when both
    are positive and W v = c v, l W = c l hold exactly.  A positive
    eigenvector makes c the Perron root (Collatz-Wielandt), and a rational
    Perron root of an integer matrix is an integer, so none is missed."""
    c, n = round(rho), len(w)
    vecs = []
    for m in (w.tolist(), w.T.tolist()):
        a = [[Fraction(x - c * (i == j)) for j, x in enumerate(row)]
             for i, row in enumerate(m[:-1])] + [[Fraction(1)] * n]
        try:
            v = gaussian_solve(a, [0] * (n - 1) + [1])
        except ValueError:
            return None
        d = math.lcm(*(x.denominator for x in v))  # check in integers: v d
        u = [x.numerator * (d // x.denominator) for x in v]
        if min(u) <= 0 or any(sum(map(operator.mul, row, u)) != c * x for row, x in zip(m, u)):
            return None
        vecs.append(v)
    return c, vecs[0], vecs[1]
