import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from thermoshift.numerics import (common_power_base, fit_line, gaussian_solve,
                                  log_fraction, logsumexp, perron, perron_exact,
                                  power_exponent, row_sums)


def test_logsumexp_stability():
    assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000 + math.log(2), abs=1e-12)
    assert logsumexp([]) == float("-inf")


def test_log_fraction_handles_huge_integers():
    assert log_fraction(2 ** 2000) == pytest.approx(2000 * math.log(2), rel=1e-12)
    assert log_fraction(Fraction(1, 3 ** 500)) == pytest.approx(-500 * math.log(3), rel=1e-12)
    with pytest.raises(ValueError):
        log_fraction(0)


def test_power_exponent():
    assert power_exponent(8, 2) == 3
    assert power_exponent(1, 7) == 0
    assert power_exponent(6, 2) is None


def _divided_exponent(n, base):
    """k with n == base**k by repeated division, else None (n >= 1)."""
    k = 0
    while n % base == 0:
        n //= base
        k += 1
    return k if n == 1 else None


@given(base=st.integers(2, 40), k=st.integers(0, 3000), offset=st.sampled_from([-1, 0, 1]),
       factor=st.sampled_from([1, 2, 3, 7]))
def test_power_exponent_matches_repeated_division(base, k, offset, factor):
    """The one candidate exponent, near powers of base and their neighbours,
    large exponents included."""
    n = factor * base ** k + offset
    if n >= 1:
        want = _divided_exponent(n, base)
        assert power_exponent(n, base) == want


def test_common_power_base():
    assert common_power_base([1, 2, 8, 64]) == 2
    assert common_power_base([9, 27]) == 3
    assert common_power_base([4, 16]) == 2   # smallest valid base
    assert common_power_base([1, 1]) == 2    # trivial family
    assert common_power_base([2, 3]) is None


def test_gaussian_solve_fractions_and_floats():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = gaussian_solve(a, b)
    assert x == [Fraction(1), Fraction(3)]
    xf = gaussian_solve([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    assert xf == pytest.approx([1.0, 3.0], abs=1e-12)
    with pytest.raises(ValueError):
        gaussian_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


def test_fit_line():
    slope, intercept, r2 = fit_line([1, 2, 3, 4], [2.0, 4.0, 6.0, 8.0])
    assert slope == pytest.approx(2.0) and intercept == pytest.approx(0.0)
    assert r2 == pytest.approx(1.0)
    _, _, r2_noisy = fit_line([1, 2, 3, 4], [2.0, 4.1, 5.8, 8.2])
    assert 0.9 < r2_noisy < 1.0


def test_perron_exact_needs_positive_integer_eigenvectors():
    full2 = np.array([[1, 1], [1, 1]])
    rho, right, left, residual = perron(full2)
    assert rho == pytest.approx(2, rel=1e-15) and residual <= 1e-15
    assert perron_exact(full2, rho) == (2, [Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2)
    golden = np.array([[1, 1], [1, 0]])
    assert perron(golden)[0] == pytest.approx((1 + 5 ** 0.5) / 2, rel=1e-15)
    assert perron_exact(golden, perron(golden)[0]) is None  # 2 is not a root
    # reducible: root 2 with a positive right vector, but the left one is (1, 0)
    assert perron_exact(np.array([[2, 0], [1, 1]]), 2.0) is None


def test_row_sums_keep_their_dtype_and_promote_past_int64():
    """int64 sums stay int64 while no sum can pass 2^63 and become Python
    ints past it; object rows of small ints come back int64; floats stay."""
    out = row_sums(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64))
    assert out.dtype == np.int64 and out.tolist() == [6, 15]
    out = row_sums(np.array([[2 ** 62, 2 ** 62], [1, 0]], dtype=np.int64))
    assert out.dtype == object and out.tolist() == [2 ** 63, 1]
    out = row_sums(np.array([[1, 2 ** 70], [3, 4]], dtype=object))
    assert out.dtype == object and out.tolist() == [1 + 2 ** 70, 7]
    out = row_sums(np.array([[1, 2], [3, 4]], dtype=object))
    assert out.dtype == np.int64 and out.tolist() == [3, 7]
    out = row_sums(np.array([[0.5, 0.25]]))
    assert out.dtype == float and out.tolist() == [0.75]
