"""Locally constant potentials and their Birkhoff sums.

A potential of range r is a real function of the first r symbols.  All
multiplicative quantities are kept in log space.  Potentials may carry an
exact representation (rational coefficients times log of an integer base),
which is what makes "exactly zero defect" claims on the counting path
decidable instead of float comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .shiftcore import PeriodicPoint, Word


class PotentialError(ValueError):
    pass


class LocallyConstantPotential:
    """f(x) = values[x_1...x_r] on the language of an Sft or an image shift.

    ``exact_coeffs``/``exact_base`` (optional) express every value as
    coeff * log(base) with Fraction coefficients.
    """

    def __init__(self, language, r: int, values: Mapping[Word, float],
                 exact_coeffs: Mapping[Word, Fraction] | None = None,
                 exact_base: int | None = None):
        if r < 1:
            raise PotentialError("range must be >= 1")
        expected = set(language.blocks(r))
        got = set(values)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise PotentialError("values must cover exactly B_%d (missing %s, extra %s)"
                                 % (r, missing, extra))
        for w, v in values.items():
            if not math.isfinite(v):
                raise PotentialError("non-finite value at %s" % (w,))
        self.language = language
        self.range = r
        self.values = dict(values)
        if exact_coeffs is not None:
            if exact_base is None or exact_base < 2:
                raise PotentialError("exact coefficients need an integer base >= 2")
            if set(exact_coeffs) != expected:
                raise PotentialError("exact coefficients must cover exactly B_%d" % r)
            self.exact_coeffs = {w: Fraction(c) for w, c in exact_coeffs.items()}
            self.exact_base = exact_base
            # the exact and the float paths must read the same potential
            for w, c in self.exact_coeffs.items():
                if not _agrees(values[w], c, exact_base):
                    raise PotentialError("value %r at %s is not its exact coefficient %s times "
                                         "log %d" % (values[w], w, c, exact_base))
        else:
            self.exact_coeffs = None
            self.exact_base = None
        self._perron = None  # seqtable.log_perron's result, filled on its first call

    @classmethod
    def zero(cls, language) -> "LocallyConstantPotential":
        blocks = language.blocks(1)
        return cls(language, 1, {w: 0.0 for w in blocks},
                   exact_coeffs={w: Fraction(0) for w in blocks}, exact_base=2)

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values.values())

    @property
    def is_exact(self) -> bool:
        return self.exact_coeffs is not None

    def value(self, window: Word) -> float:
        try:
            return self.values[window]
        except KeyError:
            raise PotentialError("window %s is not an allowable %d-block" % (window, self.range)) from None

    def coeff(self, window: Word) -> Fraction:
        return self.exact_coeffs[window]

    def max_value(self) -> float:
        return max(self.values.values())


def _agrees(value: float, coeff: Fraction, base: int) -> bool:
    """value == coeff * log(base) up to a few ulps; exactly 0 at coefficient 0."""
    try:
        x = float(coeff) * math.log(base)
    except OverflowError:  # a coefficient past the float range
        return False
    return value == x or (x != 0 and abs(value - x) <= 4 * math.ulp(value))


def birkhoff_extremes(f: LocallyConstantPotential, u: Word) -> tuple[float, float]:
    """(sup, inf) of S_n f over the cylinder [u]; exact finite max/min over
    the length-(n+r-1) extensions."""
    lang, r, n = f.language, f.range, len(u)
    if n == 0:
        raise PotentialError("Birkhoff sums need a nonempty word")
    if not lang.is_word(u):
        raise PotentialError("word %s is not allowable" % (u,))
    if r == 1:
        s = 0.0
        for x in u:
            s = s + f.value((x,))
        return s, s
    base = 0.0
    for i in range(0, n - r + 1):
        base = base + f.value(u[i:i + r])
    first_tail = max(0, n - r + 1)
    best = None
    worst = None
    for e in lang.extensions(u, r - 1):
        w = u + e
        tail = 0.0
        for i in range(first_tail, n):
            tail = tail + f.value(w[i:i + r])
        if best is None or tail > best:
            best = tail
        if worst is None or tail < worst:
            worst = tail
    if best is None:
        raise PotentialError("word %s has no allowable extensions" % (u,))
    return base + best, base + worst


def birkhoff_sup(f: LocallyConstantPotential, u: Word) -> float:
    return birkhoff_extremes(f, u)[0]


def birkhoff_inf(f: LocallyConstantPotential, u: Word) -> float:
    return birkhoff_extremes(f, u)[1]


def variation_constant(f: LocallyConstantPotential, n: int) -> float:
    """log M_n: worst spread of S_n f over an n-cylinder.  Zero for r = 1;
    bounded by (r-1)(max f - min f) always.

    For n >= r-1 only the final r-1 windows of S_n f vary inside a cylinder,
    and every (r-1)-block occurs as a suffix (no stranded symbols), so the
    spread is a maximum over B_{r-1} rather than B_n.
    """
    if n < 1:
        raise PotentialError("depth must be >= 1")
    if f.range == 1:
        return 0.0
    depth = min(n, f.range - 1)
    worst = 0.0
    for u in f.language.blocks(depth):
        s, i = birkhoff_extremes(f, u)
        worst = max(worst, s - i)
    return worst


def periodic_birkhoff(f: LocallyConstantPotential, point: PeriodicPoint, length: int) -> float:
    """S_length f evaluated at the periodic point (exact from the block)."""
    w = point.word(length + f.range - 1)
    return math.fsum(f.value(w[i:i + f.range]) for i in range(length))


def periodic_birkhoff_coeff(f: LocallyConstantPotential, point: PeriodicPoint, length: int) -> Fraction:
    if not f.is_exact:
        raise PotentialError("potential carries no exact representation")
    w = point.word(length + f.range - 1)
    cs = [f.coeff(w[i:i + f.range]) for i in range(length)]
    den = math.lcm(*(c.denominator for c in cs))  # one reduction, not one per term
    return Fraction(sum(c.numerator * (den // c.denominator) for c in cs), den)
