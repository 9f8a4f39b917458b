"""Stationary Markov measures on shifts of finite type.

A measure of order k is represented as a 1-step chain on the k-block
alphabet: states are the allowable k-blocks, the transition matrix is
row-stochastic and supported on allowable overlaps, and the stationary
vector is a fixed row vector.  Entries are Fractions on the exact path and
floats otherwise; cylinder masses are computed in the same arithmetic.  An
exact stationary vector is solved in integers and only stored as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numerics import gaussian_solve, integer_rows, row_reduce
from .shiftcore import Sft, Word

_FLOAT_TOL = 1e-12


class MeasureError(ValueError):
    pass


def _state_transitions(sft: Sft, states: Sequence[Word]):
    """Allowed state->state moves for k-block recoding: s -> s[1:] + (x,)."""
    index = {s: i for i, s in enumerate(states)}
    moves = []
    for s in states:
        row = []
        for x in sft.followers(s[-1]):
            t = s[1:] + (x,)
            if t in index:
                row.append((index[t], x))
        moves.append(row)
    return index, moves


class MarkovMeasure:
    def __init__(self, sft: Sft, order: int, matrix, stationary, exact: bool):
        if order < 1:
            raise MeasureError("order must be >= 1")
        self.sft = sft
        self.alphabet = sft.alphabet
        self.order = order
        self.states: tuple[Word, ...] = tuple(sft.blocks(order))
        self.exact = bool(exact)
        n = len(self.states)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise MeasureError("transition matrix must be %dx%d (one row per %d-block)" % (n, n, order))
        if len(stationary) != n:
            raise MeasureError("stationary vector has wrong length")
        self.matrix = [list(row) for row in matrix]
        self.stationary = list(stationary)
        self._index, self._moves = _state_transitions(sft, self.states)
        self._validate()

    def _validate(self):
        n = len(self.states)
        allowed = [set(j for j, _ in row) for row in self._moves]
        for i in range(n):
            row_sum = sum(self.matrix[i])
            if self.exact:
                if row_sum != 1:
                    raise MeasureError("row %d does not sum to 1" % i)
            elif abs(row_sum - 1.0) > _FLOAT_TOL:
                raise MeasureError("row %d sums to %r" % (i, row_sum))
            for j in range(n):
                if self.matrix[i][j] < 0:
                    raise MeasureError("negative probability")
                if self.matrix[i][j] and j not in allowed[i]:
                    raise MeasureError("mass on forbidden transition %s -> %s"
                                       % (self.states[i], self.states[j]))
            if self.stationary[i] < 0:
                raise MeasureError("negative probability")
        total = sum(self.stationary)
        fixed = [sum(self.stationary[i] * self.matrix[i][j] for i in range(n)) for j in range(n)]
        if self.exact:
            if total != 1 or fixed != self.stationary:
                raise MeasureError("stationary vector is not an exact fixed point")
        else:
            if abs(total - 1.0) > _FLOAT_TOL:
                raise MeasureError("stationary vector does not sum to 1")
            err = max(abs(fixed[j] - self.stationary[j]) for j in range(n))
            if err > 1e-10:
                raise MeasureError("stationary residual %g too large" % err)

    @classmethod
    def from_transition(cls, sft: Sft, matrix, order: int = 1, stationary=None) -> "MarkovMeasure":
        """Build from a row-stochastic matrix on the order-k blocks; the
        stationary vector is solved for when not supplied."""
        exact = all(isinstance(v, (int, Fraction)) for row in matrix for v in row)
        if stationary is None:
            stationary = _solve_stationary(matrix, exact)
        else:
            exact = exact and all(isinstance(v, (int, Fraction)) for v in stationary)
        return cls(sft, order, matrix, stationary, exact)

    @classmethod
    def bernoulli(cls, sft: Sft, probs) -> "MarkovMeasure":
        """Product measure; requires a full shift so that every transition
        carries mass legally."""
        n = sft.size
        if len(probs) != n:
            raise MeasureError("need one probability per symbol")
        if any(not sft.follows(i, j) for i in range(n) for j in range(n)):
            raise MeasureError("Bernoulli measures need a full shift")
        matrix = [list(probs) for _ in range(n)]
        return cls.from_transition(sft, matrix, order=1, stationary=list(probs))

    def cylinder_mass(self, word: Word):
        """Exact mass of the cylinder [word]; 1 for the empty word."""
        n = len(word)
        k = self.order
        if n == 0:
            return Fraction(1) if self.exact else 1.0
        if not self.sft.is_word(word):
            return Fraction(0) if self.exact else 0.0
        if n <= k:
            total = sum(self.stationary[i] for i, s in enumerate(self.states) if s[:n] == word)
            return total
        i = self._index[word[:k]]
        mass = self.stationary[i]
        for pos in range(k, n):
            j = self._index[word[pos - k + 1: pos + 1]]
            mass = mass * self.matrix[i][j]
            if not mass:
                break
            i = j
        return mass


_SINGULAR = "no unique stationary vector; give pi"


def _solve_stationary(matrix, exact: bool):
    """pi P = pi with sum(pi) = 1 for the last balance equation; exact chains
    by ``row_reduce`` on d P^T - d I, d the lcm of the denominators.
    MeasureError when the system is singular (more than one closed class)."""
    n = len(matrix)
    if exact:
        q, d = integer_rows(matrix)
        rows = [[q[i][j] - d * (i == j) for i in range(n)] + [0] for j in range(n - 1)]
        rows.append([1] * (n + 1))
        cols, den = row_reduce(rows, n)
        if len(cols) < n:
            raise MeasureError(_SINGULAR)
        if any(row[n] * den < 0 for row in rows):
            raise MeasureError("chain has no positive stationary vector")
        return [Fraction(row[n], den) for row in rows]
    a = [[matrix[i][j] - (1.0 if i == j else 0.0) for i in range(n)] for j in range(n)]
    a[-1] = [1.0] * n
    try:
        pi = gaussian_solve(a, [0.0] * (n - 1) + [1.0])
    except ValueError:
        raise MeasureError(_SINGULAR) from None
    if any(p < 0 for p in pi):
        if min(pi) < -1e-12:
            raise MeasureError("chain has no positive stationary vector")
        pi = [max(p, 0.0) for p in pi]
        total = sum(pi)
        pi = [p / total for p in pi]
    return pi
