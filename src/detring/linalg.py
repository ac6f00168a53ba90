"""Exact linear algebra helpers: integer determinants and sparse elimination.

The elimination routine reduces sparse rows (dicts keyed by packed monomial)
against pivots chosen as the largest key.  That pivot choice is load-bearing:
int order on packed keys is the term order, so the surviving pivot keys are
exactly the initial monomials of the row span, which the ladder verification
consumes directly.  The pivot set depends on the span alone, so the ladder
verification skips the products dependent on the x side: at r = min(m, n) the
substitution is injective, so x-side independence is y/z independence.
"""

from __future__ import annotations

from math import lcm

from . import kernels


def det_bareiss(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    t = len(rows)
    for row in rows:
        if len(row) != t:
            raise ValueError("matrix is not square")
    if t == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(t - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, t) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, t):
            for j in range(k + 1, t):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[t - 1][t - 1]


def clear_denominators(terms):
    """(scale, scaled): a monomial-keyed dict of rationals times the lcm of its
    denominators, with int coefficients."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return scale, {e: int(c * scale) for e, c in terms.items()}


class Eliminator:
    """Incremental sparse row reduction; a row's pivot is its largest key.

    Rows are keyed by packed monomials, so the pivot is the leading monomial.
    """

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        """Top-reduce an integer row until its lead is new; absorb it then.

        Returns the pivot key claimed by this row, or None if it reduced to
        zero (i.e. was dependent on rows seen so far).
        """
        row = dict(row)
        while row:
            lead = max(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                self.pivots[lead] = row
                return lead
            row = kernels.row_combine(row, pivot, lead)
        return None

    @property
    def rank(self):
        return len(self.pivots)
