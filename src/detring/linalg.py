"""Exact linear algebra helpers: clearing denominators and sparse elimination.

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
