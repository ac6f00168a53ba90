"""The elimination layer against Gaussian elimination over Fraction, and the
rank Hilbert function's reduction to one content per row/column orbit."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from hypothesis import given, settings, strategies as st

from detring import kernels, linalg
from detring.counting import hilbert_function
from detring.generic_point import shared_substitution
from detring.linalg import Eliminator
from detring.tableaux import Parameters, count_standard


def _reference_pivots(rows):
    """The leading keys of the span of ``rows``: the pivot columns of a row
    echelon form over Fraction, columns taken from the largest key down."""
    keys = sorted({k for row in rows for k in row}, reverse=True)
    matrix = [[Fraction(row.get(k, 0)) for k in keys] for row in rows]
    pivots, top = set(), 0
    for col, key in enumerate(keys):
        pick = next((i for i in range(top, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[top], matrix[pick] = matrix[pick], matrix[top]
        for i in range(top + 1, len(matrix)):
            f = matrix[i][col] / matrix[top][col]
            matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[top])]
        pivots.add(key)
        top += 1
    return pivots


def _random_row(rng, keys, size):
    return {k: rng.choice([-1, 1]) * rng.randint(1, 9) for k in rng.sample(keys, size)}


def _random_rows(rng):
    """Sparse integer rows on a few large keys, some built dependent on the
    rows before them; returns (rows, dependent flags)."""
    keys = rng.sample(range(1, 1 << 40), rng.randint(3, 12))
    rows, dependent = [], []
    for _ in range(rng.randint(1, 14)):
        if rows and rng.random() < 0.4:
            row = {}
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                kernels.poly_addmul(row, rng.randint(-3, 3), earlier)
            rows.append(row)
            dependent.append(True)
        else:
            rows.append(_random_row(rng, keys, rng.randint(1, min(4, len(keys)))))
            dependent.append(False)
    return rows, dependent


def test_eliminator_matches_fraction_gaussian_elimination():
    rng = random.Random(20240)
    for _ in range(300):
        rows, dependent = _random_rows(rng)
        copies = [dict(row) for row in rows]
        elim = Eliminator()
        claimed = [elim.reduce(row) for row in rows]
        assert rows == copies  # reduce leaves its input alone
        expected = _reference_pivots(rows)
        assert elim.rank == len(expected)
        assert set(elim.pivots) == expected
        assert {k for k in claimed if k is not None} == expected
        assert all(k is None for k, dep in zip(claimed, dependent) if dep)
        # Each kept row is an integer row whose largest key is its pivot.
        for key, row in elim.pivots.items():
            assert max(row) == key and all(type(c) is int and c for c in row.values())


def test_row_combine_cancels_the_lead_and_divides_by_the_content():
    rng = random.Random(7)
    keys = list(range(1, 40))
    for _ in range(500):
        lead = rng.choice(keys)
        row = _random_row(rng, keys, rng.randint(1, 6))
        pivot = _random_row(rng, keys, rng.randint(1, 6))
        row[lead] = rng.choice([-1, 1]) * rng.randint(1, 12)
        pivot[lead] = rng.choice([-1, 1]) * rng.randint(1, 12)
        if rng.random() < 0.2:
            row = {k: c * pivot[lead] for k, c in pivot.items()}  # cancels to nothing
        before = (dict(row), dict(pivot))
        out = kernels.row_combine(row, pivot, lead)
        assert (row, pivot) == before
        raw = {k: pivot[lead] * row.get(k, 0) - row[lead] * pivot.get(k, 0)
               for k in row.keys() | pivot.keys()}
        raw = {k: c for k, c in raw.items() if c}
        assert lead not in raw
        g = gcd(*raw.values()) if raw else 1
        assert out == {k: c // g for k, c in raw.items()}


def _fraction_det(rows):
    """The determinant by Gaussian elimination over Fraction, swapping in the
    first nonzero entry below a zero pivot."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pick = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pick is None:
            return 0
        if pick != k:
            a[k], a[pick] = a[pick], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_det_bareiss_pivots_past_zero_entries_and_finds_singular_matrices():
    rng = random.Random(31)
    swapped = singular = 0
    for _ in range(400):
        t = rng.randint(2, 6)
        a = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(t)] for _ in range(t)]
        a[0][0] = 0  # the first step must swap, or find the column empty
        kind = rng.randrange(3)
        if kind == 1:  # a row that combines two others
            i, j, k = rng.sample(range(t), 3) if t > 2 else (0, 1, 1)
            c = rng.randint(-2, 2)
            a[i] = [x + c * y for x, y in zip(a[j], a[k])] if j != k else [c * y for y in a[j]]
        elif kind == 2:  # a column with no nonzero entry from row k down
            col = rng.randrange(t)
            for row in a[rng.randrange(t):]:
                row[col] = 0
        expected = _fraction_det(a)
        assert linalg.det_bareiss(a) == expected, a
        swapped += any(a[i][0] for i in range(t))
        singular += expected == 0
    assert swapped > 100 and singular > 100
    # A zero pivot after the first step (the leading 2x2 minor vanishes):
    # a swap, then a column with nothing to swap in.
    a = [[1, 2, 3], [2, 4, 5], [3, 7, 1]]
    assert linalg.det_bareiss(a) == _fraction_det(a) == 1
    a = [[1, 2, 3], [2, 4, 5], [3, 6, 1]]
    assert linalg.det_bareiss(a) == _fraction_det(a) == 0


def _unreduced_rank(params, d):
    """The rank over every degree-d x-monomial, with no orbit reduction."""
    subst, elim = shared_substitution(params), Eliminator()
    for positions in combinations_with_replacement(range(params.m * params.n), d):
        elim.reduce(subst._combination_image({(): {0: 1}}, positions))
    return elim.rank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
def test_rank_hilbert_function_equals_the_bitableaux_count(m, n, r, d):
    params = Parameters(m, n, min(r, m, n))
    assert hilbert_function(params, d, "rank") == count_standard(params, d)


def test_rank_hilbert_function_equals_the_unreduced_rank():
    for m, n, r, d in ((2, 3, 1, 4), (3, 3, 2, 3), (3, 4, 2, 3), (4, 3, 3, 2), (2, 2, 2, 5)):
        params = Parameters(m, n, r)
        assert hilbert_function(params, d, "rank") == _unreduced_rank(params, d), (m, n, r, d)


def _content(key, params):
    """(x-degree per row, per column) of a y/z monomial: y-degree per row of
    y, z-degree per column of z."""
    yz, ranks = params.yz_space, range(1, params.r + 1)
    e = yz.unpack(key)
    rows = tuple(sum(e[yz.y(i, k)] for k in ranks) for i in range(1, params.m + 1))
    cols = tuple(sum(e[yz.z(k, j)] for k in ranks) for j in range(1, params.n + 1))
    return rows, cols


def test_rank_eliminates_one_nonincreasing_content_per_orbit(monkeypatch):
    seen, real = [], linalg.Eliminator.reduce

    def spy(self, row):
        seen.append(dict(row))
        return real(self, row)

    monkeypatch.setattr(linalg.Eliminator, "reduce", spy)
    for m, n, r, d in ((4, 3, 2, 3), (3, 5, 3, 3), (3, 3, 1, 4)):
        params = Parameters(m, n, r)
        seen.clear()
        assert hilbert_function(params, d, "rank") == count_standard(params, d)
        sorted_monomials = 0
        for positions in combinations_with_replacement(range(m * n), d):
            rows = tuple(sum(p // n == i for p in positions) for i in range(m))
            cols = tuple(sum(p % n == j for p in positions) for j in range(n))
            sorted_monomials += rows == tuple(sorted(rows, reverse=True)) and \
                cols == tuple(sorted(cols, reverse=True))
        assert len(seen) == sorted_monomials, (m, n, r, d)
        for row in seen:
            (rows, cols), = {_content(key, params) for key in row}
            assert list(rows) == sorted(rows, reverse=True)
            assert list(cols) == sorted(cols, reverse=True)
