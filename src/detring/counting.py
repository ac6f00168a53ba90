"""Numerology: minimal generator counts, multiplicity, Hilbert function.

All values are exact integers.  The binomial determinants are evaluated
fraction-free; the direct route recounts the same numbers as standard chains
of pinned minors, one side at a time (row tuples times column tuples, shape by
shape), so the two can be played against each other.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from operator import le, sub

from .cone import _check_sides, _pairs, _sides
from .errors import ParameterError
from .generic_point import _check_image_degree, shared_substitution
from .linalg import Eliminator, det_bareiss
from .tableaux import (
    _check_degree,
    _count_pinned,
    _hilbert_formula,
    _partition_count,
    _partitions,
    _refusal,
    count_standard,
)

IDEALS = ("p", "q")


def binomial(a, b):
    """C(a, b) with the convention 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _check_ideal(ideal):
    if ideal not in IDEALS:
        raise ParameterError(f"ideal must be 'p' or 'q', got {ideal!r}")


def _check_t(t):
    if not isinstance(t, int) or t < 0:
        raise ParameterError(f"power t must be a nonnegative integer, got {t!r}")


def mu_power(params, ideal, t):
    """Minimal generators of the t-th symbolic power, by binomial determinant.

    Row-pinned side ('p'): det[ C(t+n-j, n-i) ] over 1 <= i, j <= r, which is
    ``hodge_dim(r, n, t)``; the column-pinned side swaps m for n.
    """
    params.require_proper_rank()
    _check_ideal(ideal)
    return hodge_dim(params.r, params.n if ideal == "p" else params.m, t)


def mu_power_direct(params, ideal, t):
    """Same count without the determinant: the standard chains of t generators
    [1..r|C_1] <= ... <= [1..r|C_t] (``generators_gamma``; columns pinned for
    'q'), counted one side at a time by ``_count_pinned``."""
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    return _count_pinned(params, "rows" if ideal == "p" else "cols", t, 0)


def multiplicity(params):
    """Multiplicity of the ring: det[ C(m+n-i-j, n-j) ] over 1 <= i, j <= r."""
    params.require_proper_rank()
    m, n, r = params.m, params.n, params.r
    rows = [[binomial(m + n - i - j, n - j) for j in range(1, r + 1)] for i in range(1, r + 1)]
    return det_bareiss(rows)


def hodge_dim(r, n, t):
    """Dimension of the degree-t piece of the Grassmannian coordinate ring."""
    if not (isinstance(r, int) and isinstance(n, int) and 1 <= r <= n):
        raise ParameterError(f"need 1 <= r <= n, got r={r!r}, n={n!r}")
    _check_t(t)
    rows = [[binomial(t + n - j, n - i) for j in range(1, r + 1)] for i in range(1, r + 1)]
    return det_bareiss(rows)


def _orbit_contents(size, d):
    """The nonincreasing tuples of ``size`` nonnegative ints summing to d
    (``_partitions``), each with the size of its orbit under permuting
    entries: size! / prod(mult!)."""
    return [(c, factorial(size) // prod(map(factorial, Counter(c).values())))
            for c in _partitions(size, d)]


def _sorted_monomials(m, n, d):
    """(positions, orbit) per degree-d x-monomial whose row content (x-degree
    per row) and column content are nonincreasing: its rank positions in
    ``_combination_image`` order, and the size of its content's orbit.  At
    m = n that orbit holds the transposed content too, so rows >= cols only."""
    # Each way to place degree k in one row: its column degrees and column offsets.
    parts = [[(tuple(map(js.count, range(n))), js) for js in combinations_with_replacement(range(n), k)]
             for k in range(d + 1)]
    col_contents = _orbit_contents(n, d)
    for rows, row_orbit in _orbit_contents(m, d):
        for cols, col_orbit in col_contents:
            if m == n and cols > rows:
                continue
            orbit = row_orbit * col_orbit * (2 if m == n and cols != rows else 1)
            heads = [((), cols)]  # positions so far, and each column's degree left
            for i, k in enumerate(filter(None, rows)):  # zero rows come last
                heads = [(x + tuple([i * n + j for j in js]), tuple(map(sub, left, p)))
                         for x, left in heads for p, js in parts[k] if all(map(le, p, left))]
            yield from ((x, orbit) for x, _ in heads)


# The most work ``hilbert --method rank`` may do, in image terms plus d per
# row (its positions, its memoised prefixes), plus the C(n + d, d) row parts
# ``_sorted_monomials`` lists; about 1-10 us a unit.  5x5 r3 d5 predicts
# 85,995 (0.6 s); 6x6 r2 d6 169,738 (1.2 s), 2x2 r1 d127 5,865,536 (5.6 s)
# and 6x6 r3 d9 over 10^9 are refused.  The largest test query predicts
# 39,710 (3x3 r2 d8); the benchmark's stay under the bound of the first
# step, at most 22,083 (4x4 r3 d3), so they skip the count.
RANK_LIMIT = 100_000


def _check_rank(params, d):
    """Refuse past ``RANK_LIMIT`` units: per row ``_sorted_monomials`` yields,
    the most terms its image can have plus its d positions, and C(n + d, d)
    for the row parts.  A row's image, the product of
    (y[i,1]*z[1,j] + ... + y[i,r]*z[r,j])^e over its variables x[i,j]^e, has
    at most prod C(r + e - 1, e) terms.

    No count is made when the bound over all degree-d monomials keeps under
    the limit: together they have C(mnr + d - 1, d) such terms, the
    monomials in the y[i,k]*z[k,j].  Two lower bounds come next: the rows are
    at least one per orbit of rows, columns and, at m = n, transposition,
    which keep the terms; and row content (d) has one row per column content,
    x[1,1]^d alone C(r + d - 1, d) terms.  Then the rows of each content
    pair, the most spread first, are counted by filling x's rows one at a
    time, with the column degrees left as the state (``_pair_work``).  Every
    partial fill extends to a row, so the count stops once the fills made so
    far pass the limit."""
    m, n, r = params.m, params.n, params.r
    terms, monomials, parts = comb(m * n * r + d - 1, d), comb(m * n + d - 1, d), comb(n + d, d)
    if parts + terms + d * monomials <= RANK_LIMIT:
        return
    orbit = factorial(m) * factorial(n) * (2 if m == n else 1)
    total = parts + max(terms // orbit + d * (monomials // orbit),
                        comb(r + d - 1, d) - 1 + (d + 1) * _partition_count(d, max(m, n)))
    if total <= RANK_LIMIT:
        total, fills, col_contents = parts, {}, _partitions(n, d)[::-1]
        weight = [comb(r + e - 1, e) for e in range(d + 1)]
        pairs = ((rows, cols) for rows in reversed(_partitions(m, d)) for cols in col_contents
                 if m != n or cols <= rows)
        for rows, cols in pairs:
            total += _pair_work(rows, cols, weight, fills, RANK_LIMIT - total)
            if total > RANK_LIMIT:
                break
    if total > RANK_LIMIT:
        raise _refusal(params, f"degree {d} would expand more than {RANK_LIMIT} "
                       "image terms and row positions")


def _pair_work(rows, cols, weight, fills, cap):
    """Image terms plus d per row, over the rows of content (rows, cols), or
    cap + 1 once that is certain to pass cap: the partial fills made so far
    bound it from below.  A state carries its fills' (terms, count).
    ``fills`` memoises ``_row_fills`` by (column degrees left, row degree);
    caps only shrink from one call to the next."""
    d, states = sum(rows), {cols: (1, 1)}
    for k in filter(None, rows):
        step, made = {}, 0
        for left, (w, c) in states.items():
            out = fills.get((left, k), ())
            if out == ():
                out = fills[left, k] = _row_fills(left, k, weight, cap)
            if out is None:
                return cap + 1
            made += w * out[1] + d * c * len(out[0])
            if made > cap:
                return cap + 1
            for rest, v in out[0]:
                t, u = step.get(rest, (0, 0))
                step[rest] = t + w * v, u + c
        states = step
    return sum([t + d * c for t, c in states.values()])


def _row_fills(left, k, weight, cap):
    """([(left - p, prod weight[p_j])], the sum of the weights) over the
    tuples p <= left entrywise summing to k, or None once there are more
    than cap."""
    heads, room = [((), k, 1)], sum(left)
    for c in left:
        room -= c
        heads = [(q + (c - x,), s - x, w * weight[x]) for q, s, w in heads
                 for x in range(max(0, s - room), min(c, s) + 1)]
        if len(heads) > cap:
            return None
    return [(q, w) for q, _, w in heads], sum([w for _, _, w in heads])


def hilbert_function(params, d, method="bitableaux"):
    """Dimension of the degree-d slice of the quotient ring, four ways.

    'formula' sums s_mu(1^m) * s_mu(1^n) (hook-content) over the partitions
    mu of d with at most r parts (``_hilbert_formula``).
    'bitableaux' counts the standard bitableaux without building a minor
    (``count_standard``): per shape, the standard row tuple sequences times
    the standard column tuple sequences; 'lattice' counts the integer cone points
    of y-degree d from the sizes of the alpha and beta blocks they join; 'rank'
    computes the exact rank of the substituted monomial family, with no
    structure theory but the substitution's symmetry: permuting x's rows (y's)
    or columns (z's) permutes variables, and so does transposing x when m = n;
    images of different contents share no monomial, so it eliminates one
    content per orbit and counts each pivot once per content in that orbit;
    past ``RANK_LIMIT`` predicted units it refuses (``_check_rank``).
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {d!r}")
    if method == "formula":
        _check_degree(d)
        return _hilbert_formula(params, d)
    if method == "bitableaux":
        return count_standard(params, d)
    if method == "lattice":
        _check_sides(params, d)
        return sum(len(alphas) * len(betas)
                   for _, _, alphas, betas in _sides(params, _pairs("E", params.r, (2 * d,))))
    if method == "rank":
        _check_image_degree(d)
        _check_rank(params, d)
        subst = shared_substitution(params)
        elim, memo, rank = Eliminator(), {(): {0: 1}}, 0
        for positions, orbit in _sorted_monomials(params.m, params.n, d):
            # A pivot's content is its row's: one Eliminator serves every content.
            if elim.reduce(subst._combination_image(memo, positions)) is not None:
                rank += orbit
            # Degree d is built from memo's degree d - 1 and is not kept itself.
            del memo[positions]
        return rank
    raise ParameterError(
        f"method must be 'formula', 'bitableaux', 'lattice', or 'rank', got {method!r}")
