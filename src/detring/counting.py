"""Numerology: minimal generator counts, multiplicity, Hilbert function.

All values are exact integers.  The binomial determinants are evaluated
fraction-free; the direct route recounts the same numbers as standard chains
of pinned minors along the minor table, so the two can be played against
each other.
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
from .tableaux import _check_degree, _count_pinned, _hilbert_formula, _partitions, count_standard

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
    'q'), counted along the minor table by ``_count_pinned``."""
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


def _contents(size, d):
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
    col_contents = _contents(n, d)
    for rows, row_orbit in _contents(m, d):
        for cols, col_orbit in col_contents:
            if m == n and cols > rows:
                continue
            orbit = row_orbit * col_orbit * (2 if m == n and cols != rows else 1)
            heads = [((), cols)]  # positions so far, and each column's degree left
            for i, k in enumerate(filter(None, rows)):  # zero rows come last
                heads = [(x + tuple([i * n + j for j in js]), tuple(map(sub, left, p)))
                         for x, left in heads for p, js in parts[k] if all(map(le, p, left))]
            yield from ((x, orbit) for x, _ in heads)


def hilbert_function(params, d, method="bitableaux"):
    """Dimension of the degree-d slice of the quotient ring, four ways.

    'formula' sums s_mu(1^m) * s_mu(1^n) (hook-content) over the partitions
    mu of d with at most r parts (``_hilbert_formula``).
    'bitableaux' counts the standard bitableaux along the minor table without
    listing them (``count_standard``); 'lattice' counts the integer cone points
    of y-degree d from the sizes of the alpha and beta blocks they join; 'rank'
    computes the exact rank of the substituted monomial family, with no
    structure theory but the substitution's symmetry: permuting x's rows (y's)
    or columns (z's) permutes variables, and so does transposing x when m = n;
    images of different contents share no monomial, so it eliminates one
    content per orbit and counts each pivot once per content in that orbit.
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
