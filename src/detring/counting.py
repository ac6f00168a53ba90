"""Numerology: minimal generator counts, multiplicity, Hilbert function.

All values are exact integers.  The binomial determinants are evaluated
fraction-free; the direct route recounts the same numbers by enumerating
chains of index sets, so the two can be played against each other.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import ParameterError
from .generic_point import SubstitutionMap
from .linalg import Eliminator, det_bareiss
from .tableaux import enumerate_standard

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

    Row-pinned side ('p'): det[ C(t+n-j, n-i) ] over 1 <= i, j <= r; the
    column-pinned side swaps m for n.
    """
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    if t == 0:
        return 1
    size = params.n if ideal == "p" else params.m
    r = params.r
    rows = [[binomial(t + size - j, size - i) for j in range(1, r + 1)] for i in range(1, r + 1)]
    return det_bareiss(rows)


def _chain_ends(universe_size, r, length):
    """Chains s1 <= ... <= s_length (componentwise, length >= 1) of r-subsets
    of 1..universe_size, counted by their last subset."""
    subsets = list(combinations(range(1, universe_size + 1), r))
    counts = {s: 1 for s in subsets}
    for _ in range(length - 1):
        counts = {
            s: sum(c for s2, c in counts.items() if all(x <= y for x, y in zip(s2, s)))
            for s in subsets
        }
    return counts


def mu_power_direct(params, ideal, t):
    """Same count by direct enumeration of standard products of t generators."""
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    if t == 0:
        return 1
    size = params.n if ideal == "p" else params.m
    return sum(_chain_ends(size, params.r, t).values())


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


def hilbert_function(params, d, method="bitableaux"):
    """Dimension of the degree-d slice of the quotient ring, three ways.

    'bitableaux' counts standard bitableaux; 'lattice' counts integer cone
    points of y-degree d; 'rank' computes the exact rank of the substituted
    monomial family, which needs no structure theory at all.
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {d!r}")
    if method == "bitableaux":
        return len(enumerate_standard(params, d))
    if method == "lattice":
        from .cone import lattice_points

        return len(lattice_points(params, "E", y_degree=d))
    if method == "rank":
        subst = SubstitutionMap(params)
        elim = Eliminator()
        for exps in _monomials_of_degree(subst.x_space.nvars, d):
            elim.reduce(subst.monomial_image(exps))
        return elim.rank
    raise ParameterError(f"method must be 'bitableaux', 'lattice', or 'rank', got {method!r}")


def _monomials_of_degree(k, d):
    """Exponent tuples of length k with entry sum d, lexicographic."""
    if k == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(k - 1, d - first):
            yield (first,) + rest
