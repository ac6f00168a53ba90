"""Numerology: minimal generator counts, multiplicity, Hilbert function.

All values are exact integers.  The binomial determinants are evaluated
fraction-free; the direct route recounts the same numbers as standard chains
of pinned minors along the minor table, so the two can be played against
each other.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .cone import _join, _pairs
from .errors import ParameterError
from .generic_point import _check_image_degree, shared_substitution
from .linalg import Eliminator, det_bareiss
from .tableaux import _count_pinned, count_standard

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


def hilbert_function(params, d, method="bitableaux"):
    """Dimension of the degree-d slice of the quotient ring, three ways.

    'bitableaux' counts the standard bitableaux along the minor table without
    listing them (``count_standard``); 'lattice' counts the packed integer
    cone points of y-degree d without unpacking them; 'rank' computes the
    exact rank of the substituted monomial family, which needs no structure
    theory at all.
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {d!r}")
    if method == "bitableaux":
        return count_standard(params, d)
    if method == "lattice":
        return len(_join(params, _pairs("E", params.r, (2 * d,))))
    if method == "rank":
        _check_image_degree(d)
        subst = shared_substitution(params)
        elim = Eliminator()
        memo = {(): {0: 1}}
        for positions in combinations_with_replacement(range(subst.x_space.nvars), d):
            # Degree d is built from memo's degree d - 1 and is not kept itself.
            elim.reduce(subst._combination_image(memo, positions))
            del memo[positions]
        return elim.rank
    raise ParameterError(f"method must be 'bitableaux', 'lattice', or 'rank', got {method!r}")

