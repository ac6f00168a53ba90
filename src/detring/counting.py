"""Numerology: minimal generator counts, multiplicity, Hilbert function.

All values are exact integers.  The generator counts and the multiplicity are
plane-partition counts in a box, by MacMahon's product (``_box``); the direct
route recounts the generator counts as standard chains of pinned minors, one
side at a time (row tuples times column tuples, shape by shape), so the two
can be played against each other.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod

from .cone import _check_sides, _pairs, _sides
from .errors import ParameterError
from .generic_point import _check_image_degree, shared_substitution
from .linalg import Eliminator
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


# Python's default limit (3.11) on the digits of an int it prints; ``_box``
# refuses a count past it.  2^_CAP_BITS > _DIGIT_CAP.
DIGIT_LIMIT = 4300
_DIGIT_CAP = 10 ** DIGIT_LIMIT
_CAP_BITS = _DIGIT_CAP.bit_length()


def _box(a, b, c, params=None, noun="power"):
    """The plane partitions in an a x b x c box (MacMahon; Stanley, EC2
    7.20-7.21), one layer of the smallest side at a time: with sides
    p <= q <= s, PP(i, q, s) = PP(i - 1, q, s) * C(s+i+q-1, q) / C(i+q-1, q).
    Each partial product is a box count, so each division is exact and the
    count never falls.  Past DIGIT_LIMIT digits it refuses (by ``_refusal``
    given the format): up front when the first layer, C(s+q, q) >=
    max(2, (s+q)/q)^q, must pass it (which needs s+q > _CAP_BITS, as
    C(s+q, q) < 2^(s+q)), else as soon as the count does."""
    p, q, s = sorted((a, b, c))
    if (p and s + q > _CAP_BITS
            and q * max(1, (s + q).bit_length() - q.bit_length() - 1) >= _CAP_BITS):
        raise _digit_refusal(params, noun)
    v = 1
    for i in range(1, p + 1):
        v = v * comb(s + i + q - 1, q) // comb(i + q - 1, q)
        if v >= _DIGIT_CAP:
            raise _digit_refusal(params, noun)
    return v


def _digit_refusal(params, noun):
    claim = f"the count would have more than {DIGIT_LIMIT} digits"
    return _refusal(params, claim, noun) if params else ParameterError(f"{claim}; lower the {noun}")


def mu_power(params, ideal, t):
    """Minimal generators of the t-th symbolic power: the plane partitions in
    the r x (n - r) x t box for the row-pinned side ('p'), which is
    ``hodge_dim(r, n, t)``; the column-pinned side swaps m for n.  At the
    boundary t = m - r ('p') the box is the multiplicity's, turned."""
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    return _box(params.r, (params.n if ideal == "p" else params.m) - params.r, t, params)


def mu_power_direct(params, ideal, t):
    """Same count without the product formula: the standard chains of t
    generators [1..r|C_1] <= ... <= [1..r|C_t] (``generators_gamma``; columns
    pinned for 'q'), counted one side at a time by ``_count_pinned``."""
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    return _count_pinned(params, "rows" if ideal == "p" else "cols", t, 0)


def multiplicity(params):
    """Multiplicity of the ring: the plane partitions in the
    (m - r) x (n - r) x r box, the paper's det[ C(m+n-i-j, n-j) ]."""
    params.require_proper_rank()
    r = params.r
    return _box(params.m - r, params.n - r, r, params, "matrix size")


def hodge_dim(r, n, t):
    """Dimension of the degree-t piece of the Grassmannian coordinate ring:
    the plane partitions in the r x (n - r) x t box, the paper's
    det[ C(t+n-j, n-i) ] over 1 <= i, j <= r."""
    if not (isinstance(r, int) and isinstance(n, int) and 1 <= r <= n):
        raise ParameterError(f"need 1 <= r <= n, got r={r!r}, n={n!r}")
    _check_t(t)
    return _box(r, n - r, t)


def _orbit_contents(size, d):
    """The nonincreasing tuples of ``size`` nonnegative ints summing to d
    (``_partitions``), each with the size of its orbit under permuting
    entries: size! / prod(mult!)."""
    return [(c, factorial(size) // prod(map(factorial, Counter(c).values())))
            for c in _partitions(size, d)]


# The most work ``hilbert --method rank`` may do, in image terms plus d per
# row (its positions, its memoised prefixes), plus a fixed C(n + d, d); about
# 1-10 us a unit.  5x5 r3 d5 predicts 85,995 (0.6 s); 6x6 r2 d6 169,738 (1.2 s),
# 2x2 r1 d127 5,865,536 (5.6 s) and 6x6 r3 d9 over 10^9 are refused.  The
# largest test query tallies 73,482 (3x5 r1 d9), the benchmark's at most 447.
RANK_LIMIT = 100_000


def _rank_rows(params, d):
    """The rows ``hilbert --method rank`` eliminates, as (positions, orbit)
    pairs: per degree-d x-monomial whose row content (x-degree per row) and
    column content are nonincreasing, its rank positions in
    ``_combination_image`` order, and the size of its content's orbit.  At
    m = n that orbit holds the transposed content too, so rows >= cols only.

    Each content pair's rows are filled one x row at a time, with the column
    degrees left as the state (``_row_fills``, memoised by (left, row
    degree)).  The work is C(n + d, d) plus, per row, d and the most terms
    its image can have, prod C(r + e - 1, e) over its variables x[i,j]^e;
    past ``RANK_LIMIT`` it refuses.  Up front on a lower bound: row content
    (d) has one row per column content and column content (d) one per row
    content, so the larger side gives p(d, <= max(m, n)) rows, among them
    x[1,1]^d with C(r + d - 1, d) terms.  During the fill once the finished
    rows' work plus d + 1 per open partial row passes the limit: every
    partial fill extends to a row."""
    m, n, r = params.m, params.n, params.r
    work = comb(n + d, d)
    if work + comb(r + d - 1, d) - 1 + (d + 1) * _partition_count(d, max(m, n)) > RANK_LIMIT:
        raise _rank_refusal(params, d)
    weight = [comb(r + e - 1, e) for e in range(d + 1)]
    fills, out, col_contents = {}, [], _orbit_contents(n, d)
    for rows, row_orbit in _orbit_contents(m, d):
        for cols, col_orbit in col_contents:
            if m == n and cols > rows:
                continue
            heads = [((), cols, 1)]  # positions so far, each column's degree left, weight
            cap = (RANK_LIMIT - work) // (d + 1)  # the most open partial rows
            for i, k in enumerate(filter(None, rows)):  # zero rows come last
                step = []
                for x, left, w in heads:
                    choices = fills.get((left, k))
                    if choices is None:
                        choices = fills[left, k] = _row_fills(left, k, weight, cap)
                    if choices is None or len(step) + len(choices) > cap:
                        raise _rank_refusal(params, d)
                    step += [(x + tuple([i * n + j for j in js]), rest, w * v)
                             for rest, js, v in choices]
                heads = step
            work += sum([d + w for _, _, w in heads])
            if work > RANK_LIMIT:
                raise _rank_refusal(params, d)
            orbit = row_orbit * col_orbit * (2 if m == n and cols != rows else 1)
            out += [(x, orbit) for x, _, _ in heads]
    return out


def _row_fills(left, k, weight, cap):
    """(left - p, the column of each unit of p in order, prod weight[p_j])
    over the tuples p <= left entrywise summing to k, in
    ``combinations_with_replacement`` order of their columns, or None once
    there are more than cap: every partial choice extends to such a p."""
    heads, room = [((), (), k, 1)], sum(left)
    for j, c in enumerate(left):
        room -= c
        heads = [(q + (c - x,), js + (j,) * x, s - x, w * weight[x]) for q, js, s, w in heads
                 for x in range(min(c, s), max(0, s - room) - 1, -1)]
        if len(heads) > cap:
            return None
    return [(q, js, w) for q, js, _, w in heads]


def _rank_refusal(params, d):
    return _refusal(params, f"degree {d} would expand more than {RANK_LIMIT} "
                    "image terms and row positions")


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
    past ``RANK_LIMIT`` units of work it refuses (``_rank_rows``).
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
        _check_degree(d)
        return sum(len(alphas) * len(betas)
                   for _, _, alphas, betas in _sides(params, _pairs("E", params.r, (2 * d,))))
    if method == "rank":
        _check_image_degree(d)
        rows = _rank_rows(params, d)
        subst = shared_substitution(params)
        elim, memo, rank = Eliminator(), {(): {0: 1}}, 0
        for positions, orbit in rows:
            # A pivot's content is its row's: one Eliminator serves every content.
            if elim.reduce(subst._combination_image(memo, positions)) is not None:
                rank += orbit
            # Degree d is built from memo's degree d - 1 and is not kept itself.
            del memo[positions]
        return rank
    raise ParameterError(
        f"method must be 'formula', 'bitableaux', 'lattice', or 'rank', got {method!r}")
