"""The monomial semigroup of the initial algebra and its defining cone.

Exponent vectors live on the y/z space (rank-indexed tuples); the y block is
an m x r array "alpha", the z block an r x n array "beta".  The cone is cut
out by five families:

  (1) equations: alpha vanishes above its diagonal, beta below (alpha[i,j]=0
      for j>i, beta[u,v]=0 for u>v);
  (2) inequalities coupling adjacent alpha columns: for j=2..r, k=j..m,
      sum(alpha[i][j-1], i=j-1..k-1) - sum(alpha[i][j], i=j..k) >= 0;
  (3) the mirror family for beta rows: for u=2..r, w=u..n,
      sum(beta[u-1][t], t=u-1..w-1) - sum(beta[u][t], t=u..w) >= 0;
  (4) nonnegativity of the strictly-below-diagonal alpha entries, the
      strictly-right-of-diagonal beta entries, and of alpha[r,r], beta[r,r];
  (5) coupling ladder on the per-column defects s_j = sum_i alpha[i][j]
      - sum_v beta[j][v]: consecutive defects agree (s_j = s_{j+1} for
      j=1..r-1) and the last one vanishes (s_r = 0), which together force
      every s_j = 0.

The "Etilde" variant drops exactly the last coupling equation, so its
defects are merely constant across columns.  ``_blocks`` builds one side
column by column from explicit bounds: per-entry lows (4) and, on column
j-1's prefix sums, per-prefix cap offsets (2); so integer points are
generated, never filtered, and other bounds give the conic check's shifted
side.  (5) picks which alpha and beta blocks join (``_pairs``), and ``_sides``
pairs them.  These are the package's only description of the cone; the
brute-force oracle is ``tests/helpers.cone_system``.  With zero bounds the
blocks of column sums s are the semistandard tableaux of shape s (column j
counts the entries of row j): s_s(1^size) of them, by hook-content.

``semigroup_vs_cone`` verifies up to a degree bound that the cone's integer
points are the semigroup of the closed-form generators, both streamed degree
by degree as packed ints (``_join``).  ``conic_equality_check``, the
shifted-cone comparison that certifies Cohen-Macaulayness of symbolic powers,
compares alpha block lists, counts the beta blocks by hook-content, and
builds no point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import ceil, comb, floor
from operator import add

from . import kernels
from .errors import ParameterError
from .generic_point import _diagonal_monomial
from .tableaux import _check_degree, _partitions, _semistandard_count, _Tails, all_minors

VARIANTS = ("E", "Etilde")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")


def exponent_arrays(params, vec):
    """Render a y/z vector as nested alpha (m x r) and beta (r x n) lists."""
    yz = params.yz_space

    def show(x):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    alpha = [[show(vec[yz.y(i, j)]) for j in range(1, params.r + 1)] for i in range(1, params.m + 1)]
    beta = [[show(vec[yz.z(u, v)]) for v in range(1, params.n + 1)] for u in range(1, params.r + 1)]
    return {"alpha": alpha, "beta": beta}


def generators_semigroup(params, variant="E"):
    """Closed-form generator monomials of the semigroup, as exponent tuples.

    Variant E: for each size t <= r and strictly increasing row/column choices,
    the monomial prod_j y[a_j, j] * z[j, b_j].  Variant Etilde: the same mixed
    monomials for t < r, plus the pure products prod_j y[a_j, j] and
    prod_j z[j, b_j] of full length r.
    """
    _check_variant(variant)
    m, n, r = params.m, params.n, params.r
    yz = params.yz_space
    top = r if variant == "E" else r - 1
    gens = [_diagonal_monomial(yz, [(d.rows, d.cols)]) for d in all_minors(params, top)]
    if variant == "Etilde":
        gens += [_diagonal_monomial(yz, [(rows, ())]) for rows in combinations(range(1, m + 1), r)]
        gens += [_diagonal_monomial(yz, [((), cols)]) for cols in combinations(range(1, n + 1), r)]
    return gens


def _check_bound(bound):
    if bound < 0:
        raise ParameterError(f"degree bound must be nonnegative, got {bound}")


def _semigroup_layers(gens, bound):
    """The semigroup's points of each degree 0..bound, as sets of packed ints (checked lazily).

    Layer d is the union of layer d - deg(g) plus g (one int ``+``) over the
    generators g, so only the last max deg(g) layers are held.
    """
    _check_degree(bound, "degree bound")
    if not gens:
        raise ParameterError("at least one generator is required")
    width = len(gens[0])
    bad = next((g for g in gens if len(g) != width or min(g, default=0) < 0), None)
    if bad is not None:
        raise ParameterError(f"generator {bad} is not a nonnegative exponent tuple of length {width}")
    steps = [(kernels.pack(g), sum(g)) for g in gens if any(g)]
    span = max((dg for _, dg in steps), default=1)
    layers = {0: {0}}
    for d in range(bound + 1):
        if d:
            layers[d] = {p + g for g, dg in steps if dg <= d for p in layers[d - dg]}
            layers.pop(d - span, None)
        yield layers[d]


def semigroup_points(gens, bound):
    """All sums of generators with total degree <= bound (the zero included), as tuples."""
    layers = _semigroup_layers(gens, bound)
    return {kernels.unpack(p, len(gens[0])) for layer in layers for p in layer}


def _fills(lows, caps, total):
    """Integer tuples x >= lows with sum(x) == total and x[0] + ... + x[t] <= caps[t], in order.

    ``caps`` None means no prefix caps.  Each cap is first tightened by what
    the later lower bounds still have to add, so every partial tuple extends
    to a full one and nothing is built only to be thrown away.
    """
    k = len(lows)
    hi = [0] * k
    top = total
    for t in range(k - 1, -1, -1):
        if caps is not None and caps[t] < top:
            top = caps[t]
        hi[t] = top
        top -= lows[t]
    if top < 0 or hi[-1] < total:
        return []
    heads = [((), 0)]
    for t in range(k - 1):
        heads = [(x + (q - p,), q) for x, p in heads for q in range(p + lows[t], hi[t] + 1)]
    return [x + (total - p,) for x, p in heads]


def _zeros(size, r):
    """Zero lows, or zero cap offsets, for ``_blocks`` on a side of ``size`` rows."""
    return [(0,) * (size - j) for j in range(r)]


def _blocks(size, r, sums, lows, offsets):
    """One side's blocks with column sums ``sums``, entries >= ``lows``, as a list in rank order.

    The alpha block (size = m) holds column j = 1..r in rows j..size, laid out
    as the y ranking reads it: column by column, rows size..1, zero above the
    diagonal (1).  The beta block is the same call with size = n, reading beta
    row u as column u, since (1), (3) and (4) on beta mirror (1), (2) and (4)
    on alpha, and the z ranking reads row u from the right.  Column j, rows
    j..size, is fixed after column j-1: its entries are at least ``lows[j]``
    and its prefix sums at most column j-1's plus ``offsets[j]``.  Zero
    bounds are (4) and (2); (4) names only the entries below the diagonal and
    [r,r], since (2) at k = j chains a[j,j] >= ... >= a[r,r] >= 0.
    """
    blocks = [(col[::-1], col) for col in _fills(lows[0], None, sums[0])]
    for j in range(1, r):
        pad, off = (0,) * j, offsets[j]
        blocks = [(head + col[::-1] + pad, col) for head, prev in blocks
                  for col in _fills(lows[j], list(map(add, accumulate(prev), off)), sums[j])]
    return [block for block, _ in blocks]


def _shifted_bounds(params, w):
    """The alpha (lows, offsets) of the points v with v - w in the cone, w zero on beta.

    v - w >= 0 on the entries of (4) makes the lows ceil(w); (2) on v - w
    caps v's prefix sums by column j-1's plus the difference of w's prefix
    sums, rounded down, which is an integer offset since v's sums are integers.
    """
    yz = params.yz_space
    cols = [[w[yz.y(i, j)] for i in range(j, params.m + 1)] for j in range(1, params.r + 1)]
    sums = [list(accumulate(col)) for col in cols]
    offsets = [tuple(floor(a - b) for a, b in zip(sums[j], sums[j - 1])) for j in range(1, params.r)]
    return [tuple(map(ceil, col)) for col in cols], [()] + offsets


def _sides(params, pairs, bounds=None):
    """(sa, sb, alpha blocks, beta blocks) for each pair of ``pairs`` with beta blocks.

    The one place blocks are paired: a pair's cone points are its a + b.
    ``bounds`` holds the alpha (lows, offsets), zero when None; beta blocks
    have zero bounds and are built once per sb."""
    m, n, r = params.m, params.n, params.r
    lows, offsets = bounds or (_zeros(m, r), _zeros(m, r))
    zeros = _zeros(n, r)
    betas = {}
    for sa, sb in pairs:
        if sb not in betas:
            betas[sb] = _blocks(n, r, sb, zeros, zeros)
        if betas[sb]:
            yield sa, sb, _blocks(m, r, sa, lows, offsets), betas[sb]


def _join(params, pairs, bidegrees=None):
    """The set of cone points of ``pairs`` as packed ints, one int ``+`` each:
    pack(a) + ((pack(b) + |a| * ones) << 8mr), whose y-degree field is |a|.
    A Counter ``bidegrees`` counts them by (|sa|, |sb|)."""
    width = kernels.FIELD_BITS * params.m * params.r
    ones = (kernels.key_limit(params.n * params.r) - 1) // kernels.MAX_DEGREE
    points = set()
    for sa, sb, alphas, betas in _sides(params, pairs):
        if bidegrees is not None:
            bidegrees[sum(sa), sum(sb)] += len(alphas) * len(betas)
        keys = [kernels.pack(b) << width for b in betas]
        offset = sum(sa) * ones << width
        for a in alphas:
            points.update(map((kernels.pack(a) + offset).__add__, keys))
    return points


def _pairs(variant, r, degrees):
    """The (sa, sb) signature pairs of the cone points of each total degree in ``degrees``.

    Family (5) ties alpha column sums sa to beta row sums sb = sa - c, c = 0
    for E: degree d = 2|sa| - rc, and sb >= 0 needs c <= min(sa).
    """
    for d in degrees:
        for da in range(d + 1):
            c, rest = divmod(2 * da - d, r)
            if not rest and (c == 0 or variant == "Etilde"):
                for sa in _monomials_of_degree(r, da):
                    if min(sa) >= c:
                        yield sa, tuple(x - c for x in sa)


def _monomials_of_degree(k, d):
    """Exponent tuples of length k >= 1 with entry sum d, lexicographically largest first."""
    return _fills((0,) * k, None, d)[::-1]


def lattice_points(params, variant="E", bound=None, y_degree=None):
    """The set of integer cone points of total degree <= bound, or of exact y-degree, as tuples.

    Each point is an alpha block joined to a beta block (``_sides``); a point
    of y-degree d has degree 2d in variant E.  Past ``WORK_LIMIT`` points of
    degree <= bound, or in the slice, it refuses.
    """
    _check_variant(variant)
    if variant == "E" and y_degree is not None:
        _check_bound(y_degree)
        degrees = (2 * y_degree,)
    elif bound is None:
        raise ParameterError("either bound or y_degree is required" if variant == "E"
                             else "a degree bound is required for the Etilde variant")
    elif y_degree is not None:
        raise ParameterError("y_degree slicing is only supported for variant E")
    else:
        _check_bound(bound)
        degrees = range(bound + 1)
    _check_work(params, variant, degrees[-1], single=y_degree is not None)
    return {a + b for _, _, alphas, betas in _sides(params, _pairs(variant, params.r, degrees))
            for a in alphas for b in betas}


# The most points a cone check or ``lattice_points`` builds.  The largest test
# query predicts 723,905 (certify at 2x2, r = 1, bound 256); the benchmark's
# stay under the x-monomial bound, at most C(40, 4) = 91,390 (certify at 6x6,
# r = 2, bound 8), so they skip the count.
WORK_LIMIT = 1_000_000


def _check_work(params, variant, bound, single=False):
    """Refuse past ``WORK_LIMIT`` cone points of degree <= bound, summing the
    counts degree by degree only until the limit is passed, and not at all
    when the points' bound C(nvars + top, top), the monomials of degree <= top
    in nvars variables, is below it.  A signature pair (sa, sb) has
    s_sa(1^m) * s_sb(1^n) points: its alpha and beta block counts.  With
    ``single`` (variant E) only degree bound counts: R is a domain, so the
    counts never fall, and the first to pass the limit, often far cheaper
    than the last, shows that the last does."""
    m, n, r = params.m, params.n, params.r
    if variant == "E":
        # Degree 2k has one point per standard bitableau of degree k, at most
        # the x-monomials.
        nvars, top = m * n, bound // 2
    else:
        # One point per standard product, at most the y/z monomials.
        nvars, top = (m + n) * r, bound
    if comb(nvars + top, top) <= WORK_LIMIT:
        return
    total = 0
    for d in range(bound + 1):
        count = sum([_semistandard_count(sa, m) * _semistandard_count(sb, n)
                     for sa, sb in _pairs(variant, r, (d,))])
        total = count if single else total + count
        if total > WORK_LIMIT:
            raise ParameterError(
                f"degree bound {bound} would build more than {WORK_LIMIT} cone points "
                f"at m={m}, n={n}, r={r}; lower the bound"
            )


# The most block entries ``hilbert --method lattice`` has ``_sides`` build,
# about 0.2-0.7 us each: 2x30 r1 d4 predicts 1,227,610 (0.23 s), 2x40 r1 d4
# 4,936,410 (1.3 s).  The largest test query predicts 2,760 (4x4 r3 d4), the
# benchmark's 1,600 (4x4 r2 d4); both stay under the monomial bound, so they
# skip the count.
SIDES_LIMIT = 2_000_000


def _check_sides(params, d):
    """Refuse past ``SIDES_LIMIT`` block entries at y-degree d (variant E).
    Per partition s of d with at most r parts, ``_sides`` builds s_s(1^m)
    alpha blocks of m*r entries and s_s(1^n) beta blocks of n*r (blocks of a
    signature that is no partition are empty).  No count is made when the
    blocks' bound, the monomials of degree d in m*r and n*r variables, keeps
    under the limit; at r = 1 that bound is exact.  Two lower bounds come
    next, so a large degree lists no partition: a side of N rows has
    C(d + N - 1, d) blocks of the one-row shape (d) and, at r >= 2, at least
    d - 2k + 1 of each shape (d - k, k), its count at N = 2.  The sum over
    the partitions stops once past the limit."""
    m, n, r = params.m, params.n, params.r

    def entries(blocks_m, blocks_n):
        return (blocks_m * m + blocks_n * n) * r

    if entries(comb(m * r + d - 1, d), comb(n * r + d - 1, d)) <= SIDES_LIMIT:
        return
    total = entries(comb(d + m - 1, d), comb(d + n - 1, d))
    if r > 1:
        h = d // 2
        total += entries(h * (d - h), h * (d - h))
    if total <= SIDES_LIMIT:
        total = 0
        for s in _partitions(r, d):
            total += entries(_semistandard_count(s, m), _semistandard_count(s, n))
            if total > SIDES_LIMIT:
                break
    if total > SIDES_LIMIT:
        raise ParameterError(
            f"degree {d} would build more than {SIDES_LIMIT} block entries "
            f"at m={m}, n={n}, r={r}; lower the degree"
        )


def _closure_layers(params, variant, bound, bidegrees=None):
    """The (semigroup closure, lattice) point sets of each degree 0..bound."""
    layers = _semigroup_layers(generators_semigroup(params, variant), bound)
    pairs = (_pairs(variant, params.r, (d,)) for d in range(bound + 1))
    return zip(layers, (_join(params, p, bidegrees=bidegrees) for p in pairs))


def _chain_layers(params, lead, bound):
    """The E (semigroup, lattice) sizes of each degree, from the standard chains.

    A chain's lead is the sum of its factors' ``lead`` (one int ``+``, by one
    ``_Tails``).  Chain leads lie in the semigroup, which lies in the lattice
    (a monoid holding each generator: a one-factor chain).  So if the chains
    of x-degree k take every point out of the lattice set of degree 2k and
    are as many, the three sets are equal, and the standard bitableaux have
    distinct leads (the Sagbi basis).  Where that fails, the closure takes
    over from that degree on.
    """
    tails = _Tails(params.minor_table, lead.__getitem__, 0)
    for d in range(bound + 1):
        points = _join(params, _pairs("E", params.r, (d,)))
        size, count = len(points), 0
        for batch in () if d % 2 else tails.batches(params.r, d // 2):
            for head, leads in batch:
                points.difference_update(map(head.__add__, leads))
                count += len(leads)
        if points or count != size:
            yield from islice(_closure_layers(params, "E", bound), d, None)
            return
        yield size, size


def _cone_layers(params, variant, bound, bidegrees=None):
    """The (semigroup, lattice) points of each degree 0..bound, as packed-int
    sets or, where proven equal, their sizes; checked before it returns.

    Variant E takes ``_chain_layers`` when each minor of size t <= r has one
    well-formed generator of degree 2t; anything else takes the closure,
    which tallies ``bidegrees`` as ``_join`` does.
    """
    _check_degree(bound, "degree bound")
    _check_work(params, variant, bound)
    if variant == "E":
        gens, minors = generators_semigroup(params, "E"), all_minors(params, params.r)
        nvars = params.yz_space.nvars
        if len(gens) == len(minors) and all(
            len(g) == nvars and min(g) >= 0 and sum(g) == 2 * d.size for g, d in zip(gens, minors)
        ):
            return _chain_layers(params, dict(zip(minors, map(kernels.pack, gens))), bound)
    return _closure_layers(params, variant, bound, bidegrees)


def _mismatch(params, diffs, sides):
    """The least (point, in the first side) of ``diffs`` named by ``sides``, or None."""
    if diffs:
        v, in_first = min(diffs)
        return {"vector": exponent_arrays(params, v), "side": sides[0] if in_first else sides[1]}


def _cone_report(params, variant, bound, layers):
    """The payload comparing the ``_cone_layers`` pairs ``layers``.

    Each degree gives its two sizes; only the points of a differing degree
    are unpacked, to name the tuple-least point in exactly one set.  A
    mismatch also gets the saturation probe, on the tuple semigroup: a point
    whose entries k in {2, 3} divides has its k-th root in the semigroup.
    Equal sets imply it: u/k is an integer cone point of lower degree.
    """
    sizes, diffs = [], []
    for a, b in layers:
        if type(a) is int:  # a degree proven equal, given by its two sizes
            sizes.append((a, b))
        else:
            sizes.append((len(a), len(b)))
            diffs += [(kernels.unpack(k, params.yz_space.nvars), k in a) for k in a ^ b]
    first = _mismatch(params, diffs, ("semigroup-only", "lattice-only"))
    power_ok = True
    if first is not None:
        sg = semigroup_points(generators_semigroup(params, variant), bound)
        power_ok = all(
            tuple(e // k for e in u) in sg for u in sg for k in (2, 3) if not any(e % k for e in u)
        )
    return {
        "m": params.m,
        "n": params.n,
        "r": params.r,
        "variant": variant,
        "degree_bound": bound,
        "degree_counts": [
            {"degree": d, "semigroup": s, "lattice": l} for d, (s, l) in enumerate(sizes)
        ],
        "equal": first is None,
        "power_test_ok": power_ok,
        "ok": first is None and power_ok,
        "first_mismatch": first,
    }


def semigroup_vs_cone(params, variant="E", bound=6):
    """Compare semigroup points with cone lattice points up to a degree bound.

    Returns the JSON-ready payload: per-degree counts, ``equal``, the
    saturation probe's ``power_test_ok``, ``ok`` (both), and the first
    mismatch named, or None.
    """
    _check_variant(variant)
    return _cone_report(params, variant, bound, _cone_layers(params, variant, bound))


def _check_eps(eps):
    """``eps`` as a Fraction; ParameterError unless 0 < eps < 1."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ParameterError(f"eps must satisfy 0 < eps < 1, got {eps}")
    return eps


def witness_vector(params, t, eps):
    """The shifted-cone witness: diagonal t-eps, a trail of -(t-eps)/(m-r)."""
    params.require_proper_rank()
    eps = _check_eps(eps)
    if not isinstance(t, int) or t < 1:
        raise ParameterError(f"t must be a positive integer, got {t!r}")
    m, r = params.m, params.r
    yz = params.yz_space
    val = t - eps
    neg = -val / (m - r)
    vec = [Fraction(0)] * yz.nvars
    for j in range(1, r + 1):
        vec[yz.y(j, j)] = val
        for i in range(j + 1, m - r + j + 1):
            vec[yz.y(i, j)] = neg
    return tuple(vec)


def conic_equality_check(params, t, eps=Fraction(1, 2), bound=6):
    """Compare the filtered cone with the witness-shifted cone, exactly.

    Side A: integer cone points of degree <= bound with alpha[r,r] >= t.
    Side B: integer solutions v of the cone's equations with v - w in the
    cone, w the witness.  w vanishes on the beta block, so side B joins plain
    beta blocks to alpha blocks shifted by w, and (5) makes their signatures
    equal.  The two agree precisely when the t-th symbolic power is
    Cohen-Macaulay (t <= m - r); the returned JSON-ready payload records
    whether the computed outcome matches that expectation (``consistent``).
    The sides share the beta blocks, so they compare alpha block lists per
    sa and count the beta blocks, s_sa(1^n) of them (hook-content), without
    building one; only a signature whose alpha lists differ builds its beta
    blocks, for the least differing point.  Past ``WORK_LIMIT`` E lattice
    points of degree <= bound it refuses, as ``semigroup_vs_cone`` does:
    side A is a subset of them.  Side B has no proven bound of its own.
    """
    w = witness_vector(params, t, eps)
    _check_bound(bound)
    _check_work(params, "E", bound)
    m, n, r = params.m, params.n, params.r
    zeros = _zeros(m, r)
    ideal = (zeros[:-1] + [(t,) + zeros[-1][1:]], zeros)  # alpha[r,r] >= t
    shifted = _shifted_bounds(params, w)
    count_a, count_b, diffs = 0, 0, []
    for sa, _ in _pairs("E", r, range(0, bound + 1, 2)):
        betas = _semistandard_count(sa, n)
        if not betas:
            continue
        alphas, others = _blocks(m, r, sa, *ideal), _blocks(m, r, sa, *shifted)
        count_a += len(alphas) * betas
        count_b += len(others) * betas
        if alphas != others:
            inside = set(alphas)
            a = min(inside.symmetric_difference(others))
            zeros_n = _zeros(n, r)
            diffs.append((a + min(_blocks(n, r, sa, zeros_n, zeros_n)), a in inside))
    first = _mismatch(params, diffs, ("ideal-only", "shifted-only"))
    eps, expected = Fraction(eps), t <= params.m - params.r
    return {
        "m": params.m,
        "n": params.n,
        "r": params.r,
        "t": t,
        "eps": f"{eps.numerator}/{eps.denominator}",
        "degree_bound": bound,
        "ideal_side_count": count_a,
        "shifted_side_count": count_b,
        "equal": first is None,
        "expected_equal": expected,
        "consistent": (first is None) == expected,
        "first_counterexample": first,
        "witness": exponent_arrays(params, w),
    }
