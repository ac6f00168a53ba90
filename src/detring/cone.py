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
side.  (5) picks which alpha and beta blocks join (``_pairs``).  These two
are the package's only description of the cone.
The families as explicit functionals are ``tests/helpers.cone_system``, the
brute-force oracle the generated points are tested against.

Integer points of the cone match the semigroup generated by the closed-form
generator monomials; ``semigroup_vs_cone`` verifies that up to a degree bound,
and ``conic_equality_check`` runs the shifted-cone comparison that certifies
Cohen-Macaulayness of symbolic powers.  Both stream their two sides degree by
degree through one comparison (``_compare``), each point one packed int
(``kernels.pack``, built by ``_join``); tuples appear only in the public views
(``lattice_points``, ``semigroup_points``) and to name a mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import ceil, comb, floor
from operator import add

from . import kernels
from .errors import ParameterError
from .generic_point import _diagonal_monomial
from .tableaux import _check_degree, _Tails, _tilde_basis_count, all_minors, count_standard

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


def _join(params, pairs, bounds=None, betas=None, bidegrees=None):
    """The set of cone points joining alpha blocks of column sums sa to beta blocks of row sums sb.

    ``pairs`` holds the (sa, sb) the coupling family (5) allows; ``bounds``
    holds the alpha blocks' (lows, offsets), zero when None; beta blocks have
    zero bounds and are built once per sb into ``betas``.  A Counter
    ``bidegrees`` counts each pair's points under (|sa|, |sb|).  A point is its
    packed int, one int ``+`` each: pack(a) + ((pack(b) + |a| * ones) << 8mr),
    whose y-degree field is |a|.  With a negative entry or a degree past
    MAX_DEGREE it is the tuple a + b (``_point`` reads either).
    """
    m, n, r = params.m, params.n, params.r
    width = kernels.FIELD_BITS * m * r
    ones = (kernels.key_limit(n * r) - 1) // kernels.MAX_DEGREE
    lows, offsets = bounds or (_zeros(m, r), _zeros(m, r))
    zeros = _zeros(n, r)
    betas = {} if betas is None else betas
    points = set()
    for sa, sb in pairs:
        if sb not in betas:
            blocks = _blocks(n, r, sb, zeros, zeros)
            fits = sum(sb) <= kernels.MAX_DEGREE
            betas[sb] = blocks, [kernels.pack(b) << width for b in blocks if fits]
        blocks, keys = betas[sb]
        if not blocks:
            continue
        fits = sum(sa) + sum(sb) <= kernels.MAX_DEGREE
        offset = sum(sa) * ones << width
        alphas = _blocks(m, r, sa, lows, offsets)
        if bidegrees is not None:
            bidegrees[sum(sa), sum(sb)] += len(alphas) * len(blocks)
        for a in alphas:
            if fits and min(a) >= 0:
                points.update(map((kernels.pack(a) + offset).__add__, keys))
            else:
                points.update(a + b for b in blocks)
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


def _point(key, nvars):
    """The exponent tuple of a point held as ``_join`` holds it."""
    return key if type(key) is tuple else kernels.unpack(key, nvars)


def lattice_points(params, variant="E", bound=None, y_degree=None):
    """The set of integer cone points of total degree <= bound, or of exact y-degree, as tuples.

    Each point is an alpha block joined to a beta block (``_join``); a point
    of y-degree d has degree 2d in variant E.
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
    nvars = params.yz_space.nvars
    return {_point(k, nvars) for k in _join(params, _pairs(variant, params.r, degrees))}


def _compare(params, layers, sides):
    """Each degree's two sizes, and the tuple-least point in exactly one side.

    ``layers`` yields one (a, b) pair of point sets per degree, held as
    ``_join`` holds them, or of their sizes where they are proven equal
    (``_chain_layers``); only points of a differing degree are unpacked.
    Returns the (len(a), len(b)) pairs and, when some degree differs, that
    point named by ``sides``, else None.
    """
    nvars = params.yz_space.nvars
    sizes, first = [], None
    for a, b in layers:
        if type(a) is int:  # a degree proven equal, given by its two sizes
            sizes.append((a, b))
            continue
        sizes.append((len(a), len(b)))
        if a != b:
            least = min((_point(k, nvars), k in a) for k in a ^ b)
            first = least if first is None else min(first, least)
    if first is None:
        return sizes, None
    v, in_a = first
    return sizes, {"vector": exponent_arrays(params, v), "side": sides[0] if in_a else sides[1]}


# The most points a cone check builds.  The largest query of the tests
# predicts 723,905 (certify at 2x2, r = 1, bound 256); the benchmark's stay
# under the x-monomial bound, at most C(40, 4) = 91,390 (certify at 6x6,
# r = 2, bound 8), so they skip the count.
WORK_LIMIT = 1_000_000


def _check_work(params, bound, nvars, top, counts):
    """Refuse past ``WORK_LIMIT`` points, summing ``counts`` (lazy, per degree
    or bidegree) only until the limit is passed, and not at all when the
    points' bound C(nvars + top, top), the monomials of degree <= top in
    nvars variables, is below it."""
    if comb(nvars + top, top) <= WORK_LIMIT:
        return
    total = 0
    for count in counts:
        total += count
        if total > WORK_LIMIT:
            raise ParameterError(
                f"degree bound {bound} would build more than {WORK_LIMIT} cone points "
                f"at m={params.m}, n={params.n}, r={params.r}; lower the bound"
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
            points.difference_update(batch)
            count += len(batch)
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
    if variant == "E":
        # Degree 2k has one point per standard bitableau of degree k, at most
        # the x-monomials.
        _check_work(params, bound, params.m * params.n, bound // 2,
                    (count_standard(params, k) for k in range(bound // 2 + 1)))
        gens, minors = generators_semigroup(params, "E"), all_minors(params, params.r)
        nvars = params.yz_space.nvars
        if len(gens) == len(minors) and all(
            len(g) == nvars and min(g) >= 0 and sum(g) == 2 * d.size for g, d in zip(gens, minors)
        ):
            return _chain_layers(params, dict(zip(minors, map(kernels.pack, gens))), bound)
    else:
        # One point per standard product, at most the y/z monomials.
        _check_work(params, bound, (params.m + params.n) * params.r, bound, (
            _tilde_basis_count(params, d1, total - d1)
            for total in range(bound + 1) for d1 in range(total + 1)))
    return _closure_layers(params, variant, bound, bidegrees)


def _cone_report(params, variant, bound, layers):
    """The payload comparing the ``_cone_layers`` pairs ``layers``.

    A mismatch also gets the saturation probe, on the tuple semigroup: a
    point whose entries k in {2, 3} divides has its k-th root in the
    semigroup.  Equal sets imply it: u/k is an integer cone point of lower
    degree.
    """
    sizes, first = _compare(params, layers, ("semigroup-only", "lattice-only"))
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
    Past ``WORK_LIMIT`` E lattice points of degree <= bound it refuses, as
    ``semigroup_vs_cone`` does: side A is a subset of them.  Side B has no
    proven bound of its own.
    """
    w = witness_vector(params, t, eps)
    _check_bound(bound)
    _check_work(params, bound, params.m * params.n, bound // 2,
                (count_standard(params, k) for k in range(bound // 2 + 1)))
    zeros = _zeros(params.m, params.r)
    ideal = (zeros[:-1] + [(t,) + zeros[-1][1:]], zeros)  # alpha[r,r] >= t
    shifted = _shifted_bounds(params, w)

    def sides():
        # Both sides share the beta blocks.
        for d in range(0, bound + 1, 2):
            betas = {}
            yield (_join(params, _pairs("E", params.r, (d,)), ideal, betas),
                   _join(params, _pairs("E", params.r, (d,)), shifted, betas))

    sizes, first = _compare(params, sides(), ("ideal-only", "shifted-only"))
    count_a, count_b = map(sum, zip(*sizes))
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
