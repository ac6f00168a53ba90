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
defects are merely constant across columns.  Once column j-1 is fixed, (2)
caps the prefix sums of column j, so integer points are generated column by
column (``_blocks``) and never filtered.  Integer points of the
cone match the semigroup generated by the closed-form generator monomials;
``semigroup_vs_cone`` verifies that up to a degree bound, and
``conic_equality_check`` runs the shifted-cone comparison that certifies
Cohen-Macaulayness of symbolic powers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import ceil, floor

from . import kernels
from .counting import _monomials_of_degree
from .errors import ParameterError
from .generic_point import _diagonal_monomial
from .tableaux import all_minors

VARIANTS = ("E", "Etilde")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class ConeSystem:
    """Structured linear description; functionals are ((position, coef), ...)."""

    params: object
    variant: str
    zero_positions: tuple
    alpha_inequalities: tuple
    beta_inequalities: tuple
    nonneg_positions: tuple
    couplings: tuple

    @property
    def equations(self):
        zero = tuple(((p, 1),) for p in self.zero_positions)
        return zero + self.couplings

    @property
    def inequalities(self):
        nonneg = tuple(((p, 1),) for p in self.nonneg_positions)
        return self.alpha_inequalities + self.beta_inequalities + nonneg


def build_system(params, variant="E"):
    _check_variant(variant)
    m, n, r = params.m, params.n, params.r
    yz = params.yz_space
    zero = []
    for i in range(1, m + 1):
        for j in range(i + 1, r + 1):
            zero.append(yz.y(i, j))
    for u in range(1, r + 1):
        for v in range(1, min(u - 1, n) + 1):
            zero.append(yz.z(u, v))
    alpha_ineqs = []
    for j in range(2, r + 1):
        for k in range(j, m + 1):
            f = [(yz.y(i, j - 1), 1) for i in range(j - 1, k)]
            f += [(yz.y(i, j), -1) for i in range(j, k + 1)]
            alpha_ineqs.append(tuple(f))
    beta_ineqs = []
    for u in range(2, r + 1):
        for w in range(u, n + 1):
            f = [(yz.z(u - 1, t), 1) for t in range(u - 1, w)]
            f += [(yz.z(u, t), -1) for t in range(u, w + 1)]
            beta_ineqs.append(tuple(f))
    nonneg = []
    for j in range(1, r + 1):
        for i in range(j + 1, m + 1):
            nonneg.append(yz.y(i, j))
    for u in range(1, r + 1):
        for v in range(u + 1, n + 1):
            nonneg.append(yz.z(u, v))
    nonneg.append(yz.y(r, r))
    nonneg.append(yz.z(r, r))
    defect = []
    for j in range(1, r + 1):
        f = [(yz.y(i, j), 1) for i in range(1, m + 1)]
        f += [(yz.z(j, v), -1) for v in range(1, n + 1)]
        defect.append(f)
    couplings = []
    for j in range(r - 1):
        f = defect[j] + [(p, -c) for p, c in defect[j + 1]]
        couplings.append(tuple(f))
    if variant == "E":
        couplings.append(tuple(defect[r - 1]))
    return ConeSystem(
        params,
        variant,
        tuple(zero),
        tuple(alpha_ineqs),
        tuple(beta_ineqs),
        tuple(sorted(set(nonneg))),
        tuple(couplings),
    )


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


def semigroup_points(gens, bound):
    """All sums of generators with total degree <= bound (the zero included).

    Points are packed ints (``kernels.pack``) while they are built, so one int
    ``+`` adds a generator; degree layer d is the union of layer d - deg(g)
    plus g over the generators g.  The points are unpacked once at the end.
    """
    if bound < 0:
        raise ParameterError(f"degree bound must be nonnegative, got {bound}")
    if bound > kernels.MAX_DEGREE:
        raise ParameterError(
            f"degree bound {bound} exceeds the packed-exponent limit {kernels.MAX_DEGREE}"
        )
    if not gens:
        raise ParameterError("at least one generator is required")
    nvars = len(gens[0])
    steps = [(kernels.pack(g), sum(g)) for g in gens if any(g)]
    layers = [{0}]
    for d in range(1, bound + 1):
        layers.append({p + g for g, dg in steps if dg <= d for p in layers[d - dg]})
    return {kernels.unpack(p, nvars) for layer in layers for p in layer}


def _fills(lows, caps, total):
    """Integer tuples x >= lows with sum(x) == total and x[0] + ... + x[t] <= caps[t].

    ``caps`` None means no prefix caps.  Each cap is first tightened by what
    the later lower bounds still have to add, so every partial tuple extends
    to a full one and nothing is generated only to be thrown away.
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
        return

    def tail(t, p):
        if t == k - 1:
            yield (total - p,)
            return
        for q in range(p + lows[t], hi[t] + 1):
            for rest in tail(t + 1, q):
                yield (q - p,) + rest

    yield from tail(0, 0)


def _blocks(size, r, sums, shift=None):
    """One side's cone points with column sums ``sums``, as blocks in rank order.

    The alpha block (size = m) holds column j = 1..r in rows j..size, laid out
    as the y ranking reads it: column by column, rows size..1, zero above the
    diagonal (1).  The beta block is the same call with size = n, reading beta
    row u as column u, since (1), (3) and (4) on beta mirror (1), (2) and (4)
    on alpha, and the z ranking reads row u from the right.  Columns are
    fixed in order: (2) caps the prefix sums of column j by those of column
    j-1, and (4) bounds its entries below.  (4) names only the entries below
    the diagonal and [r,r]; the rest of the diagonal is implied, because (2)
    at k = j chains a[j,j] >= a[j+1,j+1] >= ... >= a[r,r] >= 0.  So every
    block is a cone point and nothing is filtered.

    ``shift`` (column j as the values at rows j..size) yields instead the
    integer points v with v - shift in the cone: lower bounds ceil(shift),
    prefix caps rounded down.
    """
    if shift is None:
        lows = [(0,) * (size - j) for j in range(r)]
    else:
        lows = [tuple(map(ceil, col)) for col in shift]
        sums_w = [list(accumulate(col)) for col in shift]
        offsets = [None] + [[a - b for a, b in zip(sums_w[j], sums_w[j - 1])]
                            for j in range(1, r)]
    pads = [(0,) * j for j in range(r)]

    def walk(j, prev):
        caps = None
        if j:
            caps = list(accumulate(prev))
            if shift is not None:
                caps = [floor(c + o) for c, o in zip(caps, offsets[j])]
        for col in _fills(lows[j], caps, sums[j]):
            head = col[::-1] + pads[j]
            if j + 1 == r:
                yield head
            else:
                for rest in walk(j + 1, col):
                    yield head + rest

    return walk(0, None)


def _equal_join(params, degrees, shift=None):
    """Cone points whose alpha and beta blocks share a signature of degree in ``degrees``."""
    m, n, r = params.m, params.n, params.r
    for d in degrees:
        for sig in _monomials_of_degree(r, d):
            betas = list(_blocks(n, r, sig))
            if betas:
                for a in _blocks(m, r, sig, shift):
                    for b in betas:
                        yield a + b


def lattice_points(params, variant="E", bound=None, y_degree=None):
    """Integer cone points, sorted: total degree <= bound, or exact y-degree.

    Each point is an alpha block joined to a beta block.  The coupling
    family (5) ties their signatures, the alpha column sums sa and the beta
    row sums sb: variant E requires sb = sa, Etilde only sb = sa - c for a
    common shift c.
    """
    _check_variant(variant)
    if variant == "E":
        if y_degree is not None:
            return sorted(_equal_join(params, (y_degree,)))
        if bound is None:
            raise ParameterError("either bound or y_degree is required")
        return sorted(_equal_join(params, range(bound // 2 + 1)))
    if bound is None:
        raise ParameterError("a degree bound is required for the Etilde variant")
    if y_degree is not None:
        raise ParameterError("y_degree slicing is only supported for variant E")
    m, n, r = params.m, params.n, params.r
    results = []
    betas = {}
    for d in range(bound + 1):
        for sa in _monomials_of_degree(r, d):
            alphas = list(_blocks(m, r, sa))
            if not alphas:
                continue
            # |sa| + |sb| = 2d - rc <= bound, and sb >= 0.
            for c in range(-((bound - 2 * d) // r), min(sa) + 1):
                sb = tuple(s - c for s in sa)
                if sb not in betas:
                    betas[sb] = list(_blocks(n, r, sb))
                results += [a + b for a in alphas for b in betas[sb]]
    results.sort()
    return results


@dataclass(frozen=True)
class SemigroupConeReport:
    params: object
    variant: str
    bound: int
    degree_counts: tuple  # ((degree, semigroup_count, lattice_count), ...)
    equal: bool
    power_test_ok: bool
    first_mismatch: object

    @property
    def ok(self):
        return self.equal and self.power_test_ok

    def to_dict(self):
        p = self.params
        return {
            "m": p.m,
            "n": p.n,
            "r": p.r,
            "variant": self.variant,
            "degree_bound": self.bound,
            "degree_counts": [
                {"degree": d, "semigroup": s, "lattice": l} for d, s, l in self.degree_counts
            ],
            "equal": self.equal,
            "power_test_ok": self.power_test_ok,
            "ok": self.ok,
            "first_mismatch": self.first_mismatch,
        }


def semigroup_vs_cone(params, variant="E", bound=6):
    """Compare semigroup points with cone lattice points up to a degree bound.

    Also runs the saturation probe: any computed point all of whose entries
    are divisible by k in {2, 3} must have its k-th root in the semigroup.
    """
    _check_variant(variant)
    sg = semigroup_points(generators_semigroup(params, variant), bound)
    latset = set(lattice_points(params, variant, bound=bound))
    return _semigroup_report(params, variant, bound, sg, latset)


def _semigroup_report(params, variant, bound, sg, latset):
    """The report comparing semigroup points ``sg`` with lattice points ``latset``.

    Callers build ``sg`` first, so its packed layers, the largest transient of
    the two, are freed before ``latset`` exists; the other order raises the peak.
    """
    sg_counts = Counter(map(sum, sg))
    lat_counts = Counter(map(sum, latset))
    counts = [(d, sg_counts[d], lat_counts[d]) for d in range(bound + 1)]
    equal = sg == latset
    power_ok = all(
        tuple(e // k for e in u) in sg for u in sg for k in (2, 3) if not any(e % k for e in u)
    )
    first = None
    if not equal:
        v = min(sg.symmetric_difference(latset))
        first = {
            "vector": exponent_arrays(params, v),
            "side": "semigroup-only" if v in sg else "lattice-only",
        }
    return SemigroupConeReport(params, variant, bound, tuple(counts), equal, power_ok, first)


def witness_vector(params, t, eps):
    """The shifted-cone witness: diagonal t-eps, a trail of -(t-eps)/(m-r)."""
    params.require_proper_rank()
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ParameterError(f"eps must satisfy 0 < eps < 1, got {eps}")
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


def _shifted_points(params, w, bound):
    """Integer solutions v of the cone's equations with v - w in the cone, degree <= bound.

    w vanishes on the beta block, so the beta blocks are plain cone blocks and
    the alpha blocks are shifted by w; (5) makes their signatures equal.
    """
    yz = params.yz_space
    shift = [[w[yz.y(i, j)] for i in range(j, params.m + 1)] for j in range(1, params.r + 1)]
    return set(_equal_join(params, range(bound // 2 + 1), shift))


@dataclass(frozen=True)
class ConicCheckReport:
    params: object
    t: int
    eps: Fraction
    bound: int
    ideal_side_count: int
    shifted_side_count: int
    equal: bool
    expected_equal: bool
    first_counterexample: object
    witness: dict

    @property
    def consistent(self):
        return self.equal == self.expected_equal

    def to_dict(self):
        p = self.params
        return {
            "m": p.m,
            "n": p.n,
            "r": p.r,
            "t": self.t,
            "eps": f"{self.eps.numerator}/{self.eps.denominator}",
            "degree_bound": self.bound,
            "ideal_side_count": self.ideal_side_count,
            "shifted_side_count": self.shifted_side_count,
            "equal": self.equal,
            "expected_equal": self.expected_equal,
            "consistent": self.consistent,
            "first_counterexample": self.first_counterexample,
            "witness": self.witness,
        }


def conic_equality_check(params, t, eps=Fraction(1, 2), bound=6):
    """Compare the filtered cone with the witness-shifted cone, exactly.

    Side A: integer cone points of degree <= bound with alpha[r,r] >= t.
    Side B: integer solutions of the cone's equations whose difference from
    the witness satisfies every cone inequality.  The two agree precisely when
    the t-th symbolic power is Cohen-Macaulay (t <= m - r); the report records
    whether the computed outcome matches that expectation.
    """
    params.require_proper_rank()
    eps = Fraction(eps)
    w = witness_vector(params, t, eps)
    rr = params.yz_space.y(params.r, params.r)
    side_a = {v for v in _equal_join(params, range(bound // 2 + 1)) if v[rr] >= t}
    side_b = _shifted_points(params, w, bound)
    equal = side_a == side_b
    expected = t <= params.m - params.r
    first = None
    if not equal:
        v = min(side_a.symmetric_difference(side_b))
        first = {
            "vector": exponent_arrays(params, v),
            "side": "ideal-only" if v in side_a else "shifted-only",
        }
    return ConicCheckReport(
        params,
        t,
        eps,
        bound,
        len(side_a),
        len(side_b),
        equal,
        expected,
        first,
        exponent_arrays(params, w),
    )
