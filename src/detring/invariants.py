"""Extended initial algebras and ladder-shaped ideals.

Two follow-on constructions around the same substitution: the algebra
generated by the product-matrix entries together with the maximal minors of
the two factors (whose initial algebra drops exactly one coupling from the
cone description), and, when r equals min(m, n) so the substitution embeds
the full polynomial ring, the initial ideals of one-sided ladder ideals,
which turn out to be generated by an explicit set of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import kernels
from .cone import (
    _semigroup_report,
    build_system,
    generators_semigroup,
    lattice_points,
    semigroup_points,
)
from .counting import _chain_ends, _monomials_of_degree
from .errors import ParameterError
from .generic_point import (
    SubstitutionMap,
    _det_expand,
    _diagonal_monomial,
    initial_monomial_closed_form,
    minor_polynomial,
)
from .linalg import Eliminator
from .poly import Poly, format_monomial
from .tableaux import all_minors, enumerate_standard, minor_leq


def _y_minor(params, rows, subst):
    yz = subst.yz_space
    matrix = [[Poly.variable(yz, yz.y(a, k)) for k in range(1, params.r + 1)] for a in rows]
    return _det_expand(matrix, yz)


def _z_minor(params, cols, subst):
    yz = subst.yz_space
    matrix = [[Poly.variable(yz, yz.z(k, b)) for b in cols] for k in range(1, params.r + 1)]
    return _det_expand(matrix, yz)


def generators_R_tilde(params, subst=None):
    """Generating polynomials of the extended algebra, on the y/z space.

    The m*n product-matrix entries, then the maximal minors of the left
    factor (rows choose r), then of the right factor (columns choose r).
    """
    if subst is None:
        subst = SubstitutionMap(params)
    gens = []
    for i in range(1, params.m + 1):
        for j in range(1, params.n + 1):
            gens.append(subst.entry(i, j))
    for rows in combinations(range(1, params.m + 1), params.r):
        gens.append(_y_minor(params, rows, subst))
    for cols in combinations(range(1, params.n + 1), params.r):
        gens.append(_z_minor(params, cols, subst))
    return gens


def _predicted_generator_leads(params):
    """Leading monomials the generator families must produce.

    Entry (i, j) leads with y[i,1]*z[1,j]; a maximal minor of either factor
    leads with its main diagonal product.
    """
    yz = params.yz_space
    m, n, r = params.m, params.n, params.r
    leads = [
        _diagonal_monomial(yz, [((i,), (j,))]) for i in range(1, m + 1) for j in range(1, n + 1)
    ]
    leads += [_diagonal_monomial(yz, [(rows, ())]) for rows in combinations(range(1, m + 1), r)]
    leads += [_diagonal_monomial(yz, [((), cols)]) for cols in combinations(range(1, n + 1), r)]
    return leads


def _tilde_basis_count(params, d1, d2):
    """Standard products of maximal factor minors with a standard bitableau.

    Bidegree (d1, d2) forces the number of pure factors: (d1-d2)/r maximal
    left-factor minors when d1 >= d2 (mirror otherwise); the chain of pure
    factors must grow into the first factor of the mixed part.
    """
    r = params.r
    if (d1 - d2) % r != 0:
        return 0
    if d1 >= d2:
        length, universe, degree, side = (d1 - d2) // r, params.m, d2, "rows"
    else:
        length, universe, degree, side = (d2 - d1) // r, params.n, d1, "cols"
    basis = enumerate_standard(params, degree)
    if length == 0:
        return len(basis)
    ends = _chain_ends(universe, r, length)
    total = 0
    for bitab in basis:
        if not bitab.factors:
            total += sum(ends.values())
            continue
        bound = getattr(bitab.factors[0], side)
        k = min(len(bound), r)
        total += sum(c for s, c in ends.items() if all(s[i] <= bound[i] for i in range(k)))
    return total


def tilde_system_matches(params):
    """The Etilde cone description is the E one minus exactly the last coupling."""
    e = build_system(params, "E")
    te = build_system(params, "Etilde")
    return (
        te.zero_positions == e.zero_positions
        and te.alpha_inequalities == e.alpha_inequalities
        and te.beta_inequalities == e.beta_inequalities
        and te.nonneg_positions == e.nonneg_positions
        and te.couplings == e.couplings[:-1]
    )


@dataclass(frozen=True)
class TildeReport:
    params: object
    bound: int
    cone_report: object
    bidegree_counts: tuple  # ((d1, d2, lattice, basis), ...)
    counts_match: bool
    generator_leads_ok: bool
    system_difference_ok: bool

    @property
    def ok(self):
        return (
            self.cone_report.ok
            and self.counts_match
            and self.generator_leads_ok
            and self.system_difference_ok
        )

    def to_dict(self):
        p = self.params
        return {
            "m": p.m,
            "n": p.n,
            "r": p.r,
            "degree_bound": self.bound,
            "cone": self.cone_report.to_dict(),
            "bidegree_counts": [
                {"y_degree": d1, "z_degree": d2, "lattice": a, "basis": b}
                for d1, d2, a, b in self.bidegree_counts
            ],
            "counts_match": self.counts_match,
            "generator_leading_terms_ok": self.generator_leads_ok,
            "system_difference_ok": self.system_difference_ok,
            "ok": self.ok,
        }


def verify_D_tilde(params, bound=6):
    """Desk-scale verification of the extended initial algebra description.

    Checks that the generator polynomials lead with the predicted monomial
    families, that the Etilde semigroup matches the Etilde cone lattice up to
    the bound, that bigraded lattice counts match the standard-product basis
    counts, and that the cone description differs from the full one by
    exactly the final coupling.
    """
    subst = SubstitutionMap(params)
    gens = generators_R_tilde(params, subst)
    predicted = _predicted_generator_leads(params)
    leads_ok = len(gens) == len(predicted) and all(
        g.leading() == (e, 1) for g, e in zip(gens, predicted)
    )
    sg = semigroup_points(generators_semigroup(params, "Etilde"), bound)
    points = set(lattice_points(params, "Etilde", bound=bound))
    cone_report = _semigroup_report(params, "Etilde", bound, sg, points)
    yz = subst.yz_space
    by_bidegree = {}
    for v in points:
        by_bidegree[yz.bidegree(v)] = by_bidegree.get(yz.bidegree(v), 0) + 1
    rows = []
    match = True
    for total in range(bound + 1):
        for d1 in range(total + 1):
            d2 = total - d1
            lat = by_bidegree.get((d1, d2), 0)
            basis = _tilde_basis_count(params, d1, d2)
            rows.append((d1, d2, lat, basis))
            if lat != basis:
                match = False
    return TildeReport(
        params,
        bound,
        cone_report,
        tuple(rows),
        match,
        leads_ok,
        tilde_system_matches(params),
    )


def _require_full_rank(params):
    if params.r != min(params.m, params.n):
        raise ParameterError(
            f"ladder computations require r = min(m, n); got r={params.r}, "
            f"m={params.m}, n={params.n}"
        )


def ladder_variable_set(params, delta):
    """Variables generating the initial ideal of the ladder ideal at delta.

    For delta = [a1..at|b1..bt]: every y[c,i] with i <= c < a_i, every z[i,d]
    with i <= d < b_i, and, when t < r, the whole (t+1)-st y column.  The
    lower bounds c, d >= i discard variables that no semigroup monomial
    contains (column i of a left tableau never holds an entry below i), which
    leaves the generated monomial ideal unchanged.  Returns sorted rank
    positions on the y/z space.
    """
    _require_full_rank(params)
    delta.check_bounds(params)
    yz = params.yz_space
    t = delta.size
    out = set()
    for i, (a, b) in enumerate(zip(delta.rows, delta.cols), start=1):
        for c in range(i, a):
            out.add(yz.y(c, i))
        for d in range(i, b):
            out.add(yz.z(i, d))
    if t < params.r:
        for c in range(1, params.m + 1):
            out.add(yz.y(c, t + 1))
    return tuple(sorted(out))


@dataclass(frozen=True)
class LadderReport:
    params: object
    delta: object
    d_max: int
    variable_set: tuple  # variable labels
    degree_rows: tuple  # ((degree, ideal_dim, divisible_count, match), ...)
    prime_ok: bool
    first_mismatch: object

    @property
    def ok(self):
        return self.prime_ok and all(row[3] for row in self.degree_rows)

    def to_dict(self):
        p = self.params
        return {
            "m": p.m,
            "n": p.n,
            "r": p.r,
            "delta": str(self.delta),
            "d_max": self.d_max,
            "variable_set": list(self.variable_set),
            "degrees": [
                {
                    "degree": d,
                    "initial_space_dim": a,
                    "divisible_count": b,
                    "match": ok,
                }
                for d, a, b, ok in self.degree_rows
            ],
            "prime_ok": self.prime_ok,
            "ok": self.ok,
            "first_mismatch": self.first_mismatch,
        }


def verify_ladder(params, delta, d_max=3):
    """Compare the initial space of the ladder ideal with the variable ideal.

    Degree by degree: eliminate the spanned family {gamma * monomial : gamma
    a minor delta does not grow into} through the substitution, read off the
    surviving leading monomials, and compare with the closed-form monomials
    divisible by the predicted variable set.  Also checks the prime property
    of divisibility on products of small closed-form monomials.
    """
    _require_full_rank(params)
    delta.check_bounds(params)
    subst = SubstitutionMap(params)
    vset = ladder_variable_set(params, delta)
    vpos = set(vset)
    yz = subst.yz_space
    gammas = [g for g in all_minors(params) if not minor_leq(delta, g)]
    gamma_images = [(g.size, minor_polynomial(g, params, "YZ", subst).packed) for g in gammas]
    nx = subst.x_space.nvars
    x_images = [
        [subst.monomial_image(exps) for exps in _monomials_of_degree(nx, k)]
        for k in range(d_max)
    ]
    rows = []
    mismatch = None
    for d in range(1, d_max + 1):
        elim = Eliminator()
        for size, image in gamma_images:
            if size > d:
                continue
            for x_image in x_images[d - size]:
                elim.reduce(kernels.poly_mul(image, x_image, yz.key_limit))
        pivots = set(elim.pivots)
        divisible = set()
        for bitab in enumerate_standard(params, d):
            mono = initial_monomial_closed_form(bitab, params)
            if any(mono[p] for p in vpos):
                divisible.add(kernels.pack(mono))
        ok = pivots == divisible
        if not ok and mismatch is None:
            stray = min(pivots.symmetric_difference(divisible))
            mismatch = {
                "degree": d,
                "monomial": format_monomial(yz, yz.unpack(stray)),
                "side": "initial-space-only" if stray in pivots else "divisible-only",
            }
        rows.append((d, len(pivots), len(divisible), ok))
    prime_ok = True
    small = []
    for d in range(0, d_max // 2 + 1):
        for bitab in enumerate_standard(params, d):
            small.append(initial_monomial_closed_form(bitab, params))
    for a in small:
        for b in small:
            prod_touches = any(a[p] or b[p] for p in vpos)
            either = any(a[p] for p in vpos) or any(b[p] for p in vpos)
            if prod_touches != either:
                prime_ok = False
    labels = tuple(yz.label(p) for p in vset)
    return LadderReport(params, delta, d_max, labels, tuple(rows), prime_ok, mismatch)
