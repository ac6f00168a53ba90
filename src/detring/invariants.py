"""Extended initial algebras and ladder-shaped ideals.

Two follow-on constructions around the same substitution: the algebra
generated by the product-matrix entries together with the maximal minors of
the two factors (whose initial algebra drops exactly one coupling from the
cone description), and, when r equals min(m, n) so the substitution embeds
the full polynomial ring, the initial ideals of one-sided ladder ideals,
which turn out to be generated by an explicit set of variables.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement

from . import kernels
from .cone import _check_bound, _cone_layers, _cone_report, _pairs
from .errors import ParameterError
from .generic_point import (
    _check_image_degree,
    _det_keys,
    _diagonal_monomial,
    minor_polynomial,
    shared_substitution,
)
from .linalg import Eliminator
from .poly import Poly, format_monomial
from .tableaux import _Tails, _tilde_basis_count, all_minors, minor_leq


def generators_R_tilde(params, subst=None):
    """Generating polynomials of the extended algebra, on the y/z space.

    The m*n product-matrix entries, then the maximal minors of the left
    factor (rows choose r), then of the right factor (columns choose r).
    """
    if subst is None:
        subst = shared_substitution(params)
    yz, base = subst.yz_space, range(1, params.r + 1)
    units = yz.unit_keys
    gens = [subst.entry(i, j) for i in range(1, params.m + 1) for j in range(1, params.n + 1)]
    for rows in combinations(range(1, params.m + 1), params.r):
        gens.append(Poly._raw(yz, _det_keys([[units[yz.y(a, k)] for k in base] for a in rows])))
    for cols in combinations(range(1, params.n + 1), params.r):
        gens.append(Poly._raw(yz, _det_keys([[units[yz.z(k, b)] for b in cols] for k in base])))
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


def verify_D_tilde(params, bound=6):
    """Desk-scale verification of the extended initial algebra description.

    Checks that the generator polynomials lead with the predicted monomial
    families, that the Etilde semigroup matches the Etilde cone lattice up to
    the bound, that bigraded lattice counts match the standard-product basis
    counts, and that the cone differs from the E one by exactly the final
    coupling: over the degrees checked, the E signature pairs (``_pairs``)
    are the Etilde ones with equal alpha column and beta row sums.  The
    lattice is counted by bidegree in the cone comparison's join pass, each
    pair adding its alpha times its beta block count (``_join``).  A bound
    past ``cone.WORK_LIMIT`` points is refused before any is built.  Returns
    the JSON-ready payload, the cone comparison's nested under ``"cone"``.
    """
    bidegrees = Counter()
    layers = _cone_layers(params, "Etilde", bound, bidegrees)
    gens = generators_R_tilde(params)
    predicted = [kernels.pack(e) for e in _predicted_generator_leads(params)]
    leads_ok = len(gens) == len(predicted) and all(
        max(g.packed) == e and g.packed[e] == 1 for g, e in zip(gens, predicted)
    )
    cone = _cone_report(params, "Etilde", bound, layers)
    rows = [
        {"y_degree": d1, "z_degree": total - d1, "lattice": bidegrees[d1, total - d1],
         "basis": _tilde_basis_count(params, d1, total - d1)}
        for total in range(bound + 1)
        for d1 in range(total + 1)
    ]
    match = all(row["lattice"] == row["basis"] for row in rows)
    degrees = range(bound + 1)
    coupled = {(sa, sb) for sa, sb in _pairs("Etilde", params.r, degrees) if sa == sb}
    system_ok = set(_pairs("E", params.r, degrees)) == coupled
    return {
        "m": params.m,
        "n": params.n,
        "r": params.r,
        "degree_bound": bound,
        "cone": cone,
        "bidegree_counts": rows,
        "counts_match": match,
        "generator_leading_terms_ok": leads_ok,
        "system_difference_ok": system_ok,
        "ok": cone["ok"] and match and leads_ok and system_ok,
    }


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


def _x_independent(gammas, x_keys, d):
    """(y/z image of gamma, positions of x^a) for each product gamma * x^a of
    degree d whose x-side row (the x-side minor shifted by the key of x^a) is
    independent of the earlier ones; ``gammas`` holds (size, x minor, image)."""
    elim = Eliminator()
    for size, x_minor, image in gammas:
        if size > d:
            continue
        for positions in combinations_with_replacement(range(len(x_keys)), d - size):
            shift = sum(x_keys[p] for p in positions)
            if elim.reduce({key + shift: c for key, c in x_minor.items()}) is not None:
                yield image, positions


def verify_ladder(params, delta, d_max=3):
    """Compare the initial space of the ladder ideal with the variable ideal.

    Degree by degree: eliminate the spanned family {gamma * monomial : gamma
    a minor delta does not grow into} through the substitution, read off the
    surviving leading monomials, and compare with the standard chains' leads
    divisible by the predicted variable set, each summed from its factors'
    packed closed-form leads (as in ``cone._chain_layers``; a factor's size
    is at most the degree).  Returns the JSON-ready payload;
    its ``"prime_ok"`` is always true (an ideal generated by variables is
    prime, and the degree rows check that generation), so ``"ok"`` is that
    every degree row matches.

    Each product is first reduced on the x side, where its row has at most r!
    terms, and only the independent ones are substituted and reduced on the
    y/z side (``_x_independent``).  That is sound: at r = min(m, n) the
    substitution is injective, so a product is independent of the earlier
    ones on the x side exactly when its image is on the y/z side.  The kept
    images span the image of the whole family, and the pivots, the leading
    monomials of that span, are the same.
    """
    _require_full_rank(params)
    delta.check_bounds(params)
    _check_bound(d_max)
    _check_image_degree(d_max - 1)
    subst = shared_substitution(params)
    vset = ladder_variable_set(params, delta)
    yz = subst.yz_space
    minors = all_minors(params, d_max)
    gammas = [
        (g.size, minor_polynomial(g, params, "X").packed,
         minor_polynomial(g, params, "YZ", subst).packed)
        for g in minors if not minor_leq(delta, g)
    ]
    x_keys = subst.x_space.unit_keys
    memo = {(): {0: 1}}
    lead = {g: kernels.pack(_diagonal_monomial(yz, [(g.rows, g.cols)])) for g in minors}
    tails = _Tails(params.minor_table, lead.__getitem__, 0)
    rows = []
    mismatch = None
    for d in range(1, d_max + 1):
        elim = Eliminator()
        for image, positions in _x_independent(gammas, x_keys, d):
            x_image = subst._combination_image(memo, positions)
            elim.reduce(kernels.poly_mul(image, x_image, yz.key_limit))
        pivots = set(elim.pivots)
        # An empty set divides no lead, nor would leads of degree 2 * 128 pack.
        divisible = {key for batch in tails.batches(params.r, d) for key in batch
                     if any(map(yz.unpack(key).__getitem__, vset))} if vset else set()
        ok = pivots == divisible
        if not ok and mismatch is None:
            stray = min(pivots.symmetric_difference(divisible))
            mismatch = {
                "degree": d,
                "monomial": format_monomial(yz, yz.unpack(stray)),
                "side": "initial-space-only" if stray in pivots else "divisible-only",
            }
        rows.append({"degree": d, "initial_space_dim": len(pivots),
                     "divisible_count": len(divisible), "match": ok})
    return {
        "m": params.m,
        "n": params.n,
        "r": params.r,
        "delta": str(delta),
        "d_max": d_max,
        "variable_set": [yz.label(p) for p in vset],
        "degrees": rows,
        "prime_ok": True,
        "ok": all(row["match"] for row in rows),
        "first_mismatch": mismatch,
    }
