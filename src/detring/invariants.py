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
from itertools import combinations, combinations_with_replacement, groupby
from operator import itemgetter

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
from .tableaux import (
    _hilbert_formula,
    _refusal,
    _semistandard_count,
    _Tails,
    _tilde_basis_count,
    all_minors,
    minor_leq,
)


def generators_R_tilde(params):
    """Generating polynomials of the extended algebra, on the y/z space.

    The m*n product-matrix entries (``shared_substitution(params)``'s
    images), then the maximal minors of the left factor (rows choose r),
    then of the right factor (columns choose r).
    """
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
    lattice is counted by bidegree by hook-content, each pair (sa, sb) adding
    s_sa(1^m) * s_sb(1^n), its alpha times its beta block count, after the
    cone comparison has checked the bound and before it walks.  A bound
    past ``cone.WORK_LIMIT`` points is refused before any is built.  Returns
    the JSON-ready payload, the cone comparison's nested under ``"cone"``.
    Its ``"system_difference_ok"`` holds by construction: ``_pairs`` yields
    the E pairs from the loop that yields the Etilde ones, keeping exactly
    those with c = 0, which are the Etilde pairs with sa = sb.  The key stays
    for the payload bytes; it is no check.
    """
    layers = _cone_layers(params, "Etilde", bound)
    degrees = range(bound + 1)
    tilde = list(_pairs("Etilde", params.r, degrees))
    bidegrees = Counter()
    for sa, sb in tilde:
        bidegrees[sum(sa), sum(sb)] += (_semistandard_count(sa, params.m)
                                        * _semistandard_count(sb, params.n))
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
    coupled = {(sa, sb) for sa, sb in tilde if sa == sb}
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


def _content_key(rows, cols, m):
    """The content of an x-monomial with these rows and columns, its degree
    in each row and in each column, as one int with a byte per row and per
    column, so contents add as the ints do (a degree is at most 128)."""
    return sum([1 << 8 * (i - 1) for i in rows]) + sum([1 << 8 * (m + j - 1) for j in cols])


def _x_independent(gammas, x_keys, d):
    """(y/z image of gamma, positions of x^a, content) for each product
    gamma * x^a of degree d whose x-side row (the x-side minor shifted by the
    key of x^a) is independent of the earlier ones, one content after another.
    ``gammas`` holds (size, content, x minor, image), ``x_keys`` (packed key,
    content) per x variable.  Rows of different contents share no monomial,
    so each content is reduced by its own ``Eliminator``, dropped when it is
    done."""
    monomials, groups = {}, {}  # x^a by degree, as (positions, key, content)
    for size, content, x_minor, image in gammas:
        if size > d:
            continue
        if d - size not in monomials:
            monomials[d - size] = [
                (ps, sum([x_keys[p][0] for p in ps]), sum([x_keys[p][1] for p in ps]))
                for ps in combinations_with_replacement(range(len(x_keys)), d - size)]
        for positions, shift, x_content in monomials[d - size]:
            groups.setdefault(content + x_content, []).append((x_minor, image, positions, shift))
    for content, products in groups.items():
        elim = Eliminator()
        for x_minor, image, positions, shift in products:
            if elim.reduce({key + shift: c for key, c in x_minor.items()}) is not None:
                yield image, positions, content


# The most standard chains ``verify_ladder`` walks, each with its share of
# the elimination, about 0.15-0.25 ms a chain: 2x2 r2 [2|2] b15 predicts
# 3,875 (0.95 s in a child process), 4x4 r4 [2|2] b4 4,844 (1.2 s), 3x3 r3
# b8 24,309.  The largest test or benchmark query predicts 714 (3x3 r3 b4).
LADDER_LIMIT = 4_000


def _check_chains(params, d_max):
    """Refuse past ``LADDER_LIMIT`` chains, H(1) + ... + H(d_max) by
    ``_hilbert_formula``, summed only until the limit is passed."""
    total = 0
    for d in range(1, d_max + 1):
        total += _hilbert_formula(params, d)
        if total > LADDER_LIMIT:
            raise _refusal(params, f"degree bound {d_max} would walk more than {LADDER_LIMIT} "
                           "standard chains", "bound")


def verify_ladder(params, delta, d_max=3):
    """Compare the initial space of the ladder ideal with the variable ideal.

    Degree by degree: eliminate the spanned family {gamma * monomial : gamma
    a minor delta does not grow into} through the substitution, read off the
    surviving leading monomials, and compare with the standard chains' leads
    divisible by the predicted variable set, each summed from its factors'
    packed closed-form leads (as in ``cone._chain_layers``; a factor's size
    is at most the degree).  Past ``LADDER_LIMIT`` chains, predicted after
    the packed-limit check, it refuses.  Returns the JSON-ready payload;
    its ``"prime_ok"`` holds by construction (an ideal generated by
    variables is prime, and the degree rows check that generation) and stays
    for the payload bytes, so ``"ok"`` is that every degree row matches.

    Each product is first reduced on the x side, where its row has at most r!
    terms, and only the independent ones are substituted and reduced on the
    y/z side (``_x_independent``).  That is sound: at r = min(m, n) the
    substitution is injective, so a product is independent of the earlier
    ones on the x side exactly when its image is on the y/z side.  The kept
    images span the image of the whole family, and the pivots, the leading
    monomials of that span, are the same.  Both sides eliminate one content
    (x-degree per row and per column) at a time: the substitution keeps both,
    so images of different contents share no monomial, and only one content's
    rows are held at once.
    """
    _require_full_rank(params)
    delta.check_bounds(params)
    _check_bound(d_max)
    _check_image_degree(d_max - 1)
    _check_chains(params, d_max)
    subst = shared_substitution(params)
    vset = ladder_variable_set(params, delta)
    yz = subst.yz_space
    minors = all_minors(params, d_max)
    gammas = [
        (g.size, _content_key(g.rows, g.cols, params.m), minor_polynomial(g, params, "X").packed,
         minor_polynomial(g, params, "YZ").packed)
        for g in minors if not minor_leq(delta, g)
    ]
    xs = subst.x_space
    x_keys = [(key, _content_key((i,), (j,), params.m))
              for key, (_, i, j) in zip(xs.unit_keys, xs._keys)]
    memo = {(): {0: 1}}
    lead = {g: kernels.pack(_diagonal_monomial(yz, [(g.rows, g.cols)])) for g in minors}
    tails = _Tails(params.minor_table, lead.__getitem__, 0)
    rows = []
    mismatch = None
    for d in range(1, d_max + 1):
        pivots = set()
        for _, products in groupby(_x_independent(gammas, x_keys, d), itemgetter(2)):
            elim = Eliminator()
            for image, positions, _ in products:
                x_image = subst._combination_image(memo, positions)
                elim.reduce(kernels.poly_mul(image, x_image, yz.key_limit))
            pivots.update(elim.pivots)
        # An empty set divides no lead, nor would leads of degree 2 * 128 pack.
        divisible = {key for batch in tails.batches(params.r, d)
                     for head, leads in batch for key in map(head.__add__, leads)
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
