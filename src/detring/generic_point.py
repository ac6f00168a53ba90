"""The rank factorization substitution x[i,j] -> sum_k y[i,k]*z[k,j].

Polynomials on the x space are pushed through the substitution into the y/z
space; the kernel of that map is exactly the ideal of (r+1)-minors, which is
what makes membership and straightening computable.  The closed form gives the
leading monomial of the image of a standard bitableau without expanding
anything, and ``decode_standard`` inverts it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count, permutations
from operator import getitem

from . import kernels
from .errors import NotInSemigroupError, NotStandardError, SpaceMismatchError
from .linalg import clear_denominators
from .poly import Poly
from .tableaux import Minor, Parameters, _raw_bitableau, _strictly_increasing, is_standard


class SubstitutionMap:
    """The images of the x variables on the y/z space, for one format, and
    what straightening reuses in that format: the x images' terms, largest
    key first, by x rank position (``x_images``), the positions of each
    tableau column's variables and the format's minors, both read by
    ``decode_standard``, and each minor's image terms, largest key first,
    filled by ``straighten`` when first read.

    ``chart`` holds the images on the open chart Y = [I_r; A] instead, in
    the same form: x[i,j] -> z[i,j] for i <= r, and below row r the lists of
    ``x_images``.  Every matrix of rank <= r whose first r rows are
    independent is [Z; AZ], a dense open part of the irreducible rank <= r
    locus, so an x-polynomial vanishes on the chart exactly when it lies in
    the prime ideal of (r+1)-minors (Bruns-Vetter, LNM 1327, sec. 2).
    ``is_in_ideal`` decides membership there; it does not give the initial
    monomials that straightening reads, which need the full images."""

    def __init__(self, params):
        self.params = params
        self.x_space = params.x_space
        self.yz_space = yz = params.yz_space
        units, ranks = yz.unit_keys, range(1, params.r + 1)
        rows, cols = range(1, params.m + 1), range(1, params.n + 1)
        # By x rank position, which is row-major.
        self._images = [
            Poly._raw(yz, {units[yz.y(i, k)] + units[yz.z(k, j)]: 1 for k in ranks})
            for i in rows for j in cols
        ]
        self.x_images = [sorted(image.packed.items(), reverse=True) for image in self._images]
        self.chart = [[(units[yz.z(i, j)], 1)] for i in ranks for j in cols] + self.x_images[
            params.r * params.n:]
        # The y positions of column j of the left tableau by row index, then
        # the z positions of column j of the right one by column index.
        self.columns = [[yz.y(i, j) for i in rows] for j in ranks] + [
            [yz.z(j, v) for v in cols] for j in ranks]
        self.minors = {}  # (rows, cols) -> the format's one Minor
        self.minor_images = {}  # Minor -> its image's (key, coefficient) pairs, largest first

    def entry(self, i, j):
        return self._images[self.x_space.x(i, j)]

    def _combination_image(self, memo, positions):
        """Packed image of the x-monomial prod x[p] over ``positions``, rank
        positions in the nondecreasing order ``combinations_with_replacement``
        yields: the image of positions[:-1], from ``memo`` or built the same
        way, times one x image.  ``memo`` maps such tuples to images and starts
        as {(): {0: 1}}; the caller owns it."""
        image = memo.get(positions)
        if image is None:
            prefix = self._combination_image(memo, positions[:-1])
            last = self._images[positions[-1]].packed
            image = memo[positions] = kernels.poly_mul(prefix, last, self.yz_space.key_limit)
        return image


# The formats whose maps ``shared_substitution`` keeps, least recently used
# first out.  A map holds the image of each minor straightened in its format:
# at (5,5,4) about 0.2 MB after the four pinned degree-6 benchmark
# straightenings, and 4.4 MB (31,300 terms) once all 250 minors are met.
FORMATS = 8


def shared_substitution(params):
    """The format's one ``SubstitutionMap``, shared by every caller, so its
    per-format state is built once per process."""
    return _shared_map(params.m, params.n, params.r)


@lru_cache(maxsize=FORMATS)
def _shared_map(m, n, r):
    """Keyed by the format's numbers, not the caller's ``Parameters``, so the
    cache keeps nothing a caller cached on theirs."""
    return SubstitutionMap(Parameters(m, n, r))


def _check_image_degree(degree):
    """Refuse x-polynomials of this degree when their images, of twice the
    degree, would pass the packed limit, with the message ``kernels.poly_mul``
    gives on the first product past it.  Checked before expanding, so an image
    that would cancel is refused too."""
    if 2 * degree > kernels.MAX_DEGREE:
        raise kernels._too_big(kernels.MAX_DEGREE + 1)


def _check_operand(f, subst):
    """Refuse an x-polynomial the map cannot take: one on a foreign space,
    then one whose image would pass the packed limit."""
    if f.space != subst.x_space:
        raise SpaceMismatchError(f"polynomial on {f.space!r}, substitution for {subst.x_space!r}")
    _check_image_degree(f.degree())


def _positions(exps):
    """The rank positions of a monomial's variables, each once per unit of
    its exponent, in increasing order."""
    return tuple([p for p in compress(count(), exps) for _ in range(exps[p])])


def phi(f, subst):
    """Image of an x-space polynomial under the substitution; exact.

    Each term is the product of its variables' images (``_image_above`` at
    floor 0, which cuts nothing).
    """
    _check_operand(f, subst)
    # Over Z: Fractions would be carried through every product.
    # ``straighten`` and ``is_in_ideal`` pass f already scaled to integers.
    scale, scaled = 1, f.packed
    if any(type(c) is not int for c in scaled.values()):
        scale, scaled = clear_denominators(scaled)
    unpack = f.space.unpack
    out = _image_above([(_positions(unpack(key)), c) for key, c in scaled.items()], subst.x_images, 0)
    if scale > 1:
        out = {key: Fraction(c, scale) for key, c in out.items()}
    return Poly._raw(subst.yz_space, out)


def _image_above(terms, images, floor):
    """The terms at or above ``floor`` of the sum of c * prod images[p] over
    ``terms``, (positions, c) pairs, as a new term dict; ``images`` holds
    (key, coefficient) lists, largest key first, by x rank position."""
    out = {}
    for positions, c in terms:
        _addmul_above(out, c, [images[p] for p in positions], floor)
    return out


_ONE = ((0, 1),)


def _addmul_above(rest, scale, factors, floor):
    """In place: rest += scale times the terms at or above ``floor`` of the
    product of ``factors``, lists of (key, coefficient) pairs largest key
    first; no factors is the product 1.  A partial product is cut at the
    floor less the largest keys of the factors still to come, as no later
    factor can lift a term by more, and the last factor's products go
    straight into rest.  Floor 0 cuts nothing.  The caller bounds the
    product's degree."""
    *head, last = factors or (_ONE,)
    top = sum([terms[0][0] for terms in factors])
    acc = {0: 1}
    for terms in head:
        top -= terms[0][0]
        acc = kernels.poly_addmul_above({}, 1, acc, terms, floor - top)
    kernels.poly_addmul_above(rest, scale, acc, last, floor)


def _signed_permutations(t):
    """(permutation of range(t), its sign) pairs, in ``permutations`` order."""
    out = []
    for perm in permutations(range(t)):
        sign = 1
        for i in range(t):  # parity by counting inversions
            for j in range(i + 1, t):
                if perm[i] > perm[j]:
                    sign = -sign
        out.append((perm, sign))
    return out


def _det_keys(keys, perms=None):
    """Packed determinant of a square matrix of distinct variables' keys: one
    term {sum_i keys[i][p(i)]: sign(p)} per (p, sign) in ``perms``, built for
    len(keys) when not given; no two share a monomial."""
    if perms is None:
        perms = _signed_permutations(len(keys))
    return {sum(map(getitem, keys, p)): s for p, s in perms}


def _cauchy_binet(minor, yz):
    """Packed image of the minor [R|C] through the substitution: the sum over
    r-column sets K of det Y[R,K] * det Z[K,C] (Cauchy-Binet).  A term's
    y-part names K and the permutation of its Y factor, its z-part those of
    its Z factor, so no two products share a monomial: no term cancels."""
    units, t = yz.unit_keys, minor.size
    perms = _signed_permutations(t)
    out = {}
    for ks in combinations(range(1, yz.r + 1), t):
        y_terms = _det_keys([[units[yz.y(a, k)] for k in ks] for a in minor.rows], perms)
        z_terms = _det_keys([[units[yz.z(k, b)] for b in minor.cols] for k in ks], perms).items()
        for ky, sy in y_terms.items():
            for kz, sz in z_terms:
                out[ky + kz] = sy * sz
    return out


def minor_polynomial(minor, params, side):
    """The minor as a polynomial: on the x variables ("X"), or its image
    through the format's substitution ("YZ"), by Cauchy-Binet on
    ``params.yz_space``, the space of ``shared_substitution(params)``."""
    minor.check_bounds(params)
    if side == "X":
        space = params.x_space
        units = space.unit_keys
        keys = [[units[space.x(i, j)] for j in minor.cols] for i in minor.rows]
        return Poly._raw(space, _det_keys(keys))
    if side == "YZ":
        return Poly._raw(params.yz_space, _cauchy_binet(minor, params.yz_space))
    raise ValueError(f"side must be 'X' or 'YZ', got {side!r}")


def eval_bitableau(bitab, params, side):
    """Product of the factor minors as a polynomial; empty product is 1."""
    bitab.check_bounds(params)
    acc = Poly.constant(params.yz_space if side == "YZ" else params.x_space, 1)
    for f in bitab.factors:
        acc = acc * minor_polynomial(f, params, side)
    return acc


def initial_monomial_closed_form(bitab, params):
    """Leading monomial of the substituted bitableau, read off the tableau.

    Factor [a1..at|b1..bt] contributes y[a_j, j] * z[j, b_j] for each column
    position j.  Requires a standard bitableau with factor sizes at most r.
    """
    bitab.check_bounds(params)
    if not is_standard(bitab):
        raise NotStandardError(f"{bitab} is not standard")
    if bitab.factors and bitab.factors[0].size > params.r:
        raise NotStandardError(
            f"{bitab} has a factor of size {bitab.factors[0].size} > r = {params.r}"
        )
    return _diagonal_monomial(params.yz_space, [(f.rows, f.cols) for f in bitab.factors])


def _diagonal_monomial(yz, pairs):
    """Exponents of the product, over (rows, cols) in ``pairs``, of
    prod_j y[rows_j, j] * prod_j z[j, cols_j]; an empty tuple leaves out its half."""
    e = [0] * yz.nvars
    for rows, cols in pairs:
        for j, a in enumerate(rows, start=1):
            e[yz.y(a, j)] += 1
        for j, b in enumerate(cols, start=1):
            e[yz.z(j, b)] += 1
    return tuple(e)


def decode_standard(exps, params):
    """The unique standard bitableau whose closed-form monomial is ``exps``.

    Reads the y exponents of column j as the j-th column of the left tableau
    (sorted, with multiplicity) and symmetrically for z; repairs rows.  Raises
    NotInSemigroupError when no standard preimage exists.  The factors are
    the minors of the format's shared map, each checked when first decoded.
    """
    subst = shared_substitution(params)
    yz = subst.yz_space
    if len(exps) != yz.nvars:
        raise SpaceMismatchError(
            f"exponent tuple of length {len(exps)} on a space with {yz.nvars} variables"
        )
    low = min(exps, default=0)
    if low < 0:
        raise NotInSemigroupError(
            f"exponent {low} of {yz.label(exps.index(low))} is negative; no standard preimage"
        )
    columns = []  # y columns, then z columns: each index once per unit of its exponent
    for positions in subst.columns:
        col = []
        for a, p in enumerate(positions, start=1):
            if exps[p]:
                col += [a] * exps[p]
        columns.append(col)
    r = params.r
    ycols, zcols = columns[:r], columns[r:]
    lengths = [len(c) for c in ycols]
    if lengths != [len(c) for c in zcols]:
        raise NotInSemigroupError("y and z column lengths disagree; no standard preimage")
    if any(lengths[j] < lengths[j + 1] for j in range(len(lengths) - 1)):
        raise NotInSemigroupError("column lengths increase; no standard preimage")
    depth = lengths[0] if lengths else 0
    minors, factors = subst.minors, []
    for i in range(depth):
        width = 0
        while width < r and lengths[width] > i:
            width += 1
        key = tuple([ycols[j][i] for j in range(width)]), tuple([zcols[j][i] for j in range(width)])
        d = minors.get(key)
        if d is None:
            rows, cols = key
            if not (_strictly_increasing(rows) and _strictly_increasing(cols)):
                raise NotInSemigroupError("repaired rows are not strictly increasing; no standard preimage")
            d = minors[key] = Minor(rows, cols)
        factors.append(d)
    # Widths never grow down the rows: the column lengths do not increase.
    return _raw_bitableau(tuple(factors))
