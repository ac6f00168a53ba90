"""The rank factorization substitution x[i,j] -> sum_k y[i,k]*z[k,j].

Polynomials on the x space are pushed through the substitution into the y/z
space; the kernel of that map is exactly the ideal of (r+1)-minors, which is
what makes membership and straightening computable.  The closed form gives the
leading monomial of the image of a standard bitableau without expanding
anything, and ``decode_standard`` inverts it.
"""

from __future__ import annotations

from itertools import permutations

from . import kernels
from .errors import NotInSemigroupError, NotStandardError, SpaceMismatchError
from .poly import Poly
from .tableaux import Bitableau, Minor, is_standard


class SubstitutionMap:
    """The images of the x variables on the y/z space, for one format."""

    def __init__(self, params):
        self.params = params
        self.x_space = params.x_space
        self.yz_space = params.yz_space
        yz = self.yz_space
        # By x rank position, which is row-major.
        self._images = []
        for i in range(1, params.m + 1):
            for j in range(1, params.n + 1):
                terms = []
                for k in range(1, params.r + 1):
                    e = [0] * yz.nvars
                    e[yz.y(i, k)] = 1
                    e[yz.z(k, j)] = 1
                    terms.append((e, 1))
                self._images.append(Poly(yz, terms))

    def entry(self, i, j):
        return self._images[self.x_space.x(i, j)]

    def monomial_image(self, exps):
        """Packed term dict of the image of the x-monomial with exponents ``exps``."""
        limit = self.yz_space.key_limit
        prod = {0: 1}
        for pos, e in enumerate(exps):
            for _ in range(e):
                prod = kernels.poly_mul(prod, self._images[pos].packed, limit)
        return prod


def phi(f, subst):
    """Image of an x-space polynomial under the substitution; exact."""
    if f.space != subst.x_space:
        raise SpaceMismatchError(f"polynomial on {f.space!r}, substitution for {subst.x_space!r}")
    out = {}
    unpack = f.space.unpack
    for key, coef in f.packed.items():
        kernels.poly_addmul(out, coef, subst.monomial_image(unpack(key)))
    return Poly._raw(subst.yz_space, out)


def _det_expand(matrix, space):
    """Exact determinant of a square matrix of polynomials, by permutations."""
    t = len(matrix)
    if t == 0:
        return Poly.constant(space, 1)
    limit = space.key_limit
    acc = {}
    for perm in permutations(range(t)):
        sign = 1
        seen = list(perm)
        for i in range(t):  # parity by counting inversions
            for j in range(i + 1, t):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = matrix[0][perm[0]].packed
        for i in range(1, t):
            prod = kernels.poly_mul(prod, matrix[i][perm[i]].packed, limit)
        kernels.poly_addmul(acc, sign, prod)
    return Poly._raw(space, acc)


def minor_polynomial(minor, params, side, subst=None):
    """The minor as a polynomial: on the x variables, or through the substitution."""
    minor.check_bounds(params)
    if side == "X":
        space = params.x_space
        matrix = [
            [Poly.variable(space, space.x(i, j)) for j in minor.cols] for i in minor.rows
        ]
        return _det_expand(matrix, space)
    if side == "YZ":
        if subst is None:
            subst = SubstitutionMap(params)
        matrix = [[subst.entry(i, j) for j in minor.cols] for i in minor.rows]
        return _det_expand(matrix, subst.yz_space)
    raise ValueError(f"side must be 'X' or 'YZ', got {side!r}")


def eval_bitableau(bitab, params, side, subst=None):
    """Product of the factor minors as a polynomial; empty product is 1."""
    bitab.check_bounds(params)
    if side == "YZ" and subst is None:
        subst = SubstitutionMap(params)
    space = subst.yz_space if side == "YZ" else params.x_space
    acc = Poly.constant(space, 1)
    for f in bitab.factors:
        acc = acc * minor_polynomial(f, params, side, subst)
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
    NotInSemigroupError when no standard preimage exists.
    """
    yz = params.yz_space
    if len(exps) != yz.nvars:
        raise SpaceMismatchError(
            f"exponent tuple of length {len(exps)} on a space with {yz.nvars} variables"
        )
    ycols = []
    for j in range(1, params.r + 1):
        col = []
        for i in range(1, params.m + 1):
            col.extend([i] * exps[yz.y(i, j)])
        ycols.append(col)
    zcols = []
    for u in range(1, params.r + 1):
        col = []
        for v in range(1, params.n + 1):
            col.extend([v] * exps[yz.z(u, v)])
        zcols.append(col)
    lengths = [len(c) for c in ycols]
    if lengths != [len(c) for c in zcols]:
        raise NotInSemigroupError("y and z column lengths disagree; no standard preimage")
    if any(lengths[j] < lengths[j + 1] for j in range(len(lengths) - 1)):
        raise NotInSemigroupError("column lengths increase; no standard preimage")
    depth = lengths[0] if lengths else 0
    factors = []
    for i in range(depth):
        width = 0
        while width < params.r and lengths[width] > i:
            width += 1
        rows = tuple(ycols[j][i] for j in range(width))
        cols = tuple(zcols[j][i] for j in range(width))
        if not all(rows[k] < rows[k + 1] and cols[k] < cols[k + 1] for k in range(width - 1)):
            raise NotInSemigroupError("repaired rows are not strictly increasing; no standard preimage")
        factors.append(Minor(rows, cols))
    bitab = Bitableau(tuple(factors))
    return bitab
