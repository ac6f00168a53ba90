"""Rewriting substituted polynomials as combinations of standard bitableaux.

The loop peels the leading monomial, decodes it to the unique standard
bitableau with that closed form, and subtracts the bitableau's substituted
image (which is monic with exactly that leading monomial).  The leading
monomial strictly drops each round, so the loop terminates; what remains at
zero is the standard expansion.  Polynomials in the kernel of the substitution
straighten to the empty combination.

The loop runs inside a window.  The substitution x[i,j] -> sum_k y[i,k]*z[k,j]
keeps a term's row content (how many of its variables lie in each row) as the
y-part's and its column content as the z-part's, and so does the image of a
bitableau with the bitableau's own contents.  So every peeled lead is the
closed-form lead of a standard bitableau with the contents of one of f's terms,
a candidate, and none lies below the floor, the least candidate lead.  Dropping
the terms below the floor from phi(f) and from every image is exact: the
packed order is additive, a truncated sum is the sum of the truncations, and
the truncated remainder has the full one's lead as long as that lead is at or
above the floor, which it always is.  So phi(f) is never formed in full: each
term of f, like each bitableau image, is a product of factor images (x
images, minor images) cut factor by factor at the floor less the largest keys
of the factors still to come, and its last factor is multiplied straight into
the remainder (``generic_point._addmul_above``, the one cut product, which
``phi`` and ``is_in_ideal`` run at floor 0).  The floor comes from one small
dynamic program per side and content (``_floor``), and every decoded
bitableau's contents are checked against f's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from operator import add, le, mul, sub

from . import kernels
from .cone import _fills
from .errors import InternalCheckError, NotInSemigroupError
from .generic_point import (
    _addmul_above,
    _check_image_degree,
    _check_operand,
    _image_above,
    _positions,
    decode_standard,
    eval_bitableau,
    minor_polynomial,
    shared_substitution,
)
from .linalg import clear_denominators
from .poly import Poly, format_coefficient
from .tableaux import _Frozen


class StandardCombination(_Frozen):
    """Coefficients and standard bitableaux, largest leading monomial first."""

    _fields = ("params", "terms")  # terms: ((coefficient, Bitableau), ...)

    def __init__(self, params, terms):
        self._set(params, terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def is_zero(self):
        return not self.terms

    def evaluate(self, side, subst=None):
        """Reassemble the combination as a polynomial on the chosen side, on
        the spaces of ``subst`` when a map of this format is given."""
        spaces = self.params if subst is None else subst
        acc = Poly.zero(spaces.x_space if side == "X" else spaces.yz_space)
        for coef, bitab in self.terms:
            acc = acc + coef * eval_bitableau(bitab, self.params, side)
        return acc

    def as_pairs(self):
        """JSON-ready list of (coefficient string, bitableau string) pairs."""
        return [
            {"coeff": format_coefficient(c), "bitableau": str(b)} for c, b in self.terms
        ]


def straighten(f, params):
    """Standard expansion of an x-space polynomial modulo the kernel.

    Returns a StandardCombination; iteration count per homogeneous component
    is bounded by the number of standard bitableaux of that degree.  The
    substituted standard bitableaux are monic with integer coefficients, so
    the loop runs over Z on f times the lcm of its denominators, and the
    coefficients are divided by that scale at the end.  Only the terms at or
    above the floor of f's contents are ever formed (see the module
    docstring).  The images come from the format's one map,
    ``shared_substitution(params)``.
    """
    subst = shared_substitution(params)
    _check_operand(f, subst)
    scale, scaled = clear_denominators(f.packed)
    contents = _contents(f.space, scaled)
    # Every image term of an x-monomial of degree k has y-degree k and total
    # degree 2k, and the packed order compares total degree first: the leads
    # come component by component, highest degree first, and each subtracted
    # image stays in its own component.
    rest = {}
    if contents:
        floor = _floor(contents, subst.yz_space)
        rest = _image_above(chain.from_iterable(contents.values()), subst.x_images, floor)
    result = []
    while rest:
        lead = kernels.leading_monomial(rest)
        lam = rest[lead]
        try:
            bitab = decode_standard(subst.yz_space.unpack(lead), params)
        except NotInSemigroupError as exc:
            raise InternalCheckError(
                f"leading monomial of a substituted polynomial failed to decode: {exc}"
            ) from exc
        if _content(bitab, params) not in contents:
            raise InternalCheckError(f"{bitab} has a content no term of the polynomial has")
        _addmul_above(rest, -lam, _factor_images(bitab, params, subst), floor)
        if lead in rest:
            raise InternalCheckError("leading term failed to cancel during straightening")
        result.append((Fraction(lam, scale), bitab))
    return StandardCombination(params, tuple(result))


def _contents(space, terms):
    """An x-space term dict grouped by content: (row content, column content),
    how many of a term's variables lie in each row and in each column, -> the
    terms with it, as ``_image_above`` terms: (rank positions, coefficient)."""
    m, n = space.m, space.n
    out = {}
    for key, c in terms.items():
        e = space.unpack(key)  # row-major
        content = (tuple([sum(e[i * n:i * n + n]) for i in range(m)]),
                   tuple([sum(e[j::n]) for j in range(n)]))
        out.setdefault(content, []).append((_positions(e), c))
    return out


def _content(bitab, params):
    """The (row content, column content) of a bitableau: how often each row
    and each column index occurs among its factors."""
    rows, cols = [0] * params.m, [0] * params.n
    for d in bitab.factors:
        for a in d.rows:
            rows[a - 1] += 1
        for b in d.cols:
            cols[b - 1] += 1
    return tuple(rows), tuple(cols)


def _floor(contents, yz):
    """The least closed-form lead of a standard bitableau with one of the
    contents, as a packed key.

    The lead is a y-part read off the factors' rows plus a z-part read off
    their columns, and the rows and the columns are standard on their own
    given the shape, so per content it is the least over shapes of the least
    y-part plus the least z-part (``_least_keys``)."""
    units, r = yz.unit_keys, yz.r
    y_units = [[units[yz.y(a, j)] for j in range(1, r + 1)] for a in range(1, yz.m + 1)]
    z_units = [[units[yz.z(j, b)] for j in range(1, r + 1)] for b in range(1, yz.n + 1)]
    floors = []
    for rows, cols in contents:
        left = _least_keys(rows, y_units)
        right = _least_keys(cols, z_units)
        floors.append(min([key + right[mu] for mu, key in left.items() if mu in right]))
    return min(floors)


def _least_keys(content, units):
    """Shape -> the least packed key of one side of a standard bitableau with
    that shape and ``content``; shapes are conjugates, as r-tuples.

    Transposed, one side is a semistandard tableau of the conjugate shape:
    its row j is the side's column j.  Letter a fills a horizontal strip of
    content[a] cells, and a cell in row j costs units[a][j] (y[a, j+1] on the
    left, z[j+1, a] on the right)."""
    states = {(0,) * len(units[0]): 0}
    for size, unit in zip(content, units):
        if not size:
            continue
        step = {}
        for nu, key in states.items():
            for plus, adds in _strips(nu, size):
                k = key + sum(map(mul, adds, unit))
                if k < step.get(plus, k + 1):
                    step[plus] = k
        states = step
    return states


@cache
def _strips(nu, size):
    """(nu plus the strip, cells per row) for each horizontal strip of
    ``size`` cells on the partition nu (an r-tuple): row j > 0 takes at most
    nu[j-1] - nu[j] cells.  Memoised for the process, keyed by partitions no
    larger than the degrees straightened: every call shares the small ones."""
    gaps = tuple(map(sub, nu[:-1], nu[1:]))
    return tuple([(tuple(map(add, nu, a)), a) for a in _fills((0,) * len(nu), None, size)
                  if all(map(le, a[1:], gaps))])


def _factor_images(bitab, params, subst):
    """The image terms of each factor minor of the bitableau, largest key
    first.  The map's ``minor_images`` holds them, built when first read."""
    images, factors = subst.minor_images, []
    for d in bitab.factors:
        terms = images.get(d)
        if terms is None:
            image = minor_polynomial(d, params, "YZ").packed
            terms = images[d] = sorted(image.items(), reverse=True)
        factors.append(terms)
    return factors


def is_in_ideal(f, params):
    """Membership in the kernel of the substitution (the minor ideal), over Z.

    Every answer refuses what ``phi`` refuses, with phi's messages and in
    phi's order: a polynomial on a foreign space, then an image (of degree
    2 * f.degree()) past the packed limit.  When r = min(m, n) there are no
    (r+1)-minors, so the ideal is zero and only zero is a member.

    Otherwise f is decided one content at a time, on the ``chart`` of the
    format's one map, ``shared_substitution(params)``.
    Scaling a row or a column of x maps the ideal to itself, so it is graded
    by content, and f is a member exactly when each of its content components
    is.  A one-term component is not: its image is a product of nonzero
    polynomials in a domain.  Any other is a member exactly when its chart
    image is zero; the first nonzero one answers.
    """
    if params.r == min(params.m, params.n) and f.space == params.x_space:
        _check_image_degree(f.degree())
        return f.is_zero()
    subst = shared_substitution(params)
    _check_operand(f, subst)
    _, scaled = clear_denominators(f.packed)
    return all(len(terms) > 1 and not _image_above(terms, subst.chart, 0)
               for terms in _contents(f.space, scaled).values())
