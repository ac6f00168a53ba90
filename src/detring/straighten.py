"""Rewriting substituted polynomials as combinations of standard bitableaux.

The loop peels the leading monomial, decodes it to the unique standard
bitableau with that closed form, and subtracts the bitableau's substituted
image (which is monic with exactly that leading monomial).  The leading
monomial strictly drops each round, so the loop terminates; what remains at
zero is the standard expansion.  Polynomials in the kernel of the substitution
straighten to the empty combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import InternalCheckError, NotInSemigroupError
from .generic_point import SubstitutionMap, _check_image_degree, decode_standard, eval_bitableau, phi
from .linalg import clear_denominators
from .poly import Poly, format_coefficient


@dataclass(frozen=True)
class StandardCombination:
    """Coefficients and standard bitableaux, largest leading monomial first."""

    params: object
    terms: tuple  # ((coefficient, Bitableau), ...)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def is_zero(self):
        return not self.terms

    def evaluate(self, side, subst=None):
        """Reassemble the combination as a polynomial on the chosen side."""
        if subst is None:
            subst = SubstitutionMap(self.params)
        space = subst.x_space if side == "X" else subst.yz_space
        acc = Poly.zero(space)
        for coef, bitab in self.terms:
            acc = acc + coef * eval_bitableau(bitab, self.params, side, subst)
        return acc

    def as_pairs(self):
        """JSON-ready list of (coefficient string, bitableau string) pairs."""
        return [
            {"coeff": format_coefficient(c), "bitableau": str(b)} for c, b in self.terms
        ]


def straighten(f, params, subst=None):
    """Standard expansion of an x-space polynomial modulo the kernel.

    Returns a StandardCombination; iteration count per homogeneous component
    is bounded by the number of standard bitableaux of that degree.  The
    substituted standard bitableaux are monic with integer coefficients, so
    the loop runs over Z on f times the lcm of its denominators, and the
    coefficients are divided by that scale at the end.
    """
    if subst is None:
        subst = SubstitutionMap(params)
    scale, scaled = clear_denominators(f.packed)
    # phi's term dict is new, so the loop consumes it.  Every image term of an
    # x-monomial of degree k has y-degree k and total degree 2k, and the
    # packed order compares total degree first: the leads come component by
    # component, highest degree first, and each subtracted image stays in its
    # own component.
    rest = phi(Poly._raw(f.space, scaled), subst).packed
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
        image = eval_bitableau(bitab, params, "YZ", subst)
        kernels.poly_addmul(rest, -lam, image.packed)
        if lead in rest:
            raise InternalCheckError("leading term failed to cancel during straightening")
        result.append((Fraction(lam, scale), bitab))
    return StandardCombination(params, tuple(result))


def is_in_ideal(f, params, subst=None):
    """Membership in the kernel of the substitution (the minor ideal), over Z.

    When r = min(m, n) there are no (r+1)-minors, so the ideal is zero and
    only zero is a member.  That answer refuses what ``phi`` refuses: an
    image (of degree 2 * f.degree()) past the packed limit, with phi's
    message, and, by running phi, a polynomial on a foreign space.
    """
    if params.r == min(params.m, params.n) and f.space == params.x_space:
        _check_image_degree(f.degree())
        return f.is_zero()
    if subst is None:
        subst = SubstitutionMap(params)
    _, scaled = clear_denominators(f.packed)
    return phi(Poly._raw(f.space, scaled), subst).is_zero()
