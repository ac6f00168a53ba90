"""The hot kernels, in pure Python, on packed exponent vectors.

A monomial in N variables is one int (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Its N
fields of FIELD_BITS = 8 bits, which ``pack`` and ``unpack`` write and read as
bytes, hold the prefix sums of the rank-indexed exponent tuple: field i, at
bit FIELD_BITS * i, holds e[0] + ... + e[i], so the top field is the total
degree.  Reading the fields from the top down gives (d, d - e[N-1],
d - e[N-1] - e[N-2], ...), and lex order on that list is the
degree-reverse-lexicographic order of ``poly``, whose tuple reference is
``tests/helpers.drevlex_key``.  Hence one int ``+`` multiplies two monomials,
one ``<`` compares them and ``max`` finds the leading one.  No field exceeds
the top one, so a monomial packs exactly when its total degree is at most
MAX_DEGREE; products are checked before they are formed and never wrap.

Term dicts map packed monomials to nonzero int or Fraction coefficients.
Linear functionals are tuples of (position, coefficient) pairs.
"""

from itertools import accumulate
from math import gcd
from operator import sub

from .errors import ParameterError

BACKEND = "python"

FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1


def _too_big(degree):
    return ParameterError(
        f"monomial of degree {degree} exceeds the packed-exponent limit {MAX_DEGREE}"
    )


def pack(exps):
    """The packed int of an exponent tuple."""
    try:
        return int.from_bytes(bytes(accumulate(exps)), "little")
    except ValueError:
        raise _too_big(sum(exps)) from None


def unpack(key, nvars):
    """The exponent tuple of length nvars packed in ``key``."""
    sums = key.to_bytes(nvars, "little")
    return tuple(map(sub, sums, b"\0" + sums[:-1]))


def key_limit(nvars):
    """Every packed monomial in nvars variables is below this int."""
    return 1 << (FIELD_BITS * nvars)


def prefix_sum(key, i):
    """e[0] + ... + e[i] of a packed monomial: its field i."""
    return (key >> (FIELD_BITS * i)) & MAX_DEGREE


def poly_mul(a, b, limit):
    """Convolve two term dicts; zero coefficients are dropped.

    ``limit`` is ``key_limit(nvars)``.  The product's leading monomial is
    the sum of the factors' leading ones, and it reaches ``limit`` exactly when
    its degree exceeds MAX_DEGREE; that raises ParameterError.
    """
    if not a or not b:
        return {}
    ma, mb = max(a), max(b)
    if ma + mb >= limit:
        top = limit.bit_length() - 1 - FIELD_BITS
        raise _too_big((ma >> top) + (mb >> top))
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def poly_mul_above(a, b, floor):
    """The terms of a * b whose packed monomial is at least ``floor``.

    ``a`` is a term dict and ``b`` a list of (key, coefficient) pairs, largest
    key first, so each row of the convolution stops at its first product
    below the floor.  Unlike ``poly_mul`` it checks no limit: the caller
    bounds the product's degree.
    """
    out = {}
    get = out.get
    for ea, ca in a.items():
        cut = floor - ea
        for eb, cb in b:
            if eb < cut:
                break
            e = ea + eb
            c = get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def poly_addmul(acc, scale, b):
    """In place: acc += scale * b.  Mutates and returns acc."""
    if not scale:
        return acc
    get = acc.get
    for e, c in b.items():
        cur = get(e)
        if cur is None:
            acc[e] = scale * c
        else:
            cur = cur + scale * c
            if cur:
                acc[e] = cur
            else:
                del acc[e]
    return acc


def leading_monomial(terms):
    """Largest packed monomial of a term dict; None if empty."""
    return max(terms, default=None)


def system_holds(equations, inequalities, v):
    """Check a vector against homogeneous integer functionals.

    equations must evaluate to 0, inequalities to >= 0.  Works for any
    coefficient type with exact comparison (int, Fraction).  Only tests call
    it; it stays because the benchmark tracer wraps it by name.
    """
    for f in equations:
        s = 0
        for pos, c in f:
            s += c * v[pos]
        if s != 0:
            return False
    for f in inequalities:
        s = 0
        for pos, c in f:
            s += c * v[pos]
        if s < 0:
            return False
    return True


def row_combine(row, pivot, lead):
    """Fraction-free elimination step on integer sparse rows.

    Returns pivot[lead] * row - row[lead] * pivot with the entry at ``lead``
    cancelled, divided by the gcd of the remaining entries.
    """
    pc = pivot[lead]
    out = dict(row) if pc == 1 else {e: pc * c for e, c in row.items()}
    out = poly_addmul(out, -row[lead], pivot)
    g = gcd(*out.values())
    if g > 1:
        for e in out:
            out[e] //= g
    return out
