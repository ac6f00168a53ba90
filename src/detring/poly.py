"""Exact sparse polynomials over Q on the two variable spaces of the construction.

A monomial is an exponent tuple indexed by *rank position*: position 0 belongs
to the largest variable of the space's ordering.  On the y/z space the ordering
is the block ranking

    y[m,1] > y[m-1,1] > ... > y[1,1] > y[m,2] > ... > y[1,r] >
    z[1,n] > ... > z[1,1] > z[2,n] > ... > z[r,1]

(y column by column, each column from the bottom; then z row by row, each row
from the right), refined degree-reverse-lexicographically: a > b iff
deg a > deg b, or degrees agree and the last nonzero entry of a - b along the
ranking is negative.  With rank-indexed tuples this collapses to the sort key
``(sum(e), tuple(-x for x in reversed(e)))``, compared componentwise.

On the x space the same degree-reverse-lexicographic recipe over the row-major
ranking x[1,1] > x[1,2] > ... is used only to make printing canonical; no
result depends on it.

Inside a Poly every monomial is packed into one int (see ``kernels``), whose
int order is this order; tuples appear only where a Poly is built or read out.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from . import kernels
from .errors import ParseError, SpaceMismatchError


class VariableSpace:
    """Finite ordered list of variables; monomials are rank-indexed tuples."""

    def __init__(self, keys, signature):
        self._keys = tuple(keys)
        self._pos = {k: p for p, k in enumerate(self._keys)}
        self._signature = signature
        self.nvars = len(self._keys)
        self.key_limit = kernels.key_limit(self.nvars)

    def __eq__(self, other):
        return isinstance(other, VariableSpace) and self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        kind, *dims = self._signature
        return f"{type(self).__name__}({', '.join(map(str, dims))})"

    def label(self, pos):
        letter, i, j = self._keys[pos]
        return f"{letter}[{i},{j}]"

    def unit(self, pos):
        e = [0] * self.nvars
        e[pos] = 1
        return tuple(e)

    def unpack(self, key):
        return kernels.unpack(key, self.nvars)

    @cached_property
    def unit_keys(self):
        """The packed key of each variable by rank position: adding it to a
        packed monomial multiplies by that variable."""
        return tuple(kernels.pack(self.unit(p)) for p in range(self.nvars))


class XSpace(VariableSpace):
    """The m*n matrix entry variables x[i,j]."""

    def __init__(self, m, n):
        self.m = m
        self.n = n
        keys = [("x", i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        super().__init__(keys, ("x", m, n))

    def x(self, i, j):
        return self._pos[("x", i, j)]


class YZSpace(VariableSpace):
    """The factorization variables: y is m x r, z is r x n, ranked as above."""

    def __init__(self, m, r, n):
        self.m = m
        self.r = r
        self.n = n
        keys = []
        for j in range(1, r + 1):
            for i in range(m, 0, -1):
                keys.append(("y", i, j))
        for u in range(1, r + 1):
            for v in range(n, 0, -1):
                keys.append(("z", u, v))
        super().__init__(keys, ("yz", m, r, n))
        self.y_count = m * r

    def y(self, i, j):
        return self._pos[("y", i, j)]

    def z(self, u, v):
        return self._pos[("z", u, v)]

    def bidegree(self, exps):
        """(y-degree, z-degree) of an exponent tuple."""
        dy = sum(exps[: self.y_count])
        dz = sum(exps[self.y_count :])
        return dy, dz

    def y_degree(self, key):
        """y-degree of a packed monomial: the prefix sum over the y block."""
        return kernels.prefix_sum(key, self.y_count - 1)


class Poly:
    """Sparse polynomial: dict from packed monomial to nonzero Fraction/int.

    ``packed`` is that dict.  Treated as immutable by convention; arithmetic
    returns fresh objects.
    """

    __slots__ = ("space", "packed")

    def __init__(self, space, terms=()):
        d = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            if len(e) != space.nvars:
                raise SpaceMismatchError(
                    f"exponent tuple of length {len(e)} on a space with {space.nvars} variables"
                )
            key = kernels.pack(e)
            cur = d.get(key)
            cur = c if cur is None else cur + c
            if cur:
                d[key] = cur
            else:
                d.pop(key, None)
        self.space = space
        self.packed = d

    @classmethod
    def _raw(cls, space, packed):
        """Wrap an already-clean packed term dict without copying."""
        p = object.__new__(cls)
        p.space = space
        p.packed = packed
        return p

    @property
    def terms(self):
        """The terms keyed by exponent tuples, rebuilt on every read.

        Only tests and the benchmark tracer (``len(result.terms)``) read it."""
        unpack = self.space.unpack
        return {unpack(k): c for k, c in self.packed.items()}

    @classmethod
    def zero(cls, space):
        return cls._raw(space, {})

    @classmethod
    def constant(cls, space, c):
        return cls._raw(space, {0: c} if c else {})

    @classmethod
    def variable(cls, space, pos):
        return cls._raw(space, {kernels.pack(space.unit(pos)): 1})

    def is_zero(self):
        return not self.packed

    def __bool__(self):
        return bool(self.packed)

    def __len__(self):
        return len(self.packed)

    def _check(self, other):
        if self.space != other.space:
            raise SpaceMismatchError(f"operands on {self.space!r} and {other.space!r}")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.space == other.space and self.packed == other.packed

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out = dict(self.packed)
            kernels.poly_addmul(out, 1, other.packed)
            return Poly._raw(self.space, out)
        if isinstance(other, (int, Fraction)):
            return self + Poly.constant(self.space, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.space, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out = dict(self.packed)
            kernels.poly_addmul(out, -1, other.packed)
            return Poly._raw(self.space, out)
        if isinstance(other, (int, Fraction)):
            return self - Poly.constant(self.space, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return Poly._raw(
                self.space, kernels.poly_mul(self.packed, other.packed, self.space.key_limit)
            )
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.space)
            return Poly._raw(self.space, {e: c * other for e, c in self.packed.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(self.space, 1)
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return kernels.prefix_sum(max(self.packed), self.space.nvars - 1)

    def leading(self):
        """(exponent tuple, coefficient) of the largest term; ValueError on zero."""
        if not self.packed:
            raise ValueError("the zero polynomial has no leading term")
        key = kernels.leading_monomial(self.packed)
        return self.space.unpack(key), self.packed[key]

    def sorted_terms(self):
        """Terms in descending order, largest first."""
        unpack = self.space.unpack
        return [
            (unpack(k), c)
            for k, c in sorted(self.packed.items(), key=itemgetter(0), reverse=True)
        ]

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.space!r}, {format_poly(self)!r})"


def format_coefficient(c):
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_monomial(space, exps):
    """Canonical text of a monomial, variables listed largest first; '1' if empty."""
    parts = []
    for pos, e in enumerate(exps):
        if e == 1:
            parts.append(space.label(pos))
        elif e:
            parts.append(f"{space.label(pos)}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(f):
    """Canonical text: terms in descending order, grammar-compatible."""
    if not f.packed:
        return "0"
    chunks = []
    for e, c in f.sorted_terms():
        mono = format_monomial(f.space, e)
        cf = Fraction(c)
        neg = cf < 0
        mag = -cf if neg else cf
        if mono == "1":
            body = format_coefficient(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_coefficient(mag)}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(chunks)


_TOKEN = re.compile(r"\d+|[xyz]|\[|\]|\^|\*|,|\+|-|/|\S")


def _error(text, index, message):
    """ParseError at token ``index`` of ``text``, the end of the text past the
    last token.  Token positions are worked out only here, when parsing fails."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def _expected(text, toks, index, want):
    """ParseError for token ``index`` where ``want`` was due: a token, or None
    for an unsigned integer.  The end of input reads as None."""
    what = "an unsigned integer" if want is None else repr(want)
    return _error(text, index, f"expected {what}, found {toks[index] or None!r}")


def parse_polynomial(text, space):
    """Parse the whitespace-insensitive textual form onto the given space.

    Grammar: signed sum of terms; a term is a rational coefficient, a product
    of variable powers, or ``coeff * factors``; variables are 1-based like
    ``y[2,1]``; exponents via ``^``.  One pass over the tokens with a local
    index.
    """
    toks = _TOKEN.findall(text)
    if not toks:
        raise ParseError("empty input", 0)
    # Empty strings stand for the end of input: no check accepts one, and a
    # variable's six tokens can always be sliced.
    toks += [""] * 6
    place = space._pos
    terms = []
    negative = toks[0] == "-"
    i = 1 if negative or toks[0] == "+" else 0
    while True:
        exps = [0] * space.nvars
        coeff = 1
        more = True
        if toks[i].isdecimal():
            coeff = int(toks[i])
            i += 1
            if toks[i] == "/":
                if not toks[i + 1].isdecimal():
                    raise _expected(text, toks, i + 1, None)
                den = int(toks[i + 1])
                i += 2
                if not den:
                    raise _error(text, i, "zero denominator")
                coeff = Fraction(coeff, den)
            more = toks[i] == "*"
            i += more
        while more:
            letter, bra, a, comma, b, ket = toks[i : i + 6]
            pos = None
            if bra == "[" and comma == "," and ket == "]" and a.isdecimal() and b.isdecimal():
                pos = place.get((letter, int(a), int(b)))
            if pos is None:
                if not letter:
                    raise _error(text, i, "unexpected end of input")
                if letter not in ("x", "y", "z"):
                    raise _error(text, i, f"expected a variable, found {letter!r}")
                for k, want in enumerate(("[", None, ",", None, "]"), start=i + 1):
                    if not (toks[k].isdecimal() if want is None else toks[k] == want):
                        raise _expected(text, toks, k, want)
                raise _error(text, i, f"variable {letter}[{int(a)},{int(b)}] is not on {space!r}")
            i += 6
            if toks[i] == "^":
                if not toks[i + 1].isdecimal():
                    raise _expected(text, toks, i + 1, None)
                exps[pos] += int(toks[i + 1])
                i += 2
            else:
                exps[pos] += 1
            more = toks[i] == "*"
            i += more
        terms.append((tuple(exps), -coeff if negative else coeff))
        tok = toks[i]
        if not tok:
            return Poly(space, terms)
        if tok not in ("+", "-"):
            raise _error(text, i, f"expected '+', '-', or end of input, found {tok!r}")
        negative = tok == "-"
        i += 1
