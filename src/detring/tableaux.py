"""Minors, bitableaux, and the standard ones.

A minor is a pair of strictly increasing index tuples of equal length t
(rows from 1..m, columns from 1..n), written ``[a1 a2 ...|b1 b2 ...]``.  A
bitableau is a product of minors with weakly decreasing sizes; it is standard
when consecutive factors are comparable in the componentwise partial order
(entrywise growth, allowing the later factor to be shorter).  The rank bound r
restricts factor sizes to at most r.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import ParameterError, ParseError
from .poly import XSpace, YZSpace


@dataclass(frozen=True)
class Parameters:
    """Matrix format m x n and rank bound r, with 1 <= r <= min(m, n)."""

    m: int
    n: int
    r: int

    def __post_init__(self):
        for name in ("m", "n", "r"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if self.r > min(self.m, self.n):
            raise ParameterError(f"rank bound r={self.r} exceeds min(m, n)={min(self.m, self.n)}")

    @cached_property
    def x_space(self):
        """The x variable space of this format, built on first use."""
        return XSpace(self.m, self.n)

    @cached_property
    def yz_space(self):
        """The y/z variable space of this format, built on first use."""
        return YZSpace(self.m, self.r, self.n)

    @cached_property
    def minor_table(self):
        """``(prev, t)`` -> the minors of size t <= r that prev grows into, by rows
        then columns; ``(None, t)`` holds all of them, other keys fill on demand."""
        minors = all_minors(self, self.r)
        return {(None, t): [d for d in minors if d.size == t] for t in range(1, self.r + 1)}

    @property
    def max_minor_size(self):
        return min(self.m, self.n)

    def transposed(self):
        return Parameters(self.n, self.m, self.r)

    def require_proper_rank(self):
        """Divisor-class computations need r strictly below min(m, n)."""
        if self.r >= min(self.m, self.n):
            raise ParameterError(
                f"operation requires r < min(m, n); got r={self.r}, m={self.m}, n={self.n}"
            )
        return self


def _strictly_increasing(t):
    return all(t[i] < t[i + 1] for i in range(len(t) - 1))


@dataclass(frozen=True)
class Minor:
    rows: tuple
    cols: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        cols = tuple(self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols):
            raise ValueError(f"row and column lists differ in length: {rows} vs {cols}")
        if rows and (rows[0] < 1 or cols[0] < 1):
            raise ValueError("indices are 1-based")
        if not (_strictly_increasing(rows) and _strictly_increasing(cols)):
            raise ValueError(f"indices must be strictly increasing: {rows}, {cols}")

    @property
    def size(self):
        return len(self.rows)

    def check_bounds(self, params):
        if self.rows and (self.rows[-1] > params.m or self.cols[-1] > params.n):
            raise ParameterError(f"minor {self} does not fit a {params.m} x {params.n} matrix")
        return self

    def __str__(self):
        return f"[{' '.join(map(str, self.rows))}|{' '.join(map(str, self.cols))}]"


def minor_leq(d1, d2):
    """d1 precedes d2: d1 is at least as long and grows into d2 entrywise."""
    u = d2.size
    if d1.size < u:
        return False
    return all(d1.rows[i] <= d2.rows[i] and d1.cols[i] <= d2.cols[i] for i in range(u))


@dataclass(frozen=True)
class Bitableau:
    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        for f in factors:
            if f.size == 0:
                raise ValueError("empty minors cannot appear as factors")
        sizes = [f.size for f in factors]
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ValueError(f"factor sizes must be weakly decreasing, got {sizes}")

    @property
    def degree(self):
        return sum(f.size for f in self.factors)

    @property
    def shape(self):
        return tuple(f.size for f in self.factors)

    def check_bounds(self, params):
        for f in self.factors:
            f.check_bounds(params)
        return self

    def __str__(self):
        if not self.factors:
            return "[|]"
        return "".join(str(f) for f in self.factors)


def is_standard(bitab):
    """Consecutive factors comparable (hence the whole chain, by transitivity)."""
    fs = bitab.factors
    return all(minor_leq(fs[i], fs[i + 1]) for i in range(len(fs) - 1))


_MINOR_RE = re.compile(r"\[([\d\s]*)\|([\d\s]*)\]")


def _minor_from_groups(rows, cols):
    """The minor of one ``_MINOR_RE`` match's row and column groups."""
    try:
        return Minor(tuple(int(s) for s in rows.split()), tuple(int(s) for s in cols.split()))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_minor(text):
    m = _MINOR_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"malformed minor {text!r}; expected like '[1 2|1 3]'")
    return _minor_from_groups(*m.groups())


def parse_bitableau(text):
    text = text.strip()
    if text in ("", "[|]"):
        return Bitableau(())
    parts = _MINOR_RE.findall(text)
    if not parts or _MINOR_RE.sub("", text).strip():
        raise ParseError(f"malformed bitableau {text!r}")
    factors = []
    for rs, cs in parts:
        factors.append(_minor_from_groups(rs, cs))
        if factors[-1].size == 0:
            raise ParseError("empty factors are only allowed as the whole bitableau")
    try:
        return Bitableau(tuple(factors))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def all_minors(params, max_size=None):
    """Every minor fitting the format, sizes ascending then lexicographic."""
    top = params.max_minor_size if max_size is None else min(max_size, params.max_minor_size)
    out = []
    for t in range(1, top + 1):
        for rows in combinations(range(1, params.m + 1), t):
            for cols in combinations(range(1, params.n + 1), t):
                out.append(Minor(rows, cols))
    return out


def enumerate_standard(params, degree):
    """All standard bitableaux of the given degree with factor sizes <= r.

    Sorted factor by factor: larger factors first, then rows, then columns.
    Depth first through ``params.minor_table`` is that order: no two bitableaux
    of one degree have one factor list a prefix of the other.
    """
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    table = params.minor_table
    out = []

    def extend(prefix, top, left):
        if not left:
            out.append(Bitableau(prefix))
            return
        prev = prefix[-1] if prefix else None
        for t in range(min(top, left), 0, -1):
            if (prev, t) not in table:
                table[prev, t] = [d for d in table[None, t] if minor_leq(prev, d)]
            for d in table[prev, t]:
                extend(prefix + (d,), t, left - t)

    extend((), params.r, degree)
    return out


def generators_gamma(params, side):
    """Size-r minors pinned to the first r rows ('rows') or columns ('cols')."""
    params.require_proper_rank()
    base = tuple(range(1, params.r + 1))
    if side == "rows":
        return [Minor(base, cols) for cols in combinations(range(1, params.n + 1), params.r)]
    if side == "cols":
        return [Minor(rows, base) for rows in combinations(range(1, params.m + 1), params.r)]
    raise ParameterError(f"side must be 'rows' or 'cols', got {side!r}")
