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
from functools import cached_property
from itertools import combinations
from math import comb
from operator import attrgetter, ge

from .errors import ParameterError, ParseError
from .kernels import MAX_DEGREE
from .poly import XSpace, YZSpace


class _Frozen:
    """An immutable value: its ``_fields`` are set once, by ``_set``, and it
    is equal to, hashed by and shown as the tuple of their values.  It does
    what a frozen dataclass would without importing ``dataclasses``, which
    pulls ``inspect``, ``ast`` and ``dis`` into every process (0.8 MB
    resident)."""

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Parameters(_Frozen):
    """Matrix format m x n and rank bound r, with 1 <= r <= min(m, n)."""

    _fields = ("m", "n", "r")

    def __init__(self, m, n, r):
        for name, v in zip(self._fields, (m, n, r)):
            if not isinstance(v, int) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if r > min(m, n):
            raise ParameterError(f"rank bound r={r} exceeds min(m, n)={min(m, n)}")
        self._set(m, n, r)

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
        """The format's one minor table (``_MinorTable``), empty until read."""
        return _MinorTable(self.m, self.n)

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


class Minor(_Frozen):
    _fields = ("rows", "cols")

    def __init__(self, rows, cols):
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise ValueError(f"row and column lists differ in length: {rows} vs {cols}")
        if rows and (rows[0] < 1 or cols[0] < 1):
            raise ValueError("indices are 1-based")
        if not (_strictly_increasing(rows) and _strictly_increasing(cols)):
            raise ValueError(f"indices must be strictly increasing: {rows}, {cols}")
        self._set(rows, cols)
        object.__setattr__(self, "_hash", hash((rows, cols)))

    def __hash__(self):
        """The hash of (rows, cols), computed once: minors key every walk's
        table and memo lookups."""
        return self._hash

    @property
    def size(self):
        return len(self.rows)

    def check_bounds(self, params):
        if self.rows and (self.rows[-1] > params.m or self.cols[-1] > params.n):
            raise ParameterError(f"minor {self} does not fit a {params.m} x {params.n} matrix")
        return self

    @cached_property
    def _text(self):
        """The ``[rows|cols]`` text, formatted on first use; table minors are
        shared, so each is formatted once per format."""
        return f"[{' '.join(map(str, self.rows))}|{' '.join(map(str, self.cols))}]"

    def __str__(self):
        return self._text


def minor_leq(d1, d2):
    """d1 precedes d2: d1 is at least as long and grows into d2 entrywise."""
    u = d2.size
    if d1.size < u:
        return False
    return all(d1.rows[i] <= d2.rows[i] and d1.cols[i] <= d2.cols[i] for i in range(u))


class Bitableau(_Frozen):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        for f in factors:
            if f.size == 0:
                raise ValueError("empty minors cannot appear as factors")
        sizes = [f.size for f in factors]
        if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
            raise ValueError(f"factor sizes must be weakly decreasing, got {sizes}")
        self._set(factors)

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
        return "".join([f._text for f in self.factors])


_set_factors = Bitableau.factors.__set__


def _raw_bitableau(factors):
    """Wrap a factor tuple already known to hold nonempty minors of weakly
    decreasing sizes, skipping the checks of ``__init__`` (the slot is set
    through its own descriptor, past the frozen ``__setattr__``)."""
    b = object.__new__(Bitableau)
    _set_factors(b, factors)
    return b


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


class _MinorTable(dict):
    """``(None, t)`` -> every size-t minor of an m x n matrix, by rows then
    columns, so the one at i * C(n, t) + j has the i-th row and j-th column
    tuple; ``(prev, t)`` -> those prev grows into, read out by position: rows
    >= prev's entrywise times columns >= prev's.  Each key is filled when
    first read.  The table keeps (m, n): its ``Parameters`` would be a cycle."""

    def __init__(self, m, n):
        self.m, self.n = m, n

    def __missing__(self, key):
        prev, t = key
        if prev is None:
            cols = list(combinations(range(1, self.n + 1), t))
            out = [Minor(rows, c) for rows in combinations(range(1, self.m + 1), t) for c in cols]
        else:
            grid, width = self[None, t], comb(self.n, t)
            rows = [i for i in range(0, len(grid), width) if all(map(ge, grid[i].rows, prev.rows))]
            cols = [j for j in range(width) if all(map(ge, grid[j].cols, prev.cols))]
            out = [grid[i + j] for i in rows for j in cols]
        self[key] = out
        return out


def all_minors(params, max_size=None):
    """Every minor fitting the format of size <= max_size (default min(m, n)),
    sizes ascending then lexicographic: the minor table's own size lists."""
    top = min(params.m, params.n) if max_size is None else min(max_size, params.m, params.n)
    table = params.minor_table
    return [d for t in range(1, top + 1) for d in table[None, t]]


def _check_degree(degree):
    """Refuse a negative chain degree, and one past the packed limit: the
    walks recurse once per factor, so a deep degree would exhaust the stack."""
    if degree < 0:
        raise ParameterError(f"degree must be nonnegative, got {degree}")
    if degree > MAX_DEGREE:
        raise ParameterError(f"degree {degree} exceeds the packed-exponent limit {MAX_DEGREE}")


class _Tails(dict):
    """``(prev, left)`` -> the standard chains of degree ``left`` that can
    follow the factor prev, in walk order, each as ``empty`` plus ``piece(d)``
    per factor d; filled when first read, so a tail shared by many prefixes is
    built once per walk.  The first factor's own key is never stored: no other
    chain reaches it, and its list would be a copy of the whole output."""

    def __init__(self, table, piece, empty):
        self.table, self.piece, self.empty = table, piece, empty

    def after(self, prefix, prev, left):
        """prefix plus each chain of degree ``left`` that can follow prev; the
        last factor's successors are added in bulk."""
        table, piece, out = self.table, self.piece, []
        for t in range(min(prev.size, left), 0, -1):
            if t == left:
                out += [prefix + piece(d) for d in table[prev, t]]
            else:
                for d in table[prev, t]:
                    head = prefix + piece(d)
                    out += [head + tail for tail in self[d, left - t]]
        return out

    def __missing__(self, key):
        out = self[key] = self.after(self.empty, *key)
        return out

    def batches(self, top, degree):
        """Every chain of the degree with sizes <= top, in walk order: one
        list per first factor, and one for the chains of a single factor."""
        table, piece = self.table, self.piece
        for t in range(min(top, degree), 0, -1):
            if t == degree:
                yield list(map(piece, table[None, t]))
            else:
                for d in table[None, t]:
                    yield self.after(piece(d), d, degree - t)


def _chain_batches(params, degree, piece, empty):
    """Every standard chain of the degree with factor sizes <= r, in the order
    of ``enumerate_standard``, each as ``empty`` plus ``piece(d)`` per factor d,
    in lists as ``_Tails.batches`` yields them.  The degree is checked before
    this returns.

    Depth first through ``params.minor_table``: larger factors first, then
    rows, then columns.
    """
    _check_degree(degree)
    if not degree:
        return iter([[empty]])
    return _Tails(params.minor_table, piece, empty).batches(params.r, degree)


def _standard_chains(params, degree, piece, empty):
    """``_chain_batches`` as one list."""
    return [chain for batch in _chain_batches(params, degree, piece, empty) for chain in batch]


def enumerate_standard(params, degree):
    """All standard bitableaux of the given degree with factor sizes <= r.

    Sorted factor by factor: larger factors first, then rows, then columns.
    Depth first through ``params.minor_table`` is that order: no two bitableaux
    of one degree have one factor list a prefix of the other.  The walk only
    chains nonempty minors of nonincreasing size, so it builds its output with
    the trusted ``_raw_bitableau``.
    """
    return list(map(_raw_bitableau, _standard_chains(params, degree, lambda d: (d,), ())))


def _standard_texts(params, degree):
    """``str(b)`` for b in ``enumerate_standard(params, degree)``, joined from
    each minor's cached text with no bitableau built, as ``_chain_batches``
    yields them: one list per first factor.  The degree is checked before
    this returns."""
    if degree == 0:
        return iter([["[|]"]])
    return _chain_batches(params, degree, attrgetter("_text"), "")


class _Counts(dict):
    """``(prev, left)`` -> the number of standard chains of degree ``left`` that
    can follow the factor prev (any first factor of size <= r when prev is
    None), counted along the successor lists ``enumerate_standard`` walks and
    filled when first read; the chains that end after one more factor are the
    length of its successor list."""

    def __init__(self, table, r):
        self.table, self.r = table, r

    def __missing__(self, key):
        prev, left = key
        table, total = self.table, 0
        for t in range(min(self.r if prev is None else prev.size, left), 0, -1):
            if t == left:
                total += len(table[prev, t])
            else:
                total += sum([self[d, left - t] for d in table[prev, t]])
        self[key] = total
        return total


def _count_pinned(params, side, pins, left):
    """The standard chains of degree r * pins + left whose first pins factors
    are size-r minors with ``side`` ('rows' or 'cols') equal to 1..r: carried
    forward factor by factor along the successor lists by a loop (pins may run
    to thousands), then each end weighed by the chains of degree left after it."""
    table, r = params.minor_table, params.r
    base = tuple(range(1, r + 1))
    ends = {None: 1}
    for _ in range(pins):
        step = {}
        for prev, c in ends.items():
            for d in table[prev, r]:
                if getattr(d, side) == base:
                    step[d] = step.get(d, 0) + c
        ends = step
    if not left:
        return sum(ends.values())
    counts = _Counts(table, r)
    return sum(c * counts[d, left] for d, c in ends.items())


def count_standard(params, degree):
    """``len(enumerate_standard(params, degree))`` without building a bitableau."""
    _check_degree(degree)
    return _count_pinned(params, "rows", 0, degree)


def generators_gamma(params, side):
    """Size-r minors pinned to the first r rows ('rows') or columns ('cols')."""
    params.require_proper_rank()
    base = tuple(range(1, params.r + 1))
    if side == "rows":
        return [Minor(base, cols) for cols in combinations(range(1, params.n + 1), params.r)]
    if side == "cols":
        return [Minor(rows, base) for rows in combinations(range(1, params.m + 1), params.r)]
    raise ParameterError(f"side must be 'rows' or 'cols', got {side!r}")
