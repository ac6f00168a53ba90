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
from operator import attrgetter, ge, lt

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
        self.m, self.n, self.positions = m, n, {}

    def _above(self, low, size):
        """The positions of the len(low)-subsets of 1..size that are >= low
        entrywise, in order; each (low, size) is scanned once per table."""
        key = low, size
        if key not in self.positions:
            subsets = combinations(range(1, size + 1), len(low))
            self.positions[key] = [i for i, s in enumerate(subsets) if all(map(ge, s, low))]
        return self.positions[key]

    def __missing__(self, key):
        prev, t = key
        if prev is None:
            cols = list(combinations(range(1, self.n + 1), t))
            out = [Minor(rows, c) for rows in combinations(range(1, self.m + 1), t) for c in cols]
        else:
            grid, width = self[None, t], comb(self.n, t)
            cols = self._above(prev.cols[:t], self.n)
            out = [grid[i * width + j] for i in self._above(prev.rows[:t], self.m) for j in cols]
        self[key] = out
        return out


def all_minors(params, max_size=None):
    """Every minor fitting the format of size <= max_size (default min(m, n)),
    sizes ascending then lexicographic: the minor table's own size lists."""
    top = min(params.m, params.n) if max_size is None else min(max_size, params.m, params.n)
    table = params.minor_table
    return [d for t in range(1, top + 1) for d in table[None, t]]


def _check_degree(value, noun="degree"):
    """Refuse a negative chain degree or degree bound (``noun`` names which),
    and one past the packed limit: the walks recurse once per factor, so a
    deep degree would exhaust the stack, and no packed point holds one."""
    if value < 0:
        raise ParameterError(f"{noun} must be nonnegative, got {value}")
    if value > MAX_DEGREE:
        raise ParameterError(f"{noun} {value} exceeds the packed-exponent limit {MAX_DEGREE}")


class _Tails(dict):
    """``(prev, left)`` -> the standard chains of degree ``left`` that can
    follow the factor prev, in walk order, each as ``empty`` plus ``piece(d)``
    per factor d; filled when first read, so a tail shared by many prefixes is
    built once per walk.  The first factor's own key is never stored: no other
    chain reaches it, and its list would be a copy of the whole output."""

    def __init__(self, table, piece, empty):
        self.table, self.piece, self.empty = table, piece, empty

    def groups(self, head, prev, left):
        """The chains of degree ``left`` that can follow prev, after head, as
        ``(head', tails)`` groups whose chains are ``head' + tail``: head
        itself before the last factors, head plus each second factor before
        that factor's memoised tails."""
        table, piece, out = self.table, self.piece, []
        for t in range(min(prev.size, left), 0, -1):
            if t == left:
                out.append((head, list(map(piece, table[prev, t]))))
            else:
                for d in table[prev, t]:
                    out.append((head + piece(d), self[d, left - t]))
        return out

    def __missing__(self, key):
        groups = self.groups(self.empty, *key)
        out = self[key] = [c for head, tails in groups for c in map(head.__add__, tails)]
        return out

    def batches(self, top, degree):
        """Every chain of the degree with sizes <= top, in walk order, in
        ``(head, tails)`` groups: one list of groups per first factor, and one
        for the chains of a single factor; degree 0 has the one empty chain."""
        table, piece, empty = self.table, self.piece, self.empty
        if not degree:
            yield [(empty, [empty])]
        for t in range(min(top, degree), 0, -1):
            if t == degree:
                yield [(empty, list(map(piece, table[None, t])))]
            else:
                for d in table[None, t]:
                    yield self.groups(piece(d), d, degree - t)


# The most standard bitableaux one listing holds; memory sets it, as the tail
# memo grows with the output.  The largest test query lists 586,825 (basis at
# 5x5, r = 3, degree 6), the benchmark's 118,178 (degree 5); 6x6 r3 lists
# 25,688,736 at degree 7 (about 1.1 s and 125 MB resident) and 133,868,115 at
# degree 8 (6.7 s, 675 MB).
BASIS_LIMIT = 30_000_000


def _chain_batches(params, degree, piece, empty):
    """Every standard chain of the degree with factor sizes <= r, in the order
    of ``enumerate_standard``, each as ``empty`` plus ``piece(d)`` per factor d,
    in ``(head, tails)`` groups as ``_Tails.batches`` yields them.  The degree
    is checked before this returns: past ``BASIS_LIMIT`` chains, counted by the
    hook-content formula when the x-monomials of the degree, which bound
    them, are more, it refuses.

    Depth first through ``params.minor_table``: larger factors first, then
    rows, then columns.
    """
    _check_degree(degree)
    m, n, r = params.m, params.n, params.r
    bound = comb(m * n + degree - 1, degree)  # the x-monomials of the degree
    if bound > BASIS_LIMIT and _hilbert_formula(params, degree) > BASIS_LIMIT:
        raise ParameterError(
            f"degree {degree} would list more than {BASIS_LIMIT} standard bitableaux "
            f"at m={m}, n={n}, r={r}; lower the degree"
        )
    return _Tails(params.minor_table, piece, empty).batches(r, degree)


def enumerate_standard(params, degree):
    """All standard bitableaux of the given degree with factor sizes <= r.

    Sorted factor by factor: larger factors first, then rows, then columns.
    Depth first through ``params.minor_table`` is that order: no two bitableaux
    of one degree have one factor list a prefix of the other.  The walk only
    chains nonempty minors of nonincreasing size, so it builds its output with
    the trusted ``_raw_bitableau``.
    """
    batches = _chain_batches(params, degree, lambda d: (d,), ())
    return [_raw_bitableau(chain) for batch in batches
            for head, tails in batch for chain in map(head.__add__, tails)]


def _standard_texts(params, degree):
    """``str(b)`` for b in ``enumerate_standard(params, degree)``, from each
    minor's cached text with no bitableau built, as ``_chain_batches`` yields
    them: one list of ``(head, tails)`` groups per first factor, each text
    ``head + tail``.  The degree is checked before this returns."""
    if degree == 0:
        return iter([[("[|]", [""])]])
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


def _tilde_basis_count(params, d1, d2):
    """Standard products of maximal factor minors with a standard bitableau.

    Bidegree (d1, d2) forces the number of pure factors: (d1-d2)/r maximal
    left-factor minors when d1 >= d2 (mirror otherwise), whose chain must grow
    into the first factor of the mixed part.  The left minor det Y[s, 1..r]
    leads with the y-half of the lead of [s|1..r], and [s|1..r] grows into a
    factor d exactly when s <= d.rows entrywise, so these are the standard
    chains with that many leading factors pinned to columns 1..r (rows 1..r
    for the right factor): ``_count_pinned``, with nothing listed.
    """
    if (d1 - d2) % params.r:
        return 0
    side = "cols" if d1 >= d2 else "rows"
    return _count_pinned(params, side, abs(d1 - d2) // params.r, min(d1, d2))


def count_standard(params, degree):
    """``len(enumerate_standard(params, degree))`` without building a bitableau."""
    _check_degree(degree)
    return _count_pinned(params, "rows", 0, degree)


def _semistandard_count(shape, size):
    """s_shape(1^size), the semistandard tableaux of ``shape`` with entries in
    1..size, by Stanley's hook-content formula (EC2, Cor. 7.21.4): the product
    over cells (i, j) of (size + j - i) / hook(i, j).  A shape that is not
    nonincreasing counts 0; so does one with more than size nonzero rows, whose
    cell (size + 1, 1) has content -size."""
    if any(map(lt, shape, shape[1:])):
        return 0
    cols = [sum([row > j for row in shape]) for j in range(shape[0])] if shape else []
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= size + j - i
            den *= row - j + cols[j] - i - 1
    return num // den


def _partitions(size, d):
    """The nonincreasing tuples of ``size`` nonnegative ints summing to d,
    lexicographically largest first.  With k entries left to place and left
    of d still to add, the next entry lies in [ceil(left / k), the one before]."""
    heads = [((), d)]
    for k in range(size, 0, -1):
        heads = [(c + (x,), left - x) for c, left in heads
                 for x in range(min(c[-1], left) if c else left, -(-left // k) - 1, -1)]
    return [c for c, _ in heads]


def _partition_count(d, parts):
    """p(d, <= parts), the partitions of d with at most ``parts`` parts,
    without listing them: by conjugation, those with no part above ``parts``,
    counted by admitting the part sizes 1, 2, ... one at a time."""
    ways = [1] + [0] * d
    for k in range(1, min(parts, d) + 1):
        for j in range(k, d + 1):
            ways[j] += ways[j - k]
    return ways[d]


# The most partition cells, p(d, <= r) partitions of d cells each, that
# ``_hilbert_formula`` sums over; it costs about 1 us a cell.  20x20 r10 d40
# reads 16,928 partitions, 677,120 cells (0.67 s); the largest test query
# reads 5,640 (12x12 r6 d20), the benchmark's none.
FORMULA_LIMIT = 1_000_000


def _hilbert_formula(params, degree):
    """``count_standard(params, degree)`` in closed form: the sum of
    s_mu(1^m) * s_mu(1^n) over the partitions mu of the degree with at most r
    parts.  A standard bitableau's row and column tableaux, transposed, are two
    semistandard tableaux of one shape mu (De Concini-Eisenbud-Procesi 1980;
    Bruns-Vetter, LNM 1327, ch. 11).  Past ``FORMULA_LIMIT`` partition cells,
    counted before any partition is listed, it refuses."""
    count = _partition_count(degree, params.r)
    if count * degree > FORMULA_LIMIT:
        raise ParameterError(
            f"degree {degree} would sum the hook-content formula over {count} partitions "
            f"at m={params.m}, n={params.n}, r={params.r}; lower the degree"
        )
    return sum([_semistandard_count(mu, params.m) * _semistandard_count(mu, params.n)
                for mu in _partitions(params.r, degree)])


def generators_gamma(params, side):
    """Size-r minors pinned to the first r rows ('rows') or columns ('cols')."""
    params.require_proper_rank()
    base = tuple(range(1, params.r + 1))
    if side == "rows":
        return [Minor(base, cols) for cols in combinations(range(1, params.n + 1), params.r)]
    if side == "cols":
        return [Minor(rows, base) for rows in combinations(range(1, params.m + 1), params.r)]
    raise ParameterError(f"side must be 'rows' or 'cols', got {side!r}")
