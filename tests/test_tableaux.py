"""Minors, bitableaux, the comparison rule, standardness, enumeration."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from detring.counting import mu_power_direct
from detring.errors import ParameterError, ParseError
from detring.invariants import _tilde_basis_count
from detring.straighten import StandardCombination
from detring.tableaux import (
    Bitableau,
    Minor,
    Parameters,
    _chain_batches,
    _conjugate,
    _count_pinned,
    _semistandard_count,
    _side_count,
    _standard_texts,
    all_minors,
    count_standard,
    enumerate_standard,
    generators_gamma,
    is_standard,
    minor_leq,
    parse_bitableau,
    parse_minor,
)
from helpers import (
    format_bitableau,
    format_minor,
    minors_by_loops,
    parameter_triples,
    successors_by_minor_leq,
    tilde_basis_count_by_listing,
)


def test_parameters_validate_rank_bounds():
    Parameters(3, 2, 2)
    with pytest.raises(ParameterError):
        Parameters(3, 2, 3)
    with pytest.raises(ParameterError):
        Parameters(0, 2, 1)
    with pytest.raises(ParameterError):
        Parameters(2, 2, 0)
    Parameters(2, 2, 1).require_proper_rank()
    with pytest.raises(ParameterError):
        Parameters(2, 2, 2).require_proper_rank()


def test_value_classes_are_immutable_and_compare_by_their_fields():
    params = Parameters(3, 3, 2)
    minor = Minor([1, 2], (2, 3))
    bitab = parse_bitableau("[1 2|2 3][3|3]")
    combo = StandardCombination(params, ((1, bitab),))
    values = [
        (params, Parameters(3, 3, 2), Parameters(3, 3, 1), "Parameters(m=3, n=3, r=2)"),
        (minor, parse_minor("[1 2|2 3]"), Minor((1, 2), (2, 4)), "Minor(rows=(1, 2), cols=(2, 3))"),
        (bitab, Bitableau([minor, Minor((3,), (3,))]), Bitableau([minor]),
         f"Bitableau(factors=({minor!r}, {Minor((3,), (3,))!r}))"),
        (combo, StandardCombination(Parameters(3, 3, 2), ((1, bitab),)),
         StandardCombination(params, ()), f"StandardCombination(params={params!r}, terms=((1, {bitab!r}),))"),
    ]
    for value, equal, other, text in values:
        assert value == equal and hash(value) == hash(equal) and value != other
        assert repr(value) == text
        name = value._fields[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
    assert params != (3, 3, 2) and minor != ((1, 2), (2, 3))


def test_minor_requires_strict_increase_and_equal_lengths():
    with pytest.raises(ValueError):
        Minor((2, 1), (1, 2))
    with pytest.raises(ValueError):
        Minor((1,), (1, 2))
    d = Minor((1, 3), (2, 4))
    assert d.size == 2
    with pytest.raises(ValueError):
        d.check_bounds(Parameters(3, 3, 2))


def test_minor_text_round_trip():
    # The text is cached on first read; the second read must agree with it.
    for text in ("[1 2|1 3]", "[1|1]", "[1 2 3|2 3 4]", "[1 10|2 11]", "[9 10 11|1 2 12]"):
        d = parse_minor(text)
        assert str(d) == text
        assert str(d) == format_minor(d) == text
    with pytest.raises(ParseError):
        parse_minor("[1,2|1]")
    with pytest.raises(ParseError):
        parse_minor("1 2|1 2")


def test_bitableau_shape_weakly_decreasing():
    a = Minor((1, 2), (1, 2))
    b = Minor((2,), (2,))
    s = Bitableau((a, b))
    assert s.shape == (2, 1)
    assert s.degree == 3
    with pytest.raises(ValueError):
        Bitableau((b, a))


def test_bitableau_text_round_trip():
    for text in ("[1 2|1 2][2|3]", "[|]", "[1 2|1 2]"):
        assert str(parse_bitableau(text)) == text
    with pytest.raises(ParseError):
        parse_bitableau("[1|1]x")
    with pytest.raises(ParseError):
        parse_bitableau("[1|1][|]")


def test_comparison_rule_examples():
    assert minor_leq(parse_minor("[1 2|1 2]"), parse_minor("[1|1]"))
    assert not minor_leq(parse_minor("[1|2]"), parse_minor("[2|1]"))
    assert not minor_leq(parse_minor("[2|1]"), parse_minor("[1|2]"))
    # a shorter minor never precedes a longer one
    assert not minor_leq(parse_minor("[1|1]"), parse_minor("[1 2|1 2]"))


def test_comparison_is_a_partial_order_exhaustively():
    params = Parameters(3, 3, 3)
    minors = all_minors(params)
    assert len(minors) == 9 + 9 + 1
    for d in minors:
        assert minor_leq(d, d)
    for d1 in minors:
        for d2 in minors:
            if minor_leq(d1, d2) and minor_leq(d2, d1):
                assert d1 == d2
            for d3 in minors:
                if minor_leq(d1, d2) and minor_leq(d2, d3):
                    assert minor_leq(d1, d3)


def test_standardness_examples():
    assert is_standard(parse_bitableau("[1 2|1 2][2|2]"))
    assert not is_standard(parse_bitableau("[1|2][2|1]"))
    assert is_standard(parse_bitableau("[|]"))


def test_enumerate_degree_zero_is_the_empty_product():
    out = enumerate_standard(Parameters(3, 2, 2), 0)
    assert out == [Bitableau(())]


def test_enumerate_small_square_case_counts_nine():
    out = enumerate_standard(Parameters(2, 2, 1), 2)
    assert len(out) == 9
    texts = {str(s) for s in out}
    # of the ten two-factor products only the crossed pair straightens away
    assert "[1|2][2|1]" not in texts
    assert "[1|1][2|2]" in texts
    assert "[2|1][2|2]" in texts


def test_enumerate_fixed_left_tableau_slice_counts_six():
    out = enumerate_standard(Parameters(3, 3, 2), 4)
    picked = [
        s
        for s in out
        if s.shape == (2, 2) and all(f.rows == (1, 2) for f in s.factors)
    ]
    assert len(picked) == 6
    cols = sorted(tuple(f.cols for f in s.factors) for s in picked)
    assert cols == [
        ((1, 2), (1, 2)),
        ((1, 2), (1, 3)),
        ((1, 2), (2, 3)),
        ((1, 3), (1, 3)),
        ((1, 3), (2, 3)),
        ((2, 3), (2, 3)),
    ]


def test_enumerate_is_deterministic_and_standard():
    for (m, n, r) in ((2, 2, 1), (3, 2, 2), (2, 3, 1)):
        params = Parameters(m, n, r)
        for d in range(4):
            out = enumerate_standard(params, d)
            assert out == enumerate_standard(params, d)
            assert len({str(s) for s in out}) == len(out)
            for s in out:
                assert is_standard(s)
                assert all(x >= y for x, y in zip(s.shape, s.shape[1:]))
                assert all(f.size <= r for f in s.factors)
                assert s.degree == d


def _brute_force_standard(params, degree):
    """Every minor sequence of the degree with weakly decreasing sizes <= r,
    kept when standard, sorted by (-size, rows, cols) factor by factor."""
    minors = all_minors(params, params.r)

    def sequences(left, top):
        if not left:
            yield ()
            return
        for d in minors:
            if d.size <= min(left, top):
                for rest in sequences(left - d.size, d.size):
                    yield (d,) + rest

    found = [Bitableau(s) for s in sequences(degree, params.r) if is_standard(Bitableau(s))]
    return sorted(found, key=lambda b: [(-f.size, f.rows, f.cols) for f in b.factors])


def test_enumerate_matches_brute_force_in_order():
    formats = [(m, n) for m in range(1, 4) for n in range(1, 4)] + [(2, 4), (4, 2)]
    for m, n in formats:
        for r in range(1, min(m, n) + 1):
            params = Parameters(m, n, r)
            for d in range(5):
                assert enumerate_standard(params, d) == _brute_force_standard(params, d), (m, n, r, d)


def test_enumerated_bitableaux_pass_the_checking_constructor_and_format_alike():
    # The walk builds its output through _raw_bitableau, which skips the checks.
    for m, n, r in parameter_triples(4, 4):
        for d in range(5):
            for b in enumerate_standard(Parameters(m, n, r), d):
                assert Bitableau(b.factors) == b, (m, n, r, d)
                assert str(b) == format_bitableau(b), (m, n, r, d)


def test_standard_walk_leaves_no_reference_cycle():
    # A cycle would hold the output list and the minor table until the cyclic
    # collector ran, so peak memory would depend on when that happened.
    gc.collect()
    gc.disable()
    try:
        for walk in (enumerate_standard, _standard_texts):
            assert walk(Parameters(3, 4, 2), 3)
            assert gc.collect() == 0, walk.__name__
    finally:
        gc.enable()


def test_count_standard_leaves_no_reference_cycle():
    # The pinned counts of mu_power_direct and _tilde_basis_count share the walk.
    counts = [
        lambda: count_standard(Parameters(5, 5, 3), 6),
        lambda: mu_power_direct(Parameters(4, 5, 2), "q", 4),
        lambda: _tilde_basis_count(Parameters(4, 5, 2), 7, 3),
        lambda: _tilde_basis_count(Parameters(4, 5, 2), 1, 5),
    ]
    gc.collect()
    gc.disable()
    try:
        for count in counts:
            assert count()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_successor_lists_equal_the_pairwise_filter_in_order():
    for m, n, r in parameter_triples(5, 5):
        params = Parameters(m, n, r)
        table = params.minor_table
        for s in range(1, r + 1):
            for prev in table[None, s]:
                for t in range(1, s + 1):
                    expect = successors_by_minor_leq(table, prev, t)
                    assert table[prev, t] == expect, (m, n, r, prev, t)


def test_minor_table_fills_only_the_sizes_a_query_reads():
    # The counts build no minor: they read successor positions of row and
    # column tuples, of lengths 1 and 2 at degree 2 and of length r alone
    # for a chain of pinned size-r generators.
    params = Parameters(8, 8, 6)
    assert count_standard(params, 2) == 2080  # every quadric: C(64 + 1, 2)
    assert not params.minor_table
    assert {len(low) for low, _ in params.minor_table.positions} == {1, 2}
    params = Parameters(8, 8, 6)
    assert mu_power_direct(params, "p", 3) == 2520
    assert not params.minor_table
    assert {len(low) for low, _ in params.minor_table.positions} == {6}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.lists(st.integers(1, 7), max_size=6))
def test_one_side_of_a_shape_counts_its_conjugates_semistandard_tableaux(size, parts):
    # Tuple k read as column k of a tableau: columns grow strictly, rows
    # weakly, so one side of shape sigma is a semistandard tableau of the
    # conjugate shape with entries in 1..size.
    shape = tuple(sorted(parts, reverse=True))
    table = Parameters(size, size, size).minor_table
    assert _side_count(table, size, shape) == _semistandard_count(_conjugate(shape), size)


def test_pinned_counts_equal_the_listing_on_both_sides():
    # Rows pinned to 1..r: the pure minors [1..r|s] lead, and the listing
    # weighs each standard bitableau of degree left by the chains of column
    # tuples s that grow into its first factor's columns; the mirror for cols.
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for pins in range(4):
            for left in range(5):
                rows = tilde_basis_count_by_listing(params, left, r * pins + left)
                cols = tilde_basis_count_by_listing(params, r * pins + left, left)
                assert _count_pinned(params, "rows", pins, left) == rows, (m, n, r, pins, left)
                assert _count_pinned(params, "cols", pins, left) == cols, (m, n, r, pins, left)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 4),
       st.integers(0, 6))
def test_pinned_counts_transpose_with_the_format(m, n, r, pins, left):
    r = min(r, m, n)
    rows = _count_pinned(Parameters(m, n, r), "rows", pins, left)
    assert rows == _count_pinned(Parameters(n, m, r), "cols", pins, left)


def test_all_minors_are_the_tables_own_objects():
    params = Parameters(4, 5, 2)
    minors = all_minors(params, 3)
    table = params.minor_table
    expect = [d for t in (1, 2, 3) for d in table[None, t]]
    assert len(minors) == len(expect) == 20 + 60 + 40
    assert all(a is b for a, b in zip(minors, expect))
    assert enumerate_standard(params, 1)[0].factors[0] is minors[0]


def test_all_minors_match_the_nested_loop():
    for m in range(1, 6):
        for n in range(1, 6):
            params = Parameters(m, n, 1)
            for k in (None, *range(min(m, n) + 2)):
                assert all_minors(params, k) == minors_by_loops(params, k), (m, n, k)


def test_count_standard_matches_the_enumeration():
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for d in range(6):
            assert count_standard(params, d) == len(enumerate_standard(params, d)), (m, n, r, d)
    params = Parameters(5, 5, 3)
    assert count_standard(params, 5) == len(enumerate_standard(params, 5)) == 118178
    with pytest.raises(ParameterError):
        count_standard(Parameters(2, 2, 1), -1)


def test_row_generator_family():
    got = {str(d) for d in generators_gamma(Parameters(3, 3, 2), "rows")}
    assert got == {"[1 2|1 2]", "[1 2|1 3]", "[1 2|2 3]"}
    assert {str(d) for d in generators_gamma(Parameters(2, 2, 1), "rows")} == {"[1|1]", "[1|2]"}


def test_column_generator_family_count():
    out = generators_gamma(Parameters(4, 3, 2), "cols")
    assert len(out) == 6
    assert all(d.cols == (1, 2) for d in out)
    with pytest.raises(ParameterError):
        generators_gamma(Parameters(4, 3, 2), "diag")


def test_chain_groups_expand_to_the_enumeration():
    # Each (head, tails) group stands for head + tail per tail; degree 0 and
    # the degrees a single factor fills are groups with an empty head or tail.
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for d in range(7):
            expect = enumerate_standard(params, d)
            texts = [head + tail for batch in _standard_texts(params, d)
                     for head, tails in batch for tail in tails]
            assert texts == [str(b) for b in expect], (m, n, r, d)
            chains = [head + tail for batch in _chain_batches(params, d, lambda x: (x,), ())
                      for head, tails in batch for tail in tails]
            assert chains == [b.factors for b in expect], (m, n, r, d)
            count = sum(len(tails) for batch in _standard_texts(params, d) for _, tails in batch)
            assert count == count_standard(params, d) == len(expect), (m, n, r, d)
