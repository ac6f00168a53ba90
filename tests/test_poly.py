"""Exact polynomial arithmetic, the fixed monomial order, and the parser."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from detring.errors import ParseError, SpaceMismatchError
from detring.poly import (
    Poly,
    XSpace,
    YZSpace,
    format_poly,
    parse_polynomial,
)
from helpers import compare_monomials, random_poly, seeded


def unit(space, pos):
    e = [0] * space.nvars
    e[pos] = 1
    return tuple(e)


def test_space_labels_and_positions_round_trip():
    xs = XSpace(2, 3)
    assert xs.nvars == 6
    for i in range(1, 3):
        for j in range(1, 4):
            pos = xs.x(i, j)
            assert xs.label(pos) == f"x[{i},{j}]"
    yz = YZSpace(3, 2, 4)
    assert yz.nvars == 3 * 2 + 2 * 4
    assert yz.label(yz.y(3, 1)) == "y[3,1]"
    assert yz.label(yz.z(2, 4)) == "z[2,4]"
    assert yz.y_count == 6


def test_variable_ranking_bottom_up_columns_then_right_left_rows():
    yz = YZSpace(2, 2, 2)
    ranked = [
        yz.y(2, 1),
        yz.y(1, 1),
        yz.y(2, 2),
        yz.y(1, 2),
        yz.z(1, 2),
        yz.z(1, 1),
        yz.z(2, 2),
        yz.z(2, 1),
    ]
    for hi, lo in zip(ranked, ranked[1:]):
        assert compare_monomials(yz, unit(yz, hi), unit(yz, lo)) > 0


def test_order_anchor_on_one_minor_image():
    yz = YZSpace(2, 2, 2)
    a = Poly.variable(yz, yz.y(1, 1)) * Poly.variable(yz, yz.z(1, 2))
    b = Poly.variable(yz, yz.y(1, 2)) * Poly.variable(yz, yz.z(2, 2))
    (ea, _), = a.terms.items()
    (eb, _), = b.terms.items()
    assert compare_monomials(yz, ea, eb) > 0
    assert (a + b).leading() == (ea, 1)


def test_degree_dominates_comparison():
    yz = YZSpace(2, 1, 2)
    cube = tuple(3 if k == yz.z(1, 1) else 0 for k in range(yz.nvars))
    square = tuple(2 if k == yz.y(2, 1) else 0 for k in range(yz.nvars))
    assert compare_monomials(yz, cube, square) > 0
    assert compare_monomials(yz, square, square) == 0


def test_order_axioms_exhaustive_on_small_space():
    yz = YZSpace(2, 2, 2)
    monos = []
    for d in range(4):
        for combo in combinations_with_replacement(range(yz.nvars), d):
            e = [0] * yz.nvars
            for k in combo:
                e[k] += 1
            monos.append(tuple(e))
    for a in monos:
        for b in monos:
            c = compare_monomials(yz, a, b)
            assert (c == 0) == (a == b)
            assert c == -compare_monomials(yz, b, a)


def test_order_is_multiplicative_on_random_triples():
    yz = YZSpace(2, 2, 2)
    rng = seeded(11)
    from helpers import random_monomial

    for _ in range(300):
        a = random_monomial(yz, rng, 5)
        b = random_monomial(yz, rng, 5)
        c = random_monomial(yz, rng, 3)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare_monomials(yz, a, b) == compare_monomials(yz, ac, bc)


def test_leading_term_of_product_is_product_of_leading_terms():
    yz = YZSpace(2, 2, 2)
    rng = seeded(7)
    for _ in range(200):
        f = random_poly(yz, rng, max_degree=3)
        g = random_poly(yz, rng, max_degree=3)
        ef, cf = f.leading()
        eg, cg = g.leading()
        eprod = tuple(x + y for x, y in zip(ef, eg))
        assert (f * g).leading() == (eprod, cf * cg)


def test_leading_term_rejects_zero():
    yz = YZSpace(2, 1, 2)
    with pytest.raises(ValueError):
        Poly.zero(yz).leading()


def test_add_sub_mul_ring_identities():
    xs = XSpace(3, 3)
    rng = seeded(3)
    for _ in range(100):
        f = random_poly(xs, rng)
        g = random_poly(xs, rng)
        h = random_poly(xs, rng)
        assert (f + (-f)).terms == {}
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_mismatched_spaces_rejected():
    f = Poly.variable(XSpace(2, 2), 0)
    g = Poly.variable(XSpace(2, 3), 0)
    with pytest.raises(SpaceMismatchError):
        f + g
    with pytest.raises(SpaceMismatchError):
        f * g


def test_scalar_operands_act_as_constants():
    xs = XSpace(2, 2)
    x11, x22 = (Poly.variable(xs, xs.x(i, i)) for i in (1, 2))
    p = x11 - 2 * x22
    one = Poly.constant(xs, 1)
    assert (p + 1).packed == (p + one).packed and str(p + 1) == "x[1,1] - 2*x[2,2] + 1"
    assert 1 + p == p + 1
    assert str(p - Fraction(1, 2)) == "x[1,1] - 2*x[2,2] - 1/2"
    assert str(2 - p) == "-x[1,1] + 2*x[2,2] + 2"
    assert (p - p).is_zero() and (p + 0) == p and (0 - p) == -p
    assert (p * 0).is_zero() and (0 * p).packed == {}
    third = Fraction(1, 3) * p
    assert third == p * Fraction(1, 3) and str(third) == "1/3*x[1,1] - 2/3*x[2,2]"
    assert all(type(c) is Fraction for c in third.packed.values())
    assert p ** 0 == one and p ** 2 == p * p
    with pytest.raises(ValueError, match="nonnegative integer"):
        p ** -1
    with pytest.raises(ValueError, match="nonnegative integer"):
        p ** 1.0
    for bad in (lambda: p + "x", lambda: "x" + p, lambda: p - "x", lambda: "x" - p,
                lambda: p * "x", lambda: p * 1.5):
        with pytest.raises(TypeError):
            bad()
    assert p != "x" and p != x11


def test_text_forms_and_space_hashes():
    xs = XSpace(2, 2)
    zero = Poly.zero(xs)
    assert (str(zero), repr(zero)) == ("0", "Poly(XSpace(2, 2), '0')")
    p = Poly.variable(xs, xs.x(1, 2)) - Fraction(3, 2)
    assert (str(p), repr(p)) == ("x[1,2] - 3/2", "Poly(XSpace(2, 2), 'x[1,2] - 3/2')")
    assert repr(YZSpace(3, 2, 4)) == "YZSpace(3, 2, 4)"
    assert XSpace(2, 3) == XSpace(2, 3) and hash(XSpace(2, 3)) == hash(XSpace(2, 3))
    assert YZSpace(2, 1, 3) == YZSpace(2, 1, 3) and hash(YZSpace(2, 1, 3)) == hash(YZSpace(2, 1, 3))
    assert XSpace(2, 3) != XSpace(3, 2) and XSpace(2, 2) != "XSpace(2, 2)"
    assert len({XSpace(2, 3), XSpace(2, 3), YZSpace(2, 1, 3)}) == 2


def test_parse_two_by_two_determinant():
    xs = XSpace(2, 2)
    f = parse_polynomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]", xs)
    a = Poly.variable(xs, xs.x(1, 1)) * Poly.variable(xs, xs.x(2, 2))
    b = Poly.variable(xs, xs.x(1, 2)) * Poly.variable(xs, xs.x(2, 1))
    assert f == a - b


def test_parse_fractional_coefficient_and_power():
    yz = YZSpace(2, 2, 2)
    f = parse_polynomial("-3/2*y[2,1]^2", yz)
    (e, c), = f.terms.items()
    assert c == Fraction(-3, 2)
    assert e[yz.y(2, 1)] == 2
    assert sum(e) == 2


def test_parse_collects_repeated_terms():
    xs = XSpace(2, 2)
    f = parse_polynomial("x[1,1] + x[1,1]", xs)
    assert format_poly(f) == "2*x[1,1]"


def test_parse_reports_error_position():
    xs = XSpace(2, 2)
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x[1,1] + ?", xs)
    assert exc.value.position == 9


PARSE_ERRORS = [
    ("", "empty input", 0),
    ("  ", "empty input", 0),
    ("+", "unexpected end of input", 1),
    ("x[1,", "expected an unsigned integer, found None", 4),
    ("3/0*x[1,1]", "zero denominator", 3),
    ("3/0", "zero denominator", 3),
    ("x[9,9]", "variable x[9,9] is not on XSpace(3, 3)", 0),
    ("x[1,1]^", "expected an unsigned integer, found None", 7),
    ("x[1,1]^x", "expected an unsigned integer, found 'x'", 7),
    ("2 x[1,1]", "expected '+', '-', or end of input, found 'x'", 2),
    ("x[1,1]**x[2,2]", "expected a variable, found '*'", 7),
    ("w[1,1]", "expected a variable, found 'w'", 0),
    ("x[1 1]", "expected ',', found '1'", 4),
    ("x[1,2,3]", "expected ']', found ','", 5),
    ("1/", "expected an unsigned integer, found None", 2),
    ("1/2/3", "expected '+', '-', or end of input, found '/'", 3),
    ("x[1,1]+", "unexpected end of input", 7),
    ("x[1,1] +  ", "unexpected end of input", 10),
    ("x[1,1]-+x[2,2]", "expected a variable, found '+'", 7),
    ("x[1,1]^2^3", "expected '+', '-', or end of input, found '^'", 8),
    ("3*", "unexpected end of input", 2),
    ("y[1,1]", "variable y[1,1] is not on XSpace(3, 3)", 0),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, XSpace(3, 3))
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parse_reads_a_non_decimal_digit_as_a_bad_token():
    # "²" is a digit to str.isdigit but no integer to int().
    with pytest.raises(ParseError) as info:
        parse_polynomial("x[1,1] + ²", XSpace(3, 3))
    assert str(info.value) == "expected a variable, found '²' (at position 9)"
    with pytest.raises(ParseError) as info:
        parse_polynomial("x[²,1]", XSpace(3, 3))
    assert str(info.value) == "expected an unsigned integer, found '²' (at position 2)"


def test_parse_rejects_out_of_range_indices():
    xs = XSpace(2, 2)
    with pytest.raises(ParseError) as info:
        parse_polynomial("x[1,1] + x[3,1]", xs)
    assert str(info.value) == "variable x[3,1] is not on XSpace(2, 2) (at position 9)"
    assert info.value.position == 9
    with pytest.raises(ParseError):
        parse_polynomial("y[1,1]", xs)


def test_print_then_parse_is_identity():
    xs = XSpace(2, 3)
    yz = YZSpace(2, 2, 2)
    rng = seeded(19)
    for space in (xs, yz):
        for _ in range(100):
            f = random_poly(space, rng, max_degree=4, max_terms=5)
            assert parse_polynomial(format_poly(f), space) == f


def test_printed_terms_descend_in_the_order():
    yz = YZSpace(2, 2, 2)
    rng = seeded(23)
    for _ in range(25):
        f = random_poly(yz, rng, max_degree=4, max_terms=6)
        exps = [e for e, _ in f.sorted_terms()]
        for a, b in zip(exps, exps[1:]):
            assert compare_monomials(yz, a, b) > 0
