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


def test_parse_rejects_out_of_range_indices():
    xs = XSpace(2, 2)
    with pytest.raises(ParseError):
        parse_polynomial("x[3,1]", xs)
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
