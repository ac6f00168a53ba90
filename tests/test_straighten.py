"""Rewriting polynomials as combinations of standard products."""

from fractions import Fraction

import pytest

from detring.generic_point import SubstitutionMap, eval_bitableau, initial_monomial_closed_form, phi
from detring.poly import Poly, XSpace, YZSpace, parse_polynomial
from detring.straighten import StandardCombination, is_in_ideal, straighten
from detring.tableaux import Parameters, all_minors, enumerate_standard, parse_bitableau
from helpers import compare_monomials, parameter_triples, random_poly, seeded


def expand(comb, params, subst):
    """Image of a standard combination under the substitution, exactly."""
    space = YZSpace(params.m, params.r, params.n)
    acc = Poly.zero(space)
    for coeff, bitab in comb.terms:
        acc = acc + phi(eval_bitableau(bitab, params, "X"), subst) * Poly.constant(space, coeff)
    return acc


def test_crossed_product_full_rank():
    params = Parameters(2, 2, 2)
    f = parse_polynomial("x[1,2]*x[2,1]", XSpace(2, 2))
    got = [(c, str(s)) for c, s in straighten(f, params).terms]
    assert got == [(1, "[1|1][2|2]"), (-1, "[1 2|1 2]")]


def test_crossed_product_rank_one():
    params = Parameters(2, 2, 1)
    f = parse_polynomial("x[1,2]*x[2,1]", XSpace(2, 2))
    got = [(c, str(s)) for c, s in straighten(f, params).terms]
    assert got == [(1, "[1|1][2|2]")]


def test_identity_on_standard_evaluations():
    for text in ("[1 2|1 2]", "[1|1][2|2]", "[1 2|1 2][2|2]"):
        params = Parameters(2, 2, 2)
        s = parse_bitableau(text)
        comb = straighten(eval_bitableau(s, params, "X"), params)
        assert [(c, str(b)) for c, b in comb.terms] == [(1, text)]


def test_zero_and_scalar_inputs():
    params = Parameters(2, 2, 1)
    xs = XSpace(2, 2)
    assert straighten(Poly.zero(xs), params).is_zero()
    comb = straighten(Poly.constant(xs, Fraction(7, 3)), params)
    assert [(c, str(b)) for c, b in comb.terms] == [(Fraction(7, 3), "[|]")]


def test_result_is_standard_ordered_and_sound():
    rng = seeded(101)
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        subst = SubstitutionMap(params)
        xs = XSpace(m, n)
        space = YZSpace(m, r, n)
        for _ in range(6):
            f = random_poly(xs, rng, max_degree=3, max_terms=4)
            comb = straighten(f, params, subst)
            keys = [initial_monomial_closed_form(b, params) for _, b in comb.terms]
            for a, b in zip(keys, keys[1:]):
                assert compare_monomials(space, a, b) > 0
            assert expand(comb, params, subst) == phi(f, subst)


def test_linearity_as_formal_sums():
    params = Parameters(3, 2, 1)
    xs = XSpace(3, 2)
    rng = seeded(5)
    f = random_poly(xs, rng, max_degree=2)
    g = random_poly(xs, rng, max_degree=2)
    merged = {}
    for comb in (straighten(f, params), straighten(g, params)):
        for c, b in comb.terms:
            merged[str(b)] = merged.get(str(b), 0) + c
    merged = {k: v for k, v in merged.items() if v}
    direct = {str(b): c for c, b in straighten(f + g, params).terms}
    assert direct == merged


def test_term_count_bounded_by_slice_dimension():
    params = Parameters(3, 3, 1)
    xs = XSpace(3, 3)
    rng = seeded(13)
    dims = {d: len(enumerate_standard(params, d)) for d in range(4)}
    for _ in range(10):
        f = random_poly(xs, rng, max_degree=3, max_terms=5)
        comb = straighten(f, params)
        per_degree = {}
        for _, b in comb.terms:
            per_degree[b.degree] = per_degree.get(b.degree, 0) + 1
        for d, k in per_degree.items():
            assert k <= dims[d]


def test_ideal_membership_of_oversize_minors():
    for (m, n, r) in parameter_triples(3, 3, proper=True):
        params = Parameters(m, n, r)
        for d in all_minors(params, max_size=r + 1):
            if d.size == r + 1:
                f = eval_bitableau(parse_bitableau(str(d)), params, "X")
                assert is_in_ideal(f, params)


def test_ideal_membership_negative_and_product_closure():
    params = Parameters(2, 2, 1)
    xs = XSpace(2, 2)
    assert not is_in_ideal(parse_polynomial("x[1,1]", xs), params)
    det = parse_polynomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]", xs)
    rng = seeded(17)
    for _ in range(10):
        g = random_poly(xs, rng, max_degree=2)
        assert is_in_ideal(g * det, params)
        assert straighten(g * det, params).is_zero()


def test_combination_serializes_to_pairs():
    params = Parameters(2, 2, 2)
    f = parse_polynomial("x[1,2]*x[2,1]", XSpace(2, 2))
    pairs = straighten(f, params).as_pairs()
    assert pairs == [
        {"coeff": "1", "bitableau": "[1|1][2|2]"},
        {"coeff": "-1", "bitableau": "[1 2|1 2]"},
    ]
