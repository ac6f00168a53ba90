"""The substitution x -> (product of generic factors), closed-form leading
monomials of standard products, and decoding them back."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from detring.errors import NotInSemigroupError, NotStandardError, ParameterError, SpaceMismatchError
from detring.generic_point import (
    SubstitutionMap,
    _cauchy_binet,
    decode_standard,
    eval_bitableau,
    initial_monomial_closed_form,
    minor_polynomial,
    phi,
)
from detring.poly import Poly, XSpace, YZSpace, parse_polynomial
from detring.straighten import StandardCombination
from detring.tableaux import Minor, Parameters, all_minors, enumerate_standard, parse_bitableau
from helpers import (
    _monomials_of_degree,
    det_expand,
    monomial_image,
    parameter_triples,
    phi_by_terms,
    random_homogeneous,
    random_monomial,
    seeded,
    variable_matrix,
)


def test_substitution_entries_have_factor_count_terms():
    params = Parameters(3, 4, 2)
    subst = SubstitutionMap(params)
    yz = YZSpace(3, 2, 4)
    for i in range(1, 4):
        for j in range(1, 5):
            entry = subst.entry(i, j)
            assert len(entry.terms) == 2
            for e, c in entry.terms.items():
                assert c == 1
                assert yz.bidegree(e) == (1, 1)


def test_single_variable_image():
    params = Parameters(2, 2, 1)
    subst = SubstitutionMap(params)
    xs = XSpace(2, 2)
    yz = YZSpace(2, 1, 2)
    img = phi(Poly.variable(xs, xs.x(1, 1)), subst)
    assert img == Poly.variable(yz, yz.y(1, 1)) * Poly.variable(yz, yz.z(1, 1))


def test_full_determinant_dies_at_low_rank_and_survives_at_full_rank():
    xs = XSpace(2, 2)
    det = parse_polynomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]", xs)
    assert phi(det, SubstitutionMap(Parameters(2, 2, 1))).terms == {}
    img = phi(det, SubstitutionMap(Parameters(2, 2, 2)))
    yz = YZSpace(2, 2, 2)
    e, c = img.leading()
    assert c == 1
    expect = [0] * yz.nvars
    for pos in (yz.y(1, 1), yz.y(2, 2), yz.z(1, 1), yz.z(2, 2)):
        expect[pos] += 1
    assert e == tuple(expect)


def test_minor_images_by_cauchy_binet_equal_the_substituted_minors():
    # Cauchy-Binet against the x-side determinant pushed through phi.
    for (m, n, r) in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        subst = SubstitutionMap(params)
        for d in all_minors(params):
            image = minor_polynomial(d, params, "YZ")
            assert image.space is params.yz_space
            assert image == phi(minor_polynomial(d, params, "X"), subst), (m, n, r, d)


def test_packed_minors_equal_the_leibniz_expansion():
    # The oracle multiplies Poly entries and signs permutations by their cycles.
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        xs, yz, subst = params.x_space, params.yz_space, SubstitutionMap(params)
        for d in all_minors(params):
            x_minor = det_expand(variable_matrix(xs, d.rows, d.cols, xs.x), xs)
            assert minor_polynomial(d, params, "X") == x_minor, (m, n, r, d)
            assert Poly._raw(yz, _cauchy_binet(d, yz)) == phi(x_minor, subst), (m, n, r, d)
    xs = XSpace(2, 2)
    assert det_expand([], xs) == minor_polynomial(Minor((), ()), Parameters(2, 2, 1), "X")


def test_oversize_minor_images_vanish():
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        for d in all_minors(params, max_size=r + 1):
            if d.size != r + 1:
                continue
            assert minor_polynomial(d, params, "YZ").terms == {}


def test_images_are_balanced_bidegree():
    rng = seeded(31)
    params = Parameters(3, 3, 2)
    subst = SubstitutionMap(params)
    xs = XSpace(3, 3)
    yz = YZSpace(3, 2, 3)
    for d in (1, 2, 3):
        f = random_homogeneous(xs, rng, d)
        img = phi(f, subst)
        for e in img.terms:
            assert yz.bidegree(e) == (d, d)


def test_phi_equals_the_term_by_term_expansion():
    rng = seeded(43)
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        subst = SubstitutionMap(params)
        xs = params.x_space
        for trial in range(6):
            terms = []
            for _ in range(rng.randint(1, 12)):
                c = rng.randint(-5, 5)
                if trial % 2:
                    c = Fraction(c, rng.randint(1, 4))
                terms.append((random_monomial(xs, rng, rng.randint(0, 4)), c))
            f = Poly(xs, terms)
            assert phi(f, subst) == phi_by_terms(f, subst), (m, n, r, f)


def test_multiples_of_oversize_minors_map_to_zero():
    rng = seeded(47)
    for m, n, r in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        subst = SubstitutionMap(params)
        xs = params.x_space
        minors = [d for d in all_minors(params, r + 1) if d.size == r + 1]
        for _ in range(4):
            f = Poly.zero(xs)
            for d in rng.sample(minors, min(2, len(minors))):
                g = Poly(xs, [(random_monomial(xs, rng, rng.randint(0, 2)), rng.randint(1, 5))])
                f = f + g * minor_polynomial(d, params, "X")
            assert f and phi(f, subst).is_zero(), (m, n, r, f)


def test_phi_refuses_an_oversized_image_even_when_it_cancels():
    params = Parameters(2, 2, 1)
    f = parse_polynomial("x[1,1]^127*x[2,2] - x[1,1]^126*x[1,2]*x[2,1]", params.x_space)
    with pytest.raises(ParameterError, match="^monomial of degree 256 exceeds the packed-exponent limit 255$"):
        phi(f, SubstitutionMap(params))


def test_phi_recursion_is_bounded_by_the_degree():
    # 2,500 variables, each in one term: the terms free of the variable taken
    # out go round a loop, so this does not recurse 2,500 deep.
    params = Parameters(50, 50, 1)
    xs = params.x_space
    f = Poly(xs, [(xs.unit(p), p + 1) for p in range(xs.nvars)])
    img = phi(f, SubstitutionMap(params))
    assert len(img) == xs.nvars


def test_phi_rejects_wrong_space():
    params = Parameters(2, 2, 1)
    with pytest.raises(SpaceMismatchError):
        phi(Poly.variable(XSpace(3, 2), 0), SubstitutionMap(params))


def test_eval_on_x_side():
    params = Parameters(2, 2, 1)
    xs = XSpace(2, 2)
    s = parse_bitableau("[1|1][2|2]")
    assert eval_bitableau(s, params, "X") == Poly.variable(xs, xs.x(1, 1)) * Poly.variable(
        xs, xs.x(2, 2)
    )


def test_x_side_lands_on_the_format_x_space_with_or_without_a_map():
    params = Parameters(2, 3, 2)
    subst = SubstitutionMap(params)
    assert subst.x_space is params.x_space
    minor = Minor((1, 2), (1, 3))
    bitab = parse_bitableau("[1 2|1 3][2|2]")
    combo = StandardCombination(params, ((Fraction(1, 2), bitab),))
    for side, space in (("X", params.x_space), ("YZ", params.yz_space)):
        for poly in (minor_polynomial(minor, params, side), eval_bitableau(bitab, params, side)):
            assert poly.space is space
        plain, mapped = combo.evaluate(side), combo.evaluate(side, subst)
        assert plain.space is space and plain == mapped
    assert subst.yz_space == params.yz_space


def test_eval_empty_product_is_one():
    params = Parameters(2, 3, 2)
    for side in ("X", "YZ"):
        v = eval_bitableau(parse_bitableau("[|]"), params, side)
        assert v.degree() == 0
        assert list(v.terms.values()) == [1]


def test_eval_commutes_with_substitution():
    params = Parameters(2, 2, 2)
    subst = SubstitutionMap(params)
    s = parse_bitableau("[1 2|1 2]")
    direct = eval_bitableau(s, params, "YZ")
    assert direct == phi(eval_bitableau(s, params, "X"), subst)
    assert direct.terms


def test_eval_rejects_out_of_range_factors():
    params = Parameters(2, 2, 2)
    with pytest.raises(ValueError):
        eval_bitableau(parse_bitableau("[1 3|1 2]"), params, "X")


def test_closed_form_single_factor():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    e = initial_monomial_closed_form(parse_bitableau("[1 2|1 2]"), params)
    expect = [0] * yz.nvars
    for pos in (yz.y(1, 1), yz.y(2, 2), yz.z(1, 1), yz.z(2, 2)):
        expect[pos] += 1
    assert e == tuple(expect)


def test_closed_form_two_factors():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    e = initial_monomial_closed_form(parse_bitableau("[1 2|1 2][2|2]"), params)
    expect = [0] * yz.nvars
    for pos in (yz.y(1, 1), yz.y(2, 2), yz.z(1, 1), yz.z(2, 2), yz.y(2, 1), yz.z(1, 2)):
        expect[pos] += 1
    assert e == tuple(expect)


def test_closed_form_rejects_bad_input():
    with pytest.raises(NotStandardError):
        initial_monomial_closed_form(parse_bitableau("[1|2][2|1]"), Parameters(2, 2, 2))
    with pytest.raises(NotStandardError):
        initial_monomial_closed_form(parse_bitableau("[1 2|1 2]"), Parameters(2, 2, 1))


def test_closed_form_matches_leading_term_small_sweep():
    for (m, n, r) in parameter_triples(2, 3):
        params = Parameters(m, n, r)
        for d in range(4):
            for s in enumerate_standard(params, d):
                e, c = eval_bitableau(s, params, "YZ").leading()
                assert c == 1
                assert e == initial_monomial_closed_form(s, params)


def test_decode_single_factor():
    params = Parameters(2, 2, 2)
    e = initial_monomial_closed_form(parse_bitableau("[1 2|1 2]"), params)
    assert str(decode_standard(e, params)) == "[1 2|1 2]"


def test_decode_unit_monomial():
    params = Parameters(3, 2, 2)
    yz = YZSpace(3, 2, 2)
    assert str(decode_standard((0,) * yz.nvars, params)) == "[|]"


def test_decode_rejects_foreign_monomials():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    lone = [0] * yz.nvars
    lone[yz.y(1, 2)] = 1
    with pytest.raises(NotInSemigroupError):
        decode_standard(tuple(lone), params)
    unbalanced = [0] * yz.nvars
    unbalanced[yz.y(1, 1)] = 1
    with pytest.raises(NotInSemigroupError):
        decode_standard(tuple(unbalanced), params)


def test_decode_rejects_negative_exponents():
    # [i] * -1 is empty, so y[1,1] = z[1,1] = -1 once decoded as [|].
    params = Parameters(2, 2, 1)
    yz = params.yz_space
    e = [0] * yz.nvars
    e[yz.y(1, 1)] = e[yz.z(1, 1)] = -1
    with pytest.raises(NotInSemigroupError, match=r"exponent -1 of y\[1,1\] is negative"):
        decode_standard(tuple(e), params)


def test_decode_refuses_wrong_lengths_increasing_columns_and_repeated_rows():
    params = Parameters(2, 2, 2)
    yz = params.yz_space
    with pytest.raises(SpaceMismatchError, match="^exponent tuple of length 7 on a space with 8 variables$"):
        decode_standard((0,) * 7, params)
    # Column 2 of each side is longer than column 1.
    e = [0] * yz.nvars
    e[yz.y(2, 2)] = e[yz.z(2, 2)] = 1
    with pytest.raises(NotInSemigroupError, match="^column lengths increase; no standard preimage$"):
        decode_standard(tuple(e), params)
    # Balanced, well-shaped columns whose one row reads y indices (1, 1).
    e = [0] * yz.nvars
    e[yz.y(1, 1)] = e[yz.y(1, 2)] = e[yz.z(1, 1)] = e[yz.z(2, 2)] = 1
    with pytest.raises(NotInSemigroupError,
                       match="^repaired rows are not strictly increasing; no standard preimage$"):
        decode_standard(tuple(e), params)
    # The same on the z side: the row reads columns (2, 1).
    e = [0] * yz.nvars
    e[yz.y(1, 1)] = e[yz.y(2, 2)] = e[yz.z(1, 2)] = e[yz.z(2, 1)] = 1
    with pytest.raises(NotInSemigroupError, match="^repaired rows are not strictly increasing"):
        decode_standard(tuple(e), params)


def test_decode_round_trip_and_injectivity():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(4):
            seen = set()
            for s in enumerate_standard(params, d):
                e = initial_monomial_closed_form(s, params)
                assert e not in seen
                seen.add(e)
                assert decode_standard(e, params) == s


def test_combination_images_equal_the_monomial_images_term_for_term():
    # The combinations come in _monomials_of_degree's order, and each image is
    # built from its prefix's with the products the reference forms, so even
    # the dict order agrees.
    for m, n, r in parameter_triples(3, 3):
        subst = SubstitutionMap(Parameters(m, n, r))
        nx = subst.x_space.nvars
        memo = {(): {0: 1}}
        for d in range(5):
            combos = list(combinations_with_replacement(range(nx), d))
            exps = list(_monomials_of_degree(nx, d))
            assert [tuple(map(c.count, range(nx))) for c in combos] == exps, (m, n, r, d)
            for c, e in zip(combos, exps):
                got, want = subst._combination_image(memo, c), monomial_image(subst, e)
                assert list(got.items()) == list(want.items()), (m, n, r, c)
