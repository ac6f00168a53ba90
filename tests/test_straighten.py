"""Rewriting polynomials as combinations of standard products."""

import gc
import operator
import re
from fractions import Fraction
from importlib import import_module
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from detring import generic_point, kernels
from detring.errors import InternalCheckError, ParameterError, SpaceMismatchError
from detring.generic_point import (
    FORMATS,
    SubstitutionMap,
    _shared_map,
    decode_standard,
    eval_bitableau,
    initial_monomial_closed_form,
    minor_polynomial,
    phi,
    shared_substitution,
)
from detring.poly import Poly, XSpace, YZSpace, parse_polynomial
from detring.linalg import clear_denominators
from detring.straighten import (
    _content,
    _contents,
    _floor,
    _phi_above,
    is_in_ideal,
    straighten,
)
from detring.tableaux import Parameters, all_minors, enumerate_standard, parse_bitableau
from helpers import (
    compare_monomials,
    parameter_triples,
    random_poly,
    seeded,
    straighten_full,
)

# The benchmark's four pinned degree-6 stretch monomials at (5,5,4), and two
# that took about 1 s each with every image expanded in full.
MONOMIALS_554 = (
    "x[4,5]*x[1,2]*x[5,4]*x[3,4]*x[1,4]*x[1,3]",
    "x[2,5]*x[1,3]*x[1,4]*x[4,4]*x[4,2]*x[1,4]",
    "x[3,2]*x[3,3]*x[5,1]*x[3,3]*x[3,2]*x[1,2]",
    "x[1,1]*x[3,4]*x[4,3]*x[1,1]*x[2,2]*x[5,4]",
    "x[2,2]*x[5,4]*x[3,1]*x[1,3]*x[4,3]*x[2,5]",
    "x[3,1]*x[4,3]*x[2,5]*x[1,4]*x[1,2]*x[3,2]",
)


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
            comb = straighten(f, params)
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


def test_full_rank_membership_equals_the_substitution_answer():
    # At r = min(m, n) the ideal is zero; the shortcut must agree with phi.
    rng = seeded(23)
    for (m, n, r) in parameter_triples(3, 3):
        if r < min(m, n):
            continue
        params = Parameters(m, n, r)
        subst = SubstitutionMap(params)
        xs = params.x_space
        polys = [Poly.zero(xs)] + [random_poly(xs, rng, max_degree=3) for _ in range(10)]
        polys.append(polys[-1] - polys[-1])
        for f in polys:
            assert is_in_ideal(f, params) == phi(f, subst).is_zero() == f.is_zero()
        with pytest.raises(SpaceMismatchError):
            is_in_ideal(Poly.zero(XSpace(m + 1, n)), params)
        # An image past the packed limit is refused with phi's message.
        big = Poly.variable(xs, 0) ** 128
        with pytest.raises(ParameterError) as by_phi:
            phi(big, subst)
        with pytest.raises(ParameterError, match=str(by_phi.value)):
            is_in_ideal(big, params)


def test_full_rank_membership_does_not_substitute(monkeypatch):
    def refuse(terms, images, limit):
        raise AssertionError("expanded the image")

    # The package exports the function straighten under the module's name.
    monkeypatch.setattr(generic_point, "_horner", refuse)
    monkeypatch.setattr(import_module("detring.straighten"), "_horner", refuse, raising=False)
    params = Parameters(4, 4, 4)
    f = parse_polynomial("x[1,1]^60*x[2,2]^60", params.x_space)
    assert not is_in_ideal(f, params)
    assert is_in_ideal(f - f, params)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_membership_by_content_on_the_chart_equals_the_full_substitution(data):
    # Minor multiples spread over several contents, then terms of a content
    # already present (two factors trade columns, which keeps both contents),
    # all with denominators; about half the inputs are members.
    m, n = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
    params = Parameters(m, n, data.draw(st.integers(1, min(m, n) - 1)))
    xs = params.x_space
    minors = [d for d in all_minors(params, max_size=params.r + 1) if d.size == params.r + 1]
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    cell = st.tuples(st.integers(1, m), st.integers(1, n))

    def monomial(cells):
        out = Poly.constant(xs, 1)
        for i, j in cells:
            out = out * Poly.variable(xs, xs.x(i, j))
        return out

    f = Poly.zero(xs)
    for c, d, cells in data.draw(st.lists(st.tuples(coeff, st.sampled_from(minors),
                                                    st.lists(cell, max_size=2)), max_size=3)):
        f = f + c * minor_polynomial(d, params, "X") * monomial(cells)
    for _ in range(data.draw(st.integers(0, 2))):
        if not f.packed:
            break
        e = xs.unpack(data.draw(st.sampled_from(sorted(f.packed))))
        cells = [divmod(p, n) for p in range(xs.nvars) for _ in range(e[p])]
        a, b = data.draw(st.integers(0, len(cells) - 1)), data.draw(st.integers(0, len(cells) - 1))
        (i, j), (u, v) = cells[a], cells[b]
        cells[a], cells[b] = (i, v), (u, j)
        f = f + data.draw(coeff) * monomial([(i + 1, j + 1) for i, j in cells])
    if data.draw(st.booleans()):
        f = f + data.draw(coeff) * monomial(data.draw(st.lists(cell, max_size=4)))
    assert is_in_ideal(f, params) == phi(f, SubstitutionMap(params)).is_zero(), (params, f)


def test_a_one_term_content_answers_without_substituting(monkeypatch):
    calls = []
    horner = generic_point._horner

    def spy(terms, images, limit):
        calls.append(len(terms))
        return horner(terms, images, limit)

    monkeypatch.setattr(generic_point, "_horner", spy)
    monkeypatch.setattr(import_module("detring.straighten"), "_horner", spy, raising=False)
    params = Parameters(3, 3, 2)
    # Each term has a content of its own.
    f = parse_polynomial("x[1,1]^2 - 1/2*x[1,2]*x[2,1] + 3*x[3,3]*x[2,2]*x[1,1]", params.x_space)
    assert is_in_ideal(f, params) is False
    assert calls == []
    det = minor_polynomial(all_minors(params, 3)[-1], params, "X")
    assert is_in_ideal(det, params) and calls


def test_membership_below_full_rank_never_reads_the_full_images(monkeypatch):
    class Tripwire:
        def __getitem__(self, key):
            raise AssertionError("read the full image list")

        def __iter__(self):
            raise AssertionError("read the full image list")

    for m, n, r in ((3, 3, 2), (4, 3, 2), (4, 5, 3)):
        params = Parameters(m, n, r)
        monkeypatch.setattr(shared_substitution(params), "_images", Tripwire())
        det = minor_polynomial(all_minors(params, r + 1)[-1], params, "X")
        g = parse_polynomial("x[1,2]*x[2,1] - 2/3*x[2,2]", params.x_space)
        assert is_in_ideal(det * g, params) and is_in_ideal(det * g - det * g, params)
        assert not is_in_ideal(det * g + Poly.variable(params.x_space, 0), params)
        assert not is_in_ideal(det + det * g + g, params)


def test_membership_below_full_rank_keeps_phis_refusals_and_order():
    params = Parameters(3, 3, 2)
    subst = shared_substitution(params)
    for f in (Poly.zero(XSpace(4, 3)), Poly.variable(XSpace(4, 3), 0) ** 200):
        with pytest.raises(SpaceMismatchError) as by_phi:
            phi(f, subst)
        with pytest.raises(SpaceMismatchError, match=f"^{re.escape(str(by_phi.value))}$"):
            is_in_ideal(f, params)
    # An image past the packed limit is refused before any term is looked at,
    # also when every component has one term.
    big = Poly.variable(params.x_space, 0) ** 128
    for f in (big, big - Poly.variable(params.x_space, 1) ** 128):
        with pytest.raises(ParameterError, match="^monomial of degree 256 exceeds the packed-exponent limit 255$"):
            is_in_ideal(f, params)
    assert str(by_phi.value) == "polynomial on XSpace(4, 3), substitution for XSpace(3, 3)"


def test_combination_serializes_to_pairs():
    params = Parameters(2, 2, 2)
    f = parse_polynomial("x[1,2]*x[2,1]", XSpace(2, 2))
    pairs = straighten(f, params).as_pairs()
    assert pairs == [
        {"coeff": "1", "bitableau": "[1|1][2|2]"},
        {"coeff": "-1", "bitableau": "[1 2|1 2]"},
    ]


def oracle_cases(max_m=4, max_n=4, per_format=3):
    """Random polynomials of degree <= 5 with mixed contents and rational
    coefficients on every format up to max_m x max_n, each rank."""
    rng = seeded(211)
    for m, n, r in parameter_triples(max_m, max_n):
        params = Parameters(m, n, r)
        for _ in range(per_format):
            yield params, random_poly(params.x_space, rng, max_degree=5, max_terms=4)


def expansion(comb):
    return [(c, str(b)) for c, b in comb.terms]


def test_straighten_equals_the_loop_without_a_window():
    for params, f in oracle_cases():
        assert expansion(straighten(f, params)) == expansion(straighten_full(f, params)), (params, f)
    params = Parameters(5, 5, 4)
    for text in MONOMIALS_554:
        f = parse_polynomial(text, params.x_space)
        assert expansion(straighten(f, params)) == expansion(straighten_full(f, params)), text


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_the_windowed_image_is_phi_cut_at_the_floor(data):
    # Random polynomials with denominators, up to degree 4 on formats up to
    # 4 x 4; a term may repeat another's content, so images can cancel.
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    params = Parameters(m, n, data.draw(st.integers(1, min(m, n))))
    xs, subst = params.x_space, shared_substitution(params)
    coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    f = Poly.zero(xs)
    for c, cells in data.draw(st.lists(st.tuples(coeff, st.lists(st.integers(0, xs.nvars - 1),
                                                                 max_size=4)), max_size=5)):
        term = Poly.constant(xs, c)
        for p in cells:
            term = term * Poly.variable(xs, p)
        f = f + term
    scale, scaled = clear_denominators(f.packed)
    contents = _contents(xs, scaled)
    image = {key: c * scale for key, c in phi(f, SubstitutionMap(params)).packed.items()}
    if not contents:
        assert not image
        return
    floor = _floor(contents, subst.yz_space)
    assert _phi_above(contents, floor, subst) == {k: c for k, c in image.items() if k >= floor}


def test_straighten_never_calls_phi_or_horner(monkeypatch):
    rng = seeded(41)
    cases = [(params, f) for params, f in oracle_cases(3, 3, 1)]
    params = Parameters(4, 4, 3)
    det = minor_polynomial(all_minors(params, 4)[-1], params, "X")
    three = minor_polynomial(all_minors(params, 3)[0], params, "X")
    cases += [(params, det * random_poly(params.x_space, rng, max_degree=1) + three)]
    params = Parameters(5, 5, 4)
    cases += [(params, parse_polynomial(MONOMIALS_554[0], params.x_space))]
    want = [expansion(straighten_full(f, params)) for params, f in cases]

    def refuse(*args):
        raise AssertionError("formed the full image")

    module = import_module("detring.straighten")
    for name in ("phi", "_horner"):
        monkeypatch.setattr(generic_point, name, refuse)
        monkeypatch.setattr(module, name, refuse, raising=False)
    assert [expansion(straighten(f, params)) for params, f in cases] == want


def compositions(total, parts):
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def by_content(params, degree):
    """(row content, column content) -> the standard bitableaux of the degree
    with those contents."""
    out = {}
    for b in enumerate_standard(params, degree):
        out.setdefault(_content(b, params), []).append(b)
    return out


def leads(params, bitableaux):
    """The sorted packed closed-form leads of the bitableaux."""
    return sorted(kernels.pack(initial_monomial_closed_form(b, params)) for b in bitableaux)


def test_floor_is_the_least_candidate_lead_of_every_small_content():
    for m, n, r in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(5):
            candidates = by_content(params, d)
            # Every pair of contents of one degree has a candidate: a chain of 1-minors.
            assert set(candidates) == set(product(compositions(d, m), compositions(d, n)))
            for content, bs in candidates.items():
                assert _floor({content}, params.yz_space) == leads(params, bs)[0], (params, content)


def test_floor_is_the_least_candidate_lead_on_a_sample_of_larger_contents():
    rng = seeded(307)
    for m, n, r, d in ((4, 4, 3, 5), (5, 4, 2, 5), (5, 5, 4, 5)):
        params = Parameters(m, n, r)
        candidates = by_content(params, d)
        sample = rng.sample(sorted(candidates), 25)
        least = {c: leads(params, candidates[c])[0] for c in sample}
        for content in sample:
            assert _floor({content}, params.yz_space) == least[content], (params, content)
        # The floor of several contents is the least of theirs.
        assert _floor(set(sample), params.yz_space) == min(least.values())


def test_a_floor_one_candidate_too_high_changes_some_expansion(monkeypatch):
    # The mutation: the second-least candidate lead of f's contents as the floor.
    module = import_module("detring.straighten")

    def second_least(contents, yz):
        keys = []
        for rows, cols in contents:
            params = Parameters(len(rows), len(cols), yz.r)
            keys += leads(params, by_content(params, sum(rows)).get((rows, cols), ()))
        keys.sort()
        return keys[min(1, len(keys) - 1)]

    monkeypatch.setattr(module, "_floor", second_least)
    changed = 0
    for params, f in oracle_cases(3, 3, 2):
        try:
            changed += expansion(straighten(f, params)) != expansion(straighten_full(f, params))
        except InternalCheckError:
            changed += 1
    assert changed > 0


def test_a_decoded_bitableau_of_a_foreign_content_is_refused(monkeypatch):
    module = import_module("detring.straighten")
    monkeypatch.setattr(module, "decode_standard", lambda exps, params: parse_bitableau("[1|1][1|1]"))
    params = Parameters(2, 2, 2)
    f = parse_polynomial("x[1,2]*x[2,1]", params.x_space)
    with pytest.raises(InternalCheckError, match="content"):
        straighten(f, params)


def test_straighten_leaves_no_reference_cycle():
    # A cycle would hold the remainder and the image cache until the cyclic
    # collector ran, so peak memory would depend on when that happened.
    params = Parameters(4, 4, 3)
    f = parse_polynomial("x[1,2]*x[2,1]*x[3,4]*x[4,3] - 2/3*x[1,1]*x[2,3]*x[4,4]", params.x_space)
    gc.collect()
    gc.disable()
    try:
        assert straighten(f, params).terms
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_maps_keep_interleaved_formats_apart():
    # Formats in turn with their transposes and with two ranks of one size,
    # each query on a Parameters of its own as the command line builds them:
    # a map, or a minor image, shared by two of them would answer for the
    # wrong space.
    rng = seeded(307)
    for m, n, r in [(4, 4, 3), (3, 3, 2), (3, 4, 2), (4, 3, 2), (4, 4, 2), (3, 3, 2), (4, 4, 3)]:
        params, fresh = Parameters(m, n, r), SubstitutionMap(Parameters(m, n, r))
        det = minor_polynomial(all_minors(params, r + 1)[-1], params, "X")
        f, g, h = (random_poly(params.x_space, rng, max_degree=3) for _ in range(3))
        for p in (f, g, h, f * det, f * det + g):
            assert expansion(straighten(p, Parameters(m, n, r))) == expansion(
                straighten_full(p, params, fresh)
            ), ((m, n, r), p)
            assert is_in_ideal(p, Parameters(m, n, r)) == phi(p, fresh).is_zero(), ((m, n, r), p)
    shared = shared_substitution(Parameters(3, 3, 2))
    assert shared is shared_substitution(Parameters(3, 3, 2)) and shared.minor_images
    # Decoded factors are the format's shared minors, whatever Parameters asks.
    lead = initial_monomial_closed_form(parse_bitableau("[1 2|1 3][3|3]"), Parameters(4, 4, 3))
    assert all(map(operator.is_, decode_standard(lead, Parameters(4, 4, 3)).factors,
                   decode_standard(lead, Parameters(4, 4, 3)).factors))


def test_membership_and_straightening_answer_for_their_own_rank():
    # A map of the other rank of 3 x 3 is built first.  Passed in its place,
    # it once answered the 2-minor's membership for its own rank instead.
    for r, other in ((1, 2), (2, 1)):
        SubstitutionMap(Parameters(3, 3, other))
        shared_substitution(Parameters(3, 3, other))
        params = Parameters(3, 3, r)
        f = parse_polynomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]", params.x_space)
        assert is_in_ideal(f, params) is (r == 1)
        combo = straighten(f, params)
        assert [str(b) for _, b in combo] == ([] if r == 1 else ["[1 2|1 2]"])
        assert combo.evaluate("YZ") == phi(f, SubstitutionMap(params))


def test_the_shared_maps_are_bounded():
    for m, n, r in list(parameter_triples(4, 4))[:FORMATS + 2]:
        params = Parameters(m, n, r)
        xs = params.x_space
        f = Poly.variable(xs, 0) * Poly.variable(xs, xs.nvars - 1)
        assert straighten(f, params).terms
    assert _shared_map.cache_info().currsize == FORMATS


def test_a_shared_map_is_no_reference_cycle():
    # A dropped map that formed a cycle would hold its images until the
    # cyclic collector ran.
    _shared_map.cache_clear()
    params = Parameters(3, 4, 2)
    f = parse_polynomial("x[1,2]*x[2,1]*x[3,4] - 1/2*x[1,1]*x[2,3]", params.x_space)
    gc.collect()
    gc.disable()
    try:
        assert straighten(f, params).terms
        assert is_in_ideal(f, params) is False
        assert _shared_map.cache_info().currsize == 1
        assert gc.collect() == 0
        _shared_map.cache_clear()  # as the cache drops its oldest map
        assert gc.collect() == 0
    finally:
        gc.enable()
