"""Packed monomials against the exponent-tuple reference they encode."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from detring import kernels
from detring.cli import run
from detring.errors import ParameterError
from detring.generic_point import SubstitutionMap, phi
from detring.poly import Poly, XSpace, YZSpace
from detring.straighten import straighten
from detring.tableaux import Parameters
from helpers import drevlex_key

# Derandomized like the seeded tests elsewhere in the suite, so a run repeats.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _capped(exps, max_degree):
    out, total = [], 0
    for e in exps:
        e = min(e, max_degree - total)
        out.append(e)
        total += e
    return tuple(out)


def exponent_tuples(nvars, max_degree=kernels.MAX_DEGREE):
    """Exponent tuples of length nvars and total degree at most max_degree."""
    entries = st.lists(st.integers(0, max_degree), min_size=nvars, max_size=nvars)
    return entries.map(lambda e: _capped(e, max_degree))


def tuple_pairs(max_degree):
    return st.integers(1, 10).flatmap(
        lambda n: st.tuples(exponent_tuples(n, max_degree), exponent_tuples(n, max_degree))
    )


def term_dicts(nvars, max_degree=4):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.dictionaries(exponent_tuples(nvars, max_degree), coeffs, max_size=5)


def reference_product(a, b):
    """Convolution of two exponent-tuple-keyed term dicts."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def packed(terms):
    return {kernels.pack(e): c for e, c in terms.items()}


@SETTINGS
@given(st.integers(1, 40).flatmap(exponent_tuples))
def test_pack_unpack_round_trip(exps):
    key = kernels.pack(exps)
    assert kernels.unpack(key, len(exps)) == exps
    assert key < kernels.key_limit(len(exps))


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_y_degree_and_degree_are_fields(m, r, n, data):
    yz = YZSpace(m, r, n)
    exps = data.draw(exponent_tuples(yz.nvars, 40))
    key = kernels.pack(exps)
    assert yz.y_degree(key) == yz.bidegree(exps)[0]
    assert kernels.prefix_sum(key, yz.nvars - 1) == sum(exps)


@SETTINGS
@given(tuple_pairs(kernels.MAX_DEGREE))
def test_packed_order_is_drevlex(pair):
    a, b = pair
    ka, kb = kernels.pack(a), kernels.pack(b)
    assert (ka < kb) == (drevlex_key(a) < drevlex_key(b))
    assert (ka == kb) == (a == b)


@SETTINGS
@given(tuple_pairs(kernels.MAX_DEGREE // 2))
def test_packed_sum_is_the_monomial_product(pair):
    a, b = pair
    assert kernels.pack(a) + kernels.pack(b) == kernels.pack(tuple(x + y for x, y in zip(a, b)))


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(term_dicts(n), term_dicts(n))))
def test_poly_mul_matches_tuple_convolution(pair):
    a, b = pair
    nvars = len(next(iter(a), next(iter(b), (0,))))
    got = kernels.poly_mul(packed(a), packed(b), kernels.key_limit(nvars))
    assert got == packed(reference_product(a, b))
    if got:
        assert kernels.leading_monomial(got) == kernels.pack(
            max(reference_product(a, b), key=drevlex_key)
        )


@SETTINGS
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(term_dicts(n), term_dicts(n), exponent_tuples(n, 8))
))
def test_poly_mul_above_keeps_the_product_at_or_above_the_floor(args):
    a, b, low = args
    floor = kernels.pack(low)
    full = packed(reference_product(a, b))
    got = kernels.poly_mul_above(packed(a), sorted(packed(b).items(), reverse=True), floor)
    assert got == {e: c for e, c in full.items() if e >= floor}


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_overflow_guard_raises(nvars, data):
    limit = kernels.key_limit(nvars)
    a = data.draw(exponent_tuples(nvars).filter(any))
    pos = data.draw(st.integers(0, nvars - 1))
    k = data.draw(st.integers(kernels.MAX_DEGREE + 1 - sum(a), kernels.MAX_DEGREE))
    b = tuple(k if i == pos else 0 for i in range(nvars))
    with pytest.raises(ParameterError, match=f"degree {sum(a) + k} exceeds"):
        kernels.poly_mul({kernels.pack(a): 1}, {kernels.pack(b): 1}, limit)
    with pytest.raises(ParameterError):
        kernels.pack(tuple(x + y for x, y in zip(a, b)))


def test_oversized_input_exits_one(capsys):
    # The image of x[1,1]^200 has degree 400 on the y/z side.
    code = run(["member", "--m", "1", "--n", "1", "--r", "1", "--poly", "x[1,1]^200"])
    assert code == 1
    assert "packed-exponent limit" in capsys.readouterr().err


def small_polys(params, max_degree=3):
    xs = XSpace(params.m, params.n)
    return term_dicts(xs.nvars, max_degree).map(lambda t: Poly(xs, t))


formats = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda mn: st.builds(Parameters, st.just(mn[0]), st.just(mn[1]), st.integers(1, min(mn)))
)


@SETTINGS
@given(formats.flatmap(lambda p: st.tuples(st.just(p), small_polys(p))))
def test_straightening_evaluates_to_phi(case):
    params, f = case
    subst = SubstitutionMap(params)
    assert straighten(f, params).evaluate("YZ", subst) == phi(f, subst)


@SETTINGS
@given(formats.flatmap(lambda p: st.tuples(st.just(p), small_polys(p, 2), small_polys(p, 2))))
def test_phi_is_multiplicative(case):
    params, f, g = case
    subst = SubstitutionMap(params)
    assert phi(f * g, subst) == phi(f, subst) * phi(g, subst)
    assert phi(f + g, subst) == phi(f, subst) + phi(g, subst)


def test_straightening_scales_denominators_back():
    params = Parameters(2, 2, 2)
    f = Poly(XSpace(2, 2), {(0, 1, 1, 0): Fraction(2, 3), (2, 0, 0, 0): Fraction(1, 4)})
    got = [(c, str(b)) for c, b in straighten(f, params).terms]
    assert got == [
        (Fraction(2, 3), "[1|1][2|2]"),
        (Fraction(1, 4), "[1|1][1|1]"),
        (Fraction(-2, 3), "[1 2|1 2]"),
    ]
