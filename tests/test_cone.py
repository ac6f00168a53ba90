"""The exponent-vector semigroup, its linear description, and the shifted-set
comparison behind the power classification."""

import random
from fractions import Fraction
from math import ceil

import pytest

from detring import kernels
from detring.cone import (
    _shifted_points,
    build_system,
    conic_equality_check,
    exponent_arrays,
    generators_semigroup,
    lattice_points,
    semigroup_points,
    semigroup_vs_cone,
    witness_vector,
)
from detring.counting import _monomials_of_degree
from detring.errors import ParameterError
from detring.poly import YZSpace
from detring.tableaux import Parameters, enumerate_standard
from helpers import cone_membership, parameter_triples


def vector_of(params, pairs):
    yz = YZSpace(params.m, params.r, params.n)
    v = [0] * yz.nvars
    for pos, val in pairs:
        v[pos] = val
    return tuple(v)


def test_system_shape_at_three_by_three_rank_two():
    params = Parameters(3, 3, 2)
    sys_e = build_system(params, "E")
    assert len(sys_e.zero_positions) == 2
    assert len(sys_e.alpha_inequalities) == 2
    assert len(sys_e.beta_inequalities) == 2
    assert len(sys_e.nonneg_positions) == 8
    assert len(sys_e.couplings) == 2
    sys_t = build_system(params, "Etilde")
    assert sys_t.couplings == sys_e.couplings[:-1]
    assert sys_t.zero_positions == sys_e.zero_positions
    assert len(sys_e.equations) == 2 + 2
    assert len(sys_e.inequalities) == 2 + 2 + 8
    with pytest.raises(ParameterError):
        build_system(params, "F")


def test_membership_examples():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    sys_e = build_system(params, "E")
    good = vector_of(
        params, [(yz.y(1, 1), 1), (yz.y(2, 2), 1), (yz.z(1, 1), 1), (yz.z(2, 2), 1)]
    )
    assert cone_membership(good, sys_e)
    bad = vector_of(params, [(yz.y(1, 2), 1)])
    assert not cone_membership(bad, sys_e)
    assert cone_membership((0,) * yz.nvars, sys_e)
    with pytest.raises(ParameterError):
        cone_membership((0,) * (yz.nvars - 1), sys_e)


def test_membership_accepts_rationals():
    params = Parameters(2, 2, 1)
    yz = YZSpace(2, 1, 2)
    sys_e = build_system(params, "E")
    v = vector_of(params, [(yz.y(1, 1), Fraction(1, 2)), (yz.z(1, 1), Fraction(1, 2))])
    assert cone_membership(v, sys_e)


def test_generator_counts():
    assert len(generators_semigroup(Parameters(2, 2, 1), "E")) == 4
    assert len(generators_semigroup(Parameters(2, 2, 2), "E")) == 5
    for (m, n, r) in parameter_triples(4, 4):
        from math import comb

        expect = sum(comb(m, t) * comb(n, t) for t in range(1, r + 1))
        assert len(generators_semigroup(Parameters(m, n, r), "E")) == expect


def test_generators_lie_in_their_cone():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for variant in ("E", "Etilde"):
            system = build_system(params, variant)
            for g in generators_semigroup(params, variant):
                assert cone_membership(g, system)


def test_pure_factor_generators_only_in_the_relaxed_cone():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    sys_e = build_system(params, "E")
    sys_t = build_system(params, "Etilde")
    pure = vector_of(params, [(yz.z(1, 1), 1), (yz.z(2, 2), 1)])
    assert cone_membership(pure, sys_t)
    assert not cone_membership(pure, sys_e)


def test_semigroup_equals_lattice_small_square():
    rep = semigroup_vs_cone(Parameters(2, 2, 1), "E", 4)
    assert rep.equal and rep.power_test_ok
    assert rep.first_mismatch is None
    counts = dict((d, (s, l)) for d, s, l in rep.degree_counts)
    assert counts[4] == (9, 9)
    assert counts[2] == (4, 4)
    assert counts[1] == (0, 0)
    rep2 = semigroup_vs_cone(Parameters(2, 2, 2), "E", 4)
    assert rep2.equal and rep2.power_test_ok


def test_lattice_slices_match_standard_enumeration():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(4):
            pts = lattice_points(params, "E", y_degree=d)
            assert len(pts) == len(enumerate_standard(params, d))


def test_semigroup_points_requires_generators():
    with pytest.raises(ParameterError):
        semigroup_points([], 3)
    pts = semigroup_points([(1, 0), (0, 2)], 2)
    assert pts == {(0, 0), (1, 0), (2, 0), (0, 2)}


def test_witness_entries_and_equations():
    params = Parameters(3, 3, 2)
    w = witness_vector(params, 1, Fraction(1, 2))
    arrays = exponent_arrays(params, w)
    assert arrays == {
        "alpha": [["1/2", 0], ["-1/2", "1/2"], [0, "-1/2"]],
        "beta": [[0, 0, 0], [0, 0, 0]],
    }
    sys_e = build_system(params, "E")
    assert kernels.system_holds(sys_e.equations, (), w)
    with pytest.raises(ParameterError):
        witness_vector(params, 1, Fraction(3, 2))
    with pytest.raises(ParameterError):
        witness_vector(params, 1, 0)


def test_exponent_arrays_renders_integers_plainly():
    params = Parameters(2, 2, 1)
    yz = YZSpace(2, 1, 2)
    v = vector_of(params, [(yz.y(2, 1), 3)])
    assert exponent_arrays(params, v) == {"alpha": [[0], [3]], "beta": [[0, 0]]}


def test_shifted_comparison_passes_below_the_boundary():
    rep = conic_equality_check(Parameters(3, 3, 2), 1)
    assert rep.equal and rep.expected_equal and rep.consistent
    assert rep.ideal_side_count == rep.shifted_side_count == 27
    assert rep.first_counterexample is None


def test_shifted_comparison_fails_above_the_boundary():
    rep = conic_equality_check(Parameters(3, 3, 2), 2)
    assert not rep.equal and not rep.expected_equal and rep.consistent
    assert rep.first_counterexample is not None


def test_shifted_comparison_counterexample_is_explicit():
    rep = conic_equality_check(Parameters(2, 3, 1), 2)
    assert not rep.equal and rep.consistent
    assert rep.first_counterexample == {
        "vector": {"alpha": [[2], [-1]], "beta": [[1, 0, 0]]},
        "side": "shifted-only",
    }


def test_shifted_comparison_preconditions():
    params = Parameters(3, 3, 2)
    with pytest.raises(ParameterError):
        conic_equality_check(params, 0)
    with pytest.raises(ParameterError):
        conic_equality_check(Parameters(2, 2, 2), 1)
    with pytest.raises(ParameterError):
        conic_equality_check(params, 1, eps=1)


def test_transposed_parameters_cover_the_other_ideal():
    params = Parameters(2, 4, 1)
    flipped = params.transposed()
    assert (flipped.m, flipped.n, flipped.r) == (4, 2, 1)
    for t in (1, 2, 3):
        rep = conic_equality_check(flipped, t)
        assert rep.equal and rep.consistent
    rep = conic_equality_check(flipped, 4)
    assert not rep.equal and rep.consistent


def test_semigroup_points_refuses_bounds_past_the_packed_limit():
    gens = generators_semigroup(Parameters(2, 2, 1), "E")
    with pytest.raises(ParameterError):
        semigroup_points(gens, kernels.MAX_DEGREE + 1)
    pts = semigroup_points([(1,)], kernels.MAX_DEGREE)
    assert pts == {(d,) for d in range(kernels.MAX_DEGREE + 1)}


def _box(params, offsets, total):
    """Vectors off the zero positions of (1), offset entrywise, with entry sum <= total."""
    yz = params.yz_space
    zero = set(build_system(params, "E").zero_positions)
    free = [p for p in range(yz.nvars) if p not in zero]
    for d in range(total + 1):
        for values in _monomials_of_degree(len(free), d):
            v = list(offsets)
            for p, x in zip(free, values):
                v[p] += x
            yield tuple(v)


def test_lattice_points_match_brute_force_membership():
    # Every free entry of a cone point is nonnegative, so the box holds all of them.
    bound = 4
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        zeros = (0,) * params.yz_space.nvars
        for variant in ("E", "Etilde"):
            system = build_system(params, variant)
            brute = sorted(v for v in _box(params, zeros, bound) if cone_membership(v, system))
            for b in range(bound + 1):
                expect = [v for v in brute if sum(v) <= b]
                assert lattice_points(params, variant, bound=b) == expect, (params, variant, b)
        yc = params.yz_space.y_count
        system = build_system(params, "E")
        for d in range(bound // 2 + 1):
            expect = sorted(
                v for v in _box(params, zeros, 2 * d)
                if sum(v[:yc]) == d and cone_membership(v, system)
            )
            assert lattice_points(params, "E", y_degree=d) == expect, (params, d)


def _random_shift(params, rng):
    """A rational vector on the free alpha entries (rows i >= j), zero elsewhere."""
    yz = params.yz_space
    w = [Fraction(0)] * yz.nvars
    for j in range(1, params.r + 1):
        for i in range(j, params.m + 1):
            w[yz.y(i, j)] = Fraction(rng.randint(-2, 4), 3)
    return tuple(w)


def test_shifted_points_match_brute_force():
    # The witness columns share their prefix sums, so random shifts are added
    # to exercise prefix caps that are not integers.
    rng = random.Random(7)
    cases = []
    for (m, n, r) in parameter_triples(3, 3, proper=True):
        params = Parameters(m, n, r)
        for t in (1, 2, 3):
            for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
                cases.append((params, witness_vector(params, t, eps)))
        cases += [(params, _random_shift(params, rng)) for _ in range(3)]
    assert (Parameters(2, 3, 1), witness_vector(Parameters(2, 3, 1), 2, Fraction(1, 2))) in cases
    top = 8
    negative = 0
    for params, w in cases:
        system = build_system(params, "E")
        lows = tuple(ceil(x) for x in w)
        brute = [
            v for v in _box(params, lows, top - sum(lows))
            if kernels.system_holds(system.equations, (), v)
            and kernels.system_holds((), system.inequalities, [a - b for a, b in zip(v, w)])
        ]
        for bound in range(top + 1):
            expect = {v for v in brute if sum(v) <= bound}
            assert _shifted_points(params, w, bound) == expect, (params, w, bound)
        negative += sum(1 for v in brute if min(v) < 0)
    assert negative > 0
