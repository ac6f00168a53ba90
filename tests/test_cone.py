"""The exponent-vector semigroup, its cone against the brute-force linear
description, and the shifted-set comparison behind the power classification."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, comb

import pytest

from detring import cone, kernels
from detring.cone import (
    WORK_LIMIT,
    _blocks,
    _cone_report,
    _join,
    _pairs,
    _shifted_bounds,
    _sides,
    _zeros,
    conic_equality_check,
    exponent_arrays,
    generators_semigroup,
    lattice_points,
    semigroup_points,
    semigroup_vs_cone,
    witness_vector,
)
from detring.counting import hilbert_function
from detring.errors import ParameterError
from detring.poly import YZSpace
from detring.tableaux import (
    Parameters,
    _semistandard_count,
    _tilde_basis_count,
    count_standard,
    enumerate_standard,
)
from helpers import (
    _monomials_of_degree,
    closure_cone_layers,
    cone_membership,
    cone_system,
    lattice_slice,
    parameter_triples,
    run_child,
)


def vector_of(params, pairs):
    yz = YZSpace(params.m, params.r, params.n)
    v = [0] * yz.nvars
    for pos, val in pairs:
        v[pos] = val
    return tuple(v)


def test_system_shape_at_three_by_three_rank_two():
    # The oracle's families: 2 zero entries (1) and 2 couplings (5); 2 + 2
    # inequalities (2), (3) and 8 nonnegative entries (4).
    eqs, ineqs = cone_system(Parameters(3, 3, 2), "E")
    assert [len(f) for f in eqs] == [1, 1, 12, 6]
    assert [len(f) for f in ineqs] == [2, 4, 2, 4] + [1] * 8
    assert cone_system(Parameters(3, 3, 2), "Etilde") == (eqs[:-1], ineqs)


def test_variants_other_than_e_and_etilde_are_refused():
    params = Parameters(3, 3, 2)
    with pytest.raises(ParameterError, match="variant"):
        generators_semigroup(params, "F")
    with pytest.raises(ParameterError, match="variant"):
        semigroup_vs_cone(params, "F")
    with pytest.raises(ParameterError, match="variant"):
        lattice_points(params, "F", bound=2)


def test_membership_examples():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    good = vector_of(
        params, [(yz.y(1, 1), 1), (yz.y(2, 2), 1), (yz.z(1, 1), 1), (yz.z(2, 2), 1)]
    )
    assert cone_membership(good, params)
    bad = vector_of(params, [(yz.y(1, 2), 1)])
    assert not cone_membership(bad, params)
    assert cone_membership((0,) * yz.nvars, params)
    with pytest.raises(ParameterError):
        cone_membership((0,) * (yz.nvars - 1), params)


def test_membership_accepts_rationals():
    params = Parameters(2, 2, 1)
    yz = YZSpace(2, 1, 2)
    v = vector_of(params, [(yz.y(1, 1), Fraction(1, 2)), (yz.z(1, 1), Fraction(1, 2))])
    assert cone_membership(v, params)


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
            for g in generators_semigroup(params, variant):
                assert cone_membership(g, params, variant)


def test_pure_factor_generators_only_in_the_relaxed_cone():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    pure = vector_of(params, [(yz.z(1, 1), 1), (yz.z(2, 2), 1)])
    assert cone_membership(pure, params, "Etilde")
    assert not cone_membership(pure, params, "E")


def _counts(rep):
    """{degree: (semigroup count, lattice count)}."""
    return {c["degree"]: (c["semigroup"], c["lattice"]) for c in rep["degree_counts"]}


def test_semigroup_equals_lattice_small_square():
    rep = semigroup_vs_cone(Parameters(2, 2, 1), "E", 4)
    assert rep["equal"] and rep["power_test_ok"]
    assert rep["first_mismatch"] is None
    counts = _counts(rep)
    assert counts[4] == (9, 9)
    assert counts[2] == (4, 4)
    assert counts[1] == (0, 0)
    rep2 = semigroup_vs_cone(Parameters(2, 2, 2), "E", 4)
    assert rep2["equal"] and rep2["power_test_ok"]


def test_semigroup_report_names_the_first_mismatch_and_runs_the_probe(monkeypatch):
    params = Parameters(2, 2, 1)
    gens = generators_semigroup(params, "E")
    g = min(gens)
    # Generating with 2g in place of g keeps 2g but not its root g.
    doubled = [tuple(2 * e for e in g)] + [h for h in gens if h != g]
    monkeypatch.setattr(cone, "generators_semigroup", lambda params, variant="E": doubled)
    rep = semigroup_vs_cone(params, "E", 4)
    assert not rep["equal"] and not rep["ok"]
    assert not rep["power_test_ok"]
    assert rep["first_mismatch"] == {"vector": exponent_arrays(params, g), "side": "lattice-only"}
    counts = _counts(rep)
    assert counts[2] == (3, 4)
    # Degree 4 misses g + h for the two generators h sharing a row or a column with g.
    assert counts[4] == (7, 9)


def test_lattice_slices_match_standard_enumeration():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(4):
            pts = lattice_slice(params, d)
            assert len(pts) == len(enumerate_standard(params, d))


def test_pairs_are_the_partition_signatures_with_blocks_on_both_sides():
    # Family (2) gives an alpha side whose column sums are no partition no
    # block, so those signatures are not paired at all.
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        zeros = _zeros(m, r)
        for d in range(9):
            for variant in ("E", "Etilde"):
                every = []  # sa over every r-tuple, as family (5) alone allows
                for da in range(d + 1):
                    c, rest = divmod(2 * da - d, r)
                    if not rest and (c == 0 or variant == "Etilde"):
                        every += [(sa, tuple(x - c for x in sa))
                                  for sa in _monomials_of_degree(r, da) if min(sa) >= c]
                partition = [pair for pair in every if list(pair[0]) == sorted(pair[0], reverse=True)]
                assert list(_pairs(variant, r, (d,))) == partition, (params, variant, d)
                assert all(not _blocks(m, r, sa, zeros, zeros)
                           for sa, _ in every if (sa, _) not in partition), (params, variant, d)
                for _, _, alphas, betas in _sides(params, _pairs(variant, r, (d,))):
                    assert alphas and betas, (params, variant, d)


def test_semigroup_points_requires_generators():
    with pytest.raises(ParameterError):
        semigroup_points([], 3)
    pts = semigroup_points([(1, 0), (0, 2)], 2)
    assert pts == {(0, 0), (1, 0), (2, 0), (0, 2)}


def test_semigroup_points_refuses_malformed_generators(monkeypatch):
    # Unequal lengths once read as points with negative entries; a negative
    # entry once failed as a degree past the packed limit.
    def refuse(g):
        raise AssertionError("packed a generator")

    monkeypatch.setattr(kernels, "pack", refuse)
    for gens in ([(1, 0), (1,)], [(1,), (0, 1)], [(-1, 2)], [(0, 1), (2, -1)]):
        with pytest.raises(ParameterError, match="nonnegative exponent tuple of length"):
            semigroup_points(gens, 2)


def test_witness_entries_and_equations():
    params = Parameters(3, 3, 2)
    w = witness_vector(params, 1, Fraction(1, 2))
    arrays = exponent_arrays(params, w)
    assert arrays == {
        "alpha": [["1/2", 0], ["-1/2", "1/2"], [0, "-1/2"]],
        "beta": [[0, 0, 0], [0, 0, 0]],
    }
    assert kernels.system_holds(cone_system(params, "E")[0], (), w)
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
    assert rep["equal"] and rep["expected_equal"] and rep["consistent"]
    assert rep["ideal_side_count"] == rep["shifted_side_count"] == 27
    assert rep["first_counterexample"] is None


def test_shifted_comparison_fails_above_the_boundary():
    rep = conic_equality_check(Parameters(3, 3, 2), 2)
    assert not rep["equal"] and not rep["expected_equal"] and rep["consistent"]
    assert rep["first_counterexample"] is not None


def test_shifted_comparison_counterexample_is_explicit():
    rep = conic_equality_check(Parameters(2, 3, 1), 2)
    assert not rep["equal"] and rep["consistent"]
    assert rep["first_counterexample"] == {
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
        assert rep["equal"] and rep["consistent"]
    rep = conic_equality_check(flipped, 4)
    assert not rep["equal"] and rep["consistent"]


def test_semigroup_points_refuses_bounds_past_the_packed_limit():
    gens = generators_semigroup(Parameters(2, 2, 1), "E")
    with pytest.raises(ParameterError):
        semigroup_points(gens, kernels.MAX_DEGREE + 1)
    pts = semigroup_points([(1,)], kernels.MAX_DEGREE)
    assert pts == {(d,) for d in range(kernels.MAX_DEGREE + 1)}


def _box(params, offsets, total):
    """Vectors off the zero positions of (1), offset entrywise, with entry sum <= total.

    Each free entry is at or above its offset, or exactly one of them is 1
    below it, so a test over the box also sees the nonnegative family (4).
    """
    yz = params.yz_space
    zero = {f[0][0] for f in cone_system(params, "E")[0] if len(f) == 1}
    free = [p for p in range(yz.nvars) if p not in zero]
    for d in range(total + 1):
        for values in _monomials_of_degree(len(free), d):
            v = list(offsets)
            for p, x in zip(free, values):
                v[p] += x
            yield tuple(v)
            for p, x in zip(free, values):
                if not x:
                    v[p] -= 1
                    yield tuple(v)
                    v[p] += 1


def test_lattice_points_match_brute_force_membership():
    # Every free entry of a cone point is nonnegative, so the box holds all of them.
    bound = 4
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        zeros = (0,) * params.yz_space.nvars
        for variant in ("E", "Etilde"):
            brute = sorted(
                v for v in _box(params, zeros, bound) if cone_membership(v, params, variant)
            )
            for b in range(bound + 1):
                expect = [v for v in brute if sum(v) <= b]
                got = sorted(lattice_points(params, variant, bound=b))
                assert got == expect, (params, variant, b)
        yc = params.yz_space.y_count
        for d in range(bound // 2 + 1):
            expect = sorted(
                v for v in _box(params, zeros, 2 * d)
                if sum(v[:yc]) == d and cone_membership(v, params)
            )
            assert sorted(lattice_slice(params, d)) == expect, (params, d)


def _shifted_points(params, w, bound):
    """Side B of the conic check as tuples: witness-shifted alpha blocks joined
    to ``_sides``' beta blocks, as ``conic_equality_check`` joins them."""
    shifted = _shifted_bounds(params, w)
    sides = _sides(params, _pairs("E", params.r, range(bound + 1)))
    return {a + b for sa, _, _, betas in sides
            for a in _blocks(params.m, params.r, sa, *shifted) for b in betas}


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
        eqs, ineqs = cone_system(params, "E")
        lows = tuple(ceil(x) for x in w)
        brute = [
            v for v in _box(params, lows, top - sum(lows))
            if kernels.system_holds(eqs, (), v)
            and kernels.system_holds((), ineqs, [a - b for a, b in zip(v, w)])
        ]
        for bound in range(top + 1):
            expect = {v for v in brute if sum(v) <= bound}
            assert _shifted_points(params, w, bound) == expect, (params, w, bound)
        negative += sum(1 for v in brute if min(v) < 0)
    assert negative > 0


def _cone_reference(params, variant, bound, gens):
    """The cone report's fields from the tuple sets: counts, equality, probe, first mismatch."""
    sg = semigroup_points(gens, bound)
    lat = lattice_points(params, variant, bound=bound)
    counts = tuple(
        (d, sum(1 for v in sg if sum(v) == d), sum(1 for v in lat if sum(v) == d))
        for d in range(bound + 1)
    )
    power_ok = all(
        tuple(e // k for e in u) in sg for u in sg for k in (2, 3) if not any(e % k for e in u)
    )
    first = None
    if sg != lat:
        v = min(sg ^ lat)
        side = "semigroup-only" if v in sg else "lattice-only"
        first = {"vector": exponent_arrays(params, v), "side": side}
    return counts, sg == lat, power_ok, first


def test_streamed_report_equals_the_tuple_reference(monkeypatch):
    def fields(rep):
        counts = tuple((c["degree"], c["semigroup"], c["lattice"]) for c in rep["degree_counts"])
        return counts, rep["equal"], rep["power_test_ok"], rep["first_mismatch"]

    for (m, n, r) in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        gens = generators_semigroup(params, "E")
        for bound in range(7):
            rep = semigroup_vs_cone(params, "E", bound)
            assert fields(rep) == _cone_reference(params, "E", bound, gens), (params, bound)
            assert rep["equal"]
    # Without its least generator the semigroup misses points, so the report
    # takes the mismatch path.
    real = cone.generators_semigroup

    def without_least(params, variant="E"):
        gens = real(params, variant)
        return [g for g in gens if g != min(gens)]

    monkeypatch.setattr(cone, "generators_semigroup", without_least)
    for (m, n, r) in [(2, 2, 1), (2, 3, 2), (3, 3, 2), (4, 3, 1)]:
        params = Parameters(m, n, r)
        for variant in ("E", "Etilde"):
            gens = without_least(params, variant)
            for bound in range(2, 7):
                rep = semigroup_vs_cone(params, variant, bound)
                expect = _cone_reference(params, variant, bound, gens)
                assert not rep["equal"]
                assert fields(rep) == expect, (params, variant, bound)


def _conic_reference(params, t, eps, bound):
    """Side A, side B and the named first counterexample, from the tuple sets."""
    rr = params.yz_space.y(params.r, params.r)
    side_a = {v for v in lattice_points(params, "E", bound=bound) if v[rr] >= t}
    side_b = _shifted_points(params, witness_vector(params, t, eps), bound)
    first = None
    if side_a != side_b:
        v = min(side_a ^ side_b)
        side = "ideal-only" if v in side_a else "shifted-only"
        first = {"vector": exponent_arrays(params, v), "side": side}
    return len(side_a), len(side_b), side_a == side_b, first


def _conic_fields(rep):
    keys = ("ideal_side_count", "shifted_side_count", "equal", "first_counterexample")
    return tuple(rep[key] for key in keys)


def _conic_grid():
    """(params, t, eps, bound) over proper formats up to 4x4, t = m - r + 1 past
    the boundary (where shifted points have negative entries), and the
    benchmark's 4x5 and 5x5 rank-2 formats at bounds 2, 4 and 6."""
    epsilons = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))
    small = [(Parameters(m, n, r), range(2, 7)) for (m, n, r) in parameter_triples(4, 4, proper=True)]
    large = [(Parameters(m, 5, 2), (2, 4, 6)) for m in (4, 5)]
    for params, bounds in small + large:
        for t in range(1, params.m - params.r + 2):
            for eps in epsilons:
                for bound in bounds:
                    yield params, t, eps, bound


def test_conic_check_equals_a_tuple_reference():
    mismatches = 0
    for params, t, eps, bound in _conic_grid():
        rep = conic_equality_check(params, t, eps, bound)
        assert _conic_fields(rep) == _conic_reference(params, t, eps, bound), (params, t, eps, bound)
        mismatches += not rep["equal"]
    assert mismatches > 0
    # Past degree 255, where no point packs.
    params = Parameters(2, 2, 1)
    rep = conic_equality_check(params, 1, Fraction(1, 2), 256)
    got = _conic_fields(rep)
    assert got == _conic_reference(params, 1, Fraction(1, 2), 256)


def test_conic_check_compares_blocks_without_building_points(monkeypatch):
    # The two sides share their beta blocks, so only alpha block lists are
    # compared: no point is joined or packed.
    cases = [*_conic_grid(), (Parameters(2, 2, 1), 1, Fraction(1, 2), 256)]
    expected = [conic_equality_check(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("built a point")

    monkeypatch.setattr(cone, "_join", refuse)
    monkeypatch.setattr(kernels, "pack", refuse)
    for case, expect in zip(cases, expected):
        assert conic_equality_check(*case) == expect, case


def test_hook_content_counts_the_zero_bound_blocks():
    # Every side of 1..7 rows and rank 1..4 with column sums up to 3, and up
    # to 5 where that stays quick; non-partition sums have no block.
    cases = [(size, r, 3) for size in range(1, 8) for r in range(1, min(4, size) + 1)]
    cases += [(size, r, 5) for size in range(1, 6) for r in range(1, min(3, size) + 1)]
    for size, r, top in cases:
        zeros = _zeros(size, r)
        for sums in product(range(top + 1), repeat=r):
            blocks = _blocks(size, r, sums, zeros, zeros)
            assert _semistandard_count(sums, size) == len(blocks), (size, r, sums)
    assert _semistandard_count((), 3) == 1 and _semistandard_count((2, 1), 3) == 8
    # More nonzero rows than entries: no tableau, though the shape is a partition.
    assert _semistandard_count((1, 1, 1), 2) == 0 == _semistandard_count((1, 2), 4)


def test_pair_counts_by_hook_content_are_the_basis_counts():
    # The work budget counts each signature pair as s_sa(1^m) * s_sb(1^n) points.
    for (m, n, r) in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for variant in ("E", "Etilde"):
            for d in range(7):
                counts = Counter()
                for sa, sb in _pairs(variant, r, (d,)):
                    counts[sum(sa)] += _semistandard_count(sa, m) * _semistandard_count(sb, n)
                for d1 in range(d + 1):
                    if variant == "E":
                        expect = count_standard(params, d1) if 2 * d1 == d else 0
                    else:
                        expect = _tilde_basis_count(params, d1, d - d1)
                    assert counts[d1] == expect, (params, variant, d, d1)


def test_conic_check_builds_beta_blocks_only_where_the_alpha_lists_differ(monkeypatch):
    # The beta blocks are counted by hook-content; an n-row block is built
    # only for a signature whose alpha lists differ, for the least point.
    real, calls = cone._blocks, []

    def spy(size, r, sums, lows, offsets):
        calls.append((size, sums))
        return real(size, r, sums, lows, offsets)

    monkeypatch.setattr(cone, "_blocks", spy)
    for (m, n, r) in [(3, 4, 2), (4, 3, 2), (2, 4, 1), (4, 5, 2), (5, 4, 2), (3, 5, 1)]:
        params = Parameters(m, n, r)
        zeros = _zeros(m, r)
        for t in range(1, m - r + 2):
            shifted = _shifted_bounds(params, witness_vector(params, t, Fraction(1, 2)))
            ideal = (zeros[:-1] + [(t,) + zeros[-1][1:]], zeros)
            calls.clear()
            rep = conic_equality_check(params, t, Fraction(1, 2), 6)
            alphas = [sums for size, sums in calls if size == m]
            differ = [sa for sa in alphas[::2] if real(m, r, sa, *ideal) != real(m, r, sa, *shifted)]
            assert [sums for size, sums in calls if size == n] == differ
            assert rep["equal"] == (t <= m - r) == (not differ), (params, t)


def test_join_keys_are_the_packed_points():
    # lattice_points and _shifted_points are checked against brute force above.
    for (m, n, r) in parameter_triples(3, 4):
        params = Parameters(m, n, r)
        for variant in ("E", "Etilde"):
            for d in range(7):
                keys = _join(params, _pairs(variant, r, (d,)))
                points = {v for v in lattice_points(params, variant, bound=d) if sum(v) == d}
                assert keys == {kernels.pack(v) for v in points}, (params, variant, d)


def test_lattice_hilbert_counts_without_unpacking(monkeypatch):
    def refuse(key, nvars):
        raise AssertionError("unpacked a point")

    monkeypatch.setattr(kernels, "unpack", refuse)
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(4):
            assert hilbert_function(params, d, "lattice") == count_standard(params, d)


def test_negative_bounds_are_refused():
    params = Parameters(3, 3, 2)
    with pytest.raises(ParameterError, match="nonnegative"):
        lattice_points(Parameters(2, 2, 1), "E", bound=-1)
    with pytest.raises(ParameterError, match="nonnegative"):
        lattice_points(params, "Etilde", bound=-1)
    with pytest.raises(ParameterError, match="nonnegative"):
        semigroup_vs_cone(params, "E", -1)
    with pytest.raises(ParameterError, match="nonnegative"):
        conic_equality_check(params, 1, Fraction(1, 2), -1)


def _closure_report(params, bound):
    """The E payload with every semigroup layer from the closure (the oracle)."""
    return _cone_report(params, "E", bound, closure_cone_layers(params, "E", bound))


def _spy(monkeypatch, name):
    """Count the calls of ``cone.<name>``, which still runs."""
    calls, real = [], getattr(cone, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cone, name, spy)
    return calls


def test_chain_certificate_equals_the_closure_without_running_it(monkeypatch):
    cases = [(Parameters(m, n, r), b) for (m, n, r) in parameter_triples(4, 4) for b in range(9)]
    cases.append((Parameters(4, 5, 2), 10))
    expected = [_closure_report(params, b) for params, b in cases]

    def refuse(gens, bound):
        raise AssertionError("ran the closure")

    monkeypatch.setattr(cone, "_semigroup_layers", refuse)
    for (params, b), expect in zip(cases, expected):
        rep = semigroup_vs_cone(params, "E", b)
        assert rep == expect, (params, b)
        assert rep["ok"]


def _shifted_lead(i, src, dst):
    """``generators_semigroup`` with generator i's unit at position src moved to dst."""
    real = cone.generators_semigroup

    def shifted(params, variant="E"):
        gens = [list(g) for g in real(params, variant)]
        assert gens[i][src] > 0
        gens[i][src] -= 1
        gens[i][dst] += 1
        return [tuple(g) for g in gens]

    return shifted


def test_a_shifted_lead_falls_back_to_the_closure(monkeypatch):
    # Moving [1|2]'s z[1,2] to z[1,1] repeats [1|1]'s lead: every chain lead
    # is still a lattice point, so only the distinctness count can fail.
    # Moving [1|1]'s z[1,1] to y[2,1] leaves the E cone.
    for m, n, r in [(2, 2, 1), (2, 3, 2), (3, 3, 2), (4, 3, 1)]:
        params = Parameters(m, n, r)
        yz = params.yz_space
        for i, src, dst in [(1, yz.z(1, 2), yz.z(1, 1)), (0, yz.z(1, 1), yz.y(2, 1))]:
            with monkeypatch.context() as patch:
                patch.setattr(cone, "generators_semigroup", _shifted_lead(i, src, dst))
                walks, closures = _spy(patch, "_chain_layers"), _spy(patch, "_closure_layers")
                rep = semigroup_vs_cone(params, "E", 6)
                assert (len(walks), len(closures)) == (1, 1)
                assert rep == _closure_report(params, 6), (params, i)
                assert not rep["equal"] and rep["first_mismatch"] is not None


def test_a_dropped_degree_six_point_is_named_as_by_the_closure(monkeypatch):
    real_join = cone._join

    def dropping(params, pairs, *args, **kwargs):
        pairs = list(pairs)
        points = real_join(params, pairs, *args, **kwargs)
        if pairs and sum(map(sum, pairs[0])) == 6:
            points.discard(min(points))
        return points

    monkeypatch.setattr(cone, "_join", dropping)
    for m, n, r in [(2, 2, 1), (3, 3, 2), (4, 3, 1), (4, 4, 2)]:
        params = Parameters(m, n, r)
        with monkeypatch.context() as patch:
            walks, closures = _spy(patch, "_chain_layers"), _spy(patch, "_closure_layers")
            rep = semigroup_vs_cone(params, "E", 8)
            assert (len(walks), len(closures)) == (1, 1)  # the fallback, from degree 6 on
        assert rep == _closure_report(params, 8), params
        assert rep["first_mismatch"]["side"] == "semigroup-only"
        counts = _counts(rep)
        assert all(counts[d][0] == counts[d][1] for d in range(6))
        assert counts[6][0] == counts[6][1] + 1


def test_chain_certificate_peak_memory():
    # One point set per degree peaks near 4.1 MB; the closure's last 2r
    # layers held beside each lattice set reached 8.6 MB.
    tracemalloc.start()
    try:
        rep = semigroup_vs_cone(Parameters(4, 5, 2), "E", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"] and peak < 6_000_000


def test_work_limit_prediction():
    # The largest test query, below the limit: certify at 2x2, r = 1, bound
    # 256, whose conic check takes the E budget.  The largest cone-check
    # query, 4x5 at bound 10, predicts 46,278.
    assert sum(count_standard(Parameters(2, 2, 1), k) for k in range(129)) == 723905 < WORK_LIMIT
    assert sum(count_standard(Parameters(4, 5, 2), k) for k in range(6)) == 46278
    # Below the limit the refusal skips the count: it is bounded by the x-monomials.
    for (m, n, r) in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for top in range(5):
            assert sum(count_standard(params, k) for k in range(top + 1)) <= comb(m * n + top, top)
    with pytest.raises(ParameterError, match="more than 1000000 cone points at m=3, n=3, r=2"):
        semigroup_vs_cone(Parameters(3, 3, 2), "E", 255)


def _refusal_in_a_child(call):
    """(seconds, message) of ``call``'s ParameterError, raised in a child
    interpreter, so that a relapse into a hang is bounded by its timeout."""
    code = (
        "from time import perf_counter\n"
        "from detring.cone import lattice_points, semigroup_vs_cone\n"
        "from detring.errors import ParameterError\n"
        "from detring.tableaux import Parameters\n"
        "start = perf_counter()\n"
        "try:\n"
        f"    {call}\n"
        "except ParameterError as exc:\n"
        "    print(perf_counter() - start, exc)\n"
    )
    child = run_child(["-c", code], timeout=10)
    seconds, message = child.stdout.split(" ", 1)
    return float(seconds), message


def test_lattice_points_refuses_past_the_work_limit_within_a_second():
    # Both calls ran past an 8 s timeout before lattice_points had a budget.
    for call, bound in [("lattice_points(Parameters(3, 3, 2), 'E', bound=255)", 255),
                        ("lattice_points(Parameters(3, 3, 2), 'Etilde', bound=60)", 60)]:
        seconds, message = _refusal_in_a_child(call)
        assert seconds < 1, call
        assert message == (f"degree bound {bound} would build more than 1000000 cone points "
                           "at m=3, n=3, r=2; lower the bound\n")


def test_etilde_library_call_refuses_past_the_work_limit_within_a_second():
    # verify_D_tilde had the Etilde budget, semigroup_vs_cone did not, and
    # this call ran past a 5 s timeout.
    seconds, message = _refusal_in_a_child("semigroup_vs_cone(Parameters(3, 3, 2), 'Etilde', 255)")
    assert seconds < 1
    assert message == ("degree bound 255 would build more than 1000000 cone points "
                       "at m=3, n=3, r=2; lower the bound\n")
