"""The enlarged invariant ring, its initial-monomial semigroup, and the
ladder initial ideals checked by exact elimination."""

import gc
import json
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from detring import invariants, kernels
from detring.cli import run
from detring.cone import _pairs, _sides, lattice_points, semigroup_vs_cone
from detring.errors import ParameterError
from detring.generic_point import initial_monomial_closed_form
from detring.invariants import (
    generators_R_tilde,
    ladder_variable_set,
    verify_D_tilde,
    verify_ladder,
)
from detring.linalg import Eliminator
from detring.poly import YZSpace
from detring.tableaux import Parameters, all_minors, count_standard, enumerate_standard, parse_minor
from helpers import (
    cone_system,
    det_expand,
    ladder_family,
    ladder_pivots_by_all_products,
    lattice_slice,
    parameter_triples,
    tilde_basis_count_by_listing,
    variable_matrix,
)

LADDER_FORMATS = ((2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 3))


def predicted_leads(params):
    """Entry leads, main diagonals of the y blocks, and of the z blocks."""
    from itertools import combinations

    m, n, r = params.m, params.n, params.r
    yz = YZSpace(m, r, n)
    out = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            e = [0] * yz.nvars
            e[yz.y(i, 1)] += 1
            e[yz.z(1, j)] += 1
            out.add(tuple(e))
    for rows in combinations(range(1, m + 1), r):
        e = [0] * yz.nvars
        for j, a in enumerate(rows, start=1):
            e[yz.y(a, j)] += 1
        out.add(tuple(e))
    for cols in combinations(range(1, n + 1), r):
        e = [0] * yz.nvars
        for j, b in enumerate(cols, start=1):
            e[yz.z(j, b)] += 1
        out.add(tuple(e))
    return out


def test_generator_counts():
    assert len(generators_R_tilde(Parameters(2, 2, 1))) == 8
    assert len(generators_R_tilde(Parameters(3, 2, 2))) == 10


def test_generator_leading_monomials_are_the_three_families():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        got = set()
        for g in generators_R_tilde(params):
            e, c = g.leading()
            assert c == 1
            got.add(e)
        assert got == predicted_leads(params)


def test_factor_minors_equal_the_leibniz_expansion():
    for m, n, r in parameter_triples(4, 5):
        if r > 3:
            continue
        params = Parameters(m, n, r)
        yz, base = params.yz_space, range(1, r + 1)
        want = [det_expand(variable_matrix(yz, rows, base, yz.y), yz)
                for rows in combinations(range(1, m + 1), r)]
        want += [det_expand(variable_matrix(yz, base, cols, yz.z), yz)
                 for cols in combinations(range(1, n + 1), r)]
        assert generators_R_tilde(params)[m * n:] == want, (m, n, r)


def test_relaxed_system_differs_by_exactly_one_equation():
    # The Etilde lattice points on which the last E equation (s_r = 0) holds
    # are exactly the E lattice points.
    for (m, n, r) in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        last = cone_system(params, "E")[0][-1:]
        tilde = lattice_points(params, "Etilde", bound=4)
        coupled = {v for v in tilde if kernels.system_holds(last, (), v)}
        assert coupled == lattice_points(params, "E", bound=4), (m, n, r)


def test_system_difference_fails_when_e_admits_a_decoupled_pair(monkeypatch, capsys):
    real = invariants._pairs

    def leaky(variant, r, degrees):
        yield from real(variant, r, degrees)
        if variant == "E":
            yield next((sa, sb) for sa, sb in real("Etilde", r, degrees) if sa[0] == sb[0] + 1)

    monkeypatch.setattr(invariants, "_pairs", leaky)
    rep = verify_D_tilde(Parameters(2, 2, 1), 4)
    assert not rep["system_difference_ok"] and not rep["ok"]
    assert rep["cone"]["ok"] and rep["counts_match"] and rep["generator_leading_terms_ok"]
    assert run(["tilde-check", "--m", "2", "--n", "2", "--r", "1", "--deg-bound", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["system_difference_ok"] is False


def _bidegree_rows(rep):
    """{(y-degree, z-degree): (lattice count, basis count)}."""
    return {(c["y_degree"], c["z_degree"]): (c["lattice"], c["basis"])
            for c in rep["bidegree_counts"]}


def test_invariant_semigroup_verification_small():
    rep = verify_D_tilde(Parameters(2, 2, 1), 4)
    assert rep["ok"]
    assert rep["generator_leading_terms_ok"] and rep["counts_match"] and rep["system_difference_ok"]
    assert rep["cone"]["equal"] and rep["cone"]["power_test_ok"]
    rows = _bidegree_rows(rep)
    assert rows[(0, 0)] == (1, 1)
    assert rows[(1, 0)] == (2, 2)
    assert rows[(0, 1)] == (2, 2)


def test_invariant_semigroup_diagonal_matches_plain_lattice():
    params = Parameters(2, 2, 1)
    rep = verify_D_tilde(params, 4)
    rows = _bidegree_rows(rep)
    for d in (1, 2):
        expect = len(lattice_slice(params, d))
        assert rows[(d, d)] == (expect, expect)


def test_invariant_semigroup_verification_unpacks_no_point(monkeypatch):
    def refuse(key, nvars):
        raise AssertionError("unpacked a point")

    monkeypatch.setattr(kernels, "unpack", refuse)
    params = Parameters(2, 3, 2)
    rep = verify_D_tilde(params, 4)
    monkeypatch.undo()
    assert rep["ok"]
    assert rep["cone"] == semigroup_vs_cone(params, "Etilde", 4)


def test_bidegree_counts_equal_the_tuple_lattice():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        bidegree = params.yz_space.bidegree
        for b in range(7):
            expect = Counter(map(bidegree, lattice_points(params, "Etilde", bound=b)))
            rep = verify_D_tilde(params, b)
            got = Counter({key: a for key, (a, _) in _bidegree_rows(rep).items()})
            assert got == expect, (params, b)


def test_bidegree_counts_equal_the_block_counts_of_the_sides():
    # The payload counts by hook-content; ``_sides`` builds the blocks.
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for b in range(7):
            expect = Counter()
            for sa, sb, alphas, betas in _sides(params, _pairs("Etilde", r, range(b + 1))):
                expect[sum(sa), sum(sb)] += len(alphas) * len(betas)
            rows = _bidegree_rows(verify_D_tilde(params, b))
            assert {key: a for key, (a, _) in rows.items() if a} == expect, (params, b)


def test_ladder_budget_predicts_the_chains_the_walk_visits(monkeypatch):
    # The limit set to the standard chains of degrees 1..bound admits the
    # query, one less refuses it.
    for m, n, delta, b in ((2, 2, "[1|1]", 6), (3, 3, "[2|2]", 4), (2, 3, "[2|3]", 5), (3, 2, "[2|1]", 4)):
        params = Parameters(m, n, min(m, n))
        chains = sum(count_standard(params, d) for d in range(1, b + 1))
        monkeypatch.setattr(invariants, "LADDER_LIMIT", chains)
        assert verify_ladder(params, parse_minor(delta), b)["ok"]
        monkeypatch.setattr(invariants, "LADDER_LIMIT", chains - 1)
        with pytest.raises(ParameterError, match=f"^degree bound {b} would walk more than "
                                                 f"{chains - 1} standard chains at m={m}, n={n}, "
                                                 f"r={min(m, n)}; lower the bound$"):
            verify_ladder(params, parse_minor(delta), b)


def test_invariant_semigroup_verification_rank_two():
    rep = verify_D_tilde(Parameters(2, 2, 2), 6)
    assert rep["ok"]
    # occupied bidegrees only differ by multiples of the factor size
    for c in rep["bidegree_counts"]:
        assert c["lattice"] == c["basis"]
        if c["lattice"]:
            assert (c["y_degree"] - c["z_degree"]) % 2 == 0


def test_ladder_variables_empty_for_the_least_corner():
    assert ladder_variable_set(Parameters(2, 2, 2), parse_minor("[1 2|1 2]")) == ()


def test_ladder_variables_spot_cases():
    params = Parameters(2, 2, 2)
    yz = YZSpace(2, 2, 2)
    got = {yz.label(p) for p in ladder_variable_set(params, parse_minor("[2|2]"))}
    assert got == {"y[1,1]", "z[1,1]", "y[1,2]", "y[2,2]"}
    got = {yz.label(p) for p in ladder_variable_set(params, parse_minor("[1|2]"))}
    assert got == {"z[1,1]", "y[1,2]", "y[2,2]"}


def test_ladder_requires_square_embedding_rank():
    with pytest.raises(ParameterError):
        ladder_variable_set(Parameters(3, 3, 2), parse_minor("[1|1]"))
    with pytest.raises(ValueError):
        ladder_variable_set(Parameters(2, 2, 2), parse_minor("[3|1]"))


def _dims(rep):
    """(degree, initial space dimension, divisible count) of each degree row."""
    return tuple((row["degree"], row["initial_space_dim"], row["divisible_count"])
                 for row in rep["degrees"])


def test_ladder_verification_trivial_ideal():
    rep = verify_ladder(Parameters(2, 2, 2), parse_minor("[1 2|1 2]"), 3)
    assert rep["ok"] and rep["prime_ok"]
    for row in rep["degrees"]:
        assert row["initial_space_dim"] == 0 and row["divisible_count"] == 0 and row["match"]


def test_ladder_verification_corner_case():
    rep = verify_ladder(Parameters(2, 2, 2), parse_minor("[2|2]"), 3)
    assert rep["ok"] and rep["prime_ok"] and rep["first_mismatch"] is None
    assert _dims(rep) == ((1, 3, 3), (2, 9, 9), (3, 19, 19))


def test_ladder_verification_rectangular_case():
    rep = verify_ladder(Parameters(2, 3, 2), parse_minor("[1 2|1 3]"), 3)
    assert rep["ok"]
    assert _dims(rep) == ((1, 0, 0), (2, 1, 1), (3, 6, 6))


def test_ladder_verification_all_corners_tiny():
    params = Parameters(2, 2, 2)
    for delta in all_minors(params):
        rep = verify_ladder(params, delta, 2)
        assert rep["ok"], str(delta)


def test_ladder_dimensions_equal_the_unfiltered_elimination():
    for m, n, r in LADDER_FORMATS:
        params = Parameters(m, n, r)
        for delta in all_minors(params):
            rep = verify_ladder(params, delta, 3)
            got = [row["initial_space_dim"] for row in rep["degrees"]]
            want = [len(ladder_pivots_by_all_products(params, delta, d)) for d in (1, 2, 3)]
            assert got == want, (m, n, r, str(delta))


def test_ladder_divisible_counts_equal_the_bitableau_count():
    # The chain walk's packed leads against each standard bitableau's tuple lead.
    for m, n, r in ((2, 2, 2), (2, 3, 2), (3, 3, 3), (3, 4, 3)):
        params = Parameters(m, n, r)
        leads = {d: [initial_monomial_closed_form(b, params) for b in enumerate_standard(params, d)]
                 for d in (1, 2, 3)}
        for delta in all_minors(params):
            vset = ladder_variable_set(params, delta)
            rows = verify_ladder(params, delta, 3)["degrees"]
            want = [sum(any(e[p] for p in vset) for e in leads[d]) for d in (1, 2, 3)]
            assert [row["divisible_count"] for row in rows] == want, (m, n, r, str(delta))


def test_ladder_family_has_the_same_rank_on_both_sides():
    # At r = min(m, n) the substitution is injective: the x-side prefilter
    # keeps exactly the products whose images are independent.
    for m, n, r in LADDER_FORMATS:
        params = Parameters(m, n, r)
        for delta in all_minors(params):
            for d in (1, 2, 3):
                x_side = Eliminator()
                for row in ladder_family(params, delta, d, "X"):
                    x_side.reduce(row)
                assert x_side.rank == len(ladder_pivots_by_all_products(params, delta, d))


def test_a_prefilter_that_drops_an_independent_row_exits_two(monkeypatch, capsys):
    keep = invariants._x_independent

    def drop_one(gammas, x_keys, d):
        rows = keep(gammas, x_keys, d)
        if d == 2:
            next(rows)
        yield from rows

    monkeypatch.setattr(invariants, "_x_independent", drop_one)
    argv = ["ladder-check", "--m", "2", "--n", "2", "--r", "2", "--delta", "[2|2]", "--deg-bound", "3"]
    assert run(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["first_mismatch"]["degree"] == 2
    assert payload["first_mismatch"]["side"] == "divisible-only"
    assert [row["initial_space_dim"] for row in payload["degrees"]] == [3, 8, 19]


def test_ladder_bound_past_the_packed_limit_exits_one(capsys):
    # Bound 129 would image x-monomials of degree 128, past 255 on the y/z
    # side, even when no product needs them.
    base = ["ladder-check", "--m", "1", "--n", "1", "--r", "1", "--delta", "[1|1]"]
    assert run([*base, "--deg-bound", "128"]) == 0
    assert run([*base, "--deg-bound", "129"]) == 1
    err = capsys.readouterr().err
    assert err == "error: monomial of degree 256 exceeds the packed-exponent limit 255\n"


def test_ladder_verification_holds_one_content_at_a_time():
    # One Eliminator per degree on each side held every row of the degree
    # and peaked near 3.2 MB traced; one per content peaks near 0.65 MB.
    params, delta = Parameters(3, 3, 3), parse_minor("[2|2]")
    expected = verify_ladder(params, delta, 4)  # the format's shared state is built here
    tracemalloc.start()
    try:
        payload = verify_ladder(params, delta, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload == expected and payload["ok"]
    assert peak < 1_000_000


def test_ladder_verification_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert verify_ladder(Parameters(3, 3, 3), parse_minor("[2|2]"), 3)["ok"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tilde_basis_count_matches_the_listing_count():
    for m, n, r in parameter_triples(4, 4):
        params = Parameters(m, n, r)
        for d1 in range(6):
            for d2 in range(6):
                expected = tilde_basis_count_by_listing(params, d1, d2)
                assert invariants._tilde_basis_count(params, d1, d2) == expected, (m, n, r, d1, d2)
