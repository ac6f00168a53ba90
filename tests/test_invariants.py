"""The enlarged invariant ring, its initial-monomial semigroup, and the
ladder initial ideals checked by exact elimination."""

import pytest

from detring import cone, invariants
from detring.cone import lattice_points, semigroup_vs_cone
from detring.errors import ParameterError
from detring.invariants import (
    generators_R_tilde,
    ladder_variable_set,
    tilde_system_matches,
    verify_D_tilde,
    verify_ladder,
)
from detring.poly import YZSpace
from detring.tableaux import Minor, Parameters, all_minors, parse_minor
from helpers import parameter_triples


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


def test_relaxed_system_differs_by_exactly_one_equation():
    for (m, n, r) in parameter_triples(4, 4):
        assert tilde_system_matches(Parameters(m, n, r))


def test_invariant_semigroup_verification_small():
    rep = verify_D_tilde(Parameters(2, 2, 1), 4)
    assert rep.ok
    assert rep.generator_leads_ok and rep.counts_match and rep.system_difference_ok
    assert rep.cone_report.equal and rep.cone_report.power_test_ok
    rows = {(d1, d2): (a, b) for d1, d2, a, b in rep.bidegree_counts}
    assert rows[(0, 0)] == (1, 1)
    assert rows[(1, 0)] == (2, 2)
    assert rows[(0, 1)] == (2, 2)


def test_invariant_semigroup_diagonal_matches_plain_lattice():
    params = Parameters(2, 2, 1)
    rep = verify_D_tilde(params, 4)
    rows = {(d1, d2): (a, b) for d1, d2, a, b in rep.bidegree_counts}
    for d in (1, 2):
        expect = len(lattice_points(params, "E", y_degree=d))
        assert rows[(d, d)] == (expect, expect)


def test_invariant_semigroup_verification_builds_the_lattice_points_once(monkeypatch):
    calls = []
    real = cone.lattice_points

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cone, invariants):
        monkeypatch.setattr(module, "lattice_points", counted)
    params = Parameters(2, 3, 2)
    rep = verify_D_tilde(params, 4)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rep.cone_report == semigroup_vs_cone(params, "Etilde", 4)


def test_invariant_semigroup_verification_rank_two():
    rep = verify_D_tilde(Parameters(2, 2, 2), 6)
    assert rep.ok
    # occupied bidegrees only differ by multiples of the factor size
    for d1, d2, a, b in rep.bidegree_counts:
        assert a == b
        if a:
            assert (d1 - d2) % 2 == 0


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


def test_ladder_verification_trivial_ideal():
    rep = verify_ladder(Parameters(2, 2, 2), parse_minor("[1 2|1 2]"), 3)
    assert rep.ok and rep.prime_ok
    for d, rank, count, match in rep.degree_rows:
        assert rank == 0 and count == 0 and match


def test_ladder_verification_corner_case():
    rep = verify_ladder(Parameters(2, 2, 2), parse_minor("[2|2]"), 3)
    assert rep.ok and rep.prime_ok and rep.first_mismatch is None
    assert tuple(row[:3] for row in rep.degree_rows) == ((1, 3, 3), (2, 9, 9), (3, 19, 19))


def test_ladder_verification_rectangular_case():
    rep = verify_ladder(Parameters(2, 3, 2), parse_minor("[1 2|1 3]"), 3)
    assert rep.ok
    assert tuple(row[:3] for row in rep.degree_rows) == ((1, 0, 0), (2, 1, 1), (3, 6, 6))


def test_ladder_verification_all_corners_tiny():
    params = Parameters(2, 2, 2)
    for delta in all_minors(params):
        rep = verify_ladder(params, delta, 2)
        assert rep.ok, str(delta)
