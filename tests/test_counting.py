"""Determinant counting formulas against direct enumeration, and the
three-way dimension cross-check."""

import gc
from collections import Counter
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from detring import cone, counting, tableaux
from detring.cone import _pairs, _sides
from detring.counting import (
    _sorted_monomials,
    binomial,
    hilbert_function,
    hodge_dim,
    mu_power,
    mu_power_direct,
    multiplicity,
)
from detring.errors import ParameterError
from detring.linalg import det_bareiss
from detring.tableaux import Parameters, _partition_count, _partitions, count_standard
from helpers import chain_ends, parameter_triples


def test_binomial_convention_outside_range():
    assert binomial(5, 2) == 10
    assert binomial(3, 0) == 1
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(-1, 0) == 0


def test_exact_determinants():
    assert det_bareiss([[6, 3], [4, 3]]) == 6
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_bareiss([[2, 4], [2, 4]]) == 0
    assert det_bareiss([]) == 1
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def test_generator_counts_of_low_powers():
    params = Parameters(3, 3, 2)
    assert mu_power(params, "p", 1) == 3
    assert mu_power(params, "p", 2) == 6
    assert mu_power(params, "p", 0) == 1
    assert mu_power(params, "q", 1) == 3


def test_rank_one_power_count_is_a_single_binomial():
    for n in (2, 3, 4):
        for t in (1, 2, 3):
            params = Parameters(2, n, 1)
            assert mu_power(params, "p", t) == binomial(t + n - 1, n - 1)
            assert mu_power_direct(params, "p", t) == binomial(t + n - 1, n - 1)
    # Thousands of pinned factors: the chains are carried forward by a loop.
    assert mu_power_direct(Parameters(2, 3, 1), "p", 1500) == binomial(1502, 2)


def test_formula_matches_enumeration_small_sweep():
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        for ideal in ("p", "q"):
            universe = n if ideal == "p" else m
            for t in (1, 2, 3):
                direct = mu_power_direct(params, ideal, t)
                assert mu_power(params, ideal, t) == direct, (m, n, r, ideal, t)
                assert direct == sum(chain_ends(universe, r, t).values()), (m, n, r, ideal, t)


def test_power_counts_strictly_increase():
    for (m, n, r) in ((3, 3, 2), (4, 3, 1), (2, 5, 1)):
        params = Parameters(m, n, r)
        values = [mu_power(params, "p", t) for t in range(1, 7)]
        for a, b in zip(values, values[1:]):
            assert b > a


def test_transpose_symmetry_of_the_two_ideals():
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        for t in (1, 2, 3):
            assert mu_power(params, "p", t) == mu_power(params.transposed(), "q", t)


def test_counting_rejects_bad_arguments():
    params = Parameters(3, 3, 2)
    with pytest.raises(ParameterError):
        mu_power(params, "x", 1)
    with pytest.raises(ParameterError):
        mu_power(params, "p", -1)
    with pytest.raises(ParameterError):
        mu_power(Parameters(2, 2, 2), "p", 1)
    with pytest.raises(ParameterError):
        multiplicity(Parameters(2, 2, 2))


def test_multiplicity_spot_values():
    assert multiplicity(Parameters(2, 2, 1)) == 2
    assert multiplicity(Parameters(3, 3, 2)) == 3
    assert multiplicity(Parameters(3, 2, 1)) == 3


def test_multiplicity_equals_top_power_counts():
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        e = multiplicity(params)
        assert e == mu_power(params, "p", m - r)
        assert e == mu_power(params, "q", n - r)


def test_grassmannian_dimension_formula():
    assert hodge_dim(2, 3, 1) == 3
    assert hodge_dim(2, 4, 1) == 6
    assert hodge_dim(3, 3, 5) == 1
    assert hodge_dim(2, 4, 0) == 1
    with pytest.raises(ParameterError):
        hodge_dim(3, 2, 1)


def test_dimension_of_degree_slices():
    params = Parameters(2, 2, 1)
    for method in ("bitableaux", "lattice", "rank"):
        assert hilbert_function(params, 2, method) == 9
        assert hilbert_function(params, 0, method) == 1
    assert hilbert_function(Parameters(2, 2, 2), 2) == 10


def test_dimension_methods_agree():
    for (m, n, r) in parameter_triples(3, 3):
        params = Parameters(m, n, r)
        for d in range(3):
            a = hilbert_function(params, d, "bitableaux")
            b = hilbert_function(params, d, "lattice")
            c = hilbert_function(params, d, "rank")
            assert a == b == c
    for (m, n, r, d) in ((4, 3, 2, 5), (4, 4, 1, 4)):
        params = Parameters(m, n, r)
        assert hilbert_function(params, d, "bitableaux") == hilbert_function(params, d, "lattice")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_the_four_dimension_methods_agree(m, n, data):
    r = data.draw(st.integers(1, min(m, n) - 1))
    d = data.draw(st.integers(0, 4))
    params = Parameters(m, n, r)
    counts = [hilbert_function(params, d, method) for method in ("formula", "bitableaux", "lattice", "rank")]
    assert counts == [counts[0]] * 4, (m, n, r, d)


def test_formula_answers_at_sizes_the_walks_cannot():
    assert hilbert_function(Parameters(5, 5, 3), 6, "formula") == count_standard(Parameters(5, 5, 3), 6)
    assert hilbert_function(Parameters(6, 6, 3), 9, "formula") == 629672620
    assert count_standard(Parameters(6, 6, 3), 9) == 629672620
    # About 5 ms; the bitableaux walk takes minutes.
    assert hilbert_function(Parameters(12, 12, 6), 20, "formula") == 20851195428646374043026684
    with pytest.raises(ParameterError, match="^degree 256 exceeds the packed-exponent limit 255$"):
        hilbert_function(Parameters(1, 1, 1), 256, "formula")


def test_partition_count_equals_the_listing():
    for parts in range(1, 7):
        for d in range(30):
            assert _partition_count(d, parts) == len(_partitions(parts, d)), (parts, d)
    assert _partition_count(60, 15) == 552767


def test_formula_budget_counts_partition_cells(monkeypatch):
    # 20x20 r10 d40 sums over 16,928 partitions of 40 cells: 677,120.
    params = Parameters(20, 20, 10)
    monkeypatch.setattr(tableaux, "FORMULA_LIMIT", 16928 * 40)
    assert hilbert_function(params, 40, "formula") > 0
    monkeypatch.setattr(tableaux, "FORMULA_LIMIT", 16928 * 40 - 1)
    with pytest.raises(ParameterError, match="^degree 40 would sum the hook-content formula over "
                                             "16928 partitions at m=20, n=20, r=10; lower the degree$"):
        hilbert_function(params, 40, "formula")


def test_count_budget_is_never_below_the_pairs_the_walk_reads(monkeypatch):
    # ``_side_count`` reads each (tuple, next tuple) pair off a list
    # ``_MinorTable._above`` returns; a limit one below the pairs read refuses.
    real = tableaux._MinorTable._above
    for m, n, r, d in ((3, 4, 2, 1), (3, 3, 2, 4), (4, 5, 3, 5), (6, 6, 3, 6), (5, 3, 3, 7), (2, 2, 1, 9)):
        params, reads = Parameters(m, n, r), []
        monkeypatch.setattr(tableaux._MinorTable, "_above",
                            lambda table, low, size: reads.append(len(real(table, low, size)))
                            or real(table, low, size))
        assert count_standard(params, d) == hilbert_function(params, d, "formula")
        monkeypatch.setattr(tableaux, "COUNT_LIMIT", sum(reads) - 1)
        with pytest.raises(ParameterError, match=f"^degree {d} would visit more than "
                                                 f"{sum(reads) - 1} tuple pairs at m={m}, n={n}, "
                                                 f"r={r}; lower the degree$"):
            count_standard(params, d)
        monkeypatch.undo()


def test_lattice_budget_predicts_the_entries_the_sides_build(monkeypatch):
    # The limit set to the entries ``_sides`` builds admits the query, one
    # less refuses it: the prediction is exact, above the shortcut's bound.
    for m, n, r, d in ((2, 5, 1, 3), (3, 3, 2, 4), (3, 4, 2, 5), (4, 4, 3, 4), (2, 2, 2, 9), (5, 3, 3, 3)):
        params = Parameters(m, n, r)
        built = sum(len(alphas) * m * r + len(betas) * n * r
                    for _, _, alphas, betas in _sides(params, _pairs("E", r, (2 * d,))))
        monkeypatch.setattr(cone, "SIDES_LIMIT", built)
        assert hilbert_function(params, d, "lattice") == count_standard(params, d)
        monkeypatch.setattr(cone, "SIDES_LIMIT", built - 1)
        with pytest.raises(ParameterError, match=f"^degree {d} would build more than {built - 1} "
                                                 f"block entries at m={m}, n={n}, r={r}; lower the degree$"):
            hilbert_function(params, d, "lattice")


def test_rank_counts_transposed_contents_once_at_square_formats():
    # At m = n only row contents >= the column content are eliminated.
    for m in range(1, 6):
        for r in range(1, m):
            params = Parameters(m, m, r)
            for d in range(5):
                assert hilbert_function(params, d, "rank") == count_standard(params, d), (m, r, d)


def test_dimension_method_validated():
    with pytest.raises(ParameterError):
        hilbert_function(Parameters(2, 2, 1), 2, "magic")


def test_rank_refuses_degrees_whose_images_pass_the_packed_limit():
    assert hilbert_function(Parameters(1, 1, 1), 127, "rank") == 1
    for d in (128, 1000):
        with pytest.raises(ParameterError, match="^monomial of degree 256 exceeds"):
            hilbert_function(Parameters(1, 1, 1), d, "rank")


def _rank_work(params, d):
    """What ``_check_rank`` predicts, by listing the rows: per row of
    ``_sorted_monomials``, prod C(r + e - 1, e) over its variables' exponents
    plus d, and C(n + d, d) for the row parts."""
    work = comb(params.n + d, d)
    for positions, _ in _sorted_monomials(params.m, params.n, d):
        counts = Counter(positions).values()
        work += d + prod([comb(params.r + e - 1, e) for e in counts])
    return work


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 6))
def test_the_rank_prediction_is_exact(m, n, r, d):
    # At the limit the query answers, one below it is refused: the first
    # step's bound is above the work, both lower bounds below it, and the
    # count equals it.
    params = Parameters(m, n, min(r, m, n))
    work = _rank_work(params, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "RANK_LIMIT", work)
        counting._check_rank(params, d)
        patch.setattr(counting, "RANK_LIMIT", work - 1)
        with pytest.raises(ParameterError, match=f"^degree {d} would expand more than {work - 1} "):
            counting._check_rank(params, d)


def test_the_rank_prediction_counts_the_larger_test_queries():
    # Above the first step's bound, so the count runs; the largest is the
    # largest rank query of the tests.
    for (m, n, r, d), work in (((5, 5, 4, 4), 16845), ((4, 4, 3, 4), 5617), ((3, 3, 2, 8), 39710)):
        params = Parameters(m, n, r)
        assert _rank_work(params, d) == work
        assert hilbert_function(params, d, "rank") == count_standard(params, d)


def test_rank_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert hilbert_function(Parameters(3, 3, 2), 3, "rank") == 164
        assert gc.collect() == 0
    finally:
        gc.enable()
