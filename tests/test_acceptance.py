"""Acceptance gate: every required behavior, timed, one pass/fail line each.

Each test sweeps the full advertised range of a guarantee and prints a single
summary line with the elapsed time; budgets are asserted so a slow build
fails loudly rather than silently degrading.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from detring.classify import certify, classify
from detring.cone import conic_equality_check, semigroup_vs_cone
from detring.counting import hilbert_function, mu_power, mu_power_direct, multiplicity
from detring.generic_point import (
    SubstitutionMap,
    eval_bitableau,
    initial_monomial_closed_form,
    phi,
)
from detring.invariants import verify_D_tilde, verify_ladder
from detring.straighten import straighten
from detring.tableaux import Parameters, all_minors, enumerate_standard

from helpers import parameter_triples, random_poly, subprocess_env


@contextmanager
def gate(label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed <= budget
    suffix = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{label}: {'PASS' if within else 'FAIL'} ({elapsed:.1f}s{suffix})")
    assert within, f"{label} exceeded its budget: {elapsed:.1f}s > {budget}s"


def test_standard_product_leading_monomials_follow_closed_form():
    with gate("closed-form leading monomials, exhaustive to degree 4", 60):
        for (m, n, r) in parameter_triples(3, 3):
            params = Parameters(m, n, r)
            subst = SubstitutionMap(params)
            for d in range(1, 5):
                for bitab in enumerate_standard(params, d):
                    e, c = eval_bitableau(bitab, params, "YZ", subst).leading()
                    assert c == 1, (m, n, r, str(bitab))
                    assert e == initial_monomial_closed_form(bitab, params)


def test_closed_form_injective_and_image_ranks_match_basis_counts():
    with gate("closed-form injectivity and degree-slice ranks", 120):
        for (m, n, r) in parameter_triples(3, 3):
            params = Parameters(m, n, r)
            for d in range(1, 5):
                seen = set()
                for bitab in enumerate_standard(params, d):
                    e = initial_monomial_closed_form(bitab, params)
                    assert e not in seen, (m, n, r, str(bitab))
                    seen.add(e)
            for d in range(1, 4):
                rank = hilbert_function(params, d, method="rank")
                assert rank == len(enumerate_standard(params, d)), (m, n, r, d)


def test_random_straightenings_are_exact_with_bounded_iteration_count():
    with gate("200 exact random straightenings", 60):
        rng = random.Random(20260821)
        triples = parameter_triples(3, 3)
        for i in range(200):
            m, n, r = triples[i % len(triples)]
            params = Parameters(m, n, r)
            subst = SubstitutionMap(params)
            f = random_poly(subst.x_space, rng, max_degree=3)
            comb = straighten(f, params, subst)
            assert comb.evaluate("YZ", subst) == phi(f, subst)
            per_degree = {}
            for _, bitab in comb:
                per_degree[bitab.degree] = per_degree.get(bitab.degree, 0) + 1
            for d, count in per_degree.items():
                assert count <= hilbert_function(params, d), (m, n, r, d)


def test_semigroup_equals_cone_lattice_with_power_saturation():
    with gate("semigroup = cone lattice to degree 6, all formats to 4x4", 120):
        for (m, n, r) in parameter_triples(4, 4):
            report = semigroup_vs_cone(Parameters(m, n, r), "E", 6)
            assert report.equal and report.power_test_ok, (m, n, r)


def test_generator_count_determinant_matches_direct_enumeration():
    with gate("generator-count determinant vs enumeration", 30):
        for (m, n, r) in parameter_triples(5, 5, proper=True):
            params = Parameters(m, n, r)
            for ideal in ("p", "q"):
                for t in range(5):
                    assert mu_power(params, ideal, t) == mu_power_direct(
                        params, ideal, t
                    ), (m, n, r, ideal, t)
        anchor = Parameters(3, 3, 2)
        for ideal in ("p", "q"):
            assert mu_power(anchor, ideal, 1) == 3
            assert mu_power(anchor, ideal, 2) == 6


def test_multiplicity_matches_top_power_generator_counts():
    with gate("multiplicity = generator count of both boundary powers", 10):
        for (m, n, r) in parameter_triples(6, 6, proper=True):
            params = Parameters(m, n, r)
            e = multiplicity(params)
            assert e == mu_power(params, "p", m - r), (m, n, r)
            assert e == mu_power(params, "q", n - r), (m, n, r)
        assert multiplicity(Parameters(2, 2, 1)) == 2
        assert multiplicity(Parameters(3, 3, 2)) == 3


def test_shifted_cone_boundary_matches_classification():
    with gate("shifted-cone boundary, classification, one Ulrich per side", 300):
        for (m, n, r) in parameter_triples(4, 4, proper=True):
            params = Parameters(m, n, r)
            for side in (params, params.transposed()):
                top = side.m - side.r
                for t in range(1, top + 1):
                    rep = conic_equality_check(side, t)
                    assert rep.equal and rep.consistent, (side, t)
                rep = conic_equality_check(side, top + 1)
                assert not rep.equal and rep.consistent, side
                assert rep.first_counterexample is not None, side
            for ideal in ("p", "q"):
                bound = (params.m if ideal == "p" else params.n) - params.r
                ulrich_count = 0
                for t in range(bound + 2):
                    verdict = classify(params, ideal, t)
                    certified = certify(params, ideal, t)
                    assert certified.consistent, (m, n, r, ideal, t)
                    assert certified.verdict.to_dict() == verdict.to_dict()
                    ulrich_count += verdict.is_ulrich
                assert ulrich_count == 1, (m, n, r, ideal)


def test_extended_invariant_algebra_description_holds():
    with gate("extended initial algebra: leads, lattice counts, coupling drop", 60):
        for (m, n, r) in parameter_triples(3, 3):
            report = verify_D_tilde(Parameters(m, n, r), 6)
            assert report.generator_leads_ok, (m, n, r)
            assert report.cone_report.ok, (m, n, r)
            assert report.counts_match, (m, n, r)
            assert report.system_difference_ok, (m, n, r)


def test_ladder_checks_pass_and_mismatches_exit_with_code_two(capsys):
    with gate("ladder initial ideals for every corner shape", 120):
        for (m, n) in ((2, 2), (2, 3)):
            params = Parameters(m, n, min(m, n))
            for delta in all_minors(params):
                report = verify_ladder(params, delta, d_max=3)
                assert report.ok, (m, n, str(delta))
                assert report.first_mismatch is None
        # A failing report must surface through the driver as exit code 2
        # with the counterexample in the payload; genuine inputs never
        # produce one, so substitute a fabricated report at the seam.
        from detring import cli

        class _Broken:
            ok = False

            def to_dict(self):
                return {"ok": False, "first_mismatch": {"degree": 2}}

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "verify_ladder", lambda *a, **k: _Broken())
            code = cli.run(
                ["ladder-check", "--m", "2", "--n", "2", "--r", "2", "--delta", "[2|2]"]
            )
        out = capsys.readouterr().out
        assert code == 2
        assert '"first_mismatch"' in out and '"degree": 2' in out


def test_cli_output_is_byte_identical_across_runs():
    commands = [
        ["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "2", "--ideal", "p"],
        ["classify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "q"],
        ["certify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p"],
        ["straighten", "--m", "2", "--n", "2", "--r", "2", "--poly", "x[1,2]*x[2,1]"],
        ["member", "--m", "2", "--n", "2", "--r", "1", "--poly", "x[1,1]*x[2,2]-x[1,2]*x[2,1]"],
        ["basis", "--m", "2", "--n", "2", "--r", "1", "--deg", "3"],
        ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "3", "--method", "rank"],
        ["mult", "--m", "3", "--n", "3", "--r", "2"],
        ["mcm-classes", "--m", "3", "--n", "4", "--r", "2"],
        ["cone-check", "--m", "2", "--n", "3", "--r", "2", "--deg-bound", "5"],
        ["tilde-check", "--m", "2", "--n", "2", "--r", "1", "--deg-bound", "4"],
        ["ladder-check", "--m", "2", "--n", "3", "--r", "2", "--delta", "[1 2|1 3]", "--deg-bound", "3"],
    ]
    # cwd="/" keeps the working directory out of the payloads; the child gets
    # the absolute location of the package under test, since a relative
    # PYTHONPATH does not resolve from there.
    env = subprocess_env()
    with gate("byte-identical repeat runs of every command"):
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "detring", *argv],
                    capture_output=True,
                    cwd="/",
                    env=env,
                )
                for _ in range(2)
            ]
            stderr = [run.stderr.decode(errors="replace") for run in runs]
            assert runs[0].returncode == runs[1].returncode == 0, (argv, stderr)
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].stderr == runs[1].stderr, argv
