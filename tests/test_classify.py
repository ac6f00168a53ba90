"""Verdicts on which powers are Cohen-Macaulay or Ulrich, and their
computational certificates."""

import pytest

from detring.classify import certify, classify, rank1_mcm_classes
from detring.counting import multiplicity
from detring.errors import ParameterError
from detring.tableaux import Parameters
from helpers import parameter_triples


def test_boundary_power_is_ulrich():
    v = classify(Parameters(3, 3, 2), "p", 1)
    assert v["cm"] and v["ulrich"]
    assert v["mu"] == 3 and v["e"] == 3


def test_power_above_boundary_fails():
    v = classify(Parameters(3, 3, 2), "p", 2)
    assert not v["cm"] and not v["ulrich"]
    assert v["mu"] == 6 and v["e"] == 3
    assert v == {"cm": False, "ulrich": False, "mu": 6, "e": 3}


def test_zeroth_power_is_the_ring_itself():
    v = classify(Parameters(3, 3, 2), "p", 0)
    assert v["cm"] and not v["ulrich"]
    assert v["mu"] == 1


def test_classification_requires_proper_rank():
    with pytest.raises(ParameterError):
        classify(Parameters(2, 2, 2), "p", 1)
    with pytest.raises(ParameterError):
        classify(Parameters(3, 3, 2), "r", 1)
    with pytest.raises(ParameterError):
        classify(Parameters(3, 3, 2), "p", -1)


def test_verdict_invariants_across_small_sweep():
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        params = Parameters(m, n, r)
        for ideal, bound in (("p", m - r), ("q", n - r)):
            ulrich_count = 0
            for t in range(0, bound + 2):
                v = classify(params, ideal, t)
                assert v["cm"] == (t <= bound)
                if v["ulrich"]:
                    assert v["cm"] and v["mu"] == v["e"]
                    ulrich_count += 1
                if not v["cm"]:
                    assert v["mu"] > v["e"]
            assert ulrich_count == 1
            assert classify(params, ideal, bound)["ulrich"]


def test_equal_side_ulrich_powers_have_equal_size():
    for (m, r) in ((2, 1), (3, 1), (3, 2), (4, 2)):
        params = Parameters(m, m, r)
        vp = classify(params, "p", m - r)
        vq = classify(params, "q", m - r)
        assert vp["mu"] == vq["mu"] == multiplicity(params)


def test_certificate_kinds():
    params = Parameters(3, 3, 2)
    cm = certify(params, "p", 1)
    assert cm["consistent"]
    assert cm["certificate"]["kind"] == "conic"
    assert cm["certificate"]["report"]["equal"] is True
    assert cm["certificate"]["report"]["eps"] == "1/2"
    over = certify(params, "p", 2)
    assert over["consistent"]
    assert over["certificate"]["kind"] == "mu-exceeds-e"
    assert over["certificate"]["mu"] == 6 and over["certificate"]["e"] == 3
    unit = certify(params, "p", 0)
    assert unit["consistent"]
    assert unit["certificate"]["kind"] == "unit-ideal"


def test_certificate_for_the_other_ideal_uses_transposition():
    rep = certify(Parameters(2, 4, 1), "q", 3)
    assert rep["consistent"]
    assert rep["certificate"]["kind"] == "conic"
    assert rep["ulrich"]


def test_certificates_agree_with_verdicts_on_a_sweep():
    for (m, n, r) in parameter_triples(3, 3, proper=True):
        params = Parameters(m, n, r)
        for ideal, bound in (("p", m - r), ("q", n - r)):
            for t in range(0, bound + 2):
                rep = certify(params, ideal, t)
                assert rep["consistent"]
                verdict = classify(params, ideal, t)
                assert {key: rep[key] for key in verdict} == verdict


def test_rank_one_class_catalogue():
    classes = rank1_mcm_classes(Parameters(3, 3, 2))
    assert classes == [("p", 0), ("p", 1), ("q", 1)]
    assert rank1_mcm_classes(Parameters(4, 3, 2)) == [("p", 0), ("p", 1), ("p", 2), ("q", 1)]
    assert rank1_mcm_classes(Parameters(2, 2, 1)) == [("p", 0), ("p", 1), ("q", 1)]
    for (m, n, r) in parameter_triples(4, 4, proper=True):
        out = rank1_mcm_classes(Parameters(m, n, r))
        assert len(out) == (m - r) + (n - r) + 1
        assert len(set(out)) == len(out)
