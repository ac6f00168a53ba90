"""Command-line driver: payloads, exit codes, and deterministic output."""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import re
import shlex
import os
import time
import tracemalloc
from pathlib import Path
from unittest import mock

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from detring import cli, cone, invariants, tableaux
from detring.classify import certify, classify
from detring.cli import main, run
from detring.cone import conic_equality_check, semigroup_vs_cone
from detring.invariants import verify_D_tilde, verify_ladder
from detring.tableaux import (
    Parameters,
    _standard_texts,
    all_minors,
    count_standard,
    enumerate_standard,
    parse_minor,
)
from helpers import SUBCOMMAND_QUERIES, parameter_triples, run_child


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mu_payload(capsys):
    code, out, _ = capture(capsys, ["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "2", "--ideal", "p"])
    assert code == 0
    assert json.loads(out) == {"mu": 6}


def test_classify_payload(capsys):
    code, out, _ = capture(
        capsys, ["classify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p"]
    )
    assert code == 0
    assert json.loads(out) == {"cm": True, "ulrich": True, "mu": 3, "e": 3}


def test_straighten_payload(capsys):
    code, out, _ = capture(
        capsys, ["straighten", "--m", "2", "--n", "2", "--r", "2", "--poly", "x[1,2]*x[2,1]"]
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"coeff": "1", "bitableau": "[1|1][2|2]"},
            {"coeff": "-1", "bitableau": "[1 2|1 2]"},
        ]
    }


def test_member_payload(capsys):
    det = "x[1,1]*x[2,2]-x[1,2]*x[2,1]"
    code, out, _ = capture(capsys, ["member", "--m", "2", "--n", "2", "--r", "1", "--poly", det])
    assert code == 0 and json.loads(out) == {"in_ideal": True}
    code, out, _ = capture(capsys, ["member", "--m", "2", "--n", "2", "--r", "2", "--poly", det])
    assert code == 0 and json.loads(out) == {"in_ideal": False}


def test_member_refuses_past_the_degree_limit_even_when_the_image_cancels(capsys):
    # The polynomial lies in the ideal (x[1,1]^126 times the 2x2 determinant),
    # so its image is zero, yet its degree 128 passes the limit of 127.
    poly = "x[1,1]^127*x[2,2] - x[1,1]^126*x[1,2]*x[2,1]"
    code, out, err = capture(capsys, ["member", "--m", "2", "--n", "2", "--r", "1", "--poly", poly])
    assert (code, out) == (1, "")
    assert err == "error: monomial of degree 256 exceeds the packed-exponent limit 255\n"


def test_basis_payload(capsys):
    code, out, _ = capture(capsys, ["basis", "--m", "2", "--n", "2", "--r", "1", "--deg", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    assert len(payload["bitableaux"]) == 9
    assert "[1|2][2|1]" not in payload["bitableaux"]


def test_hilbert_bitableaux_counts_without_listing():
    # 629,672,620 standard bitableaux: listing them would not finish in time.
    argv = ["hilbert", "--m", "6", "--n", "6", "--r", "3", "--deg", "9", "--method", "bitableaux"]
    child = run_child(["-m", "detring", *argv], timeout=60)
    assert child.returncode == 0, child.stderr
    assert '"dim": 629672620' in child.stdout


def test_hilbert_bitableaux_fills_successor_lists_by_domination():
    # The count walks row tuples and column tuples of size <= 4, whose
    # successors are the tuples that dominate them entrywise; it builds none
    # of the 2940 minors of size <= 4, over which an all-pairs successor fill
    # took seconds.
    argv = ["hilbert", "--m", "7", "--n", "7", "--r", "4", "--deg", "6", "--method", "bitableaux"]
    child = run_child(["-m", "detring", *argv], timeout=60)
    assert child.returncode == 0, child.stderr
    assert '"dim": 25807516' in child.stdout


def test_hilbert_bitableaux_answers_ten_by_ten_within_two_seconds():
    # Counted over minor pairs, this query ended in a MemoryError traceback
    # after about 20 s under the same cap.
    argv = ["hilbert", "--m", "10", "--n", "10", "--r", "5", "--deg", "12"]
    child = run_child(["-m", "detring", *argv], cap_mb=1536, timeout=2)
    assert child.returncode == 0, child.stderr[-500:]
    assert '"dim": 3907374597368225' in child.stdout


def _child_payload(argv):
    """The JSON a child interpreter prints for argv, its address space capped
    at 256 MB: each query below peaks near 20 MB resident.  ``hilbert`` builds
    no minor, and ``basis`` and ``ladder-check`` build only the sizes they
    read; every minor of the format would take hundreds of MB or more."""
    child = run_child(["-m", "detring", *argv], cap_mb=256, timeout=60)
    assert child.returncode == 0, child.stderr[-500:]
    return json.loads(child.stdout)


def test_hilbert_at_degree_one_builds_no_large_minor():
    # Every minor up to size 15 of a 30 x 30 matrix would never fit in memory.
    argv = ["hilbert", "--m", "30", "--n", "30", "--r", "15", "--deg", "1"]
    assert _child_payload(argv) == {"dim": 900}


def test_basis_at_degree_one_builds_no_large_minor():
    # Degree 1 reads the 144 entries; all 1.78 million minors of size <= 6
    # of a 12 x 12 matrix took 15 s and 364 MB.
    payload = _child_payload(["basis", "--m", "12", "--n", "12", "--r", "6", "--deg", "1"])
    assert payload["count"] == 144
    assert payload["bitableaux"] == [f"[{i}|{j}]" for i in range(1, 13) for j in range(1, 13)]


def test_ladder_check_expands_only_minors_up_to_the_bound():
    # The size-6 minors of a 6 x 6 matrix have 720 terms; bound 2 reads sizes 1 and 2.
    argv = ["ladder-check", "--m", "6", "--n", "6", "--r", "6", "--delta", "[2|2]", "--deg-bound", "2"]
    payload = _child_payload(argv)
    assert payload["ok"] is True and payload["first_mismatch"] is None
    rows = [(row["degree"], row["initial_space_dim"], row["divisible_count"])
            for row in payload["degrees"]]
    assert rows == [(1, 11, 11), (2, 441, 441)]
    assert payload["variable_set"] == [
        "y[1,1]", "y[6,2]", "y[5,2]", "y[4,2]", "y[3,2]", "y[2,2]", "y[1,2]", "z[1,1]"
    ]


def test_basis_streams_in_a_small_address_space():
    # 586,825 bitableaux, 21 MB of JSON: holding the list, the encoder's
    # chunks and the joined text at once needed about 145 MB.
    argv = ["basis", "--m", "5", "--n", "5", "--r", "3", "--deg", "6"]
    child = run_child(["-m", "detring", *argv], cap_mb=80, timeout=60)
    assert child.returncode == 0, child.stderr[-500:]
    count = count_standard(Parameters(5, 5, 3), 6)
    assert child.stdout.startswith('{\n  "bitableaux": [\n    "[1 2 3|1 2 3][1 2 3|1 2 3]",\n')
    assert child.stdout.endswith(f'"\n  ],\n  "count": {count}\n}}\n')
    assert child.stdout.count("\n") == count + 5


def test_basis_streams_the_enumeration_in_both_formats(capsys):
    for m, n, r in parameter_triples(4, 4):
        space = ["--m", str(m), "--n", str(n), "--r", str(r)]
        for d in range(6):
            expect = [str(b) for b in enumerate_standard(Parameters(m, n, r), d)]
            payload = {"bitableaux": expect, "count": len(expect)}
            code, out, _ = capture(capsys, ["basis", *space, "--deg", str(d)])
            assert (code, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")
            lines = [f"bitableaux.{i} = {text}\n" for i, text in enumerate(expect)]
            code, out, _ = capture(capsys, ["basis", *space, "--deg", str(d), "--format", "table"])
            assert (code, out) == (0, "".join(lines) + f"count = {len(expect)}\n"), (m, n, r, d)


def test_basis_writes_once_per_batch():
    # One write per first factor's batch, and one for the rest of the payload.
    class Writes(list):
        write = list.append

    batches = len(list(_standard_texts(Parameters(4, 4, 2), 4)))
    for fmt in ("json", "table"):
        writes = Writes()
        with contextlib.redirect_stdout(writes):
            argv = ["basis", "--m", "4", "--n", "4", "--r", "2", "--deg", "4", "--format", fmt]
            assert run(argv) == 0
        assert len(writes) == batches + 1 < count_standard(Parameters(4, 4, 2), 4) // 10


def test_basis_writes_shared_heads_without_a_string_per_bitableau():
    # Each group is one join of its tails around its head: at 5x5 r3 d5
    # (127,000 texts) a string per bitableau peaked near 1.6 MB traced.
    argv = ["basis", "--m", "5", "--n", "5", "--r", "3", "--deg", "5"]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_500_000


_texts = st.text(st.characters(), max_size=6) | st.sampled_from(["", "\"", "\\", "\x00\n\t", "é ✓ \U0001d400"])
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 60), 10 ** 60) | _texts)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_payloads)
def test_writer_matches_json_dumps(payload):
    # The writer reads sys.stdout when it is called, as the benchmark worker
    # and capsys both replace it.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, "json")
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_basis_texts_are_written_unescaped_as_json_dumps_writes_them(capsys):
    # The writer quotes each basis text as it is: every text joins table
    # minors' texts, or is "[|]" at degree 0, and none holds a character that
    # JSON escapes.
    for m, n in ((3, 3), (4, 6), (11, 10)):
        for d in all_minors(Parameters(m, n, min(m, n)), 3):
            assert re.fullmatch(r"\[[0-9 ]*\|[0-9 ]*\]", d._text), d
    for m, n, r, deg in ((3, 2, 2, 0), (4, 5, 2, 3), (5, 5, 3, 4), (11, 10, 4, 2)):
        expect = [str(b) for b in enumerate_standard(Parameters(m, n, r), deg)]
        argv = ["basis", "--m", str(m), "--n", str(n), "--r", str(r), "--deg", str(deg)]
        code, out, _ = capture(capsys, argv)
        payload = {"bitableaux": expect, "count": len(expect)}
        assert (code, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n"), argv


def test_subcommands_parse_their_arguments_as_the_full_parser_does(capsys):
    space = ["--m", "3", "--n", "3", "--r", "2"]
    cases = [
        ["basis"],  # every option missing
        ["basis", "--m", "3"],  # some missing
        ["mu", *space, "--t", "1", "--ideal", "p", "--frob", "1"],  # unknown option
        ["hilbert", *space, "--deg", "x"],  # bad int
        ["hilbert", *space, "--deg", "2", "--method", "foo"],  # bad choice
        ["mult", *space, "extra"],  # extra positional
        ["hilbert", *space, "--deg"],  # trailing option
        ["ladder-check", *space, "--de", "3"],  # ambiguous abbreviation
    ]
    parser = cli.build_parser()
    for argv in cases:
        with pytest.raises(cli._UsageError) as full:
            parser.parse_args(argv)
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {full.value}\n"), argv
    # Spellings argparse accepts: each answers as its plain form does.
    accepted = [
        (["hilbert", *space, "--de", "3"], ["hilbert", *space, "--deg", "3"]),
        (["hilbert", *space, "--deg", "-1"], ["hilbert", *space, "--deg=-1"]),
        (["mult", "--m", "3", *space, "--m", "4"], ["mult", *space, "--m=4"]),
    ]
    for argv, plain in accepted:
        assert vars(parser.parse_args(argv)) == vars(parser.parse_args(plain))
        assert capture(capsys, argv) == capture(capsys, plain), argv
    with pytest.raises(SystemExit):
        parser.parse_args(["hilbert", "--help"])
    expected = capsys.readouterr().out
    assert expected.startswith("usage: detring hilbert")
    assert main(["hilbert", "--help"]) == 0
    assert capsys.readouterr().out == expected


def test_a_well_formed_command_line_answers_without_argparse(monkeypatch, capsys):
    # An option that the grammar cannot read sends every command line that
    # uses it to argparse; this refuses that.
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed command line")

    _, commands, _ = cli._parsers()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [name for name, _ in SUBCOMMAND_QUERIES] == list(commands)
    for name, pairs in SUBCOMMAND_QUERIES:
        argv = [name, *(t for pair in pairs for t in pair), "--format", "table", "--seed=7"]
        parser = commands[name]
        given_options = {token.partition("=")[0] for token in argv if token.startswith("--")}
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert given_options == options, name
        assert capture(capsys, argv)[0] == 0, argv


def _usage(name):
    """Tokens for the subcommand name's parser: options, their prefixes and
    ``=`` forms, good, negative and malformed values, ``--help``, ``--``."""
    parser = cli._parsers()[1][name]
    options = sorted({s for a in parser._actions for s in a.option_strings})
    values = st.sampled_from(["0", "1", "2", "3", "-1", "x", "2.5", "", " 2", "+1", "--", "-",
                              "p", "q", "r", "json", "table", "rank", "formula", "1/3",
                              "x[1,2]*x[2,1] - 1/2", "-x[1,1]", "x[1,1]=2", "[1|1]", "[1 2|1 2]"])
    option = st.sampled_from(options) | st.sampled_from(options).flatmap(
        lambda s: st.integers(2, len(s) - 1).map(lambda k: s[:k]) if len(s) > 3 else st.just(s))
    exact = st.tuples(st.sampled_from(options), values).map(list)
    group = (exact | exact | st.tuples(option, values).map(list)
             | st.tuples(option, values).map(lambda p: [f"{p[0]}={p[1]}"])
             | option.map(lambda s: [s]) | values.map(lambda v: [v]))
    valid = {"--r": "1", "--ideal": "p", "--poly": "x[1,1]", "--delta": "[1|1]"}
    required = [[s, valid.get(s, "2")] for a in parser._actions if a.required
                for s in a.option_strings]
    return st.tuples(st.lists(group, max_size=3), st.permutations(required),
                     st.lists(group, max_size=3)).map(
        lambda t: [token for part in t for group in part for token in group])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(cli._parsers()[1])).flatmap(
    lambda name: st.tuples(st.just(name), _usage(name))))
@example(("straighten", ["--m", "3", "--n", "3", "--r", "2", "--poly=--"]))
@example(("certify", ["--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p", "--eps=--"]))
def test_the_grammar_reads_what_argparse_reads(case):
    name, tokens = case
    _, commands, grammars = cli._parsers()
    args = cli._read(grammars[name], tokens)
    if args is not None:
        assert args == commands[name].parse_args(tokens)

    def answer():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([name, *tokens])
            except Exception as exc:
                # argparse reads "--poly=--" as an empty list, which no
                # handler takes: both paths must fail alike.
                code = type(exc).__name__
        return code, out.getvalue(), err.getvalue()

    direct = answer()
    with mock.patch.object(cli, "_read", lambda grammar, tokens: None):
        assert answer() == direct


def test_mu_and_basis_leave_no_cyclic_garbage(capsys):
    # json.dumps with an indent runs the standard library's Python encoder,
    # whose self-calling closures left 33 objects of garbage per run.
    space = ["--m", "3", "--n", "4", "--r", "2"]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in (["mu", *space, "--t", "1", "--ideal", "p"], ["basis", *space, "--deg", "4"]):
            for fmt in ("json", "table"):
                gc.collect()
                assert capture(capsys, [*argv, "--format", fmt])[0] == 0
                assert gc.collect() == 0, (argv, fmt)
    finally:
        if enabled:
            gc.enable()


def test_basis_negative_degree_exits_one_with_nothing_on_stdout(capsys):
    code, out, err = capture(capsys, ["basis", "--m", "2", "--n", "2", "--r", "1", "--deg", "-1"])
    assert (code, out) == (1, "")
    assert err == "error: degree must be nonnegative, got -1\n"


def test_basis_past_the_limit_exits_one_within_a_second():
    # 629,672,620 bitableaux: the listing ended in a MemoryError traceback
    # after about 30 s under a 1.5 GB address-space cap.
    argv = ["basis", "--m", "6", "--n", "6", "--r", "3", "--deg", "9"]
    seconds, code, err = _refused_in_a_child(argv)
    assert seconds < 1 and code == 1
    assert err == ("error: degree 9 would list more than 30000000 standard bitableaux "
                   "at m=6, n=6, r=3; lower the degree\n")
    # Degree 7 stays under the limit, and so does the largest test query.
    assert count_standard(Parameters(6, 6, 3), 7) == 25688736 < tableaux.BASIS_LIMIT
    assert count_standard(Parameters(6, 6, 3), 8) > tableaux.BASIS_LIMIT
    assert count_standard(Parameters(5, 5, 3), 6) == 586825


def test_basis_degree_zero_is_the_empty_product(capsys):
    space = ["--m", "3", "--n", "2", "--r", "2", "--deg", "0"]
    code, out, _ = capture(capsys, ["basis", *space])
    assert code == 0 and json.loads(out) == {"bitableaux": ["[|]"], "count": 1}
    code, out, _ = capture(capsys, ["basis", *space, "--format", "table"])
    assert code == 0 and out == "bitableaux.0 = [|]\ncount = 1\n"


def test_basis_at_full_rank_lists_the_enumeration(capsys):
    for m, n, d in ((2, 3, 4), (3, 3, 4), (4, 3, 3)):
        r = min(m, n)
        argv = ["basis", "--m", str(m), "--n", str(n), "--r", str(r), "--deg", str(d)]
        code, out, _ = capture(capsys, argv)
        expect = [str(b) for b in enumerate_standard(Parameters(m, n, r), d)]
        assert code == 0 and json.loads(out) == {"bitableaux": expect, "count": len(expect)}


def test_hilbert_payload_all_methods(capsys):
    for method in ("bitableaux", "lattice", "rank"):
        code, out, _ = capture(
            capsys,
            ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "2", "--method", method],
        )
        assert code == 0 and json.loads(out) == {"dim": 9}


def test_hilbert_formula_payload(capsys):
    code, out, _ = capture(capsys, ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "2",
                                    "--method", "formula"])
    assert code == 0 and json.loads(out) == {"dim": 9}
    # Past every walk's reach: the bitableaux method times out here.
    code, out, _ = capture(capsys, ["hilbert", "--m", "10", "--n", "10", "--r", "5", "--deg", "12",
                                    "--method", "formula"])
    assert code == 0 and json.loads(out) == {"dim": 3907374597368225}


def test_mult_payload(capsys):
    code, out, _ = capture(capsys, ["mult", "--m", "3", "--n", "3", "--r", "2"])
    assert code == 0 and json.loads(out) == {"e": 3}


def test_mcm_classes_payload(capsys):
    code, out, _ = capture(capsys, ["mcm-classes", "--m", "3", "--n", "3", "--r", "2"])
    assert code == 0
    assert json.loads(out) == {
        "classes": [{"ideal": "p", "t": 0}, {"ideal": "p", "t": 1}, {"ideal": "q", "t": 1}],
        "count": 3,
    }


def test_certify_payload(capsys):
    code, out, _ = capture(
        capsys, ["certify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["certificate"]["kind"] == "conic"
    assert payload["certificate"]["report"]["equal"] is True


def test_cone_check_payload(capsys):
    code, out, _ = capture(capsys, ["cone-check", "--m", "2", "--n", "2", "--r", "1", "--deg-bound", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True and payload["power_test_ok"] is True
    rows = {row["degree"]: (row["semigroup"], row["lattice"]) for row in payload["degree_counts"]}
    assert rows[4] == (9, 9)


def test_tilde_check_payload(capsys):
    code, out, _ = capture(capsys, ["tilde-check", "--m", "2", "--n", "2", "--r", "1", "--deg-bound", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    cells = {
        (row["y_degree"], row["z_degree"]): (row["lattice"], row["basis"])
        for row in payload["bidegree_counts"]
    }
    assert cells[(1, 0)] == (2, 2)


def test_ladder_check_payload(capsys):
    code, out, _ = capture(
        capsys,
        ["ladder-check", "--m", "2", "--n", "2", "--r", "2", "--delta", "[2|2]", "--deg-bound", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["prime_ok"] is True
    assert set(payload["variable_set"]) == {"y[1,1]", "y[2,2]", "y[1,2]", "z[1,1]"}


def _payloads():
    """What each check returns on a small grid: equal and unequal sides, a
    named counterexample, t = 0 and each certificate kind."""
    p321, p332, p221 = Parameters(3, 2, 1), Parameters(3, 3, 2), Parameters(2, 2, 1)
    for params, variant, bound in ((p221, "E", 4), (p332, "E", 3), (p332, "Etilde", 3)):
        yield semigroup_vs_cone(params, variant, bound)
    for params, t, eps in ((p332, 1, Fraction(1, 2)), (p332, 2, Fraction(1, 3)),
                           (Parameters(2, 3, 1), 2, Fraction(1, 2))):
        yield conic_equality_check(params, t, eps, 4)
    yield verify_D_tilde(p221, 4)
    yield verify_D_tilde(p321, 3)
    yield verify_ladder(Parameters(2, 3, 2), parse_minor("[1 2|1 3]"), 3)
    for params in (p332, p321, Parameters(2, 4, 1)):
        for ideal in "pq":
            for t in range(4):
                yield classify(params, ideal, t)
                yield certify(params, ideal, t, Fraction(1, 3), 4)


def _mismatched_payloads(monkeypatch):
    """What the cone and ladder checks return when their two sides differ."""
    real_gens, real_vset = cone.generators_semigroup, invariants.ladder_variable_set

    def without_least(params, variant="E"):
        gens = real_gens(params, variant)
        return [g for g in gens if g != min(gens)]

    monkeypatch.setattr(cone, "generators_semigroup", without_least)
    monkeypatch.setattr(invariants, "ladder_variable_set",
                        lambda params, delta: real_vset(params, delta)[1:])
    out = [semigroup_vs_cone(Parameters(2, 2, 1), "E", 4),
           verify_D_tilde(Parameters(2, 2, 1), 3),
           verify_ladder(Parameters(2, 2, 2), parse_minor("[2|2]"), 2)]
    monkeypatch.undo()
    return out


def test_checks_return_json_payloads(monkeypatch):
    # A tuple, a Fraction or an object in a payload would not survive the round trip.
    payloads = list(_payloads())
    mismatched = _mismatched_payloads(monkeypatch)
    assert [p["ok"] for p in mismatched] == [False, False, False]
    assert mismatched[0]["first_mismatch"] is not None
    assert mismatched[2]["first_mismatch"] is not None
    assert any(p.get("first_counterexample") for p in payloads)
    for p in payloads + mismatched:
        assert isinstance(p, dict)
        assert json.loads(json.dumps(p)) == p


def test_table_format(capsys):
    code, out, _ = capture(
        capsys, ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "2", "--format", "table"]
    )
    assert code == 0
    assert out == "dim = 9\n"


def test_validation_failures_exit_one(capsys):
    bad = [
        ["mu", "--m", "3", "--n", "3", "--r", "3", "--t", "1", "--ideal", "p"],
        ["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "z"],
        ["straighten", "--m", "2", "--n", "2", "--r", "1", "--poly", "x[1,1] + ?"],
        ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "2", "--method", "guess"],
        ["basis", "--m", "0", "--n", "2", "--r", "1", "--deg", "1"],
        ["ladder-check", "--m", "2", "--n", "3", "--r", "2", "--delta", "oops"],
    ]
    for argv in bad:
        code, out, err = capture(capsys, argv)
        assert code == 1, argv
        assert err.startswith("error:")


def test_cone_check_past_the_packed_limit_exits_one(capsys):
    code, out, err = capture(
        capsys, ["cone-check", "--m", "2", "--n", "2", "--r", "1", "--deg-bound", "256"]
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "255" in err


def test_cone_check_past_the_work_limit_exits_one_fast():
    # The full E point count up to degree 255 is about 6.3e12; this once hung.
    argv = ["cone-check", "--m", "3", "--n", "3", "--r", "2", "--deg-bound", "255"]
    child = run_child(["-m", "detring", *argv], timeout=10)
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("error: degree bound 255 would build more than 1000000 cone points "
                            "at m=3, n=3, r=2; lower the bound\n")


def _refused_in_a_child(argv, cap_mb=None):
    """(seconds, exit code, stderr) of ``run(argv)`` in a child interpreter
    killed after 10 s, its address space capped at cap_mb MB when given."""
    code = (
        "from time import perf_counter\n"
        "from detring.cli import run\n"
        "start = perf_counter()\n"
        f"code = run({argv!r})\n"
        "print(perf_counter() - start, code)\n"
    )
    child = run_child(["-c", code], cap_mb=cap_mb, timeout=10)
    seconds, exit_code = child.stdout.split()
    return float(seconds), int(exit_code), child.stderr


def test_hilbert_formula_past_its_budget_exits_one_fast():
    # 552,767 partitions of 60 with at most 15 parts: the sum over them once
    # ran past 20 s; at 40x40 r20 d120 it held 1.28 GB after 20 s.
    for (m, r, d), count in (((30, 15, 60), 552767), ((40, 20, 120), 693703134)):
        argv = ["hilbert", "--m", str(m), "--n", str(m), "--r", str(r), "--deg", str(d),
                "--method", "formula"]
        seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
        assert seconds < 1 and code == 1
        assert err == (f"error: degree {d} would sum the hook-content formula over {count} "
                       f"partitions at m={m}, n={m}, r={r}; lower the degree\n")


def test_hilbert_lattice_past_its_budget_exits_one_fast():
    # 2x65 r1 d4 builds 814,385 beta blocks of 65 entries, and took 19.7 s.
    for m, n, r, d in ((2, 65, 1, 4), (8, 8, 4, 12), (2, 2, 2, 100000)):
        argv = ["hilbert", "--m", str(m), "--n", str(n), "--r", str(r), "--deg", str(d),
                "--method", "lattice"]
        seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
        assert seconds < 1 and code == 1
        assert err == (f"error: degree {d} would build more than 2000000 block entries "
                       f"at m={m}, n={n}, r={r}; lower the degree\n")


def test_hilbert_bitableaux_past_its_budget_exits_one_fast():
    # 20x20 r10 d40 walked its 16,928 shapes past 20 s; 12x12 r6 d16 answers
    # in about 2.4 s.
    for m, r, d in ((20, 10, 40), (12, 6, 16)):
        argv = ["hilbert", "--m", str(m), "--n", str(m), "--r", str(r), "--deg", str(d)]
        seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
        assert seconds < 1 and code == 1
        assert err == (f"error: degree {d} would visit more than 20000000 tuple pairs "
                       f"at m={m}, n={m}, r={r}; lower the degree\n")


def test_hilbert_rank_past_its_budget_exits_one_fast():
    # 6x6 r3 d9 ran past a 10 s timeout; 6x6 r2 d6 answered in about 1.2 s
    # and 2x2 r1 d127 in about 5.6 s.  3x12 r1 d20 is refused up front, by
    # C(32, 20) = 225,792,840 alone; 4x5 r1 d9 passes the up-front tally
    # (2,232) and is refused while its rows are filled.
    for m, n, r, d in ((6, 6, 3, 9), (6, 6, 2, 6), (2, 2, 1, 127), (3, 12, 1, 20), (4, 5, 1, 9)):
        argv = ["hilbert", "--m", str(m), "--n", str(n), "--r", str(r), "--deg", str(d),
                "--method", "rank"]
        seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
        assert seconds < 1 and code == 1
        assert err == (f"error: degree {d} would expand more than 100000 image terms and row "
                       f"positions at m={m}, n={n}, r={r}; lower the degree\n")


def test_ladder_check_past_its_budget_exits_one_fast():
    # 24,309, 20,348 and 20,474 chains: these took 57.3 s, 17.2 s and 12.2 s.
    for m, delta, b in ((3, "[2|2]", 8), (4, "[2|2]", 5), (2, "[1|1]", 24)):
        argv = ["ladder-check", "--m", str(m), "--n", str(m), "--r", str(m), "--delta", delta,
                "--deg-bound", str(b)]
        seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
        assert seconds < 1 and code == 1
        assert err == (f"error: degree bound {b} would walk more than 4000 standard chains "
                       f"at m={m}, n={m}, r={m}; lower the bound\n")


def test_tilde_check_past_the_work_limit_exits_one():
    # Every Etilde point up to degree 255 at 3x3 r2 once ran past a 10 s timeout.
    argv = ["tilde-check", "--m", "3", "--n", "3", "--r", "2", "--deg-bound", "255"]
    child = run_child(["-m", "detring", *argv], timeout=10)
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("error: degree bound 255 would build more than 1000000 cone points "
                            "at m=3, n=3, r=2; lower the bound\n")


def test_chain_walks_past_the_packed_limit_exit_one(capsys):
    # One clear line, not a RecursionError traceback from the deep walks.
    space = ["--m", "1", "--n", "1", "--r", "1"]
    for cmd, deg in (("hilbert", 256), ("hilbert", 500), ("basis", 256), ("basis", 990)):
        code, out, err = capture(capsys, [cmd, *space, "--deg", str(deg)])
        assert (code, out) == (1, ""), (cmd, deg)
        assert err == f"error: degree {deg} exceeds the packed-exponent limit 255\n", (cmd, deg)
    # Each walk and the formula share the limit at 2x2 r1 d300, whose lattice
    # blocks are few.
    for method in ("formula", "bitableaux", "lattice"):
        argv = ["hilbert", "--m", "2", "--n", "2", "--r", "1", "--deg", "300", "--method", method]
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, ""), method
        assert err == "error: degree 300 exceeds the packed-exponent limit 255\n", method
    code, out, _ = capture(capsys, ["hilbert", *space, "--deg", "255"])
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = capture(capsys, ["basis", *space, "--deg", "255"])
    assert code == 0 and json.loads(out) == {"count": 1, "bitableaux": ["[1|1]" * 255]}


def test_negative_degree_bounds_exit_one_before_any_work(capsys):
    space = ["--m", "3", "--n", "3", "--r", "2"]
    commands = [
        ["cone-check", *space],
        ["tilde-check", *space],
        ["certify", *space, "--ideal", "p", "--t", "1"],
        ["certify", *space, "--ideal", "q", "--t", "1", "--eps", "1/3"],
        ["ladder-check", "--m", "2", "--n", "2", "--r", "2", "--delta", "[2|2]"],
    ]
    for argv in commands:
        code, out, err = capture(capsys, [*argv, "--deg-bound", "-1"])
        assert (code, out) == (1, ""), argv
        assert err == "error: degree bound must be nonnegative, got -1\n", argv


def test_certify_refuses_a_bad_eps_or_bound_for_every_power(capsys):
    # m - r = 2: t = 0 is the unit ideal, t = 1 runs the conic check and
    # t = 3, past the boundary, is certified by mu > e.
    space = ["certify", "--m", "3", "--n", "3", "--r", "1", "--ideal", "p"]
    refusals = [
        (["--eps", "5"], "error: eps must satisfy 0 < eps < 1, got 5\n"),
        (["--eps", "0"], "error: eps must satisfy 0 < eps < 1, got 0\n"),
        (["--deg-bound", "-4"], "error: degree bound must be nonnegative, got -4\n"),
    ]
    for t in ("0", "1", "3"):
        assert capture(capsys, [*space, "--t", t])[0] == 0, t
        for flags, message in refusals:
            assert capture(capsys, [*space, "--t", t, *flags]) == (1, "", message), (t, flags)


def test_certify_refuses_an_unparsable_eps(capsys):
    space = ["certify", "--m", "3", "--n", "3", "--r", "1", "--ideal", "p", "--t", "1"]
    assert capture(capsys, [*space, "--eps", "abc"]) == (
        1, "", "error: cannot parse --eps value 'abc': Invalid literal for Fraction: 'abc'\n")
    assert capture(capsys, [*space, "--eps", "1/0"]) == (
        1, "", "error: cannot parse --eps value '1/0': Fraction(1, 0)\n")


def test_certify_past_the_work_limit_exits_one_within_a_second():
    # The conic check ran past a 10 s timeout here.  Its ideal side is a
    # subset of the E points up to the bound, which cone-check budgets.
    argv = ["certify", "--m", "4", "--n", "4", "--r", "2", "--ideal", "p", "--t", "1",
            "--deg-bound", "40"]
    seconds, code, err = _refused_in_a_child(argv)
    assert seconds < 1 and code == 1
    assert err == ("error: degree bound 40 would build more than 1000000 cone points "
                   "at m=4, n=4, r=2; lower the bound\n")
    # The largest conic check the tests answer (2x2, r = 1, bound 256) stays under it.
    params = Parameters(2, 2, 1)
    assert sum(count_standard(params, k) for k in range(129)) == 723905 < cone.WORK_LIMIT


def test_cone_commands_leave_no_more_cyclic_garbage_than_mu(capsys):
    # A self-calling nested function or generator is a reference cycle that
    # keeps its frames, and what they hold, until the cyclic collector runs.
    def garbage(argv):
        gc.collect()
        assert capture(capsys, argv)[0] == 0, argv
        return gc.collect()

    space = ["--m", "3", "--n", "4", "--r", "2"]
    mu = ["mu", *space, "--t", "1", "--ideal", "p"]
    commands = [
        ["cone-check", *space, "--deg-bound", "6"],
        ["certify", "--m", "4", "--n", "5", "--r", "2", "--ideal", "p", "--t", "1", "--deg-bound", "6"],
        ["tilde-check", *space, "--deg-bound", "4"],
        ["hilbert", "--m", "4", "--n", "4", "--r", "2", "--deg", "3", "--method", "lattice"],
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(mu)  # the first run may build the parser
        base = garbage(mu)
        for argv in commands:
            assert garbage(argv) <= base, argv
    finally:
        if enabled:
            gc.enable()


def test_unknown_flags_and_commands_exit_one(capsys):
    assert run(["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p", "--frob", "1"]) == 1
    capsys.readouterr()
    assert run(["frobnicate"]) == 1
    capsys.readouterr()
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "straighten" in out
    assert main(["mu", "--help"]) == 0
    capsys.readouterr()


def test_output_is_byte_identical_across_runs(capsys):
    commands = [
        ["basis", "--m", "2", "--n", "2", "--r", "1", "--deg", "3"],
        ["straighten", "--m", "3", "--n", "3", "--r", "2", "--poly", "x[1,3]*x[2,1]*x[3,2]"],
        ["certify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p"],
        ["cone-check", "--m", "2", "--n", "3", "--r", "2", "--deg-bound", "4"],
        ["mcm-classes", "--m", "4", "--n", "4", "--r", "2"],
    ]
    for argv in commands:
        first = capture(capsys, argv)
        second = capture(capsys, argv)
        assert first == second
        assert first[0] == 0


def test_one_process_answers_like_fresh_interpreters(capsys):
    # The parser is built once per process and reused: no run may leak
    # options, defaults or errors into the next one.
    argvs = [
        ["hilbert", "--m", "2", "--n", "3", "--r", "1", "--deg", "2", "--method", "rank"],
        ["hilbert", "--m", "2", "--n", "3", "--r", "1", "--deg", "2"],
        ["straighten", "--m", "2", "--n", "2", "--r", "2", "--poly", "x[1,2]*x[2,1]",
         "--format", "table"],
        ["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "2"],
        ["mu", "--m", "3", "--n", "3", "--r", "2", "--t", "2", "--ideal", "q"],
    ]
    codes = []
    for argv in argvs:
        codes.append(main(argv))
        out = capsys.readouterr()
        child = run_child(["-m", "detring", *argv])
        assert (codes[-1], out.out, out.err) == (child.returncode, child.stdout, child.stderr), argv
    assert codes == [0, 0, 0, 1, 0]


def test_reference_examples_print_what_the_docs_show(capsys):
    # Every ``$ detring ...`` example in docs/cli.md whose payload is shown in
    # full (no "...") must be the command's stdout byte for byte.
    docs = Path(__file__).resolve().parent.parent / "docs" / "cli.md"
    blocks = re.findall(r"^```\n\$ detring ([^\n]*)\n(.*?)\n```$", docs.read_text(), re.M | re.S)
    checked = 0
    for command, payload in blocks:
        if "..." in payload:
            continue
        code, out, _ = capture(capsys, shlex.split(command))
        assert (code, out) == (0, payload + "\n"), command
        checked += 1
    assert checked >= 9


@pytest.mark.parametrize("argv", [
    ["straighten", "--m", "3", "--n", "3", "--r", "2", "--poly=--"],
    ["member", "--m", "3", "--n", "3", "--r", "2", "--poly=--"],
    ["ladder-check", "--m", "3", "--n", "3", "--r", "3", "--delta=--"],
    ["certify", "--m", "3", "--n", "3", "--r", "2", "--t", "1", "--ideal", "p", "--eps=--"],
])
def test_an_equals_dash_dash_value_is_a_usage_error_on_both_paths(capsys, argv):
    # Python 3.11's argparse reads "--poly=--" as an empty list, which every
    # handler met with a TypeError or AttributeError traceback.
    option = argv[-1][:-3]
    expect = (1, "", f"error: argument {option}: expected one argument\n")
    assert capture(capsys, argv) == expect
    with mock.patch.object(cli, "_read", lambda grammar, tokens: None):
        assert capture(capsys, argv) == expect


def _least_refused_power():
    """The least t at 3x4 r2 whose column-pinned mu = C(t + 2, 2) has more
    than 4300 digits, by bisection."""
    lo, hi = 0, 10**2200
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.comb(mid + 2, 2) < 10**4300 else (lo, mid)
    return hi


def test_counts_past_the_printable_digits_exit_one_with_one_line(capsys):
    space = ["--m", "3", "--n", "4", "--r", "2", "--ideal", "q"]
    refusal = ("error: the count would have more than 4300 digits at m=3, n=4, r=2; "
               "lower the power\n")
    for command in ("mu", "classify"):
        # A 2501-digit t raised ValueError in the JSON writer, past run's try.
        assert capture(capsys, [command, *space, "--t", str(10**2500)]) == (1, "", refusal)
    code, out, _ = capture(capsys, ["mu", *space, "--t", str(10**1500)])
    assert code == 0 and len(out) == 3013
    t = _least_refused_power()
    mu = math.comb(t + 1, 2)  # at t - 1: 4300 digits
    assert 10**4299 <= mu < 10**4300
    assert capture(capsys, ["mu", *space, "--t", str(t - 1)]) == (0, f'{{\n  "mu": {mu}\n}}\n', "")
    assert capture(capsys, ["mu", *space, "--t", str(t)]) == (1, "", refusal)


@pytest.mark.parametrize("argv, noun", [
    (["mult", "--m", "2000", "--n", "2000", "--r", "1000"], "matrix size"),
    (["mult", "--m", "400", "--n", "400", "--r", "200"], "matrix size"),
    (["mult", "--m", "300", "--n", "300", "--r", "150"], "matrix size"),
    (["classify", "--m", "300", "--n", "300", "--r", "150", "--t", "200", "--ideal", "p"], "power"),
    (["mu", "--m", "100000", "--n", "100000", "--r", "50000", "--t", "1", "--ideal", "p"],
     "power"),
])
def test_counts_past_the_digit_limit_refuse_within_a_second(argv, noun):
    # Each ran past 4 s by r x r determinant, mult 300x300 r150 past 100 s.
    seconds, code, err = _refused_in_a_child(argv, cap_mb=1536)
    m, n, r = argv[2], argv[4], argv[6]
    assert seconds < 1 and code == 1
    assert err == (f"error: the count would have more than 4300 digits at m={m}, n={n}, "
                   f"r={r}; lower the {noun}\n")


def test_large_box_counts_answer_within_a_second(capsys):
    for argv in (["mu", "--m", "200", "--n", "200", "--r", "100", "--t", "50", "--ideal", "p"],
                 ["mult", "--m", "120", "--n", "120", "--r", "60"],
                 ["mult", "--m", "2", "--n", "1000000000", "--r", "1"]):
        start = time.perf_counter()
        code, out, err = capture(capsys, argv)
        assert time.perf_counter() - start < 1 and (code, err) == (0, ""), argv
    assert out == '{\n  "e": 1000000000\n}\n'


def test_classify_exits_two_when_mu_meets_e_below_the_boundary(monkeypatch, capsys):
    # Below the boundary a Cohen-Macaulay class that is not Ulrich has mu < e.
    module = importlib.import_module("detring.classify")
    monkeypatch.setattr(module, "mu_power", lambda params, ideal, t: module.multiplicity(params))
    argv = ["classify", "--m", "4", "--n", "5", "--r", "2", "--ideal", "p"]
    assert capture(capsys, [*argv, "--t", "1"]) == (2, "", (
        "internal check failed: power 1 with boundary 2 should have mu < e, got mu=50, e=50\n"))
    assert capture(capsys, [*argv, "--t", "0"])[0] == 2
    assert capture(capsys, [*argv, "--t", "2"])[0] == 0
