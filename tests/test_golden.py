"""SHA-256 digests over the CLI's exit codes and output on desk grids.

One digest pins every byte the cone commands print (`cone-check`, `certify`
for both classes, `tilde-check` and `hilbert --method lattice`), another every
byte the tableaux commands print (`basis` in both formats and `hilbert
--method bitableaux`), each on every format with m, n <= 4, and a third every
byte the elimination commands print (`ladder-check` and `hilbert --method
rank`) on every format with m, n <= 3.  Two more pin the classification
commands (`classify`, `mu`, `mult`, `mcm-classes`) on every format with
m, n <= 4, and `straighten` and `member` over a fixed list of polynomial
texts on every format with m, n <= 3.  A sixth pins `straighten` at the
benchmark's formats (4,4,3), (5,5,3) and (5,5,4) on degree-5 and -6
polynomials, where the floor window keeps a small part of each image.  A
seventh pins `member` at (4,4,3), (5,5,3) and (5,5,4), on those polynomials
and on minor-built ones, and `hilbert --method rank` on formats up to 12x12,
refusals included.  An eighth pins how command lines are read: one query per
subcommand in every spelling argparse accepts, usage errors and ``--help``
(at 80 columns; argparse's messages and help text are those of the Python
that runs it, here 3.11).  A change to the cone, tableaux, elimination,
classification or straightening code, or to the command line, that moves any
payload, message or exit code shows up here.
When a change is meant to move output, print the new digest with
``golden_digest(argvs)`` and say why it moved.

Run as a script, ``PYTHONPATH=src python3 tests/test_golden.py``, it needs no
pytest: it prints whether each digest matches and exits 1 on a mismatch.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import combinations, permutations
from unittest import mock

from detring import cli
from detring.cli import main
from detring.tableaux import Parameters, all_minors
from helpers import SUBCOMMAND_QUERIES, parameter_triples

GOLDEN_TABLEAUX = "717fb8a07c7b3b5458e9a7c5af5c3838721ff901ca71beb206bdcb64a6859478"
GOLDEN = "405d3dc06ae4c81786cf6fac603f82fea498c861b9b222f6e1d6f457b442bfbf"
GOLDEN_ELIMINATION = "a5a6ac16fd57d571d1d002b0f157444a9574e5b9c621f2d03959fafd6a325458"
GOLDEN_CLASSIFY = "a5ae70e9dc03849dc06452ea50b156629fbe5b87e0d599c88cd89b61cce6c10b"
GOLDEN_STRAIGHTEN = "b22c1bbce14e58eb7dfbabf3c9782dde17b12a4b7f1db556e8b28e346c5b6076"
GOLDEN_WINDOW = "f095b4bb583dfbe8b0eba3b5638c28faefceb59e3eac9a44c39fa3a8c5e49461"
GOLDEN_MEMBER_RANK = "f509a82cc2b77ebce9f2e76e706bb3cdc9f0373b5ea2ee94d922c14d5b30c9c9"
GOLDEN_PARSING = "8113ef5333931458f160392397b1701815826a3d2b04658d7128ad8a03087020"

# Zero, a constant, rational coefficients, mixed degrees, the 2- and 3-minors
# [1 2|1 2] and [1 2 3|1 2 3] times a variable, a non-standard product, a
# degree-128 monomial (its image passes the packed limit: exit 1), a y
# variable and a variable off the smaller formats (exit 1).
POLY_TEXTS = (
    "0",
    "7",
    "1/2*x[1,1]^2 - 3/4*x[1,1]",
    "x[1,1]^3 - 2/3*x[1,1] + 5",
    "x[1,1]^2*x[2,2] - x[1,1]*x[1,2]*x[2,1]",
    "x[1,1]*x[2,2]*x[3,3]*x[1,1] - x[1,1]*x[2,3]*x[3,2]*x[1,1]"
    " - x[1,2]*x[2,1]*x[3,3]*x[1,1] + x[1,2]*x[2,3]*x[3,1]*x[1,1]"
    " + x[1,3]*x[2,1]*x[3,2]*x[1,1] - x[1,3]*x[2,2]*x[3,1]*x[1,1]",
    "x[1,2]*x[2,1] + 1/3*x[1,1]*x[2,2]",
    "x[2,2]^2*x[1,3]*x[3,1] - x[1,1]*x[3,3]",
    "x[1,2]*x[2,1]*x[2,2] - 2*x[2,1]*x[1,2] + x[2,2]",
    "x[1,1]^128",
    "y[1,1]",
    "x[3,3]",
)


def _space(m, n, r):
    return ["--m", str(m), "--n", str(n), "--r", str(r)]


def golden_argvs():
    """The grid: cone commands on every format with m, n <= 4, bounds <= 6."""
    formats = parameter_triples(4, 4)
    argvs = []
    for f in formats:
        for b in (-1, *range(7), 256):
            argvs.append(["cone-check", *_space(*f), "--deg-bound", str(b)])
        for b in (-1, *range(7), 256):
            argvs.append(["tilde-check", *_space(*f), "--deg-bound", str(b)])
        for d in range(4):
            argvs.append(["hilbert", *_space(*f), "--deg", str(d), "--method", "lattice"])
        for ideal in "pq":
            for t in range(4):
                for eps in ("1/2", "1/3"):
                    for b in (2, 4, 6):
                        argvs.append(["certify", *_space(*f), "--ideal", ideal, "--t", str(t),
                                      "--eps", eps, "--deg-bound", str(b)])
    return argvs


def tableaux_argvs():
    """The grid: tableaux commands on every format with m, n <= 4, degrees -1..4."""
    argvs = []
    for f in parameter_triples(4, 4):
        for d in range(-1, 5):
            deg = ["--deg", str(d)]
            argvs.append(["basis", *_space(*f), *deg])
            argvs.append(["basis", *_space(*f), *deg, "--format", "table"])
            argvs.append(["hilbert", *_space(*f), *deg, "--method", "bitableaux"])
    return argvs


def elimination_argvs():
    """The grid: `ladder-check` on every full-rank format with m, n <= 3, every
    delta, bounds -1..3; `hilbert --method rank` on every format with m, n <= 3,
    degrees -1..3."""
    argvs = []
    for m, n, r in parameter_triples(3, 3):
        for d in range(-1, 4):
            argvs.append(["hilbert", *_space(m, n, r), "--deg", str(d), "--method", "rank"])
        if r != min(m, n):
            continue
        for delta in all_minors(Parameters(m, n, r)):
            for b in range(-1, 4):
                argvs.append(["ladder-check", *_space(m, n, r), "--delta", str(delta),
                              "--deg-bound", str(b)])
    return argvs


def classify_argvs():
    """The grid: `classify` and `mu` for both ideals and t -1..4, `mult` and
    `mcm-classes`, on every format with m, n <= 4."""
    argvs = []
    for f in parameter_triples(4, 4):
        for ideal in "pq":
            for t in range(-1, 5):
                for cmd in ("classify", "mu"):
                    argvs.append([cmd, *_space(*f), "--ideal", ideal, "--t", str(t)])
        argvs.append(["mult", *_space(*f)])
        argvs.append(["mcm-classes", *_space(*f)])
    return argvs


def straighten_argvs():
    """The grid: `straighten` and `member` on every format with m, n <= 3,
    over ``POLY_TEXTS``."""
    return [[cmd, *_space(*f), "--poly", text]
            for f in parameter_triples(3, 3) for text in POLY_TEXTS
            for cmd in ("straighten", "member")]


def _minor_terms(coeff, rows, cols, tail):
    """Text of coeff * [rows|cols] * tail, one term per permutation, each
    with a leading sign."""
    terms = []
    for perm in permutations(cols):
        odd = sum(a > b for a, b in combinations(perm, 2)) % 2
        cells = "*".join(f"x[{i},{j}]" for i, j in zip(rows, perm))
        terms.append(f"{'-' if odd else '+'} {coeff}*{cells}*{tail}")
    return " ".join(terms)


# The benchmark's four stretch monomials at (5,5,4), then degree-5 and -6
# polynomials of two terms at (4,4,3) and (5,5,3), and at each a minor-built
# one: an (r+1)-minor multiple, which straightens to nothing, plus a minor of
# size r times two variables.
WINDOW_POLYS = (
    ((5, 5, 4), "-7/3*x[4,5]*x[1,2]*x[5,4]*x[3,4]*x[1,4]*x[1,3]"),
    ((5, 5, 4), "5/2*x[2,5]*x[1,3]*x[1,4]*x[4,4]*x[4,2]*x[1,4]"),
    ((5, 5, 4), "-1/7*x[3,2]*x[3,3]*x[5,1]*x[3,3]*x[3,2]*x[1,2]"),
    ((5, 5, 4), "8/3*x[1,1]*x[3,4]*x[4,3]*x[1,1]*x[2,2]*x[5,4]"),
    ((4, 4, 3), "3/2*x[1,2]*x[2,1]*x[3,4]*x[4,3]*x[2,2] - 2/3*x[1,1]*x[2,3]*x[4,4]*x[3,2]*x[1,4]"),
    ((4, 4, 3), "x[4,1]*x[3,2]*x[2,3]*x[1,4]*x[4,4]*x[1,1] - 5/7*x[1,3]^2*x[2,4]*x[3,1]*x[4,2]^2"),
    ((4, 4, 3), _minor_terms(1, (1, 2, 3, 4), (1, 2, 3, 4), "x[2,3]") + " "
                + _minor_terms("1/2", (1, 2, 4), (2, 3, 4), "x[4,1]*x[1,2]")),
    ((5, 5, 3), "x[5,5]*x[1,2]*x[2,1]*x[3,4]*x[4,3] + 4/3*x[1,5]*x[5,1]*x[2,2]*x[3,3]*x[4,4]"),
    ((5, 5, 3), "x[1,1]*x[2,5]*x[3,2]*x[4,4]*x[5,3]*x[1,3]"
                " - 1/5*x[5,5]*x[4,1]*x[3,3]*x[2,2]*x[1,4]*x[2,1]"),
    ((5, 5, 3), _minor_terms(1, (1, 2, 3, 5), (1, 3, 4, 5), "x[2,2]") + " "
                + _minor_terms("2/3", (2, 4, 5), (1, 2, 5), "x[4,4]*x[3,1]")),
)


def window_argvs():
    """The grid: `straighten` of ``WINDOW_POLYS`` at (4,4,3), (5,5,3) and (5,5,4)."""
    return [["straighten", *_space(*f), f"--poly={text}"] for f, text in WINDOW_POLYS]


# Sums of (r+1)-minors times a variable, as the benchmark's member queries
# build them, at (4,4,3) and (5,5,3): in the ideal, and not with a stray term
# of a content the minor's terms have.
MEMBER_POLYS = (
    ((4, 4, 3), _minor_terms(2, (1, 2, 3, 4), (1, 2, 3, 4), "x[3,2]") + " "
                + _minor_terms("5/3", (1, 2, 3, 4), (1, 2, 3, 4), "x[1,4]")),
    ((4, 4, 3), _minor_terms("1/2", (1, 2, 3, 4), (1, 2, 3, 4), "x[2,2]")
                + " + x[1,2]*x[2,1]*x[3,3]*x[4,4]*x[2,2]"),
    ((5, 5, 3), _minor_terms(3, (1, 2, 3, 5), (1, 3, 4, 5), "x[2,2]") + " "
                + _minor_terms("1/4", (2, 3, 4, 5), (1, 2, 4, 5), "x[5,1]")),
    ((5, 5, 3), _minor_terms(1, (1, 2, 4, 5), (2, 3, 4, 5), "x[4,4]")
                + " - 2*x[1,3]*x[2,2]*x[4,4]*x[5,5]*x[4,4]"),
)


def member_rank_argvs():
    """The grid: `member` of ``WINDOW_POLYS`` and ``MEMBER_POLYS``, then
    `hilbert --method rank` on formats with m, n in 1, 2, 3, 5, 12, r in 1,
    about half of min(m, n) and min(m, n), at degrees whose work answers,
    passes the rank budget or passes the packed limit."""
    argvs = [["member", *_space(*f), f"--poly={text}"] for f, text in WINDOW_POLYS + MEMBER_POLYS]
    for m in (1, 2, 3, 5, 12):
        for n in (1, 2, 3, 5, 12):
            for r in sorted({1, max(1, min(m, n) // 2), min(m, n)}):
                for d in (-1, 0, 3, 6, 9, 127, 128):
                    argvs.append(["hilbert", *_space(m, n, r), "--deg", str(d), "--method", "rank"])
    return argvs


def _abbreviation(option, options):
    """The shortest prefix of option that is a prefix of no other option."""
    return next(option[:k] for k in range(3, len(option) + 1) if k == len(option)
                or not any(o != option and o.startswith(option[:k]) for o in options))


def parsing_argvs():
    """The grid: each of ``SUBCOMMAND_QUERIES`` in every spelling argparse
    accepts (space and ``=`` forms, reordered,
    repeated with an earlier other value, abbreviated, ``--format table``,
    ``--seed``), then usage errors, spellings that argparse alone reads and
    ``--help``."""
    argvs = []
    for name, pairs in SUBCOMMAND_QUERIES:
        options = [s for a in cli._parsers()[1][name]._actions for s in a.option_strings]
        space = [t for pair in pairs for t in pair]
        spellings = (
            space,
            [f"{o}={v}" for o, v in pairs],
            [t for pair in pairs[::-1] for t in pair],
            ["--m", "9", "--n", "9", *space],
            [t for o, v in pairs for t in (_abbreviation(o, options), v)],
            [*space, "--format", "table"],
            [*space, "--seed", "7", "--format=json"],
        )
        argvs += [[name, *tokens] for tokens in spellings]
        first, value = pairs[-1]
        argvs += [
            [name, *space[:-1]],  # a trailing option
            [name, *space[:2]],  # options missing
            [name, *space, "--frob", "1"],  # an unknown option
            [name, *space, "extra"],  # an extra positional
            [name, *space, "--m", "x"],  # a bad int
            [name, *space, "--format", "yaml"],  # a bad choice
            [name, *space, "--de", "3"],  # an abbreviation, ambiguous or not
            [name, *space, "--m", "-1"],  # a negative space-form value
            [name, *space, "--m=-1"],
            [name, *space, "--", first, value],
            [name, *space, "--seed", "--format"],
            [name, *space, "--help"],
            [name, "-h"],
        ]
    argvs += [[], ["frob"], ["--help"], ["straighten", "--m", "3", "--n", "3", "--r", "2",
                                          "--poly", "-x[1,1]"]]
    return argvs


def golden_digest(argvs):
    """Digest of each argv with the exit code ``main`` returns and the text it
    writes to stdout and stderr, help at 80 columns."""
    digest = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return digest.hexdigest()


def test_cone_commands_print_the_recorded_bytes():
    assert golden_digest(golden_argvs()) == GOLDEN


def test_tableaux_commands_print_the_recorded_bytes():
    assert golden_digest(tableaux_argvs()) == GOLDEN_TABLEAUX


def test_elimination_commands_print_the_recorded_bytes():
    assert golden_digest(elimination_argvs()) == GOLDEN_ELIMINATION


def test_classification_commands_print_the_recorded_bytes():
    assert golden_digest(classify_argvs()) == GOLDEN_CLASSIFY


def test_straightening_commands_print_the_recorded_bytes():
    assert golden_digest(straighten_argvs()) == GOLDEN_STRAIGHTEN


def test_straightening_at_the_benchmark_formats_prints_the_recorded_bytes():
    assert golden_digest(window_argvs()) == GOLDEN_WINDOW


def test_membership_and_the_rank_method_print_the_recorded_bytes():
    assert golden_digest(member_rank_argvs()) == GOLDEN_MEMBER_RANK


def test_every_spelling_and_usage_error_prints_the_recorded_bytes():
    assert golden_digest(parsing_argvs()) == GOLDEN_PARSING


if __name__ == "__main__":
    grids = (("cone", golden_argvs, GOLDEN), ("tableaux", tableaux_argvs, GOLDEN_TABLEAUX),
             ("elimination", elimination_argvs, GOLDEN_ELIMINATION),
             ("classification", classify_argvs, GOLDEN_CLASSIFY),
             ("straightening", straighten_argvs, GOLDEN_STRAIGHTEN),
             ("window", window_argvs, GOLDEN_WINDOW),
             ("member and rank", member_rank_argvs, GOLDEN_MEMBER_RANK),
             ("parsing", parsing_argvs, GOLDEN_PARSING))
    matches = [golden_digest(argvs()) == digest for _, argvs, digest in grids]
    for (name, _, _), match in zip(grids, matches):
        print(f"{name}: {'match' if match else 'MISMATCH'}")
    sys.exit(0 if all(matches) else 1)
