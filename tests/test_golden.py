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
change to the cone, tableaux, elimination, classification or straightening
code that moves any payload, message or exit code shows up here.
When a change is meant to move output, print the new digest with
``golden_digest(argvs)`` and say why it moved.

Run as a script, ``PYTHONPATH=src python3 tests/test_golden.py``, it needs no
pytest: it prints whether each digest matches and exits 1 on a mismatch.
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import combinations, permutations

from detring.cli import run
from detring.tableaux import Parameters, all_minors
from helpers import parameter_triples

GOLDEN_TABLEAUX = "717fb8a07c7b3b5458e9a7c5af5c3838721ff901ca71beb206bdcb64a6859478"
GOLDEN = "405d3dc06ae4c81786cf6fac603f82fea498c861b9b222f6e1d6f457b442bfbf"
GOLDEN_ELIMINATION = "a5a6ac16fd57d571d1d002b0f157444a9574e5b9c621f2d03959fafd6a325458"
GOLDEN_CLASSIFY = "a5ae70e9dc03849dc06452ea50b156629fbe5b87e0d599c88cd89b61cce6c10b"
GOLDEN_STRAIGHTEN = "b22c1bbce14e58eb7dfbabf3c9782dde17b12a4b7f1db556e8b28e346c5b6076"
GOLDEN_WINDOW = "f095b4bb583dfbe8b0eba3b5638c28faefceb59e3eac9a44c39fa3a8c5e49461"

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


def golden_digest(argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
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


if __name__ == "__main__":
    grids = (("cone", golden_argvs, GOLDEN), ("tableaux", tableaux_argvs, GOLDEN_TABLEAUX),
             ("elimination", elimination_argvs, GOLDEN_ELIMINATION),
             ("classification", classify_argvs, GOLDEN_CLASSIFY),
             ("straightening", straighten_argvs, GOLDEN_STRAIGHTEN),
             ("window", window_argvs, GOLDEN_WINDOW))
    matches = [golden_digest(argvs()) == digest for _, argvs, digest in grids]
    for (name, _, _), match in zip(grids, matches):
        print(f"{name}: {'match' if match else 'MISMATCH'}")
    sys.exit(0 if all(matches) else 1)
