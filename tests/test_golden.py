"""SHA-256 digests over the CLI's exit codes and output on desk grids.

One digest pins every byte the cone commands print (`cone-check`, `certify`
for both classes, `tilde-check` and `hilbert --method lattice`), another every
byte the tableaux commands print (`basis` in both formats and `hilbert
--method bitableaux`), each on every format with m, n <= 4, and a third every
byte the elimination commands print (`ladder-check` and `hilbert --method
rank`) on every format with m, n <= 3.  A change to the cone, tableaux or
elimination code that moves any payload, message or exit code shows up here.
When a change is meant to move output, print the new digest with
``golden_digest(argvs)`` and say why it moved.
"""

import contextlib
import hashlib
import io
import json

from detring.cli import run
from detring.tableaux import Parameters, all_minors
from helpers import parameter_triples

GOLDEN_TABLEAUX = "717fb8a07c7b3b5458e9a7c5af5c3838721ff901ca71beb206bdcb64a6859478"
GOLDEN = "405d3dc06ae4c81786cf6fac603f82fea498c861b9b222f6e1d6f457b442bfbf"
GOLDEN_ELIMINATION = "a5a6ac16fd57d571d1d002b0f157444a9574e5b9c621f2d03959fafd6a325458"


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
