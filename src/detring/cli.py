"""Command line driver.

Every subcommand prints a single deterministic payload (JSON by default,
``--format table`` for a flat key listing) and exits 0 on success, 1 on bad
usage or validation failure, and 2 when an internal consistency check that
the theory guarantees comes out false.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import certify, classify, rank1_mcm_classes
from .cone import conic_equality_check, semigroup_vs_cone
from .counting import hilbert_function, multiplicity, mu_power
from .errors import DetringError, InternalCheckError
from .invariants import verify_D_tilde, verify_ladder
from .poly import parse_polynomial
from .straighten import is_in_ideal, straighten
from .tableaux import Parameters, enumerate_standard, parse_minor

__all__ = ["main", "run", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _params(args):
    return Parameters(args.m, args.n, args.r)


def _eps(text):
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse --eps value {text!r}: {exc}") from None
    return eps


def _cmd_basis(args):
    basis = enumerate_standard(_params(args), args.deg)
    return {"count": len(basis), "bitableaux": [str(b) for b in basis]}, 0


def _cmd_straighten(args):
    params = _params(args)
    f = parse_polynomial(args.poly, params.x_space)
    combo = straighten(f, params)
    return {"terms": combo.as_pairs()}, 0


def _cmd_member(args):
    params = _params(args)
    f = parse_polynomial(args.poly, params.x_space)
    return {"in_ideal": is_in_ideal(f, params)}, 0


def _cmd_hilbert(args):
    return {"dim": hilbert_function(_params(args), args.deg, args.method)}, 0


def _cmd_mu(args):
    return {"mu": mu_power(_params(args), args.ideal, args.t)}, 0


def _cmd_mult(args):
    return {"e": multiplicity(_params(args))}, 0


def _cmd_classify(args):
    return classify(_params(args), args.ideal, args.t).to_dict(), 0


def _cmd_certify(args):
    cert = certify(_params(args), args.ideal, args.t, _eps(args.eps), args.deg_bound)
    return cert.to_dict(), 0 if cert.consistent else 2


def _cmd_cone_check(args):
    report = semigroup_vs_cone(_params(args), "E", args.deg_bound)
    return report.to_dict(), 0 if report.ok else 2


def _cmd_tilde_check(args):
    report = verify_D_tilde(_params(args), args.deg_bound)
    return report.to_dict(), 0 if report.ok else 2


def _cmd_ladder_check(args):
    delta = parse_minor(args.delta)
    report = verify_ladder(_params(args), delta, args.deg_bound)
    return report.to_dict(), 0 if report.ok else 2


def _cmd_mcm_classes(args):
    classes = rank1_mcm_classes(_params(args))
    return {
        "classes": [{"ideal": ideal, "t": t} for ideal, t in classes],
        "count": len(classes),
    }, 0


def build_parser():
    parser = _Parser(prog="detring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text, *, deg=False, t=False, ideal=False, poly=False,
            delta=False, method=False, eps=False, deg_bound=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--m", type=int, required=True, help="row count of the matrix")
        p.add_argument("--n", type=int, required=True, help="column count of the matrix")
        p.add_argument("--r", type=int, required=True, help="rank bound")
        if deg:
            p.add_argument("--deg", type=int, required=True, help="homogeneous degree")
        if t:
            p.add_argument("--t", type=int, required=True, help="symbolic power")
        if ideal:
            p.add_argument("--ideal", choices=("p", "q"), required=True,
                           help="row-pinned (p) or column-pinned (q) divisor class")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial in the x variables")
        if delta:
            p.add_argument("--delta", required=True, help="minor like '[1 2|1 3]'")
        if method:
            p.add_argument("--method", choices=("bitableaux", "lattice", "rank"),
                           default="bitableaux", help="counting strategy")
        if eps:
            p.add_argument("--eps", default="1/2", help="witness offset, a rational in (0,1)")
        if deg_bound is not None:
            p.add_argument("--deg-bound", dest="deg_bound", type=int, default=deg_bound,
                           help="verification degree bound")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized workflows (accepted for interface stability)")
        p.set_defaults(handler=handler)
        return p

    add("basis", _cmd_basis, "standard bitableaux of one degree", deg=True)
    add("straighten", _cmd_straighten, "standard expansion of a polynomial", poly=True)
    add("member", _cmd_member, "membership in the minor ideal", poly=True)
    add("hilbert", _cmd_hilbert, "dimension of a degree slice", deg=True, method=True)
    add("mu", _cmd_mu, "minimal generators of a symbolic power", t=True, ideal=True)
    add("mult", _cmd_mult, "multiplicity of the ring")
    add("classify", _cmd_classify, "Cohen-Macaulay/Ulrich verdict", t=True, ideal=True)
    add("certify", _cmd_certify, "verdict with computational evidence",
        t=True, ideal=True, eps=True, deg_bound=6)
    add("cone-check", _cmd_cone_check, "semigroup vs cone lattice points", deg_bound=6)
    add("tilde-check", _cmd_tilde_check, "extended initial algebra verification", deg_bound=6)
    add("ladder-check", _cmd_ladder_check, "ladder initial ideal verification",
        delta=True, deg_bound=3)
    add("mcm-classes", _cmd_mcm_classes, "rank-one maximal Cohen-Macaulay classes")
    return parser


def _emit_table(payload, prefix="", lines=None):
    lines = [] if lines is None else lines
    if isinstance(payload, dict):
        for key in sorted(payload):
            _emit_table(payload[key], f"{prefix}{key}." if prefix else f"{key}.", lines)
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            _emit_table(item, f"{prefix}{i}." if prefix else f"{i}.", lines)
    else:
        lines.append(f"{prefix[:-1]} = {payload}")
    return lines


def _emit(payload, fmt):
    if fmt == "table":
        sys.stdout.write("\n".join(_emit_table(payload)) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@functools.cache
def _parser():
    """The parser, built on first use and shared by every later run."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        payload, code = args.handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, DetringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format)
    return code


def main(argv=None):
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
