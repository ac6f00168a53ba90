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
from .cone import semigroup_vs_cone
from .counting import hilbert_function, multiplicity, mu_power
from .errors import DetringError, InternalCheckError
from .invariants import verify_D_tilde, verify_ladder
from .poly import parse_polynomial
from .straighten import is_in_ideal, straighten
from .tableaux import Parameters, _standard_texts, parse_minor

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


class _Tally:
    """A list of strings that ``_emit`` writes batch by batch as they arrive,
    counting the items as they pass: ``head + tail`` per tail of each
    ``(head, tails)`` group in a batch.  JSON writes each as itself in quotes,
    so none may need escaping, as table minors' texts (``Minor._text``) never do."""

    def __init__(self, batches):
        self.batches, self.count = batches, 0

    def __iter__(self):
        for batch in self.batches:
            self.count += sum([len(tails) for _, tails in batch])
            yield batch


def _cmd_basis(args):
    # "count" sorts after "bitableaux", so the writer reads it after the stream.
    texts = _Tally(_standard_texts(_params(args), args.deg))
    return {"bitableaux": texts, "count": lambda: texts.count}, 0


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
    return classify(_params(args), args.ideal, args.t), 0


def _cmd_certify(args):
    payload = certify(_params(args), args.ideal, args.t, _eps(args.eps), args.deg_bound)
    return payload, 0 if payload["consistent"] else 2


def _cmd_cone_check(args):
    payload = semigroup_vs_cone(_params(args), "E", args.deg_bound)
    return payload, 0 if payload["ok"] else 2


def _cmd_tilde_check(args):
    payload = verify_D_tilde(_params(args), args.deg_bound)
    return payload, 0 if payload["ok"] else 2


def _cmd_ladder_check(args):
    delta = parse_minor(args.delta)
    payload = verify_ladder(_params(args), delta, args.deg_bound)
    return payload, 0 if payload["ok"] else 2


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
            p.add_argument("--method", choices=("formula", "bitableaux", "lattice", "rank"),
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


_encode_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _flush(out, write):
    """Write what out holds and empty it, keeping one "" to mark that
    something was written."""
    write("".join(out))
    out[:] = [""]


def _json(value, out, write, indent):
    """Append value as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, nested at indent (keys are strings, as in every payload)."""
    if callable(value):
        value = value()
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(f"{sep}{_encode_str(key)}: ")
            _json(value[key], out, write, inner)
            sep = ",\n" + inner
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json(item, out, write, inner)
            sep = ",\n" + inner
        out.append(f"\n{indent}]")
    elif isinstance(value, _Tally):
        inner = indent + "  "
        sep, quoted = "[\n" + inner, '",\n' + inner + '"'
        for batch in value:
            for head, tails in batch:
                # One join per group: its head goes in front of every tail.
                out += (sep, '"', head, (quoted + head).join(tails), '"')
                sep = ",\n" + inner
            _flush(out, write)
        out.append(f"\n{indent}]" if value.count else "[]")
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def _table(value, out, write, prefix):
    """Append one ``path = value`` line per scalar of value, under prefix."""
    if callable(value):
        value = value()
    if isinstance(value, dict):
        for key in sorted(value):
            _table(value[key], out, write, f"{prefix}{key}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _table(item, out, write, f"{prefix}{i}.")
    elif isinstance(value, _Tally):
        start = 0
        for batch in value:
            for head, tails in batch:
                out += [f"{prefix}{i} = {head}{tail}\n" for i, tail in enumerate(tails, start)]
                start += len(tails)
            _flush(out, write)
    else:
        out.append(f"{prefix[:-1]} = {value}\n")


def _emit(payload, fmt):
    """Write payload to the current ``sys.stdout``: as JSON, the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``; as a table, one
    ``dotted.path = value`` line per scalar, keys sorted (a single newline
    when there is none).

    Besides dicts, lists, tuples and scalars, a value may be a ``_Tally``, a
    list of strings arriving in batches, each written as it comes, or a
    callable, written as what it returns when the writer reaches it (so after
    every value whose key sorts before its own).
    """
    out, write = [], sys.stdout.write
    if fmt == "table":
        _table(payload, out, write, "")
    else:
        _json(payload, out, write, "")
        out.append("\n")
    write("".join(out) if out else "\n")


@functools.cache
def _parsers():
    """The parser and each subcommand's parser by name, built once per process."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def run(argv=None):
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    # A named subcommand parses its own arguments: the same messages, less work.
    direct = commands.get(argv[0]) if argv else None
    try:
        args = direct.parse_args(argv[1:]) if direct else parser.parse_args(argv)
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
