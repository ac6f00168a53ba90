"""Correctness gate: exit codes, pinned payload hashes and theory cross-checks.

``verify`` looks at one answer per query and returns the reasons each failed
query is wrong.  Every query must exit 0 with a JSON payload.  A query whose
argv was pinned (at the default seed) must reproduce the pinned exit code and
SHA-256 of its stdout.  On top of that each subcommand has a cross-check that
holds for every seed and is computed here, outside any timer:

- straighten: the expansion is standard and evaluates through the
  substitution to the image of the input;
- member: minor-built inputs are in the ideal; any other input is in the
  ideal exactly when its straightening (a query of the same pass) is empty;
- hilbert: the bitableaux, lattice and rank methods agree;
- mu: the determinant formula equals direct enumeration;
- basis: the count matches the list;
- certify, cone-check, tilde-check, ladder-check: consistent/ok, and every
  conic report has nonempty sides, so no vacuous point passes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def argv_key(argv):
    """Pin-table key of a query: the SHA-256 of its argv."""
    return digest(json.dumps(argv))


def _opt(argv, name):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    raise KeyError(name)


def _params(argv):
    from detring.tableaux import Parameters

    return Parameters(int(_opt(argv, "--m")), int(_opt(argv, "--n")), int(_opt(argv, "--r")))


def _check_straighten(argv, payload):
    from detring.generic_point import SubstitutionMap, phi
    from detring.poly import parse_polynomial
    from detring.straighten import StandardCombination
    from detring.tableaux import is_standard, parse_bitableau

    params = _params(argv)
    subst = SubstitutionMap(params)
    terms = tuple((Fraction(t["coeff"]), parse_bitableau(t["bitableau"])) for t in payload["terms"])
    if not all(is_standard(b) for _, b in terms):
        return "straighten: expansion has a non-standard bitableau"
    f = parse_polynomial(_opt(argv, "--poly"), subst.x_space)
    if StandardCombination(params, terms).evaluate("YZ", subst) != phi(f, subst):
        return "straighten: expansion does not evaluate to the image of the input"
    return None


class _Hilbert:
    """Hilbert function by all three methods, once per (m, n, r, d)."""

    def __init__(self):
        self._memo = {}

    def __call__(self, argv):
        from detring.counting import hilbert_function

        params, d = _params(argv), int(_opt(argv, "--deg"))
        key = (params, d)
        if key not in self._memo:
            self._memo[key] = {hilbert_function(params, d, m) for m in ("bitableaux", "lattice", "rank")}
        return self._memo[key]


def _conic_sides_nonempty(report):
    return report["ideal_side_count"] > 0 and report["shifted_side_count"] > 0


def _cross_check(q, payload, straightened, hilbert):
    from detring.counting import mu_power_direct

    argv = q["argv"]
    cmd = argv[0]
    if cmd == "straighten":
        if q["expect"].get("in_ideal") and payload["terms"]:
            return "straighten: ideal member has a nonzero expansion"
        return _check_straighten(argv, payload)
    if cmd == "member":
        if q["expect"].get("in_ideal") and payload["in_ideal"] is not True:
            return "member: minor-built input reported outside the ideal"
        paired = straightened.get(tuple(argv[1:]))
        if paired is not None and payload["in_ideal"] != (not paired["terms"]):
            return "member: disagrees with the straightening of the same input"
        if paired is None and not q["expect"].get("in_ideal"):
            return "member: no straightening of the same input to compare with"
        return None
    if cmd == "hilbert":
        values = hilbert(argv)
        if values != {payload["dim"]}:
            return f"hilbert: methods disagree ({sorted(values)} vs {payload['dim']})"
        return None
    if cmd == "mu":
        params = _params(argv)
        direct = mu_power_direct(params, _opt(argv, "--ideal"), int(_opt(argv, "--t")))
        return None if payload["mu"] == direct else f"mu: {payload['mu']} != direct count {direct}"
    if cmd == "basis":
        ok = payload["count"] == len(payload["bitableaux"])
        return None if ok else "basis: count does not match the list"
    if cmd == "certify":
        if payload["consistent"] is not True:
            return "certify: inconsistent certificate"
        cert = payload["certificate"]
        if cert["kind"] == "conic" and not _conic_sides_nonempty(cert["report"]):
            return "certify: vacuous conic report (an empty side)"
        return None
    if cmd in ("cone-check", "tilde-check", "ladder-check"):
        return None if payload["ok"] is True else f"{cmd}: ok is not true"
    return None


def verify(queries, codes, outputs, pins):
    """Reasons, by query index, for every query whose answer is wrong.

    ``codes`` and ``outputs`` hold one exit code and one stdout text per
    query; ``pins`` maps argv keys to [exit code, stdout SHA-256].
    """
    failures = {}
    payloads = {}
    for i, (q, code, text) in enumerate(zip(queries, codes, outputs)):
        pin = pins.get(argv_key(q["argv"]))
        if pin is not None and [code, digest(text)] != pin:
            failures[i] = ["payload or exit code differs from the pinned one"]
        if code != 0:
            failures.setdefault(i, []).append(f"exit code {code}")
            continue
        try:
            payloads[i] = json.loads(text)
        except ValueError:
            failures.setdefault(i, []).append("stdout is not JSON")
    straightened = {tuple(queries[i]["argv"][1:]): p for i, p in payloads.items()
                    if queries[i]["argv"][0] == "straighten"}
    hilbert = _Hilbert()
    for i, payload in payloads.items():
        try:
            reason = _cross_check(queries[i], payload, straightened, hilbert)
        except Exception as exc:  # a malformed payload fails its query, not the run
            reason = f"cross-check raised {exc!r}"
        if reason:
            failures.setdefault(i, []).append(reason)
    return failures
