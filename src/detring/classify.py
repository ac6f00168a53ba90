"""Cohen-Macaulay and Ulrich classification of symbolic powers.

The row-pinned divisor class is Cohen-Macaulay exactly up to power m - r and
Ulrich exactly at m - r; the column-pinned class mirrors with n - r.  Verdicts
carry the exact generator count and the ring multiplicity, both box counts
(``counting._box``), so the Ulrich equality mu = e, the box turned, is
visible; below the boundary a maximal Cohen-Macaulay module that is not Ulrich
has mu < e (Brennan-Herzog-Ulrich), and beyond it mu > e.  ``certify`` backs
the verdict with evidence: the shifted-cone check on the Cohen-Macaulay side,
the strict inequality mu > e beyond it.  Both return their JSON-ready payloads.
"""

from __future__ import annotations

from fractions import Fraction

from .cone import _check_bound, _check_eps, conic_equality_check
from .counting import _check_ideal, _check_t, multiplicity, mu_power
from .errors import InternalCheckError


def _bound(params, ideal):
    return (params.m if ideal == "p" else params.n) - params.r


def classify(params, ideal, t):
    """Verdict for the t-th symbolic power of the chosen divisor class: the
    JSON-ready payload ``{"cm", "ulrich", "mu", "e"}``."""
    params.require_proper_rank()
    _check_ideal(ideal)
    _check_t(t)
    bound = _bound(params, ideal)
    cm = t <= bound
    ulrich = t == bound
    mu = mu_power(params, ideal, t)
    e = multiplicity(params)
    expected = "<=>"[(t >= bound) + (t > bound)]
    if "<=>"[(mu >= e) + (mu > e)] != expected:
        raise InternalCheckError(
            f"power {t} with boundary {bound} should have mu {expected} e, got mu={mu}, e={e}"
        )
    return {"cm": cm, "ulrich": ulrich, "mu": mu, "e": e}


def certify(params, ideal, t, eps=Fraction(1, 2), degree_bound=6):
    """Verdict plus computational evidence.

    Cohen-Macaulay powers (t >= 1) get a shifted-cone report, run on the
    transposed format for the column-pinned class; t = 0 is the unit ideal;
    beyond the boundary the certificate is the strict inequality mu > e.
    Returns the verdict's payload with ``"certificate"`` and ``"consistent"``
    added.
    """
    out = classify(params, ideal, t)
    _check_eps(eps)
    _check_bound(degree_bound)
    if t == 0:
        out["certificate"], out["consistent"] = {"kind": "unit-ideal"}, True
    elif out["cm"]:
        effective = params if ideal == "p" else params.transposed()
        report = conic_equality_check(effective, t, eps, degree_bound)
        out["certificate"] = {"kind": "conic", "report": report}
        out["consistent"] = report["equal"] and report["expected_equal"]
    else:
        out["certificate"] = {"kind": "mu-exceeds-e", "mu": out["mu"], "e": out["e"]}
        out["consistent"] = out["mu"] > out["e"]
    return out


def rank1_mcm_classes(params):
    """The maximal Cohen-Macaulay classes of rank one, as (ideal, power) pairs."""
    params.require_proper_rank()
    out = [("p", t) for t in range(0, params.m - params.r + 1)]
    out += [("q", t) for t in range(1, params.n - params.r + 1)]
    return out
