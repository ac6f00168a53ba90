"""Span tracing of detring's public functions, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper at every
module attribute that binds it: ``cli``, ``straighten``, ``counting`` and
``invariants`` import functions by name, while kernels are looked up as
``kernels.<fn>`` at call time, so the wrapper must sit in each of those
places.  Nothing is installed unless a traced run asks for it.

A span is (name, parent, request, start, end).  Spans are kept in flat arrays
in memory and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its child spans; calls nest, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter


def _count_len(key):
    return lambda args, result: (key, len(result))


# (module, attribute path, observer).  An observer maps (args, result) to a
# (counter, increment) pair recorded next to the span.
TARGETS = (
    ("kernels", "poly_mul", _count_len("terms_out")),
    ("kernels", "poly_addmul", None),
    ("kernels", "leading_monomial", lambda args, result: ("terms_scanned", len(args[0]))),
    ("kernels", "system_holds", lambda args, result: ("accepted", 1 if result else 0)),
    ("kernels", "row_combine", None),
    ("linalg", "Eliminator.reduce", lambda args, result: ("independent", result is not None)),
    ("poly", "parse_polynomial", None),
    ("generic_point", "phi", lambda args, result: ("terms_out", len(result.terms))),
    ("generic_point", "eval_bitableau", None),
    ("generic_point", "decode_standard", None),
    ("generic_point", "minor_polynomial", None),
    # One loop iteration per term of the returned combination.
    ("straighten", "straighten", _count_len("iterations")),
    ("straighten", "is_in_ideal", None),
    ("tableaux", "enumerate_standard", _count_len("bitableaux_out")),
    ("cone", "semigroup_points", _count_len("points_out")),
    ("cone", "lattice_points", _count_len("points_out")),
    ("cone", "semigroup_vs_cone", None),
    ("cone", "conic_equality_check", None),
    ("counting", "hilbert_function", None),
    ("invariants", "verify_D_tilde", None),
    ("invariants", "verify_ladder", None),
    ("classify", "certify", None),
    ("cli", "run", None),
)


class Tracer:
    """Collects spans and per-span counters while installed."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._current = -1
        self._restore = []

    def _wrap(self, name_id, fn, observe):
        name = self.names[name_id]
        spans_name, spans_parent, spans_request = self.name, self.parent, self.request
        spans_start, spans_end, counters = self.start, self.end, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(parent)
            spans_request.append(idx if parent < 0 else spans_request[parent])
            spans_start.append(0.0)
            spans_end.append(0.0)
            self._current = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._current = parent
                spans_start[idx] = t0
                spans_end[idx] = t1
            if observe is not None:
                key, inc = observe(args, result)
                key = f"{name}.{key}"
                counters[key] = counters.get(key, 0) + inc
            return result

        return traced

    def install(self):
        """Wrap every target at every detring attribute that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "detring" or k.startswith("detring."))]
        for name_id, (mod, path, observe) in enumerate(TARGETS):
            owner = sys.modules[f"detring.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name_id, fn, observe)
            sites = [owner] if outer else [m for m in modules if getattr(m, attr, None) is fn]
            for site in sites:
                self._restore.append((site, attr, fn))
                setattr(site, attr, wrapper)

    def uninstall(self):
        while self._restore:
            site, attr, fn = self._restore.pop()
            setattr(site, attr, fn)

    def __len__(self):
        return len(self.name)

    def write(self, path):
        """Write the spans as one JSON object of parallel arrays."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)


def self_times(name, parent, start, end):
    """Per-name totals of calls, duration and self time (duration minus children)."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    out = {}
    for i, n in enumerate(name):
        calls, total, self_s = out.get(n, (0, 0.0, 0.0))
        out[n] = (calls + 1, total + end[i] - start[i], self_s + own[i])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by metric name."""
    by_id = self_times(tracer.name, tracer.parent, tracer.start, tracer.end)
    stats = {tracer.names[i]: v for i, v in by_id.items()}

    def calls(n):
        return stats.get(n, (0, 0.0, 0.0))[0]

    def self_s(n):
        return stats.get(n, (0, 0.0, 0.0))[2]

    def counter(n):
        return tracer.counters.get(n, 0)

    out = {}
    for n in ("kernels.poly_mul", "kernels.poly_addmul", "kernels.leading_monomial",
              "kernels.system_holds", "kernels.row_combine", "linalg.Eliminator.reduce",
              "poly.parse_polynomial", "generic_point.phi", "generic_point.eval_bitableau",
              "generic_point.decode_standard", "generic_point.minor_polynomial",
              "straighten.straighten", "straighten.is_in_ideal", "tableaux.enumerate_standard",
              "cone.semigroup_points", "cone.lattice_points", "counting.hilbert_function",
              "cli.run"):
        out[f"{n}.calls"] = calls(n)
        out[f"{n}.self_s"] = self_s(n)
    for n in ("cone.semigroup_vs_cone", "cone.conic_equality_check", "invariants.verify_D_tilde",
              "invariants.verify_ladder", "classify.certify"):
        out[f"{n}.self_s"] = self_s(n)
    for n in ("kernels.poly_mul.terms_out", "kernels.leading_monomial.terms_scanned",
              "generic_point.phi.terms_out", "tableaux.enumerate_standard.bitableaux_out",
              "cone.semigroup_points.points_out", "cone.lattice_points.points_out"):
        out[n] = counter(n)
    out["straighten.iterations"] = counter("straighten.straighten.iterations")
    out["kernels.system_holds.accept_ratio"] = _ratio(
        counter("kernels.system_holds.accepted"), calls("kernels.system_holds"))
    out["linalg.Eliminator.reduce.independent_ratio"] = _ratio(
        counter("linalg.Eliminator.reduce.independent"), calls("linalg.Eliminator.reduce"))
    return out
