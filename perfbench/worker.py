"""One fresh, single-threaded worker process of the benchmark.

Reads a job (JSON) on stdin and writes one JSON result on stdout.  The clock
for set-up starts before ``detring`` is imported and stops once the warm-up
query has answered.  A set-up-only job stops there.  Otherwise the worker
answers the query list in passes, a closed loop with one client: each query
is a ``detring.cli.run(argv)`` call with stdout captured, sent only after the
previous one answered.  Passes repeat while the time budget allows; a traced
job ends with one extra pass under the tracer.  Answers are checked after the
timed passes, outside every timer.

Right after set-up, and every 10 ms while the timed passes run, the worker
runs a calibration chunk (speed.py).  Every time it reports is scaled to the
reference speed by the chunks that ran around it; the raw times are reported
beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Seconds of calibration chunks right after set-up, which scale setup_s,
# and before and after the traced pass.
SETUP_CALIBRATION_S = 0.08


def run_query(cli, argv):
    """Answer one query; returns (start, end, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.run(argv)
        t1 = perf_counter()
    return t0, t1, code, out.getvalue()


def run_pass(cli, queries, meter):
    """One closed-loop pass over the queries: times, codes, digests, outputs.

    A query's raw time leaves out the calibration chunks that interrupted it.
    """
    raw, spans, codes, digests, outputs = [], [], [], [], []
    for q in queries:
        t0, t1, code, text = run_query(cli, q["argv"])
        raw.append(t1 - t0 - meter.busy(t0, t1))
        spans.append((t0, t1))
        codes.append(code)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        outputs.append(text)
    return {"raw": raw, "spans": spans, "codes": codes, "digests": digests, "outputs": outputs}


def tally(passes, failures):
    """(attempted, failed) over every answer of every pass.

    An answer fails when its query failed a check (``failures``, by query
    index, from the first pass) or when it differs from the first pass's
    answer; such queries are added to ``failures``.
    """
    first = passes[0]
    attempted = failed = 0
    for p in passes:
        for i, (code, dig) in enumerate(zip(p["codes"], p["digests"])):
            attempted += 1
            if i in failures or code != first["codes"][i] or dig != first["digests"][i]:
                failed += 1
                failures.setdefault(i, ["answer changed between passes"])
    return attempted, failed


def main():
    job = json.load(sys.stdin)
    start = perf_counter()
    import detring
    import detring.cli as cli

    warm_code = run_query(cli, job["warmup"])[2]
    setup_s = perf_counter() - start

    import speed

    meter = speed.Meter()
    meter.run_for(SETUP_CALIBRATION_S)
    result = {
        "setup_s": meter.scale(setup_s),
        "setup_raw_s": setup_s,
        "warmup_code": warm_code,
        "detring_file": os.path.abspath(detring.__file__),
        "backend": detring.kernels.BACKEND,
        "python": sys.version.split()[0],
    }
    if job.get("setup_only"):
        json.dump(result, sys.stdout)
        return

    import checks

    queries = job["queries"]
    budget = job["seconds"]
    stretch = [q["stretch"] for q in queries]
    passes = []
    t_begin = perf_counter()
    # A traced job keeps room for its traced pass, which runs slower.
    reserve = 2.0 if job["trace"] else 1.0
    meter.start()
    while True:
        p = run_pass(cli, queries, meter)
        if passes:
            p["outputs"] = None  # only the first pass's answers are cross-checked
        passes.append(p)
        elapsed = perf_counter() - t_begin
        if elapsed + reserve * elapsed / len(passes) > budget:
            break
    meter.stop()
    for p in passes:
        p["times"] = [meter.scale(dt, a, b) for dt, (a, b) in zip(p["raw"], p["spans"])]
    first = passes[0]
    walls = [sum(p["times"]) for p in passes]
    result["passes"] = [
        {"wall_s": w, "stretch_s": sum(t for t, s in zip(p["times"], stretch) if s),
         "raw_wall_s": sum(p["raw"])}
        for w, p in zip(walls, passes)
    ]
    result["chunk_s"] = meter.chunk_time()
    result["latencies"] = [t for p in passes for t in p["times"]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if job["trace"]:
        import tracing

        # No chunk interrupts the traced pass, so that none lands in a span;
        # chunks run just before and after it scale its wall time.
        meter.run_for(SETUP_CALIBRATION_S)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_pass(cli, queries, meter)
        tracer.uninstall()
        meter.run_for(SETUP_CALIBRATION_S)
        span = (traced["spans"][0][0], traced["spans"][-1][1])
        traced_wall = meter.scale(sum(traced["raw"]), *span)
        layers = tracing.layer_metrics(tracer)
        layers["cli.payload_bytes"] = sum(len(t.encode()) for t in traced["outputs"])
        layers["trace_overhead"] = traced_wall / statistics.median(walls)
        result["layers"] = layers
        result["spans"] = len(tracer)
        tracer.write(job["spans_path"])
        traced["outputs"] = None
        passes.append(traced)

    failures = checks.verify(queries, first["codes"], first["outputs"], job["pins"])
    attempted, failed = tally(passes, failures)
    result["attempted"] = attempted
    result["failed"] = failed
    result["failures"] = [
        {"query": " ".join(queries[i]["argv"])[:200], "reasons": reasons}
        for i, reasons in sorted(failures.items())
    ]
    result["digests"] = first["digests"]
    result["codes"] = first["codes"]
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
