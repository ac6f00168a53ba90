"""Benchmark of the detring command line: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload straighten-member --seed 1 --seconds 36 --trace 0

The run generates the workload's queries from the seed, times the set-up of
several fresh worker processes, and has one more fresh worker answer the
query list in passes for ``--seconds`` seconds (see worker.py).  Every time
is reported at a reference machine speed, measured by calibration chunks the
worker runs while it answers (see speed.py).  Every answer is checked (see
checks.py).  With ``--trace 1`` the worker ends with a traced pass and the
run reports the per-layer metrics instead of the end-to-end ones.  The last line of stdout is the JSON result; the lines before it give
the same figures for a reader, with the environment stamp.

``--record-pins`` runs the default seed once and stores each query's exit
code and stdout SHA-256 in pins.json, after every cross-check has passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing keeps dict and set layouts the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(job, deadline):
    """Run one worker on the job; it is killed if it runs past the deadline."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
        env=_worker_env(), timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if result["warmup_code"] != 0:
        raise BenchError(f"warm-up query {job['warmup']} exited with code {result['warmup_code']}")
    if not result["detring_file"].startswith(str(SRC)):
        raise BenchError(f"worker imported detring from {result['detring_file']}, not {SRC}")
    return result


def _git_commit():
    """The checked-out commit, read from .git without running git; else 'unknown'."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _prepare(deadline):
    """Check the checkout holds the program and compile its bytecode once."""
    if not (SRC / "detring" / "cli.py").is_file():
        raise BenchError(f"no detring sources under {SRC}; run from the root of a checkout")
    proc = subprocess.run([sys.executable, "-c", "import detring.cli"], cwd=ROOT,
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"cannot import detring:\n{proc.stderr[-2000:]}")


def _load_pins(workload):
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(job, workload, seconds, trace, deadline):
    """Set-up samples plus one measuring worker: (worker result, end-to-end metrics)."""
    setup_job = {"setup_only": True, "warmup": job["warmup"]}
    # Half the set-up samples come before the measuring worker and half after,
    # so that they see the same spell of machine load as the passes.
    setups = [_run_worker(setup_job, deadline) for _ in range(SETUP_SAMPLES // 2)]
    main_job = dict(job, seconds=seconds, trace=trace, pins=_load_pins(workload),
                    spans_path=str(OUT / f"{workload}.spans.json"))
    result = _run_worker(main_job, deadline)
    setups.append(result)
    setups += [_run_worker(setup_job, deadline) for _ in range(SETUP_SAMPLES // 2)]
    result["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in setups)
    passes = result["passes"]
    lat_ms = [t * 1000.0 for t in result["latencies"]]
    return result, {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "stretch_s": statistics.median(p["stretch_s"] for p in passes),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload, seed, seconds, trace, deadline):
    job = workloads.build(workload, seed)
    OUT.mkdir(exist_ok=True)
    result, end_to_end = measure(job, workload, seconds, trace, deadline)
    env = {
        "python": result["python"],
        "backend": result["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }
    failed_ratio = result["failed"] / result["attempted"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{workload} seed {seed}: {len(job['queries'])} queries a pass, "
          f"{len(result['passes'])} timed passes, {len(result['latencies'])} latency samples, "
          f"{SETUP_SAMPLES} set-ups")
    metrics = declared_metrics("end_to_end", end_to_end)
    for name, m in metrics.items():
        print(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
    raw_wall = statistics.median(p["raw_wall_s"] for p in result["passes"])
    print(f"  unscaled: wall_s {raw_wall:.4f} s, setup_s {result['setup_raw_s']:.4f} s; "
          f"calibration chunk {result['chunk_s'] * 1000:.4f} ms, "
          f"reference {speed.REF_CHUNK_S * 1000:.4f} ms")
    print(f"  {'failed_ratio':14s} {failed_ratio:12.4f} ({result['failed']} of {result['attempted']})")
    for f in result["failures"][:10]:
        print(f"  FAILED {f['query']}: {'; '.join(f['reasons'])}")
    if trace:
        print(f"traced pass: {result['spans']} spans written to {OUT / (workload + '.spans.json')}")
        metrics = declared_metrics("per_layer", result["layers"])
        for name, m in sorted(metrics.items()):
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    record = {"env": env, "end_to_end": end_to_end, "failed_ratio": failed_ratio,
              "chunk_s": result["chunk_s"], "setup_raw_s": result["setup_raw_s"],
              "passes": result["passes"], "latencies": result["latencies"],
              "failures": result["failures"], "layers": result.get("layers")}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def declared_metrics(kind, values):
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    declared = json.loads(SPEC.read_text())[kind]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"the run measured no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def record_pins(workload, deadline):
    job = workloads.build(workload, workloads.DEFAULT_SEED)
    result = _run_worker(dict(job, seconds=0, trace=0, pins={}, spans_path=""), deadline)
    if result["failures"]:
        raise BenchError(f"not pinning {workload}: {result['failures'][:3]}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[workload] = {checks.argv_key(q["argv"]): [code, dig]
                      for q, code, dig in zip(job["queries"], result["codes"], result["digests"])}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins[workload])} queries of {workload}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        _prepare(deadline)
        if args.record_pins:
            record_pins(args.workload, deadline)
        else:
            report(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
