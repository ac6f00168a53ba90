"""Tests of the benchmark itself: generation, the correctness gate, tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_has_at_least_100_queries_and_a_stretch(workload):
    queries = workloads.build(workload, 3)["queries"]
    assert len(queries) >= 100
    assert any(q["stretch"] for q in queries)


def test_subcommands_are_split_across_the_workloads():
    seen = [{q["argv"][0] for q in workloads.build(w, 0)["queries"]} for w in workloads.WORKLOADS]
    assert len(set().union(*seen)) == 12
    # hilbert is split by method; every other subcommand runs in one workload.
    assert sum(len(s) for s in seen) == 13


def _answer(argv):
    from detring import cli

    _, _, code, text = worker.run_query(cli, argv)
    return code, text


def test_altered_payload_is_counted_as_failed():
    queries = [
        workloads.query(["straighten", "--m", "3", "--n", "3", "--r", "2",
                         "--poly=1/2*x[1,2]*x[2,1]*x[3,3] - 2/3*x[1,1]^3"]),
        workloads.query(["mu", "--m", "4", "--n", "4", "--r", "2", "--ideal", "p", "--t", "3"]),
    ]
    codes, outputs = zip(*(_answer(q["argv"]) for q in queries))
    assert codes == (0, 0)
    pins = {checks.argv_key(q["argv"]): [c, checks.digest(t)]
            for q, c, t in zip(queries, codes, outputs)}
    assert checks.verify(queries, codes, outputs, pins) == {}

    altered = [outputs[0].replace('"1/2"', '"1/3"', 1), outputs[1].replace("\"mu\": ", "\"mu\": 1", 1)]
    assert altered != list(outputs)
    # Without pins the cross-checks alone catch both alterations ...
    assert set(checks.verify(queries, codes, altered, {})) == {0, 1}
    # ... and with pins the changed hash does too.
    failures = checks.verify(queries, codes, altered, pins)
    assert all("pinned" in reasons[0] for reasons in failures.values())

    passes = [{"codes": list(codes), "digests": [checks.digest(t) for t in outputs]},
              {"codes": list(codes), "digests": [checks.digest(t) for t in altered]}]
    assert worker.tally(passes, {}) == (4, 2)


def test_member_must_agree_with_the_minor_construction():
    argv = ["member", "--m", "2", "--n", "2", "--r", "1", "--poly=x[1,1]*x[2,2] - x[1,2]*x[2,1]"]
    q = workloads.query(argv, in_ideal=True)
    code, text = _answer(argv)
    assert checks.verify([q], [code], [text], {}) == {}
    wrong = text.replace("true", "false")
    assert 0 in checks.verify([q], [code], [wrong], {})


def test_vacuous_certificate_is_rejected():
    argv = ["certify", "--m", "4", "--n", "4", "--r", "2", "--ideal", "p", "--t", "2"]
    code, text = _answer(argv)
    assert code == 0
    assert "vacuous" in checks.verify([workloads.query(argv)], [code], [text], {})[0][0]


def test_self_time_subtracts_child_spans():
    # root [0, 10] has children a [1, 4] and c [5, 9]; a has child b [2, 3].
    name = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    stats = tracing.self_times(name, parent, start, end)
    assert stats == {0: (1, 10.0, 3.0), 1: (1, 3.0, 2.0), 2: (1, 1.0, 1.0), 3: (1, 4.0, 4.0)}
    # Two calls of one name add up.
    stats = tracing.self_times([0, 1, 1], [-1, 0, 0], [0.0, 1.0, 4.0], [6.0, 2.0, 6.0])
    assert stats == {0: (1, 6.0, 3.0), 1: (2, 3.0, 3.0)}


def test_times_are_scaled_by_the_chunks_around_them():
    ref, alpha = speed.REF_CHUNK_S, speed.ALPHA
    meter = speed.Meter()
    meter.mid = [0.0, 1.0, 1.1, 5.0]
    meter.dur = [2 * ref, 2 * ref, 4 * ref, ref]
    # A query over [0.9, 1.2] sees the chunks at 1.0 and 1.1: one chunk took
    # three times the reference, so the host ran slow and the time shrinks.
    assert meter.scale(1.0, 0.9, 1.2) == pytest.approx(3 ** -alpha)
    assert meter.scale(1.0, 4.9, 5.0) == pytest.approx(1.0)
    # Without a span every chunk counts (set-up is scaled that way).
    assert meter.scale(1.0) == pytest.approx(2 ** -alpha)
    with pytest.raises(ValueError):
        meter.scale(1.0, 2.0, 3.0)


def test_chunks_inside_a_query_are_taken_out_of_its_time():
    ref = speed.REF_CHUNK_S
    meter = speed.Meter()
    for mid, dur in ((0.5, ref), (1.5, 2 * ref), (1.7, 3 * ref)):
        meter.mid.append(mid)
        meter.dur.append(dur)
        meter.spent.append(meter.spent[-1] + dur)
    assert meter.busy(1.0, 2.0) == pytest.approx(5 * ref)
    assert meter.busy(0.0, 3.0) == pytest.approx(6 * ref)
    assert meter.busy(2.0, 3.0) == 0


def test_timer_samples_the_host_while_a_query_runs():
    from detring import cli

    meter = speed.Meter()
    meter.start()
    try:
        t0, t1, code, _ = worker.run_query(cli, ["basis", "--m", "3", "--n", "4", "--r", "2",
                                                 "--deg", "4"])
        while perf_counter() < t1 + 0.05:
            pass
    finally:
        meter.stop()
    assert code == 0
    assert len(meter.dur) >= 3
    assert meter.mid == sorted(meter.mid)
    assert 0 <= meter.busy(t0, t1) < t1 - t0
    assert speed.kernel() == speed.kernel()


def test_tracer_wraps_every_binding_and_restores_them():
    from detring import cli, kernels

    # The package re-exports the function under the module's name.
    module = sys.modules["detring.straighten"]
    originals = (cli.straighten, module.straighten, kernels.poly_mul)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.straighten is module.straighten is not originals[0]
        assert kernels.poly_mul is not originals[2]
        code, _ = _answer(["straighten", "--m", "3", "--n", "3", "--r", "2", "--poly=x[1,2]*x[2,1]"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.straighten, module.straighten, kernels.poly_mul) == originals
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.run", "straighten.straighten", "generic_point.phi", "kernels.poly_mul"} <= names
    assert tracer.parent[0] == -1 and set(tracer.request) == {0}
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.run.calls"] == 1
    assert metrics["straighten.iterations"] == 2
    assert metrics["cone.semigroup_points.calls"] == 0
