"""Tests of the fit benchmark itself (reduced-size inputs).

Run from the repository root::

    python3 -m pytest fitbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402
import probes  # noqa: E402
import run as entry  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.make_inputs(workload, 5, reduced=True)
    again = workloads.make_inputs(workload, 5, reduced=True)
    other = workloads.make_inputs(workload, 6, reduced=True)
    assert first.rows == again.rows
    assert first.inserts == again.inserts
    assert first.rows != other.rows
    # Another seed reorders the same rows.
    assert sorted(first.rows) == sorted(other.rows)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_pinned_reference_matches_the_in_memory_tree(name):
    # Full-size runs check every fit against the pinned digest; this
    # recomputes it, on the held-out seed.
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, 4)
    assert runner.reference_digest(inputs) == workload.reference_digest


def test_insert_statements_cover_the_held_back_rows():
    workload = workloads.WORKLOADS["wide-ingest"]
    inputs = workloads.make_inputs(workload, 3, reduced=True)
    assert inputs.inserted_rows == int(len(inputs.rows) * 0.1)
    counts = [count for _sql, count in inputs.inserts]
    assert counts[-1] == len(inputs.rows)
    assert all(b - a <= workloads.INSERT_BATCH_ROWS
               for a, b in zip([len(inputs.base_rows)] + counts, counts))
    assert all(sql.startswith("INSERT INTO data (") for sql, _ in inputs.inserts)


def test_oracle_counts_wrong_trees_and_cost_drift_as_failures():
    run = runner.Run(workloads.WORKLOADS["staged"], 3, 0, False)
    run._check(runner.FitSample(1.0, 1.0, 10.0, False, 1, digest="a"), "a")
    run._check(runner.FitSample(1.0, 1.0, 10.0, False, 2, digest="b"), "a")
    run._check(runner.FitSample(1.0, 1.0, 10.5, False, 3, digest="a"), "a")
    assert run.failed == 2
    assert [s.fit_id for s in run.samples] == [1]


# -- metric names -----------------------------------------------------------


def test_catalogue_matches_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        runner.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert spec["paths"] == ["fitbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


def _main(*argv: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    code, lines = _main("--workload", "staged", "--seconds", "0",
                        "--trace", trace, "--reduced")
    assert code == 0
    result = json.loads(lines[-1])
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] >= 1


# -- provenance -------------------------------------------------------------


def test_reduced_run_is_marked():
    code, lines = _main("--workload", "staged", "--seconds", "0",
                        "--reduced")
    assert code == 0
    result = json.loads(lines[-1])
    # The extra key makes the line invalid as a full result.
    assert result["reduced"] is True
    provenance = json.loads(lines[-2].split(" ", 1)[1])
    assert provenance["full_size"] is False
    for key in ("cores", "python", "numpy", "commit", "seed",
                "scan_workers"):
        assert key in provenance


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "fitbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "fitbench/run.py", "--workload", "staged",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- calibration --------------------------------------------------------------


def test_stretches_scale_work_between_passes_by_their_speed():
    ref = calibration.REFERENCE_PASS_S
    samples = [
        (0.0, 1.0, ref),          # pass at reference speed
        (3.0, 4.0, ref),          # 2 s of work on a reference core
        (8.0, 9.0, 3 * ref),      # 4 s of work, mean pass 2x slower
    ]
    wall, reference = calibration.stretches(samples)
    assert wall == pytest.approx(2.0 + 4.0)
    assert reference == pytest.approx(2.0 + 4.0 / 2)


def test_stopwatch_samples_while_it_runs_and_restores_sigalrm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibration.Stopwatch() as watch:
        deadline = time.perf_counter() + 5 * calibration.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A pass at the start, at the end and at least one in between.
    assert len(watch.samples) >= 3
    assert 0 < watch.wall < 5 * calibration.SAMPLE_INTERVAL_S + 0.05
    assert watch.reference > 0

    with calibration.Stopwatch(passes=False) as plain:
        pass
    assert len(plain.samples) == 2 and plain.reference == 0
    assert signal.getsignal(signal.SIGALRM) is before


# -- spans and self time ------------------------------------------------------


def _span(name, start, end, parent=None, busy=None):
    return spans.Span(name, start, end, parent=parent, busy_iter=busy)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("fit", 0.0, 10.0),                      # 0
        _span("execution.run", 1.0, 7.0, parent=0),   # 1
        _span("sqlengine.query", 2.0, 4.0, parent=1),  # 2
        _span("sqlengine.parse", 2.5, 3.0, parent=2),  # 3
        # Overlapping children count once (union), clipped to the parent.
        _span("staging.write", 3.5, 5.0, parent=1),   # 4
        _span("staging.write", 6.5, 7.5, parent=1),   # 5
        # An iterator child subtracts its busy time, not its interval.
        _span("sqlengine.rows", 1.0, 7.0, parent=1, busy=0.25),  # 6
        _span("client.partition_node", 8.0, 9.0, parent=0),  # 7
    ]
    selfs = spans.self_times(tree)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[2] == pytest.approx(1.5)
    # run: 6.0 - union([2,4],[3.5,5],[6.5,7]) = 6.0 - 3.5, minus 0.25.
    assert selfs[1] == pytest.approx(2.25)
    assert selfs[6] == pytest.approx(0.25)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0)
    totals = spans.totals_by_name(tree, selfs)
    assert totals["staging.write"] == pytest.approx(1.5 + 1.0)


def test_recorder_nests_calls_and_iterators():
    ticks = iter(range(1000))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    def produce():
        yield from (1, 2, 3)

    def outer():
        total = sum(recorder.iterate("inner.rows", produce()))
        recorder.call("inner.call", lambda: None)
        return total

    result, root = recorder.call("outer", outer)
    assert result == 6
    by_name = {s.name: s for s in recorder.spans}
    rows = by_name["inner.rows"]
    assert rows.items == 3 and rows.is_iterator
    assert recorder.spans[rows.parent] is root
    assert recorder.spans[by_name["inner.call"].parent] is root
    # Four next() calls (three items and the exhausting one), one tick each.
    assert rows.busy == pytest.approx(4.0)


def test_layer_self_time_of_every_traced_fit():
    # Untraced iterations record no spans, so only the first traced
    # fit's spans start at index 0; later fits must still subtract
    # their own children.
    ticks = iter(range(1000))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    run = runner.Run(workloads.WORKLOADS["staged"], 3, 0, True,
                     recorder=recorder)

    def run_with_child():
        recorder.call("staging.write", lambda: None)

    for fit_id in (2, 4):
        recorder.fit = fit_id
        recorder.call("fit", lambda: recorder.call("execution.run",
                                                   run_with_child))
        run.samples.append(runner.FitSample(1.0, 1.0, 0.0, True, fit_id))
    selfs = spans.self_times(recorder.spans)
    for sample in run.samples:
        layers = runner.layer_metrics(recorder.spans, selfs, sample)
        # run spans 3 ticks, its staging.write child 1.
        assert layers["execution.run_s"] == pytest.approx(3.0)
        assert layers["execution.self_s"] == pytest.approx(2.0)
    assert run.per_layer()["execution.self_s"] == pytest.approx(2.0)


def test_chrome_trace_is_trace_event_json():
    tree = [_span("fit", 0.0, 1.0), _span("sqlengine.rows", 0.1, 0.9, 0, 0.2)]
    events = spans.chrome_trace(tree)["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["fit", "sqlengine.rows"]
    assert complete[0]["dur"] == pytest.approx(1e6)
    # Iterator spans live on their own track.
    assert complete[0]["tid"] != complete[1]["tid"]
    assert complete[1]["args"]["busy_ms"] == pytest.approx(200.0)
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names[complete[1]["tid"]] == "thread 1 iterators"


def test_probes_restore_every_entry_point():
    from repro.client import decision_tree
    from repro.core.execution import ExecutionModule
    from repro.core.middleware import Middleware
    from repro.core.scheduler import Scheduler
    from repro.core.staging import StagedFile
    from repro.sqlengine import database

    owners = [Middleware, Scheduler, ExecutionModule, StagedFile,
              database.SQLServer, database, decision_tree,
              *probes._strategy_classes()]
    before = [dict(vars(owner)) for owner in owners]
    with probes.installed(spans.SpanRecorder(), lambda: 0):
        assert Middleware.process_next_batch is not \
            before[0]["process_next_batch"]
        assert database.parse is not before[5]["parse"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_dml_classification():
    assert probes.is_dml("  insert into t VALUES (1)")
    assert probes.is_dml("DELETE FROM t")
    assert not probes.is_dml("SELECT * FROM t")


# -- reduced runs -------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_reduced_run_traced_and_untraced_agree(tmp_path, name):
    run = runner.run_workload(name, seed=4, seconds=0, trace=True,
                              workdir=str(tmp_path), reduced=True)
    assert run.errors == []
    assert run.failed == 0
    untraced, traced = run.fits(False), run.fits(True)
    assert len(untraced) == 1 and len(traced) == 1
    # Same tree as the in-memory reference (checked per fit) and the
    # same meter total with and without spans.
    assert untraced[0].cost == traced[0].cost
    layers = run.per_layer()
    assert layers["scheduler.batches"] >= 1
    assert layers["execution.run_s"] >= layers["execution.self_s"] > 0
    assert sum(layers[f"cost.{c}"] for c in runner.CATEGORIES) == \
        pytest.approx(traced[0].cost)
    if run.inputs.inserts:
        assert layers["sqlengine.insert_statements"] == len(run.inputs.inserts)
    # The staging directory is removed after the run.
    assert os.listdir(tmp_path) == []
