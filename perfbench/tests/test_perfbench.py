"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    ["spec", "--ring", "Z/4"],
    ["flat", "--ring", "Z/6", "--ideal", "2"],
    ["spec", "--ring", "EvBits"],  # an expected exit 2
    ["verify", "--ring", "Z/12", "--theorem", "closure-operators"],
]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        (0, 100, -1),   # 0: root
        (10, 40, 0),    # 1: child
        (20, 30, 1),    # 2: grandchild
        (35, 60, 0),    # 3: child overlapping child 1
        (90, 120, 0),   # 4: child running past its parent's end
    ]
    got = [round(s * 1e9) for s in tracing.self_times(spans)]
    assert got == [40, 20, 10, 25, 30]


def test_summary_counts_outermost_totals_once():
    tracer = tracing.Tracer()

    def down(n):
        return 0 if n == 0 else down_span(n - 1)

    down_span = tracer._span("harness.down", down)
    down_span(3)
    row = tracer.summary()["spans"]["harness.down"]
    assert row["calls"] == 4
    outer = tracer.spans[0]
    assert row["total_s"] == (outer[2] - outer[1]) / 1e9
    assert abs(row["self_s"] - row["total_s"]) < 1e-9


def test_speed_probe_neither_collects_nor_moves_the_collection_count():
    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        before = gc.get_count()[0]
        for _ in range(50):
            calibrate.probe_seconds()
        after = gc.get_count()[0]
    finally:
        gc.callbacks.pop()
    assert collections == [] and after - before <= 1 and gc.isenabled()


def test_golden_covers_every_op():
    expected = golden.load()
    assert {golden.op_key(argv) for argv in workloads.all_ops()} <= set(expected)


def test_session_mix_is_fixed_and_order_is_seeded():
    a, b = workloads.session_stream(1), workloads.session_stream(2)
    assert a == workloads.session_stream(1) and a != b
    assert sorted(a) == sorted(b) and len(a) == workloads.SESSION_QUESTIONS


def test_corrupted_golden_entry_drives_ok_share_below_one():
    expected = golden.load()
    clean = run.run_pass(run.Runner(), "session", SMALL, expected)
    assert clean.correct == clean.attempted == len(SMALL)
    key = golden.op_key(SMALL[1])
    expected[key] = (expected[key][0], "0" * 64)
    corrupted = run.run_pass(run.Runner(), "session", SMALL, expected)
    assert corrupted.correct / corrupted.attempted < 1
    assert corrupted.failures == [
        f"{' '.join(SMALL[1])}: exit 0 / stdout differ from golden (exit 0)"]


def test_tiny_limit_records_timeout_without_extra_processes():
    expected = golden.load()
    for workload in ("session", "families"):  # one worker per pass, one per op
        normal_runner, limited_runner = run.Runner(), run.Runner()
        normal = run.run_pass(normal_runner, workload, SMALL, expected)
        limited = run.run_pass(limited_runner, workload, SMALL, expected, limits={3: 1e-5})
        assert normal.correct == len(SMALL)
        assert limited.correct == len(SMALL) - 1
        assert limited.failures == [f"{' '.join(SMALL[3])}: timeout"]
        assert limited_runner.launched == normal_runner.launched


def test_traced_and_untraced_outputs_are_identical():
    expected = golden.load()
    plain = run.run_pass(run.Runner(), "session", SMALL, expected)
    traced = run.run_pass(run.Runner(), "session", SMALL, expected, trace=True)
    assert traced.digests == plain.digests
    assert traced.correct == traced.attempted
    metrics = tracing.per_layer_metrics(tracing.merge_summaries(traced.traces),
                                        workloads.CHECKS)
    assert metrics["dsl.parse_ring.calls"][0] == len(SMALL)
    assert metrics["harness.closure-operators.total_s"][0] > 0
    assert metrics["rings.elem_ops"][0] > 0
    # No probe runs inside a span, so the spans' self times fit in the ops' time.
    assert set(traced.op_factors) == {1.0}
    summary = tracing.merge_summaries(traced.traces)
    assert sum(row["self_s"] for row in summary["spans"].values()) <= traced.raw_wall_s


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
