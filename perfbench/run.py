"""spectop's benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workers import spectop from ``src/`` of
this tree and nothing else.  Every op's exit code and stdout are checked
against the golden copy in ``perfbench/golden``.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  Times are scaled to a
nominal host speed by the probes of ``calibrate.py``.  The line before the
result records the provenance (source digest, Python, nproc), the sample
counts, the raw pass times and the scale factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import golden
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPECTOP_INIT = SRC / "spectop" / "__init__.py"
OUT_DIR = ROOT / ".perfbench_out"

RUN_DEADLINE_S = 150.0     # every op is over by then, so a run exits within 180 s
MEASURE_HASH_SEED = 0
SETUP_LAUNCHES = 15
SETUP_PROBES = 8                # speed probes before each set-up launch
WORKER_GRACE_S = 15.0
WORKER = str(BENCH_DIR / "worker.py")

SETUP_CODE = """\
import os, sys, time
launched = float(sys.argv[1])
import spectop
from spectop import parse_ring
for text in sys.argv[3:]:
    parse_ring(text)
elapsed = time.monotonic() - launched
if os.path.realpath(spectop.__file__) != os.path.realpath(sys.argv[2]):
    sys.exit(3)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result for this tree."""


def worker_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Runner:
    """Launches workers in sequence and counts them; all ops end by the deadline."""

    def __init__(self, hash_seed: int = MEASURE_HASH_SEED, deadline_s: float = RUN_DEADLINE_S):
        self.env = worker_env(hash_seed)
        self.deadline = time.monotonic() + deadline_s
        self.launched = 0

    def job(self, ops, limits, trace=False, probes=True, spans_path=None, keep_stdout=False,
            first_op=0) -> dict:
        """Run ``ops`` in one fresh worker; ``limits`` holds each op's time limit.

        A traced job never runs speed probes, whatever ``probes`` says.
        """
        payload = json.dumps({
            "ops": ops, "limits": limits, "deadline": self.deadline, "trace": trace,
            "probes": probes and not trace,
            "spans_path": spans_path, "keep_stdout": keep_stdout, "first_op": first_op,
            "spectop_init": str(SPECTOP_INIT),
        })
        self.launched += 1
        backstop = max(self.deadline - time.monotonic(), 0.0) + WORKER_GRACE_S
        lost = {"status": "crash", "rc": None, "seconds": 0.0, "sha256": None,
                "traceback": False}
        try:
            proc = subprocess.run([sys.executable, WORKER], input=payload, capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=backstop)
        except subprocess.TimeoutExpired:
            return {"results": [dict(lost, status="timeout") for _ in ops], "probes": [],
                    "maxrss_kb": 0, "trace": None}
        if proc.returncode == 3:
            raise BenchError(proc.stderr.strip())
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError:
            sys.stderr.write(proc.stderr[-2000:])
            return {"results": [dict(lost) for _ in ops], "probes": [], "maxrss_kb": 0,
                    "trace": None}

    def setup_seconds(self, rings: list[str]) -> tuple[float, list[float]]:
        """Launch-to-parsed time of one fresh interpreter, and the speed probes before it."""
        probes = [calibrate.probe_seconds() for _ in range(SETUP_PROBES)]
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, repr(launched), str(SPECTOP_INIT), *rings],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60)
        self.launched += 1
        if proc.returncode != 0:
            raise BenchError(f"set-up launch failed ({proc.returncode}): {proc.stderr.strip()}")
        return float(proc.stdout), probes


@dataclass
class Pass:
    """One pass; ``op_seconds`` are scaled to the nominal host (see calibrate.py)."""

    raw_op_seconds: list[float] = field(default_factory=list)
    op_factors: list[float] = field(default_factory=list)  # speed factor of each op's worker
    attempted: int = 0
    correct: int = 0
    maxrss_kb: int = 0
    traces: list[dict] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def op_seconds(self) -> list[float]:
        return [t * f for t, f in zip(self.raw_op_seconds, self.op_factors)]

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_op_seconds)


def run_pass(runner: Runner, workload: str, ops: list[list[str]], expected: dict,
             trace: bool = False, probes: bool = True, spans_path: str | None = None,
             limits: dict[int, float] | None = None) -> Pass:
    """One pass over ``ops``; ``limits`` overrides the time limit of single ops."""
    limits = limits or {}
    if workload == "session":
        per_op = [limits.get(i, workloads.SESSION_OP_LIMIT_S) for i in range(len(ops))]
        jobs = [(0, ops, per_op)]
    else:
        jobs = [(i, [argv], [limits.get(i, workloads.HEAVY_OP_LIMIT_S)])
                for i, argv in enumerate(ops)]
    done = Pass()
    for first, batch, batch_limits in jobs:
        reply = runner.job(batch, batch_limits, trace=trace, probes=probes,
                           spans_path=spans_path, first_op=first)
        # A worker without probes (a traced or a lost one) reports raw times.
        factor = calibrate.speed_factor(reply["probes"]) if reply["probes"] else 1.0
        done.maxrss_kb = max(done.maxrss_kb, reply["maxrss_kb"])
        if reply["trace"] is not None:
            done.traces.append(reply["trace"])
        for argv, result in zip(batch, reply["results"]):
            done.attempted += 1
            done.raw_op_seconds.append(result["seconds"])
            done.op_factors.append(factor)
            done.digests.append(result["sha256"])
            want = expected.get(golden.op_key(argv))
            reason = None
            if result["status"] != "ok":
                reason = result["status"]
            elif result["traceback"]:
                reason = "traceback on stderr"
            elif want is None:
                reason = "no golden output"
            elif (result["rc"], result["sha256"]) != want:
                reason = f"exit {result['rc']} / stdout differ from golden (exit {want[0]})"
            if reason is None:
                done.correct += 1
            else:
                done.failures.append(f"{' '.join(argv)}: {reason}")
    return done


def workload_ops(workload: str, seed: int) -> list[list[str]]:
    if workload == "session":
        return workloads.session_stream(seed)
    return workloads.fixed_ops(workload, seed)


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def percentile_ms(seconds: list[float], which: int) -> float:
    """The ``which``-th decile of ``seconds`` in ms (5 is the median)."""
    return statistics.quantiles(seconds, n=10, method="inclusive")[which - 1] * 1e3


def measure(workload: str, seed: int, seconds: float, expected: dict) -> tuple[dict, list[Pass]]:
    runner = Runner()
    launches = [runner.setup_seconds(workloads.setup_rings(workload))
                for _ in range(SETUP_LAUNCHES)]
    setup_raw = statistics.median(t for t, _ in launches)
    setup = setup_raw * calibrate.speed_factor([p for _, probes in launches for p in probes])
    ops = workload_ops(workload, seed)
    passes: list[Pass] = []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        passes.append(run_pass(runner, workload, ops, expected))
        now = time.monotonic()
        if now - started + (now - pass_started) > seconds:
            break
    times = [t for p in passes for t in p.op_seconds]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (percentile_ms(times, 5), "ms"),
        "op_p90_ms": (percentile_ms(times, 9), "ms"),
        "ok_share": (sum(p.correct for p in passes) / sum(p.attempted for p in passes), "ratio"),
        "peak_rss_mb": (max(p.maxrss_kb for p in passes) / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    return metrics, passes, {"setup_raw_s": setup_raw}


def measure_traced(workload: str, seed: int, expected: dict) -> tuple[dict, list[Pass]]:
    runner = Runner()
    ops = workload_ops(workload, seed)
    plain = run_pass(runner, workload, ops, expected, probes=False)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"
    spans_path.unlink(missing_ok=True)
    traced = run_pass(runner, workload, ops, expected, trace=True, spans_path=str(spans_path))
    metrics = tracing.per_layer_metrics(tracing.merge_summaries(traced.traces), workloads.CHECKS)
    # Neither pass runs speed probes, so both times are raw.
    metrics["trace.overhead_s"] = (traced.raw_wall_s - plain.raw_wall_s, "s")
    return metrics, [plain, traced], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not SPECTOP_INIT.is_file():
        print(f"refusing to run: {SPECTOP_INIT} is missing", file=sys.stderr)
        return 1
    try:
        expected = golden.load()
        if args.trace:
            metrics, passes, raw = measure_traced(args.workload, args.seed, expected)
        else:
            metrics, passes, raw = measure(args.workload, args.seed, args.seconds, expected)
    except (BenchError, OSError) as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in passes)
    correct = sum(p.correct for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_wall_s": [p.wall_s for p in passes],
              "pass_raw_wall_s": [p.raw_wall_s for p in passes],
              **raw,
              "op_samples": sum(len(p.op_seconds) for p in passes),
              "provenance": provenance()}
    if args.workload != "session":
        record["raw_op_seconds"] = [p.raw_op_seconds for p in passes]
        record["op_speed_factor"] = [p.op_factors for p in passes]
    else:
        record["pass_speed_factor"] = [p.op_factors[0] for p in passes]
    result = {"correct": correct == attempted, "attempted": attempted,
              "failed": attempted - correct,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
