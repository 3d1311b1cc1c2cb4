"""One worker process: answer a list of CLI ops through ``spectop.cli.main``.

Reads a JSON job on stdin and writes one JSON reply on stdout.  Each op's
stdout and stderr are captured in memory; the op time is taken around
``cli.main`` only, so interpreter start-up stays out of it.  An op that
outlives its limit is interrupted by SIGALRM and recorded as "timeout".
When the job asks for probes, SIGPROF runs a speed probe (see
calibrate.py) every ``calibrate.PROBE_INTERVAL_S`` of CPU time; probe time
is left out of the op times, and the probes go back with the reply.
Traced jobs never ask for them, because their time would fall inside
open spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import calibrate
import golden

EXIT_WRONG_SPECTOP = 3


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so spectop's handlers cannot swallow it."""


_armed = [False]
_probes: list[tuple[float, float]] = []   # (start, seconds) of each speed probe


def _alarm(signum, frame):
    if _armed[0]:
        raise OpTimeout


def _probe(signum, frame):
    _probes.append((time.perf_counter(), calibrate.probe_seconds()))


def _probed_within(start: float, end: float) -> float:
    return sum(s for t, s in _probes if start <= t and t + s <= end)


def run_op(cli, argv, limit_s, keep_stdout):
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "ok"
    # The alarm is armed only inside the redirection, so it can never leave
    # sys.stdout pointing at the capture buffer.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            _armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, max(limit_s, 1e-6))
            rc = cli.main(argv)
            _armed[0] = False
        except OpTimeout:
            status = "timeout"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed op, not a failed run
            status = "error"
            err.write(traceback.format_exc())
        finally:
            _armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
    seconds = end - start - _probed_within(start, end)
    text = golden.mask(argv, out.getvalue())
    result = {"status": status, "rc": rc, "seconds": seconds, "sha256": golden.digest(text),
              "traceback": "Traceback" in err.getvalue()}
    if keep_stdout:
        result["stdout"] = text
    return result


def _timed_out(seconds: float) -> dict:
    return {"status": "timeout", "rc": None, "seconds": seconds, "sha256": None,
            "traceback": False}


def main() -> int:
    job = json.load(sys.stdin)
    import spectop

    if os.path.realpath(spectop.__file__) != os.path.realpath(job["spectop_init"]):
        print(f"spectop resolves to {spectop.__file__}, not {job['spectop_init']}",
              file=sys.stderr)
        return EXIT_WRONG_SPECTOP
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    from spectop import cli

    signal.signal(signal.SIGALRM, _alarm)
    if job["probes"]:
        signal.signal(signal.SIGPROF, _probe)
        signal.setitimer(signal.ITIMER_PROF, calibrate.PROBE_INTERVAL_S,
                         calibrate.PROBE_INTERVAL_S)
    results = []
    for index, argv in enumerate(job["ops"]):
        remaining = job["deadline"] - time.monotonic()
        if remaining <= 0:
            results.append(_timed_out(0.0))
            continue
        if tracer is not None:
            tracer.op = job["first_op"] + index
            tracer.stack[:] = [tracing.NO_PARENT]  # a timed-out op may leave spans open
        limit = min(job["limits"][index], remaining)
        try:
            results.append(run_op(cli, argv, limit, job["keep_stdout"]))
        except OpTimeout:  # the alarm landed in run_op's own bookkeeping
            results.append(_timed_out(limit))
    signal.setitimer(signal.ITIMER_PROF, 0)
    reply = {"results": results, "probes": [s for _, s in _probes],
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "trace": None}
    if tracer is not None:
        reply["trace"] = tracer.summary()
        if job["spans_path"]:
            tracer.write_spans(job["spans_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
