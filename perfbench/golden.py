"""Golden CLI outputs: what every op printed at the commit that defined them.

Run ``python3 perfbench/golden.py`` from the repository root to record
them again.  Every op any workload can issue is run under
PYTHONHASHSEED 1, 2 and 77; the outputs must be byte-identical across
the three, and the file notes that they were.  The only masked field is
``elapsed_seconds`` in ``corpus`` output, which is wall-clock time.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "outputs.json.gz"
HASH_SEEDS = (1, 2, 77)

_ELAPSED = re.compile(r'"elapsed_seconds": [-+0-9.eE]+')


def op_key(argv: list[str]) -> str:
    return json.dumps(argv)


def mask(argv: list[str], stdout: str) -> str:
    if argv and argv[0] == "corpus":
        return _ELAPSED.sub('"elapsed_seconds": "<masked>"', stdout)
    return stdout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(path: Path = GOLDEN_PATH) -> dict[str, tuple[int, str]]:
    """op key -> (exit code, sha256 of the masked stdout)."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        document = json.load(handle)
    return {key: (entry["exit"], digest(entry["stdout"]))
            for key, entry in document["ops"].items()}


def record() -> int:
    import run
    import workloads

    ops = workloads.all_ops()
    heavy = workloads.ladder_ops() + workloads.family_ops()
    light = [argv for argv in ops if argv not in heavy]
    outputs = []
    for seed in HASH_SEEDS:
        runner = run.Runner(hash_seed=seed, deadline_s=3600)
        seen = {}
        jobs = [(light, workloads.SESSION_OP_LIMIT_S)]
        jobs += [([argv], 3 * workloads.HEAVY_OP_LIMIT_S) for argv in heavy]
        for batch, limit in jobs:
            reply = runner.job(batch, [limit] * len(batch), keep_stdout=True)
            for argv, result in zip(batch, reply["results"]):
                if result["status"] != "ok" or result["traceback"]:
                    print(f"{argv}: {result['status']}", file=sys.stderr)
                    return 1
                seen[op_key(argv)] = {"exit": result["rc"], "stdout": result["stdout"]}
        outputs.append(seen)
        print(f"PYTHONHASHSEED={seed}: {len(seen)} ops", file=sys.stderr)
    differing = sorted(k for k in outputs[0] if any(o[k] != outputs[0][k] for o in outputs[1:]))
    if differing:
        print(f"outputs differ across hash seeds: {differing[:5]}", file=sys.stderr)
        return 1
    document = {
        "recorded_with": run.provenance(),
        "hashseed_check": {"seeds": list(HASH_SEEDS), "ops": len(outputs[0]),
                           "byte_identical": True},
        "masked": {"corpus": ["elapsed_seconds"]},
        "ops": outputs[0],
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as handle:
        handle.write(json.dumps(document, indent=1, sort_keys=True).encode("utf-8"))
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
