"""Byte-identity of CLI output against recorded digests.

Every op of the sweep below runs in this process through ``cli.main``; its
exit code and the SHA-256 of its stdout and stderr must equal what
``byte_identity.json`` beside this file records.  The sweep covers what the
benchmark's golden ops do not: infinite products up to ``Zloc(2)^8``, whose
patch family has 16 points and 65,536 sets.

When an op's output changes on purpose, re-record the file and name the op
and the reason in the change's notes::

    PYTHONPATH=src python tests/test_byte_identity.py --record

On a mismatch the test prints the first differing line, rebuilding the
recorded text from the commit the file names (``git archive``) when git and
that commit are at hand and the rebuilt text has the recorded digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import pytest

from spectop.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("byte_identity.json")

ZLOC_POWERS = tuple(" * ".join(["Zloc(2)"] * k) for k in range(1, 9))
RINGS = ZLOC_POWERS + ("Zloc(2) * Z/3", "Zloc(3) * Z/4 * Zloc(2)", "Z/30")

# One ideal that is not flat and one that is, per product.
FLAT_IDEALS = {
    **{text: ("(" + ", ".join(["1"] * (k - 1) + ["2"]) + ")",
              "(" + ", ".join("10"[i % 2] for i in range(k)) + ")")
       for k, text in enumerate(ZLOC_POWERS, start=1) if k > 1},
    "Zloc(2) * Z/3": ("(2, 1)", "(1, 0)"),
    "Zloc(3) * Z/4 * Zloc(2)": ("(1, 2, 1)", "(0, 1, 1)"),
}


def sweep_ops() -> list[list[str]]:
    ops = []
    for text in RINGS:
        ring = ["--ring", text]
        ops.append(["verify", *ring])
        ops += [["topology", *ring, "--which", which] for which in ("zariski", "flat", "patch")]
        ops += [["sring", *ring], ["chaincond", *ring, "--X", "min"],
                ["spec", *ring], ["export-dot", *ring]]
        ops += [["flat", *ring, f"--ideal={ideal}"] for ideal in FLAT_IDEALS.get(text, ())]
    return ops


def run_op(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv) -> dict:
    code, out, err = run_op(argv)
    return {"argv": list(argv), "exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def _recorded_text(commit: str, argv, stream: str, digest: str) -> str | None:
    """The output the recorded commit prints for argv, or None when git or
    the commit is not at hand or prints other text."""
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                                 capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        proc = subprocess.run([sys.executable, "-m", "spectop.cli", *argv],
                              capture_output=True, text=True, env=env)
    text = proc.stdout if stream == "stdout" else proc.stderr
    return text if _sha(text) == digest else None


def _first_difference(expected: str, actual: str) -> str:
    old, new = expected.splitlines(), actual.splitlines()
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}: recorded {a!r}, now {b!r}"
    return f"the texts agree on {min(len(old), len(new))} lines; lengths {len(old)} and {len(new)}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_the_digests_cover_the_sweep(recorded):
    assert [op["argv"] for op in recorded["ops"]] == sweep_ops()


def test_every_op_prints_its_recorded_bytes(recorded):
    for op in recorded["ops"]:
        code, out, err = run_op(op["argv"])
        assert code == op["exit"], op["argv"]
        for stream, text in (("stdout", out), ("stderr", err)):
            if _sha(text) != op[stream]:
                expected = _recorded_text(recorded["commit"], op["argv"], stream, op[stream])
                where = ("(the recorded text could not be rebuilt)" if expected is None
                         else _first_difference(expected, text))
                pytest.fail(f"{op['argv']}: {stream} differs from the recording; {where}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record [OUTPUT]")
    target = Path(sys.argv[2]) if len(sys.argv) > 2 else DIGESTS
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    document = {"commit": commit, "ops": [record(argv) for argv in sweep_ops()]}
    target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
