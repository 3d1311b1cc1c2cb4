"""The command line contract, as one property over hostile argvs.

Whatever the argv, ``cli.main`` answers within a second with exit 0, 1 or
2 and never prints a traceback; exit 2 prints exactly one line holding
"error:", under 160 bytes; exit 1 comes only from ``verify`` or
``corpus`` with a failed row.  The argvs are built from the corpus rings,
ideal labels and element literals, mutated by edits that insert grammar
tokens, long digit runs and other characters, with an unknown flag, an
invalid choice or arguments after a "--" now and then.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spectop.dsl
import spectop.rings
from spectop import DEFAULT_CORPUS
from spectop.cli import main
from spectop.harness import CHECK_NAMES
from spectop.errors import RingTooLarge
from spectop.rings import MAX_RING_ELEMENTS

NINES = "9" * 4000
FOUND_ARGVS = [
    ["spec", "--ring", f"GF({NINES})"],
    ["spec", "--ring", f"Z/{NINES}"],
    ["flat", "--ring", "Zloc(3) * Z/2", f"--ideal=(1/{'1' * 8000}, 1)"],
    ["flat", "--ring", "GF(4)", "--ideal", "-x"],
    # A size of 4,335 digits, past what Python writes out in decimal.
    ["spec", "--ring", " * ".join(["Z/256"] * 1800)],
    # argparse named every choice, and repeated the value or the arguments
    # after a "--" in full.
    ["verify", "--ring", "Z/2", "--theorem", "bogus"],
    ["topology", "--ring", "Z/2", "--which", "zariski" * 100],
    ["spec", "--ring", "Z/2", "--", *["abcdefghij"] * 40],
    # 1,000 factors took seconds, quadratic in the factor count, before
    # the product was refused with its 2,000 spectrum points.
    ["sring", "--ring", " * ".join(["Zloc(2)"] * 1000)],
]

_RINGS = [entry.ring_text for entry in DEFAULT_CORPUS] + ["Z/2[x]/(x^4)", "GF(16)"]
_LABELS = ["(2)", "(0)", "(1)", "(2^3)", "(0) x (1)", "(2) x (0)", "((1, 0))", "(x+1)",
           "(fin)", "({1,3}:0)", "(3)"]
_LITERALS = ["2", "-1", "x+1", "x^2 + 1", "4/3", "-1/3", "(4/3, 2)", "(0, 1), (2, 0)",
             "{1,3}:0", "{}:1", "x^99999999999"]
# The pieces an edit inserts: grammar tokens, long digit runs and any character.
_PIECES = st.one_of(
    st.sampled_from(list("()*/^,;:{}x+- 0123456789")),
    st.sampled_from([NINES, "1" + "0" * 4400, "Z/", "GF(", "Zloc(", " x ", " * Z/2", "fin"]),
    st.characters())
_UNKNOWN_FLAGS = ["--bogus", "-q", "--ring2", "--ideal=2", "--which=flat", "-h"]


@st.composite
def _mutated(draw, texts):
    """One of the texts after up to three edits, each replacing up to three
    characters by nothing or by one piece."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.one_of(st.just(""), _PIECES)) + text[end:]
    return text


def _choice(names):
    """One of the names, or now and then one mutated into an invalid choice."""
    return st.one_of(st.sampled_from(names), _mutated(list(names)))


@st.composite
def _argvs(draw):
    ring = draw(_mutated(_RINGS))
    command = draw(st.sampled_from(
        ["spec", "topology", "flat", "sring", "chaincond", "verify", "corpus", "export-dot"]))
    argv = [command, "--ring", ring]
    if command == "topology":
        argv += ["--which", draw(_choice(["zariski", "flat", "patch"]))]
    elif command == "flat":
        argv.append("--ideal=" + draw(_mutated(_LITERALS)))
    elif command == "chaincond":
        argv += ["--X", draw(_choice(["min", "max", "custom"]))]
        if draw(st.booleans()):
            labels = draw(st.lists(_mutated(_LABELS), min_size=1, max_size=3))
            argv.append("--points=" + ";".join(labels))
    elif command == "verify" and draw(st.booleans()):
        argv += ["--theorem", draw(_choice(CHECK_NAMES))]
    elif command == "corpus":
        # A corpus file holding the mutated ring, expecting what its source
        # ring has, so that a changed ring can fail a row.
        source = draw(st.sampled_from(DEFAULT_CORPUS))
        argv = [command, json.dumps({"entries": [{"ring": ring, "expect": source.expect}]})]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_UNKNOWN_FLAGS)))
    if draw(st.integers(0, 4)) == 0:
        argv += ["--", *draw(st.lists(_mutated(_RINGS + _LITERALS), min_size=1, max_size=40))]
    return argv


def _run(argv):
    """Exit code, output and error text of one in-process run, and its time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's usage errors and help
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check_contract(argv):
    """Run argv, its corpus document written to a file, and check the contract."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "corpus.json"
        for arg in argv:
            if arg.startswith('{"entries"'):
                path.write_text(arg, encoding="utf-8")
        code, out, err, elapsed = _run(
            [str(path) if arg.startswith('{"entries"') else arg for arg in argv])
    assert code in (0, 1, 2), (code, err)
    assert elapsed < 1.0
    assert "Traceback" not in out + err
    if code == 2:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert len(errors[0].encode()) < 160, errors[0][:200]
    if code == 1:
        assert argv[0] in ("verify", "corpus")
        doc = json.loads(out)
        failed = ([r["verdict"] for r in doc] if argv[0] == "verify"
                  else [r["verdict"] for r in doc["reports"]])
        assert "fail" in failed


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
@example(FOUND_ARGVS[0])
@example(FOUND_ARGVS[1])
@example(FOUND_ARGVS[2])
@example(FOUND_ARGVS[3])
@example(FOUND_ARGVS[4])
@example(FOUND_ARGVS[5])
@example(FOUND_ARGVS[6])
@example(FOUND_ARGVS[7])
@example(FOUND_ARGVS[8])
@example(["spec", "--ring", f"Zloc({NINES})"])
@example(["spec", "--ring", f"Z/2[x]/(x^{NINES}+x)"])
@example(["flat", "--ring", "Zloc(3)", f"--ideal=1/{NINES}"])
@example(["flat", "--ring", "Z/12", f"--ideal=x{NINES}"])
@example(["chaincond", "--ring", "Zloc(2)", "--X", "custom", f"--points=(2^{NINES})"])
@example(["corpus", json.dumps({"entries": [{"ring": "Z/8", "expect": {"reduced": True}}]})])
def test_every_argv_keeps_the_cli_contract(argv):
    check_contract(argv)


def _full_size_check(base: int, exponent: int = 1) -> None:
    """``check_ring_size`` as it was, printing a refused size in full."""
    named = exponent > MAX_RING_ELEMENTS.bit_length()
    if named or base ** exponent > MAX_RING_ELEMENTS:
        size = f"{base}^{exponent}" if named else base ** exponent
        raise RingTooLarge(f"a finite ring with {size} elements exceeds "
                           f"the budget of {MAX_RING_ELEMENTS} elements")


@pytest.mark.parametrize("argv", FOUND_ARGVS[:2], ids=["GF(9...)", "Z/9..."])
def test_the_contract_fails_when_a_size_is_printed_in_full(monkeypatch, argv):
    check_contract(argv)
    monkeypatch.setattr(spectop.rings, "check_ring_size", _full_size_check)
    monkeypatch.setattr(spectop.dsl, "check_ring_size", _full_size_check)
    with pytest.raises(AssertionError, match="a finite ring with 9999"):
        check_contract(argv)
