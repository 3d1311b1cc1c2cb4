"""End-to-end command line behavior: JSON output, exit codes, DOT export."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spectop import (
    closed_family,
    enumerate_spectrum,
    is_cyclic_flat,
    parse_ring,
    principal_ideal,
)
from spectop.errors import ParseError
from spectop.cli import (
    certificate_doc,
    certificate_from_doc,
    dot_text,
    family_json,
    json_text,
    main,
    spectrum_doc,
    spectrum_from_doc,
)
from spectop.spectrum import TOPOLOGIES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from conftest import GOLDEN_TEXTS, spectop_process  # noqa: E402
from workloads import SESSION_POOL, zloc_power  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spec_command(capsys):
    code, out, _ = run_cli(capsys, "spec", "--ring", "Z/12")
    assert code == 0
    doc = json.loads(out)
    assert [p["ideal"] for p in doc["points"]] == ["(2)", "(3)"]
    assert doc["order"] == []
    assert all(p["minimal"] and p["maximal"] for p in doc["points"])


def test_spec_orders_local_ring(capsys):
    code, out, _ = run_cli(capsys, "spec", "--ring", "Zloc(2)")
    doc = json.loads(out)
    assert doc["order"] == [["(0)", "(2)"]]


def test_topology_command(capsys):
    code, out, _ = run_cli(capsys, "topology", "--ring", "Zloc(2)", "--which", "flat")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_sets"] == [[], ["(0)"], ["(0)", "(2)"]]


# Every golden ring, an empty spectrum, families of 16,384 and 256 sets,
# which the writer prints in several chunks, and the 16-point bound, the
# only family whose points 8-15 all hold labels (65,536 sets, 32 chunks).
@pytest.mark.parametrize("text", GOLDEN_TEXTS + (
    "Z/1", zloc_power(7), " * ".join(["Z/2"] * 8), zloc_power(8)))
def test_family_json_prints_the_dumped_document(text):
    ring = parse_ring(text)
    for topology in TOPOLOGIES:
        family = closed_family(ring, topology)
        reference = {"closed_sets": family.spectrum._family_labels(family.masks),
                     "ring": ring.describe(), "topology": topology}
        got = "".join(family_json(family))
        want = json.dumps(reference, indent=2, sort_keys=True) + "\n"
        # pytest would diff megabytes of text line by line; name the first
        # difference instead.
        if got != want:
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"{topology}: at {at}, {got[at:at + 40]!r} != {want[at:at + 40]!r}")


def test_topology_of_an_empty_spectrum(capsys):
    code, out, _ = run_cli(capsys, "topology", "--ring", "Z/1", "--which", "patch")
    assert code == 0
    assert json.loads(out) == {"closed_sets": [[]], "ring": "Z/1", "topology": "patch"}


def test_flat_command_negative_answer_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "flat", "--ring", "Z/4", "--ideal", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["flat"] is False
    assert doc["failing"] == "2"
    assert doc["projective"] is False


def test_flat_command_witnesses(capsys):
    code, out, _ = run_cli(capsys, "flat", "--ring", "Z/6", "--ideal", "2")
    doc = json.loads(out)
    assert doc["flat"] is True
    fs = {w["f"] for w in doc["witnesses"]}
    assert fs == {"0", "2", "4"}


def test_sring_command(capsys):
    code, out, _ = run_cli(capsys, "sring", "--ring", "Z/12")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {d["idempotent"] for d in doc["double_closed"]} == {"0", "1", "4", "9"}


def test_chaincond_command(capsys):
    code, out, _ = run_cli(capsys, "chaincond", "--ring", "Z/12", "--X", "min")
    assert code == 0
    doc = json.loads(out)
    assert doc["covering_ok"] is True
    assert doc["meet_ideal"] == "(6)"
    assert doc["acc"] and doc["dcc"]
    code, out, _ = run_cli(capsys, "chaincond", "--ring", "Zloc(2)", "--X", "max")
    assert code == 0
    doc = json.loads(out)
    assert doc["X"] == ["(2)"] and doc["covering_ok"] is True
    assert doc["meet_ideal"] == "(2)"
    assert doc["family"] == [[], ["(2)"]]


def test_chaincond_custom_violation(capsys):
    code, out, _ = run_cli(capsys, "chaincond", "--ring", "Zloc(2) * Z/3",
                           "--X", "custom", "--points", "(0) x (1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["covering_ok"] is False
    assert doc["uncovered_maximal"] == "(1) x (0)"


def test_verify_command_single_and_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "Zloc(2)",
                           "--theorem", "closure-operators")
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["verdict"] == "pass"

    code, out, _ = run_cli(capsys, "verify", "--ring", "Z/6")
    assert code == 0
    docs = json.loads(out)
    assert {d["verdict"] for d in docs} <= {"pass", "skipped"}


def test_corpus_default_run(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["passed"] > 0


def test_corpus_file_with_failure_exits_one(tmp_path, capsys):
    corpus = {"entries": [
        {"ring": "Z/12", "expect": {"spectrum_size": 3}},
    ]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == 1
    failing = next(r for r in doc["reports"] if r["verdict"] == "fail")
    assert failing["check"] == "expected-facts"
    mismatch = failing["counterexample"]["mismatches"][0]
    assert mismatch == {"field": "spectrum_size", "expected": 3, "computed": 2}


def test_corpus_file_good(tmp_path, capsys):
    corpus = {"entries": [
        {"ring": "Z/6", "expect": {"spectrum_size": 2, "flat_ideals": 4, "reduced": True}},
        {"ring": "EvBits"},
    ]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, _ = run_cli(capsys, "corpus", str(path))
    assert code == 0


def test_corpus_skips_a_check_over_the_ideal_budget(tmp_path, capsys):
    big = " * ".join(["Zloc(2)"] * 6)
    corpus = {"entries": [{"ring": "Z/6"}, {"ring": big, "expect": {"flat_ideals": 3}}]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, err = run_cli(capsys, "corpus", str(path))
    assert code == 0 and err == ""
    reports = json.loads(out)["reports"]
    assert len(reports) == 20
    assert any(r["ring"] == "Z/6" for r in reports)
    facts = next(r for r in reports if r["ring"] == big and r["check"] == "expected-facts")
    assert facts["verdict"] == "skipped"
    assert facts["details"] == {
        "reason": f"{big} has 262144 ideals, more than the budget of 65536"}


def test_verify_skips_a_check_over_the_ideal_budget(capsys):
    big = " * ".join(["Zloc(2)"] * 8)
    code, out, err = run_cli(capsys, "verify", "--ring", big,
                             "--theorem", "flat-ideal-bijection")
    assert code == 0 and err == ""
    assert json.loads(out) == [{
        "check": "flat-ideal-bijection", "ring": big, "verdict": "skipped",
        "details": {"reason": f"{big} has 16777216 ideals, more than the budget of 65536"},
        "counterexample": None}]


def test_corpus_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "corpus", str(path))
    assert code == 2
    assert "error" in err


def test_corpus_missing_file_exits_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, "corpus", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def test_corpus_ill_typed_entry_exits_two(tmp_path, capsys):
    for entry in ({"ring": 5}, {"ring": "Z/6", "expect": {"reduced": 1}},
                  {"ring": "Z/6", "expect": {"flat_ideals": False}}):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"entries": [entry]}))
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert code == 2, entry
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: entry 0: "), err
        assert "Traceback" not in err


def test_parse_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "spec", "--ring", "GF(6)")
    assert code == 2
    assert "prime power" in err
    code, _, err = run_cli(capsys, "spec", "--ring", "EvBits")
    assert code == 2  # spectrum not enumerable
    code, _, err = run_cli(capsys, "flat", "--ring", "Z/6", "--ideal", "x")
    assert code == 2
    code, out, err = run_cli(capsys, "chaincond", "--ring", "Z/12", "--X", "custom")
    assert code == 2 and out == ""
    assert err == "error: at position 0: --points is required with --X custom\n"


@pytest.mark.parametrize("argv, size", [
    (("spec", "--ring", "Z/99999999977"), 99999999977),
    (("flat", "--ring", "GF(4096)", "--ideal", "1"), 4096),
])
def test_oversized_ring_exits_two(capsys, argv, size):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: a finite ring with {size} elements exceeds the budget of 256 elements\n"


def test_large_prime_parameters_are_decided_before_any_budget(capsys):
    code, out, err = run_cli(capsys, "spec", "--ring", "Zloc(1000000000000037)")
    assert code == 0 and err == ""
    assert [p["ideal"] for p in json.loads(out)["points"]] == ["(0)", "(1000000000000037)"]
    code, out, err = run_cli(capsys, "spec", "--ring", "GF(10000000000037)")
    assert code == 2 and out == ""
    assert err == ("error: a finite ring with 10000000000037 elements exceeds "
                   "the budget of 256 elements\n")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["topology", "--ring", "Z/6", "--which", "hausdorff"])
    assert err.value.code == 2


def test_a_literal_starting_with_a_minus_needs_the_equals_form(capsys):
    # argparse reads "-x" after "--ideal" as a flag, so the literal only
    # reaches the ring grammar in the "=" form.
    code, out, _ = run_cli(capsys, "flat", "--ring", "Zloc(2)", "--ideal=-1/3")
    assert code == 0 and json.loads(out)["ideal"] == "(1)"
    code, _, err = run_cli(capsys, "flat", "--ring", "GF(4)", "--ideal=-x")
    assert code == 2 and err.startswith("error: at position 0: bad polynomial term '-x'")
    for ring, literal in (("GF(4)", "-x"), ("Zloc(2)", "-1/3")):
        with pytest.raises(SystemExit) as exit_:
            main(["flat", "--ring", ring, "--ideal", literal])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spectop flat ")
        assert err.endswith("spectop flat: error: argument --ideal: expected one argument\n")
        assert "Traceback" not in err


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    import spectop.cli as cli

    def broken(args):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "_cmd_spec", broken)
    code, out, err = run_cli(capsys, "spec", "--ring", "Z/12")
    assert code == 3
    assert out == ""
    assert err == "error: internal: RuntimeError: something broke\n"


def test_value_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "spec", "--ring", "Z/0")
    assert code == 2 and "modulus" in err
    code, _, err = run_cli(capsys, "chaincond", "--ring", "Z/12",
                           "--X", "custom", "--points", "(1)")
    assert code == 2 and "not a prime" in err
    code, _, err = run_cli(capsys, "flat", "--ring", "Zloc(2)", "--ideal", "1/2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("flat", "--ring", "Zloc(2)", "--ideal", "1/0"),
    ("flat", "--ring", "Zloc(2) * Z/3", "--ideal", "(0/0, 1)"),
    ("chaincond", "--ring", "Zloc(2)", "--X", "custom", "--points", "(1/0)"),
])
def test_zero_denominator_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: at position 0: a fraction needs a nonzero denominator\n"


_SCALARS = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
    st.lists(st.sampled_from(["1", "x", "2x", "x^2", "x^3+1"]), min_size=1, max_size=3)
    .map("+".join),
    st.builds("{{{}}}:{}".format, st.sets(st.integers(0, 6), max_size=3)
              .map(lambda s: ",".join(map(str, sorted(s)))), st.integers(0, 1)),
)
_LITERALS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, min_size=1, max_size=3).map(lambda xs: f"({', '.join(xs)})"),
    st.text("0123/-x^+(),{}:;fin", max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ring for ring, _ in SESSION_POOL]), _LITERALS)
@example("Zloc(2)", "1/0")
def test_no_literal_gives_an_internal_error(ring, literal):
    # The "=" form keeps a literal that starts with "-" from reading as a flag.
    for argv in (["flat", "--ring", ring, f"--ideal={literal}"],
                 ["chaincond", "--ring", ring, "--X", "custom", f"--points={literal}"],
                 ["chaincond", "--ring", ring, "--X", "custom", f"--points=({literal})"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "internal" not in err.getvalue(), argv


def test_export_dot_deterministic(capsys):
    ring = parse_ring("Zloc(2) * Z/3")
    first = dot_text(ring)
    second = dot_text(ring)
    assert first == second
    assert '"(0) x (1)" -> "(2) x (1)";' in first
    code, out, _ = run_cli(capsys, "export-dot", "--ring", "Zloc(2)")
    assert code == 0
    assert out == dot_text(parse_ring("Zloc(2)"))
    assert out.count("->") == 1


def test_dot_single_point_no_edges():
    out = dot_text(parse_ring("GF(4)"))
    assert '"(0)";' in out
    assert "->" not in out


def test_spectrum_json_round_trip():
    for text in ("Z/12", "Zloc(2)", "Zloc(2) * Z/3", "GF(4)"):
        sp = enumerate_spectrum(parse_ring(text))
        doc = json.loads(json.dumps(spectrum_doc(sp)))
        assert spectrum_from_doc(doc) == sp
        doc["order"].append(doc["order"][0] if doc["order"] else ["(x)", "(y)"])
        with pytest.raises(ParseError, match="does not describe this ring's spectrum"):
            spectrum_from_doc(doc)


def test_certificate_json_round_trip():
    for text, gens in (("Z/6", "2"), ("Z/4", "2"), ("Zloc(2)", "4/3")):
        ring = parse_ring(text)
        from spectop import ideal_from_generators, parse_generators
        ideal = ideal_from_generators(ring, parse_generators(ring, gens))
        cert = is_cyclic_flat(ideal)
        doc = json.loads(json.dumps(certificate_doc(cert)))
        assert certificate_from_doc(doc) == cert
        doc["flat"] = not doc["flat"]
        with pytest.raises(ParseError, match="does not match the recomputed certificate"):
            certificate_from_doc(doc)


def test_json_output_is_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "spec", "--ring", "Z/12")
    code, second, _ = run_cli(capsys, "spec", "--ring", "Z/12")
    assert first == second


# The help texts at 80 columns; the subcommand table must keep them as they are.
HELP_TEXTS = {
    "": """\
usage: spectop [-h]
               {spec,topology,flat,sring,chaincond,verify,corpus,export-dot}
               ...

prime spectra, spectral topologies and flatness certificates

positional arguments:
  {spec,topology,flat,sring,chaincond,verify,corpus,export-dot}
    spec                enumerate the prime spectrum
    topology            materialize the closed sets of one topology
    flat                flatness certificate for a cyclic quotient
    sring               topological S-ring certificate
    chaincond           covering chain conditions for a point set
    verify              run verification checks on one ring
    corpus              run every check over a corpus
    export-dot          specialization order as DOT

options:
  -h, --help            show this help message and exit
""",
    "spec": """\
usage: spectop spec [-h] --ring RING

options:
  -h, --help   show this help message and exit
  --ring RING  ring expression, e.g. 'Z/12'
""",
    "topology": """\
usage: spectop topology [-h] --ring RING --which {zariski,flat,patch}

options:
  -h, --help            show this help message and exit
  --ring RING           ring expression, e.g. 'Z/12'
  --which {zariski,flat,patch}
""",
    "flat": """\
usage: spectop flat [-h] --ring RING --ideal IDEAL

options:
  -h, --help     show this help message and exit
  --ring RING    ring expression, e.g. 'Z/12'
  --ideal IDEAL  comma separated generators, e.g. '2' or '(0/1, 1)'
""",
    "sring": """\
usage: spectop sring [-h] --ring RING

options:
  -h, --help   show this help message and exit
  --ring RING  ring expression, e.g. 'Z/12'
""",
    "chaincond": """\
usage: spectop chaincond [-h] --ring RING --X {min,max,custom}
                         [--points POINTS]

options:
  -h, --help            show this help message and exit
  --ring RING           ring expression, e.g. 'Z/12'
  --X {min,max,custom}
  --points POINTS       semicolon separated prime labels for --X custom
""",
    "verify": """\
usage: spectop verify [-h] --ring RING
                      [--theorem {topology-characterization,closure-operators,flat-ideal-bijection,support-consistency,radical-rigidity,sring-equivalences,crt-decomposition,chain-conditions,stabilization-graph,flat-not-projective,expected-facts}]

options:
  -h, --help            show this help message and exit
  --ring RING           ring expression, e.g. 'Z/12'
  --theorem {topology-characterization,closure-operators,flat-ideal-bijection,support-consistency,radical-rigidity,sring-equivalences,crt-decomposition,chain-conditions,stabilization-graph,flat-not-projective,expected-facts}
                        run a single named check
""",
    "corpus": """\
usage: spectop corpus [-h] [file]

positional arguments:
  file        JSON corpus file; defaults to the built-in corpus

options:
  -h, --help  show this help message and exit
""",
    "export-dot": """\
usage: spectop export-dot [-h] --ring RING

options:
  -h, --help   show this help message and exit
  --ring RING  ring expression, e.g. 'Z/12'
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXTS))
def test_help_texts_are_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "-h"] if command else ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


# The CLI as a process of its own: exit codes as the shell sees them, and
# what is printed when the interpreter exits.


def test_a_closed_pipe_exits_141_silently():
    # The document is 197 kB, more than a pipe holds, so the writer meets
    # the closed pipe.
    with spectop_process("topology", "--ring", zloc_power(6), "--which", "flat") as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == ""


def test_a_process_exits_zero_with_its_document():
    proc = spectop_process("spec", "--ring", "Z/4")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out)["points"][0]["ideal"] == "(2)"
    assert err == ""


def test_a_process_exits_one_on_a_failed_expectation(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"entries": [{"ring": "Z/12", "expect": {"spectrum_size": 3}}]}))
    proc = spectop_process("corpus", str(path))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert json.loads(out)["failures"] == 1
    assert err == ""


def test_a_process_exits_two_on_a_bad_ring():
    proc = spectop_process("spec", "--ring", "Z/0")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == ""
    assert err.startswith("error: ") and "modulus" in err


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
@example({"": [], "a": {}, "b": [[], {}, ()], "\u00e9\n\"": [1.5, -0.0, True, None]})
def test_json_text_matches_the_indented_dump(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_refuses_what_json_refuses():
    for doc in ({"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            json_text(doc)
