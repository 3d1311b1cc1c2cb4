"""End-to-end command line behavior: JSON output, exit codes, DOT export."""

from __future__ import annotations

import json

import pytest

from spectop import enumerate_spectrum, is_cyclic_flat, parse_ring, principal_ideal
from spectop.cli import (
    certificate_doc,
    certificate_from_doc,
    dot_text,
    main,
    spectrum_doc,
    spectrum_from_doc,
)


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


def test_certificate_json_round_trip():
    for text, gens in (("Z/6", "2"), ("Z/4", "2"), ("Zloc(2)", "4/3")):
        ring = parse_ring(text)
        from spectop import ideal_from_generators, parse_generators
        ideal = ideal_from_generators(ring, parse_generators(ring, gens))
        cert = is_cyclic_flat(ideal)
        doc = json.loads(json.dumps(certificate_doc(cert)))
        assert certificate_from_doc(doc) == cert


def test_json_output_is_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "spec", "--ring", "Z/12")
    code, second, _ = run_cli(capsys, "spec", "--ring", "Z/12")
    assert first == second
