"""The verification harness: registry, corpus runs, failure payloads."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from spectop import (
    CorpusEntry,
    FlatnessCertificate,
    parse_ring,
    principal_ideal,
    run_check,
    run_corpus,
    unit_ideal,
    zero_ideal,
)
from spectop import enumerate_spectrum, harness
from spectop.errors import CorpusError
from spectop.ideals import Ideal
from spectop.spectrum import SpectrumPoset
from spectop.harness import (
    CHECK_NAMES,
    DEFAULT_CORPUS,
    applicable_checks,
    corpus_from_document,
    run_ring_checks,
)

from conftest import CORPUS_TEXTS, ZLOC_POWERS, closure_operators_by_members


def test_default_corpus_all_pass():
    result = run_corpus()
    assert result.failures == 0
    assert result.all_passed
    assert result.passed > 0


def test_reports_are_deterministic():
    first = run_corpus()
    second = run_corpus()
    assert first.reports == second.reports


def test_reports_do_not_depend_on_corpus_order():
    forward = run_corpus(DEFAULT_CORPUS)
    backward = run_corpus(tuple(reversed(DEFAULT_CORPUS)))
    assert forward.reports == backward.reports


def test_every_check_runs_somewhere():
    seen = {r.check for r in run_corpus().reports if r.verdict == "pass"}
    assert seen == set(CHECK_NAMES)


def test_applicability_matrix():
    bits = parse_ring("EvBits")
    names = applicable_checks(bits)
    assert "flat-not-projective" in names
    assert "topology-characterization" not in names
    assert "flat-ideal-bijection" not in names

    mixed = parse_ring("Zloc(2) * Z/3")
    names = applicable_checks(mixed)
    assert "topology-characterization" in names
    assert "flat-ideal-bijection" not in names

    z12 = parse_ring("Z/12")
    assert set(applicable_checks(z12)) == set(CHECK_NAMES)


def test_bijection_counts():
    report = run_check("flat-ideal-bijection", parse_ring("Z/12"))
    assert report.verdict == "pass"
    assert report.details["flat_ideals"] == 4
    assert report.details["closed_genstable_sets"] == 4
    report6 = run_check("flat-ideal-bijection", parse_ring("Z/6"))
    assert report6.details["flat_ideals"] == 4
    report4 = run_check("flat-ideal-bijection", parse_ring("Z/4"))
    assert report4.details["flat_ideals"] == 2
    reportl = run_check("flat-ideal-bijection", parse_ring("Zloc(2)"))
    assert reportl.details["flat_ideals"] == 2


def test_reduced_corollaries_skip_reasons():
    for text in ("Z/12", "Z/4"):
        report = run_check("radical-rigidity", parse_ring(text))
        assert report.verdict == "skipped"
        assert "not reduced" in report.details["reason"]
    for text in ("Z/6", "GF(4)", "Z/2[x]/(x^2+x)"):
        report = run_check("radical-rigidity", parse_ring(text))
        assert report.verdict == "pass"


def test_crt_decomposition_details():
    report = run_check("crt-decomposition", parse_ring("Z/12"))
    assert report.verdict == "pass"
    assert report.details["factors"] == [3, 4]
    cards = sorted(s["cardinality"] for s in report.details["summands"])
    assert cards == [3, 4]
    skip = run_check("crt-decomposition", parse_ring("Z/4"))
    assert skip.verdict == "skipped"


def test_expected_facts_mismatch_is_reported_and_recheckable():
    ring = parse_ring("Z/12")
    entry = CorpusEntry("Z/12", {"spectrum_size": 3})
    report = run_check("expected-facts", ring, entry)
    assert report.verdict == "fail"
    assert report.counterexample["mismatches"] == [
        {"field": "spectrum_size", "expected": 3, "computed": 2}]
    # re-running the check reproduces the identical failure
    again = run_check("expected-facts", ring, entry)
    assert again == report


def test_topology_characterization_fails_when_bases_disagree(monkeypatch):
    import spectop.spectrum as spectrum
    target = parse_ring("Zloc(2) * Zloc(2)")
    real = spectrum._ideal_table

    def only_trivial_sets(ring):
        if ring != target:
            return real(ring)
        return 1 | 1 << spectrum.enumerate_spectrum(ring).full

    monkeypatch.setattr(spectrum, "_ideal_table", only_trivial_sets)
    report = run_check("topology-characterization", target)
    assert report.verdict == "fail"
    assert ("flat families from V(f) and V(I) bases disagree"
            in report.counterexample["problems"])


def test_topology_characterization_fails_after_the_families_are_shared(monkeypatch):
    # A passing run first leaves the V(f) families built; the V(I) families
    # must still be computed afresh, so the same failure shows.
    import spectop.spectrum as spectrum
    target = parse_ring("Zloc(2) * Zloc(2)")
    assert run_check("topology-characterization", target).verdict == "pass"
    real = spectrum._ideal_table

    def only_trivial_sets(ring):
        if ring != target:
            return real(ring)
        return 1 | 1 << spectrum.enumerate_spectrum(ring).full

    monkeypatch.setattr(spectrum, "_ideal_table", only_trivial_sets)
    report = run_check("topology-characterization", target)
    assert report.verdict == "fail"
    assert ("flat families from V(f) and V(I) bases disagree"
            in report.counterexample["problems"])


def test_topology_characterization_fails_on_a_wrong_stable_table(monkeypatch):
    # The generalization-stable table is read off the cones alone; one set
    # dropped from it must show against the flat family.
    import spectop.spectrum as spectrum
    target = parse_ring("Zloc(2) * Zloc(2)")
    sp = spectrum.enumerate_spectrum(target)
    assert run_check("topology-characterization", target).verdict == "pass"
    without_space = sp.down_table ^ 1 << sp.full
    monkeypatch.setattr(spectrum.SpectrumPoset, "down_table",
                        property(lambda self: without_space))
    report = run_check("topology-characterization", target)
    assert report.verdict == "fail"
    assert report.counterexample["problems"] == [
        "flat family differs from patch-closed gen-stable sets"]


def test_flat_ideal_bijection_fails_on_a_flipped_verdict(monkeypatch):
    z6 = parse_ring("Z/6")
    target = principal_ideal(z6, 2)
    real = harness.is_cyclic_flat

    def flipped(ideal):
        cert = real(ideal)
        if ideal != target:
            return cert
        return FlatnessCertificate(cert.ideal, not cert.verdict, cert.witnesses,
                                   cert.failing, cert.note)

    monkeypatch.setattr(harness, "is_cyclic_flat", flipped)
    report = run_check("flat-ideal-bijection", z6)
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": [{"kind": "not-surjective", "set": ["(2)"]}]}


def test_support_consistency_fails_when_supports_lose_a_point(monkeypatch):
    real = harness.support_of_ideal

    def short(ideal):
        supp = real(ideal)
        return supp - {min(supp, key=lambda p: p.label())} if supp else supp

    monkeypatch.setattr(harness, "support_of_ideal", short)
    report = run_check("support-consistency", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"ideal": "(3)", "kind": "containment"}


def test_support_consistency_fails_when_a_flat_ideal_has_extra_support(monkeypatch):
    # Supports that claim every point still contain each complement of
    # V(I), so only the equality owed by flat quotients can fail: first on
    # (0), whose support is empty.
    monkeypatch.setattr(harness, "support_of_ideal",
                        lambda ideal: enumerate_spectrum(ideal.ring).as_set())
    report = run_check("support-consistency", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"ideal": "(0)", "kind": "flat-equality"}


def test_radical_rigidity_fails_when_radicals_are_whole(monkeypatch):
    # The zero ideal keeps its radical, or the ring would look non-reduced
    # and the check would be skipped.
    real = harness.radical
    monkeypatch.setattr(harness, "radical",
                        lambda ideal: real(ideal) if ideal.is_zero() else unit_ideal(ideal.ring))
    report = run_check("radical-rigidity", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"kind": "flat-radical", "ideal": "(3)", "radical": "(1)"}


def test_radical_rigidity_fails_when_vanishing_loci_collide(monkeypatch):
    # Z/6 is reduced and every ideal is flat, so the first flat ideal (0)
    # collides with the next ideal in enumeration order.
    monkeypatch.setattr(harness, "vanishing_locus", lambda ring, ideal: frozenset())
    report = run_check("radical-rigidity", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"kind": "locus-collision", "ideals": ["(0)", "(3)"]}


def test_closure_operators_fail_on_a_wrong_flat_kernel(monkeypatch):
    monkeypatch.setattr(harness, "flat_ideal_from_closed_set",
                        lambda ring, points: zero_ideal(ring))
    report = run_check("closure-operators", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"operator": "flat-kernel", "set": [], "kernel": "(0)"}


def _lose_a_point(patch, closure: str, cones: str) -> None:
    """Patch ``closure`` on every spectrum: the image of a mask that holds
    x, the last point whose cone (``down`` or ``up``) holds another
    point, loses the lowest other point of that cone."""
    real = SpectrumPoset.__dict__[closure].func

    def patched(sp):
        union, cone = real(sp), getattr(sp, cones)
        proper = [x for x, c in enumerate(cone) if c != 1 << x]
        if not proper:
            return union
        x = proper[-1]
        other = cone[x] & ~(1 << x)
        lost = other & -other
        return lambda mask: union(mask) & ~lost if mask >> x & 1 else union(mask)

    patch.setattr(SpectrumPoset, closure, property(patched))


@pytest.mark.parametrize("closure, cones, operator, point", [
    ("down_closure", "down", "generalization", "(2) x (1)"),
    ("up_closure", "up", "specialization", "(0) x (1)"),
])
def test_closure_operators_fail_when_a_closure_image_leaves_its_family(
        monkeypatch, closure, cones, operator, point):
    # The image of the point closure of that one point loses a point of its
    # cone, so it is no longer stable and leaves the target family.
    _lose_a_point(monkeypatch, closure, cones)
    report = run_check("closure-operators", parse_ring("Zloc(2) * Z/3"))
    assert report.verdict == "fail"
    assert report.counterexample == {"operator": operator, "set": [point]}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS_TEXTS + ZLOC_POWERS))
def test_closure_operators_agree_with_the_member_by_member_reference(text):
    report = run_check("closure-operators", parse_ring(text))
    details, counterexample = closure_operators_by_members(parse_ring(text))
    assert counterexample is None and report.verdict == "pass"
    assert report.details == details
    if all(c == 1 << x for x, c in enumerate(enumerate_spectrum(parse_ring(text)).down)):
        return  # a discrete spectrum: every set is closed in every topology
    for closure, cones, operator in (("down_closure", "down", "generalization"),
                                     ("up_closure", "up", "specialization")):
        with pytest.MonkeyPatch.context() as patch:
            _lose_a_point(patch, closure, cones)
            report = run_check("closure-operators", parse_ring(text))
            _, counterexample = closure_operators_by_members(parse_ring(text))
        assert report.verdict == "fail" and report.counterexample["operator"] == operator
        assert counterexample["operator"] == operator


def test_closure_images_close_each_point_closure_once(monkeypatch):
    # A structural guard, with no timing: on Zloc(2)^8 the image tests close
    # at most one set per point for each family.  The stability test inside
    # each flat kernel's construction is not an image test and is not counted.
    ring = parse_ring(" * ".join(["Zloc(2)"] * 8))
    calls = {"down_closure": 0, "up_closure": 0}
    in_kernel = [False]
    for name in calls:
        real = SpectrumPoset.__dict__[name].func

        def counted(sp, real=real, name=name):
            union = real(sp)

            def closure(mask):
                calls[name] += not in_kernel[0]
                return union(mask)
            return closure

        monkeypatch.setattr(SpectrumPoset, name, property(counted))
    kernel_of = harness.flat_ideal_from_closed_set

    def flagged(ring, points):
        in_kernel[0] = True
        try:
            return kernel_of(ring, points)
        finally:
            in_kernel[0] = False

    monkeypatch.setattr(harness, "flat_ideal_from_closed_set", flagged)
    assert run_check("closure-operators", ring).verdict == "pass"
    points = len(enumerate_spectrum(ring))
    assert 0 < calls["down_closure"] <= points and 0 < calls["up_closure"] <= points


def test_closure_operators_search_each_component_once(monkeypatch):
    # A structural guard, with no timing: the 32 flat kernels of Zloc(2)^5
    # are products of two distinct component ideals, (0) and (1), and each
    # is searched for flat witnesses once.
    searched = []
    search = Ideal.flat_search

    def counted(ideal):
        if "flat_search" not in ideal.memo:
            searched.append(ideal)
        return search(ideal)

    monkeypatch.setattr(Ideal, "flat_search", counted)
    ring = parse_ring(ZLOC_POWERS[4])
    report = run_check("closure-operators", ring)
    assert report.verdict == "pass" and len(report.details["flat_kernels"]) == 32
    components = {c for k in report.details["flat_kernels"] for c in k["kernel"].split(" x ")}
    assert components == {"(0)", "(1)"}
    assert all(ideal.ring in ring.factors for ideal in searched)
    assert sorted(ideal.label() for ideal in searched) == ["(0)", "(1)"]


def test_sring_equivalences_fail_when_idempotents_go_missing(monkeypatch):
    import spectop.sring as sring
    monkeypatch.setattr(sring, "idempotents", lambda ring: (ring.zero, ring.one))
    report = run_check("sring-equivalences", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "failures": ["double-closed family has 4 members but idempotents realize "
                     "2 vanishing sets"],
        "patch_clopen_ok": True}


def test_sring_equivalences_fail_on_a_fresh_ring_after_a_pass(monkeypatch):
    # A passing run keeps its certificate on that ring instance only, so a
    # freshly parsed equal ring is certified again and the failure shows.
    import spectop.sring as sring
    assert run_check("sring-equivalences", parse_ring("Z/6")).verdict == "pass"
    monkeypatch.setattr(sring, "idempotents", lambda ring: (ring.zero, ring.one))
    report = run_check("sring-equivalences", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "failures": ["double-closed family has 4 members but idempotents realize "
                     "2 vanishing sets"],
        "patch_clopen_ok": True}


@pytest.mark.parametrize("text", ["Zloc(2) * Zloc(2) * Zloc(2) * Zloc(2)",
                                  "Z/2 * Z/2 * Z/2 * Z/2"])
def test_one_run_certifies_each_ring_and_ideal_once(monkeypatch, text):
    import spectop.flatness as flatness
    import spectop.sring as sring
    certified, searched = [], []
    certify, search = sring._certify, flatness._search
    monkeypatch.setattr(sring, "_certify", lambda ring: certified.append(ring) or certify(ring))
    monkeypatch.setattr(flatness, "_search", lambda ideal: searched.append(ideal) or search(ideal))
    ring = parse_ring(text)
    reports = run_ring_checks(ring)
    assert not any(r.failed for r in reports)
    assert certified == [ring]
    # The list keeps every searched ideal alive, so no id is reused.
    assert searched and len({id(i) for i in searched}) == len(searched)


def test_crt_decomposition_fails_when_summands_are_not_projective(monkeypatch):
    monkeypatch.setattr(harness, "is_cyclic_projective", lambda ideal: False)
    report = run_check("crt-decomposition", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": ["summand of 3 is not projective",
                                                  "summand of 4 is not projective"]}


def test_chain_conditions_fail_when_a_maximal_ideal_is_uncovered(monkeypatch):
    from spectop.spectrum import SpectrumPoset
    real = SpectrumPoset.minimal_points
    monkeypatch.setattr(SpectrumPoset, "minimal_points",
                        lambda sp: frozenset([min(real(sp), key=lambda p: p.label())]))
    report = run_check("chain-conditions", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"X": "min", "uncovered": "(3)"}


def test_chain_conditions_fail_when_the_sring_certificate_fails(monkeypatch):
    # X is covered, but with two idempotents missing the ring's own S-ring
    # certificate fails, and the first X reports its family.
    import spectop.sring as sring
    monkeypatch.setattr(sring, "idempotents", lambda ring: (ring.zero, ring.one))
    report = run_check("chain-conditions", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"X": "min",
                                     "family": [[], ["(2)"], ["(3)"], ["(2)", "(3)"]]}


def test_flat_not_projective_fails_when_the_ideal_claims_projectivity(monkeypatch):
    monkeypatch.setattr(harness, "is_cyclic_projective", lambda ideal: True)
    report = run_check("flat-not-projective", parse_ring("EvBits"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "problems": ["the finitely supported ideal claims to be projective"]}


@pytest.mark.parametrize("text, skipped", [
    ("Z/210", ["stabilization-graph", "flat-not-projective", "expected-facts"]),
    ("Z/2 * Z/2 * Z/2 * Z/2 * Z/2 * Z/2",
     ["crt-decomposition", "flat-not-projective", "expected-facts"]),
    ("Z/2 * Z/2 * Z/2 * Z/2 * Z/2 * Z/2 * Z/2 * Z/2",
     ["crt-decomposition", "stabilization-graph", "flat-not-projective", "expected-facts"]),
])
def test_large_finite_rings_pass_every_applicable_check(text, skipped):
    ring = parse_ring(text)
    reports = run_ring_checks(ring)
    assert [r.check for r in reports] == list(applicable_checks(ring)) == list(CHECK_NAMES)
    assert {r.check: r.verdict for r in reports} == {
        name: "skipped" if name in skipped else "pass" for name in CHECK_NAMES}


def test_corpus_failure_count_counts_mismatches():
    entries = (CorpusEntry("Z/12", {"spectrum_size": 3}),)
    result = run_corpus(entries)
    assert result.failures == 1
    failing = [r for r in result.reports if r.verdict == "fail"]
    assert failing[0].check == "expected-facts"


def test_corpus_rejects_bad_ring_text():
    with pytest.raises(CorpusError) as err:
        run_corpus((CorpusEntry("Z/6"), CorpusEntry("Q[x]")))
    assert err.value.index == 1


def test_corpus_rejects_oversized_ring():
    with pytest.raises(CorpusError) as err:
        run_corpus((CorpusEntry("Z/6"), CorpusEntry("Z/4 * Z/257")))
    assert err.value.index == 1
    assert str(err.value) == (
        "entry 1: a finite ring with 257 elements exceeds the budget of 256 elements")


def test_corpus_from_document_validation():
    good = corpus_from_document(
        {"entries": [{"ring": "Z/6", "expect": {"reduced": True}}]})
    assert good[0].ring_text == "Z/6"
    with pytest.raises(CorpusError):
        corpus_from_document({"rings": []})
    with pytest.raises(CorpusError) as err:
        corpus_from_document({"entries": {}})
    assert str(err.value) == "'entries' must be an array"
    with pytest.raises(CorpusError) as err:
        corpus_from_document({"entries": [{"ring": "Z/6", "expect": {"size": 1}}]})
    assert err.value.index == 0
    with pytest.raises(CorpusError):
        corpus_from_document({"entries": [{"expect": {}}]})
    ill_typed = [
        {"ring": 5},
        {"ring": ["Z/6"]},
        {"ring": "Z/6", "expect": {"spectrum_size": "2"}},
        {"ring": "Z/6", "expect": {"flat_ideals": 4.0}},
        {"ring": "Z/6", "expect": {"spectrum_size": True}},
        {"ring": "Z/6", "expect": {"reduced": 1}},
        {"ring": "Z/6", "expect": {"reduced": "yes"}},
    ]
    for bad in ill_typed:
        with pytest.raises(CorpusError) as err:
            corpus_from_document({"entries": [{"ring": "Z/4"}, bad]})
        assert err.value.index == 1, bad
        assert str(err.value).startswith("entry 1: "), bad


def test_reports_sorted_and_complete():
    result = run_corpus()
    keys = [(r.ring, r.check) for r in result.reports]
    assert keys == sorted(keys)
    rings = {r.ring for r in result.reports}
    assert rings == {parse_ring(e.ring_text).describe() for e in DEFAULT_CORPUS}


def test_run_ring_checks_on_bits_ring():
    bits = parse_ring("EvBits")
    reports = run_ring_checks(bits)
    by_name = {r.check: r for r in reports}
    witness = by_name["flat-not-projective"]
    assert witness.verdict == "pass"
    assert witness.details["flat"] is True
    assert witness.details["projective"] is False


def test_unknown_check_name():
    with pytest.raises(KeyError):
        run_check("no-such-check", parse_ring("Z/6"))
