"""The verification harness: registry, corpus runs, failure payloads."""

from __future__ import annotations

import json

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
from spectop.errors import CorpusError, UnsupportedForPresentation
from spectop.ideals import Ideal, ProductIdeal, enumerate_ideals, ideal_class, prime_ideals
from spectop.spectrum import PATCH, ClosedFamily, SpectrumPoset
from spectop.sring import MultiplicativeChain, SRingCertificate
from spectop.harness import (
    CHECK_NAMES,
    DEFAULT_CORPUS,
    applicable_checks,
    corpus_from_document,
    run_ring_checks,
)

from conftest import CORPUS_TEXTS, ZLOC_POWERS, closure_operators_by_members, label_mask


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


SPECTRAL_CHECKS = ("topology-characterization", "closure-operators", "sring-equivalences",
                   "chain-conditions")


def test_applicability_matrix(capsys):
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

    # Nine localizations have 18 points, two over the family bound: the
    # spectral checks apply and are reported skipped with the bound.
    import spectop.cli as cli
    text = " * ".join(f"Zloc({p})" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
    assert cli.main(["verify", "--ring", text]) == 0
    rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)}
    for name in SPECTRAL_CHECKS:
        assert rows[name]["verdict"] == "skipped"
        assert rows[name]["details"] == {"reason": "18 spectrum points exceed the bound 16"}
    assert "flat-ideal-bijection" not in rows
    assert "support-consistency" not in rows


# One ring of every presentation kind.
PRESENTATION_KINDS = ("Z/12", "GF(4)", "Z/2[x]/(x^2+x)", "Z/4 * Z/3", "Zloc(2)",
                      "Zloc(2) * Z/3", "EvBits")


def _returns(compute) -> bool:
    try:
        compute()
    except UnsupportedForPresentation:
        return False
    return True


@pytest.mark.parametrize("text", PRESENTATION_KINDS)
def test_the_ring_facts_match_what_the_ring_lists(text):
    ring = parse_ring(text)
    assert ring.lists_primes == _returns(lambda: prime_ideals(ring))
    assert ring.lists_ideals == (ideal_class(ring) is not ProductIdeal
                                 and _returns(lambda: enumerate_ideals(ring)))


def test_a_ring_that_lists_no_primes_drops_exactly_the_spectral_checks():
    ring = parse_ring("Z/12")
    ring.lists_primes = False
    assert applicable_checks(ring) == tuple(
        name for name in CHECK_NAMES if name not in SPECTRAL_CHECKS)
    assert applicable_checks(parse_ring("Z/12")) == CHECK_NAMES


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
    assert skip.details == {"reason": "modulus is a prime power; the ring is local"}
    # 1 is no prime power, and the zero ring has no primes, so it is not local.
    zero = run_check("crt-decomposition", parse_ring("Z/1"))
    assert zero.verdict == "skipped"
    assert zero.details == {"reason": "Z/1 is the zero ring; it has no prime factors"}


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


def test_topology_characterization_fails_on_a_wrong_spec_stable_table(monkeypatch):
    import spectop.spectrum as spectrum
    target = parse_ring("Zloc(2) * Zloc(2)")
    sp = spectrum.enumerate_spectrum(target)
    without_space = sp.up_table ^ 1 << sp.full
    monkeypatch.setattr(spectrum.SpectrumPoset, "up_table",
                        property(lambda self: without_space))
    report = run_check("topology-characterization", target)
    assert report.verdict == "fail"
    assert report.counterexample["problems"] == [
        "zariski family differs from patch-closed spec-stable sets"]


def test_topology_characterization_fails_when_the_patch_family_loses_the_space(monkeypatch):
    # The whole space is closed in every topology; without it the patch
    # family is no power set, refines neither family, and its stable sets
    # miss a member of each.
    real = harness.closed_family

    def no_space(ring, topology):
        family = real(ring, topology)
        if topology != PATCH:
            return family
        return ClosedFamily(PATCH, family.table ^ 1 << family.spectrum.full, family.spectrum)

    monkeypatch.setattr(harness, "closed_family", no_space)
    report = run_check("topology-characterization", parse_ring("Zloc(2) * Zloc(2)"))
    assert report.verdict == "fail"
    assert report.counterexample["problems"] == [
        "flat family differs from patch-closed gen-stable sets",
        "zariski family differs from patch-closed spec-stable sets",
        "patch family does not refine the other two",
        "patch family is not the full power set"]


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
        # Bit order is label order: drop the support's first point.
        supp = real(ideal)
        return supp & supp - 1

    monkeypatch.setattr(harness, "support_of_ideal", short)
    report = run_check("support-consistency", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"ideal": "(3)", "kind": "containment"}


def test_support_consistency_fails_when_a_flat_ideal_has_extra_support(monkeypatch):
    # Supports that claim every point still contain each complement of
    # V(I), so only the equality owed by flat quotients can fail: first on
    # (0), whose support is empty.
    monkeypatch.setattr(harness, "support_of_ideal",
                        lambda ideal: enumerate_spectrum(ideal.ring).full)
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


def test_radical_rigidity_fails_when_a_flat_ideal_is_not_radical(monkeypatch):
    # Every nonzero ideal gets the whole ring as its radical, and the whole
    # ring is no longer flat, so the first flat ideal below it is reported.
    real_radical, real_flat = harness.radical, harness.is_cyclic_flat

    def not_flat_when_whole(ideal):
        cert = real_flat(ideal)
        if not ideal.is_whole():
            return cert
        return FlatnessCertificate(cert.ideal, False, cert.witnesses, cert.failing, cert.note)

    monkeypatch.setattr(harness, "radical", lambda ideal: real_radical(ideal)
                        if ideal.is_zero() else unit_ideal(ideal.ring))
    monkeypatch.setattr(harness, "is_cyclic_flat", not_flat_when_whole)
    report = run_check("radical-rigidity", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"kind": "flat-not-radical", "ideal": "(3)"}


def test_radical_rigidity_fails_when_vanishing_loci_collide(monkeypatch):
    # Z/6 is reduced and every ideal is flat, so the first flat ideal (0)
    # collides with the next ideal in enumeration order.
    monkeypatch.setattr(harness, "vanishing_locus", lambda ideal: 0)
    report = run_check("radical-rigidity", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"kind": "locus-collision", "ideals": ["(0)", "(3)"]}


def test_radical_rigidity_names_the_first_flat_ideal_with_a_twin(monkeypatch):
    # Z/30 lists (0), (15), (10), (6), (5), (3), (2), (1).  (5) is moved onto
    # the locus of (10), and (1) onto that of (2); (10) is made not flat.  The
    # first flat ideal with a twin is then (5), and its twin (10) comes before it.
    real_locus, real_flat = harness.vanishing_locus, harness.is_cyclic_flat
    moved = {"(5)": 10, "(1)": 2}

    def locus(ideal):
        if ideal.label() in moved:
            ideal = principal_ideal(ideal.ring, moved[ideal.label()])
        return real_locus(ideal)

    def flat(ideal):
        cert = real_flat(ideal)
        if ideal.label() != "(10)":
            return cert
        return FlatnessCertificate(cert.ideal, False, cert.witnesses, cert.failing, cert.note)

    monkeypatch.setattr(harness, "vanishing_locus", locus)
    monkeypatch.setattr(harness, "is_cyclic_flat", flat)
    report = run_check("radical-rigidity", parse_ring("Z/30"))
    assert report.verdict == "fail"
    assert report.counterexample == {"kind": "locus-collision", "ideals": ["(5)", "(10)"]}


def test_a_failed_library_postcondition_is_a_failed_check(monkeypatch, capsys):
    # flat_ideal_from_closed_mask re-checks that its kernel vanishes exactly
    # on E; with the saturation kernel made (0) that postcondition fails.
    import spectop.cli as cli
    import spectop.flatness as flatness
    monkeypatch.setattr(flatness, "saturation_kernel", lambda ideal: zero_ideal(ideal.ring))
    report = run_check("closure-operators", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "postcondition": "the flat kernel (0) does not vanish exactly on E"}
    assert cli.main(["verify", "--ring", "Z/6", "--theorem", "closure-operators"]) == 1
    assert '"verdict": "fail"' in capsys.readouterr().out


def test_closure_operators_fail_on_a_wrong_flat_kernel(monkeypatch):
    monkeypatch.setattr(harness, "flat_ideal_from_closed_mask",
                        lambda ring, mask: zero_ideal(ring))
    report = run_check("closure-operators", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"operator": "flat-kernel", "set": [], "kernel": "(0)"}


def _lose_a_point(patch, closure: str, cones: str) -> None:
    """Patch ``closure`` on every spectrum: the image of a mask that holds
    x, the last point whose cone (``down`` or ``up``) holds another
    point, loses the lowest other point of that cone."""
    union = getattr(SpectrumPoset, closure)

    def patched(sp, mask):
        cone = getattr(sp, cones)
        proper = [x for x, c in enumerate(cone) if c != 1 << x]
        if not proper:
            return union(sp, mask)
        x = proper[-1]
        other = cone[x] & ~(1 << x)
        lost = other & -other
        return union(sp, mask) & ~lost if mask >> x & 1 else union(sp, mask)

    patch.setattr(SpectrumPoset, closure, patched)


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
        real = getattr(SpectrumPoset, name)

        def counted(sp, mask, real=real, name=name):
            calls[name] += not in_kernel[0]
            return real(sp, mask)

        monkeypatch.setattr(SpectrumPoset, name, counted)
    kernel_of = harness.flat_ideal_from_closed_mask

    def flagged(ring, mask):
        in_kernel[0] = True
        try:
            return kernel_of(ring, mask)
        finally:
            in_kernel[0] = False

    monkeypatch.setattr(harness, "flat_ideal_from_closed_mask", flagged)
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


RING_MEMO_KEYS = {"idempotents", "ideals", "primes", "spectrum", "sring_certificate",
                  "shared_ideals", "generated"}
IDEAL_MEMO_KEYS = {"flat_search", "flatness", "vanishing_locus", "saturation_kernel", "shared"}


def _kept_ideals(value, found):
    """Every ideal a memo value holds, directly or in a tuple, list or dict,
    with the ideals that their own memos hold in turn."""
    if isinstance(value, Ideal):
        if id(value) not in found:
            found[id(value)] = value
            _kept_ideals(list(value.memo.values()), found)
    elif isinstance(value, dict):
        _kept_ideals(list(value.values()), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _kept_ideals(item, found)


@pytest.mark.parametrize("text", ["Z/30", "GF(16)", "Zloc(2) * Z/3", ZLOC_POWERS[3], "EvBits"])
def test_memos_hold_only_the_named_facts(text):
    ring = parse_ring(text)
    rings = (ring, *getattr(ring, "factors", ()))
    assert all("memo" not in vars(r) for r in rings)
    run_ring_checks(ring)
    found = {}
    for r in rings:
        assert set(r.memo) <= RING_MEMO_KEYS
        _kept_ideals(list(r.memo.values()), found)
    # The bits ring lists neither its ideals nor its primes.
    assert found or text == "EvBits"
    for ideal in found.values():
        assert {key for key in ideal.memo if not (type(key) is tuple and key[0] == "meet")
                } <= IDEAL_MEMO_KEYS


@pytest.mark.parametrize("text", ["Zloc(2) * Zloc(2) * Zloc(2) * Zloc(2)",
                                  "Z/2 * Z/2 * Z/2 * Z/2"])
def test_one_run_certifies_each_ring_and_ideal_once(monkeypatch, text):
    # Each certificate is a Record built by its class's own __init__, so
    # counting the constructions counts the certifications.
    certified, searched = [], []
    for cls, made in ((SRingCertificate, certified), (FlatnessCertificate, searched)):
        def counted(self, first, *rest, made=made, init=cls.__init__, **named):
            made.append(first)
            init(self, first, *rest, **named)
        monkeypatch.setattr(cls, "__init__", counted)
    ring = parse_ring(text)
    reports = run_ring_checks(ring)
    assert not any(r.failed for r in reports)
    assert certified == [ring]
    # The list keeps every certified ideal alive, so no id is reused.
    assert searched and len({id(i) for i in searched}) == len(searched)


def test_crt_decomposition_fails_when_summands_are_not_projective(monkeypatch):
    monkeypatch.setattr(harness, "is_cyclic_projective", lambda ideal: False)
    report = run_check("crt-decomposition", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": ["summand of 3 is not projective",
                                                  "summand of 4 is not projective"]}


def test_crt_decomposition_fails_on_a_wrong_factorization(monkeypatch):
    # 12 = 5 * 7 is false: 12 // 5 = 2 gives 6, no idempotent, and
    # 12 // 7 = 1 gives 1, the whole ring as a summand.
    monkeypatch.setattr(harness, "factorization", lambda n: [(5, 1), (7, 1)])
    report = run_check("crt-decomposition", parse_ring("Z/12"))
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": [
        "6 is not idempotent",
        "idempotents do not sum to 1",
        "6 and 1 are not orthogonal",
        "summand of 6 has 2 elements, expected 5",
        "summand of 6 is not projective",
        "summand of 1 has 12 elements, expected 7",
        "summand of 1 is not smaller than the ring"]}


def test_stabilization_graph_fails_on_a_reported_cycle(monkeypatch):
    monkeypatch.setattr(harness, "stabilization_graph_check", lambda ring: (
        False, (ring.element(2), ring.element(4), ring.element(2))))
    report = run_check("stabilization-graph", parse_ring("Z/6"))
    assert report.verdict == "fail"
    assert report.counterexample == {"cycle": ["2", "4", "2"]}


def test_chain_conditions_fail_when_a_maximal_ideal_is_uncovered(monkeypatch):
    # X keeps only its first point, (2), of the minimal points of Z/6.
    real = harness.chain_condition_check
    monkeypatch.setattr(harness, "chain_condition_check", lambda ring, x: real(ring, x & -x))
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


def test_flat_not_projective_fails_when_the_chain_stops_short(monkeypatch):
    real = harness.growing_indicator_chain
    monkeypatch.setattr(harness, "growing_indicator_chain",
                        lambda ring, budget: real(ring, budget - 1))
    report = run_check("flat-not-projective", parse_ring("EvBits"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "problems": ["the chain was not materialized to the budget"]}


def test_flat_not_projective_fails_when_the_chain_stabilizes(monkeypatch):
    # The last term repeats the one before it, so the chain stabilizes, and
    # a stabilized report records no last index either.
    def settling(ring, budget):
        return MultiplicativeChain.build(
            ring,
            [ring.indicator(range(1, min(n, budget - 1) + 1)) for n in range(1, budget + 1)])

    monkeypatch.setattr(harness, "growing_indicator_chain", settling)
    report = run_check("flat-not-projective", parse_ring("EvBits"))
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": [
        "the indicator chain stabilized", "the chain was not materialized to the budget"]}


@pytest.mark.parametrize("tamper", [
    lambda cert: FlatnessCertificate(cert.ideal, False, failing=cert.witnesses[0][0]),
    lambda cert: FlatnessCertificate(cert.ideal, True, cert.witnesses[:-1], note=cert.note),
], ids=["refused", "unverifiable"])
def test_flat_not_projective_fails_without_a_flatness_certificate(monkeypatch, tamper):
    real = harness.is_cyclic_flat
    monkeypatch.setattr(harness, "is_cyclic_flat", lambda ideal: tamper(real(ideal)))
    report = run_check("flat-not-projective", parse_ring("EvBits"))
    assert report.verdict == "fail"
    assert report.counterexample == {
        "problems": ["the finitely supported ideal is not certified flat"]}


def test_flat_ideal_bijection_fails_when_two_flat_ideals_share_a_locus(monkeypatch):
    # On Z/6 the flat ideal (3) is sent to V(2), so V(3) is never reached;
    # the colliding ideals are listed in enumeration order.
    z6 = parse_ring("Z/6")
    two, three = principal_ideal(z6, 2), principal_ideal(z6, 3)
    real = harness.vanishing_locus
    monkeypatch.setattr(harness, "vanishing_locus", lambda ideal: real(
        two if ideal == three else ideal))
    report = run_check("flat-ideal-bijection", z6)
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": [
        {"kind": "not-injective", "ideals": ["(3)", "(2)"], "set": ["(2)"]},
        {"kind": "not-surjective", "set": ["(3)"]}]}


def test_flat_ideal_bijection_fails_when_a_locus_is_not_generalization_stable(monkeypatch):
    # On Zloc(2) the flat ideal (0) is sent to the closed point {(2)},
    # which is Zariski closed but not stable under generalization.
    zloc = parse_ring("Zloc(2)")
    closed_point = label_mask(zloc, "(2)")
    real = harness.vanishing_locus
    monkeypatch.setattr(harness, "vanishing_locus", lambda ideal: (
        closed_point if ideal.is_zero() else real(ideal)))
    report = run_check("flat-ideal-bijection", zloc)
    assert report.verdict == "fail"
    assert report.counterexample == {"problems": [
        {"kind": "not-well-defined", "ideal": "(0)", "set": ["(2)"]},
        {"kind": "not-surjective", "set": ["(0)", "(2)"]}]}


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
