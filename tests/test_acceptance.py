"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every bound here (exact equalities, time limits) is asserted, not logged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from spectop import (
    FLAT,
    PATCH,
    ZARISKI,
    HypothesisViolated,
    chain_condition_check,
    check_chain_stabilization,
    closed_family,
    enumerate_ideals,
    enumerate_spectrum,
    flat_ideal_from_closed_mask,
    growing_indicator_chain,
    idempotents,
    is_cyclic_flat,
    is_cyclic_projective,
    parse_ring,
    principal_ideal,
    run_corpus,
    sring_certificate,
    vanishing_locus,
)
from spectop.ideals import BoolIdeal

from conftest import elements_of, is_down_closed, is_up_closed

TOPOLOGY_RINGS = ("Z/4", "Z/6", "Z/12", "GF(4)", "Z/2[x]/(x^2+x)",
                  "Zloc(2)", "Zloc(2) * Z/3")
FINITE_RINGS = ("Z/4", "Z/6", "Z/12", "GF(4)", "Z/2[x]/(x^2+x)")


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.3f}s)")


def test_criterion_01_topology_characterization():
    with criterion(1, "topology characterization suite"):
        for text in TOPOLOGY_RINGS:
            ring = parse_ring(text)
            started = time.perf_counter()
            zfam = closed_family(ring, ZARISKI)
            ffam = closed_family(ring, FLAT)
            pfam = closed_family(ring, PATCH)
            points = pfam.spectrum.points
            assert len(points) <= 8
            assert ffam.sets == frozenset(s for s in pfam.sets if is_down_closed(points, s))
            assert zfam.sets == frozenset(s for s in pfam.sets if is_up_closed(points, s))
            assert len(pfam.sets) == 2 ** len(points)
            assert time.perf_counter() - started < 1.0, text


def test_criterion_02_closure_operator_theorem():
    with criterion(2, "closure operators and flat kernels"):
        from spectop.harness import run_check
        for text in TOPOLOGY_RINGS:
            ring = parse_ring(text)
            report = run_check("closure-operators", ring)
            assert report.verdict == "pass", (text, report.counterexample)

        z12 = parse_ring("Z/12")
        sp = enumerate_spectrum(z12)
        pts = {p.label(): p for p in sp.points}
        kernel = flat_ideal_from_closed_mask(z12, sp.mask_of([pts["(2)"]]))
        assert kernel == principal_ideal(z12, z12.element(4))
        assert sp.labels_of(vanishing_locus(kernel)) == ["(2)"]
        assert is_cyclic_flat(kernel).verdict

        mixed = parse_ring("Zloc(2) * Z/3")
        spm = enumerate_spectrum(mixed)
        mpts = {p.label(): p for p in spm.points}
        expected = [mpts["(0) x (1)"], mpts["(2) x (1)"]]
        kernel2 = flat_ideal_from_closed_mask(mixed, spm.mask_of(expected))
        assert kernel2.label() == "(0) x (1)"  # the ideal 0 x Z/3
        assert kernel2.components[0].is_zero()
        assert kernel2.components[1].is_whole()
        assert spm.labels_of(vanishing_locus(kernel2)) == ["(0) x (1)", "(2) x (1)"]


def test_criterion_03_flat_ideal_bijection_counts():
    with criterion(3, "flat ideal to closed set bijection"):
        expected_counts = {"Z/12": 4, "Z/6": 4, "Z/4": 2, "Zloc(2)": 2}
        for text, count in expected_counts.items():
            ring = parse_ring(text)
            ideals = enumerate_ideals(ring)
            flats = [i for i in ideals if is_cyclic_flat(i).verdict]
            image = {vanishing_locus(i) for i in flats}
            zfam = closed_family(ring, ZARISKI)
            sp = zfam.spectrum
            codomain = {sp.mask_of(s) for s in zfam.sets if is_down_closed(sp.points, s)}
            assert len(flats) == count, text
            assert len(image) == count, text
            assert image == codomain, text

        z12 = parse_ring("Z/12")
        sp = enumerate_spectrum(z12)
        flats = [i for i in enumerate_ideals(z12) if is_cyclic_flat(i).verdict]
        image = {vanishing_locus(i) for i in flats}
        assert sp.family_labels(image) == [[], ["(2)"], ["(3)"], ["(2)", "(3)"]]


def test_criterion_04_flatness_vs_idempotent_oracle():
    with criterion(4, "flatness criterion vs idempotent oracle"):
        discrepancies = 0
        for text in FINITE_RINGS:
            ring = parse_ring(text)
            for ideal in enumerate_ideals(ring):
                flat = is_cyclic_flat(ideal).verdict
                generated = any(
                    frozenset(r * e for r in ring.elements()) == elements_of(ideal)
                    for e in idempotents(ring))
                if flat != generated:
                    discrepancies += 1
        assert discrepancies == 0


def test_criterion_05_reduced_corollaries():
    with criterion(5, "radical rigidity on reduced rings"):
        from spectop.harness import run_check
        for text in ("Z/6", "GF(4)", "Z/2[x]/(x^2+x)"):
            report = run_check("radical-rigidity", parse_ring(text))
            assert report.verdict == "pass", text
        for text in ("Z/12", "Z/4"):
            report = run_check("radical-rigidity", parse_ring(text))
            assert report.verdict == "skipped", text
            assert "not reduced" in report.details["reason"]


def test_criterion_06_sring_certificates():
    with criterion(6, "s-ring certificates and double-closed families"):
        for text in FINITE_RINGS + ("Zloc(2)",):
            cert = sring_certificate(parse_ring(text))
            assert cert.passed, (text, cert.failures)

        z12 = parse_ring("Z/12")
        cert = sring_certificate(z12)
        double = {s for s, _ in cert.double_closed_matches}
        expected = {vanishing_locus(principal_ideal(z12, z12.element(v)))
                    for v in (0, 1, 4, 9)}
        assert double == expected
        assert {e.value for _, e in cert.double_closed_matches} == {0, 1, 4, 9}

        quad = parse_ring("Z/2[x]/(x^2+x)")
        qcert = sring_certificate(quad)
        assert len(qcert.double_closed_matches) == 4
        assert {str(e) for _, e in qcert.double_closed_matches} == {"0", "1", "x", "x+1"}


def test_criterion_07_bits_ring_witness():
    with criterion(7, "non-stabilizing chain and flat-not-projective ideal"):
        started = time.perf_counter()
        bits = parse_ring("EvBits")
        chain = growing_indicator_chain(bits, 100)  # construction validates x_n = x_n*x_(n+1)
        for n in range(1, 100):
            assert chain.terms[n - 1] == chain.terms[n - 1] * chain.terms[n]
        report = check_chain_stabilization(chain)
        assert not report.stabilized
        assert report.last_index == 100
        fin = BoolIdeal(bits, None)
        cert = is_cyclic_flat(fin)
        assert cert.verdict and cert.verify()
        assert not is_cyclic_projective(fin)
        again = check_chain_stabilization(growing_indicator_chain(bits, 100))
        assert again == report  # deterministic
        assert time.perf_counter() - started < 0.1


def test_criterion_08_crt_decomposition():
    with criterion(8, "modular CRT idempotent decomposition"):
        z12 = parse_ring("Z/12")
        e1, e2 = z12.element(4), z12.element(9)
        assert e1 * e1 == e1 and e2 * e2 == e2
        assert e1 + e2 == z12.one
        assert e1 * e2 == z12.zero
        span1 = {r * e1 for r in z12.elements()}
        span2 = {r * e2 for r in z12.elements()}
        assert len(span1) == 3 and len(span2) == 4
        # summands are projective: each ideal is generated by its idempotent
        assert is_cyclic_projective(principal_ideal(z12, e1))
        assert is_cyclic_projective(principal_ideal(z12, e2))
        # but not free: a nonzero free module over Z/12 has at least 12 elements
        min_free = len(z12.elements())
        assert min_free == 12
        assert len(span1) < min_free and len(span2) < min_free


def test_criterion_09_chain_condition_instances():
    with criterion(9, "covering chain conditions"):
        for text in ("Z/12", "Z/6"):
            ring = parse_ring(text)
            sp = enumerate_spectrum(ring)
            for x in (sp.minimal, sp.maximal):
                trace = chain_condition_check(ring, x)
                assert trace.conclusion.passed

        mixed = parse_ring("Zloc(2) * Z/3")
        spm = enumerate_spectrum(mixed)
        pts = {p.label(): p for p in spm.points}
        try:
            chain_condition_check(mixed, spm.mask_of([pts["(0) x (1)"]]))
        except HypothesisViolated as exc:
            assert exc.witness.label() == "(1) x (0)"
        else:
            raise AssertionError("the uncovered maximal ideal was not detected")


def test_criterion_10_full_corpus_run():
    with criterion(10, "full corpus run"):
        result = run_corpus()
        assert result.failures == 0
        assert result.all_passed
        assert result.elapsed_seconds < 10.0
