"""Flatness certificates, witnesses and the idempotent-generator oracle."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from spectop import (
    EventuallyConstantBitsRing,
    FlatnessCertificate,
    NotGenStable,
    NotZariskiClosed,
    enumerate_ideals,
    enumerate_spectrum,
    flat_ideal_from_closed_mask,
    ideal_from_generators,
    idempotents,
    is_cyclic_flat,
    is_cyclic_projective,
    parse_ring,
    principal_ideal,
    radical,
    support_of_ideal,
    unit_ideal,
    vanishing_locus,
    zero_ideal,
)
from spectop import flatness
from spectop.cli import certificate_doc
from spectop.ideals import BoolIdeal, LocalIdeal, annihilator
from spectop.rings import canonical_sorted

from conftest import (
    CORPUS_TEXTS,
    FINITE_CORPUS_TEXTS,
    MANY_ELEMENT_TEXTS,
    SMALL_FINITE_TEXTS,
    common_multiplier,
    elements_of,
    is_down_closed,
    label_mask,
    mask_points,
    point_mask,
)


@pytest.fixture(params=FINITE_CORPUS_TEXTS + SMALL_FINITE_TEXTS)
def witness_ring(request):
    return parse_ring(request.param)


@pytest.fixture(params=CORPUS_TEXTS + SMALL_FINITE_TEXTS + MANY_ELEMENT_TEXTS)
def support_ring(request):
    return parse_ring(request.param)


def test_flat_frozen_examples():
    z6 = parse_ring("Z/6")
    cert = is_cyclic_flat(principal_ideal(z6, z6.element(2)))
    assert cert.verdict and cert.verify()
    two = z6.element(2)
    triple = next(w for w in cert.witnesses if w[0] == two)
    f, a, b = triple
    assert a * f == z6.zero and a + b == z6.one and cert.ideal.contains(b)

    z4 = parse_ring("Z/4")
    bad = is_cyclic_flat(principal_ideal(z4, z4.element(2)))
    assert not bad.verdict and bad.failing == z4.element(2) and bad.verify()

    z12 = parse_ring("Z/12")
    assert is_cyclic_flat(zero_ideal(z12)).verdict


def _z6_flat():
    z6 = parse_ring("Z/6")
    return is_cyclic_flat(principal_ideal(z6, z6.element(2)))


def _z4_not_flat():
    z4 = parse_ring("Z/4")
    return is_cyclic_flat(principal_ideal(z4, z4.element(2)))


def _with_witness(cert, f, a, b):
    ring = cert.ideal.ring
    f, a, b = (ring.element(x) for x in (f, a, b))
    return FlatnessCertificate(
        cert.ideal, cert.verdict, tuple((f, a, b) if w[0] == f else w for w in cert.witnesses),
        cert.failing, cert.note)


def _with_fields(cert, witnesses=None, failing=None):
    """The certificate with its witnesses or its failing element replaced."""
    return FlatnessCertificate(
        cert.ideal, cert.verdict, cert.witnesses if witnesses is None else witnesses,
        cert.failing if failing is None else failing, cert.note)


@pytest.mark.parametrize("tamper", [
    lambda: _with_witness(_z6_flat(), 2, 1, 0),   # a*f = 2, not 0
    lambda: _with_witness(_z6_flat(), 2, 3, 2),   # a + b = 5, not 1
    lambda: _with_fields(_z6_flat(), witnesses=_z6_flat().witnesses[1:]),
    lambda: _with_fields(_z4_not_flat(), failing=parse_ring("Z/4").one),
    lambda: _with_fields(_z4_not_flat(), failing=parse_ring("Z/4").zero),
], ids=["a-times-f-nonzero", "a-plus-b-not-one", "missing-f", "failing-outside-ideal",
        "failing-ann-sum-whole"])
def test_tampered_certificates_fail_verify(tamper):
    assert _z6_flat().verify() and _z4_not_flat().verify()
    assert not tamper().verify()


def test_flat_exhaustive_pair_search(witness_ring):
    """The certificate verdict agrees with a direct exhaustive search, and
    each witness takes the first a of Ann(f) in canonical order."""
    one = witness_ring.one
    zero = witness_ring.zero
    for ideal in enumerate_ideals(witness_ring):
        expected = all(
            any(a * f == zero and ideal.contains(one - a) for a in witness_ring.elements())
            for f in elements_of(ideal))
        for f in elements_of(ideal):
            firsts = [a for a in canonical_sorted(elements_of(annihilator(f)))
                      if ideal.contains(one - a)][:1]
            assert ideal.flat_witness(f) == (
                (firsts[0], one - firsts[0]) if firsts else None)
        cert = is_cyclic_flat(ideal)
        assert cert.verdict == expected
        assert cert.verify()


def test_flat_against_idempotent_oracle(finite_ring):
    """flat <=> the ideal is generated by a single idempotent."""
    for ideal in enumerate_ideals(finite_ring):
        by_idempotent = any(
            frozenset(r * e for r in finite_ring.elements()) == elements_of(ideal)
            for e in idempotents(finite_ring))
        assert is_cyclic_flat(ideal).verdict == by_idempotent
        assert is_cyclic_projective(ideal) == by_idempotent


def test_flat_local_ring():
    zl = parse_ring("Zloc(2)")
    assert is_cyclic_flat(LocalIdeal(zl, math.inf)).verdict
    assert is_cyclic_flat(LocalIdeal(zl, 0)).verdict
    cert = is_cyclic_flat(LocalIdeal(zl, 2))
    assert not cert.verdict
    assert cert.failing == zl.element(4)
    assert cert.verify()


def test_flat_bits_ring():
    bits = EventuallyConstantBitsRing()
    fin = BoolIdeal(bits, None)
    cert = is_cyclic_flat(fin)
    assert cert.verdict and cert.verify()
    f = bits.indicator({2, 5})
    a, b = fin.flat_witness(f)
    assert a == bits.one - f and b == f
    small = principal_ideal(bits, bits.indicator({1, 2}))
    assert is_cyclic_flat(small).verdict
    assert is_cyclic_projective(small)
    assert not is_cyclic_projective(fin)
    assert fin.idempotent_generator() is None


def test_flat_mixed_product():
    mixed = parse_ring("Zloc(2) * Z/3")
    flat = ideal_from_generators(mixed, [mixed.element((Fraction(0), 1))])
    cert = is_cyclic_flat(flat)
    assert cert.verdict and cert.verify()
    bad = ideal_from_generators(mixed, [mixed.element((Fraction(2), 1))])
    cert2 = is_cyclic_flat(bad)
    assert not cert2.verdict and cert2.verify()
    assert bad.contains(cert2.failing)


def _local_ideal(text, level):
    return LocalIdeal(parse_ring(text), level)


def _generated(text, *values):
    ring = parse_ring(text)
    return ideal_from_generators(ring, [ring.element(v) for v in values])


_ZERO_UNIT_NOTE = "the zero and unit ideals always give flat quotients"
_BOOL_NOTE = "Boolean schema: 1-f annihilates f and f+(1-f)=1 for every f in I"


@pytest.mark.parametrize("build, expected", [
    (lambda: _local_ideal("Zloc(2)", math.inf),
     {"ring": "Zloc(2)", "ideal": "(0)", "flat": True,
      "witnesses": [{"f": "0", "a": "1", "b": "0"}],
      "failing": None, "note": _ZERO_UNIT_NOTE}),
    (lambda: _local_ideal("Zloc(2)", 0),
     {"ring": "Zloc(2)", "ideal": "(1)", "flat": True,
      "witnesses": [{"f": "0", "a": "1", "b": "0"}, {"f": "1", "a": "0", "b": "1"}],
      "failing": None, "note": _ZERO_UNIT_NOTE}),
    (lambda: BoolIdeal(EventuallyConstantBitsRing(), None),
     {"ring": "EvBits", "ideal": "(fin)", "flat": True,
      "witnesses": [{"f": "{1}:0", "a": "{1}:1", "b": "{1}:0"},
                    {"f": "{1,2}:0", "a": "{1,2}:1", "b": "{1,2}:0"},
                    {"f": "{1,2,3}:0", "a": "{1,2,3}:1", "b": "{1,2,3}:0"}],
      "failing": None, "note": _BOOL_NOTE}),
    (lambda: _generated("Zloc(2) * Z/6", (0, 3)),
     {"ring": "Zloc(2) * Z/6", "ideal": "(0) x (3)", "flat": True,
      "witnesses": [{"f": "(0, 0)", "a": "(1, 1)", "b": "(0, 0)"},
                    {"f": "(0, 0)", "a": "(1, 1)", "b": "(0, 0)"},
                    {"f": "(0, 3)", "a": "(1, 4)", "b": "(0, 3)"}],
      "failing": None, "note": "componentwise flatness of a product"}),
    (lambda: _generated("Zloc(2) * Z/4", (1, 2)),
     {"ring": "Zloc(2) * Z/4", "ideal": "(1) x (2)", "flat": False,
      "witnesses": [], "failing": "(0, 2)", "note": "component 1 is not flat"}),
], ids=["local-zero", "local-unit", "bits-fin", "product-flat", "product-not-flat"])
def test_certificate_documents_are_pinned(build, expected):
    assert certificate_doc(is_cyclic_flat(build())) == expected


def test_product_generators_and_supports_are_pinned():
    ring = parse_ring("Zloc(2) * Z/6")
    sp = enumerate_spectrum(ring)
    computed = {}
    # The chain (2^k) cut at k = 2: each deeper level repeats (2^2)'s row.
    cut = [i for i in enumerate_ideals(ring) if i.components[0].level in (math.inf, 0, 1, 2)]
    assert len(cut) == 4 * 4
    for ideal in cut:
        e = ideal.idempotent_generator()
        computed[ideal.label()] = (None if e is None else str(e),
                                   sp.labels_of(support_of_ideal(ideal)))
    everywhere = ["(0) x (1)", "(1) x (2)", "(1) x (3)", "(2) x (1)"]
    off_2 = ["(0) x (1)", "(1) x (3)", "(2) x (1)"]
    off_3 = ["(0) x (1)", "(1) x (2)", "(2) x (1)"]
    local = ["(0) x (1)", "(2) x (1)"]
    assert computed == {
        "(0) x (0)": ("(0, 0)", []),
        "(0) x (1)": ("(0, 1)", ["(1) x (2)", "(1) x (3)"]),
        "(0) x (2)": ("(0, 4)", ["(1) x (3)"]),
        "(0) x (3)": ("(0, 3)", ["(1) x (2)"]),
        "(1) x (0)": ("(1, 0)", local),
        "(1) x (1)": ("(1, 1)", everywhere),
        "(1) x (2)": ("(1, 4)", off_2),
        "(1) x (3)": ("(1, 3)", off_3),
        "(2) x (0)": (None, local),
        "(2) x (1)": (None, everywhere),
        "(2) x (2)": (None, off_2),
        "(2) x (3)": (None, off_3),
        "(2^2) x (0)": (None, local),
        "(2^2) x (1)": (None, everywhere),
        "(2^2) x (2)": (None, off_2),
        "(2^2) x (3)": (None, off_3),
    }


def test_common_multiplier_frozen_examples():
    # A flat witness (a, b) of f gives f*b = f*(1 - a) = f; a common
    # multiplier of all of I is an idempotent generator of I.
    z6 = parse_ring("Z/6")
    two = principal_ideal(z6, z6.element(2))
    assert common_multiplier(two, [z6.element(2), z6.element(4)]) == z6.element(4)
    assert two.flat_witness(z6.element(2)) == (z6.element(3), z6.element(4))
    assert two.idempotent_generator() == z6.element(4)

    z12 = parse_ring("Z/12")
    four = principal_ideal(z12, z12.element(4))
    assert common_multiplier(four, [z12.element(4), z12.element(8)]) == z12.element(4)
    assert common_multiplier(zero_ideal(z12), [z12.zero]) == z12.zero
    z4 = parse_ring("Z/4")
    assert common_multiplier(principal_ideal(z4, z4.element(2)), [z4.element(2)]) is None


def test_common_multiplier_property(finite_ring):
    # Over a finite ring, R/I is flat iff I = Re for an idempotent e, iff
    # some g in I has f*g = f for every f in I.
    for ideal in enumerate_ideals(finite_ring):
        fs = canonical_sorted(elements_of(ideal))
        g = common_multiplier(ideal, fs)
        assert (g is not None) == is_cyclic_flat(ideal).verdict, ideal.label()
        if g is None:
            continue
        for f in fs:
            _, b = ideal.flat_witness(f)
            assert ideal.contains(b) and f * b == f


def test_idempotent_generator_frozen_examples():
    z12 = parse_ring("Z/12")
    assert principal_ideal(z12, z12.element(3)).idempotent_generator() == z12.element(9)
    assert zero_ideal(z12).idempotent_generator() == z12.zero
    z4 = parse_ring("Z/4")
    assert principal_ideal(z4, z4.element(2)).idempotent_generator() is None
    assert is_cyclic_projective(unit_ideal(z4))


def test_support_frozen_examples():
    z6 = parse_ring("Z/6")
    supp = support_of_ideal(principal_ideal(z6, z6.element(2)))
    assert supp == label_mask(z6, "(3)")
    z12 = parse_ring("Z/12")
    assert support_of_ideal(zero_ideal(z12)) == 0
    z4 = parse_ring("Z/4")
    supp4 = support_of_ideal(principal_ideal(z4, z4.element(2)))
    assert supp4 == label_mask(z4, "(2)")


def test_support_contains_complement_of_locus(support_ring):
    try:
        ideals = enumerate_ideals(support_ring)
    except Exception:
        return
    sp = enumerate_spectrum(support_ring)
    for ideal in ideals:
        supp = support_of_ideal(ideal)
        if support_ring.is_finite:
            anns = [annihilator(f) for f in elements_of(ideal)]
            assert supp == point_mask(support_ring, (
                p for p in sp.points if any(a.issubset(p) for a in anns)))
        outside = sp.full ^ vanishing_locus(ideal)
        assert not outside & ~supp
        if is_cyclic_flat(ideal).verdict:
            assert supp == outside


def test_flat_loci_are_generalization_stable(finite_ring):
    for ideal in enumerate_ideals(finite_ring):
        if is_cyclic_flat(ideal).verdict:
            assert is_down_closed(enumerate_spectrum(finite_ring).points,
                                  mask_points(finite_ring, vanishing_locus(ideal)))


def test_flat_radical_forces_equality(finite_ring):
    # holds on every finite ring, reduced or not
    for ideal in enumerate_ideals(finite_ring):
        root = radical(ideal)
        if is_cyclic_flat(root).verdict:
            assert ideal == root


def test_flat_ideal_from_closed_set_examples():
    z12 = parse_ring("Z/12")
    sp = enumerate_spectrum(z12)
    kernel = flat_ideal_from_closed_mask(z12, label_mask(z12, "(2)"))
    assert kernel.label() == "(4)"
    assert flat_ideal_from_closed_mask(z12, sp.full).is_zero()
    assert flat_ideal_from_closed_mask(z12, 0).is_whole()

    mixed = parse_ring("Zloc(2) * Z/3")
    spm = enumerate_spectrum(mixed)
    kernel2 = flat_ideal_from_closed_mask(mixed, label_mask(mixed, "(0) x (1)", "(2) x (1)"))
    assert kernel2.label() == "(0) x (1)"
    assert spm.labels_of(vanishing_locus(kernel2)) == ["(0) x (1)", "(2) x (1)"]


@pytest.mark.parametrize("mask", [-1, 1 << 2, 1 << 5, 1 << 70])
def test_flat_ideal_from_closed_mask_refuses_a_mask_past_the_spectrum(mask):
    # Z/12 has two points, so a point set is a mask of two bits.
    with pytest.raises(ValueError, match="is not a set of the 2 points of Z/12"):
        flat_ideal_from_closed_mask(parse_ring("Z/12"), mask)


def test_flat_ideal_from_closed_set_checks_its_postconditions(monkeypatch):
    # a broken kernel is caught, also under python -O
    z6 = parse_ring("Z/6")
    monkeypatch.setattr(flatness, "saturation_kernel", lambda ideal: zero_ideal(ideal.ring))
    with pytest.raises(AssertionError, match="does not vanish exactly"):
        flat_ideal_from_closed_mask(z6, label_mask(z6, "(2)"))
    z12 = parse_ring("Z/12")
    monkeypatch.setattr(flatness, "saturation_kernel", lambda ideal: ideal)
    with pytest.raises(AssertionError, match="is not flat"):
        flat_ideal_from_closed_mask(z12, label_mask(z12, "(2)"))

    code = textwrap.dedent("""
        from spectop import enumerate_spectrum, flatness, parse_ring, zero_ideal
        z6 = parse_ring("Z/6")
        mask = 1 << enumerate_spectrum(z6).labels.index("(2)")
        flatness.saturation_kernel = lambda ideal: zero_ideal(ideal.ring)
        try:
            flatness.flat_ideal_from_closed_mask(z6, mask)
        except AssertionError:
            raise SystemExit(0)
        raise SystemExit(3)
    """)
    src = str(Path(flatness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_flat_ideal_from_closed_set_rejections():
    zl = parse_ring("Zloc(2)")
    with pytest.raises(NotGenStable):
        flat_ideal_from_closed_mask(zl, label_mask(zl, "(2)"))
    with pytest.raises(NotZariskiClosed):
        flat_ideal_from_closed_mask(zl, label_mask(zl, "(0)"))
