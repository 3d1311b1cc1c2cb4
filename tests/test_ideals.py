"""Ideal construction, arithmetic and enumeration against naive oracles."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from spectop import (
    EventuallyConstantBitsRing,
    LocalizedIntegerRing,
    ModularRing,
    RingTooLarge,
    UnsupportedForPresentation,
    annihilator,
    enumerate_ideals,
    enumerate_spectrum,
    finite_support_ideal,
    ideal_from_generators,
    ideal_intersection,
    ideal_sum,
    is_prime_ideal,
    parse_ring,
    principal_ideal,
    radical,
    saturation_kernel,
    unit_ideal,
    zero_ideal,
)
from spectop.dsl import parse_ideal_label
from spectop.ideals import (
    BoolFiniteSupportIdeal,
    BoolPrincipalIdeal,
    ExplicitIdeal,
    Ideal,
    LocalIdeal,
    ProductIdeal,
    ideal_class,
    intersect_all,
)
from spectop.rings import canonical_sorted

from conftest import (
    CORPUS_TEXTS,
    FINITE_CORPUS_TEXTS,
    SMALL_FINITE_TEXTS,
    ZLOC_POWERS,
    brute_force_generated,
    brute_force_ideals,
    brute_force_is_prime,
    fresh_copy,
)


def _values(ideal):
    return sorted(e.value for e in ideal.elements)


def test_generated_ideal_frozen_examples():
    z6 = ModularRing(6)
    assert _values(ideal_from_generators(z6, [z6.element(2)])) == [0, 2, 4]
    z12 = ModularRing(12)
    assert _values(ideal_from_generators(z12, [])) == [0]
    zl = LocalizedIntegerRing(2)
    four_thirds = ideal_from_generators(zl, [zl.element(Fraction(4, 3))])
    assert isinstance(four_thirds, LocalIdeal) and four_thirds.level == 2
    assert four_thirds.contains(zl.element(4))
    assert four_thirds.contains(zl.element(Fraction(8, 5)))
    assert not four_thirds.contains(zl.element(2))


def test_generated_ideal_matches_minimal_closed_superset(finite_ring):
    elements = list(finite_ring.elements())
    seeds = [[], [elements[-1]], elements[1:3], [elements[-1], elements[1]]]
    for gens in seeds:
        computed = ideal_from_generators(finite_ring, gens)
        oracle = brute_force_generated(finite_ring, gens)
        assert computed.elements == oracle


@given(st.sampled_from(SMALL_FINITE_TEXTS), st.data())
def test_generated_ideal_matches_oracle_on_random_generators(text, data):
    ring = parse_ring(text)
    gens = data.draw(st.lists(st.sampled_from(ring.elements()), max_size=4))
    computed = ideal_from_generators(ring, gens)
    assert computed.elements == brute_force_generated(ring, gens)


def test_explicit_ideal_rejects_unclosed_sets():
    z6 = ModularRing(6)
    with pytest.raises(ValueError):
        ExplicitIdeal(z6, {z6.element(0), z6.element(2)})  # 2+2=4 missing
    with pytest.raises(ValueError):
        ExplicitIdeal(z6, {z6.element(2), z6.element(4)})  # no zero


def test_annihilator_frozen_examples():
    z6 = ModularRing(6)
    assert _values(annihilator(z6.element(2))) == [0, 3]
    z12 = ModularRing(12)
    assert annihilator(z12.element(0)).is_whole()
    z4 = ModularRing(4)
    assert _values(annihilator(z4.element(2))) == [0, 2]


def test_annihilator_is_exact(finite_ring):
    zero = finite_ring.zero
    for f in finite_ring.elements():
        ann = annihilator(f)
        for x in finite_ring.elements():
            assert ann.contains(x) == (x * f == zero)


def test_annihilator_symbolic_presentations():
    zl = LocalizedIntegerRing(2)
    assert annihilator(zl.element(0)).is_whole()
    assert annihilator(zl.element(Fraction(3, 5))).is_zero()
    bits = EventuallyConstantBitsRing()
    f = bits.indicator({1, 4})
    ann = annihilator(f)
    assert isinstance(ann, BoolPrincipalIdeal)
    assert ann.generator == bits.one - f
    assert ann.contains(bits.indicator({2, 3}))
    assert not ann.contains(bits.indicator({1}))


def test_radical_frozen_examples():
    z12 = ModularRing(12)
    assert _values(radical(principal_ideal(z12, z12.element(4)))) == [0, 2, 4, 6, 8, 10]
    assert _values(radical(zero_ideal(z12))) == [0, 6]
    assert radical(unit_ideal(z12)).is_whole()


def test_radical_is_idempotent_and_monotone(finite_ring):
    for ideal in enumerate_ideals(finite_ring):
        root = radical(ideal)
        assert ideal.issubset(root)
        assert radical(root) == root
    assert radical(unit_ideal(finite_ring)).is_whole()


def test_radical_symbolic():
    zl = LocalizedIntegerRing(2)
    assert radical(LocalIdeal(zl, 3)) == LocalIdeal(zl, 1)
    assert radical(LocalIdeal(zl, None)).is_zero()
    assert radical(LocalIdeal(zl, 0)).is_whole()
    bits = EventuallyConstantBitsRing()
    g = bits.indicator({2})
    assert radical(BoolPrincipalIdeal(bits, g)) == BoolPrincipalIdeal(bits, g)
    assert radical(finite_support_ideal(bits)) == finite_support_ideal(bits)


def test_saturation_kernel_frozen_examples():
    z12 = ModularRing(12)
    two = principal_ideal(z12, z12.element(2))
    assert _values(saturation_kernel(two)) == [0, 4, 8]
    assert _values(saturation_kernel(zero_ideal(z12))) == [0]
    four = principal_ideal(z12, z12.element(4))
    assert _values(saturation_kernel(four)) == [0, 4, 8]


def test_saturation_kernel_is_exact(finite_ring):
    zero = finite_ring.zero
    one = finite_ring.one
    for ideal in enumerate_ideals(finite_ring):
        kernel = saturation_kernel(ideal)
        s = [one + i for i in ideal.elements]
        for r in finite_ring.elements():
            expected = any(x * r == zero for x in s)
            assert kernel.contains(r) == expected


def test_saturation_kernel_symbolic():
    zl = LocalizedIntegerRing(2)
    assert saturation_kernel(LocalIdeal(zl, 2)).is_zero()
    assert saturation_kernel(LocalIdeal(zl, None)).is_zero()
    assert saturation_kernel(LocalIdeal(zl, 0)).is_whole()
    with pytest.raises(UnsupportedForPresentation):
        saturation_kernel(finite_support_ideal(EventuallyConstantBitsRing()))


def test_ideal_sum_and_intersection(finite_ring):
    ideals = enumerate_ideals(finite_ring)
    for a in ideals:
        for b in ideals:
            total = ideal_sum(a, b)
            meet = ideal_intersection(a, b)
            assert total.elements == {x + y for x in a.elements for y in b.elements}
            assert meet.elements == a.elements & b.elements


def test_local_lattice_operations():
    zl = LocalizedIntegerRing(3)
    a, b = LocalIdeal(zl, 2), LocalIdeal(zl, 5)
    assert ideal_sum(a, b) == LocalIdeal(zl, 2)
    assert ideal_intersection(a, b) == LocalIdeal(zl, 5)
    zero = LocalIdeal(zl, None)
    assert ideal_sum(zero, a) == a
    assert ideal_sum(a, zero) == a
    assert ideal_intersection(zero, a) == zero
    assert a.issubset(LocalIdeal(zl, 1))
    assert not LocalIdeal(zl, 1).issubset(a)


def test_bool_ideal_operations():
    bits = EventuallyConstantBitsRing()
    g = bits.indicator({1})
    h = bits.indicator({2, 3})
    joined = ideal_from_generators(bits, [g, h])
    assert isinstance(joined, BoolPrincipalIdeal)
    assert joined.generator == bits.indicator({1, 2, 3})
    pg, ph = BoolPrincipalIdeal(bits, g), BoolPrincipalIdeal(bits, bits.indicator({1, 2}))
    assert ideal_sum(pg, ph) == BoolPrincipalIdeal(bits, bits.indicator({1, 2}))
    assert ideal_intersection(ph, BoolPrincipalIdeal(bits, h)) == BoolPrincipalIdeal(
        bits, bits.indicator({2}))
    fin = finite_support_ideal(bits)
    assert ideal_sum(BoolPrincipalIdeal(bits, g), fin) == fin
    cofinite = bits.element(({4}, 1))
    assert ideal_sum(BoolPrincipalIdeal(bits, cofinite), fin).is_whole()
    assert ideal_intersection(BoolPrincipalIdeal(bits, g), fin) == BoolPrincipalIdeal(bits, g)
    assert BoolPrincipalIdeal(bits, g).issubset(fin)
    assert not fin.issubset(BoolPrincipalIdeal(bits, g))
    assert fin.issubset(BoolPrincipalIdeal(bits, bits.one))


def test_finite_support_ideal_meets_the_unit_ideal():
    bits = EventuallyConstantBitsRing()
    fin = finite_support_ideal(bits)
    assert ideal_intersection(fin, unit_ideal(bits)) == fin
    assert ideal_intersection(unit_ideal(bits), fin) == fin
    # A cofinite proper principal ideal meets (fin) in an ideal that is
    # not finitely generated, which has no representation here.
    cofinite = BoolPrincipalIdeal(bits, bits.element(({4}, 1)))
    for a, b in ((fin, cofinite), (cofinite, fin)):
        with pytest.raises(UnsupportedForPresentation,
                           match="the meet of \\(fin\\) with a cofinite principal ideal "
                                 "is not finitely generated"):
            ideal_intersection(a, b)


def test_enumerate_ideals_matches_brute_force():
    for text in FINITE_CORPUS_TEXTS + SMALL_FINITE_TEXTS:
        ring = parse_ring(text)
        computed = {i.elements for i in enumerate_ideals(ring)}
        oracle = set(brute_force_ideals(ring))
        assert computed == oracle, text


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(parse_ring("Z/12"))) == 6
    assert len(enumerate_ideals(parse_ring("Z/6"))) == 4
    assert len(enumerate_ideals(parse_ring("GF(4)"))) == 2
    zl = parse_ring("Zloc(2)")
    found = enumerate_ideals(zl, local_level_bound=4)
    assert [i.label() for i in found] == ["(0)", "(1)", "(2)", "(2^2)", "(2^3)", "(2^4)"]


def test_prime_ideals_match_definition(finite_ring):
    for ideal in enumerate_ideals(finite_ring):
        assert is_prime_ideal(ideal) == brute_force_is_prime(finite_ring, ideal.elements)


def test_prime_ideals_symbolic():
    zl = LocalizedIntegerRing(2)
    assert is_prime_ideal(LocalIdeal(zl, None))
    assert is_prime_ideal(LocalIdeal(zl, 1))
    assert not is_prime_ideal(LocalIdeal(zl, 0))
    assert not is_prime_ideal(LocalIdeal(zl, 2))
    # A product ideal is prime when one component is a prime and the rest
    # are whole: the primes among the enumerated ideals are the spectrum.
    mixed = parse_ring("Zloc(2) * Zloc(3)")
    primes = [i.label() for i in enumerate_ideals(mixed, local_level_bound=2)
              if is_prime_ideal(i)]
    assert primes == ["(0) x (1)", "(1) x (0)", "(1) x (3)", "(2) x (1)"]
    assert tuple(primes) == enumerate_spectrum(mixed).labels


def test_product_ideal_componentwise():
    mixed = parse_ring("Zloc(2) * Z/3")
    one = unit_ideal(mixed)
    assert one.is_whole()
    gen = ideal_from_generators(mixed, [mixed.element((Fraction(2), 0))])
    assert gen.label() == "(2) x (0)"
    assert gen.contains(mixed.element((Fraction(4), 0)))
    assert not gen.contains(mixed.element((Fraction(1), 0)))
    assert not gen.contains(mixed.element((Fraction(2), 1)))
    assert radical(gen).label() == "(2) x (0)"
    kernel = saturation_kernel(gen)
    assert kernel.label() == "(0) x (0)"


def test_ideal_labels_round_trip_principal():
    z12 = parse_ring("Z/12")
    for ideal in enumerate_ideals(z12):
        label = ideal.label()
        assert label.startswith("(") and label.endswith(")")
    assert principal_ideal(z12, z12.element(3)).label() == "(3)"
    assert zero_ideal(z12).label() == "(0)"
    assert unit_ideal(z12).label() == "(1)"


def _full_scan_label(ideal):
    """The first generator of R, in canonical order, whose span is the ideal."""
    ring = ideal.ring
    for g in canonical_sorted(ring.elements()):
        if {r * g for r in ring.elements()} == ideal.elements:
            return f"({g})"
    return "(" + ",".join(str(e) for e in canonical_sorted(ideal.elements)) + ")"


@pytest.mark.parametrize("text", FINITE_CORPUS_TEXTS + SMALL_FINITE_TEXTS)
def test_explicit_labels_match_full_scan(text):
    for ideal in enumerate_ideals(parse_ring(text)):
        assert ideal.label() == _full_scan_label(ideal)


@pytest.mark.parametrize("text, label, zero, whole, generator", [
    ("Zloc(2)", "(0)", True, False, "0"),
    ("Zloc(2)", "(1)", False, True, "1"),
    ("Zloc(2)", "(2^2)", False, False, None),
    ("EvBits", "({}:0)", True, False, "{}:0"),
    ("EvBits", "({}:1)", False, True, "{}:1"),
    ("EvBits", "({1,2}:0)", False, False, "{1,2}:0"),
    ("EvBits", "(fin)", False, False, None),
    ("Z/12", "(3)", False, False, "9"),
    ("Z/12", "(2)", False, False, None),
    ("Zloc(2) * Z/6", "(0) x (3)", False, False, "(0, 3)"),
    ("Zloc(2) * Z/6", "(2) x (1)", False, False, None),
])
def test_predicates_frozen_per_representation(text, label, zero, whole, generator):
    ideal = parse_ideal_label(parse_ring(text), label)
    assert ideal.label() == label
    assert ideal.is_zero() is zero
    assert ideal.is_whole() is whole
    found = ideal.idempotent_generator()
    assert (None if found is None else str(found)) == generator


def test_constructor_checks_of_the_symbolic_ideals():
    z2, zl = ModularRing(2), LocalizedIntegerRing(2)
    mixed = parse_ring("Zloc(2) * Z/3")
    cases = [
        (lambda: LocalIdeal(z2, 1), UnsupportedForPresentation,
         "LocalIdeal needs a localized integer ring"),
        (lambda: LocalIdeal(zl, -1), ValueError, "level must be None or >= 0"),
        (lambda: BoolPrincipalIdeal(z2, 1), UnsupportedForPresentation,
         "BoolPrincipalIdeal needs the bits ring"),
        (lambda: BoolFiniteSupportIdeal(z2), UnsupportedForPresentation,
         "this ideal lives in the bits ring"),
        (lambda: ProductIdeal(parse_ring("Z/2 * Z/3"), ()), UnsupportedForPresentation,
         "ProductIdeal is the representation for infinite products"),
        (lambda: ProductIdeal(mixed, (zero_ideal(zl),)), ValueError,
         "one component ideal per factor is required"),
        (lambda: ProductIdeal(mixed, (zero_ideal(mixed.factors[1]), zero_ideal(zl))),
         ValueError, "component ideal belongs to the wrong factor"),
        (lambda: ideal_sum(zero_ideal(ModularRing(4)), zero_ideal(ModularRing(6))),
         ValueError, "ideals of different rings cannot be compared"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


def test_infinite_product_ideal_enumeration_is_budgeted():
    three = parse_ring(" * ".join(["Zloc(2)"] * 3))
    assert len(enumerate_ideals(three)) == 8 ** 3
    eight = parse_ring(" * ".join(["Zloc(2)"] * 8))
    start = time.perf_counter()
    with pytest.raises(RingTooLarge) as err:
        enumerate_ideals(eight)
    assert time.perf_counter() - start < 1
    assert str(err.value) == (f"{eight.describe()} has 16777216 ideals, "
                              "more than the budget of 65536")


@pytest.mark.parametrize("text, cls", [
    ("Z/6", ExplicitIdeal),
    ("GF(4)", ExplicitIdeal),
    ("Z/2[x]/(x^2)", ExplicitIdeal),
    ("Z/2 * Z/3", ExplicitIdeal),
    ("Zloc(2)", LocalIdeal),
    ("Zloc(2) * Z/3", ProductIdeal),
    ("EvBits", BoolPrincipalIdeal),
])
def test_ideal_class_is_the_type_of_every_ideal_the_ring_builds(text, cls):
    ring = parse_ring(text)
    assert ideal_class(ring) is cls
    built = [zero_ideal(ring), annihilator(ring.one)]
    if cls is not BoolPrincipalIdeal:  # the bits ring lists neither
        built += [*enumerate_ideals(ring), *enumerate_spectrum(ring).points]
    assert [type(i) for i in built] == [cls] * len(built)


def test_the_bits_ring_refuses_its_ideal_list_and_its_spectrum():
    bits = EventuallyConstantBitsRing()
    with pytest.raises(UnsupportedForPresentation) as err:
        enumerate_ideals(bits)
    assert str(err.value) == "the ideals of EvBits cannot be enumerated"
    with pytest.raises(UnsupportedForPresentation) as err:
        enumerate_spectrum(bits)
    assert str(err.value) == "the spectrum of EvBits is not enumerable"


INFINITE_PRODUCT_TEXTS = tuple(t for t in CORPUS_TEXTS + ZLOC_POWERS
                               if " * " in t and "Zloc" in t) + ("Zloc(3) * Z/4 * Zloc(2)",)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INFINITE_PRODUCT_TEXTS), st.data())
def test_product_searches_and_meets_match_the_generic_ones(text, data):
    # A product splices its components' witness searches and meets its
    # points slot by slot; the generic search of ``Ideal`` on a fresh copy
    # (nothing read from a memo) and the pairwise meet must agree exactly.
    # An enumerated ideal, one enumerated ideal per factor: Zloc(2)^6 has
    # more ideals than the enumeration budget.
    ring = parse_ring(text)
    ideal = ProductIdeal(ring, [data.draw(st.sampled_from(enumerate_ideals(factor)))
                                for factor in ring.factors])
    assert ideal.flat_search() == Ideal.flat_search(fresh_copy(ideal))
    points = enumerate_spectrum(ring).points
    chosen = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=len(points)))
    assert intersect_all(ring, chosen) == reduce(ideal_intersection, chosen)
    assert intersect_all(ring, []) == unit_ideal(ring)
