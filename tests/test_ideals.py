"""Ideal construction, arithmetic and enumeration against naive oracles."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from spectop import (
    EventuallyConstantBitsRing,
    LocalizedIntegerRing,
    ModularRing,
    RingTooLarge,
    UnsupportedForPresentation,
    annihilator,
    enumerate_ideals,
    enumerate_spectrum,
    ideal_from_generators,
    ideal_intersection,
    ideal_sum,
    parse_ring,
    principal_ideal,
    radical,
    saturation_kernel,
    unit_ideal,
    zero_ideal,
)
from spectop import cli
from spectop.dsl import parse_ideal_label
from spectop.ideals import (
    BoolIdeal,
    ExplicitIdeal,
    Ideal,
    LocalIdeal,
    ProductIdeal,
    LOCAL_LEVEL_BOUND,
    ideal_class,
    intersect_all,
    prime_ideals,
)
from spectop.rings import canonical_sorted

from conftest import (
    CORPUS_TEXTS,
    FINITE_CORPUS_TEXTS,
    MANY_ELEMENT_TEXTS,
    SMALL_FINITE_TEXTS,
    ZLOC_POWERS,
    brute_force_generated,
    brute_force_ideals,
    brute_force_is_prime,
    element_mask,
    elements_of,
    fresh_copy,
)


def _values(ideal):
    return sorted(e.value for e in elements_of(ideal))


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
        assert elements_of(computed) == oracle


@given(st.sampled_from(SMALL_FINITE_TEXTS), st.data())
def test_generated_ideal_matches_oracle_on_random_generators(text, data):
    ring = parse_ring(text)
    gens = data.draw(st.lists(st.sampled_from(ring.elements()), max_size=4))
    computed = ideal_from_generators(ring, gens)
    assert elements_of(computed) == brute_force_generated(ring, gens)


def test_explicit_ideal_rejects_unclosed_sets():
    z6 = ModularRing(6)
    with pytest.raises(ValueError):
        ExplicitIdeal(z6, mask=element_mask(z6, [0, 2]))  # 2+2=4 missing
    with pytest.raises(ValueError):
        ExplicitIdeal(z6, mask=element_mask(z6, [2, 4]))  # no zero


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
    assert isinstance(ann, BoolIdeal)
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
    assert radical(LocalIdeal(zl, math.inf)).is_zero()
    assert radical(LocalIdeal(zl, 0)).is_whole()
    bits = EventuallyConstantBitsRing()
    g = bits.indicator({2})
    assert radical(BoolIdeal(bits, g)) == BoolIdeal(bits, g)
    assert radical(BoolIdeal(bits, None)) == BoolIdeal(bits, None)


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
        s = [one + i for i in elements_of(ideal)]
        for r in finite_ring.elements():
            expected = any(x * r == zero for x in s)
            assert kernel.contains(r) == expected


def test_saturation_kernel_symbolic():
    zl = LocalizedIntegerRing(2)
    assert saturation_kernel(LocalIdeal(zl, 2)).is_zero()
    assert saturation_kernel(LocalIdeal(zl, math.inf)).is_zero()
    assert saturation_kernel(LocalIdeal(zl, 0)).is_whole()
    with pytest.raises(UnsupportedForPresentation):
        saturation_kernel(BoolIdeal(EventuallyConstantBitsRing(), None))


def test_ideal_sum_and_intersection(finite_ring):
    ideals = enumerate_ideals(finite_ring)
    members = {i: elements_of(i) for i in ideals}
    for a in ideals:
        for b in ideals:
            total = ideal_sum(a, b)
            meet = ideal_intersection(a, b)
            assert elements_of(total) == {x + y for x in members[a] for y in members[b]}
            assert elements_of(meet) == members[a] & members[b]


def test_local_lattice_operations():
    zl = LocalizedIntegerRing(3)
    a, b = LocalIdeal(zl, 2), LocalIdeal(zl, 5)
    assert ideal_sum(a, b) == LocalIdeal(zl, 2)
    assert ideal_intersection(a, b) == LocalIdeal(zl, 5)
    zero = LocalIdeal(zl, math.inf)
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
    assert isinstance(joined, BoolIdeal)
    assert joined.generator == bits.indicator({1, 2, 3})
    pg, ph = BoolIdeal(bits, g), BoolIdeal(bits, bits.indicator({1, 2}))
    assert ideal_sum(pg, ph) == BoolIdeal(bits, bits.indicator({1, 2}))
    assert ideal_intersection(ph, BoolIdeal(bits, h)) == BoolIdeal(
        bits, bits.indicator({2}))
    fin = BoolIdeal(bits, None)
    assert ideal_sum(BoolIdeal(bits, g), fin) == fin
    cofinite = bits.element(({4}, 1))
    assert ideal_sum(BoolIdeal(bits, cofinite), fin).is_whole()
    assert ideal_intersection(BoolIdeal(bits, g), fin) == BoolIdeal(bits, g)
    assert BoolIdeal(bits, g).issubset(fin)
    assert not fin.issubset(BoolIdeal(bits, g))
    assert fin.issubset(BoolIdeal(bits, bits.one))


def test_finite_support_ideal_meets_the_unit_ideal():
    bits = EventuallyConstantBitsRing()
    fin = BoolIdeal(bits, None)
    assert ideal_intersection(fin, unit_ideal(bits)) == fin
    assert ideal_intersection(unit_ideal(bits), fin) == fin
    # A cofinite proper principal ideal meets (fin) in an ideal that is
    # not finitely generated, which has no representation here.
    cofinite = BoolIdeal(bits, bits.element(({4}, 1)))
    for a, b in ((fin, cofinite), (cofinite, fin)):
        with pytest.raises(UnsupportedForPresentation,
                           match="the meet of \\(fin\\) with a cofinite principal ideal "
                                 "is not finitely generated"):
            ideal_intersection(a, b)


_BITS = EventuallyConstantBitsRing()
# (fin) or a principal ideal (g), g a random (positions, tail) pair.
_bits_ideals = st.one_of(
    st.none(), st.tuples(st.frozensets(st.integers(1, 8)), st.integers(0, 1)),
).map(lambda g: BoolIdeal(_BITS, g))


def _model_subset(a, b) -> bool:
    g, h = a.generator, b.generator
    if g is None:
        return h is None or h == _BITS.one
    if h is None:
        return g.value[1] == 0  # the tail bit
    return g * h == g


@settings(max_examples=200, deadline=None)
@given(_bits_ideals, _bits_ideals)
@example(BoolIdeal(_BITS, None), BoolIdeal(_BITS, None))
@example(BoolIdeal(_BITS, None), BoolIdeal(_BITS, (frozenset({4}), 1)))
@example(BoolIdeal(_BITS, (frozenset(), 1)), BoolIdeal(_BITS, None))
@example(BoolIdeal(_BITS, (frozenset({2}), 0)), BoolIdeal(_BITS, (frozenset({4}), 1)))
def test_bits_ideal_lattice_matches_a_model(a, b):
    total = ideal_sum(a, b)
    pairs = [(a, b), (b, a), (a, total), (b, total)]
    # The meet of (fin) with a cofinite (g), g != 1, is not finitely generated.
    if any(x.generator is None and y.generator is not None and y.generator.value[1] == 1
           and y.generator != _BITS.one for x, y in ((a, b), (b, a))):
        with pytest.raises(UnsupportedForPresentation):
            ideal_intersection(a, b)
        built = [total]
    else:
        meet = ideal_intersection(a, b)
        pairs += [(meet, a), (meet, b)]
        built = [total, meet]
    for x, y in pairs:
        assert x.issubset(y) == _model_subset(x, y)
    assert all(x.issubset(y) for x, y in pairs[2:])
    for ideal in (a, b, *built):
        assert parse_ideal_label(_BITS, ideal.label()) == ideal


# A level of Zloc(p), past the enumeration cut too, or inf for (0).
_local_levels = st.one_of(st.integers(0, LOCAL_LEVEL_BOUND + 3), st.just(math.inf))
# An element u * p^v / w of valuation v (u, w nudged off the multiples of
# p), or None for 0.
_local_elements = st.one_of(st.none(), st.tuples(
    st.integers(-40, 40), st.integers(0, LOCAL_LEVEL_BOUND + 3), st.integers(1, 40)))


def _model_label(p, level) -> str:
    return {math.inf: "(0)", 0: "(1)", 1: f"({p})"}.get(level, f"({p}^{level})")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)), _local_levels, _local_levels, _local_elements)
@example(2, math.inf, math.inf, None)  # (0) meet (0)
@example(2, math.inf, 0, (1, 0, 1))  # (0) + R
@example(3, LOCAL_LEVEL_BOUND + 3, 1, (4, LOCAL_LEVEL_BOUND + 2, 5))  # (p^9)
def test_local_ideal_lattice_matches_a_model(p, a, b, x):
    # Zloc(p) is a discrete valuation ring: its ideals are the (p^k),
    # k in N U {inf}, and f lies in (p^k) iff v(f) >= k, with v(0) = inf.
    ring = LocalizedIntegerRing(p)
    first, second = LocalIdeal(ring, a), LocalIdeal(ring, b)
    if x is None:
        f, v = ring.zero, math.inf
    else:
        u, v, w = x
        u, w = (n if n % p else n + 1 for n in (u, w))
        f = ring.element(Fraction(u * p ** v, w))
    assert first.contains(f) == (v >= a)
    assert first.issubset(second) == (a >= b)
    assert ideal_sum(first, second) == LocalIdeal(ring, min(a, b))
    assert ideal_intersection(first, second) == LocalIdeal(ring, max(a, b))
    assert principal_ideal(ring, f) == LocalIdeal(ring, v)
    g = ring.zero if a == math.inf else ring.element(p ** a)
    assert ideal_from_generators(ring, [f, g]) == LocalIdeal(ring, min(v, a))
    assert annihilator(f) == LocalIdeal(ring, 0 if v == math.inf else math.inf)
    assert saturation_kernel(first) == LocalIdeal(ring, 0 if a == 0 else math.inf)
    assert first.label() == _model_label(p, a)
    assert parse_ideal_label(ring, first.label()) == first


def test_enumerate_ideals_matches_brute_force():
    for text in FINITE_CORPUS_TEXTS + SMALL_FINITE_TEXTS:
        ring = parse_ring(text)
        computed = {elements_of(i) for i in enumerate_ideals(ring)}
        oracle = set(brute_force_ideals(ring))
        assert computed == oracle, text


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(parse_ring("Z/12"))) == 6
    assert len(enumerate_ideals(parse_ring("Z/6"))) == 4
    assert len(enumerate_ideals(parse_ring("GF(4)"))) == 2
    zl = parse_ring("Zloc(2)")
    found = enumerate_ideals(zl)
    assert [i.label() for i in found] == [
        "(0)", "(1)", "(2)", "(2^2)", "(2^3)", "(2^4)", "(2^5)", "(2^6)"]


@pytest.mark.parametrize("text", FINITE_CORPUS_TEXTS + MANY_ELEMENT_TEXTS)
def test_prime_ideals_match_definition(text):
    ring = parse_ring(text)
    primes = prime_ideals(ring)
    for ideal in enumerate_ideals(ring):
        assert (ideal in primes) == brute_force_is_prime(ring, elements_of(ideal))


def test_prime_ideals_symbolic():
    zl = LocalizedIntegerRing(2)
    assert LocalIdeal(zl, math.inf) in prime_ideals(zl)
    assert LocalIdeal(zl, 1) in prime_ideals(zl)
    assert LocalIdeal(zl, 0) not in prime_ideals(zl)
    assert LocalIdeal(zl, 2) not in prime_ideals(zl)
    # A product ideal is prime when one component is a prime and the rest
    # are whole: the primes among the enumerated ideals are the spectrum.
    mixed = parse_ring("Zloc(2) * Zloc(3)")
    primes = [i.label() for i in enumerate_ideals(mixed) if i in prime_ideals(mixed)]
    assert primes == ["(0) x (1)", "(1) x (0)", "(1) x (3)", "(2) x (1)"]
    assert tuple(primes) == enumerate_spectrum(mixed).labels


def _component_model(c):
    """Whether a component ideal is whole and prime, and its radical, from
    the definitions: over a finite factor the radical is the set of x with
    a power in c, and (p^k) of the localized integers has radical (p)."""
    ring = c.ring
    if ring.is_finite:
        members = elements_of(c)
        root = frozenset(x for x in ring.elements()
                         if any(x ** k in members for k in range(1, len(ring.elements()) + 1)))
        return ring.one in members, brute_force_is_prime(ring, members), root
    level = c.level  # (0) is prime and its own radical; (p^k), k >= 1, has radical (p)
    root = LocalIdeal(ring, level if level == math.inf else min(level, 1))
    return level == 0, level in (math.inf, 1), root


def _component_view(c):
    return elements_of(c) if c.ring.is_finite else c


@pytest.mark.parametrize("text", ["Zloc(2) * Z/12", "Zloc(3) * Z/4 * Zloc(2)"])
def test_listed_primes_and_the_radical_match_a_componentwise_model(text):
    # A prime of a product is a prime in one slot and whole elsewhere, and
    # the radical is taken slot by slot.
    ring = parse_ring(text)
    primes = prime_ideals(ring)
    assert len(set(primes)) == len(primes)
    modelled = 0
    for ideal in enumerate_ideals(ring):
        parts = [_component_model(c) for c in ideal.components]
        proper = [prime for whole, prime, _ in parts if not whole]
        prime = proper == [True]
        modelled += prime
        assert (ideal in primes) == prime, ideal.label()
        assert list(map(_component_view, radical(ideal).components)) == [
            root for _, _, root in parts], ideal.label()
    assert modelled == len(primes)


def test_listed_primes_and_the_radical_of_local_levels_past_the_bound():
    zl = LocalizedIntegerRing(3)
    for level in (math.inf, *range(LOCAL_LEVEL_BOUND + 4)):
        ideal = LocalIdeal(zl, level)
        _, prime, root = _component_model(ideal)
        assert (ideal in prime_ideals(zl)) == prime
        assert radical(ideal) == root


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
    ring, members = ideal.ring, elements_of(ideal)
    for g in canonical_sorted(ring.elements()):
        if {r * g for r in ring.elements()} == members:
            return f"({g})"
    return "(" + ",".join(str(e) for e in canonical_sorted(members)) + ")"


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
        # (0) is level math.inf only; a float or a bool is no level.
        *((lambda level=level: LocalIdeal(zl, level), ValueError,
           "level must be an int >= 0 or math.inf") for level in (None, -1, 2.5, True)),
        (lambda: BoolIdeal(z2, 1), UnsupportedForPresentation, "BoolIdeal needs the bits ring"),
        (lambda: BoolIdeal(z2, None), UnsupportedForPresentation,
         "BoolIdeal needs the bits ring"),
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
    assert str(err.value) == (f"{eight.describe()} has 16777216 ideals with each chain "
                              "(p^k) cut at k = 6, more than the budget of 65536")


@pytest.mark.parametrize("text, cls", [
    ("Z/6", ExplicitIdeal),
    ("GF(4)", ExplicitIdeal),
    ("Z/2[x]/(x^2)", ExplicitIdeal),
    ("Z/2 * Z/3", ExplicitIdeal),
    ("Zloc(2)", LocalIdeal),
    ("Zloc(2) * Z/3", ProductIdeal),
    ("EvBits", BoolIdeal),
])
def test_ideal_class_is_the_type_of_every_ideal_the_ring_builds(text, cls):
    ring = parse_ring(text)
    assert ideal_class(ring) is cls
    built = [zero_ideal(ring), annihilator(ring.one)]
    if cls is not BoolIdeal:  # the bits ring lists neither
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


def test_a_product_verify_hashes_no_fraction(monkeypatch, capsys):
    # A structural guard, with no timing: the factor memos of a product's
    # generated ideals are keyed by sort keys, tuples of ints, so no
    # Fraction payload is hashed, which runs in Python, over a whole
    # fresh `verify` of Zloc(2)^5.
    hashed = [0]
    real = Fraction.__hash__

    def counted(value):
        hashed[0] += 1
        return real(value)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert hash(Fraction(1, 3)) == real(Fraction(1, 3)) and hashed == [1]
    hashed[0] = 0
    assert cli.main(["verify", "--ring", ZLOC_POWERS[4]]) == 0
    assert '"verdict": "pass"' in capsys.readouterr().out
    assert hashed == [0]
