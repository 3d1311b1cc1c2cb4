"""The index kernel of finite rings: tables, mask ideals and the oracles."""

from __future__ import annotations

import itertools
import operator
import time

import pytest
from hypothesis import given, settings, strategies as st

from spectop import (
    ModularRing,
    annihilator,
    enumerate_ideals,
    enumerate_spectrum,
    ideal_from_generators,
    ideal_intersection,
    ideal_sum,
    parse_ring,
    radical,
    saturation_kernel,
    vanishing_locus,
)
from spectop.dsl import parse_ideal_label
from spectop.ideals import ExplicitIdeal, prime_ideals
from spectop.rings import IndexKernel, canonical_sorted

from conftest import (
    FINITE_CORPUS_TEXTS,
    MANY_ELEMENT_TEXTS,
    SMALL_FINITE_TEXTS,
    brute_force_generated,
    brute_force_is_prime,
    closure_generated,
    element_mask,
    elements_of,
    is_ideal_subset,
)

# Z/n up to 64, finite products and polynomial quotients.
KERNEL_TEXTS = tuple(f"Z/{n}" for n in range(1, 65)) + (
    "Z/2 * Z/4",
    "Z/3 * Z/3",
    "Z/2 * Z/2 * Z/2",
    "Z/4 * Z/2 * Z/3",
    "GF(4) * Z/2",
    "Z/2[x]/(x^3+x)",
    "Z/3[x]/(x^2)",
    "Z/2[x]/(x^4)",
    "Z/2[x]/(x^4+x)",
    "GF(8)",
    "Z/5[x]/(x^2+1)",
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_TEXTS), st.data())
def test_mask_ideals_match_oracles(text, data):
    ring = parse_ring(text)
    elements = ring.elements()
    gens = st.lists(st.sampled_from(elements), max_size=3)
    a_gens, b_gens = data.draw(gens), data.draw(gens)
    # The subset scan is exact but exponential; larger rings saturate.
    generated = brute_force_generated if len(elements) <= 12 else closure_generated
    a, b = ideal_from_generators(ring, a_gens), ideal_from_generators(ring, b_gens)
    in_a, in_b = elements_of(a), elements_of(b)
    assert in_a == generated(ring, a_gens)
    assert in_b == generated(ring, b_gens)
    assert elements_of(ideal_sum(a, b)) == generated(ring, a_gens + b_gens)
    assert elements_of(ideal_intersection(a, b)) == in_a & in_b
    assert a.issubset(b) == (in_a <= in_b)
    assert [a.contains(x) for x in elements] == [x in in_a for x in elements]
    assert (a in prime_ideals(ring)) == brute_force_is_prime(ring, in_a)
    assert a in enumerate_ideals(ring)
    assert parse_ideal_label(ring, a.label()) == a

    def nilpotent_mod_a(x):
        power = x
        for _ in elements:
            if power in in_a:
                return True
            power = power * x
        return False

    assert elements_of(radical(a)) == {x for x in elements if nilpotent_mod_a(x)}
    assert elements_of(saturation_kernel(a)) == {
        r for r in elements if any((ring.one + i) * r == ring.zero for i in in_a)}
    f = data.draw(st.sampled_from(elements))
    assert elements_of(annihilator(f)) == {x for x in elements if x * f == ring.zero}
    if a.contains(f):
        firsts = [x for x in elements if x * f == ring.zero and ring.one - x in in_a]
        expected = (firsts[0], ring.one - firsts[0]) if firsts else None
        assert a.flat_witness(f) == expected


@pytest.mark.parametrize("text", SMALL_FINITE_TEXTS + FINITE_CORPUS_TEXTS)
def test_tables_match_element_arithmetic(text):
    ring = parse_ring(text)
    assert "index_kernel" not in vars(ring)  # built on first use, not by parse_ring
    k = ring.index_kernel
    elements = ring.elements()
    assert k.elements == elements and list(elements) == canonical_sorted(elements)
    for i, a in enumerate(elements):
        assert k.index[a] == i
        for j, b in enumerate(elements):
            assert elements[k.add[i][j]] == a + b
            assert elements[k.mul[i][j]] == a * b


@pytest.mark.parametrize("text", SMALL_FINITE_TEXTS + MANY_ELEMENT_TEXTS)
def test_radical_matches_element_power_oracle(text):
    # x lies in the radical of I iff x^m lies in I for some m <= |R|.
    ring = parse_ring(text)
    elements = ring.elements()
    powers = {x: set(itertools.accumulate([x] * len(elements), operator.mul))
              for x in elements}
    for ideal in enumerate_ideals(ring):
        members = elements_of(ideal)
        assert elements_of(radical(ideal)) == {x for x in elements if powers[x] & members}


@pytest.mark.parametrize("text", ["Z/210", "GF(256)", "Z/2[x]/(x^8)", "Z/13[x]/(x^2)",
                                  "Z/2 * Z/2 * Z/2 * Z/2 * Z/2 * Z/2", "Z/5 * GF(49)"])
def test_large_tables_match_element_arithmetic_on_sampled_rows(text):
    ring = parse_ring(text)
    k = ring.index_kernel
    elements = ring.elements()
    assert list(elements) == canonical_sorted(elements)
    for i in sorted({0, 1, 2, 3, len(elements) // 2, len(elements) - 1}):
        a = elements[i]
        assert [elements[x] for x in k.add[i]] == [a + b for b in elements]
        assert [elements[x] for x in k.mul[i]] == [a * b for b in elements]


@pytest.mark.parametrize("text", ["Z/12", "Z/2 * Z/2 * Z/2", "GF(8)", "Z/2[x]/(x^3+x)"])
def test_ideals_compare_across_separately_parsed_rings(text):
    first, second = parse_ring(text), parse_ring(text)
    assert first is not second and first == second
    ours, theirs = enumerate_ideals(first), enumerate_ideals(second)
    assert ours[0].ring is first and theirs[0].ring is second
    assert ours == theirs
    assert [hash(i) for i in ours] == [hash(i) for i in theirs]
    for a, b in itertools.product(ours, theirs):
        assert a.issubset(b) == (elements_of(a) <= elements_of(b))
        assert b.issubset(a) == (elements_of(b) <= elements_of(a))
        assert ideal_sum(a, b) == ideal_sum(b, a)
    # Each instance keeps its own spectrum, and its primes meet the ideals
    # of the other instance.
    for i in theirs:
        assert vanishing_locus(i) == vanishing_locus(ours[theirs.index(i)])
    assert enumerate_spectrum(second) == enumerate_spectrum(first)
    assert enumerate_spectrum(second) is not enumerate_spectrum(first)


def test_idempotent_generator_matches_a_brute_force_search():
    ring = parse_ring(" * ".join(["Z/2"] * 8))
    ideals = enumerate_ideals(ring)
    started = time.perf_counter()
    found = [i.idempotent_generator() for i in ideals]
    assert time.perf_counter() - started < 0.5
    # The e with e*e = e and Re = I, searched over every element.
    spans = {}
    for e in ring.elements():
        if e * e == e:
            spans.setdefault(frozenset(e * r for r in ring.elements()), e)
    assert found == [spans.get(elements_of(i)) for i in ideals]
    assert None not in found


def test_explicit_ideal_rejects_non_ideals_with_the_same_message():
    z6 = ModularRing(6)
    with pytest.raises(ValueError, match=r"^not closed under addition: 2 \+ 2$"):
        ExplicitIdeal(z6, mask=element_mask(z6, [0, 2]))
    with pytest.raises(ValueError, match="^an ideal contains 0$"):
        ExplicitIdeal(z6, mask=element_mask(z6, [2, 4]))
    square = parse_ring("Z/2 * Z/2")
    with pytest.raises(ValueError,
                       match=r"^not closed under multiplication: \(0, 1\) \* \(1, 1\)$"):
        ExplicitIdeal(square, mask=element_mask(square, [square.zero, square.one]))
    with pytest.raises(ValueError, match=r"^not closed under addition: 1 \+ 1$"):
        ExplicitIdeal(z6, mask=0b11)
    # A float or a bool is no mask: 1.0 would fail the range test with a
    # TypeError, and True would be stored and print as (0).
    for mask in (-1, 1 << 6 | 1, 1.0, True):
        with pytest.raises(ValueError, match="^a mask is an int with one bit per element"):
            ExplicitIdeal(z6, mask=mask)
    assert ExplicitIdeal(z6, mask=element_mask(z6, [0, 3])) == ideal_from_generators(z6, [3])


_REJECTIONS = r"^(an ideal contains 0|not closed under (addition|multiplication): .+)$"


@pytest.mark.parametrize("text", ["Z/6", "Z/8", "Z/4 * Z/2", "Z/2 * Z/2 * Z/2", "Z/3[x]/(x^2)"])
def test_explicit_ideal_accepts_exactly_the_ideal_subsets(text):
    ring = parse_ring(text)
    elements = ring.elements()
    for size in range(len(elements) + 1):
        for subset in itertools.combinations(elements, size):
            if is_ideal_subset(ring, subset):
                ideal = ExplicitIdeal(ring, mask=element_mask(ring, subset))
                assert elements_of(ideal) == frozenset(subset)
            else:
                with pytest.raises(ValueError, match=_REJECTIONS):
                    ExplicitIdeal(ring, mask=element_mask(ring, subset))


@pytest.mark.parametrize("text", KERNEL_TEXTS)
def test_sums_of_enumerated_ideals_are_enumerated(text):
    # Every finite presentation is a principal ideal ring, so the spans Rg
    # are all its ideals; the sum of two of them must be one of them too.
    # A sum of comparable ideals is the larger one, so only incomparable
    # pairs go to the closure oracle.
    ring = parse_ring(text)
    ideals = enumerate_ideals(ring)
    found = {elements_of(i) for i in ideals}
    for a, b in itertools.combinations(ideals, 2):
        if not (a.issubset(b) or b.issubset(a)):
            assert closure_generated(ring, elements_of(a) | elements_of(b)) in found


def _members_by_comprehension(mask: int) -> list[int]:
    """The set bits as ``IndexKernel.members`` first read them: one Python
    step per bit of the mask, set or not."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(min_value=0, max_value=(1 << 20) - 1),
    st.integers(min_value=0, max_value=(1 << 4096) - 1),
    st.sets(st.integers(min_value=0, max_value=65535), max_size=64).map(
        lambda bits: sum(1 << b for b in bits)),
))
def test_members_match_the_bit_by_bit_reading(mask):
    assert IndexKernel.members(mask) == _members_by_comprehension(mask)


@pytest.mark.parametrize("mask", [
    0, 1, 255, 256, 65535, 65536, 1 << 65535, (1 << 65536) - 1,
    (1 << 65536) - 1 - (1 << 40000), sum(1 << b for b in range(0, 65536, 9)),
], ids=["0", "1", "byte", "bit-8", "16-bits", "bit-16", "top-of-65536", "all-65536",
        "all-but-one-65536", "every-ninth-65536"])
def test_members_on_empty_and_power_set_sized_tables(mask):
    assert IndexKernel.members(mask) == _members_by_comprehension(mask)
