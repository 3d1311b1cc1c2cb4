"""Spectra, the three topologies, stable sets and closures."""

from __future__ import annotations

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spectop import (
    FLAT,
    PATCH,
    ZARISKI,
    LocalizedIntegerRing,
    SpectrumTooLarge,
    UnsupportedForPresentation,
    closed_family,
    enumerate_ideals,
    enumerate_spectrum,
    ideal_from_generators,
    parse_ideal_label,
    parse_ring,
    principal_ideal,
    product_ring,
    vanishing_locus,
)
from spectop.ideals import LocalIdeal, ProductIdeal
from spectop.spectrum import (
    TOPOLOGIES,
    ClosedFamily,
    _ideal_table,
    ideal_basis_families,
)

from conftest import (
    CORPUS_TEXTS,
    GOLDEN_TEXTS,
    SMALL_FINITE_TEXTS,
    ZLOC_POWERS,
    brute_force_ideals,
    brute_force_is_prime,
    elements_of,
    factorwise_unions,
    generalizations_of,
    ideals_cut_at_one,
    is_down_closed,
    is_up_closed,
    label_mask,
    loci_of_elements,
    loci_of_ideals,
    mask_points,
    oracle_closed_sets,
    point_mask,
    sample_elements,
    specializations_of,
    table_point_sets,
)


def _principal_sets(ring):
    """The V(f) that the spectrum's table holds."""
    sp = enumerate_spectrum(ring)
    return table_point_sets(sp, sp.principal_table)


def _ideal_sets(ring):
    """The V(I) that a table built afresh holds."""
    return table_point_sets(enumerate_spectrum(ring), _ideal_table(ring))


def test_spectrum_frozen_examples():
    sp = enumerate_spectrum(parse_ring("Z/12"))
    assert [p.label() for p in sp.points] == ["(2)", "(3)"]
    assert sp.minimal == sp.maximal == sp.full == 0b11

    sp4 = enumerate_spectrum(parse_ring("GF(4)"))
    assert [p.label() for p in sp4.points] == ["(0)"]

    spl = enumerate_spectrum(parse_ring("Zloc(2)"))
    assert [p.label() for p in spl.points] == ["(0)", "(2)"]
    zero, two = spl.points
    # (0) lies below (2): each cone holds the point itself and the other
    # point on its side.
    assert spl.down == (0b01, 0b11) and spl.up == (0b11, 0b10)
    assert spl.minimal == 0b01 and spl.maximal == 0b10
    assert spl.mask_of([zero]) == spl.minimal and spl.mask_of([two]) == spl.maximal


@pytest.mark.parametrize("text", ["Z/12", "GF(4)", "Zloc(2)", "Z/2 * Z/2 * Z/2"])
def test_points_are_the_prime_ideals(text):
    ring = parse_ring(text)
    if ring.is_finite:
        oracle = {i for i in enumerate_ideals(ring) if brute_force_is_prime(ring, elements_of(i))}
    else:
        # A discrete valuation ring: its primes are (0) and (p).
        oracle = {i for i in enumerate_ideals(ring) if i.level in (math.inf, 1)}
    assert set(enumerate_spectrum(ring).points) == oracle


def test_product_points_are_their_parsed_labels():
    ring = parse_ring("Zloc(2) * Z/3")
    for p in enumerate_spectrum(ring).points:
        assert p == parse_ideal_label(ring, p.label())


def test_spectrum_of_bits_ring_is_refused():
    with pytest.raises(UnsupportedForPresentation):
        enumerate_spectrum(parse_ring("EvBits"))


def test_spectrum_primality_is_exhaustive(finite_ring):
    sp = enumerate_spectrum(finite_ring)
    primes = {elements_of(p) for p in sp.points}
    oracle = {s for s in brute_force_ideals(finite_ring)
              if brute_force_is_prime(finite_ring, s)}
    assert primes == oracle


def test_product_spectrum_matches_brute_force():
    # a prime of a finite product is a factor prime in one slot, whole elsewhere
    for text in ("Z/4 * Z/3", "Z/2 * Z/2 * Z/2", "Z/4 * Z/2", "Z/2[x]/(x^2) * GF(4)"):
        prod = parse_ring(text)
        by_hand = set()
        for i, factor in enumerate(prod.factors):
            for prime in brute_force_ideals(factor):
                if brute_force_is_prime(factor, prime):
                    by_hand.add(frozenset(e for e in prod.elements()
                                          if prod.component(e, i) in prime))
        sp = enumerate_spectrum(prod)
        assert {elements_of(p) for p in sp.points} == by_hand, text
        assert len(sp) == len(prod.factors), text


def test_mixed_product_spectrum_shape():
    ring = parse_ring("Zloc(2) * Z/3")
    sp = enumerate_spectrum(ring)
    labels = [p.label() for p in sp.points]
    assert labels == ["(0) x (1)", "(1) x (0)", "(2) x (1)"]
    pts = {p.label(): p for p in sp.points}
    assert sp.down[labels.index("(2) x (1)")] == label_mask(ring, "(0) x (1)", "(2) x (1)")
    assert sp.up[labels.index("(0) x (1)")] == label_mask(ring, "(0) x (1)", "(2) x (1)")
    assert sp.minimal & sp.maximal == sp.mask_of([pts["(1) x (0)"]])


def test_vanishing_locus_frozen_examples():
    z12 = parse_ring("Z/12")
    four = principal_ideal(z12, z12.element(4))
    sp = enumerate_spectrum(z12)
    assert sp.labels_of(vanishing_locus(four)) == ["(2)"]
    assert vanishing_locus(ideal_from_generators(z12, [])) == sp.full == 0b11
    assert vanishing_locus(principal_ideal(z12, z12.one)) == 0



def test_flat_point_closure():
    # The flat closure of a point is its generalization cone.
    sp = enumerate_spectrum(parse_ring("Zloc(2)"))
    assert sp.down_closure(0b10) == 0b11
    assert sp.down_closure(0b01) == 0b01
    sp12 = enumerate_spectrum(parse_ring("Z/12"))
    for i in range(len(sp12)):
        assert sp12.down_closure(1 << i) == sp12.down[i] == 1 << i


def test_stability_predicates():
    # Bit m of a stable table is set when the mask m is stable.
    sp = enumerate_spectrum(parse_ring("Zloc(2)"))
    zero, two = 0b01, 0b10
    assert sp.down_table >> zero & 1 and not sp.down_table >> two & 1
    assert sp.up_table >> two & 1 and not sp.up_table >> zero & 1
    assert sp.down_table & 1 and sp.up_table & 1


def test_closure_operators_on_local_ring():
    sp = enumerate_spectrum(parse_ring("Zloc(2)"))
    assert sp.down_closure(0b10) == 0b11
    assert sp.up_closure(0b01) == 0b11
    assert sp.down_closure(0) == sp.up_closure(0) == 0


def test_closure_operators_on_mixed_product():
    ring = parse_ring("Zloc(2) * Z/3")
    sp = enumerate_spectrum(ring)
    both = label_mask(ring, "(0) x (1)", "(2) x (1)")
    assert sp.down_closure(label_mask(ring, "(2) x (1)")) == both
    assert sp.up_closure(label_mask(ring, "(0) x (1)")) == both


@given(st.sampled_from(CORPUS_TEXTS + ZLOC_POWERS), st.data())
def test_mask_predicates_match_cone_unions(text, data):
    """The mask closures and stable tables agree with the closures under
    ideal inclusion."""
    ring = parse_ring(text)
    sp = enumerate_spectrum(ring)
    points = data.draw(st.frozensets(st.sampled_from(sp.points)))
    mask = sp.mask_of(points)
    gen = generalizations_of(sp.points, points)
    spec = specializations_of(sp.points, points)
    assert mask_points(ring, sp.down_closure(mask)) == gen
    assert mask_points(ring, sp.up_closure(mask)) == spec
    assert bool(sp.down_table >> mask & 1) == (gen == points)
    assert bool(sp.up_table >> mask & 1) == (spec == points)


@pytest.mark.parametrize("text", ["Zloc(2) * Z/3", "Zloc(3) * Z/4 * Zloc(2)", ZLOC_POWERS[5]])
def test_slotwise_order_and_loci_match_ideal_inclusion(text):
    """The cones and V(I) of an infinite product, read slot by slot, equal
    those of whole-ideal inclusion; Zloc(2)^6 has too many ideals for all,
    so it takes a seeded sample."""
    ring = parse_ring(text)
    sp = enumerate_spectrum(ring)
    pts = sp.points
    assert sp.slotwise
    for j, q in enumerate(pts):
        assert sp.down[j] == sum(1 << i for i, p in enumerate(pts) if p.issubset(q))
        assert sp.up[j] == sum(1 << i for i, p in enumerate(pts) if q.issubset(p))
    combos = list(itertools.product(*(enumerate_ideals(f) for f in ring.factors)))
    if len(combos) > 400:
        combos = random.Random(len(combos)).sample(combos, 400)
    for components in combos:
        ideal = ProductIdeal(ring, components)
        assert vanishing_locus(ideal) == point_mask(
            ring, (p for p in pts if ideal.issubset(p)))


@given(st.sampled_from(CORPUS_TEXTS + SMALL_FINITE_TEXTS + ZLOC_POWERS + ("Z/1",)))
def test_stable_tables_hold_the_fixed_points_of_the_closures(text):
    sp = enumerate_spectrum(parse_ring(text))
    masks = range(1 << len(sp))
    assert sp.down_table == sp.table_of(m for m in masks if sp.down_closure(m) == m)
    assert sp.up_table == sp.table_of(m for m in masks if sp.up_closure(m) == m)


@pytest.mark.parametrize("text", CORPUS_TEXTS + SMALL_FINITE_TEXTS + ZLOC_POWERS[2:4])
def test_cover_edges_match_the_definition(text):
    sp = enumerate_spectrum(parse_ring(text))
    pts = sp.points

    def leq(a, b):
        return a.issubset(b)

    expected = [
        (p, q) for p in pts for q in pts
        if p != q and leq(p, q)
        and not any(r not in (p, q) and leq(p, r) and leq(r, q) for r in pts)]
    assert list(sp.cover_edges()) == sorted(
        expected, key=lambda e: (e[0].label(), e[1].label()))


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_principal_families_are_built_once_per_spectrum(corpus_ring, topology):
    assert closed_family(corpus_ring, topology) is closed_family(corpus_ring, topology)
    first, second = ideal_basis_families(corpus_ring), ideal_basis_families(corpus_ring)
    assert all(a is not b and a == b for a, b in zip(first, second))


def test_closed_family_rejects_foreign_points():
    # A family holds the empty set and the space; a set with a point of
    # another spectrum has no mask over this one to look up.
    fam = closed_family(parse_ring("Z/6"), ZARISKI)
    sp = fam.spectrum
    foreign = enumerate_spectrum(parse_ring("Z/10")).points[1]
    assert fam.table >> sp.mask_of([]) & 1 and fam.table >> sp.mask_of(sp.points) & 1
    for points in ([foreign], [*sp.points, foreign]):
        with pytest.raises(ValueError, match=r"^\(5\) is not a prime of Z/6$"):
            sp.mask_of(points)


def _family_sets(ring, topology):
    return {frozenset(p.label() for p in s)
            for s in closed_family(ring, topology).sets}


def test_closed_families_frozen_examples():
    zl = parse_ring("Zloc(2)")
    assert _family_sets(zl, FLAT) == {frozenset(), frozenset({"(0)"}),
                                      frozenset({"(0)", "(2)"})}
    assert _family_sets(zl, ZARISKI) == {frozenset(), frozenset({"(2)"}),
                                         frozenset({"(0)", "(2)"})}
    assert len(_family_sets(zl, PATCH)) == 4

    z12 = parse_ring("Z/12")
    assert len(_family_sets(z12, PATCH)) == 4
    assert _family_sets(z12, ZARISKI) == _family_sets(z12, PATCH)

    gf4 = parse_ring("GF(4)")
    assert _family_sets(gf4, ZARISKI) == {frozenset(), frozenset({"(0)"})}


def test_family_axioms_and_characterizations(corpus_ring):
    zfam = closed_family(corpus_ring, ZARISKI)
    ffam = closed_family(corpus_ring, FLAT)
    pfam = closed_family(corpus_ring, PATCH)
    for fam in (zfam, ffam, pfam):
        fam.validate()
    points = pfam.spectrum.points
    # patch closed family is the full power set on a finite spectrum
    assert len(pfam.sets) == 2 ** len(points)
    # flat closed = patch closed and stable under generalization
    assert ffam.sets == frozenset(s for s in pfam.sets if is_down_closed(points, s))
    # zariski closed = patch closed and stable under specialization
    assert zfam.sets == frozenset(s for s in pfam.sets if is_up_closed(points, s))
    # patch refines both
    assert zfam.sets <= pfam.sets and ffam.sets <= pfam.sets


def test_closed_family_refuses_an_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology 'hausdorff'"):
        closed_family(parse_ring("Z/6"), "hausdorff")


def test_subbasis_and_ideal_basis_agree(corpus_ring):
    ideal_zfam, ideal_ffam = ideal_basis_families(corpus_ring)
    assert ideal_zfam.topology == ZARISKI and ideal_ffam.topology == FLAT
    assert ideal_zfam.sets == closed_family(corpus_ring, ZARISKI).sets
    assert ideal_ffam.sets == closed_family(corpus_ring, FLAT).sets


def test_zariski_closed_sets_are_vanishing_loci(corpus_ring):
    fam = closed_family(corpus_ring, ZARISKI)
    assert fam.sets == loci_of_ideals(corpus_ring)


def _sample_elements(factor):
    """Every element of a finite factor; a spread of fractions for Zloc(p)."""
    if factor.is_finite:
        return factor.elements()
    values = (0, 1, factor.p, 4, 6, Fraction(1, 2), Fraction(1, 3), Fraction(4, 3))
    return tuple(factor.element(v) for v in values
                 if Fraction(v).denominator % factor.p)


@pytest.mark.parametrize("text", [
    "Zloc(2) * Zloc(2) * Zloc(2)",
    "Zloc(2) * Z/6",
    "Zloc(3) * Zloc(2) * Z/4",
    "Zloc(2) * GF(4)",
])
def test_product_vanishing_sets_match_definition(text):
    """The factor-wise V(I) and V(f) of infinite products equal the sets
    {p : I in p} over every enumerated ideal and {p : f in p} over tuples."""
    ring = parse_ring(text)
    assert _ideal_sets(ring) == {mask_points(ring, vanishing_locus(i))
                                 for i in enumerate_ideals(ring)}
    tuples = [ring.element(combo) for combo in
              itertools.product(*(_sample_elements(f) for f in ring.factors))]
    assert _principal_sets(ring) == loci_of_elements(ring, tuples)


@pytest.mark.parametrize("text", ["Zloc(2) * Z/3", "Zloc(3) * Z/4 * Zloc(2)", ZLOC_POWERS[5]])
def test_shifted_tables_hold_the_unions_over_factor_products(text):
    ring = parse_ring(text)
    assert _principal_sets(ring) == factorwise_unions(ring, _principal_sets)
    assert _ideal_sets(ring) == factorwise_unions(ring, _ideal_sets)


def test_an_infinite_product_lists_each_factors_primes_once(monkeypatch):
    listed = []
    primes_of = LocalIdeal.primes_of.__func__

    def counted(cls, ring):
        listed.append(ring)
        return primes_of(cls, ring)

    monkeypatch.setattr(LocalIdeal, "primes_of", classmethod(counted))
    ring = parse_ring(ZLOC_POWERS[5])
    enumerate_spectrum(ring)
    for topology in TOPOLOGIES:
        closed_family(ring, topology)
    # The six equal factors are one instance, so its primes are listed once.
    assert listed == [ring.factors[0]]


def test_principal_vanishing_sets_cover_mixed_product():
    mixed = parse_ring("Zloc(2) * Z/3")
    got = {frozenset(p.label() for p in s) for s in _principal_sets(mixed)}
    assert len(got) == 6  # 3 shapes from Zloc(2) times 2 from Z/3


def test_spectrum_too_large_guard():
    factors = [LocalizedIntegerRing(2)] * 9  # 18 spectrum points
    big = product_ring(factors)
    assert len(enumerate_spectrum(big)) == 18
    with pytest.raises(SpectrumTooLarge):
        closed_family(big, PATCH)


def test_closure_operator_theorems(corpus_ring):
    """Generalization closures of Zariski closed sets are flat closed;
    specialization closures of patch closed sets are Zariski closed."""
    zfam = closed_family(corpus_ring, ZARISKI)
    ffam = closed_family(corpus_ring, FLAT)
    pfam = closed_family(corpus_ring, PATCH)
    points = pfam.spectrum.points
    for E in zfam.sets:
        assert generalizations_of(points, E) in ffam.sets
    for E in pfam.sets:
        assert specializations_of(points, E) in zfam.sets


# Up to 12 points, in products of localized and finite factors.
ORACLE_TEXTS = CORPUS_TEXTS + SMALL_FINITE_TEXTS + (
    "Zloc(2) * Zloc(2) * Zloc(2)",
    "Zloc(2) * Z/6",
    "Zloc(3) * Z/4 * Zloc(2)",
    ZLOC_POWERS[5],
)


@pytest.mark.parametrize("text", ORACLE_TEXTS)
def test_closed_family_matches_topology_oracle(text):
    """Each family equals the one its sub-basis generates by definition,
    from the V(f) or from the V(I); for patch the oracle takes every
    D(f) & V(g), not the D(f) and V(g)."""
    ring = parse_ring(text)
    points = enumerate_spectrum(ring).points
    full = frozenset(points)
    vsets = loci_of_elements(ring, sample_elements(ring))
    dsets = {full - v for v in vsets}
    subbases = {ZARISKI: dsets, FLAT: vsets, PATCH: {d & v for d in dsets for v in vsets}}
    for topology, subbasis in subbases.items():
        assert closed_family(ring, topology).sets == oracle_closed_sets(points, subbasis), (
            topology)
    vsets = loci_of_ideals(ring)
    ideal_families = dict(zip((ZARISKI, FLAT), ideal_basis_families(ring)))
    for topology, subbasis in ((ZARISKI, {full - v for v in vsets}), (FLAT, vsets)):
        assert ideal_families[topology].sets == oracle_closed_sets(points, subbasis), (
            topology, "V(I)")


def test_the_oracles_cut_keeps_zero_unit_and_p_in_each_local_slot():
    # The V(I) oracle above reads these lists, so each localized slot
    # must keep (0), (1) and (p), and (0) is the level inf, not a level <= 1.
    assert [i.label() for i in ideals_cut_at_one(parse_ring("Zloc(2)"))] == ["(0)", "(1)", "(2)"]
    power = ideals_cut_at_one(parse_ring(" * ".join(["Zloc(2)"] * 6)))
    assert len(set(power)) == len(power) == 3 ** 6


def _z30_family(*point_sets):
    sp = enumerate_spectrum(parse_ring("Z/30"))
    pts = {p.label(): p for p in sp.points}
    masks = {sp.mask_of(pts[label] for label in s) for s in point_sets}
    return ClosedFamily(ZARISKI, sp.table_of(masks), sp)


@pytest.mark.parametrize("point_sets, message", [
    # {(2)} | {(3)} is missing
    (((), ("(2)",), ("(3)",), ("(2)", "(3)", "(5)")), "union/intersection"),
    # {(2), (3)} & {(3), (5)} = {(3)} is missing
    (((), ("(2)", "(3)"), ("(3)", "(5)"), ("(2)", "(3)", "(5)")), "union/intersection"),
    # the empty set is missing
    ((("(2)",), ("(2)", "(3)", "(5)")), "empty set"),
    # the whole space is missing
    (((), ("(2)",), ("(2)", "(3)")), "empty set"),
], ids=["union-gap", "intersection-gap", "no-empty-set", "no-whole-space"])
def test_validate_rejects_non_lattices(point_sets, message):
    with pytest.raises(AssertionError, match=message):
        _z30_family(*point_sets).validate()


@pytest.mark.parametrize("factors", [7, 8])
def test_patch_family_at_fourteen_and_sixteen_points(factors):
    # 8 factors give 16 points, the MAX_FAMILY_POINTS bound itself
    ring = product_ring([LocalizedIntegerRing(2)] * factors)
    assert len(enumerate_spectrum(ring)) == 2 * factors
    assert len(closed_family(ring, PATCH).sets) == 2 ** (2 * factors)


@pytest.mark.parametrize("text", ["Z/12", "Zloc(2) * Zloc(2) * Zloc(2)"])
def test_a_spectrum_lives_on_its_ring_and_dies_with_it(text):
    ring = parse_ring(text)
    assert enumerate_spectrum(ring) is enumerate_spectrum(ring)
    for topology in TOPOLOGIES:
        closed_family(ring, topology)
    spectrum = weakref.ref(enumerate_spectrum(ring))
    del ring
    gc.collect()
    assert spectrum() is None


def _label_key(sp, mask):
    labels = sp.labels_of(mask)
    return len(labels), labels


@pytest.mark.parametrize("text", sorted(
    set(GOLDEN_TEXTS) | set(CORPUS_TEXTS) | set(SMALL_FINITE_TEXTS)
) + [" * ".join(["Zloc(2)"] * 8)])
def test_mask_key_sorts_point_sets_by_size_then_labels(text):
    # Every point set of a spectrum of at most 10 points, a seeded sample
    # of larger ones.
    sp = enumerate_spectrum(parse_ring(text))
    masks = range(1 << len(sp))
    if len(sp) > 10:
        masks = random.Random(len(sp)).sample(masks, 2000) + [0, sp.full]
    assert (sorted(masks, key=sp.mask_key)
            == sorted(masks, key=lambda m: _label_key(sp, m)))
