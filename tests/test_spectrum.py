"""Spectra, the three topologies, stability predicates and closures."""

from __future__ import annotations

import gc
import itertools
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
    flat_point_closure,
    generalization_closure,
    ideal_from_generators,
    is_prime_ideal,
    is_stable_generalization,
    is_stable_specialization,
    parse_ideal_label,
    parse_ring,
    principal_ideal,
    product_ring,
    specialization_closure,
    vanishing_locus,
)
from spectop.ideals import LocalIdeal, ProductIdeal
from spectop.spectrum import (
    TOPOLOGIES,
    ClosedFamily,
    ideal_vanishing_sets,
    principal_vanishing_sets,
)

from conftest import (
    CORPUS_TEXTS,
    GOLDEN_TEXTS,
    SMALL_FINITE_TEXTS,
    ZLOC_POWERS,
    brute_force_ideals,
    brute_force_is_prime,
    factorwise_unions,
    oracle_closed_sets,
)


def _locus_labels(points):
    return sorted(p.label() for p in points)


def test_spectrum_frozen_examples():
    sp = enumerate_spectrum(parse_ring("Z/12"))
    assert [p.label() for p in sp.points] == ["(2)", "(3)"]
    assert sp.minimal_points() == sp.maximal_points() == sp.as_set()

    sp4 = enumerate_spectrum(parse_ring("GF(4)"))
    assert [p.label() for p in sp4.points] == ["(0)"]

    spl = enumerate_spectrum(parse_ring("Zloc(2)"))
    assert [p.label() for p in spl.points] == ["(0)", "(2)"]
    zero, two = spl.points
    assert spl.leq(zero, two) and not spl.leq(two, zero)
    assert zero in spl.minimal_points() and zero not in spl.maximal_points()
    assert two in spl.maximal_points() and two not in spl.minimal_points()


@pytest.mark.parametrize("text", ["Z/12", "GF(4)", "Zloc(2)", "Z/2 * Z/2 * Z/2"])
def test_points_are_the_prime_ideals(text):
    ring = parse_ring(text)
    assert set(enumerate_spectrum(ring).points) == {
        i for i in enumerate_ideals(ring) if is_prime_ideal(i)}


def test_product_points_are_their_parsed_labels():
    ring = parse_ring("Zloc(2) * Z/3")
    for p in enumerate_spectrum(ring).points:
        assert p == parse_ideal_label(ring, p.label())


def test_spectrum_of_bits_ring_is_refused():
    with pytest.raises(UnsupportedForPresentation):
        enumerate_spectrum(parse_ring("EvBits"))


def test_spectrum_primality_is_exhaustive(finite_ring):
    sp = enumerate_spectrum(finite_ring)
    primes = {p.elements for p in sp.points}
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
        assert {p.elements for p in sp.points} == by_hand, text
        assert len(sp) == len(prod.factors), text


def test_mixed_product_spectrum_shape():
    sp = enumerate_spectrum(parse_ring("Zloc(2) * Z/3"))
    labels = [p.label() for p in sp.points]
    assert labels == ["(0) x (1)", "(1) x (0)", "(2) x (1)"]
    pts = {p.label(): p for p in sp.points}
    assert sp.leq(pts["(0) x (1)"], pts["(2) x (1)"])
    assert not sp.leq(pts["(0) x (1)"], pts["(1) x (0)"])
    assert pts["(1) x (0)"] in sp.minimal_points() & sp.maximal_points()


def test_vanishing_locus_frozen_examples():
    z12 = parse_ring("Z/12")
    four = principal_ideal(z12, z12.element(4))
    assert _locus_labels(vanishing_locus(z12, four)) == ["(2)"]
    assert len(vanishing_locus(z12, ideal_from_generators(z12, []))) == 2
    assert vanishing_locus(z12, principal_ideal(z12, z12.one)) == frozenset()


def test_nonvanishing_locus_is_complement():
    from spectop import nonvanishing_locus
    z12 = parse_ring("Z/12")
    sp = enumerate_spectrum(z12)
    for f in z12.elements():
        d = nonvanishing_locus(z12, f)
        v = vanishing_locus(z12, principal_ideal(z12, f))
        assert d == sp.as_set() - v


def test_flat_point_closure():
    zl = parse_ring("Zloc(2)")
    sp = enumerate_spectrum(zl)
    zero, two = sp.points
    assert flat_point_closure(zl, two) == frozenset({zero, two})
    assert flat_point_closure(zl, zero) == frozenset({zero})
    z12 = parse_ring("Z/12")
    for p in enumerate_spectrum(z12).points:
        assert flat_point_closure(z12, p) == frozenset({p})


def test_stability_predicates():
    zl = parse_ring("Zloc(2)")
    sp = enumerate_spectrum(zl)
    zero, two = sp.points
    assert is_stable_generalization(zl, {zero})
    assert not is_stable_generalization(zl, {two})
    assert is_stable_specialization(zl, {two})
    assert not is_stable_specialization(zl, {zero})
    assert is_stable_generalization(zl, frozenset())
    assert is_stable_specialization(zl, frozenset())


def test_closure_operators_on_local_ring():
    zl = parse_ring("Zloc(2)")
    sp = enumerate_spectrum(zl)
    zero, two = sp.points
    assert generalization_closure(zl, {two}) == frozenset({zero, two})
    assert specialization_closure(zl, {zero}) == frozenset({zero, two})
    assert generalization_closure(zl, ()) == frozenset()
    assert specialization_closure(zl, ()) == frozenset()


def test_closure_operators_on_mixed_product():
    mixed = parse_ring("Zloc(2) * Z/3")
    sp = enumerate_spectrum(mixed)
    pts = {p.label(): p for p in sp.points}
    g, m = pts["(0) x (1)"], pts["(2) x (1)"]
    assert generalization_closure(mixed, {m}) == frozenset({g, m})
    assert specialization_closure(mixed, {g}) == frozenset({g, m})


@given(st.sampled_from(CORPUS_TEXTS + ZLOC_POWERS), st.data())
def test_mask_predicates_match_cone_unions(text, data):
    """The mask closures and stability tests agree with the unions of the
    cones, and the cones with ideal inclusion."""
    ring = parse_ring(text)
    sp = enumerate_spectrum(ring)
    points = data.draw(st.frozensets(st.sampled_from(sp.points)))
    gen = frozenset().union(*(sp.generalizations(p) for p in points))
    spec = frozenset().union(*(sp.specializations(p) for p in points))
    assert gen == {q for q in sp.points if any(q.issubset(p) for p in points)}
    assert spec == {q for q in sp.points if any(p.issubset(q) for p in points)}
    assert generalization_closure(ring, points) == gen
    assert specialization_closure(ring, points) == spec
    assert is_stable_generalization(ring, points) == (gen == points)
    assert is_stable_specialization(ring, points) == (spec == points)


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
        assert vanishing_locus(ring, ideal) == {p for p in pts if ideal.issubset(p)}


@given(st.sampled_from(CORPUS_TEXTS + SMALL_FINITE_TEXTS + ZLOC_POWERS + ("Z/1",)))
def test_stable_tables_hold_the_fixed_points_of_the_closures(text):
    sp = enumerate_spectrum(parse_ring(text))
    masks = range(1 << len(sp))
    assert sp.down_table == sp._table_of(m for m in masks if sp.down_closure(m) == m)
    assert sp.up_table == sp._table_of(m for m in masks if sp.up_closure(m) == m)


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
    first = closed_family(corpus_ring, topology, use_ideal_basis=True)
    second = closed_family(corpus_ring, topology, use_ideal_basis=True)
    assert first is not second and first == second


def test_closed_family_rejects_foreign_points():
    fam = closed_family(parse_ring("Z/6"), ZARISKI)
    foreign = enumerate_spectrum(parse_ring("Z/10")).points[1]
    assert frozenset() in fam and fam.spectrum.points in fam
    assert {foreign} not in fam
    assert (*fam.spectrum.points, foreign) not in fam


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
    full = pfam.spectrum.as_set()
    # patch closed family is the full power set on a finite spectrum
    assert len(pfam.sets) == 2 ** len(full)
    # flat closed = patch closed and stable under generalization
    assert ffam.sets == frozenset(
        s for s in pfam.sets if is_stable_generalization(corpus_ring, s))
    # zariski closed = patch closed and stable under specialization
    assert zfam.sets == frozenset(
        s for s in pfam.sets if is_stable_specialization(corpus_ring, s))
    # patch refines both
    assert zfam.sets <= pfam.sets and ffam.sets <= pfam.sets


def test_subbasis_and_ideal_basis_agree(corpus_ring):
    for topology in (FLAT, ZARISKI):
        a = closed_family(corpus_ring, topology).sets
        b = closed_family(corpus_ring, topology, use_ideal_basis=True).sets
        assert a == b


def test_zariski_closed_sets_are_vanishing_loci(corpus_ring):
    fam = closed_family(corpus_ring, ZARISKI)
    assert fam.sets == ideal_vanishing_sets(corpus_ring)


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
    points = enumerate_spectrum(ring).points
    assert ideal_vanishing_sets(ring) == {
        vanishing_locus(ring, i) for i in enumerate_ideals(ring)}
    tuples = [ring.element(combo) for combo in
              itertools.product(*(_sample_elements(f) for f in ring.factors))]
    assert principal_vanishing_sets(ring) == {
        frozenset(p for p in points if p.contains(f)) for f in tuples}


@pytest.mark.parametrize("text", ["Zloc(2) * Z/3", "Zloc(3) * Z/4 * Zloc(2)", ZLOC_POWERS[5]])
def test_shifted_tables_hold_the_unions_over_factor_products(text):
    ring = parse_ring(text)
    assert principal_vanishing_sets(ring) == factorwise_unions(ring, principal_vanishing_sets)
    assert ideal_vanishing_sets(ring) == factorwise_unions(ring, ideal_vanishing_sets)


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
    got = {frozenset(p.label() for p in s)
           for s in principal_vanishing_sets(mixed)}
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
    for E in zfam.sets:
        assert generalization_closure(corpus_ring, E) in ffam.sets
    for E in pfam.sets:
        assert specialization_closure(corpus_ring, E) in zfam.sets


# Up to 12 points, in products of localized and finite factors.
ORACLE_TEXTS = CORPUS_TEXTS + SMALL_FINITE_TEXTS + (
    "Zloc(2) * Zloc(2) * Zloc(2)",
    "Zloc(2) * Z/6",
    "Zloc(3) * Z/4 * Zloc(2)",
    ZLOC_POWERS[5],
)


@pytest.mark.parametrize("text", ORACLE_TEXTS)
def test_closed_family_matches_topology_oracle(text):
    """Each family equals the one its sub-basis generates by definition;
    for patch the oracle takes every D(f) & V(g), not the D(f) and V(g)."""
    ring = parse_ring(text)
    points = enumerate_spectrum(ring).points
    full = frozenset(points)
    for use_ideal_basis in (False, True):
        vsets = (ideal_vanishing_sets(ring) if use_ideal_basis
                 else principal_vanishing_sets(ring))
        dsets = {full - v for v in vsets}
        subbases = {ZARISKI: dsets, FLAT: vsets,
                    PATCH: {d & v for d in dsets for v in vsets}}
        for topology, subbasis in subbases.items():
            fam = closed_family(ring, topology, use_ideal_basis=use_ideal_basis)
            assert fam.sets == oracle_closed_sets(points, subbasis), (
                topology, use_ideal_basis)


def _z30_family(*point_sets):
    sp = enumerate_spectrum(parse_ring("Z/30"))
    pts = {p.label(): p for p in sp.points}
    masks = {sp._mask_of(pts[label] for label in s) for s in point_sets}
    return ClosedFamily(ZARISKI, sp._table_of(masks), sp)


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
    labels = sp._labels_of(mask)
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
    assert (sorted(masks, key=sp._mask_key)
            == sorted(masks, key=lambda m: _label_key(sp, m)))
