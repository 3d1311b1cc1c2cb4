"""Prime spectra and their Zariski, flat and patch topologies.

The spectrum of a supported ring is materialized as a finite poset of
prime ideals under inclusion.  The three topologies are generated from
their sub-bases of open sets:

* Zariski: the complements D(f) of the principal vanishing sets,
* flat:    the principal vanishing sets V(f) themselves,
* patch:   the D(f) and the V(g) together.  Both kinds contain the whole
           space, so they generate the same topology as all D(f) & V(g).

Families of closed sets are materialized in full, as the unions of point
closures, which keeps every "for all closed E" statement finitely
checkable.  Generation is refused above ``MAX_FAMILY_POINTS`` spectrum
points since the families grow like the power set.  Infinite products
take their vanishing sets V(f) and V(I) factor by factor, as their
spectra are the disjoint unions of the factor spectra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SpectrumTooLarge, UnsupportedForPresentation
from .ideals import (
    Ideal,
    LocalIdeal,
    ProductIdeal,
    enumerate_ideals,
    is_prime_ideal,
    unit_ideal,
)
from .rings import (
    Element,
    LocalizedIntegerRing,
    ProductRing,
    Ring,
)

__all__ = [
    "FLAT",
    "MAX_FAMILY_POINTS",
    "PATCH",
    "TOPOLOGIES",
    "ZARISKI",
    "ClosedFamily",
    "PrimePoint",
    "SpectrumPoset",
    "closed_family",
    "embed_factor_prime",
    "enumerate_spectrum",
    "flat_point_closure",
    "generalization_closure",
    "ideal_vanishing_sets",
    "is_stable_generalization",
    "is_stable_specialization",
    "nonvanishing_locus",
    "principal_vanishing_sets",
    "specialization_closure",
    "vanishing_locus",
]

ZARISKI = "zariski"
FLAT = "flat"
PATCH = "patch"
TOPOLOGIES = (ZARISKI, FLAT, PATCH)

MAX_FAMILY_POINTS = 16


@dataclass(frozen=True)
class PrimePoint:
    """A prime ideal together with its position flags in the spectrum."""

    ideal: Ideal
    is_minimal: bool = field(compare=False, default=False)
    is_maximal: bool = field(compare=False, default=False)

    def label(self) -> str:
        return self.ideal.label()

    def __repr__(self):
        return self.ideal.label()


class SpectrumPoset:
    """All prime ideals of one ring, ordered by inclusion."""

    def __init__(self, ring: Ring, prime_ideals):
        self.ring = ring
        ideals = sorted(prime_ideals, key=lambda i: i.label())
        below: dict[Ideal, set[Ideal]] = {q: set() for q in ideals}
        for p in ideals:
            for q in ideals:
                if p.issubset(q):
                    below[q].add(p)
        points = []
        for q in ideals:
            minimal = below[q] == {q}
            maximal = sum(1 for r in ideals if q in below[r]) == 1
            points.append(PrimePoint(q, minimal, maximal))
        self.points = tuple(points)
        self._by_ideal = {pt.ideal: pt for pt in self.points}
        self._down = {
            pt: frozenset(self._by_ideal[i] for i in below[pt.ideal])
            for pt in self.points
        }
        self._up = {
            pt: frozenset(q for q in self.points if pt in self._down[q])
            for pt in self.points
        }

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (isinstance(other, SpectrumPoset)
                and self.ring == other.ring
                and [p.ideal for p in self.points] == [p.ideal for p in other.points])

    def as_set(self) -> frozenset[PrimePoint]:
        return frozenset(self.points)

    def point_of(self, ideal: Ideal) -> PrimePoint:
        try:
            return self._by_ideal[ideal]
        except KeyError:
            raise ValueError(f"{ideal.label()} is not a prime of {self.ring.describe()}")

    def leq(self, p: PrimePoint, q: PrimePoint) -> bool:
        """The specialization order: p <= q iff p is contained in q."""
        return p in self._down[q]

    def generalizations(self, p: PrimePoint) -> frozenset[PrimePoint]:
        return self._down[p]

    def specializations(self, p: PrimePoint) -> frozenset[PrimePoint]:
        return self._up[p]

    def minimal_points(self) -> frozenset[PrimePoint]:
        return frozenset(p for p in self.points if p.is_minimal)

    def maximal_points(self) -> frozenset[PrimePoint]:
        return frozenset(p for p in self.points if p.is_maximal)

    def cover_edges(self) -> tuple[tuple[PrimePoint, PrimePoint], ...]:
        """Strict containments with nothing in between, sorted by label."""
        edges = []
        for p in self.points:
            for q in self.points:
                if p == q or not self.leq(p, q):
                    continue
                strictly_between = any(
                    r != p and r != q and self.leq(p, r) and self.leq(r, q)
                    for r in self.points)
                if not strictly_between:
                    edges.append((p, q))
        return tuple(sorted(edges, key=lambda e: (e[0].label(), e[1].label())))


_SPECTRA: dict[Ring, SpectrumPoset] = {}


def enumerate_spectrum(ring: Ring) -> SpectrumPoset:
    """All prime ideals with the containment order.

    Finite rings, finite products included, enumerate every ideal and
    filter by the primality predicate.  Spectra of infinite products are
    built factor-wise: a prime of a product is a prime in one slot and the
    whole ring elsewhere.
    """
    cached = _SPECTRA.get(ring)
    if cached is not None:
        return cached
    if ring.is_finite:
        primes = [i for i in enumerate_ideals(ring) if is_prime_ideal(i)]
    elif isinstance(ring, ProductRing):
        primes = []
        for i, factor in enumerate(ring.factors):
            for pt in enumerate_spectrum(factor).points:
                primes.append(embed_factor_prime(ring, i, pt.ideal))
    elif isinstance(ring, LocalizedIntegerRing):
        primes = [LocalIdeal(ring, None), LocalIdeal(ring, 1)]
    else:
        raise UnsupportedForPresentation(
            f"the spectrum of {ring.describe()} is not enumerable")
    poset = SpectrumPoset(ring, primes)
    _SPECTRA[ring] = poset
    return poset


def embed_factor_prime(ring: ProductRing, index: int, prime: Ideal) -> Ideal:
    """The prime (whole) x ... x prime x ... x (whole) of an infinite product.

    Finite products have explicit ideals and find their primes by
    enumeration instead; :class:`ProductIdeal` refuses them.
    """
    comps = [prime if i == index else unit_ideal(f)
             for i, f in enumerate(ring.factors)]
    return ProductIdeal(ring, comps)


def vanishing_locus(ring: Ring, ideal: Ideal) -> frozenset[PrimePoint]:
    """V(I): the primes containing the ideal."""
    sp = enumerate_spectrum(ring)
    return frozenset(p for p in sp.points if ideal.issubset(p.ideal))


def nonvanishing_locus(ring: Ring, f: Element) -> frozenset[PrimePoint]:
    """D(f): the primes avoiding f, the complement of V((f))."""
    sp = enumerate_spectrum(ring)
    return frozenset(p for p in sp.points if not p.ideal.contains(f))


def flat_point_closure(ring: Ring, p: PrimePoint) -> frozenset[PrimePoint]:
    """The closure of {p} in the flat topology: all generalizations of p."""
    return enumerate_spectrum(ring).generalizations(p)


def generalization_closure(ring: Ring, points) -> frozenset[PrimePoint]:
    """Union of the generalization cones of the given points."""
    sp = enumerate_spectrum(ring)
    out: set[PrimePoint] = set()
    for p in points:
        out |= sp.generalizations(p)
    return frozenset(out)


def specialization_closure(ring: Ring, points) -> frozenset[PrimePoint]:
    """Union of the vanishing sets V(p) of the given points."""
    sp = enumerate_spectrum(ring)
    out: set[PrimePoint] = set()
    for p in points:
        out |= sp.specializations(p)
    return frozenset(out)


def is_stable_generalization(ring: Ring, points) -> bool:
    points = frozenset(points)
    return generalization_closure(ring, points) == points


def is_stable_specialization(ring: Ring, points) -> bool:
    points = frozenset(points)
    return specialization_closure(ring, points) == points


# ---------------------------------------------------------------------------
# topology generation


@dataclass(frozen=True)
class ClosedFamily:
    """The closed sets of one topology over a finite spectrum."""

    topology: str
    sets: frozenset[frozenset[PrimePoint]]
    spectrum: SpectrumPoset = field(compare=False)

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self.sets

    def validate(self) -> None:
        """Check for the empty set, the space and closure under union and
        intersection: by Birkhoff, the family must equal the unions of its
        point closures cl(x), the intersections of the members holding x."""
        full = self.spectrum.as_set()
        if frozenset() not in self.sets or full not in self.sets:
            raise AssertionError("a closed family contains the empty set and the space")
        closures = {full.intersection(*(s for s in self.sets if x in s)) for x in full}
        if _unions(closures) != self.sets:
            raise AssertionError("closed family not closed under union/intersection")


def _vanishing_representatives(ring: Ring) -> tuple[Element, ...]:
    """Finitely many elements whose V(f) realize every principal vanishing set.

    For a finite ring every element is used.  Over the localized integers
    V(f) only depends on whether f is zero, a unit, or a prime multiple.
    """
    if ring.is_finite:
        return ring.elements()
    if isinstance(ring, LocalizedIntegerRing):
        return (ring.zero, ring.element(ring.p), ring.one)
    raise UnsupportedForPresentation(ring.describe())


def _factorwise_vanishing_sets(ring: ProductRing, factor_sets):
    """The unions of one realizable set per factor, its points embedded:
    (x1, ..., xk) lies in the embedded prime (..., Pi, ...) iff xi lies in
    Pi, for elements and for ideals alike."""
    sp = enumerate_spectrum(ring)
    # Each point of the product is proper in exactly one slot.
    embed = {(i, c): p for p in sp.points
             for i, c in enumerate(p.ideal.components) if not c.is_whole()}
    per_factor = [[frozenset(embed[i, q.ideal] for q in s) for s in factor_sets(factor)]
                  for i, factor in enumerate(ring.factors)]
    return frozenset(frozenset().union(*c) for c in itertools.product(*per_factor))


def principal_vanishing_sets(ring: Ring) -> frozenset[frozenset[PrimePoint]]:
    """All realizable sets V(f) = {p : f in p} for single elements f.

    Infinite products take their sets factor by factor.
    """
    if not ring.is_finite and isinstance(ring, ProductRing):
        return _factorwise_vanishing_sets(ring, principal_vanishing_sets)
    sp = enumerate_spectrum(ring)
    return frozenset(
        frozenset(p for p in sp.points if p.ideal.contains(f))
        for f in _vanishing_representatives(ring))


def ideal_vanishing_sets(ring: Ring) -> frozenset[frozenset[PrimePoint]]:
    """All realizable sets V(I) over the (finitely generated) ideals.

    Infinite products take their sets factor by factor.
    """
    if not ring.is_finite and isinstance(ring, ProductRing):
        return _factorwise_vanishing_sets(ring, ideal_vanishing_sets)
    return frozenset(vanishing_locus(ring, i) for i in enumerate_ideals(ring))


def _unions(sets) -> set[frozenset]:
    """Every union of some of the given sets, the empty union included."""
    family = {frozenset()}
    for c in sets:
        family |= {s | c for s in family}
    return family


def closed_family(ring: Ring, topology: str,
                  use_ideal_basis: bool = False) -> ClosedFamily:
    """Materialize the closed sets of the named topology.

    A finite space is fixed by the least open neighbourhood U_x of each
    point, the intersection of the sub-basic opens containing x.  The
    closure of {x} is {y : x in U_y}, and the closed sets are exactly the
    unions of point closures.  U_x is read off the sub-basis, never off
    ideal inclusion, so comparing the families with the specialization
    order (as ``topology-characterization`` does) stays a real check.

    ``use_ideal_basis`` switches to the alternative basis of V(I) over
    finitely generated ideals; both generate the same family and the
    harness asserts that agreement on every corpus ring.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    sp = enumerate_spectrum(ring)
    if len(sp) > MAX_FAMILY_POINTS:
        raise SpectrumTooLarge(
            f"{len(sp)} spectrum points exceed the bound {MAX_FAMILY_POINTS}")
    full = sp.as_set()
    vsets = ideal_vanishing_sets(ring) if use_ideal_basis else principal_vanishing_sets(ring)
    dsets = frozenset(full - v for v in vsets)
    subbasis = {ZARISKI: dsets, FLAT: vsets, PATCH: dsets | vsets}[topology]
    least_open = {x: full.intersection(*(s for s in subbasis if x in s))
                  for x in sp.points}
    closures = {frozenset(y for y in sp.points if x in least_open[y])
                for x in sp.points}
    family = ClosedFamily(topology, frozenset(_unions(closures)), sp)
    family.validate()
    return family
