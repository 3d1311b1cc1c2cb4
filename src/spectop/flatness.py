"""Flatness and projectivity of cyclic quotients R/I, with witnesses.

The criterion used throughout: R/I is flat exactly when Ann(f) + I = R for
every f in I, equivalently when each f has a pair (a, b) with a*f = 0,
b in I and a + b = 1.  Certificates record such pairs so they can be
re-verified independently of the search that produced them.

Projectivity of a cyclic quotient is decided as "I is generated by a
single idempotent", which coincides with categorical projectivity for
cyclic modules over a commutative ring and is decidable here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFlat, NotGenStable, NotZariskiClosed
from .ideals import (
    BoolFiniteSupportIdeal,
    BoolPrincipalIdeal,
    ExplicitIdeal,
    Ideal,
    LocalIdeal,
    ProductIdeal,
    annihilator,
    ideal_intersection,
    ideal_sum,
    principal_ideal,
    saturation_kernel,
    unit_ideal,
)
from .rings import Element, idempotents
from .spectrum import (
    PrimePoint,
    embed_factor_prime,
    enumerate_spectrum,
    is_stable_generalization,
    vanishing_locus,
)

__all__ = [
    "FlatnessCertificate",
    "common_multiplier",
    "flat_ideal_from_closed_set",
    "flat_witness",
    "idempotent_generator",
    "is_cyclic_flat",
    "is_cyclic_projective",
    "support_of_ideal",
]


@dataclass(frozen=True)
class FlatnessCertificate:
    """Verdict plus re-checkable evidence for the flatness of R/I.

    When flat, ``witnesses`` holds triples (f, a, b) with a*f = 0, b in I,
    a + b = 1; for finite rings there is one triple per element of I.
    When not flat, ``failing`` is an element of I whose annihilator sums
    with I to a proper ideal.  ``note`` explains symbolic verdicts.
    """

    ideal: Ideal
    verdict: bool
    witnesses: tuple[tuple[Element, Element, Element], ...] = ()
    failing: Element | None = None
    note: str | None = None

    def verify(self) -> bool:
        """Re-check the recorded evidence by direct arithmetic."""
        ring = self.ideal.ring
        if self.verdict:
            for f, a, b in self.witnesses:
                if a * f != ring.zero or not self.ideal.contains(b) or a + b != ring.one:
                    return False
            if isinstance(self.ideal, ExplicitIdeal):
                covered = {f for f, _, _ in self.witnesses}
                if covered != set(self.ideal.elements):
                    return False
            return True
        if self.failing is None or not self.ideal.contains(self.failing):
            return False
        return not ideal_sum(annihilator(self.failing), self.ideal).is_whole()


def _witness_samples(ideal: Ideal) -> tuple[Element, ...]:
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        return tuple(ideal.sorted_elements())
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None:
            return (ring.zero,)
        if ideal.level == 0:
            return (ring.zero, ring.one)
        return (ring.element(ring.p ** ideal.level),)
    if isinstance(ideal, BoolPrincipalIdeal):
        return (ideal.generator,)
    if isinstance(ideal, BoolFiniteSupportIdeal):
        return tuple(ring.indicator(range(1, n + 1)) for n in (1, 2, 3))
    if isinstance(ideal, ProductIdeal):
        out = []
        for i, comp in enumerate(ideal.components):
            for f in _witness_samples(comp):
                value = [c.ring.zero.value for c in ideal.components]
                value[i] = f.value
                out.append(Element(ring, tuple(value)))
        return tuple(out)
    raise AssertionError(f"unhandled ideal kind {type(ideal).__name__}")


def flat_witness(ideal: Ideal, f: Element) -> tuple[Element, Element] | None:
    """A pair (a, b) with a*f = 0, b in I, a + b = 1, or None if none exists.

    Over a finite ring a is the first annihilator of f, in the canonical
    element order, whose complement 1 - a lies in I, so the witness for a
    given (I, f) is deterministic.
    """
    ring = ideal.ring
    if not ideal.contains(f):
        raise ValueError(f"{f} does not belong to {ideal.label()}")
    if isinstance(ideal, ExplicitIdeal):
        for a in ring.elements():
            if a * f == ring.zero and ideal.contains(ring.one - a):
                return (a, ring.one - a)
        return None
    if isinstance(ideal, LocalIdeal):
        if f == ring.zero:
            return (ring.one, ring.zero)
        if ideal.level == 0:
            return (ring.zero, ring.one)
        return None
    if isinstance(ideal, (BoolPrincipalIdeal, BoolFiniteSupportIdeal)):
        return (ring.one - f, f)
    if isinstance(ideal, ProductIdeal):
        parts = []
        for i, comp in enumerate(ideal.components):
            w = flat_witness(comp, ideal.ring.component(f, i))
            if w is None:
                return None
            parts.append(w)
        a = Element(ring, tuple(w[0].value for w in parts))
        b = Element(ring, tuple(w[1].value for w in parts))
        return (a, b)
    raise AssertionError(f"unhandled ideal kind {type(ideal).__name__}")


def is_cyclic_flat(ideal: Ideal) -> FlatnessCertificate:
    """Decide flatness of R/I and produce a certificate.

    Over a finite ring every element of I is tested, so the verdict is a
    complete search.  Symbolic ideals get a schema verdict: in the bits
    ring 1-f annihilates f for every f, and over the localized integers
    the annihilator of a nonzero element is zero.
    """
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        witnesses = []
        for f in _witness_samples(ideal):
            w = flat_witness(ideal, f)
            if w is None:
                return FlatnessCertificate(ideal, False, failing=f)
            witnesses.append((f, *w))
        return FlatnessCertificate(ideal, True, tuple(witnesses))
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None or ideal.level == 0:
            witnesses = tuple((f, *flat_witness(ideal, f)) for f in _witness_samples(ideal))
            return FlatnessCertificate(
                ideal, True, witnesses,
                note="the zero and unit ideals always give flat quotients")
        failing = ring.element(ring.p ** ideal.level)
        return FlatnessCertificate(
            ideal, False, failing=failing,
            note="a nonzero element of a domain has zero annihilator")
    if isinstance(ideal, (BoolPrincipalIdeal, BoolFiniteSupportIdeal)):
        witnesses = tuple((f, *flat_witness(ideal, f)) for f in _witness_samples(ideal))
        return FlatnessCertificate(
            ideal, True, witnesses,
            note="Boolean schema: 1-f annihilates f and f+(1-f)=1 for every f in I")
    if isinstance(ideal, ProductIdeal):
        for i, comp in enumerate(ideal.components):
            sub = is_cyclic_flat(comp)
            if not sub.verdict:
                value = [c.ring.zero.value for c in ideal.components]
                value[i] = sub.failing.value
                return FlatnessCertificate(
                    ideal, False, failing=Element(ring, tuple(value)),
                    note=f"component {i} is not flat")
        witnesses = tuple((f, *flat_witness(ideal, f)) for f in _witness_samples(ideal))
        return FlatnessCertificate(
            ideal, True, witnesses, note="componentwise flatness of a product")
    raise AssertionError(f"unhandled ideal kind {type(ideal).__name__}")


def common_multiplier(ideal: Ideal, elements) -> Element:
    """Some g in I with f*g = f for every listed f; requires R/I flat.

    Pairs are folded left to right through g, h -> g + h - g*h, so the
    result is deterministic in the input order.
    """
    cert = is_cyclic_flat(ideal)
    if not cert.verdict:
        raise NotFlat(f"the quotient by {ideal.label()} is not flat")
    ring = ideal.ring
    g = ring.zero
    for f in elements:
        f = ring.element(f)
        witness = flat_witness(ideal, f)
        h = witness[1]  # f = f*(1-a) = f*h
        g = g + h - g * h
    return g


def idempotent_generator(ideal: Ideal) -> Element | None:
    """An idempotent e with I = Re, or None when no single one generates I."""
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        for e in idempotents(ring):
            if principal_ideal(ring, e) == ideal:
                return e
        return None
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None:
            return ring.zero
        if ideal.level == 0:
            return ring.one
        return None
    if isinstance(ideal, BoolPrincipalIdeal):
        return ideal.generator
    if isinstance(ideal, BoolFiniteSupportIdeal):
        # Any candidate g lies in the ideal, hence has bounded support,
        # and then Rg omits indicators of larger sets.
        return None
    if isinstance(ideal, ProductIdeal):
        parts = []
        for comp in ideal.components:
            e = idempotent_generator(comp)
            if e is None:
                return None
            parts.append(e)
        return Element(ring, tuple(e.value for e in parts))
    raise AssertionError(f"unhandled ideal kind {type(ideal).__name__}")


def is_cyclic_projective(ideal: Ideal) -> bool:
    return idempotent_generator(ideal) is not None


def support_of_ideal(ideal: Ideal) -> frozenset[PrimePoint]:
    """Supp(I) = {p : the localization of I at p is nonzero}.

    Computed as the primes containing Ann(f) for some f in I; it always
    contains the complement of V(I) and equals it when R/I is flat.
    """
    ring = ideal.ring
    if isinstance(ideal, ProductIdeal) and not ring.is_finite:
        out: set[PrimePoint] = set()
        sp = enumerate_spectrum(ring)
        for i, comp in enumerate(ideal.components):
            for q in support_of_ideal(comp):
                out.add(sp.point_of(embed_factor_prime(ring, i, q.ideal)))
        return frozenset(out)
    sp = enumerate_spectrum(ring)
    if isinstance(ideal, ExplicitIdeal):
        anns = [frozenset(x for x in ring.elements() if x * f == ring.zero)
                for f in ideal.elements]
        return frozenset(
            p for p in sp.points if any(a <= p.ideal.elements for a in anns))
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None:
            return frozenset()
        return sp.as_set()
    raise AssertionError(f"unhandled ideal kind {type(ideal).__name__}")


def flat_ideal_from_closed_set(ring, points) -> Ideal:
    """Given a Zariski closed, generalization stable set E, an ideal J with
    V(J) = E and R/J flat.

    E is realized as V of the intersection of its primes; J is the kernel
    of localization at 1 plus that intersection.  Both postconditions are
    re-checked before returning, and a violation raises AssertionError.
    """
    sp = enumerate_spectrum(ring)
    E = frozenset(points)
    if not E <= sp.as_set():
        raise ValueError("the given points do not belong to this spectrum")
    realized = unit_ideal(ring)
    for p in E:
        realized = ideal_intersection(realized, p.ideal)
    if vanishing_locus(ring, realized) != E:
        raise NotZariskiClosed(
            "the set is not the vanishing locus of any ideal")
    if not is_stable_generalization(ring, E):
        raise NotGenStable("the set is not stable under generalization")
    kernel = saturation_kernel(realized)
    if vanishing_locus(ring, kernel) != E:
        raise AssertionError(f"the flat kernel {kernel.label()} does not vanish exactly on E")
    if not is_cyclic_flat(kernel).verdict:
        raise AssertionError(f"the quotient by the flat kernel {kernel.label()} is not flat")
    return kernel
