"""Flatness and projectivity of cyclic quotients R/I, with witnesses.

The criterion used throughout: R/I is flat exactly when Ann(f) + I = R for
every f in I, equivalently when each f has a pair (a, b) with a*f = 0,
b in I and a + b = 1.  Certificates record such pairs so they can be
re-verified independently of the search that produced them.

Projectivity of a cyclic quotient is decided as "I is generated by a
single idempotent", which coincides with categorical projectivity for
cyclic modules over a commutative ring and is decidable here.

Nothing here depends on how an ideal is represented, except that
:func:`support_of_ideal` reads the annihilator mask of a finite ideal's
least generator off its ring's index kernel.  Each ideal class in
``ideals`` supplies its certificate samples, a flat witness for each
sample and the certificate note; ``Ideal.flat_search`` is the one loop
over the samples and their witnesses, which a product ideal assembles from
its components' searches, and :func:`is_cyclic_flat` turns its result into
the certificate.  The idempotent generator is defined once on ``Ideal``,
as the first idempotent e with Re = I; only the bits ring's ideals supply
their own.

The certificate of an ideal is computed once per ideal object and kept
on it, so the checks that read the flatness of the same enumerated ideal
or flat kernel share one search.
"""

from __future__ import annotations

from .errors import NotGenStable, NotZariskiClosed
from .ideals import (
    Ideal,
    annihilator,
    ideal_sum,
    intersect_all,
    saturation_kernel,
)
from .rings import IndexKernel, Record, memoized
from .spectrum import enumerate_spectrum, vanishing_locus

__all__ = [
    "FlatnessCertificate",
    "flat_ideal_from_closed_mask",
    "is_cyclic_flat",
    "is_cyclic_projective",
    "support_of_ideal",
]


class FlatnessCertificate(Record):
    """Verdict plus re-checkable evidence for the flatness of R/I.

    When flat, ``witnesses`` holds triples (f, a, b) with a*f = 0, b in I,
    a + b = 1, one triple per witness sample of I; for finite rings that is
    one triple per element of I.
    When not flat, ``failing`` is an element of I whose annihilator sums
    with I to a proper ideal.  ``note`` explains symbolic verdicts.
    """

    __slots__ = ("ideal", "verdict", "witnesses", "failing", "note")
    _defaults = {"witnesses": (), "failing": None, "note": None}

    def verify(self) -> bool:
        """Re-check the recorded evidence by direct arithmetic."""
        ring = self.ideal.ring
        if self.verdict:
            for f, a, b in self.witnesses:
                if a * f != ring.zero or not self.ideal.contains(b) or a + b != ring.one:
                    return False
            if {f for f, _, _ in self.witnesses} != set(self.ideal.witness_samples()):
                return False
            return True
        if self.failing is None or not self.ideal.contains(self.failing):
            return False
        return not ideal_sum(annihilator(self.failing), self.ideal).is_whole()


@memoized("flatness")
def is_cyclic_flat(ideal: Ideal) -> FlatnessCertificate:
    """Decide flatness of R/I and produce a certificate.

    One generic search, ``Ideal.flat_search``: the first witness sample
    of the ideal without a flat witness fails, otherwise the witnesses
    are collected.  Over a finite ring the samples are all of I, so the
    verdict is a complete search; symbolic ideals sample a schema of
    their elements, and a product splices its components' searches into
    their slots.
    """
    witnesses, failing = ideal.flat_search()
    if failing is not None:
        return FlatnessCertificate(ideal, False, failing=failing, note=ideal.flat_note(failing))
    return FlatnessCertificate(ideal, True, witnesses, note=ideal.flat_note(None))


def is_cyclic_projective(ideal: Ideal) -> bool:
    return ideal.idempotent_generator() is not None


def support_of_ideal(ideal: Ideal) -> int:
    """Supp(I) = {p : the localization of I at p is nonzero}, as a mask
    over the spectrum's points.

    Computed as the primes containing Ann(f) for some f in I; it always
    contains the complement of V(I) and equals it when R/I is flat.  Over
    a finite ring I = Rg for its least generator g, and Ann(g) lies in
    every Ann(rg), so the union is V(Ann(g)), read off one mask of the
    ring's index kernel.  Otherwise the witness samples give the same
    union: over the localized integers Ann(f) is R or (0) as f is zero or
    not, and a prime of an infinite product is proper in one slot only,
    where it meets the annihilator of that component of f.
    """
    ring = ideal.ring
    sp = enumerate_spectrum(ring)
    if ring.is_finite:
        k = ring.index_kernel
        ann = k.anns[k.generator_of[ideal.mask]]
        return IndexKernel.mask(i for i, p in enumerate(sp.points) if not ann & ~p.mask)
    anns = [annihilator(f) for f in ideal.witness_samples()]
    return IndexKernel.mask(
        i for i, p in enumerate(sp.points) if any(a.issubset(p) for a in anns))


def flat_ideal_from_closed_mask(ring, mask: int) -> Ideal:
    """Given a Zariski closed, generalization stable set E, as a mask over
    the spectrum's points, an ideal J with V(J) = E and R/J flat.

    E is realized as V of the intersection of its primes; J is the kernel
    of localization at 1 plus that intersection.  Both postconditions are
    re-checked before returning, and a violation raises AssertionError.
    An int that is no mask over the spectrum raises ValueError.
    """
    sp = enumerate_spectrum(ring)
    sp.check_mask(mask)
    realized = intersect_all(ring, map(sp.points.__getitem__, IndexKernel.members(mask)))
    if vanishing_locus(realized) != mask:
        raise NotZariskiClosed(
            "the set is not the vanishing locus of any ideal")
    if sp.down_closure(mask) != mask:
        raise NotGenStable("the set is not stable under generalization")
    kernel = saturation_kernel(realized)
    if vanishing_locus(kernel) != mask:
        raise AssertionError(f"the flat kernel {kernel.label()} does not vanish exactly on E")
    if not is_cyclic_flat(kernel).verdict:
        raise AssertionError(f"the quotient by the flat kernel {kernel.label()} is not flat")
    return kernel
