"""Ideals of the supported ring presentations.

The representation follows the presentation.  An ideal of a finite ring
is a bitmask over the indices of the ring's elements.  Every finite
presentation is a principal ideal ring (Z/n, quotients of the principal
ideal domain Z/p[x], fields, and finite products of these), so its
ideals are exactly its principal ideals Rg, whose masks the ring's index
kernel holds.  Ideals of the localized integers live in the known
lattice {(0)} U {(p^k) : k >= 0}, ideals of the bits ring are either
principal or the ideal of all finitely supported elements, and ideals of
infinite products are componentwise.  The components of a product ideal
are shared: each is the one instance equal to it that its factor ring's
memo keeps, and the meets, saturation kernels and generated ideals of
components are kept on the components and factors, so a fact about a
component is found once however many products hold it.

Each representation is one class that owns all of its operations:
membership, inclusion, sum, intersection, radical, saturation kernel,
primality, and the flatness primitives (witness samples and flat
witnesses) that ``flatness`` runs generically.  :class:`Ideal` defines
the zero, whole and idempotent generator predicates once, from
membership and equality.  Each class also builds its presentation's
generated ideals, annihilators, ideal list and primes, and
:func:`ideal_class` is the one map from a presentation to its class:
``ideal_from_generators``, ``annihilator``, ``enumerate_ideals`` and
``spectrum.enumerate_spectrum`` each make one call through it.

Every ideal is immutable and compares structurally.  ``label()`` gives a
short canonical name such as ``(2)``, ``(2^3)``, ``(fin)`` or
``(0) x (1)`` that the command line layer can parse back.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from operator import attrgetter

from .errors import RingTooLarge, UnsupportedForPresentation
from .rings import (
    MAX_FAMILY_POINTS,
    Element,
    EventuallyConstantBitsRing,
    IndexKernel,
    LocalizedIntegerRing,
    ProductRing,
    Ring,
)

__all__ = [
    "BoolFiniteSupportIdeal",
    "BoolPrincipalIdeal",
    "ExplicitIdeal",
    "Ideal",
    "LocalIdeal",
    "ProductIdeal",
    "annihilator",
    "enumerate_ideals",
    "finite_support_ideal",
    "ideal_class",
    "ideal_from_generators",
    "ideal_intersection",
    "ideal_sum",
    "intersect_all",
    "is_prime_ideal",
    "prime_ideals",
    "principal_ideal",
    "radical",
    "saturation_kernel",
    "unit_ideal",
    "zero_ideal",
]


class Ideal:
    """Base class; each subclass owns one representation and its operations.

    Each constructor ends in ``_keyed``, which sets ``key``, the tuple
    that equality compares, its hash and the ``memo``.  Every subclass supplies
    ``contains``, ``issubset``, ``label``, ``plus(other)``, ``meet(other)``
    and ``radical()``, and for flatness ``witness_samples()``, the
    elements f of I whose witnesses make up a certificate, and
    ``flat_witness(f)``, a pair (a, b) with a*f = 0, b in I and a + b = 1
    or None.  The base defines ``is_zero``, ``is_whole`` and
    ``idempotent_generator`` by their definitions; only the bits ring,
    with infinitely many idempotents, overrides the last.  An operation a
    presentation does not support falls through to the default here,
    which raises :class:`UnsupportedForPresentation`.  The class methods
    ``generated_by``, ``annihilator_of``, ``enumerate_all`` and
    ``primes_of`` build the ideals of a ring that :func:`ideal_class`
    maps to the class; ``primes_of`` filters the enumeration by default.
    """

    ring: Ring
    key: tuple
    memo: dict

    def contains(self, element: Element) -> bool:
        raise NotImplementedError

    def issubset(self, other: "Ideal") -> bool:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return self == zero_ideal(self.ring)

    def is_whole(self) -> bool:
        return self.contains(self.ring.one)

    def idempotent_generator(self) -> Element | None:
        """The idempotent e with Re = I, or None; when it exists it is unique."""
        return next((e for e in self.ring.idempotents()
                     if principal_ideal(self.ring, e) == self), None)

    def label(self) -> str:
        raise NotImplementedError

    def saturation_kernel(self) -> "Ideal":
        raise UnsupportedForPresentation(
            f"saturation kernels are not computed over {self.ring.describe()}")

    def is_prime(self) -> bool:
        """Primality of an ideal already known to be proper."""
        raise UnsupportedForPresentation(
            f"primality is not decided over {self.ring.describe()}")

    def flat_note(self, failing: Element | None) -> str | None:
        """The certificate note; ``failing`` is None when R/I is flat."""
        return None

    def flat_search(self) -> tuple[tuple, Element | None]:
        """The triples (f, a, b) of the witness samples f in order, with
        (a, b) the flat witness of f, up to the first sample without one,
        and that sample, None when every sample has one.  Searched once per
        instance and kept on its memo, so a component that many products
        share is searched once."""
        memo = self.memo
        if "flat_search" not in memo:
            witnesses = []
            failing = None
            for f in self.witness_samples():
                w = self.flat_witness(f)
                if w is None:
                    failing = f
                    break
                witnesses.append((f, *w))
            memo["flat_search"] = (tuple(witnesses), failing)
        return memo["flat_search"]

    @classmethod
    def enumerate_all(cls, ring: Ring, local_level_bound: int) -> tuple["Ideal", ...]:
        raise UnsupportedForPresentation(
            f"the ideals of {ring.describe()} cannot be enumerated")

    @classmethod
    def primes_of(cls, ring: Ring) -> list["Ideal"]:
        return [i for i in enumerate_ideals(ring) if is_prime_ideal(i)]

    @classmethod
    def meet_all(cls, ring: Ring, ideals: tuple["Ideal", ...]) -> "Ideal":
        """The intersection of one or more ideals of the ring."""
        return reduce(ideal_intersection, ideals)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key == other.key

    def __hash__(self):
        return self._hash

    def _keyed(self, ring: Ring, key: tuple) -> None:
        """Finish a constructor: the ring, the key that equality compares
        and its hash, and an empty ``memo`` for the facts derived from
        this instance (the flatness search and its certificate, the
        vanishing locus and its mask, and a shared component's saturation
        kernel and meets), each computed once and dropped with it."""
        self.ring = ring
        self.key = key
        self._hash = hash(key)
        self.memo = {}

    def __repr__(self):
        return self.label()


class ExplicitIdeal(Ideal):
    """An ideal of a finite ring, stored as a bitmask over its element indices.

    Bit i of ``mask`` stands for ``ring.elements()[i]`` (see
    :class:`~spectop.rings.IndexKernel`); every operation is a table
    lookup or a mask operation, and ``elements`` is derived on first use.
    Construction takes either elements or a mask and checks that the set
    is one of the principal ideals Rg.  Every finite presentation is a
    principal ideal ring, so this holds exactly when the set is an ideal,
    and an ExplicitIdeal is an ideal by fiat.
    """

    def __init__(self, ring: Ring, elements=(), *, mask: int | None = None):
        if not ring.is_finite:
            raise UnsupportedForPresentation(
                "explicit ideals exist only over finite rings")
        k = ring.index_kernel
        if mask is None:
            mask = k.mask({k.index[ring.element(e)] for e in elements})
        elif mask < 0 or mask >> len(k.elements):
            raise ValueError("a mask has one bit per element of the ring")
        if not mask >> k.zero & 1:
            raise ValueError("an ideal contains 0")
        if mask not in k.generator_of:
            raise ValueError(_closure_failure(k, mask))
        self.mask = mask
        self._keyed(ring, ("explicit", ring, mask))

    @classmethod
    def generated_by(cls, ring, gens):
        # The least span Rg containing 0 and the span of every generator.
        k = ring.index_kernel
        mask = 1 << k.zero
        for g in gens:
            mask |= k.spans[k.index[g]]
        return ExplicitIdeal(ring, mask=_least_span(k, mask))

    @classmethod
    def annihilator_of(cls, f):
        k = f.ring.index_kernel
        return ExplicitIdeal(f.ring, mask=k.anns[k.index[f]])

    @classmethod
    def enumerate_all(cls, ring, local_level_bound):
        # A principal ideal ring: the ideals are the distinct spans Rg, each
        # wrapped once per ring instance and kept in its memo.
        memo = ring.memo
        if "ideals" not in memo:
            ideals = [ExplicitIdeal(ring, mask=mask) for mask in ring.index_kernel.generator_of]
            memo["ideals"] = tuple(sorted(ideals, key=lambda i: (i.mask.bit_count(), i.label())))
        return memo["ideals"]

    @cached_property
    def elements(self) -> frozenset[Element]:
        return frozenset(self.sorted_elements())

    def contains(self, element):
        k = self.ring.index_kernel
        return bool(self.mask >> k.index[self.ring.element(element)] & 1)

    def issubset(self, other):
        _check_same_ring(self, other)
        return not self.mask & ~other.mask

    def sorted_elements(self) -> list[Element]:
        k = self.ring.index_kernel
        return [k.elements[i] for i in k.members(self.mask)]

    @cached_property
    def _label(self):
        # The first g of R in canonical order with Rg = I.
        k = self.ring.index_kernel
        return f"({k.elements[k.generator_of[self.mask]]})"

    def label(self):
        return self._label

    def plus(self, other):
        k = self.ring.index_kernel
        return ExplicitIdeal(self.ring, mask=_least_span(k, self.mask | other.mask))

    def meet(self, other):
        return ExplicitIdeal(self.ring, mask=self.mask & other.mask)

    def radical(self):
        k = self.ring.index_kernel
        return ExplicitIdeal(self.ring, mask=k.mask(
            x for x, power in enumerate(k.radical_powers) if self.mask >> power & 1))

    def saturation_kernel(self):
        # The union of Ann(s) over s in 1 + I.
        k = self.ring.index_kernel
        mask = 0
        for i in k.members(self.mask):
            mask |= k.anns[k.add[k.one][i]]
        return ExplicitIdeal(self.ring, mask=mask)

    def is_prime(self):
        # The complement is closed under multiplication.
        k = self.ring.index_kernel
        outside = k.members(~self.mask & ((1 << len(k.elements)) - 1))
        return not any(self.mask >> k.mul[a][b] & 1 for a in outside for b in outside)

    def witness_samples(self):
        return tuple(self.sorted_elements())

    @cached_property
    def _complements(self) -> int:
        """The mask of {1 - i : i in I}, the a with 1 - a in I."""
        k = self.ring.index_kernel
        return k.mask(k.one_minus[i] for i in k.members(self.mask))

    def flat_witness(self, f):
        # The first a of R in canonical order with a*f = 0 and 1 - a in I.
        k = self.ring.index_kernel
        candidates = k.anns[k.index[f]] & self._complements
        if not candidates:
            return None
        a = (candidates & -candidates).bit_length() - 1
        return (k.elements[a], k.elements[k.one_minus[a]])


class LocalIdeal(Ideal):
    """An ideal of the localized integers: level None is (0), level k is (p^k)."""

    def __init__(self, ring: LocalizedIntegerRing, level: int | None):
        if ideal_class(ring) is not LocalIdeal:
            raise UnsupportedForPresentation("LocalIdeal needs a localized integer ring")
        if level is not None and level < 0:
            raise ValueError("level must be None or >= 0")
        self.level = level
        self._keyed(ring, ("local", ring, level))

    @classmethod
    def generated_by(cls, ring, gens):
        # (p^v), v the least valuation of a nonzero generator; (0) if none.
        levels = [ring.valuation(g) for g in gens if g.value != 0]
        return LocalIdeal(ring, min(levels, default=None))

    @classmethod
    def annihilator_of(cls, f):
        return LocalIdeal(f.ring, 0 if f.value == 0 else None)

    @classmethod
    def enumerate_all(cls, ring, local_level_bound):
        return tuple(LocalIdeal(ring, k) for k in (None, *range(local_level_bound + 1)))

    def contains(self, element):
        el = self.ring.element(element)
        if el.value == 0:
            return True
        if self.level is None:
            return False
        return self.ring.valuation(el) >= self.level

    def issubset(self, other):
        _check_same_ring(self, other)
        if self.level is None:
            return True
        if other.level is None:
            return False
        return self.level >= other.level

    def label(self):
        if self.level is None:
            return "(0)"
        if self.level == 0:
            return "(1)"
        if self.level == 1:
            return f"({self.ring.p})"
        return f"({self.ring.p}^{self.level})"

    def plus(self, other):
        if self.level is None:
            return other
        if other.level is None:
            return self
        return LocalIdeal(self.ring, min(self.level, other.level))

    def meet(self, other):
        if self.level is None or other.level is None:
            return LocalIdeal(self.ring, None)
        return LocalIdeal(self.ring, max(self.level, other.level))

    def radical(self):
        if self.level is None or self.level == 0:
            return self
        return LocalIdeal(self.ring, 1)

    def saturation_kernel(self):
        # 1 + (p^k) consists of units when k >= 1, while 1 + R contains 0.
        return LocalIdeal(self.ring, 0 if self.level == 0 else None)

    def is_prime(self):
        return self.level is None or self.level == 1

    def witness_samples(self):
        ring = self.ring
        if self.level is None:
            return (ring.zero,)
        if self.level == 0:
            return (ring.zero, ring.one)
        return (ring.element(ring.p ** self.level),)

    def flat_witness(self, f):
        # A domain: a nonzero f has zero annihilator, so a = 0 and b = 1.
        if f == self.ring.zero:
            return (self.ring.one, self.ring.zero)
        if self.level == 0:
            return (self.ring.zero, self.ring.one)
        return None

    def flat_note(self, failing):
        if failing is None:
            return "the zero and unit ideals always give flat quotients"
        return "a nonzero element of a domain has zero annihilator"


class _BooleanIdeal(Ideal):
    """What the ideals of the bits ring share: x^2 = x for every x, so each
    ideal is its own radical and 1-f annihilates f."""

    def radical(self):
        return self

    def flat_witness(self, f):
        return (self.ring.one - f, f)

    def flat_note(self, failing):
        return "Boolean schema: 1-f annihilates f and f+(1-f)=1 for every f in I"


class BoolPrincipalIdeal(_BooleanIdeal):
    """A principal ideal of the bits ring.

    Finitely generated ideals of a Boolean ring are principal: the join
    a+b+ab of two generators generates their sum, so this class covers all
    of them.  Membership is x*g == x.
    """

    def __init__(self, ring: EventuallyConstantBitsRing, generator):
        if ideal_class(ring) is not BoolPrincipalIdeal:
            raise UnsupportedForPresentation("BoolPrincipalIdeal needs the bits ring")
        self.generator = ring.element(generator)
        self._keyed(ring, ("boolprincipal", ring, self.generator))

    @classmethod
    def generated_by(cls, ring, gens):
        join = ring.zero
        for g in gens:
            join = join + g - join * g
        return BoolPrincipalIdeal(ring, join)

    @classmethod
    def annihilator_of(cls, f):
        # x*f == 0 exactly when x == x*(1-f), i.e. x lies under 1-f.
        return BoolPrincipalIdeal(f.ring, f.ring.one - f)

    @classmethod
    def primes_of(cls, ring):
        raise UnsupportedForPresentation(
            f"the spectrum of {ring.describe()} is not enumerable")

    def contains(self, element):
        el = self.ring.element(element)
        return el * self.generator == el

    def issubset(self, other):
        _check_same_ring(self, other)
        return other.contains(self.generator)

    def label(self):
        return f"({self.generator})"

    def plus(self, other):
        if isinstance(other, BoolPrincipalIdeal):
            g, h = self.generator, other.generator
            return BoolPrincipalIdeal(self.ring, g + h - g * h)
        return other.plus(self)

    def meet(self, other):
        if isinstance(other, BoolPrincipalIdeal):
            return BoolPrincipalIdeal(self.ring, self.generator * other.generator)
        return other.meet(self)

    def witness_samples(self):
        return (self.generator,)

    def idempotent_generator(self):
        return self.generator


class BoolFiniteSupportIdeal(_BooleanIdeal):
    """The ideal of all finitely supported elements of the bits ring.

    It is the strictly increasing union of the principal ideals generated
    by the indicators of {1..n}, hence not finitely generated.
    """

    def __init__(self, ring: EventuallyConstantBitsRing):
        if ideal_class(ring) is not BoolPrincipalIdeal:
            raise UnsupportedForPresentation("this ideal lives in the bits ring")
        self._keyed(ring, ("boolfin", ring))

    def contains(self, element):
        return self.ring.element(element).value.has_finite_support

    def issubset(self, other):
        _check_same_ring(self, other)
        return other == self or other.is_whole()

    def label(self):
        return "(fin)"

    def plus(self, other):
        # (fin) + (g): if g has a 1-tail its zero set is finite, so together
        # with the finitely supported elements it generates everything.
        if other.issubset(self):
            return self
        return BoolPrincipalIdeal(self.ring, self.ring.one)

    def meet(self, other):
        if other.issubset(self):
            return other
        if other.is_whole():
            return self
        raise UnsupportedForPresentation(
            "the meet of (fin) with a cofinite principal ideal is not finitely generated")

    def witness_samples(self):
        return tuple(self.ring.indicator(range(1, n + 1)) for n in (1, 2, 3))

    def idempotent_generator(self):
        # Any candidate g lies in the ideal, hence has bounded support,
        # and then Rg omits indicators of larger sets.
        return None


class ProductIdeal(Ideal):
    """A componentwise ideal of an infinite product ring.

    Finite products use :class:`ExplicitIdeal` instead, so this class only
    appears when some factor is a localization.  Every operation works
    component by component.  The components are shared: each is the one
    instance equal to it that its factor ring's memo keeps, so the facts
    an ideal keeps on its memo (the vanishing locus, the flatness search,
    the saturation kernel) are found once per distinct component and
    read by every product built from it.
    """

    def __init__(self, ring: ProductRing, components):
        if ideal_class(ring) is not ProductIdeal:
            raise UnsupportedForPresentation(
                "ProductIdeal is the representation for infinite products")
        components = tuple(components)
        if len(components) != len(ring.factors):
            raise ValueError("one component ideal per factor is required")
        if tuple(map(_ring_of, components)) != ring.factors:
            raise ValueError("component ideal belongs to the wrong factor")
        self.components = tuple(map(_shared, components))
        self._keyed(ring, ("prodideal", ring, self.components))

    @classmethod
    def generated_by(cls, ring, gens):
        # The generators' payloads slot by slot; no generators give the zero ideal.
        columns = list(zip(*(g.value for g in gens))) or [()] * len(ring.factors)
        return ProductIdeal(ring, map(_generated, ring.factors, columns))

    @classmethod
    def annihilator_of(cls, f):
        ring = f.ring
        return ProductIdeal(ring, (
            annihilator(ring.component(f, i)) for i in range(len(ring.factors))))

    @classmethod
    def enumerate_all(cls, ring, local_level_bound):
        # The combinations are counted against the budget before any is built.
        per_factor = [enumerate_ideals(f, local_level_bound) for f in ring.factors]
        count = math.prod(map(len, per_factor))
        if count > 2 ** MAX_FAMILY_POINTS:
            raise RingTooLarge(f"{ring.describe()} has {count} ideals, more than "
                               f"the budget of {2 ** MAX_FAMILY_POINTS}")
        per_factor = [list(map(_shared, ideals)) for ideals in per_factor]
        out = [ProductIdeal(ring, combo) for combo in itertools.product(*per_factor)]
        return tuple(sorted(out, key=lambda i: i.label()))

    @classmethod
    def primes_of(cls, ring):
        # A prime of a product is a prime in one slot and the whole ring elsewhere.
        units = [unit_ideal(factor) for factor in ring.factors]
        return [ProductIdeal(ring, units[:i] + [p] + units[i + 1:])
                for i, factor in enumerate(ring.factors)
                for p in prime_ideals(factor)]

    @classmethod
    def meet_all(cls, ring, ideals):
        # Slot by slot, over the shared components there.
        return ProductIdeal(ring, [reduce(_meet, column)
                                   for column in zip(*(i.components for i in ideals))])

    def contains(self, element):
        el = self.ring.element(element)
        return all(c.contains(self.ring.component(el, i))
                   for i, c in enumerate(self.components))

    def issubset(self, other):
        _check_same_ring(self, other)
        return all(a.issubset(b) for a, b in zip(self.components, other.components))

    def label(self):
        return " x ".join(c.label() for c in self.components)

    def plus(self, other):
        return ProductIdeal(self.ring, (
            a.plus(b) for a, b in zip(self.components, other.components)))

    def meet(self, other):
        return ProductIdeal(self.ring, map(_meet, self.components, other.components))

    def radical(self):
        return ProductIdeal(self.ring, (c.radical() for c in self.components))

    def saturation_kernel(self):
        return ProductIdeal(self.ring, map(_saturation_kernel, self.components))

    def is_prime(self):
        proper = [c for c in self.components if not c.is_whole()]
        return len(proper) == 1 and proper[0].is_prime()

    def witness_samples(self):
        # Each component's samples, placed in its slot with zeros elsewhere.
        zero = self.ring.zero.value
        return tuple(Element(self.ring, zero[:i] + (f.value,) + zero[i + 1:])
                     for i, c in enumerate(self.components)
                     for f in c.witness_samples())

    @cached_property
    def _zero_witnesses(self) -> tuple:
        """Each component's witness for zero, the answer in every slot
        where an element is zero."""
        return tuple(c.flat_witness(c.ring.zero) for c in self.components)

    def flat_witness(self, f):
        # A witness sample is zero outside one slot, so only the slots
        # where f is nonzero ask their component; a factor's zero payload
        # (0, Fraction(0) or the empty polynomial) is its only false one.
        parts = list(self._zero_witnesses)
        for i, v in enumerate(f.value):
            if v:
                parts[i] = self.components[i].flat_witness(self.ring.component(f, i))
        if None in parts:
            return None
        return tuple(Element(self.ring, tuple(w[k].value for w in parts)) for k in (0, 1))

    def flat_search(self):
        # A sample of slot i is zero in every other slot, where each
        # component's witness for zero answers, so each triple is a triple
        # of component i's own search spliced into slot i of the zero
        # element and of the product's two witnesses for zero.  A zero
        # sample's triple is those three elements themselves; a factor's
        # zero payload is its only false one.
        ring = self.ring
        bases = (ring.zero.value,
                 *(tuple(map(_value_of, column)) for column in zip(*self._zero_witnesses)))
        at_zero_triple = tuple(Element(ring, base) for base in bases)
        witnesses = []
        for i, c in enumerate(self.components):
            found, failing = c.flat_search()
            witnesses += [tuple(Element(ring, base[:i] + (x.value,) + base[i + 1:])
                                for base, x in zip(bases, triple))
                          if triple[0].value else at_zero_triple
                          for triple in found]
            if failing is not None:
                return tuple(witnesses), Element(
                    ring, bases[0][:i] + (failing.value,) + bases[0][i + 1:])
        return tuple(witnesses), None

    def flat_note(self, failing):
        if failing is None:
            return "componentwise flatness of a product"
        # A failing sample is a component's failing element, never zero,
        # placed in that component's slot.
        zero = self.ring.zero.value
        slot = next(i for i, v in enumerate(failing.value) if v != zero[i])
        return f"component {slot} is not flat"


_ring_of = attrgetter("ring")
_value_of = attrgetter("value")


def _check_same_ring(a: Ideal, b: Ideal):
    if a.ring is not b.ring and a.ring != b.ring:
        raise ValueError("ideals of different rings cannot be compared")


def _shared(ideal: Ideal) -> Ideal:
    """The one instance equal to the ideal that its ring's memo keeps; the
    kept instance is marked as such on its own memo."""
    if "shared" in ideal.memo:
        return ideal
    memo = ideal.ring.memo
    if "shared_ideals" not in memo:
        memo["shared_ideals"] = {}
    shared = memo["shared_ideals"].setdefault(ideal, ideal)
    shared.memo["shared"] = True
    return shared


def _saturation_kernel(ideal: Ideal) -> Ideal:
    """The saturation kernel of a shared component, kept on its memo."""
    memo = ideal.memo
    if "saturation_kernel" not in memo:
        memo["saturation_kernel"] = _shared(ideal.saturation_kernel())
    return memo["saturation_kernel"]


def _meet(a: Ideal, b: Ideal) -> Ideal:
    """The meet of two shared components, kept on the first one's memo."""
    if a is b:
        return a
    memo = a.memo
    key = ("meet", b)
    if key not in memo:
        memo[key] = _shared(ideal_intersection(a, b))
    return memo[key]


def _generated(ring: Ring, values: tuple) -> Ideal:
    """The shared ideal of a factor generated by the elements with these
    payloads, kept in the factor's memo."""
    memo = ring.memo
    if "generated" not in memo:
        memo["generated"] = {}
    ideal = memo["generated"].get(values)
    if ideal is None:
        ideal = memo["generated"][values] = _shared(ideal_from_generators(ring, values))
    return ideal


def _least_span(k: IndexKernel, mask: int) -> int:
    """The least principal ideal Rg containing the mask.  The spans that
    contain a set are the ideals containing it, closed under intersection,
    so the least one is the one with the fewest bits."""
    if mask in k.generator_of:
        return mask
    return min((s for s in k.generator_of if not mask & ~s), key=int.bit_count)


def _closure_failure(k: IndexKernel, mask: int) -> str:
    """Name the first sum or product that leaves a set which is no ideal."""
    members = k.members(mask)
    for a in members:
        for b in members:
            if not mask >> k.add[a][b] & 1:
                return f"not closed under addition: {k.elements[a]} + {k.elements[b]}"
        for r in range(len(k.elements)):
            if not mask >> k.mul[r][a] & 1:
                return f"not closed under multiplication: {k.elements[r]} * {k.elements[a]}"
    raise AssertionError("the set is closed")


# ---------------------------------------------------------------------------
# constructors


# The ideal class of each infinite presentation; a finite ring's ideals,
# finite products included, are explicit.
_SYMBOLIC_IDEAL_CLASSES = {
    LocalizedIntegerRing: LocalIdeal,
    EventuallyConstantBitsRing: BoolPrincipalIdeal,
    ProductRing: ProductIdeal,
}


def ideal_class(ring: Ring) -> type[Ideal]:
    """The class that represents the ideals of the ring's presentation."""
    return ExplicitIdeal if ring.is_finite else _SYMBOLIC_IDEAL_CLASSES[type(ring)]


def zero_ideal(ring: Ring) -> Ideal:
    return ideal_from_generators(ring, ())


def unit_ideal(ring: Ring) -> Ideal:
    return ideal_from_generators(ring, (ring.one,))


def principal_ideal(ring: Ring, generator) -> Ideal:
    return ideal_from_generators(ring, (generator,))


def finite_support_ideal(ring: EventuallyConstantBitsRing) -> BoolFiniteSupportIdeal:
    return BoolFiniteSupportIdeal(ring)


def ideal_from_generators(ring: Ring, generators) -> Ideal:
    """The smallest ideal containing the generators, canonically
    represented by the ring's :func:`ideal_class`."""
    return ideal_class(ring).generated_by(ring, [ring.element(g) for g in generators])


# ---------------------------------------------------------------------------
# ideal arithmetic


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    return a.plus(b)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    return a.meet(b)


def intersect_all(ring: Ring, ideals) -> Ideal:
    """The intersection of the ideals, the unit ideal when there are none."""
    ideals = tuple(ideals)
    return ideal_class(ring).meet_all(ring, ideals) if ideals else unit_ideal(ring)


def annihilator(f: Element) -> Ideal:
    """The ideal of all x with x*f == 0."""
    return ideal_class(f.ring).annihilator_of(f)


def radical(ideal: Ideal) -> Ideal:
    """All x with some power x^k in the ideal."""
    return ideal.radical()


def saturation_kernel(ideal: Ideal) -> Ideal:
    """The kernel of R -> S^{-1}R with S = 1 + I: all r annihilated by
    some s in 1+I."""
    return ideal.saturation_kernel()


# ---------------------------------------------------------------------------
# enumeration and primality


def enumerate_ideals(ring: Ring, local_level_bound: int = 6) -> tuple[Ideal, ...]:
    """All ideals of the ring, listed by its :func:`ideal_class`; finite
    rings sort by size, then label, and infinite products by label.  The
    chain (p^k) of a localized ring stops at ``local_level_bound``."""
    return ideal_class(ring).enumerate_all(ring, local_level_bound)


def prime_ideals(ring: Ring) -> tuple[Ideal, ...]:
    """The prime ideals of the ring, listed by its :func:`ideal_class` once
    per ring instance and kept in its memo, so that a product's primes and
    its factors' spectra share each factor's list."""
    memo = ring.memo
    if "primes" not in memo:
        memo["primes"] = tuple(ideal_class(ring).primes_of(ring))
    return memo["primes"]


def is_prime_ideal(ideal: Ideal) -> bool:
    """Primality: proper, and ab in I forces a in I or b in I."""
    return not ideal.is_whole() and ideal.is_prime()
