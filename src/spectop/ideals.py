"""Ideals of the supported ring presentations.

The representation follows the presentation: ideals of finite rings are
explicit element sets, always built as sums of principal ideals Rg
(closure is still checked at construction), ideals of the
localized integers live in the known lattice {(0)} U {(p^k) : k >= 0},
ideals of the bits ring are either principal or the ideal of all finitely
supported elements, and ideals of infinite products are componentwise.

Each representation is one class that owns all of its operations:
membership, inclusion, sum, intersection, radical, saturation kernel,
primality, and the flatness primitives (witness samples, flat witnesses,
idempotent generator) that ``flatness`` runs generically.  The
arithmetic functions of this module call these methods; only
``ideal_from_generators``, ``annihilator`` and ``enumerate_ideals``,
which build ideals, dispatch on the type of the ring.

Every ideal is immutable and compares structurally.  ``label()`` gives a
short canonical name such as ``(2)``, ``(2^3)``, ``(fin)`` or
``(0) x (1)`` that the command line layer can parse back.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import UnsupportedForPresentation
from .rings import (
    Element,
    EventuallyConstantBitsRing,
    LocalizedIntegerRing,
    ProductRing,
    Ring,
    canonical_sorted,
    idempotents,
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
    "ideal_from_generators",
    "ideal_intersection",
    "ideal_sum",
    "is_prime_ideal",
    "principal_ideal",
    "radical",
    "saturation_kernel",
    "unit_ideal",
    "zero_ideal",
]


class Ideal:
    """Base class; each subclass owns one representation and its operations.

    Each constructor sets ``key``, the tuple that equality compares; its
    hash is computed once and cached.  Besides the methods below, every
    subclass defines ``plus(other)``, ``meet(other)`` and ``radical()``,
    and for flatness ``witness_samples()``, the elements f of I whose
    witnesses make up a certificate, ``flat_witness(f)``, a pair (a, b)
    with a*f = 0, b in I and a + b = 1 or None, and
    ``idempotent_generator()``.  An operation a presentation does not
    support falls through to the default here, which raises
    :class:`UnsupportedForPresentation`.
    """

    ring: Ring
    key: tuple

    def contains(self, element: Element) -> bool:
        raise NotImplementedError

    def issubset(self, other: "Ideal") -> bool:
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def is_whole(self) -> bool:
        raise NotImplementedError

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

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key == other.key

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self.key)

    def __repr__(self):
        return self.label()


class ExplicitIdeal(Ideal):
    """An ideal of a finite ring, stored as the full element set.

    Construction verifies closure under addition and under multiplication
    by every ring element, so an ExplicitIdeal is an ideal by fiat.
    """

    def __init__(self, ring: Ring, elements):
        if not ring.is_finite:
            raise UnsupportedForPresentation(
                "explicit ideals exist only over finite rings")
        elems = frozenset(ring.element(e) for e in elements)
        if ring.zero not in elems:
            raise ValueError("an ideal contains 0")
        for a in elems:
            for b in elems:
                if a + b not in elems:
                    raise ValueError(f"not closed under addition: {a} + {b}")
            for r in ring.elements():
                if r * a not in elems:
                    raise ValueError(f"not closed under multiplication: {r} * {a}")
        self.ring = ring
        self.elements = elems
        self.key = ("explicit", ring, elems)

    def contains(self, element):
        return self.ring.element(element) in self.elements

    def issubset(self, other):
        _check_same_ring(self, other)
        return self.elements <= other.elements

    def is_zero(self):
        return len(self.elements) == 1

    def is_whole(self):
        return self.ring.one in self.elements

    def sorted_elements(self) -> list[Element]:
        return canonical_sorted(self.elements)

    @cached_property
    def _label(self):
        # The first g of R in canonical order with Rg = I; any such g lies in I.
        sorted_elements = self.sorted_elements()
        for g in sorted_elements:
            if _principal_span(self.ring, g) == self.elements:
                return f"({g})"
        gens = ",".join(str(g) for g in sorted_elements)
        return f"({gens})"

    def label(self):
        return self._label

    def plus(self, other):
        return ExplicitIdeal(self.ring, _sumset(self.elements, other.elements))

    def meet(self, other):
        return ExplicitIdeal(self.ring, self.elements & other.elements)

    def radical(self):
        # The powers x, ..., x^n with n = |R| already repeat, and once a
        # power lies in I so do all higher ones: x is in the radical iff
        # x^n is in I.
        n = len(self.ring.elements())
        return ExplicitIdeal(self.ring, {x for x in self.ring.elements()
                                         if x ** n in self.elements})

    def saturation_kernel(self):
        ring = self.ring
        s = [ring.one + i for i in self.elements]
        return ExplicitIdeal(ring, {r for r in ring.elements()
                                    if any(x * r == ring.zero for x in s)})

    def is_prime(self):
        # The complement is closed under multiplication.
        outside = [x for x in self.ring.elements() if x not in self.elements]
        return all(a * b not in self.elements for a in outside for b in outside)

    def witness_samples(self):
        return tuple(self.sorted_elements())

    def flat_witness(self, f):
        ring = self.ring
        for a in ring.elements():
            if a * f == ring.zero and ring.one - a in self.elements:
                return (a, ring.one - a)
        return None

    def idempotent_generator(self):
        for e in idempotents(self.ring):
            if _principal_span(self.ring, e) == self.elements:
                return e
        return None


class LocalIdeal(Ideal):
    """An ideal of the localized integers: level None is (0), level k is (p^k)."""

    def __init__(self, ring: LocalizedIntegerRing, level: int | None):
        if not isinstance(ring, LocalizedIntegerRing):
            raise UnsupportedForPresentation("LocalIdeal needs a localized integer ring")
        if level is not None and level < 0:
            raise ValueError("level must be None or >= 0")
        self.ring = ring
        self.level = level
        self.key = ("local", ring, level)

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

    def is_zero(self):
        return self.level is None

    def is_whole(self):
        return self.level == 0

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

    def idempotent_generator(self):
        if self.level is None:
            return self.ring.zero
        if self.level == 0:
            return self.ring.one
        return None


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
        if not isinstance(ring, EventuallyConstantBitsRing):
            raise UnsupportedForPresentation("BoolPrincipalIdeal needs the bits ring")
        self.ring = ring
        self.generator = ring.element(generator)
        self.key = ("boolprincipal", ring, self.generator)

    def contains(self, element):
        el = self.ring.element(element)
        return el * self.generator == el

    def issubset(self, other):
        _check_same_ring(self, other)
        return other.contains(self.generator)

    def is_zero(self):
        return self.generator == self.ring.zero

    def is_whole(self):
        return self.generator == self.ring.one

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
        if not isinstance(ring, EventuallyConstantBitsRing):
            raise UnsupportedForPresentation("this ideal lives in the bits ring")
        self.ring = ring
        self.key = ("boolfin", ring)

    def contains(self, element):
        return self.ring.element(element).value.has_finite_support

    def issubset(self, other):
        _check_same_ring(self, other)
        return other == self or other.is_whole()

    def is_zero(self):
        return False

    def is_whole(self):
        return False

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
    component by component.
    """

    def __init__(self, ring: ProductRing, components):
        if not isinstance(ring, ProductRing) or ring.is_finite:
            raise UnsupportedForPresentation(
                "ProductIdeal is the representation for infinite products")
        components = tuple(components)
        if len(components) != len(ring.factors):
            raise ValueError("one component ideal per factor is required")
        for f, c in zip(ring.factors, components):
            if c.ring != f:
                raise ValueError("component ideal belongs to the wrong factor")
        self.ring = ring
        self.components = components
        self.key = ("prodideal", ring, components)

    def contains(self, element):
        el = self.ring.element(element)
        return all(c.contains(self.ring.component(el, i))
                   for i, c in enumerate(self.components))

    def issubset(self, other):
        _check_same_ring(self, other)
        return all(a.issubset(b) for a, b in zip(self.components, other.components))

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def is_whole(self):
        return all(c.is_whole() for c in self.components)

    def label(self):
        return " x ".join(c.label() for c in self.components)

    def plus(self, other):
        return ProductIdeal(self.ring, (
            a.plus(b) for a, b in zip(self.components, other.components)))

    def meet(self, other):
        return ProductIdeal(self.ring, (
            a.meet(b) for a, b in zip(self.components, other.components)))

    def radical(self):
        return ProductIdeal(self.ring, (c.radical() for c in self.components))

    def saturation_kernel(self):
        return ProductIdeal(self.ring, (c.saturation_kernel() for c in self.components))

    def is_prime(self):
        proper = [c for c in self.components if not c.is_whole()]
        return len(proper) == 1 and proper[0].is_prime()

    def witness_samples(self):
        # Each component's samples, placed in its slot with zeros elsewhere.
        zero = self.ring.zero.value
        return tuple(Element(self.ring, zero[:i] + (f.value,) + zero[i + 1:])
                     for i, c in enumerate(self.components)
                     for f in c.witness_samples())

    def flat_witness(self, f):
        parts = [c.flat_witness(self.ring.component(f, i))
                 for i, c in enumerate(self.components)]
        if None in parts:
            return None
        return tuple(Element(self.ring, tuple(w[k].value for w in parts)) for k in (0, 1))

    def flat_note(self, failing):
        if failing is None:
            return "componentwise flatness of a product"
        # A failing sample is a component's failing element, never zero,
        # placed in that component's slot.
        zero = self.ring.zero.value
        slot = next(i for i, v in enumerate(failing.value) if v != zero[i])
        return f"component {slot} is not flat"

    def idempotent_generator(self):
        parts = [c.idempotent_generator() for c in self.components]
        if None in parts:
            return None
        return Element(self.ring, tuple(e.value for e in parts))


def _check_same_ring(a: Ideal, b: Ideal):
    if a.ring != b.ring:
        raise ValueError("ideals of different rings cannot be compared")


def _principal_span(ring: Ring, g: Element) -> frozenset[Element]:
    """Rg as an element set; it is already an ideal, closed under + and r*."""
    return frozenset(r * g for r in ring.elements())


def _sumset(a: frozenset[Element], b: frozenset[Element]) -> frozenset[Element]:
    """{x + y : x in a, y in b}, which is the ideal a + b when both are ideals."""
    return frozenset(x + y for x in a for y in b)


# ---------------------------------------------------------------------------
# constructors


def zero_ideal(ring: Ring) -> Ideal:
    return ideal_from_generators(ring, ())


def unit_ideal(ring: Ring) -> Ideal:
    return ideal_from_generators(ring, (ring.one,))


def principal_ideal(ring: Ring, generator) -> Ideal:
    return ideal_from_generators(ring, (generator,))


def finite_support_ideal(ring: EventuallyConstantBitsRing) -> BoolFiniteSupportIdeal:
    return BoolFiniteSupportIdeal(ring)


def ideal_from_generators(ring: Ring, generators) -> Ideal:
    """The smallest ideal containing the generators, canonically represented.

    Over a finite ring this is the sum Rg_1 + ... + Rg_n of the principal
    ideals, built as iterated sumsets starting from (0).  For the localized
    integers the result is (p^v) with v the least valuation of a nonzero
    generator.  In the bits ring the generators are joined into a single
    principal generator.
    """
    gens = [ring.element(g) for g in generators]
    if ring.is_finite:
        elements = frozenset((ring.zero,))
        for g in gens:
            elements = _sumset(elements, _principal_span(ring, g))
        return ExplicitIdeal(ring, elements)
    if isinstance(ring, LocalizedIntegerRing):
        nonzero = [g for g in gens if g.value != 0]
        if not nonzero:
            return LocalIdeal(ring, None)
        return LocalIdeal(ring, min(ring.valuation(g) for g in nonzero))
    if isinstance(ring, EventuallyConstantBitsRing):
        join = ring.zero
        for g in gens:
            join = join + g - join * g
        return BoolPrincipalIdeal(ring, join)
    if isinstance(ring, ProductRing):
        comps = []
        for i, factor in enumerate(ring.factors):
            comps.append(ideal_from_generators(
                factor, [ring.component(g, i) for g in gens]))
        return ProductIdeal(ring, comps)
    raise UnsupportedForPresentation(ring.describe())


# ---------------------------------------------------------------------------
# ideal arithmetic


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    return a.plus(b)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    return a.meet(b)


def annihilator(f: Element) -> Ideal:
    """The ideal of all x with x*f == 0."""
    ring = f.ring
    if ring.is_finite:
        return ExplicitIdeal(ring, {x for x in ring.elements() if x * f == ring.zero})
    if isinstance(ring, LocalizedIntegerRing):
        return LocalIdeal(ring, 0 if f.value == 0 else None)
    if isinstance(ring, EventuallyConstantBitsRing):
        # x*f == 0 exactly when x == x*(1-f), i.e. x lies under 1-f.
        return BoolPrincipalIdeal(ring, ring.one - f)
    if isinstance(ring, ProductRing):
        return ProductIdeal(ring, tuple(
            annihilator(ring.component(f, i)) for i in range(len(ring.factors))))
    raise UnsupportedForPresentation(ring.describe())


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
    """All ideals of the ring; finite rings sort by size, then label.

    Every ideal of a finite ring is a finite sum of principal ideals Rg.
    The distinct spans Rg are computed once, the sums are closed over as
    plain element sets starting from (0), and each ideal found is wrapped
    (and its closure checked) once at the end.  For the localized integers
    the lattice is (0) plus the chain (p^k), truncated at
    ``local_level_bound``; for infinite products the component
    enumerations are combined and sorted by label.
    """
    if ring.is_finite:
        spans = {_principal_span(ring, g) for g in ring.elements()}
        found = {frozenset((ring.zero,))}
        frontier = list(found)
        while frontier:
            base = frontier.pop()
            for span in spans:
                join = _sumset(base, span)
                if join not in found:
                    found.add(join)
                    frontier.append(join)
        ideals = [ExplicitIdeal(ring, elements) for elements in found]
        return tuple(sorted(ideals, key=lambda i: (len(i.elements), i.label())))
    if isinstance(ring, LocalizedIntegerRing):
        out = [LocalIdeal(ring, None)]
        out.extend(LocalIdeal(ring, k) for k in range(local_level_bound + 1))
        return tuple(out)
    if isinstance(ring, ProductRing):
        per_factor = [enumerate_ideals(f, local_level_bound) for f in ring.factors]
        out = [ProductIdeal(ring, combo) for combo in itertools.product(*per_factor)]
        return tuple(sorted(out, key=lambda i: i.label()))
    raise UnsupportedForPresentation(
        f"the ideals of {ring.describe()} cannot be enumerated")


def is_prime_ideal(ideal: Ideal) -> bool:
    """Primality: proper, and ab in I forces a in I or b in I."""
    return not ideal.is_whole() and ideal.is_prime()
