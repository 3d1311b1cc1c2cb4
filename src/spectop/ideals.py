"""Ideals of the supported ring presentations.

The representation follows the presentation: ideals of finite rings are
explicit element sets, always built as sums of principal ideals Rg
(closure is still checked at construction), ideals of the
localized integers live in the known lattice {(0)} U {(p^k) : k >= 0},
ideals of the bits ring are either principal or the ideal of all finitely
supported elements, and ideals of infinite products are componentwise.

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
    """Base class; subclasses fix the representation.

    Each constructor sets ``key``, the tuple that equality compares; its
    hash is computed once and cached.
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


class BoolPrincipalIdeal(Ideal):
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
        if isinstance(other, BoolPrincipalIdeal):
            return other.contains(self.generator)
        return self.generator.value.has_finite_support

    def is_zero(self):
        return self.generator == self.ring.zero

    def is_whole(self):
        return self.generator == self.ring.one

    def label(self):
        return f"({self.generator})"


class BoolFiniteSupportIdeal(Ideal):
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
        if isinstance(other, BoolFiniteSupportIdeal):
            return True
        return other.generator == self.ring.one

    def is_zero(self):
        return False

    def is_whole(self):
        return False

    def label(self):
        return "(fin)"


class ProductIdeal(Ideal):
    """A componentwise ideal of an infinite product ring.

    Finite products use :class:`ExplicitIdeal` instead, so this class only
    appears when some factor is a localization.
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
    ring = a.ring
    if isinstance(a, ExplicitIdeal):
        return ExplicitIdeal(ring, _sumset(a.elements, b.elements))
    if isinstance(a, LocalIdeal):
        if a.level is None:
            return b
        if b.level is None:
            return a
        return LocalIdeal(ring, min(a.level, b.level))
    if isinstance(a, ProductIdeal):
        return ProductIdeal(ring, tuple(
            ideal_sum(x, y) for x, y in zip(a.components, b.components)))
    if isinstance(a, (BoolPrincipalIdeal, BoolFiniteSupportIdeal)):
        return _bool_sum(a, b)
    raise UnsupportedForPresentation(ring.describe())


def _bool_sum(a: Ideal, b: Ideal) -> Ideal:
    ring = a.ring
    if isinstance(a, BoolPrincipalIdeal) and isinstance(b, BoolPrincipalIdeal):
        g, h = a.generator, b.generator
        return BoolPrincipalIdeal(ring, g + h - g * h)
    principal = a if isinstance(a, BoolPrincipalIdeal) else b
    if isinstance(principal, BoolFiniteSupportIdeal):
        return BoolFiniteSupportIdeal(ring)
    # (fin) + (g): if g has a 1-tail its zero set is finite, so together
    # with the finitely supported elements it generates everything.
    if principal.generator.value.has_finite_support:
        return BoolFiniteSupportIdeal(ring)
    return BoolPrincipalIdeal(ring, ring.one)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    ring = a.ring
    if isinstance(a, ExplicitIdeal):
        return ExplicitIdeal(ring, a.elements & b.elements)
    if isinstance(a, LocalIdeal):
        if a.level is None or b.level is None:
            return LocalIdeal(ring, None)
        return LocalIdeal(ring, max(a.level, b.level))
    if isinstance(a, ProductIdeal):
        return ProductIdeal(ring, tuple(
            ideal_intersection(x, y) for x, y in zip(a.components, b.components)))
    if isinstance(a, (BoolPrincipalIdeal, BoolFiniteSupportIdeal)):
        if isinstance(a, BoolPrincipalIdeal) and isinstance(b, BoolPrincipalIdeal):
            return BoolPrincipalIdeal(ring, a.generator * b.generator)
        if isinstance(a, BoolFiniteSupportIdeal) and isinstance(b, BoolFiniteSupportIdeal):
            return BoolFiniteSupportIdeal(ring)
        principal = a if isinstance(a, BoolPrincipalIdeal) else b
        if principal.generator.value.has_finite_support:
            return principal
        raise UnsupportedForPresentation(
            "the meet of (fin) with a cofinite principal ideal is not finitely generated")
    raise UnsupportedForPresentation(ring.describe())


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
    """All x with some power x^k in the ideal.

    For a finite ring powers of x start cycling within |R| steps, so
    exponents up to |R| decide membership.  Boolean rings satisfy x^2 = x,
    hence every ideal of the bits ring is its own radical.
    """
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        members = set()
        bound = len(ring.elements())
        for x in ring.elements():
            power = x
            for _ in range(bound):
                if ideal.contains(power):
                    members.add(x)
                    break
                power = power * x
        return ExplicitIdeal(ring, members)
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None or ideal.level == 0:
            return ideal
        return LocalIdeal(ring, 1)
    if isinstance(ideal, (BoolPrincipalIdeal, BoolFiniteSupportIdeal)):
        return ideal
    if isinstance(ideal, ProductIdeal):
        return ProductIdeal(ring, tuple(radical(c) for c in ideal.components))
    raise UnsupportedForPresentation(ring.describe())


def saturation_kernel(ideal: Ideal) -> Ideal:
    """The kernel of R -> S^{-1}R with S = 1 + I.

    Explicitly: all r annihilated by some s in 1+I.  For the localized
    integers 1+(p^k) consists of units when k >= 1, so the kernel is zero
    there, while 1+R contains 0 and the kernel is everything.
    """
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        s = [ring.one + i for i in ideal.elements]
        kernel = {r for r in ring.elements()
                  if any(x * r == ring.zero for x in s)}
        return ExplicitIdeal(ring, kernel)
    if isinstance(ideal, LocalIdeal):
        if ideal.level is None:
            return LocalIdeal(ring, None)
        if ideal.level == 0:
            return LocalIdeal(ring, 0)
        return LocalIdeal(ring, None)
    if isinstance(ideal, ProductIdeal):
        return ProductIdeal(ring, tuple(saturation_kernel(c) for c in ideal.components))
    raise UnsupportedForPresentation(
        f"saturation kernels are not computed over {ring.describe()}")


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
    """Primality: proper, and ab in I forces a in I or b in I.

    For explicit ideals the equivalent check is that the complement is
    closed under multiplication.
    """
    if ideal.is_whole():
        return False
    ring = ideal.ring
    if isinstance(ideal, ExplicitIdeal):
        outside = [x for x in ring.elements() if x not in ideal.elements]
        return all(a * b not in ideal.elements for a in outside for b in outside)
    if isinstance(ideal, LocalIdeal):
        return ideal.level is None or ideal.level == 1
    if isinstance(ideal, ProductIdeal):
        proper = [c for c in ideal.components if not c.is_whole()]
        return len(proper) == 1 and is_prime_ideal(proper[0])
    raise UnsupportedForPresentation(
        f"primality is not decided over {ring.describe()}")
