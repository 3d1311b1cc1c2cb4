"""Prime spectra and their Zariski, flat and patch topologies.

The spectrum of a supported ring is materialized as a finite poset of
prime ideals under inclusion.  The three topologies are generated from
their sub-bases of open sets:

* Zariski: the complements D(f) of the principal vanishing sets,
* flat:    the principal vanishing sets V(f) themselves,
* patch:   the D(f) and the V(g) together.  Both kinds contain the whole
           space, so they generate the same topology as all D(f) & V(g).

The points of a spectrum are numbered 0..n-1 in label order.  A point set
is an int mask with bit i set for point i, and a family of point sets an
int table with bit m set for each member mask m, so closures, stability
tests and tests over a whole family are bit operations.  A point is its
prime :class:`Ideal`; frozensets of those ideals are the public form.

Families of closed sets are materialized in full, which keeps every "for
all closed E" statement finitely checkable, for at most
``MAX_FAMILY_POINTS`` points, as a table has 2^n bits.  The bases of the
V(f) and of the V(I) are held as tables too.  Each spectrum keeps the
table of its V(f), the patterns P_x (the table of the masks holding x),
the tables of its stable sets and the three families the V(f) generate.
The ring's memo keeps the spectrum and each ideal its V(I), so all are
built once per object and dropped with it.  The V(I) table and its
families are built afresh on every call.  Infinite products work slot by
slot: a point is proper in exactly one slot, so p is in q iff they share
a slot and their components there are nested, and the V(f) and V(I)
tables are built from the factors' tables by shifting.  The V(I) of a
product ideal is the union of its components' loci, each embedded in its
slot; the components are shared ideals of the factors (see
``ideals.ProductIdeal``), so each component's locus is found once, on
the factor's spectrum, and read by every product that holds it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import and_, or_

from .errors import SpectrumTooLarge
from .ideals import (
    Ideal,
    ProductIdeal,
    enumerate_ideals,
    ideal_class,
    prime_ideals,
)
from .rings import (
    MAX_FAMILY_POINTS,
    Element,
    IndexKernel,
    Record,
    Ring,
)

__all__ = [
    "FLAT",
    "MAX_FAMILY_POINTS",
    "PATCH",
    "TOPOLOGIES",
    "ZARISKI",
    "ClosedFamily",
    "SpectrumPoset",
    "closed_family",
    "enumerate_spectrum",
    "flat_point_closure",
    "generalization_closure",
    "ideal_basis_families",
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


def _union_of_cones(cones):
    """The map from a mask to the union of the cones of its points.  The
    checks close a few sets per family, one per point, so nothing is
    tabulated up front."""

    def union(mask: int) -> int:
        return reduce(or_, map(cones.__getitem__, IndexKernel.members(mask)), 0)

    return union


# Each byte value with its eight bits in reverse order (the multiply,
# mask and modulus byte reversal of Anderson's Bit Twiddling Hacks).
_BYTE_REVERSED = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))

# The parts of ``SpectrumPoset._mask_key`` that each byte of a 16-bit mask
# gives: its size, and its complement reversed into the other byte.
_LOW_BYTE_KEYS = [b.bit_count() << 16 | (255 ^ _BYTE_REVERSED[b]) << 8 for b in range(256)]
_HIGH_BYTE_KEYS = [b.bit_count() << 16 | 255 ^ _BYTE_REVERSED[b] for b in range(256)]


class SpectrumPoset:
    """All prime ideals of one ring, ordered by inclusion.

    Point i is the prime ideal ``points[i]``, in label order, and a point
    set is the int with bit i set for each member.  ``down[i]`` is the
    generalization cone of point i (the primes it contains) and ``up[i]``
    its specialization cone, both read off ideal inclusion.  ``_parts``
    holds each point of an infinite product (``slotwise``) as (the slot
    where it is proper, its component there), and compares points of one
    slot only; any other point is (None, the point).
    """

    def __init__(self, ring: Ring, prime_ideals):
        self.ring = ring
        self.points = tuple(sorted(prime_ideals, key=lambda i: i.label()))
        n = len(self.points)
        self.slotwise = ideal_class(ring) is ProductIdeal
        self._parts = tuple(
            next((s, c) for s, c in enumerate(p.components) if not c.is_whole())
            if self.slotwise else (None, p) for p in self.points)
        down, up = [0] * n, [0] * n
        for i, (s, a) in enumerate(self._parts):
            for j, (t, b) in enumerate(self._parts):
                if s == t and a.issubset(b):
                    down[j] |= 1 << i
                    up[i] |= 1 << j
        self.down, self.up = tuple(down), tuple(up)
        self.full = (1 << n) - 1
        self.labels = tuple(p.label() for p in self.points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._families: dict[str, ClosedFamily] = {}  # the V(f) families

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (isinstance(other, SpectrumPoset)
                and self.ring == other.ring
                and self.points == other.points)

    def as_set(self) -> frozenset[Ideal]:
        return frozenset(self.points)

    def point_of(self, ideal: Ideal) -> Ideal:
        try:
            return self.points[self._index[ideal]]
        except KeyError:
            raise ValueError(f"{ideal.label()} is not a prime of {self.ring.describe()}")

    def _mask_of(self, points) -> int:
        """The mask of a collection of this spectrum's points."""
        mask = 0
        try:
            for p in points:
                mask |= 1 << self._index[p]
        except KeyError:
            raise ValueError("the given points do not belong to this spectrum") from None
        return mask

    def _points_of(self, mask: int) -> frozenset[Ideal]:
        return frozenset(self.points[i] for i in IndexKernel.members(mask))

    def _labels_of(self, mask: int) -> list[str]:
        """A point set as its sorted labels, the form every document uses;
        bit order is label order."""
        return [self.labels[i] for i in IndexKernel.members(mask)]

    @staticmethod
    def _mask_key(mask: int) -> int:
        """The canonical order of point sets: smaller sets first, and of two
        sets of one size, the one holding the lowest point where they differ.
        The key is the size above the complement of the mask's 16 bits in
        reverse order, read a byte at a time through ``_BYTE_REVERSED``; as
        bit order is label order, it sorts like (len, labels).  A mask of
        more than ``MAX_FAMILY_POINTS`` bits has no key."""
        return _LOW_BYTE_KEYS[mask & 255] + _HIGH_BYTE_KEYS[mask >> 8]

    def _family_labels(self, masks) -> list[list[str]]:
        """A family of point sets as label lists, in the canonical order."""
        return [self._labels_of(m) for m in sorted(masks, key=self._mask_key)]

    @cached_property
    def _principal_table(self) -> int:
        """The table of every V(f), built once per spectrum.  A finite ring
        tries every f; over the localized integers V(f) only depends on
        whether f is zero, a prime multiple or a unit."""
        ring = self.ring
        if self.slotwise:
            return self._product_table(
                [enumerate_spectrum(factor)._principal_table for factor in ring.factors])
        samples = ring.elements() if ring.is_finite else (0, ring.p, 1)
        return self._table_of(
            IndexKernel.mask(i for i, p in enumerate(self.points) if p.contains(f))
            for f in samples)

    @cached_property
    def _slots(self) -> tuple[tuple["SpectrumPoset", list[int]], ...]:
        """Each slot of an infinite product as its factor's spectrum and the
        list that maps each mask over that spectrum to the same points in
        the slot.  A factor has at most 8 points: a localization has 2, and
        a finite ring at most log2(MAX_RING_ELEMENTS)."""
        index = {part: 1 << i for i, part in enumerate(self._parts)}
        slots = []
        for s, fsp in enumerate(map(enumerate_spectrum, self.ring.factors)):
            embed = [0]
            for q in fsp.points:
                bit = index[s, q]
                embed += [m | bit for m in embed]
            slots.append((fsp, embed))
        return tuple(slots)

    def _product_table(self, factor_tables) -> int:
        """The table of the unions of one member of each factor's table, the
        members embedded in their slots of the infinite product
        ``self.ring``: (x1, ..., xk) lies in the embedded prime
        (..., Pi, ...) iff xi lies in Pi, for elements and for ideals
        alike.  The slots hold disjoint points, so joining a member e to
        every union m built so far moves bit m to bit m | e = m + e: the
        table shifted by e."""
        table = 1
        for (_, embed), factor_table in zip(self._slots, factor_tables):
            shifted = 0
            for member in IndexKernel.members(factor_table):
                shifted |= table << embed[member]
            table = shifted
        return table

    def _vanishing_mask(self, ideal: Ideal) -> int:
        """V(I) as a mask, kept on the ideal's memo.  Over an infinite
        product it is the union of the components' loci, each in its slot,
        so each shared component's locus is found once."""
        memo = ideal.memo
        if "vanishing_mask" not in memo:
            if self.slotwise:
                memo["vanishing_mask"] = sum(
                    embed[fsp._vanishing_mask(c)]
                    for (fsp, embed), c in zip(self._slots, ideal.components))
            else:
                memo["vanishing_mask"] = IndexKernel.mask(
                    i for i, p in enumerate(self.points) if ideal.issubset(p))
        return memo["vanishing_mask"]

    @cached_property
    def down_closure(self):
        """mask -> the union of the generalization cones of its points."""
        return _union_of_cones(self.down)

    @cached_property
    def up_closure(self):
        """mask -> the union of the specialization cones of its points."""
        return _union_of_cones(self.up)

    # -- tables over the power set -----------------------------------------

    @cached_property
    def _patterns(self) -> tuple[int, ...]:
        """P_x for each point x, the table of the masks that hold x: runs
        of 2^x clear and 2^x set bits, alternating."""
        self._check_family_bound()
        every = (1 << (1 << len(self.points))) - 1
        return tuple(every // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
                     for x in range(len(self.points)))

    def _table_of(self, masks) -> int:
        """The table holding the given masks."""
        table = bytearray(((1 << len(self.points)) + 7) >> 3)
        for m in masks:
            table[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(table, "little")

    def _complements(self, table: int) -> int:
        """The table of the complements of the members: bit m moves to bit
        full ^ m, which reverses the table's 2^n bits."""
        size = 1 << len(self.points)
        width = (size + 7) >> 3
        flipped = table.to_bytes(width, "little").translate(_BYTE_REVERSED)
        return int.from_bytes(flipped, "big") >> (8 * width - size)

    def _least_members(self, table: int) -> list[int]:
        """For each point x, the intersection of the members holding x (the
        whole space when none does): the points y with T & P_x & ~P_y == 0."""
        patterns = self._patterns
        bits = [1 << y for y in range(len(patterns))]
        return [sum(compress(bits, map(held.__eq__, map(held.__and__, patterns))))
                for held in (table & px for px in patterns)]

    def _saturated_table(self, hulls) -> int:
        """The table of the masks that hold hulls[x] whenever they hold x:
        the AND over x of (not P_x, or P_y for every y in hulls[x])."""
        patterns = self._patterns
        table = every = (1 << (1 << len(patterns))) - 1
        for px, hull in zip(patterns, hulls):
            table &= every ^ px | reduce(
                and_, [patterns[y] for y in IndexKernel.members(hull)], every)
        return table

    @cached_property
    def down_table(self) -> int:
        """The generalization-stable masks, read off the cones alone."""
        return self._saturated_table(self.down)

    @cached_property
    def up_table(self) -> int:
        """The specialization-stable masks, read off the cones alone."""
        return self._saturated_table(self.up)

    def _check_family_bound(self) -> None:
        """Refuse a spectrum whose closed families are too large to generate."""
        if len(self) > MAX_FAMILY_POINTS:
            raise SpectrumTooLarge(
                f"{len(self)} spectrum points exceed the bound {MAX_FAMILY_POINTS}")

    def leq(self, p: Ideal, q: Ideal) -> bool:
        """The specialization order: p <= q iff p is contained in q."""
        return bool(self.down[self._index[q]] >> self._index[p] & 1)

    def generalizations(self, p: Ideal) -> frozenset[Ideal]:
        return self._points_of(self.down[self._index[p]])

    def specializations(self, p: Ideal) -> frozenset[Ideal]:
        return self._points_of(self.up[self._index[p]])

    def minimal_points(self) -> frozenset[Ideal]:
        return frozenset(p for j, p in enumerate(self.points) if self.down[j] == 1 << j)

    def maximal_points(self) -> frozenset[Ideal]:
        return frozenset(p for j, p in enumerate(self.points) if self.up[j] == 1 << j)

    def cover_edges(self) -> tuple[tuple[Ideal, Ideal], ...]:
        """Strict containments with nothing in between, sorted by label.

        p < q is a cover exactly when the points between them, up[p] &
        down[q], are p and q alone.
        """
        pts = self.points
        return tuple((pts[i], pts[j]) for i in range(len(pts)) for j in range(len(pts))
                     if i != j and self.up[i] & self.down[j] == 1 << i | 1 << j)


def enumerate_spectrum(ring: Ring) -> SpectrumPoset:
    """All prime ideals with the containment order, built once per ring
    instance and kept in its memo.

    ``ideals.prime_ideals`` lists the primes once per ring: the prime ones
    among the enumerated ideals (the truncated chain of ``Zloc(p)`` holds
    both (0) and (p)), and for an infinite product a prime of one factor
    in its slot with the whole ring elsewhere, from the list that the
    factor's own spectrum reads.  The bits ring refuses.
    """
    memo = ring.memo
    if "spectrum" not in memo:
        memo["spectrum"] = SpectrumPoset(ring, prime_ideals(ring))
    return memo["spectrum"]


def vanishing_locus(ring: Ring, ideal: Ideal) -> frozenset[Ideal]:
    """V(I): the primes containing the ideal, computed once per ideal
    object and kept on it."""
    if ideal.ring is not ring and ideal.ring != ring:
        raise ValueError("the ideal belongs to a different ring")
    memo = ideal.memo
    if "vanishing_locus" not in memo:
        sp = enumerate_spectrum(ring)
        memo["vanishing_locus"] = sp._points_of(sp._vanishing_mask(ideal))
    return memo["vanishing_locus"]


def nonvanishing_locus(ring: Ring, f: Element) -> frozenset[Ideal]:
    """D(f): the primes avoiding f, the complement of V((f))."""
    sp = enumerate_spectrum(ring)
    return frozenset(p for p in sp.points if not p.contains(f))


def flat_point_closure(ring: Ring, p: Ideal) -> frozenset[Ideal]:
    """The closure of {p} in the flat topology: all generalizations of p."""
    return enumerate_spectrum(ring).generalizations(p)


def generalization_closure(ring: Ring, points) -> frozenset[Ideal]:
    """Union of the generalization cones of the given points."""
    sp = enumerate_spectrum(ring)
    return sp._points_of(sp.down_closure(sp._mask_of(points)))


def specialization_closure(ring: Ring, points) -> frozenset[Ideal]:
    """Union of the vanishing sets V(p) of the given points."""
    sp = enumerate_spectrum(ring)
    return sp._points_of(sp.up_closure(sp._mask_of(points)))


def is_stable_generalization(ring: Ring, points) -> bool:
    sp = enumerate_spectrum(ring)
    mask = sp._mask_of(points)
    return sp.down_closure(mask) == mask


def is_stable_specialization(ring: Ring, points) -> bool:
    sp = enumerate_spectrum(ring)
    mask = sp._mask_of(points)
    return sp.up_closure(mask) == mask


# ---------------------------------------------------------------------------
# topology generation


class ClosedFamily(Record):
    """The closed sets of one topology over a finite spectrum: bit m of
    ``table`` is set when mask m is closed; ``masks`` and ``sets`` are lazy.
    The spectrum takes no part in equality."""

    __slots__ = ("topology", "table", "spectrum", "__dict__")
    _uncompared = ("spectrum",)

    def __len__(self) -> int:
        return self.table.bit_count()

    @cached_property
    def masks(self) -> frozenset[int]:
        return frozenset(IndexKernel.members(self.table))

    @cached_property
    def sets(self) -> frozenset[frozenset[Ideal]]:
        return frozenset(map(self.spectrum._points_of, self.masks))

    @cached_property
    def point_closures(self) -> list[int]:
        """cl(x) for each point x, the intersection of the members holding
        x: in a valid family the least member holding x."""
        return self.spectrum._least_members(self.table)

    def __contains__(self, subset) -> bool:
        try:
            return bool(self.table >> self.spectrum._mask_of(subset) & 1)
        except ValueError:
            return False

    def validate(self) -> None:
        """Check for the empty set, the space and closure under union and
        intersection: by Birkhoff, the masks that hold cl(x) whenever they
        hold x."""
        sp, table = self.spectrum, self.table
        if not table & 1 or not table >> sp.full & 1:
            raise AssertionError("a closed family contains the empty set and the space")
        if sp._saturated_table(self.point_closures) != table:
            raise AssertionError("closed family not closed under union/intersection")


def _ideal_table(ring: Ring) -> int:
    """The table of every V(I), built afresh on each call."""
    sp = enumerate_spectrum(ring)
    if sp.slotwise:
        return sp._product_table([_ideal_table(factor) for factor in ring.factors])
    return sp._table_of(map(sp._vanishing_mask, enumerate_ideals(ring)))


def principal_vanishing_sets(ring: Ring) -> frozenset[frozenset[Ideal]]:
    """All realizable sets V(f) = {p : f in p} for single elements f."""
    sp = enumerate_spectrum(ring)
    return frozenset(map(sp._points_of, IndexKernel.members(sp._principal_table)))


def ideal_vanishing_sets(ring: Ring) -> frozenset[frozenset[Ideal]]:
    """All realizable sets V(I) over the (finitely generated) ideals."""
    sp = enumerate_spectrum(ring)
    return frozenset(map(sp._points_of, IndexKernel.members(_ideal_table(ring))))


def closed_family(ring: Ring, topology: str,
                  use_ideal_basis: bool = False) -> ClosedFamily:
    """Materialize the closed sets of the named topology as a table.

    A finite space is fixed by the least open neighbourhood U_x of each
    point, the intersection of the sub-basic opens containing x: with B
    the table of the sub-basis, y is in U_x iff B & P_x & ~P_y == 0.  The
    open sets are the masks that hold U_x whenever they hold x, and the
    closed sets their complements.  U_x is read off the sub-basis, never
    off ideal inclusion, so comparing the families with the
    specialization order (as ``topology-characterization`` does) stays a
    real check.

    ``use_ideal_basis`` switches to the basis of V(I) over finitely
    generated ideals, which generates the same family.  Families of the
    V(f) are built once per spectrum; those of the V(I) on every call
    (see :func:`ideal_basis_families`).
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if use_ideal_basis:
        return ideal_basis_families(ring, (topology,))[0]
    sp = enumerate_spectrum(ring)
    sp._check_family_bound()
    if topology not in sp._families:
        sp._families[topology] = _generated_family(sp, topology, sp._principal_table)
    return sp._families[topology]


def ideal_basis_families(ring: Ring, topologies=(ZARISKI, FLAT)) -> tuple[ClosedFamily, ...]:
    """The families of the named topologies that the basis of the V(I)
    generates, all from one table of the V(I) made afresh on each call,
    so that the harness compares two independent computations."""
    sp = enumerate_spectrum(ring)
    sp._check_family_bound()
    vtable = _ideal_table(ring)
    return tuple(_generated_family(sp, topology, vtable) for topology in topologies)


def _generated_family(sp: SpectrumPoset, topology: str, vtable: int) -> ClosedFamily:
    """The family of the topology whose sub-basis the vanishing sets of
    ``vtable`` and their complements give, validated."""
    dtable = sp._complements(vtable)
    subbasis = {ZARISKI: dtable, FLAT: vtable, PATCH: dtable | vtable}[topology]
    opens = sp._saturated_table(sp._least_members(subbasis))
    family = ClosedFamily(topology, sp._complements(opens), sp)
    family.validate()
    return family
