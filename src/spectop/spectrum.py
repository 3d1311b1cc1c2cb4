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
prime :class:`Ideal`, and the mask is the one form of a point set that
the public functions take and return; ``SpectrumPoset.mask_of`` and
``labels_of`` convert from primes and to labels.

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
from operator import and_, eq, or_

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
    IndexKernel,
    Record,
    Ring,
    brief,
    memoized,
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
    "ideal_basis_families",
    "vanishing_locus",
]

ZARISKI = "zariski"
FLAT = "flat"
PATCH = "patch"
TOPOLOGIES = (ZARISKI, FLAT, PATCH)


# Each byte value with its eight bits in reverse order (the multiply,
# mask and modulus byte reversal of Anderson's Bit Twiddling Hacks).
_BYTE_REVERSED = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))

# The parts of ``SpectrumPoset.mask_key`` that each byte of a 16-bit mask
# gives: its size, and its complement reversed into the other byte.
_LOW_BYTE_KEYS = [b.bit_count() << 16 | (255 ^ _BYTE_REVERSED[b]) << 8 for b in range(256)]
_HIGH_BYTE_KEYS = [b.bit_count() << 16 | 255 ^ _BYTE_REVERSED[b] for b in range(256)]


class SpectrumPoset:
    """All prime ideals of one ring, ordered by inclusion.

    Point i is the prime ideal ``points[i]``, in label order, and a point
    set is the int with bit i set for each member.  ``down[i]`` is the
    generalization cone of point i (the primes it contains) and ``up[i]``
    its specialization cone, both read off ideal inclusion, and
    ``minimal`` and ``maximal`` are the masks of the points with nothing
    below and nothing above them.  ``_parts``
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
        bits = [1 << i for i in range(n)]
        self.minimal = sum(compress(bits, map(eq, down, bits)))
        self.maximal = sum(compress(bits, map(eq, up, bits)))
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

    def mask_of(self, ideals) -> int:
        """The mask of the given primes of this spectrum; any other ideal
        raises ValueError."""
        mask = 0
        for ideal in ideals:
            if ideal not in self._index:
                raise ValueError(f"{brief(ideal.label())} is not a prime of "
                                 f"{self.ring.describe()}")
            mask |= 1 << self._index[ideal]
        return mask

    def check_mask(self, mask: int) -> None:
        """Refuse an int that is no point set of this spectrum: a negative
        one, or one with a bit at or past ``len(self)``."""
        if not 0 <= mask <= self.full:
            raise ValueError(f"the mask {brief(hex(mask))} is not a set of the "
                             f"{len(self)} points of {self.ring.describe()}")

    def labels_of(self, mask: int) -> list[str]:
        """A point set as its sorted labels, the form every document uses;
        bit order is label order."""
        return [self.labels[i] for i in IndexKernel.members(mask)]

    @staticmethod
    def mask_key(mask: int) -> int:
        """The canonical order of point sets: smaller sets first, and of two
        sets of one size, the one holding the lowest point where they differ.
        The key is the size above the complement of the mask's 16 bits in
        reverse order, read a byte at a time through ``_BYTE_REVERSED``; as
        bit order is label order, it sorts like (len, labels).  A mask of
        more than ``MAX_FAMILY_POINTS`` bits has no key."""
        return _LOW_BYTE_KEYS[mask & 255] + _HIGH_BYTE_KEYS[mask >> 8]

    def family_labels(self, masks) -> list[list[str]]:
        """A family of point sets as label lists, in the canonical order."""
        return [self.labels_of(m) for m in sorted(masks, key=self.mask_key)]

    @cached_property
    def principal_table(self) -> int:
        """The table of every V(f), built once per spectrum.  A finite ring
        tries every f; over the localized integers V(f) only depends on
        whether f is zero, a prime multiple or a unit."""
        ring = self.ring
        if self.slotwise:
            return self._product_table(
                [enumerate_spectrum(factor).principal_table for factor in ring.factors])
        samples = ring.elements() if ring.is_finite else (0, ring.p, 1)
        return self.table_of(
            IndexKernel.mask(i for i, p in enumerate(self.points) if p.contains(f))
            for f in samples)

    @cached_property
    def _slots(self) -> tuple[list[int], ...]:
        """Each slot of an infinite product as the list that maps each mask
        over its factor's spectrum to the same points in the slot.  A factor
        has at most 8 points: a localization has 2, and a finite ring at
        most log2(MAX_RING_ELEMENTS)."""
        index = {part: 1 << i for i, part in enumerate(self._parts)}
        slots = []
        for s, fsp in enumerate(map(enumerate_spectrum, self.ring.factors)):
            embed = [0]
            for q in fsp.points:
                bit = index[s, q]
                embed += [m | bit for m in embed]
            slots.append(embed)
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
        for embed, factor_table in zip(self._slots, factor_tables):
            shifted = 0
            for member in IndexKernel.members(factor_table):
                shifted |= table << embed[member]
            table = shifted
        return table

    def down_closure(self, mask: int) -> int:
        """The union of the generalization cones of the mask's points.  The
        checks close a few sets per family, so nothing is tabulated."""
        return reduce(or_, map(self.down.__getitem__, IndexKernel.members(mask)), 0)

    def up_closure(self, mask: int) -> int:
        """The union of the specialization cones of the mask's points."""
        return reduce(or_, map(self.up.__getitem__, IndexKernel.members(mask)), 0)

    # -- tables over the power set -----------------------------------------

    @cached_property
    def _patterns(self) -> tuple[int, ...]:
        """P_x for each point x, the table of the masks that hold x: runs
        of 2^x clear and 2^x set bits, alternating."""
        self.check_family_bound()
        every = (1 << (1 << len(self.points))) - 1
        return tuple(every // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
                     for x in range(len(self.points)))

    def table_of(self, masks) -> int:
        """The table holding the given masks."""
        table = bytearray(((1 << len(self.points)) + 7) >> 3)
        for m in masks:
            table[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(table, "little")

    def complements(self, table: int) -> int:
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

    def check_family_bound(self) -> None:
        """Refuse a spectrum whose closed families are too large to generate."""
        if len(self) > MAX_FAMILY_POINTS:
            raise SpectrumTooLarge(
                f"{len(self)} spectrum points exceed the bound {MAX_FAMILY_POINTS}")

    def cover_edges(self) -> tuple[tuple[Ideal, Ideal], ...]:
        """Strict containments with nothing in between, sorted by label.

        p < q is a cover exactly when the points between them, up[p] &
        down[q], are p and q alone.
        """
        pts = self.points
        return tuple((pts[i], pts[j]) for i in range(len(pts)) for j in range(len(pts))
                     if i != j and self.up[i] & self.down[j] == 1 << i | 1 << j)


@memoized("spectrum")
def enumerate_spectrum(ring: Ring) -> SpectrumPoset:
    """All prime ideals with the containment order.

    ``ideals.prime_ideals`` lists the primes once per ring: the maximal
    ones among a finite ring's enumerated ideals, (0) and (p) for
    ``Zloc(p)``, and for an infinite product a prime of one factor in its
    slot with the whole ring elsewhere, from the list that the factor's
    own spectrum reads.  The bits ring refuses.
    """
    return SpectrumPoset(ring, prime_ideals(ring))


@memoized("vanishing_locus")
def vanishing_locus(ideal: Ideal) -> int:
    """V(I), the primes containing the ideal, as a mask over the spectrum
    of its ring.  Over an infinite product it is the union of the
    components' loci, each in its slot, so each shared component's locus
    is found once."""
    sp = enumerate_spectrum(ideal.ring)
    if sp.slotwise:
        return sum(embed[vanishing_locus(c)] for embed, c in zip(sp._slots, ideal.components))
    return IndexKernel.mask(i for i, p in enumerate(sp.points) if ideal.issubset(p))


# ---------------------------------------------------------------------------
# topology generation


class ClosedFamily(Record):
    """The closed sets of one topology over a finite spectrum: bit m of
    ``table`` is set when mask m is closed, and ``sets`` is lazy.  The
    spectrum takes no part in equality."""

    __slots__ = ("topology", "table", "spectrum", "__dict__")
    _uncompared = ("spectrum",)

    def __len__(self) -> int:
        return self.table.bit_count()

    @cached_property
    def sets(self) -> frozenset[frozenset[Ideal]]:
        """The members as sets of prime ideals."""
        points = self.spectrum.points
        return frozenset(frozenset(map(points.__getitem__, IndexKernel.members(m)))
                         for m in IndexKernel.members(self.table))

    @cached_property
    def point_closures(self) -> list[int]:
        """cl(x) for each point x, the intersection of the members holding
        x: in a valid family the least member holding x."""
        return self.spectrum._least_members(self.table)

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
    return sp.table_of(map(vanishing_locus, enumerate_ideals(ring)))


def closed_family(ring: Ring, topology: str) -> ClosedFamily:
    """Materialize the closed sets of the named topology as a table.

    A finite space is fixed by the least open neighbourhood U_x of each
    point, the intersection of the sub-basic opens containing x: with B
    the table of the sub-basis, y is in U_x iff B & P_x & ~P_y == 0.  The
    open sets are the masks that hold U_x whenever they hold x, and the
    closed sets their complements.  U_x is read off the sub-basis, never
    off ideal inclusion, so comparing the families with the
    specialization order (as ``topology-characterization`` does) stays a
    real check.

    The families of the V(f) are built once per spectrum.  The basis of
    the V(I) generates the same families; :func:`ideal_basis_families`
    builds those afresh on every call.
    """
    sp = enumerate_spectrum(ring)
    sp.check_family_bound()
    if topology not in sp._families:
        sp._families[topology] = _generated_family(sp, topology, sp.principal_table)
    return sp._families[topology]


def ideal_basis_families(ring: Ring) -> tuple[ClosedFamily, ClosedFamily]:
    """The Zariski and flat families that the basis of the V(I) generates,
    both from one table of the V(I) made afresh on each call, so that the
    harness compares two independent computations."""
    sp = enumerate_spectrum(ring)
    sp.check_family_bound()
    vtable = _ideal_table(ring)
    return _generated_family(sp, ZARISKI, vtable), _generated_family(sp, FLAT, vtable)


def _generated_family(sp: SpectrumPoset, topology: str, vtable: int) -> ClosedFamily:
    """The family of the topology whose sub-basis the vanishing sets of
    ``vtable`` and their complements give, validated."""
    dtable = sp.complements(vtable)
    subbases = {ZARISKI: dtable, FLAT: vtable, PATCH: dtable | vtable}
    if topology not in subbases:
        raise ValueError(f"unknown topology {topology!r}")
    opens = sp._saturated_table(sp._least_members(subbases[topology]))
    family = ClosedFamily(topology, sp.complements(opens), sp)
    family.validate()
    return family
