"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately naive: ideals by scanning all subsets,
primality straight from the definition, generated ideals as the smallest
closed superset.  They stay independent of the production code paths they
are used to check.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

# No test leaves a bytecode cache, in the source tree or anywhere else: this
# interpreter writes none, and the interpreters the tests start inherit the
# variable.  A stale cache next to the sources also skews timed runs.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest  # noqa: E402

from spectop import (
    FLAT,
    PATCH,
    ZARISKI,
    LocalizedIntegerRing,
    closed_family,
    enumerate_ideals,
    enumerate_spectrum,
    ideal_intersection,
    parse_ring,
    saturation_kernel,
    unit_ideal,
)
from spectop.ideals import Ideal, ProductIdeal
from spectop.rings import IndexKernel

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import all_ops  # noqa: E402

CORPUS_TEXTS = (
    "Z/4",
    "Z/6",
    "Z/12",
    "GF(4)",
    "Z/2[x]/(x^2+x)",
    "Zloc(2)",
    "Zloc(2) * Z/3",
)

# Every ring the benchmark's golden outputs ask about whose spectrum is
# finite, so that its closed families can be generated; EvBits is the one
# without.
GOLDEN_TEXTS = tuple(sorted({argv[2] for argv in all_ops() if argv[1:2] == ["--ring"]}
                            - {"EvBits"}))

FINITE_CORPUS_TEXTS = tuple(t for t in CORPUS_TEXTS if "Zloc" not in t)

# Zloc(2)^1 .. Zloc(2)^6: up to 12 points, so that masks span more than one byte.
ZLOC_POWERS = tuple(" * ".join(["Zloc(2)"] * k) for k in range(1, 7))

# Finite rings of at most 12 elements, small enough for subset-scanning oracles.
SMALL_FINITE_TEXTS = (
    "Z/8",
    "Z/9",
    "Z/10",
    "Z/2 * Z/2 * Z/2",
    "Z/4 * Z/2",
    "Z/3[x]/(x^2)",
    "Z/2[x]/(x^3+x)",
)

# Finite rings with many elements and ideals, for the oracles that scan
# elements or pairs of elements but not subsets.
MANY_ELEMENT_TEXTS = ("Z/210", "Z/2[x]/(x^8)")


@pytest.fixture(params=CORPUS_TEXTS, ids=CORPUS_TEXTS)
def corpus_ring(request):
    return parse_ring(request.param)


@pytest.fixture(params=FINITE_CORPUS_TEXTS, ids=FINITE_CORPUS_TEXTS)
def finite_ring(request):
    return parse_ring(request.param)


def is_ideal_subset(ring, subset) -> bool:
    """Definition check: nonempty, closed under + and under r*."""
    subset = set(subset)
    if ring.zero not in subset:
        return False
    for a in subset:
        for b in subset:
            if a + b not in subset:
                return False
        for r in ring.elements():
            if r * a not in subset:
                return False
    return True


def brute_force_ideals(ring):
    """Every ideal of a small finite ring, by scanning all subsets."""
    elements = list(ring.elements())
    out = []
    for size in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            if is_ideal_subset(ring, combo):
                out.append(frozenset(combo))
    return out


def elements_of(ideal) -> frozenset:
    """The elements of a finite ideal: those of its ring's index kernel
    whose bits its mask sets."""
    k = ideal.ring.index_kernel
    return frozenset(k.elements[i] for i in k.members(ideal.mask))


def element_mask(ring, elements) -> int:
    """The mask of the given elements of a finite ring, bit i for the
    i-th element of ``ring.elements()``."""
    k = ring.index_kernel
    return k.mask(k.index[ring.element(e)] for e in elements)


def brute_force_generated(ring, gens):
    """The smallest ideal-subset containing the generators."""
    best = None
    for candidate in brute_force_ideals(ring):
        if all(g in candidate for g in gens):
            if best is None or len(candidate) < len(best):
                best = candidate
    return best


def closure_generated(ring, gens):
    """The smallest set holding 0 and the generators that is closed under +
    and under r*, by adding sums and multiples until nothing changes."""
    found = {ring.zero, *gens}
    while True:
        grown = (found | {a + b for a in found for b in found}
                 | {r * a for r in ring.elements() for a in found})
        if grown == found:
            return frozenset(found)
        found = grown


def brute_force_is_prime(ring, subset) -> bool:
    """Primality from the definition: proper and ab in I => a or b in I."""
    subset = set(subset)
    if ring.one in subset:
        return False
    for a in ring.elements():
        for b in ring.elements():
            if a * b in subset and a not in subset and b not in subset:
                return False
    return True


def oracle_closed_sets(points, subbasis):
    """The closed sets of the topology a sub-basis generates, by definition.

    The basis is the finite intersections of sub-basic opens, X (the empty
    intersection) included.  A subset is open when it is the union of the
    basis members inside it, and closed when its complement is open.  Point
    sets are bitmasks over ``points`` here, so that both steps can be
    dynamic programs over all subsets: U is a finite intersection iff it is
    the intersection of the sub-basic opens that contain it, and the basis
    members inside U are those inside U minus one point, and U itself.
    """
    points = list(points)
    bit = {p: 1 << i for i, p in enumerate(points)}
    full = (1 << len(points)) - 1
    meet = [full] * (full + 1)  # the intersection of the sub-basic opens holding U
    for s in subbasis:
        m = sum(bit[p] for p in s)
        meet[m] &= m
    inner = [0] * (full + 1)  # the union of the basis members inside U
    for i in range(len(points)):
        for u in range(full, -1, -1):
            if not u >> i & 1:
                meet[u] &= meet[u | 1 << i]
    for u in range(full + 1):
        if meet[u] == u:
            inner[u] = u
    for i in range(len(points)):
        for u in range(full + 1):
            if u >> i & 1:
                inner[u] |= inner[u ^ 1 << i]
    return {frozenset(p for p in points if not bit[p] & u)
            for u in range(full + 1) if inner[u] == u}


def factorwise_unions(ring, factor_sets):
    """The unions of one set per factor of an infinite product, each
    factor's points embedded in its slot, by ``itertools.product`` over the
    factors' own point sets.  ``factor_sets(factor)`` gives a factor's
    sets; a point of the product is proper in exactly one slot."""
    embedded = {}
    for p in enumerate_spectrum(ring).points:
        slot = next(i for i, c in enumerate(p.components) if not c.is_whole())
        embedded[slot, p.components[slot]] = p
    per_factor = [[frozenset(embedded[i, q] for q in s) for s in factor_sets(factor)]
                  for i, factor in enumerate(ring.factors)]
    return {frozenset().union(*combo) for combo in itertools.product(*per_factor)}


def generalizations_of(points, subset) -> frozenset:
    """The points contained in some point of the subset: its closure under
    generalization, read off ideal inclusion."""
    return frozenset(q for q in points if any(q.issubset(p) for p in subset))


def specializations_of(points, subset) -> frozenset:
    """The points that contain some point of the subset."""
    return frozenset(q for q in points if any(p.issubset(q) for p in subset))


def is_down_closed(points, subset) -> bool:
    """Stable under generalization: down-closed under ideal inclusion."""
    return generalizations_of(points, subset) == frozenset(subset)


def is_up_closed(points, subset) -> bool:
    """Stable under specialization: up-closed under ideal inclusion."""
    return specializations_of(points, subset) == frozenset(subset)


def loci_of_elements(ring, elements) -> set:
    """V(f) = {p : f in p} for each given element."""
    points = enumerate_spectrum(ring).points
    return {frozenset(p for p in points if p.contains(f)) for f in elements}


def ideals_cut_at_one(ring) -> list:
    """The ideals that ``enumerate_ideals`` lists, with the chain (p^k) of
    each localized factor cut at k = 1, so that Zloc(2)^6 gives 3^6."""
    if ring.is_finite:
        return list(enumerate_ideals(ring))
    if isinstance(ring, LocalizedIntegerRing):
        return [i for i in enumerate_ideals(ring) if i.level in (math.inf, 0, 1)]  # (0), (1), (p)
    return [ProductIdeal(ring, combo)
            for combo in itertools.product(*map(ideals_cut_at_one, ring.factors))]


def loci_of_ideals(ring) -> set:
    """V(I) for each ideal of ``ideals_cut_at_one``, by inclusion; V((p^k))
    is V((p)) for every k >= 1, so the cut loses no locus."""
    return {locus_by_inclusion(ring, ideal) for ideal in ideals_cut_at_one(ring)}


def sample_elements(ring) -> list:
    """Every element of a finite ring.  Over Zloc(p), V(f) tells apart only
    zero, the nonzero multiples of p and the units, so 0, p and 1 stand for
    all; over an infinite product, every tuple of its factors' samples."""
    if ring.is_finite:
        return list(ring.elements())
    if isinstance(ring, LocalizedIntegerRing):
        return [ring.element(v) for v in (0, ring.p, 1)]
    return [ring.element(tuple(e.value for e in combo))
            for combo in itertools.product(*map(sample_elements, ring.factors))]


def label_mask(ring, *labels) -> int:
    """The mask of the points of the ring's spectrum with the given labels."""
    return sum(1 << enumerate_spectrum(ring).labels.index(label) for label in labels)


def mask_points(ring, mask) -> frozenset:
    """The points of the ring's spectrum whose bits the mask sets."""
    return frozenset(p for i, p in enumerate(enumerate_spectrum(ring).points) if mask >> i & 1)


def point_mask(ring, points) -> int:
    """The mask of the given points of the ring's spectrum, bit i for the
    i-th point."""
    pts = enumerate_spectrum(ring).points
    return sum(1 << pts.index(p) for p in set(points))


def table_point_sets(sp, table) -> set:
    """The point sets of a table whose bit m stands for the mask m."""
    return {frozenset(p for i, p in enumerate(sp.points) if m >> i & 1)
            for m in range(1 << len(sp)) if table >> m & 1}


def common_multiplier(ideal, elements):
    """The first g of I, in the ring's element order, with f*g = f for every
    listed f, or None: every element of I is tried."""
    for g in ideal.ring.elements():
        if ideal.contains(g) and all(f * g == f for f in elements):
            return g
    return None


def fresh_copy(ideal):
    """The ideal as a new instance with an empty memo, so that nothing
    found on the original (a flatness search, a locus) is read back."""
    fresh = copy.copy(ideal)
    fresh.memo = {}
    return fresh


def locus_by_inclusion(ring, ideal):
    """V(I) as the primes that contain I, each prime tested on its own."""
    return frozenset(p for p in enumerate_spectrum(ring).points if ideal.issubset(p))


def flat_kernel_by_pairwise_meets(ring, points):
    """The flat kernel of a closed generalization-stable set as it was first
    built: the pairwise meet of its points, whose locus must be the set,
    and that meet's saturation kernel.  Loci are found by inclusion."""
    E = frozenset(points)
    realized = reduce(ideal_intersection, E) if E else unit_ideal(ring)
    assert locus_by_inclusion(ring, realized) == E
    assert is_down_closed(enumerate_spectrum(ring).points, E)
    return saturation_kernel(realized)


def closure_operators_by_members(ring):
    """The ``closure-operators`` check as first written, member by member:
    it closes every Zariski closed set and every patch closed set and
    looks each image up in the target family, then builds the flat kernel
    of every Zariski closed generalization-stable set by pairwise meets
    and checks its locus, by inclusion, and its flatness, by the generic
    witness search of ``Ideal`` on a fresh copy.  Returns
    ``(details, counterexample)`` as the harness check does."""
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    pfam = closed_family(ring, PATCH)
    sp = pfam.spectrum
    for E in IndexKernel.members(zfam.table):
        if not ffam.table >> sp.down_closure(E) & 1:
            return {}, {"operator": "generalization", "set": sp.labels_of(E)}
    for E in IndexKernel.members(pfam.table):
        if not zfam.table >> sp.up_closure(E) & 1:
            return {}, {"operator": "specialization", "set": sp.labels_of(E)}
    kernels = []
    for E in sorted(IndexKernel.members(zfam.table & sp.down_table), key=sp.mask_key):
        points = frozenset(p for i, p in enumerate(sp.points) if E >> i & 1)
        kernel = flat_kernel_by_pairwise_meets(ring, points)
        _, failing = Ideal.flat_search(fresh_copy(kernel))
        if locus_by_inclusion(ring, kernel) != points or failing is not None:
            return {}, {"operator": "flat-kernel", "set": sp.labels_of(E),
                        "kernel": kernel.label()}
        kernels.append({"set": sp.labels_of(E), "kernel": kernel.label()})
    return {"flat_kernels": kernels,
            "zariski_closed": len(zfam),
            "patch_closed": len(pfam)}, None


def spectop_process(*argv: str) -> subprocess.Popen:
    """``python -m spectop.cli`` with ``PYTHONPATH=src`` as a process of its
    own, its stdout and stderr pipes of text, so that what happens when it
    exits, and what it writes to a pipe, can be seen."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "spectop.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
