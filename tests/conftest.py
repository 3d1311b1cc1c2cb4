"""Shared fixtures and independent brute-force oracles.

The oracles here are deliberately naive: ideals by scanning all subsets,
primality straight from the definition, generated ideals as the smallest
closed superset.  They stay independent of the production code paths they
are used to check.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectop import enumerate_spectrum, parse_ring

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


def spectop_process(*argv: str) -> subprocess.Popen:
    """``python -m spectop.cli`` with ``PYTHONPATH=src`` as a process of its
    own, its stdout and stderr pipes of text, so that what happens when it
    exits, and what it writes to a pipe, can be seen."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "spectop.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
