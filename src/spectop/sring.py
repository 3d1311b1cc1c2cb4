"""Multiplicative chains, stabilization analysis and S-ring certificates.

A ring is an S-ring when every finitely generated flat module over it is
projective.  For the rings here that property is exercised through three
computable surfaces:

* chains f1, f2, ... with f_n = f_n * f_{n+1} and the question whether
  they become a constant idempotent,
* topological certificates: closed generalization-stable sets are open,
  and double-closed sets are exactly the V(e) for idempotents e,
* chain conditions on the families X & V(f) for a point set X covering
  the maximal ideals.

The S-ring certificate is computed once per ring instance and kept on
the ring, so ``sring-equivalences`` and both runs of the chain condition
check (X the minimal and X the maximal points) share it; a ring parsed
afresh starts without one.

Chains are materialized up to a budget; a chain that keeps moving is
reported as not stabilized within the budget, never as a proof of
divergence.  The one genuinely infinite witness lives in the bits ring,
where the indicators of {1..n} grow strictly forever.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from .errors import HypothesisViolated, InvalidChain
from .ideals import intersect_all, principal_ideal
from .rings import EventuallyConstantBitsRing, IndexKernel, Record, Ring, idempotents, memoized
from .spectrum import (
    ClosedFamily,
    FLAT,
    ZARISKI,
    closed_family,
    enumerate_spectrum,
    vanishing_locus,
)

__all__ = [
    "ChainConditionTrace",
    "MultiplicativeChain",
    "SRingCertificate",
    "StabilizationReport",
    "chain_condition_check",
    "check_chain_stabilization",
    "growing_indicator_chain",
    "sring_certificate",
    "stabilization_graph_check",
]

class MultiplicativeChain(Record):
    """A finite materialization of an ascending chain, f_n = f_n * f_{n+1}
    for every n.  ``build`` validates every consecutive pair eagerly; the
    constructor validates nothing, so a chain made by it directly may
    break the discipline.  Indices are 1-based throughout.
    """

    __slots__ = ("ring", "terms")

    @staticmethod
    def build(ring: Ring, terms) -> "MultiplicativeChain":
        """Materialize the given terms as a validated chain."""
        terms = [ring.element(t) for t in terms]
        if not terms:
            raise ValueError("a chain has at least one term")
        chain = MultiplicativeChain(ring, tuple(terms))
        chain._validate()
        return chain

    def _validate(self):
        for n, (a, b) in enumerate(zip(self.terms, self.terms[1:]), 1):
            if a != a * b:
                raise InvalidChain(
                    f"term {n} violates f_n = f_n*f_(n+1): {a} != {a}*{b}", index=n)

    def __len__(self):
        return len(self.terms)


class StabilizationReport(Record):
    """Outcome of scanning a materialized chain for a stable idempotent.

    ``stabilized`` with index k and value e means e*e == e and every
    materialized term from position k on equals e; that claim is
    self-certifying and re-checked by ``verify``.  Constancy has to be
    witnessed: the constant suffix is either the whole chain or holds at
    least two terms, since a final idempotent alone says nothing (in a
    Boolean ring every element is idempotent).  Otherwise the report
    carries the last index and the last two distinct values seen.
    """

    __slots__ = ("chain", "stabilized", "index", "value", "last_index", "last_distinct")
    _defaults = dict.fromkeys(("index", "value", "last_index", "last_distinct"))

    def verify(self) -> bool:
        ts = self.chain.terms
        if self.stabilized:
            e = self.value
            return (e * e == e
                    and all(t == e for t in ts[self.index - 1:])
                    and (self.index == 1 or self.index < len(ts)))
        if self.last_index != len(ts):
            return False
        if self.last_distinct is not None:
            a, b = self.last_distinct
            return a != b and a in ts and ts[-1] == b
        return len(set(ts)) == 1


def check_chain_stabilization(chain: MultiplicativeChain) -> StabilizationReport:
    """The earliest position from which the chain is a constant idempotent.

    That position can only be the start k of the longest constant suffix,
    found by one backward scan; the chain stabilizes there when the last
    term is idempotent and the suffix is witnessed as constant.
    """
    ts = chain.terms
    last = ts[-1]
    k = len(ts)
    while k > 1 and ts[k - 2] == last:
        k -= 1
    if last * last == last and (k == 1 or k < len(ts)):
        return StabilizationReport(chain, True, index=k, value=last)
    distinct = (ts[k - 2], last) if k > 1 else None
    return StabilizationReport(chain, False, last_index=len(ts), last_distinct=distinct)


# ---------------------------------------------------------------------------
# the bits-ring witness


def growing_indicator_chain(ring: EventuallyConstantBitsRing,
                            budget: int) -> MultiplicativeChain:
    """The ascending chain x_n = indicator of {1..n}.

    Each x_n equals x_n * x_{n+1} but no two terms agree, so the chain
    never stabilizes at any budget; the supports grow strictly.  A budget
    below 1 gives no terms, which ``build`` refuses.
    """
    return MultiplicativeChain.build(
        ring, [ring.indicator(range(1, n + 1)) for n in range(1, budget + 1)])


# ---------------------------------------------------------------------------
# topological S-ring certificate


class SRingCertificate(Record):
    """Exhaustive check of the open/closed characterizations on one ring.

    ``double_closed_matches`` pairs every set closed in both the Zariski
    and flat topologies, as a mask, with the unique idempotent e such that
    the set is V(e), in the canonical order of the sets.
    """

    __slots__ = ("ring", "passed", "closed_genstable_open", "flatclosed_specstable_open",
                 "double_closed_ok", "double_closed_matches", "failures")
    _defaults = {"failures": ()}


@memoized("sring_certificate")
def sring_certificate(ring: Ring) -> SRingCertificate:
    """Verify the S-ring characterizations that are visible in the topology.

    Checks, over the full materialized families: every Zariski closed
    generalization-stable set is Zariski open; every flat closed
    specialization-stable set is flat open; and the double-closed sets
    are exactly the V(e) for idempotent e, matched one to one.
    """
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    sp = zfam.spectrum
    failures = []

    def stable_sets_open(fam: ClosedFamily, stable: int, stability: str) -> bool:
        not_open = fam.table & stable & ~sp.complements(fam.table)
        for E in IndexKernel.members(not_open):
            failures.append(
                f"{fam.topology} closed {stability}-stable set {sp.labels_of(E)} "
                f"is not {fam.topology} open")
        return not not_open

    genstable_open = stable_sets_open(zfam, sp.down_table, "generalization")
    specstable_open = stable_sets_open(ffam, sp.up_table, "specialization")

    double = zfam.table & ffam.table
    matches = []
    seen = {}
    for e in idempotents(ring):
        locus = vanishing_locus(principal_ideal(ring, e))
        if locus in seen:
            failures.append(f"idempotents {seen[locus]} and {e} share a vanishing set")
        seen[locus] = e
    double_ok = sp.table_of(seen) == double
    if not double_ok:
        failures.append(
            f"double-closed family has {double.bit_count()} members but idempotents "
            f"realize {len(seen)} vanishing sets")
    for E in sorted(IndexKernel.members(double), key=sp.mask_key):
        if E in seen:
            matches.append((E, seen[E]))

    passed = genstable_open and specstable_open and double_ok and not failures
    return SRingCertificate(
        ring, passed, genstable_open, specstable_open, double_ok,
        tuple(matches), tuple(failures))


# ---------------------------------------------------------------------------
# chain conditions on X & V(f)


class ChainConditionTrace(Record):
    """Evidence collected while checking the covering chain condition.

    ``x_points`` is the mask of X, and ``family`` the full finite family
    {X & V(f) : f in R} as masks in the canonical order; finiteness gives
    both chain conditions at once.
    """

    __slots__ = ("x_points", "meet_ideal", "family", "conclusion")


def chain_condition_check(ring: Ring, x: int) -> ChainConditionTrace:
    """Check the covering hypothesis and the chain conditions for the set X
    of the points in the mask x.

    Raises ValueError when x is no mask over the spectrum, and
    :class:`HypothesisViolated` with the first uncovered maximal point
    when some maximal ideal has no member of X below it.  The family
    {X & V(f)} is materialized from the finitely many realizable V(f), so
    both the ascending and the descending chain condition hold; the trace
    carries that family and the S-ring certificate of the ring itself.
    """
    sp = enumerate_spectrum(ring)
    sp.check_mask(x)
    uncovered = sp.maximal & ~sp.up_closure(x)
    if uncovered:
        m = sp.points[IndexKernel.members(uncovered)[0]]
        raise HypothesisViolated(
            f"maximal ideal {m.label()} has no member of X below it", witness=m)
    # The certificate needs closed families; refuse a spectrum too large
    # for them before the family, which can grow like 3^k, is built.
    sp.check_family_bound()
    family = {x & v for v in IndexKernel.members(sp.principal_table)}
    return ChainConditionTrace(
        x_points=x,
        meet_ideal=intersect_all(ring, map(sp.points.__getitem__, IndexKernel.members(x))),
        family=tuple(sorted(family, key=sp.mask_key)),
        conclusion=sring_certificate(ring),
    )


# ---------------------------------------------------------------------------
# the finite-graph restatement of chain stabilization


def stabilization_graph_check(ring: Ring):
    """Every cycle of the relation f -> f' iff f = f*f' is a self-loop.

    On the directed graph over all ring elements, self-loops sit exactly
    at idempotents, and a non-trivial cycle would yield a periodic
    non-constant chain satisfying the ascending discipline forever.  For
    a finite ring no such cycle exists; this scans for one and returns
    (True, None) or (False, cycle), the cycle a closed path f, f', ..., f
    along the relation.  The relation is read off the ring's mul table.
    """
    k = ring.index_kernel
    succs = {
        f: [g for g, fg in enumerate(row) if g != f and fg == f]
        for f, row in enumerate(k.mul)
    }
    try:
        # Read as predecessor lists, so a cycle comes back against the
        # direction of the relation.
        TopologicalSorter(succs).prepare()
    except CycleError as exc:
        return (False, tuple(k.elements[f] for f in reversed(exc.args[1])))
    return (True, None)
