"""Multiplicative chains, stabilization analysis and S-ring certificates.

A ring is an S-ring when every finitely generated flat module over it is
projective.  For the rings here that property is exercised through three
computable surfaces:

* chains f1, f2, ... with f_n = f_n * f_{n+1} (or the dual discipline
  g_{n+1} = g_n * g_{n+1}) and the question whether they become a
  constant idempotent,
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
from .rings import Element, EventuallyConstantBitsRing, IndexKernel, Record, Ring, idempotents
from .spectrum import (
    ClosedFamily,
    FLAT,
    ZARISKI,
    closed_family,
    enumerate_spectrum,
    vanishing_locus,
)

__all__ = [
    "ASCENDING",
    "DESCENDING",
    "ChainConditionTrace",
    "MultiplicativeChain",
    "SRingCertificate",
    "StabilizationReport",
    "chain_condition_check",
    "check_chain_stabilization",
    "growing_indicator_chain",
    "prefix_indicator",
    "sring_certificate",
    "stabilization_graph_check",
]

ASCENDING = "ascending"
DESCENDING = "descending"


class MultiplicativeChain(Record):
    """A finite materialization of a chain under one mode equation.

    Ascending mode requires f_n = f_n * f_{n+1}, descending mode requires
    g_{n+1} = g_n * g_{n+1}; every consecutive pair is validated eagerly,
    so holding a chain object means the discipline holds on all of it.
    Indices are 1-based throughout.
    """

    __slots__ = ("ring", "mode", "terms")

    @staticmethod
    def build(ring: Ring, mode: str, terms) -> "MultiplicativeChain":
        """Materialize the given terms as a validated chain."""
        if mode not in (ASCENDING, DESCENDING):
            raise ValueError(f"unknown chain mode {mode!r}")
        terms = [ring.element(t) for t in terms]
        if not terms:
            raise ValueError("a chain has at least one term")
        chain = MultiplicativeChain(ring, mode, tuple(terms))
        chain._validate()
        return chain

    def _validate(self):
        for n in range(len(self.terms) - 1):
            a, b = self.terms[n], self.terms[n + 1]
            if self.mode == ASCENDING and a != a * b:
                raise InvalidChain(
                    f"term {n + 1} violates f_n = f_n*f_(n+1): {a} != {a}*{b}",
                    index=n + 1)
            if self.mode == DESCENDING and b != a * b:
                raise InvalidChain(
                    f"term {n + 2} violates g_(n+1) = g_n*g_(n+1): {b} != {a}*{b}",
                    index=n + 2)

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


def prefix_indicator(ring: EventuallyConstantBitsRing, n: int) -> Element:
    """The element of the bits ring that is 1 exactly on positions 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ring.indicator(range(1, n + 1))


def growing_indicator_chain(ring: EventuallyConstantBitsRing,
                            budget: int) -> MultiplicativeChain:
    """The ascending chain x_n = indicator of {1..n}.

    Each x_n equals x_n * x_{n+1} but no two terms agree, so the chain
    never stabilizes at any budget; the supports grow strictly.  A budget
    below 1 gives no terms, which ``build`` refuses.
    """
    return MultiplicativeChain.build(
        ring, ASCENDING, [prefix_indicator(ring, n) for n in range(1, budget + 1)])


# ---------------------------------------------------------------------------
# topological S-ring certificate


class SRingCertificate(Record):
    """Exhaustive check of the open/closed characterizations on one ring.

    ``double_closed_matches`` pairs every set closed in both the Zariski
    and flat topologies with the unique idempotent e such that the set is
    V(e).
    """

    __slots__ = ("ring", "passed", "closed_genstable_open", "flatclosed_specstable_open",
                 "double_closed_ok", "double_closed_matches", "failures")
    _defaults = {"failures": ()}


def sring_certificate(ring: Ring) -> SRingCertificate:
    """Verify the S-ring characterizations that are visible in the topology.

    Checks, over the full materialized families: every Zariski closed
    generalization-stable set is Zariski open; every flat closed
    specialization-stable set is flat open; and the double-closed sets
    are exactly the V(e) for idempotent e, matched one to one.  The
    certificate is computed once per ring instance and kept on it.
    """
    memo = ring.memo
    if "sring_certificate" not in memo:
        memo["sring_certificate"] = _certify(ring)
    return memo["sring_certificate"]


def _certify(ring: Ring) -> SRingCertificate:
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    sp = zfam.spectrum
    failures = []

    def stable_sets_open(fam: ClosedFamily, stable: int, stability: str) -> bool:
        not_open = fam.table & stable & ~sp._complements(fam.table)
        for E in IndexKernel.members(not_open):
            failures.append(
                f"{fam.topology} closed {stability}-stable set {sp._labels_of(E)} "
                f"is not {fam.topology} open")
        return not not_open

    genstable_open = stable_sets_open(zfam, sp.down_table, "generalization")
    specstable_open = stable_sets_open(ffam, sp.up_table, "specialization")

    double = zfam.table & ffam.table
    matches = []
    seen = {}
    for e in idempotents(ring):
        locus = sp._vanishing_mask(principal_ideal(ring, e))
        if locus in seen:
            failures.append(f"idempotents {seen[locus]} and {e} share a vanishing set")
        seen[locus] = e
    double_ok = sp._table_of(seen) == double
    if not double_ok:
        failures.append(
            f"double-closed family has {double.bit_count()} members but idempotents "
            f"realize {len(seen)} vanishing sets")
    for E in sorted(IndexKernel.members(double), key=sp._mask_key):
        if E in seen:
            matches.append((sp._points_of(E), seen[E]))

    passed = genstable_open and specstable_open and double_ok and not failures
    return SRingCertificate(
        ring, passed, genstable_open, specstable_open, double_ok,
        tuple(matches), tuple(failures))


# ---------------------------------------------------------------------------
# chain conditions on X & V(f)


class ChainConditionTrace(Record):
    """Evidence collected while checking the covering chain condition.

    ``family`` is the full finite family {X & V(f) : f in R}; finiteness
    gives both chain conditions at once.  When a chain (a_n) is supplied
    the per-term sections E_n = X & V(a_n) and F_n = X & V(1-a_n) are
    materialized and their inclusions checked.
    """

    __slots__ = ("x_points", "meet_ideal", "family", "sections", "conclusion")


def chain_condition_check(ring: Ring, points,
                          chain: MultiplicativeChain | None = None) -> ChainConditionTrace:
    """Check the covering hypothesis and the chain conditions for X.

    Raises :class:`HypothesisViolated` with the uncovered maximal point
    when some maximal ideal has no member of X below it.  The family
    {X & V(f)} is materialized from the finitely many realizable V(f), so
    both the ascending and the descending chain condition hold; the trace
    carries that family and the S-ring certificate of the ring itself.
    """
    sp = enumerate_spectrum(ring)
    x = sp._mask_of(points)
    X = sp._points_of(x)
    for j, m in enumerate(sp.points):
        if sp.up[j] == 1 << j and not x & sp.down[j]:
            raise HypothesisViolated(
                f"maximal ideal {m.label()} has no member of X below it",
                witness=m)
    # The certificate needs closed families; refuse a spectrum too large
    # for them before the family, which can grow like 3^k, is built.
    sp._check_family_bound()

    meet = intersect_all(ring, X)

    family = {x & v for v in IndexKernel.members(sp._principal_table)}
    ordered = tuple(sp._points_of(s) for s in sorted(family, key=sp._mask_key))

    sections = None
    if chain is not None:
        if chain.mode != ASCENDING:
            raise ValueError("sections are defined for ascending chains")
        one = ring.one
        rows = []
        for t in chain.terms:
            e_n = X & vanishing_locus(ring, principal_ideal(ring, t))
            f_n = X & vanishing_locus(ring, principal_ideal(ring, one - t))
            rows.append((e_n, f_n))
        for n in range(len(rows) - 1):
            if not rows[n + 1][0] <= rows[n][0]:
                raise AssertionError("E_n must shrink along an ascending chain")
            if not rows[n][1] <= rows[n + 1][1]:
                raise AssertionError("F_n must grow along an ascending chain")
            if X != rows[n][0] | rows[n + 1][1]:
                raise AssertionError("X = E_n united with F_(n+1) failed")
        sections = tuple(rows)

    return ChainConditionTrace(
        x_points=X,
        meet_ideal=meet,
        family=ordered,
        sections=sections,
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
