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

Chains are materialized up to a budget; a chain that keeps moving is
reported as not stabilized within the budget, never as a proof of
divergence.  The one genuinely infinite witness lives in the bits ring,
where the indicators of {1..n} grow strictly forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from .errors import HypothesisViolated, InvalidChain
from .ideals import Ideal, ideal_intersection, principal_ideal, unit_ideal
from .rings import Element, EventuallyConstantBitsRing, Ring, idempotents
from .spectrum import (
    ClosedFamily,
    FLAT,
    PrimePoint,
    ZARISKI,
    _family_key,
    _point_labels,
    closed_family,
    enumerate_spectrum,
    is_stable_generalization,
    is_stable_specialization,
    principal_vanishing_sets,
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
    "dual_chain",
    "growing_indicator_chain",
    "prefix_indicator",
    "sring_certificate",
    "stabilization_graph_check",
]

ASCENDING = "ascending"
DESCENDING = "descending"


@dataclass(frozen=True)
class MultiplicativeChain:
    """A finite materialization of a chain under one mode equation.

    Ascending mode requires f_n = f_n * f_{n+1}, descending mode requires
    g_{n+1} = g_n * g_{n+1}; every consecutive pair is validated eagerly,
    so holding a chain object means the discipline holds on all of it.
    Indices are 1-based throughout.
    """

    ring: Ring
    mode: str
    terms: tuple[Element, ...]

    @staticmethod
    def build(ring: Ring, mode: str, prefix=(), rule=None,
              budget: int | None = None) -> "MultiplicativeChain":
        """Materialize ``prefix`` extended by ``rule(n)`` up to ``budget`` terms."""
        if mode not in (ASCENDING, DESCENDING):
            raise ValueError(f"unknown chain mode {mode!r}")
        terms = [ring.element(t) for t in prefix]
        if rule is not None:
            if budget is None or budget < 1:
                raise ValueError("a rule-based chain needs a budget >= 1")
            for n in range(len(terms) + 1, budget + 1):
                terms.append(ring.element(rule(n)))
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

    def term(self, n: int) -> Element:
        return self.terms[n - 1]

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class StabilizationReport:
    """Outcome of scanning a materialized chain for a stable idempotent.

    ``stabilized`` with index k and value e means e*e == e and every
    materialized term from position k on equals e; that claim is
    self-certifying and re-checked by ``verify``.  Constancy has to be
    witnessed: the constant suffix is either the whole chain or holds at
    least two terms, since a final idempotent alone says nothing (in a
    Boolean ring every element is idempotent).  Otherwise the report
    carries the last index and the last two distinct values seen.
    """

    chain: MultiplicativeChain
    stabilized: bool
    index: int | None = None
    value: Element | None = None
    last_index: int | None = None
    last_distinct: tuple[Element, Element] | None = None

    @property
    def checked_length(self) -> int:
        return len(self.chain)

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
    """The earliest position from which the chain is a constant idempotent."""
    ts = chain.terms
    for k in range(1, len(ts) + 1):
        e = ts[k - 1]
        if not (e * e == e and all(t == e for t in ts[k - 1:])):
            continue
        if k == 1 or k < len(ts):
            return StabilizationReport(chain, True, index=k, value=e)
        break
    last = ts[-1]
    prior = next((t for t in reversed(ts) if t != last), None)
    distinct = None if prior is None else (prior, last)
    return StabilizationReport(chain, False, last_index=len(ts), last_distinct=distinct)


def dual_chain(chain: MultiplicativeChain) -> MultiplicativeChain:
    """Map every term through t -> 1-t and flip the mode.

    f_n = f_n*f_{n+1} holds exactly when (1-f)_{n+1} = (1-f)_n*(1-f)_{n+1},
    so validity is preserved and the construction is an involution.
    """
    one = chain.ring.one
    flipped = DESCENDING if chain.mode == ASCENDING else ASCENDING
    return MultiplicativeChain.build(
        chain.ring, flipped, [one - t for t in chain.terms])


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
    never stabilizes at any budget; the supports grow strictly.
    """
    return MultiplicativeChain.build(
        ring, ASCENDING, rule=lambda n: prefix_indicator(ring, n), budget=budget)


# ---------------------------------------------------------------------------
# topological S-ring certificate


@dataclass(frozen=True)
class SRingCertificate:
    """Exhaustive check of the open/closed characterizations on one ring.

    ``double_closed_matches`` pairs every set closed in both the Zariski
    and flat topologies with the unique idempotent e such that the set is
    V(e).
    """

    ring: Ring
    passed: bool
    closed_genstable_open: bool
    flatclosed_specstable_open: bool
    double_closed_ok: bool
    double_closed_matches: tuple[tuple[frozenset[PrimePoint], Element], ...]
    failures: tuple[str, ...] = ()
    zariski: ClosedFamily | None = field(compare=False, default=None)
    flat: ClosedFamily | None = field(compare=False, default=None)


def sring_certificate(ring: Ring) -> SRingCertificate:
    """Verify the S-ring characterizations that are visible in the topology.

    Checks, over the full materialized families: every Zariski closed
    generalization-stable set is Zariski open; every flat closed
    specialization-stable set is flat open; and the double-closed sets
    are exactly the V(e) for idempotent e, matched one to one.
    """
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    failures = []

    def stable_sets_open(fam: ClosedFamily, is_stable, stability: str) -> bool:
        ok = True
        for E in fam.sets:
            if is_stable(ring, E) and fam.spectrum.as_set() - E not in fam.sets:
                ok = False
                failures.append(
                    f"{fam.topology} closed {stability}-stable set {_point_labels(E)} "
                    f"is not {fam.topology} open")
        return ok

    genstable_open = stable_sets_open(zfam, is_stable_generalization, "generalization")
    specstable_open = stable_sets_open(ffam, is_stable_specialization, "specialization")

    double = zfam.sets & ffam.sets
    matches = []
    seen = {}
    for e in idempotents(ring):
        locus = vanishing_locus(ring, principal_ideal(ring, e))
        if locus in seen:
            failures.append(f"idempotents {seen[locus]} and {e} share a vanishing set")
        seen[locus] = e
    double_ok = set(seen) == set(double) and len(seen) == len(double)
    if not double_ok:
        failures.append(
            f"double-closed family has {len(double)} members but idempotents "
            f"realize {len(seen)} vanishing sets")
    for E in sorted(double, key=_family_key):
        if E in seen:
            matches.append((E, seen[E]))

    passed = genstable_open and specstable_open and double_ok and not failures
    return SRingCertificate(
        ring, passed, genstable_open, specstable_open, double_ok,
        tuple(matches), tuple(failures), zfam, ffam)


# ---------------------------------------------------------------------------
# chain conditions on X & V(f)


@dataclass(frozen=True)
class ChainConditionTrace:
    """Evidence collected while checking the covering chain condition.

    ``family`` is the full finite family {X & V(f) : f in R}; finiteness
    gives both chain conditions at once.  When a chain (a_n) is supplied
    the per-term sections E_n = X & V(a_n) and F_n = X & V(1-a_n) are
    materialized and their inclusions checked.
    """

    x_points: frozenset[PrimePoint]
    meet_ideal: Ideal
    family: tuple[frozenset[PrimePoint], ...]
    sections: tuple[tuple[frozenset[PrimePoint], frozenset[PrimePoint]], ...] | None
    conclusion: SRingCertificate


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
    X = frozenset(points)
    if not X <= sp.as_set():
        raise ValueError("the given points do not belong to this spectrum")
    # Label order, not hash order, so the work done is the same in every run.
    by_label = sorted(X, key=lambda p: p.label())
    for m in sorted(sp.maximal_points(), key=lambda p: p.label()):
        if not any(p.ideal.issubset(m.ideal) for p in by_label):
            raise HypothesisViolated(
                f"maximal ideal {m.label()} has no member of X below it",
                witness=m)

    meet = unit_ideal(ring)
    for p in by_label:
        meet = ideal_intersection(meet, p.ideal)

    family = {X & v for v in principal_vanishing_sets(ring)}
    ordered = tuple(sorted(family, key=_family_key))

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
