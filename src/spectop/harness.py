"""Corpus-driven verification of the library's structural claims.

Every check ties one mathematical statement to an executable, exhaustive
test over one ring: the topology characterizations, the closure operators
on closed sets, the bijection between flat-quotient ideals and closed
generalization-stable sets, the radical rigidity corollaries on reduced
rings, the S-ring equivalences, the modular CRT decomposition, the
covering chain conditions, and the bits-ring witness of a flat cyclic
quotient that is not projective.

Checks are pure and perform no I/O; serialization lives in the command
line layer.  A check returns a pair ``(details, counterexample)``, the
counterexample ``None`` on a pass, or raises ``_Skip`` with the reason it
does not apply.  :func:`run_check` alone turns that outcome into a
plain-data :class:`TheoremReport`: the check's name is its registry key, a
counterexample makes the verdict "fail", and ``_Skip``,
:class:`UnsupportedForPresentation` and a size budget hit
(:class:`RingTooLarge`, :class:`SpectrumTooLarge`) all make it "skipped"
with the reason in the details.  A counterexample payload
reproduces the failure when the check is re-run.
"""

from __future__ import annotations

import time

from .dsl import parse_ring
from .errors import (
    CorpusError,
    HypothesisViolated,
    RingTooLarge,
    SpectopError,
    SpectrumTooLarge,
    UnsupportedForPresentation,
)
from .flatness import (
    flat_ideal_from_closed_set,
    is_cyclic_flat,
    is_cyclic_projective,
    support_of_ideal,
)
from .ideals import (
    ProductIdeal,
    enumerate_ideals,
    finite_support_ideal,
    ideal_class,
    principal_ideal,
    radical,
    zero_ideal,
)
from .rings import (
    EventuallyConstantBitsRing,
    IndexKernel,
    ModularRing,
    Record,
    Ring,
    factorization,
    idempotents,
)
from .spectrum import (
    FLAT,
    MAX_FAMILY_POINTS,
    PATCH,
    ZARISKI,
    closed_family,
    enumerate_spectrum,
    ideal_basis_families,
    vanishing_locus,
)
from .sring import (
    chain_condition_check,
    check_chain_stabilization,
    growing_indicator_chain,
    sring_certificate,
    stabilization_graph_check,
)

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_CORPUS",
    "CorpusEntry",
    "CorpusReport",
    "TheoremReport",
    "applicable_checks",
    "corpus_from_document",
    "run_check",
    "run_corpus",
    "run_ring_checks",
]


class CorpusEntry(Record):
    """One ring of the corpus: its description plus optional expected facts
    (a fresh dict when none are given)."""

    __slots__ = ("ring_text", "expect")

    def __init__(self, ring_text: str, expect: dict | None = None):
        super().__init__(ring_text, {} if expect is None else expect)


class TheoremReport(Record):
    """Outcome of one check on one ring ("pass", "fail" or "skipped"); plain
    data, JSON-friendly.  ``details`` is a fresh dict when none are given."""

    __slots__ = ("check", "ring", "verdict", "details", "counterexample")

    def __init__(self, check: str, ring: str, verdict: str, details: dict | None = None,
                 counterexample: dict | None = None):
        super().__init__(check, ring, verdict, {} if details is None else details,
                         counterexample)

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


class _Skip(Exception):
    """Raised by a check that does not apply to the ring; the message is the reason."""


# ---------------------------------------------------------------------------
# individual checks


def check_topology_characterization(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """Flat closed = patch closed + generalization stable, and dually.

    Also asserts that the patch family is the full power set of the
    spectrum and that the V(f) sub-basis and the V(I) basis generate the
    same flat and Zariski families, all as comparisons of family tables.
    """
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    pfam = closed_family(ring, PATCH)
    sp = pfam.spectrum

    problems = []
    if ffam.table != pfam.table & sp.down_table:
        problems.append("flat family differs from patch-closed gen-stable sets")
    if zfam.table != pfam.table & sp.up_table:
        problems.append("zariski family differs from patch-closed spec-stable sets")
    if (zfam.table | ffam.table) & ~pfam.table:
        problems.append("patch family does not refine the other two")
    if len(pfam) != 2 ** len(sp):
        problems.append("patch family is not the full power set")
    ideal_zfam, ideal_ffam = ideal_basis_families(ring)
    if ideal_ffam.table != ffam.table:
        problems.append("flat families from V(f) and V(I) bases disagree")
    if ideal_zfam.table != zfam.table:
        problems.append("zariski families from V(f) and V(I) bases disagree")

    details = {
        "points": len(sp),
        "zariski_closed": len(zfam),
        "flat_closed": len(ffam),
        "patch_closed": len(pfam),
    }
    return details, ({"problems": problems} if problems else None)


def check_closure_operators(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """Generalization closures of Zariski closed sets are flat closed,
    specialization closures of patch closed sets are Zariski closed, and
    every closed generalization-stable set is V(J) for a flat kernel J.

    The images are tested on the point closures alone.  A closure takes
    unions to unions, and every member E of a closed family is the union
    of the point closures cl(x), x in E, each a member itself.  The
    target family is closed under union.  So the image of the family
    lies in the target iff the images of its point closures do, and a
    failure is reported at the first point closure, in the canonical
    order, whose image leaves the target.
    """
    zfam = closed_family(ring, ZARISKI)
    ffam = closed_family(ring, FLAT)
    pfam = closed_family(ring, PATCH)
    sp = pfam.spectrum

    for operator, closure, source, target in (
            ("generalization", sp.down_closure, zfam, ffam),
            ("specialization", sp.up_closure, pfam, zfam)):
        for E in sorted(set(source.point_closures), key=sp._mask_key):
            if not target.table >> closure(E) & 1:
                return {}, {"operator": operator, "set": sp._labels_of(E)}

    kernels = []
    for E in sorted(IndexKernel.members(zfam.table & sp.down_table), key=sp._mask_key):
        kernel = flat_ideal_from_closed_set(ring, sp._points_of(E))
        found = {"set": sp._labels_of(E), "kernel": kernel.label()}
        if sp._vanishing_mask(kernel) != E or not is_cyclic_flat(kernel).verdict:
            return {}, {"operator": "flat-kernel", **found}
        kernels.append(found)

    return {"flat_kernels": kernels,
            "zariski_closed": len(zfam),
            "patch_closed": len(pfam)}, None


def check_flat_ideal_bijection(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """I -> V(I) is a bijection from flat-quotient ideals onto the Zariski
    closed generalization-stable sets, verified against full enumeration."""
    ideals = enumerate_ideals(ring)
    flats = [i for i in ideals if is_cyclic_flat(i).verdict]
    zfam = closed_family(ring, ZARISKI)
    sp = zfam.spectrum
    image = {}
    for i in flats:
        image.setdefault(sp._mask_of(vanishing_locus(ring, i)), []).append(i)
    codomain = zfam.table & sp.down_table

    problems = []
    for locus, sources in image.items():
        if len(sources) > 1:
            problems.append({"kind": "not-injective",
                             "ideals": [i.label() for i in sources],
                             "set": sp._labels_of(locus)})
        if not codomain >> locus & 1:
            problems.append({"kind": "not-well-defined",
                             "ideal": sources[0].label(), "set": sp._labels_of(locus)})
    for s in IndexKernel.members(codomain):
        if s not in image:
            problems.append({"kind": "not-surjective", "set": sp._labels_of(s)})

    details = {
        "ideals": len(ideals),
        "flat_ideals": len(flats),
        "flat_ideal_labels": sorted(i.label() for i in flats),
        "closed_genstable_sets": codomain.bit_count(),
        "image": sp._family_labels(image),
    }
    return details, ({"problems": problems} if problems else None)


def check_radical_rigidity(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """On a reduced ring: flat radicals force equality (I = sqrt I when the
    quotient by sqrt I is flat), flat-quotient ideals are radical, and a
    flat-quotient ideal is determined by its vanishing locus."""
    if not ring.is_finite:
        raise _Skip("only finite rings are checked here")
    nil = radical(zero_ideal(ring))
    if not nil.is_zero():
        raise _Skip(f"not reduced: nilradical is {nil.label()}")
    ideals = enumerate_ideals(ring)
    flat = {i: is_cyclic_flat(i).verdict for i in ideals}
    locus = {i: vanishing_locus(ring, i) for i in ideals}
    for i in ideals:
        root = radical(i)
        if flat[root] and i != root:
            return {}, {"kind": "flat-radical", "ideal": i.label(), "radical": root.label()}
        if flat[i] and i != root:
            return {}, {"kind": "flat-not-radical", "ideal": i.label()}
    for i in ideals:
        if not flat[i]:
            continue
        for j in ideals:
            if locus[j] == locus[i] and i != j:
                return {}, {"kind": "locus-collision", "ideals": [i.label(), j.label()]}
    return {"ideals": len(ideals)}, None


def check_sring_equivalences(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """The open/closed S-ring characterizations, including the double-closed
    to idempotent correspondence and the patch clopen condition."""
    cert = sring_certificate(ring)
    pfam = closed_family(ring, PATCH)
    sp = pfam.spectrum
    # Every patch closed set that is stable both ways is patch open.
    stable = pfam.table & sp.down_table & sp.up_table
    patch_ok = not stable & ~sp._complements(pfam.table)
    # Format each idempotent once; the matches hold the ring's memoized objects.
    idems = idempotents(ring)
    texts = [str(e) for e in idems]
    text_of = dict(zip(map(id, idems), texts))
    details = {
        "double_closed": [
            {"set": sp._labels_of(sp._mask_of(s)), "idempotent": text_of.get(id(e)) or str(e)}
            for s, e in cert.double_closed_matches
        ],
        "idempotents": texts,
    }
    if not (cert.passed and patch_ok):
        return details, {"failures": list(cert.failures), "patch_clopen_ok": patch_ok}
    return details, None


def check_crt_decomposition(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """Z/n with several prime power factors splits through orthogonal
    idempotents into projective summands that are all too small to be free."""
    if not isinstance(ring, ModularRing):
        raise _Skip("only modular rings decompose here")
    n = ring.modulus
    factors = sorted(p ** k for p, k in factorization(n))
    if len(factors) < 2:
        raise _Skip("modulus is a prime power; the ring is local")

    idems = []
    for q in factors:
        m = n // q
        inv = pow(m, -1, q)
        idems.append(ring.element(m * inv))
    total = ring.zero
    problems = []
    for e in idems:
        if e * e != e:
            problems.append(f"{e} is not idempotent")
        total = total + e
    if total != ring.one:
        problems.append("idempotents do not sum to 1")
    for i, a in enumerate(idems):
        for b in idems[i + 1:]:
            if a * b != ring.zero:
                problems.append(f"{a} and {b} are not orthogonal")

    summands = []
    for q, e in zip(factors, idems):
        summand = principal_ideal(ring, e)
        card = len(summand.elements)
        summands.append({"idempotent": str(e), "cardinality": card})
        if card != q:
            problems.append(f"summand of {e} has {card} elements, expected {q}")
        if not is_cyclic_projective(summand):
            problems.append(f"summand of {e} is not projective")
        # a nonzero free module over Z/n has at least n elements
        if not card < n:
            problems.append(f"summand of {e} is not smaller than the ring")

    details = {"factors": factors, "summands": summands,
               "min_free_cardinality": n}
    return details, ({"problems": problems} if problems else None)


def check_flat_not_projective(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """The bits-ring witness: the indicator chain never stabilizes and the
    finitely supported ideal is cyclic-flat but not cyclic-projective."""
    if not isinstance(ring, EventuallyConstantBitsRing):
        raise _Skip("the witness lives in the bits ring")
    budget = 100
    chain = growing_indicator_chain(ring, budget)
    report = check_chain_stabilization(chain)
    ideal = finite_support_ideal(ring)
    cert = is_cyclic_flat(ideal)
    problems = []
    if report.stabilized:
        problems.append("the indicator chain stabilized")
    if report.last_index != budget:
        problems.append("the chain was not materialized to the budget")
    if not (cert.verdict and cert.verify()):
        problems.append("the finitely supported ideal is not certified flat")
    if is_cyclic_projective(ideal):
        problems.append("the finitely supported ideal claims to be projective")
    details = {"budget": budget, "ideal": ideal.label(),
               "flat": cert.verdict,
               "projective": is_cyclic_projective(ideal),
               "reason_not_projective":
                   "no single generator: the ideal is a strictly increasing union"}
    return details, ({"problems": problems} if problems else None)


def check_chain_conditions(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """The covering chain condition with X the minimal primes and X the
    maximal ideals; both families are finite, so both conditions hold."""
    sp = enumerate_spectrum(ring)
    details = {}
    for tag, X in (("min", sp.minimal_points()), ("max", sp.maximal_points())):
        try:
            trace = chain_condition_check(ring, X)
        except HypothesisViolated as exc:
            return details, {"X": tag, "uncovered": exc.witness.label()}
        if not trace.conclusion.passed:
            return details, {"X": tag,
                             "family": sp._family_labels(map(sp._mask_of, trace.family))}
        details[tag] = {"meet_ideal": trace.meet_ideal.label(),
                        "family_size": len(trace.family)}
    return details, None


def check_stabilization_graph(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """On a finite ring, the relation f -> f' iff f = f*f' has no cycles
    besides self-loops at idempotents."""
    if not ring.is_finite or len(ring.elements()) > 64:
        raise _Skip("cycle search is run for finite rings up to 64 elements")
    ok, cycle = stabilization_graph_check(ring)
    if not ok:
        return {}, {"cycle": [str(e) for e in cycle]}
    return {"elements": len(ring.elements())}, None


def check_support_consistency(ring: Ring, entry=None) -> tuple[dict, dict | None]:
    """Supp(I) always contains the complement of V(I), with equality for
    flat quotients."""
    sp = enumerate_spectrum(ring)
    for ideal in enumerate_ideals(ring):
        supp = support_of_ideal(ideal)
        outside = sp.as_set() - vanishing_locus(ring, ideal)
        if not outside <= supp:
            return {}, {"ideal": ideal.label(), "kind": "containment"}
        if is_cyclic_flat(ideal).verdict and supp != outside:
            return {}, {"ideal": ideal.label(), "kind": "flat-equality"}
    return {}, None


def check_expected_facts(ring: Ring,
                         entry: CorpusEntry | None = None) -> tuple[dict, dict | None]:
    """Compare computed spectrum size, flat ideal count and reducedness with
    the expectations recorded in the corpus entry."""
    expect = dict(entry.expect) if entry is not None else {}
    if not expect:
        raise _Skip("no expected facts recorded")
    computed = {}
    if "spectrum_size" in expect:
        computed["spectrum_size"] = len(enumerate_spectrum(ring))
    if "flat_ideals" in expect:
        computed["flat_ideals"] = sum(
            1 for i in enumerate_ideals(ring) if is_cyclic_flat(i).verdict)
    if "reduced" in expect:
        computed["reduced"] = radical(zero_ideal(ring)).is_zero()
    mismatches = [
        {"field": key, "expected": expect[key], "computed": computed[key]}
        for key in computed if computed[key] != expect[key]
    ]
    return {"computed": computed}, ({"mismatches": mismatches} if mismatches else None)


# ---------------------------------------------------------------------------
# registry and corpus driver


_SPECTRAL = "spectral"        # needs an enumerable, family-sized spectrum
_IDEALS = "ideals"            # additionally needs full ideal enumeration
_ANY = "any"

_CHECKS = {
    "topology-characterization": (check_topology_characterization, _SPECTRAL),
    "closure-operators": (check_closure_operators, _SPECTRAL),
    "flat-ideal-bijection": (check_flat_ideal_bijection, _IDEALS),
    "support-consistency": (check_support_consistency, _IDEALS),
    "radical-rigidity": (check_radical_rigidity, _ANY),
    "sring-equivalences": (check_sring_equivalences, _SPECTRAL),
    "crt-decomposition": (check_crt_decomposition, _ANY),
    "chain-conditions": (check_chain_conditions, _SPECTRAL),
    "stabilization-graph": (check_stabilization_graph, _ANY),
    "flat-not-projective": (check_flat_not_projective, _ANY),
    "expected-facts": (check_expected_facts, _ANY),
}

CHECK_NAMES = tuple(_CHECKS)


def applicable_checks(ring: Ring) -> tuple[str, ...]:
    try:
        sp = enumerate_spectrum(ring)
        spectral = len(sp) <= MAX_FAMILY_POINTS
    except (UnsupportedForPresentation, SpectrumTooLarge):
        spectral = False
    # The bits ring fails `spectral`: its spectrum is not enumerable.
    ideals = spectral and ideal_class(ring) is not ProductIdeal
    allowed = {_ANY: True, _SPECTRAL: spectral, _IDEALS: ideals}
    return tuple(name for name, (_, need) in _CHECKS.items() if allowed[need])


def run_check(name: str, ring: Ring, entry: CorpusEntry | None = None) -> TheoremReport:
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    fn, _ = _CHECKS[name]
    try:
        details, counterexample = fn(ring, entry)
    except (_Skip, UnsupportedForPresentation, RingTooLarge, SpectrumTooLarge) as exc:
        return TheoremReport(name, ring.describe(), "skipped", {"reason": str(exc)})
    verdict = "pass" if counterexample is None else "fail"
    return TheoremReport(name, ring.describe(), verdict, details, counterexample)


def run_ring_checks(ring: Ring, entry: CorpusEntry | None = None) -> list[TheoremReport]:
    return [run_check(name, ring, entry) for name in applicable_checks(ring)]


class CorpusReport(Record):
    """Aggregated reports over one corpus run; sorted canonically."""

    __slots__ = ("reports", "elapsed_seconds")

    @property
    def failures(self) -> int:
        return sum(1 for r in self.reports if r.verdict == "fail")

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.verdict == "pass")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.verdict == "skipped")

    @property
    def all_passed(self) -> bool:
        return self.failures == 0


DEFAULT_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("Z/4", {"spectrum_size": 1, "flat_ideals": 2, "reduced": False}),
    CorpusEntry("Z/6", {"spectrum_size": 2, "flat_ideals": 4, "reduced": True}),
    CorpusEntry("Z/12", {"spectrum_size": 2, "flat_ideals": 4, "reduced": False}),
    CorpusEntry("GF(4)", {"spectrum_size": 1, "flat_ideals": 2, "reduced": True}),
    CorpusEntry("Z/2[x]/(x^2+x)", {"spectrum_size": 2, "flat_ideals": 4, "reduced": True}),
    CorpusEntry("Zloc(2)", {"spectrum_size": 2, "flat_ideals": 2, "reduced": True}),
    CorpusEntry("Zloc(2) * Z/3", {"spectrum_size": 3, "reduced": True}),
    CorpusEntry("EvBits", {"reduced": True}),
)


def run_corpus(entries=None) -> CorpusReport:
    """Run every applicable check on every corpus entry."""
    if entries is None:
        entries = DEFAULT_CORPUS
    started = time.perf_counter()
    reports: list[TheoremReport] = []
    for index, entry in enumerate(entries):
        try:
            ring = parse_ring(entry.ring_text)
        except SpectopError as exc:
            raise CorpusError(str(exc), index=index) from exc
        reports.extend(run_ring_checks(ring, entry))
    reports.sort(key=lambda r: (r.ring, r.check))
    return CorpusReport(tuple(reports), time.perf_counter() - started)


def corpus_from_document(document) -> tuple[CorpusEntry, ...]:
    """Build corpus entries from a parsed JSON document.

    The document is an object with an ``entries`` array; each entry has a
    ``ring`` string and an optional ``expect`` object with any of the keys
    spectrum_size, flat_ideals, reduced.
    """
    if not isinstance(document, dict) or "entries" not in document:
        raise CorpusError("a corpus document is an object with an 'entries' array")
    raw = document["entries"]
    if not isinstance(raw, list):
        raise CorpusError("'entries' must be an array")
    entries = []
    allowed = {"spectrum_size", "flat_ideals", "reduced"}
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or not isinstance(item.get("ring"), str):
            raise CorpusError("each entry is an object with a 'ring' string", index)
        expect = item.get("expect", {})
        if not isinstance(expect, dict) or not set(expect) <= allowed:
            raise CorpusError(
                f"expected facts may only use {sorted(allowed)}", index)
        for key, value in expect.items():
            if key == "reduced" and not isinstance(value, bool):
                raise CorpusError("'reduced' must be true or false", index)
            if key != "reduced" and (isinstance(value, bool) or not isinstance(value, int)):
                raise CorpusError(f"{key!r} must be an integer", index)
        entries.append(CorpusEntry(item["ring"], dict(expect)))
    return tuple(entries)
