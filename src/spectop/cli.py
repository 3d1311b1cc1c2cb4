"""Command line interface: parse ring descriptions, run the machinery,
emit JSON and DOT.

Exit codes: 0 for success (including negative mathematical answers such
as "not flat"), 1 for a verification failure found by ``verify`` or
``corpus``, 2 for usage, parse or presentation errors, 3 for any other
exception, reported as one ``error: internal:`` line.  All JSON is
printed with sorted keys, so output is byte-stable for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import parse_generators, parse_ideal_label, parse_ring
from .errors import HypothesisViolated, ParseError, SpectopError
from .flatness import FlatnessCertificate, is_cyclic_flat, is_cyclic_projective
from .harness import (
    CHECK_NAMES,
    CorpusReport,
    TheoremReport,
    applicable_checks,
    corpus_from_document,
    run_check,
    run_corpus,
)
from .ideals import ideal_from_generators
from .rings import Ring
from .spectrum import (
    SpectrumPoset,
    TOPOLOGIES,
    _family_labels,
    _point_labels,
    closed_family,
    enumerate_spectrum,
)
from .sring import chain_condition_check, sring_certificate

__all__ = [
    "certificate_doc",
    "certificate_from_doc",
    "dot_text",
    "family_doc",
    "main",
    "report_doc",
    "spectrum_doc",
    "spectrum_from_doc",
]


# ---------------------------------------------------------------------------
# serialization


def spectrum_doc(sp: SpectrumPoset) -> dict:
    return {
        "ring": sp.ring.describe(),
        "points": [
            {"ideal": p.label(), "minimal": p.is_minimal, "maximal": p.is_maximal}
            for p in sp.points
        ],
        "order": [
            [p.label(), q.label()]
            for p in sp.points for q in sp.points
            if p != q and sp.leq(p, q)
        ],
    }


def spectrum_from_doc(doc: dict) -> SpectrumPoset:
    """Rebuild the spectrum named by a document and check it matches."""
    sp = enumerate_spectrum(parse_ring(doc["ring"]))
    if spectrum_doc(sp) != doc:
        raise ParseError("document does not describe this ring's spectrum", 0)
    return sp


def family_doc(ring: Ring, topology: str) -> dict:
    fam = closed_family(ring, topology)
    return {"ring": ring.describe(), "topology": topology,
            "closed_sets": _family_labels(fam.sets)}


def certificate_doc(cert: FlatnessCertificate) -> dict:
    return {
        "ring": cert.ideal.ring.describe(),
        "ideal": cert.ideal.label(),
        "flat": cert.verdict,
        "witnesses": [
            {"f": str(f), "a": str(a), "b": str(b)} for f, a, b in cert.witnesses
        ],
        "failing": None if cert.failing is None else str(cert.failing),
        "note": cert.note,
    }


def certificate_from_doc(doc: dict) -> FlatnessCertificate:
    """Recompute the certificate named by a document and check it matches."""
    ring = parse_ring(doc["ring"])
    cert = is_cyclic_flat(parse_ideal_label(ring, doc["ideal"]))
    if certificate_doc(cert) != doc:
        raise ParseError("document does not match the recomputed certificate", 0)
    return cert


def report_doc(report: TheoremReport) -> dict:
    return {
        "check": report.check,
        "ring": report.ring,
        "verdict": report.verdict,
        "details": report.details,
        "counterexample": report.counterexample,
    }


def corpus_doc(result: CorpusReport) -> dict:
    return {
        "reports": [report_doc(r) for r in result.reports],
        "failures": result.failures,
        "passed": result.passed,
        "skipped": result.skipped,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
    }


def dot_text(ring: Ring) -> str:
    """The specialization order as a DOT digraph, byte-stable.

    Edges are covering relations only, so the drawing is the Hasse
    diagram of the spectrum.
    """
    sp = enumerate_spectrum(ring)
    lines = ["digraph spectrum {", "  rankdir=BT;", "  node [shape=box];"]
    for p in sorted(sp.points, key=lambda p: p.label()):
        lines.append(f'  "{p.label()}";')
    for p, q in sp.cover_edges():
        lines.append(f'  "{p.label()}" -> "{q.label()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spec(args) -> int:
    ring = parse_ring(args.ring)
    _emit(spectrum_doc(enumerate_spectrum(ring)))
    return 0


def _cmd_topology(args) -> int:
    ring = parse_ring(args.ring)
    _emit(family_doc(ring, args.which))
    return 0


def _cmd_flat(args) -> int:
    ring = parse_ring(args.ring)
    ideal = ideal_from_generators(ring, parse_generators(ring, args.ideal))
    cert = is_cyclic_flat(ideal)
    doc = certificate_doc(cert)
    doc["projective"] = is_cyclic_projective(ideal)
    _emit(doc)
    return 0


def _cmd_sring(args) -> int:
    ring = parse_ring(args.ring)
    cert = sring_certificate(ring)
    _emit({
        "ring": ring.describe(),
        "passed": cert.passed,
        "closed_genstable_open": cert.closed_genstable_open,
        "flatclosed_specstable_open": cert.flatclosed_specstable_open,
        "double_closed": [
            {"set": _point_labels(s), "idempotent": str(e)}
            for s, e in cert.double_closed_matches
        ],
        "failures": list(cert.failures),
    })
    return 0


def _cmd_chaincond(args) -> int:
    ring = parse_ring(args.ring)
    sp = enumerate_spectrum(ring)
    if args.X == "min":
        points = sp.minimal_points()
    elif args.X == "max":
        points = sp.maximal_points()
    else:
        if not args.points:
            raise ParseError("--points is required with --X custom", 0)
        labels = [s.strip() for s in args.points.split(";") if s.strip()]
        points = {sp.point_of(parse_ideal_label(ring, lb)) for lb in labels}
    try:
        trace = chain_condition_check(ring, points)
    except HypothesisViolated as exc:
        _emit({
            "ring": ring.describe(),
            "covering_ok": False,
            "uncovered_maximal": exc.witness.label(),
        })
        return 0
    _emit({
        "ring": ring.describe(),
        "covering_ok": True,
        "X": _point_labels(trace.x_points),
        "meet_ideal": trace.meet_ideal.label(),
        "family": _family_labels(trace.family),
        # The family {X & V(f)} is finite, so every chain in it is
        # eventually constant: both chain conditions hold.
        "acc": True,
        "dcc": True,
        "sring_certificate_passed": trace.conclusion.passed,
    })
    return 0


def _cmd_verify(args) -> int:
    ring = parse_ring(args.ring)
    names = [args.theorem] if args.theorem else list(applicable_checks(ring))
    reports = [run_check(name, ring) for name in names]
    _emit([report_doc(r) for r in reports])
    return 1 if any(r.failed for r in reports) else 0


def _cmd_corpus(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParseError(f"corpus file is not valid JSON: {exc}", exc.pos)
        entries = corpus_from_document(document)
        result = run_corpus(entries)
    else:
        result = run_corpus()
    _emit(corpus_doc(result))
    return 0 if result.all_passed else 1


def _cmd_export_dot(args) -> int:
    ring = parse_ring(args.ring)
    sys.stdout.write(dot_text(ring))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectop",
        description="prime spectra, spectral topologies and flatness certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_arg(p):
        p.add_argument("--ring", required=True, help="ring expression, e.g. 'Z/12'")

    p = sub.add_parser("spec", help="enumerate the prime spectrum")
    ring_arg(p)
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser("topology", help="materialize the closed sets of one topology")
    ring_arg(p)
    p.add_argument("--which", required=True, choices=TOPOLOGIES)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("flat", help="flatness certificate for a cyclic quotient")
    ring_arg(p)
    p.add_argument("--ideal", required=True,
                   help="comma separated generators, e.g. '2' or '(0/1, 1)'")
    p.set_defaults(func=_cmd_flat)

    p = sub.add_parser("sring", help="topological S-ring certificate")
    ring_arg(p)
    p.set_defaults(func=_cmd_sring)

    p = sub.add_parser("chaincond", help="covering chain conditions for a point set")
    ring_arg(p)
    p.add_argument("--X", required=True, choices=("min", "max", "custom"))
    p.add_argument("--points", help="semicolon separated prime labels for --X custom")
    p.set_defaults(func=_cmd_chaincond)

    p = sub.add_parser("verify", help="run verification checks on one ring")
    ring_arg(p)
    p.add_argument("--theorem", choices=CHECK_NAMES, help="run a single named check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="run every check over a corpus")
    p.add_argument("file", nargs="?", help="JSON corpus file; defaults to the built-in corpus")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("export-dot", help="specialization order as DOT")
    ring_arg(p)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectopError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
