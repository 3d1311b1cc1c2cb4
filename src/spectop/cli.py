"""Command line interface: parse ring descriptions, run the machinery,
emit JSON and DOT.

Exit codes: 0 for success (including negative mathematical answers such
as "not flat"), 1 for a verification failure found by ``verify`` or
``corpus``, 2 for usage, parse or presentation errors, 3 for any other
exception, reported as one ``error: internal:`` line, and 141 (128 +
SIGPIPE), silently, when the reader of the output closes it early, as
``| head`` does.  All JSON is
printed with sorted keys, so output is byte-stable for a fixed input.
This module is the only one that produces JSON text; the documents of
closed families, which reach 65,536 sets, are written by
:func:`family_json` straight from their masks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .dsl import parse_generators, parse_ideal_labels, parse_ring
from .errors import HypothesisViolated, ParseError, SpectopError
from .flatness import FlatnessCertificate, is_cyclic_flat, is_cyclic_projective
from .harness import (
    CHECK_NAMES,
    CorpusReport,
    TheoremReport,
    corpus_from_document,
    run_check,
    run_corpus,
    run_ring_checks,
)
from .ideals import ideal_from_generators
from .rings import IndexKernel, Ring, brief
from .spectrum import (
    ClosedFamily,
    SpectrumPoset,
    TOPOLOGIES,
    closed_family,
    enumerate_spectrum,
)
from .sring import chain_condition_check, sring_certificate

__all__ = [
    "certificate_doc",
    "dot_text",
    "family_json",
    "json_text",
    "main",
    "report_doc",
    "spectrum_doc",
]


# ---------------------------------------------------------------------------
# serialization


def spectrum_doc(sp: SpectrumPoset) -> dict:
    return {
        "ring": sp.ring.describe(),
        "points": [
            {"ideal": label, "minimal": sp.minimal >> j & 1 == 1,
             "maximal": sp.maximal >> j & 1 == 1}
            for j, label in enumerate(sp.labels)
        ],
        "order": [
            [p, q]
            for i, p in enumerate(sp.labels) for j, q in enumerate(sp.labels)
            if i != j and sp.down[j] >> i & 1
        ],
    }


# Sets written per chunk of a family document.
_FAMILY_CHUNK = 2048


def _label_runs(labels: list[str]) -> list[str]:
    """For each value b of a byte, the given labels of the points whose
    bits b sets, joined as a document's set lists them."""
    runs = [""]
    for label in labels:
        runs += [run + ",\n      " + label if run else label for run in runs]
    return runs


def family_json(family: ClosedFamily) -> Iterator[str]:
    """The document of a closed family as printed text, in chunks.

    The text is what ``_emit`` prints for ``{"closed_sets": <the sets'
    label lists in the canonical order>, "ring": ..., "topology": ...}``,
    byte for byte, but written straight from the masks.  A family has at
    most ``MAX_FAMILY_POINTS`` = 16 points, so a mask is two bytes, and
    each set's text joins the label runs of its points 0-7 and 8-15, two
    tables of 256 entries with each label encoded once.
    """
    sp = family.spectrum
    labels = [encode_basestring_ascii(label) for label in sp.labels]
    low, high = _label_runs(labels[:8]), _label_runs(labels[8:])
    # A set opens with its points 0-7 when it has any; its points 8-15
    # follow them after a separator or stand alone.
    heads = [",\n    [\n      " + run for run in low]
    tails = ["\n    ]"] + [",\n      " + run + "\n    ]" for run in high[1:]]
    alone = [",\n    [\n      " + run + "\n    ]" for run in high]
    # Every closed family holds the empty set, and it sorts first.
    order = sorted(IndexKernel.members(family.table), key=sp.mask_key)
    yield '{\n  "closed_sets": [\n    []'
    for start in range(1, len(order), _FAMILY_CHUNK):
        yield "".join([heads[m & 255] + tails[m >> 8] if m & 255 else alone[m >> 8]
                       for m in order[start:start + _FAMILY_CHUNK]])
    yield (f'\n  ],\n  "ring": {encode_basestring_ascii(sp.ring.describe())},'
           f'\n  "topology": {encode_basestring_ascii(family.topology)}\n}}\n')


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
    for label in sp.labels:
        lines.append(f'  "{label}";')
    for p, q in sp.cover_edges():
        lines.append(f'  "{p.label()}" -> "{q.label()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    With an indent the standard library encodes in pure Python, through a
    generator per nested list or dict; this writes the same text with one
    call per value.  Strings and keys go through the C string encoder, and
    every other value that is no list, tuple or dict through ``json.dumps``.
    """
    parts: list[str] = []
    _json_parts(doc, "\n", parts)
    return "".join(parts)


def _json_parts(doc, newline: str, parts: list[str]) -> None:
    """Append the text of doc, nested below a line break and ``newline``'s
    indent.  A list of strings alone is written with one join."""
    if isinstance(doc, str):
        parts.append(encode_basestring_ascii(doc))
    elif isinstance(doc, dict) and doc:
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(doc):
            text = key if isinstance(key, str) else json.dumps(key)
            parts.append(opener + encode_basestring_ascii(text) + ": ")
            _json_parts(doc[key], inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(doc, (list, tuple)) and doc:
        inner = newline + "  "
        if {*map(type, doc)} == {str}:
            parts.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, doc)))
        else:
            opener = "[" + inner
            for item in doc:
                parts.append(opener)
                _json_parts(item, inner, parts)
                opener = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(doc))


def _emit(doc) -> None:
    print(json_text(doc))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spec(args) -> int:
    ring = parse_ring(args.ring)
    _emit(spectrum_doc(enumerate_spectrum(ring)))
    return 0


def _cmd_topology(args) -> int:
    ring = parse_ring(args.ring)
    sys.stdout.writelines(family_json(closed_family(ring, args.which)))
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
    sp = enumerate_spectrum(ring)
    _emit({
        "ring": ring.describe(),
        "passed": cert.passed,
        "closed_genstable_open": cert.closed_genstable_open,
        "flatclosed_specstable_open": cert.flatclosed_specstable_open,
        "double_closed": [
            {"set": sp.labels_of(s), "idempotent": str(e)}
            for s, e in cert.double_closed_matches
        ],
        "failures": list(cert.failures),
    })
    return 0


def _cmd_chaincond(args) -> int:
    if args.points is not None and args.X != "custom":
        raise ParseError(f"--points is read only with --X custom, not --X {args.X}", 0)
    ring = parse_ring(args.ring)
    sp = enumerate_spectrum(ring)
    if args.X == "min":
        x = sp.minimal
    elif args.X == "max":
        x = sp.maximal
    elif not args.points:
        raise ParseError("--points is required with --X custom", 0)
    else:
        x = sp.mask_of(parse_ideal_labels(ring, args.points))
    try:
        trace = chain_condition_check(ring, x)
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
        "X": sp.labels_of(trace.x_points),
        "meet_ideal": trace.meet_ideal.label(),
        "family": [sp.labels_of(s) for s in trace.family],
        # The family {X & V(f)} is finite, so every chain in it is
        # eventually constant: both chain conditions hold.
        "acc": True,
        "dcc": True,
        "sring_certificate_passed": trace.conclusion.passed,
    })
    return 0


def _cmd_verify(args) -> int:
    ring = parse_ring(args.ring)
    reports = [run_check(args.theorem, ring)] if args.theorem else run_ring_checks(ring)
    _emit([report_doc(r) for r in reports])
    return 1 if any(r.failed for r in reports) else 0


def _cmd_corpus(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle, parse_int=_json_int)
            except json.JSONDecodeError as exc:
                raise ParseError(f"corpus file is not valid JSON: {exc}", exc.pos)
            except RecursionError:
                raise ParseError("corpus file nests too deeply to read", 0)
        entries = corpus_from_document(document)
        result = run_corpus(entries)
    else:
        result = run_corpus()
    _emit(corpus_doc(result))
    return 0 if result.all_passed else 1


def _json_int(text: str) -> int:
    """A corpus integer; more digits than Python converts is a ParseError."""
    if 0 < sys.get_int_max_str_digits() < len(text.lstrip("-")):
        raise ParseError(f"corpus file holds an integer of {len(text.lstrip('-'))} digits, "
                         f"more than Python's limit of {sys.get_int_max_str_digits()}", 0)
    return int(text)


def _cmd_export_dot(args) -> int:
    ring = parse_ring(args.ring)
    sys.stdout.write(dot_text(ring))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, naming an invalid choice and the arguments left
    over by ``rings.brief``; the usage printed above lists the choices."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {brief(repr(value))}")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {brief(' '.join(extra))}")
        return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectop",
        description="prime spectra, spectral topologies and flatness certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    ring = ("--ring", {"required": True, "help": "ring expression, e.g. 'Z/12'"})
    # (name, handler, help, arguments), each argument a name and its options.
    commands = (
        ("spec", _cmd_spec, "enumerate the prime spectrum", [ring]),
        ("topology", _cmd_topology, "materialize the closed sets of one topology",
         [ring, ("--which", {"required": True, "choices": TOPOLOGIES})]),
        ("flat", _cmd_flat, "flatness certificate for a cyclic quotient",
         [ring, ("--ideal", {"required": True,
                             "help": "comma separated generators, e.g. '2' or '(0/1, 1)'"})]),
        ("sring", _cmd_sring, "topological S-ring certificate", [ring]),
        ("chaincond", _cmd_chaincond, "covering chain conditions for a point set",
         [ring, ("--X", {"required": True, "choices": ("min", "max", "custom")}),
          ("--points", {"help": "semicolon separated prime labels for --X custom"})]),
        ("verify", _cmd_verify, "run verification checks on one ring",
         [ring, ("--theorem", {"choices": CHECK_NAMES, "help": "run a single named check"})]),
        ("corpus", _cmd_corpus, "run every check over a corpus",
         [("file", {"nargs": "?",
                    "help": "JSON corpus file; defaults to the built-in corpus"})]),
        ("export-dot", _cmd_export_dot, "specialization order as DOT", [ring]),
    )
    for name, handler, help_text, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, a closed pipe is met while it can still be handled.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest; the interpreter's final flush of what is
        # still buffered goes to devnull, so nothing is printed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (SpectopError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
