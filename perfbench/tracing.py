"""Spans and counters recorded from outside spectop, and the per-layer sums.

``Tracer.install`` wraps every public function of the spectop modules
(plus a few private boundaries the metrics name) in a span recorder, and
rebinds the wrapper in every ``spectop.*`` namespace that holds the
function: the modules import each other with ``from .x import y``, so
patching only the defining module would miss calls made inside the
package.  The hottest boundaries, which run millions of times per op,
get counters instead of spans.

A span is ``(name, start_ns, end_ns, parent, op, info)``; ``parent`` is
the index of the enclosing span or -1, ``info`` an optional count taken
from the result.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("rings", "ideals", "spectrum", "flatness", "sring", "harness", "dsl", "cli")

# Private functions that the per-layer metrics name.  Other private helpers
# get no span, so their time counts as their public caller's self time:
# closed_family's self time includes generating and validating the family.
EXTRA_SPANS = {"cli": ("_emit",)}

SERIALIZERS = frozenset({
    "cli.spectrum_doc", "cli.family_doc", "cli.certificate_doc", "cli.report_doc",
    "cli.corpus_doc", "cli.dot_text", "cli._emit",
})

ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__pow__")

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack = [NO_PARENT]
        self.op = 0
        self.counts = {"rings.elem_ops": 0, "rings.ring_eq": 0, "ideals.issubset": 0,
                       "ideals.contains": 0}
        self.check_of: dict[str, str] = {}
        self._seen_spectra: dict[int, object] = {}

    # -- recording ---------------------------------------------------------
    def _span(self, name: str, fn, info=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append((name_id, 0, 0, parent, self.op, None))  # if interrupted early
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op, None)
            if info is not None:
                spans[index] = spans[index][:5] + (info(args, kwargs, result),)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spectrum_info(self, args, kwargs, result):
        """1 when the result is an object returned before (answered without enumerating)."""
        key = id(result)
        hit = key in self._seen_spectra
        self._seen_spectra[key] = result
        return int(hit)

    @staticmethod
    def _ideal_count(args, kwargs, result):
        ring = args[0] if args else kwargs["ring"]
        return len(result) if ring.is_finite else None

    @staticmethod
    def _family_size(args, kwargs, result):
        return len(result.sets)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap spectop's layer boundaries; spectop must already be importable."""
        import spectop.cli  # noqa: F401  (loads every submodule)
        from spectop import harness, ideals, rings

        modules = {layer: sys.modules[f"spectop.{layer}"] for layer in LAYERS}
        infos = {
            "spectrum.enumerate_spectrum": self._spectrum_info,
            "ideals.enumerate_ideals": self._ideal_count,
        }
        replace: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in EXTRA_SPANS.get(layer, ()))):
                    name = f"{layer}.{attr}"
                    if name == "spectrum.closed_family":
                        replace[id(fn)] = self._closed_family_span(fn)
                    else:
                        replace[id(fn)] = self._span(name, fn, infos.get(name))
        package = [m for n, m in sys.modules.items() if n == "spectop" or n.startswith("spectop.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and inspect.isfunction(value):
                    setattr(module, attr, replace[id(value)])
        for check, (fn, need) in list(harness._CHECKS.items()):
            self.check_of[f"harness.{fn.__name__}"] = check
            harness._CHECKS[check] = (replace.get(id(fn), fn), need)

        for op in ELEMENT_OPS:
            setattr(rings.Element, op, self._counter("rings.elem_ops", getattr(rings.Element, op)))
        rings.Ring.__eq__ = self._counter("rings.ring_eq", rings.Ring.__eq__)
        rings.Ring.__hash__ = self._counter("rings.ring_eq", rings.Ring.__hash__)
        for cls in _subclasses(ideals.Ideal):
            for method in ("issubset", "contains"):
                if method in vars(cls):
                    setattr(cls, method, self._counter(f"ideals.{method}", vars(cls)[method]))

    def _closed_family_span(self, fn):
        """closed_family gets one span name per topology."""
        by_topology = {}

        @functools.wraps(fn)
        def wrapper(ring, topology, *args, **kwargs):
            inner = by_topology.get(topology)
            if inner is None:
                inner = by_topology[topology] = self._span(
                    f"spectrum.closed_family.{topology}", fn, self._family_size)
            return inner(ring, topology, *args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name_id, start, end, parent, op, info) in enumerate(self.spans):
                handle.write(json.dumps([op, index, parent, self.names[name_id], start, end, info]))
                handle.write("\n")

    def summary(self) -> dict:
        """Per-name call counts, self and outermost total seconds, info sums, counters."""
        spans = self.spans
        selfs = self_times([(s, e, p) for (_, s, e, p, _, _) in spans])
        by_name: dict[str, dict] = {}
        for index, (name_id, start, end, parent, _, info) in enumerate(spans):
            name = self.names[name_id]
            row = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                            "info": 0, "info_calls": 0})
            row["calls"] += 1
            row["self_s"] += selfs[index]
            if info is not None:
                row["info"] += info
                row["info_calls"] += 1
            if not _has_ancestor_named(spans, index, name_id):
                row["total_s"] += (end - start) / 1e9
        joins = sum(1 for (name_id, _, _, parent, _, _) in spans
                    if parent != NO_PARENT and self.names[name_id] == "ideals.ideal_sum"
                    and self.names[spans[parent][0]] == "ideals.enumerate_ideals"
                    and spans[parent][5] is not None)
        return {"spans": by_name, "counts": dict(self.counts), "joins": joins,
                "checks": dict(self.check_of)}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _has_ancestor_named(spans, index, name_id) -> bool:
    parent = spans[index][3]
    while parent != NO_PARENT:
        if spans[parent][0] == name_id:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans: list[tuple[int, int, int]]) -> list[float]:
    """Seconds of each span ``(start_ns, end_ns, parent)`` not covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start - covered) / 1e9)
    return out


def merge_summaries(summaries: list[dict]) -> dict:
    total = {"spans": {}, "counts": {}, "joins": 0, "checks": {}}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = total["spans"].setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for key, value in summary["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + value
        total["joins"] += summary["joins"]
        total["checks"].update(summary["checks"])
    return total


def per_layer_metrics(summary: dict, checks: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit), from merged summaries."""
    spans, counts = summary["spans"], summary["counts"]

    def row(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                "info": 0, "info_calls": 0})

    def layer_self(layer):
        return sum(r["self_s"] for n, r in spans.items() if n.split(".", 1)[0] == layer)

    m: dict[str, tuple[float, str]] = {}
    m["rings.elem_ops"] = (counts.get("rings.elem_ops", 0), "count")
    m["rings.ring_eq"] = (counts.get("rings.ring_eq", 0), "count")
    m["rings.idempotents.self_s"] = (row("rings.idempotents")["self_s"], "s")
    m["rings.self_s"] = (layer_self("rings"), "s")

    for fn in ("enumerate_ideals", "ideal_from_generators", "ideal_sum", "annihilator"):
        m[f"ideals.{fn}.calls"] = (row(f"ideals.{fn}")["calls"], "count")
    for fn in ("enumerate_ideals", "ideal_from_generators", "is_prime_ideal", "radical",
               "saturation_kernel"):
        m[f"ideals.{fn}.self_s"] = (row(f"ideals.{fn}")["self_s"], "s")
    m["ideals.self_s"] = (layer_self("ideals"), "s")
    enum = row("ideals.enumerate_ideals")
    found = enum["info"] - enum["info_calls"]  # every enumeration starts from (0)
    m["ideals.join_yield"] = (found / summary["joins"] if summary["joins"] else 0.0, "ratio")
    m["ideals.issubset.calls"] = (counts.get("ideals.issubset", 0), "count")
    m["ideals.contains.calls"] = (counts.get("ideals.contains", 0), "count")

    spec = row("spectrum.enumerate_spectrum")
    m["spectrum.enumerate_spectrum.calls"] = (spec["calls"], "count")
    m["spectrum.enumerate_spectrum.hit_ratio"] = (
        spec["info"] / spec["calls"] if spec["calls"] else 0.0, "ratio")
    for topology in ("zariski", "flat", "patch"):
        m[f"spectrum.closed_family.self_s.{topology}"] = (
            row(f"spectrum.closed_family.{topology}")["self_s"], "s")
    m["spectrum.closed_family.sets"] = (
        sum(row(f"spectrum.closed_family.{t}")["info"] for t in ("zariski", "flat", "patch")),
        "count")
    m["spectrum.vanishing_locus.calls"] = (row("spectrum.vanishing_locus")["calls"], "count")
    m["spectrum.self_s"] = (layer_self("spectrum"), "s")

    m["flatness.is_cyclic_flat.calls"] = (row("flatness.is_cyclic_flat")["calls"], "count")
    m["flatness.is_cyclic_flat.self_s"] = (row("flatness.is_cyclic_flat")["self_s"], "s")
    m["flatness.flat_witness.calls"] = (row("flatness.flat_witness")["calls"], "count")
    m["flatness.support_of_ideal.self_s"] = (row("flatness.support_of_ideal")["self_s"], "s")
    m["flatness.self_s"] = (layer_self("flatness"), "s")

    for fn in ("sring_certificate", "chain_condition_check", "check_chain_stabilization"):
        m[f"sring.{fn}.self_s"] = (row(f"sring.{fn}")["self_s"], "s")
    m["sring.self_s"] = (layer_self("sring"), "s")

    check_span = {check: name for name, check in summary["checks"].items()}
    for check in checks:
        m[f"harness.{check}.total_s"] = (row(check_span.get(check, ""))["total_s"], "s")
    m["harness.applicable_checks.total_s"] = (row("harness.applicable_checks")["total_s"], "s")

    m["dsl.parse_ring.calls"] = (row("dsl.parse_ring")["calls"], "count")
    m["dsl.parse_ring.self_s"] = (row("dsl.parse_ring")["self_s"], "s")
    m["dsl.parse_generators.self_s"] = (row("dsl.parse_generators")["self_s"], "s")
    m["cli.serialize_self_s"] = (
        sum(r["self_s"] for n, r in spans.items() if n in SERIALIZERS), "s")
    return m
