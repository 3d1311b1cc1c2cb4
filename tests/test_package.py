"""The package's lazy exports and its frozen record classes."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import spectop
from spectop import (
    CorpusEntry,
    CorpusReport,
    FlatnessCertificate,
    MultiplicativeChain,
    TheoremReport,
    ZARISKI,
    chain_condition_check,
    check_chain_stabilization,
    closed_family,
    enumerate_spectrum,
    is_cyclic_flat,
    parse_ring,
    principal_ideal,
    run_check,
    sring_certificate,
)
from spectop.rings import Record


class Pair(Record):
    """A record of two plain fields, so that the rules every record shares
    are checked apart from any class of the package."""

    __slots__ = ("left", "right")

SRC = Path(spectop.__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (SRC / "spectop").glob("*.py") if p.stem != "__init__")


def _printed_by(code: str) -> set[str]:
    """The words a fresh interpreter prints running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


def _loaded_after(code: str) -> set[str]:
    """The spectop modules, and dataclasses and fractions, that a fresh
    interpreter holds after running code."""
    return _printed_by(f"{code}\nimport sys; print(*[m for m in sys.modules "
                       "if m.split('.')[0] in ('spectop', 'dataclasses', 'fractions')])")


PARSING_MODULES = {"spectop", "spectop.errors", "spectop.rings", "spectop.dsl"}


def test_parsing_a_ring_loads_only_the_parsing_modules():
    loaded = _loaded_after("import spectop; spectop.parse_ring('Z/30')")
    assert loaded == PARSING_MODULES


@pytest.mark.parametrize("text", ["Z/2[x]/(x^4)", "GF(16)", "Z/4 * Z/3", "EvBits"])
def test_a_ring_without_fractions_loads_neither_fractions_nor_ideals(text):
    assert _loaded_after(f"import spectop; spectop.parse_ring({text!r})") == PARSING_MODULES


def test_a_localized_ring_loads_fractions_when_it_is_built():
    code = ("import sys, spectop; spectop.parse_ring('Z/6')\n"
            "assert 'fractions' not in sys.modules\n"
            "spectop.parse_ring('Zloc(3) * Z/2')")
    assert _loaded_after(code) == PARSING_MODULES | {"fractions"}


def test_the_cli_loads_every_module():
    assert _loaded_after("import spectop.cli") == {"spectop"} | {
        f"spectop.{m}" for m in MODULES}


def test_a_cli_op_loads_no_spectop_module_after_the_cli():
    # perfbench/worker.py imports spectop.cli and then times cli.main, so no op
    # may compile a spectop module inside its timed call.
    code = ("import contextlib, io, sys\nimport spectop.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    spectop.cli.main(['verify', '--ring', 'Zloc(2) * Z/3'])\n"
            "    spectop.cli.main(['flat', '--ring', 'Zloc(2)', '--ideal', '1/3'])\n"
            "    spectop.cli.main(['topology', '--ring', 'Z/12', '--which', 'patch'])\n"
            "print(*[m for m in set(sys.modules) - before if m.startswith('spectop')])")
    assert _printed_by(code) == set()


def test_a_star_import_binds_each_public_name_to_its_defining_module():
    namespace: dict = {}
    exec("from spectop import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spectop.__all__)
    for name, value in namespace.items():
        if name in MODULES:
            assert value is sys.modules[f"spectop.{name}"]
        else:
            module = sys.modules[f"spectop.{spectop._MODULE_OF[name]}"]
            assert value is getattr(module, name), name
            if isinstance(value, (type, FunctionType)):
                assert value.__module__ == module.__name__, name
    assert spectop.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Spectrum'"):
        spectop.Spectrum
    with pytest.raises(ImportError):
        exec("from spectop import Spectrum", {})


# ---------------------------------------------------------------------------
# records


def _one_of_each() -> list[Record]:
    """An instance of every record class."""
    z6 = parse_ring("Z/6")
    chain = MultiplicativeChain.build(z6, [3, 3])
    return [
        z6.element(2),
        Pair(frozenset({1, 3}), 0),
        closed_family(z6, ZARISKI),
        is_cyclic_flat(principal_ideal(z6, 2)),
        CorpusEntry("Z/6"),
        run_check("chain-conditions", z6),
        CorpusReport((), 0.5),
        chain,
        check_chain_stabilization(chain),
        sring_certificate(z6),
        chain_condition_check(z6, enumerate_spectrum(z6).minimal),
    ]


def _record_classes(base=Record) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        found |= {cls} | _record_classes(cls)
    return found


def test_every_record_class_is_covered():
    assert {type(r) for r in _one_of_each()} == _record_classes()


@pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
def test_no_field_of_a_record_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
def test_a_record_copies_to_an_equal_record(record):
    assert copy.copy(record) == record


def test_records_hash_as_the_tuple_of_their_compared_fields():
    z6 = parse_ring("Z/6")
    e = z6.element(5)
    pair = Pair(frozenset({2}), 1)
    family = closed_family(z6, ZARISKI)
    assert hash(e) == hash((e.ring, e.value))
    assert hash(pair) == hash((pair.left, pair.right))
    assert hash(family) == hash((family.topology, family.table))


def test_a_closed_family_ignores_its_spectrum_in_equality():
    family = closed_family(parse_ring("Z/6"), ZARISKI)
    other = enumerate_spectrum(parse_ring("Z/10"))
    twin = type(family)(family.topology, family.table, other)
    assert twin.spectrum is not family.spectrum
    assert twin == family and hash(twin) == hash(family)


def test_records_of_different_classes_are_never_equal():
    z6 = parse_ring("Z/6")
    assert Pair(frozenset(), 0) != (frozenset(), 0)
    assert Pair(frozenset(), 0).__eq__(z6.element(0)) is NotImplemented


def test_fields_are_given_by_position_or_name_with_fresh_defaults():
    z4 = parse_ring("Z/4")
    ideal = principal_ideal(z4, 2)
    cert = FlatnessCertificate(ideal, False, failing=z4.element(2))
    assert (cert.witnesses, cert.failing, cert.note) == ((), z4.element(2), None)
    assert cert == FlatnessCertificate(ideal=ideal, verdict=False, witnesses=(),
                                       failing=z4.element(2), note=None)
    first, second = TheoremReport("c", "r", "pass"), TheoremReport("c", "r", "pass")
    assert first.details == {} and first.details is not second.details
    assert CorpusEntry("Z/4").expect is not CorpusEntry("Z/4").expect
    assert repr(Pair(frozenset(), 1)) == "Pair(left=frozenset(), right=1)"


@pytest.mark.parametrize("build", [
    lambda: Pair(frozenset()),
    lambda: Pair(frozenset(), 0, 1),
    lambda: Pair(frozenset(), right=0, left=frozenset()),
    lambda: Pair(frozenset(), 0, colour=1),
    lambda: FlatnessCertificate(verdict=True),
], ids=["missing", "too-many", "repeated", "unknown", "missing-by-name"])
def test_a_wrong_field_list_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()
