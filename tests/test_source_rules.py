"""Rules the library's source code keeps."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import spectop

SOURCE = Path(spectop.__file__).resolve().parent

# The one private name a module takes from a sibling: the polynomial
# trimming helper of ``rings``, which ``dsl`` applies to parsed coefficients.
ALLOWED_PRIVATE_IMPORTS = {("dsl.py", "_ptrim")}

# Methods a base class defines once, by their definitions, for all of its
# subclasses, each with the subclasses allowed to override it: every
# element of the bits ring is idempotent, so no finite scan finds the
# idempotent generator of its ideals, and an element prints as its ring
# formats it.
BASE_ONLY_METHODS = {
    "Ideal": {"is_zero": set(), "is_whole": set(),
              "idempotent_generator": {"BoolPrincipalIdeal", "BoolFiniteSupportIdeal"}},
    "Ring": {"elements": set()},
    "Record": {"__eq__": set(), "__hash__": set(), "__setattr__": set(),
               "__repr__": {"Element"}},
}


def _trees(root: Path):
    for path in sorted(root.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_runtime_check_is_an_assert_statement():
    # `python -O` strips assert statements, so a check written as one
    # silently stops checking.
    found = []
    for path, tree in _trees(SOURCE):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _is_empty_mapping_or_set(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set") and not value.args and not value.keywords)


def global_caches(root: Path) -> list[str]:
    """Where a module caches outside the objects it computes on.

    Flags every use of ``functools.cache`` or ``lru_cache``, and every
    module-level name bound to an empty dict or set.  Derived facts belong
    on the ring, ideal or kernel they describe, so that they are dropped
    with it.
    """
    found = []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name in ("cache", "lru_cache")]
            if (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno} uses functools.{node.attr}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if not _is_empty_mapping_or_set(node.value):
                continue
            found += [f"{path.name}:{node.lineno} binds {t.id} to an empty container"
                      for t in targets if isinstance(t, ast.Name)]
    return found


def test_no_cache_lives_in_a_module_global():
    assert global_caches(SOURCE) == []


def test_the_cache_rule_flags_an_added_global(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert global_caches(copy) == []
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write("\n_CERTIFICATES: dict = {}\n_SEEN = set()\n"
                     "import functools\n\n\n@functools.lru_cache\ndef f():\n    pass\n")
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom functools import cache\n_MEMO = dict()\n")
    found = global_caches(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "uses functools.lru_cache",
        "binds _CERTIFICATES to an empty container",
        "binds _SEEN to an empty container",
        "imports cache",
        "binds _MEMO to an empty container",
    ]


def private_imports(root: Path) -> list[str]:
    """Where a module imports a private name from a sibling module.

    A fact that another module needs belongs on the object it describes,
    or under a public name; only the allowed imports are exempt.
    """
    found = []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("spectop"):
                continue
            found += [f"{path.name}:{node.lineno} imports {a.name}"
                      for a in node.names if a.name.startswith("_")
                      and (path.name, a.name) not in ALLOWED_PRIVATE_IMPORTS]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_imports(SOURCE) == []


def test_the_private_import_rule_flags_an_added_import(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert private_imports(copy) == []
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom .spectrum import _ideal_table, closed_family\n"
                     "from spectop.rings import _ptrim\n")
    found = private_imports(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "imports _ideal_table",
        "imports _ptrim",
    ]


def base_overrides(root: Path) -> list[str]:
    """Where a subclass redefines a method that its base defines once."""
    bases, classes = {}, []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes.append((path.name, node))

    def ancestors(name):
        found = set()
        for base in bases.get(name, ()):
            found |= {base} | ancestors(base)
        return found

    found = []
    for filename, node in classes:
        rules = {}
        for base in ancestors(node.name) & BASE_ONLY_METHODS.keys():
            rules.update(BASE_ONLY_METHODS[base])
        for item in node.body:
            if (isinstance(item, ast.FunctionDef) and item.name in rules
                    and node.name not in rules[item.name]):
                found.append(f"{filename}:{item.lineno} {node.name} defines {item.name}")
    return found


def test_base_class_predicates_are_defined_once():
    assert base_overrides(SOURCE) == []


def test_the_base_override_rule_flags_an_added_override(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert base_overrides(copy) == []
    with open(copy / "ideals.py", "a", encoding="utf-8") as handle:
        handle.write("\n\nclass _Wrapped(BoolPrincipalIdeal):\n"
                     "    def is_whole(self):\n        return False\n\n"
                     "    def idempotent_generator(self):\n        return None\n"
                     "\n\nclass _Listed(ProductIdeal):\n"
                     "    def idempotent_generator(self):\n        return None\n")
    with open(copy / "rings.py", "a", encoding="utf-8") as handle:
        handle.write("\n\nclass _Field(GaloisFieldRing):\n"
                     "    def elements(self):\n        return ()\n")
    found = base_overrides(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "_Wrapped defines is_whole",
        "_Wrapped defines idempotent_generator",
        "_Listed defines idempotent_generator",
        "_Field defines elements",
    ]


def dataclass_imports(root: Path) -> list[str]:
    """Where a module imports ``dataclasses``.

    Importing it costs every launch about 12 ms, more than many whole
    checks; the frozen records derive from ``rings.Record`` instead.
    """
    found = []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    return found


def test_no_module_imports_dataclasses():
    assert dataclass_imports(SOURCE) == []


def test_the_dataclass_rule_flags_an_added_import(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert dataclass_imports(copy) == []
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom dataclasses import dataclass, field\n")
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write("\nimport json, dataclasses\nfrom .rings import Record\n")
    found = dataclass_imports(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "imports dataclasses",
        "imports dataclasses",
    ]
    assert [f.split(":")[0] for f in found] == ["flatness.py", "sring.py"]


def json_writers(root: Path) -> list[str]:
    """Where a module other than ``cli.py`` produces JSON text.

    Flags every use of ``json.dump``, ``json.dumps`` or
    ``encode_basestring_ascii``, by attribute or by import: the command
    line layer owns all serialization, so every document is printed
    byte-stable from one place.
    """
    writers = {"dump", "dumps", "encode_basestring_ascii"}
    found = []
    for path, tree in _trees(root):
        if path.name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name in writers]
            if isinstance(node, ast.Attribute) and node.attr in writers and (
                    node.attr == "encode_basestring_ascii"
                    or isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno} uses {node.attr}")
    return found


def test_json_text_is_produced_only_by_the_cli():
    assert json_writers(SOURCE) == []


def test_the_json_rule_flags_an_added_writer(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert json_writers(copy) == []
    with open(copy / "harness.py", "a", encoding="utf-8") as handle:
        handle.write("\nimport json\nimport pickle\n\n\ndef _text(doc):\n"
                     "    return json.dumps(doc) + str(pickle.dumps(doc))\n")
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom json import dump, loads\n"
                     "from json.encoder import encode_basestring_ascii\n"
                     "import json.encoder\n_QUOTE = json.encoder.encode_basestring_ascii\n")
    found = json_writers(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "uses dumps",
        "imports dump",
        "imports encode_basestring_ascii",
        "uses encode_basestring_ascii",
    ]


def bin_calls(root: Path) -> list[str]:
    """Where a module other than ``rings.py`` calls ``bin``.

    The set bits of a point mask, an ideal mask or a family table are read
    through ``IndexKernel.members`` alone, so that one helper decides how
    bits are scanned.
    """
    found = []
    for path, tree in _trees(root):
        if path.name == "rings.py":
            continue
        found += [f"{path.name}:{node.lineno} calls bin" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "bin"]
    return found


def test_only_the_index_kernel_reads_set_bits():
    assert bin_calls(SOURCE) == []


def test_the_bin_rule_flags_an_added_call(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert bin_calls(copy) == []
    with open(copy / "spectrum.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _bits(table):\n"
                     "    return [i for i, b in enumerate(reversed(bin(table))) if b == '1']\n")
    with open(copy / "harness.py", "a", encoding="utf-8") as handle:
        handle.write("\n_WIDTH = len(bin(255)) - 2\n_TEXT = 'bin(' + str(0b11)\n")
    found = bin_calls(copy)
    assert [f.split(" ", 1)[1] for f in found] == ["calls bin", "calls bin"]
    assert [f.split(":")[0] for f in found] == ["harness.py", "spectrum.py"]


# The ring presentations, and the modules that reach a ring's ideals
# through ``ideals.ideal_class`` instead of testing its presentation.
PRESENTATIONS = {"ModularRing", "PolyQuotientRing", "GaloisFieldRing", "ProductRing",
                 "LocalizedIntegerRing", "EventuallyConstantBitsRing"}
MAPPED_MODULES = ("ideals.py", "spectrum.py", "flatness.py", "sring.py", "cli.py")


def presentation_tests(root: Path) -> list[str]:
    """Where a mapped module calls ``isinstance`` with a ring presentation,
    alone or in a tuple, by name or as a module attribute."""
    found = []
    for path, tree in _trees(root):
        if path.name not in MAPPED_MODULES:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)
                if name in PRESENTATIONS:
                    found.append(f"{path.name}:{node.lineno} tests {name}")
    return found


def test_the_mapped_modules_never_test_a_ring_presentation():
    assert presentation_tests(SOURCE) == []


def test_the_presentation_rule_flags_an_added_test(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert presentation_tests(copy) == []
    with open(copy / "spectrum.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _slotwise(ring):\n"
                     "    return isinstance(ring, ProductRing) and not ring.is_finite\n"
                     "\n\ndef _kinds(ring, ideal):\n"
                     "    return isinstance(ring, (rings.LocalizedIntegerRing, Ring)), "
                     "isinstance(ideal, Ideal)\n")
    # dsl parses each presentation's own syntax and is not a mapped module.
    with open(copy / "dsl.py", "a", encoding="utf-8") as handle:
        handle.write("\n_BITS = isinstance(None, EventuallyConstantBitsRing)\n")
    found = presentation_tests(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "tests ProductRing",
        "tests LocalizedIntegerRing",
    ]
    assert {f.split(":")[0] for f in found} == {"spectrum.py"}
