"""Rules the library's source code keeps."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import spectop

SOURCE = Path(spectop.__file__).resolve().parent

# Methods a base class defines once, by their definitions, for all of its
# subclasses, each with the subclasses allowed to override it: every
# element of the bits ring is idempotent, so no finite scan finds the
# idempotent generator of its ideals, and each of its ideals is its own
# radical, though its primes are not listed; an element prints as its
# ring formats it.
BASE_ONLY_METHODS = {
    "Ideal": {"is_zero": set(), "is_whole": set(), "radical": {"BoolIdeal"},
              "idempotent_generator": {"BoolIdeal"}},
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


# The functions that may store into a memo dict, each with its reason.
# Every other derived fact is kept through ``rings.memoized``.
MEMO_WRITERS = {
    # The one helper that keeps a fact of one object under its name.
    "memoized",
    # The ring's memo holds a dict keyed by the ideal itself.
    "_shared",
    # A meet is keyed by the other component as well.
    "_meet",
    # The factor's memo holds a dict keyed by the payloads' sort keys.
    "_generated",
}


def _stored_base(target):
    """The innermost value a chain of subscripts stores into, or None."""
    if not isinstance(target, ast.Subscript):
        return None
    while isinstance(target, ast.Subscript):
        target = target.value
    return target


def memo_writes(root: Path) -> list[str]:
    """Where a subscript store into a ``memo`` dict, ``memo[...] = `` or
    ``x.memo[...] = ``, is written outside the functions of
    ``MEMO_WRITERS`` and the functions nested in them."""
    found = []

    def visit(node, path_name, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing + (node.name,)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            base = _stored_base(target)
            named = (isinstance(base, ast.Name) and base.id == "memo"
                     or isinstance(base, ast.Attribute) and base.attr == "memo")
            if named and not MEMO_WRITERS & set(enclosing):
                where = enclosing[-1] if enclosing else "the module"
                found.append(f"{path_name}:{node.lineno} stores into a memo in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, path_name, enclosing)

    for path, tree in _trees(root):
        visit(tree, path.name, ())
    return found


def test_every_memo_write_is_in_memoized_or_a_keyed_helper():
    assert memo_writes(SOURCE) == []


def test_the_memo_rule_flags_an_added_write(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert memo_writes(copy) == []
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write('\n\ndef _kept_label(ideal):\n    memo = ideal.memo\n'
                     '    if "label" not in memo:\n        memo["label"] = ideal.label()\n'
                     '    return memo["label"]\n')
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write('\n\nclass _Kept:\n    def seen(self, ring):\n'
                     '        ring.memo["seen"] = {}\n        ring.memo["seen"][0] = True\n')
    found = memo_writes(copy)
    assert [f.split(" ", 1)[0].split(":")[0] + " " + f.split(" in ")[-1] for f in found] == [
        "flatness.py _kept_label",
        "sring.py seen",
        "sring.py seen",
    ]


def private_imports(root: Path) -> list[str]:
    """Where a module imports a private name from a sibling module.

    A fact that another module needs belongs on the object it describes,
    or under a public name.
    """
    found = []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("spectop"):
                continue
            found += [f"{path.name}:{node.lineno} imports {a.name}"
                      for a in node.names if a.name.startswith("_")]
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


# Private attributes that a module reads off objects whose classes another
# module defines, by the reading module, each with the reason it stays.
PRIVATE_READS = {
    # The payload protocol: a factor's generated ideals are keyed by the
    # sort keys of their payloads, which each ring presentation defines.
    ("ideals.py", "_sort_key"),
}


def _class_privates(tree: ast.Module) -> set[str]:
    """The private names a module's classes define: the methods and class
    attributes of their bodies, and what their methods set on self."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def private_reads(root: Path) -> list[str]:
    """Where a module reads ``x._name``, x not ``self`` or ``cls``, for a
    private name that only another module's classes define.

    The attribute-level twin of ``private_imports``: what another module
    needs of an object is a public name of its class.
    """
    trees = list(_trees(root))
    defined = {path.name: _class_privates(tree) for path, tree in trees}
    found = []
    for path, tree in trees:
        foreign = set().union(*(names for name, names in defined.items() if name != path.name))
        foreign -= defined[path.name]
        found += [f"{path.name}:{node.lineno} reads {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in foreign
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                  and (path.name, node.attr) not in PRIVATE_READS]
    return found


def test_no_module_reads_a_private_attribute_of_another_modules_class():
    assert private_reads(SOURCE) == []


def test_the_private_read_rule_flags_an_added_read(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert private_reads(copy) == []
    # The label helper made private again, and read so in harness.py.
    spectrum = (copy / "spectrum.py").read_text(encoding="utf-8")
    assert spectrum.count("    def labels_of(") == 1
    (copy / "spectrum.py").write_text(
        spectrum.replace("    def labels_of(", "    def _labels_of("), encoding="utf-8")
    harness = (copy / "harness.py").read_text(encoding="utf-8")
    assert "sp.labels_of(E)" in harness
    (copy / "harness.py").write_text(
        harness.replace("sp.labels_of(E)", "sp._labels_of(E)"), encoding="utf-8")
    found = private_reads(copy)
    assert found and {f.split(" ", 1)[1] for f in found} == {"reads _labels_of"}
    assert {f.split(":")[0] for f in found} == {"harness.py"}


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
        handle.write("\n\nclass _Wrapped(BoolIdeal):\n"
                     "    def is_whole(self):\n        return False\n\n"
                     "    def idempotent_generator(self):\n        return None\n"
                     "\n\nclass _Listed(ProductIdeal):\n"
                     "    def idempotent_generator(self):\n        return None\n\n"
                     "    def radical(self):\n        return self\n")
    with open(copy / "rings.py", "a", encoding="utf-8") as handle:
        handle.write("\n\nclass _Field(GaloisFieldRing):\n"
                     "    def elements(self):\n        return ()\n")
    found = base_overrides(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "_Wrapped defines is_whole",
        "_Wrapped defines idempotent_generator",
        "_Listed defines idempotent_generator",
        "_Listed defines radical",
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


# Modules that a program that only parses rings must not load, by the
# module that may import them only inside a function: ``dsl`` reaches
# ``ideals`` only to read ideal labels and scans its grammar with string
# methods, not ``re``, and ``rings`` needs ``fractions`` only for a
# localized ring.
DEFERRED_IMPORTS = {"dsl.py": {"ideals", "re"}, "rings.py": {"fractions"}}


def _imports_run_at_import(tree: ast.Module) -> list[ast.stmt]:
    """The import statements that run when the module is imported, all
    but those in the bodies of functions, in line order."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda node: node.lineno)


def deferred_imports(root: Path) -> list[str]:
    """Where a module imports at module level what it must import late."""
    found = []
    for path, tree in _trees(root):
        deferred = DEFERRED_IMPORTS.get(path.name, set())
        for node in _imports_run_at_import(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.module] if node.module else [a.name for a in node.names]
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                      if name.removeprefix("spectop.").split(".")[0] in deferred]
    return found


def test_ring_parsing_modules_import_ideals_and_fractions_late():
    assert deferred_imports(SOURCE) == []


def test_the_deferred_import_rule_flags_an_added_import(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert deferred_imports(copy) == []
    with open(copy / "dsl.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom .ideals import Ideal\n"
                     "if True:\n    import spectop.ideals\n"
                     "from . import errors, ideals\n"
                     "\n\ndef _later():\n    from .ideals import LocalIdeal\n"
                     "\n\nclass _Labels:\n    from spectop.ideals import ProductIdeal\n"
                     "import re\n")
    with open(copy / "rings.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom fractions import Fraction\nimport math, fractions\n")
    with open(copy / "spectrum.py", "a", encoding="utf-8") as handle:
        handle.write("\nfrom fractions import Fraction\n")
    found = deferred_imports(copy)
    assert [f.split(" ", 1)[1] for f in found] == [
        "imports ideals",
        "imports spectop.ideals",
        "imports ideals",
        "imports spectop.ideals",
        "imports re",
        "imports fractions",
        "imports fractions",
    ]
    assert [f.split(":")[0] for f in found] == ["dsl.py"] * 5 + ["rings.py"] * 2


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
# through ``ideals.ideal_class``, its element literals through the reader
# table of ``dsl``, and what it can list through the ring's facts
# (``lists_primes``, ``lists_ideals``), instead of testing its presentation.
PRESENTATIONS = {"ModularRing", "PolyQuotientRing", "GaloisFieldRing", "ProductRing",
                 "LocalizedIntegerRing", "EventuallyConstantBitsRing"}
MAPPED_MODULES = ("ideals.py", "spectrum.py", "flatness.py", "sring.py", "cli.py", "dsl.py",
                  "harness.py")
# The one presentation test left, by module, enclosing function and class:
# the CRT decomposition splits Z/n alone.
KEPT_PRESENTATION_TESTS = ["harness.py tests ModularRing in check_crt_decomposition"]


def _isinstance_tests(tree: ast.AST):
    """Each ``isinstance`` call under the node as (call, class name), once
    per class it tests, alone or in a tuple, by name or as a module
    attribute."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            yield node, kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)


def _enclosing_functions(tree: ast.AST) -> dict[int, str]:
    """The name of the innermost function around each node, by node id."""
    owner = {}

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        owner[id(node)] = name
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(tree, "the module")
    return owner


def presentation_tests(root: Path) -> list[str]:
    """Where a mapped module calls ``isinstance`` with a ring presentation,
    each with the function it is made in."""
    found = []
    for path, tree in _trees(root):
        if path.name in MAPPED_MODULES:
            owner = _enclosing_functions(tree)
            found += [f"{path.name}:{node.lineno} tests {name} in {owner[id(node)]}"
                      for node, name in _isinstance_tests(tree) if name in PRESENTATIONS]
    return found


def _placed(found: list[str]) -> list[str]:
    """The findings without their line numbers."""
    return [f.split(":")[0] + " " + f.split(" ", 1)[1] for f in found]


def test_the_mapped_modules_never_test_a_ring_presentation():
    assert _placed(presentation_tests(SOURCE)) == KEPT_PRESENTATION_TESTS


def test_the_presentation_rule_flags_an_added_test(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert _placed(presentation_tests(copy)) == KEPT_PRESENTATION_TESTS
    with open(copy / "spectrum.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _slotwise(ring):\n"
                     "    return isinstance(ring, ProductRing) and not ring.is_finite\n"
                     "\n\ndef _kinds(ring, ideal):\n"
                     "    return isinstance(ring, (rings.LocalizedIntegerRing, Ring)), "
                     "isinstance(ideal, Ideal)\n")
    # dsl finds each presentation's literal syntax in a table, so a switch
    # on the presentation is flagged there too.
    with open(copy / "dsl.py", "a", encoding="utf-8") as handle:
        handle.write("\n_BITS = isinstance(None, EventuallyConstantBitsRing)\n")
    # A bits-ring test in place of the fact the witness check reads.
    harness = (copy / "harness.py").read_text(encoding="utf-8")
    fact = "    if ring.lists_primes:\n"
    assert harness.count(fact) == 1
    (copy / "harness.py").write_text(harness.replace(
        fact, "    if not isinstance(ring, EventuallyConstantBitsRing):\n"), encoding="utf-8")
    assert _placed(presentation_tests(copy)) == [
        "dsl.py tests EventuallyConstantBitsRing in the module",
        "harness.py tests ModularRing in check_crt_decomposition",
        "harness.py tests EventuallyConstantBitsRing in check_flat_not_projective",
        "spectrum.py tests ProductRing in _slotwise",
        "spectrum.py tests LocalizedIntegerRing in _kinds",
    ]


def ideal_class_tests(root: Path) -> list[str]:
    """Where a module calls ``isinstance`` with ``Ideal`` or a subclass of
    it, other than ``Ideal.__eq__``'s test against the base class.

    Each ideal class owns its operations and answers them for every ideal
    of its ring, so none dispatches on the class of another ideal.
    """
    trees = list(_trees(root))
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def is_ideal(name):
        return name == "Ideal" or any(map(is_ideal, bases.get(name, ())))

    found = []
    for path, tree in trees:
        equality = {id(node) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Ideal"
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__eq__"
                    for node in ast.walk(item)}
        found += [f"{path.name}:{node.lineno} tests {name}"
                  for node, name in _isinstance_tests(tree) if is_ideal(name)
                  and not (name == "Ideal" and id(node) in equality)]
    return found


def test_no_module_tests_the_class_of_an_ideal():
    assert ideal_class_tests(SOURCE) == []


def test_the_ideal_class_rule_flags_an_added_test(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert ideal_class_tests(copy) == []
    # A subclass added to the test in equality, and a sum that dispatches
    # on the other side's class.
    ideals = (copy / "ideals.py").read_text(encoding="utf-8")
    equality = "isinstance(other, Ideal) and self.key"
    assert ideals.count(equality) == 1
    (copy / "ideals.py").write_text(ideals.replace(
        equality, "isinstance(other, (Ideal, ProductIdeal)) and self.key"), encoding="utf-8")
    with open(copy / "ideals.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _join(a, b):\n"
                     "    return isinstance(b, BoolIdeal) and a.plus(b)\n")
    # A subclass defined in another module, tested there with the base.
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write("\n\nclass _Shifted(LocalIdeal):\n    pass\n"
                     "\n\ndef _kinds(ideal, ring):\n"
                     "    return isinstance(ideal, (_Shifted, ideals.Ideal)), "
                     "isinstance(ring, Ring)\n")
    found = ideal_class_tests(copy)
    assert sorted(f.split(":")[0] + " " + f.split(" ", 1)[1] for f in found) == [
        "flatness.py tests Ideal",
        "flatness.py tests _Shifted",
        "ideals.py tests BoolIdeal",
        "ideals.py tests ProductIdeal",
    ]


# The public functions and methods that nothing in the package calls, each
# with the reason it stays.
UNCALLED_PUBLIC = {
    # perfbench/tracing.py reads the sets of a family.
    "spectrum.ClosedFamily.sets",
    # The library's entry for one element literal.
    "dsl.parse_element",
    # The library's entry for one ideal label, the inverse of Ideal.label().
    "dsl.parse_ideal_label",
}


def _names(ref: ast.AST, module: str, is_method: bool) -> bool:
    """Whether a Name or Attribute node of the right name names the
    definition: a bare name names a function, an attribute a method of
    anything or a function of its module."""
    if isinstance(ref, ast.Name):
        return not is_method
    return is_method or isinstance(ref.value, ast.Name) and ref.value.id == module


def uncalled_public(root: Path) -> list[str]:
    """The public top-level functions and public methods that no code in
    the package names outside their own definitions.

    A function is named by its name, or as an attribute of its module's
    name, and a method as an attribute of anything.  The names in
    ``__all__`` and ``_EXPORTS`` are strings, so they name nothing.
    """
    trees = list(_trees(root))
    references: dict[str, list[ast.AST]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    found = []
    for path, tree in trees:
        module = path.stem
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in members:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                    continue
                is_method = item is not node
                own = set(map(id, ast.walk(item)))
                if not any(id(ref) not in own and _names(ref, module, is_method)
                           for ref in references.get(item.name, ())):
                    label = f"{node.name}.{item.name}" if is_method else item.name
                    found.append(f"{path.name}:{item.lineno} {module}.{label}")
    return found


def test_every_public_function_has_a_caller_in_the_package():
    assert sorted(f.split(" ")[1] for f in uncalled_public(SOURCE)) == sorted(UNCALLED_PUBLIC)


def test_the_caller_rule_flags_an_added_function(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write('\n__all__ += ["dual_chain"]\n\n\ndef dual_chain(chain):\n'
                     "    return dual_chain(chain)\n\n\nclass _Poset:\n"
                     "    def leq(self, other):\n        return self is other\n\n"
                     "    def _rank(self):\n        return 0\n")
    # A new caller takes parse_element off the list.
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef common_multiplier(ring, text):\n"
                     "    return parse_element(ring, text)\n")
    found = [f.split(" ")[1] for f in uncalled_public(copy)]
    assert sorted(found) == sorted(UNCALLED_PUBLIC - {"dsl.parse_element"} | {
        "flatness.common_multiplier", "sring.dual_chain", "sring._Poset.leq"})


# The parameters with a default that no call in the package passes, each
# with the reason its default stays.
UNSET_DEFAULTS = {
    # The console entry reads sys.argv; tests and library users pass argv.
    "cli.main(argv)",
    # argparse's signature, which the override keeps.
    "cli._Parser.parse_args(namespace)",
}


def _defs(tree: ast.Module):
    """Every function of a module as (label, definition, bound, class): a
    method is labelled ``Class.name`` and binds its first parameter unless
    it is static; any other function is labelled by its name alone."""
    methods = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in item.decorator_list)
                    yield f"{cls.name}.{item.name}", item, bound, cls.name
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn not in methods:
            yield fn.name, fn, False, None


def _passes(call: ast.Call, name: str, place: int | None) -> bool:
    """Whether a call passes the parameter: by keyword, by its place among
    the positional arguments, or through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if place is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or 0 <= place < len(call.args)


def unset_defaults(root: Path) -> list[str]:
    """The parameters with a default that no call in the package passes.

    A call names a function by its name, bare or as an attribute, and an
    ``__init__`` also by its class's name.  A starred argument passes
    every positional parameter, and ``**kwargs`` every parameter.
    """
    trees = list(_trees(root))
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in trees:
        for label, fn, bound, cls in _defs(tree):
            callers = calls.get(fn.name, [])
            if fn.name == "__init__":
                callers = callers + calls.get(cls, [])
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(a, i - bound) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(a, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            found += [f"{path.stem}.{label}({a.arg})" for a, place in defaulted
                      if not any(_passes(c, a.arg, place) for c in callers)]
    return found


def test_every_default_is_overridden_by_a_call_in_the_package():
    assert sorted(unset_defaults(SOURCE)) == sorted(UNSET_DEFAULTS)


def test_the_default_rule_flags_an_added_default(tmp_path):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert sorted(unset_defaults(copy)) == sorted(UNSET_DEFAULTS)
    # The explicit modulus put back, keyword-only, so that dsl's starred
    # call does not pass it.
    rings = (copy / "rings.py").read_text(encoding="utf-8")
    signature = "    def __init__(self, p: int, degree: int):\n"
    assert rings.count(signature) == 1
    (copy / "rings.py").write_text(rings.replace(
        signature, "    def __init__(self, p: int, degree: int, *, modulus=None):\n"),
        encoding="utf-8")
    # A default some call passes is not flagged.
    with open(copy / "flatness.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef _scaled(ideal, k=1):\n    return _scaled(ideal, k=2)\n")
    assert sorted(unset_defaults(copy)) == sorted(
        UNSET_DEFAULTS | {"rings.GaloisFieldRing.__init__(modulus)"})
