"""Every module-level function and class in afcec has a caller outside tests:
it is exported in afcec.__all__, or something else in src/afcec or bench/
names it. A name counts as an identifier, an attribute or a string constant,
since bench/spans.py wraps its layers by attribute name. Every field of a
dataclass or NamedTuple in afcec, and every attribute afcec sets with
object.__setattr__, is read as an attribute somewhere in src/afcec or
bench/. And every name that a module of afcec imports under `# noqa: F401`
is used by that module or wrapped under that module's name by
bench/spans.py, so a stale import cannot hide behind the noqa."""

import ast
from collections import defaultdict
from pathlib import Path

import afcec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "afcec"


def _sources():
    bench = [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + sorted(bench)


def _names(node):
    """Identifiers, attribute names and string constants under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unreferenced(sources, exported):
    """Module-level definitions in the package's files that are not exported
    and that no code outside their own body names, as "module.name"."""
    defined, where = [], defaultdict(set)  # where[name]: {(file, top-level owner)}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if path.parent == PACKAGE:
                    defined.append((path, owner))
            for name in _names(node):
                where[name].add((path, owner))
    # a definition's own body does not keep it alive
    return [
        f"{path.stem}.{name}"
        for path, name in defined
        if name not in exported and not where[name] - {(path, name)}
    ]


def test_no_module_level_definition_lacks_a_caller():
    assert unreferenced(_sources(), set(afcec.__all__)) == []


def _is_record(node):
    """A class decorated with dataclass or derived from NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    named = [getattr(n, "id", getattr(n, "attr", None)) for n in decorators + node.bases]
    return "dataclass" in named or "NamedTuple" in named


def _fields(cls):
    """The names a class declares as record fields or sets with
    object.__setattr__(self, "name", ...)."""
    if _is_record(cls):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and getattr(node.func.value, "id", None) == "object"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def _attribute_loads(node, owner=None):
    """(attribute, owner) for every attribute loaded under node, owner being
    the name of the innermost class whose body holds the load, or None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr, owner
        yield from _attribute_loads(child, child.name if isinstance(child, ast.ClassDef) else owner)


def unread_fields(defining, reading):
    """Fields and __setattr__ attributes of the classes in the defining files
    that no reading file loads as an attribute outside the defining class's
    own body (so a field that only its own __post_init__ validates counts as
    unread), as "module.Class.field"."""
    read = defaultdict(set)  # read[attr]: {(file, owning class)}
    for path in reading:
        for attr, owner in _attribute_loads(ast.parse(path.read_text(), filename=str(path))):
            read[attr].add((path, owner))
    out = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                fields = dict.fromkeys(_fields(node))
                out += [
                    f"{path.stem}.{node.name}.{f}"
                    for f in fields
                    if not read[f] - {(path, node.name)}
                ]
    return out


def test_every_field_is_read():
    assert unread_fields(sorted(PACKAGE.glob("*.py")), _sources()) == []


def test_unread_field_is_found(tmp_path):
    module, reader = tmp_path / "mod.py", tmp_path / "reader.py"
    module.write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
        "@dataclass(frozen=True)\nclass Spec:\n    kind: str\n    unread: int = 0\n"
        "    checked: int = 0\n\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, \"derived\", self.kind)\n"
        "        object.__setattr__(self, \"stale\", 1)\n"
        "        if self.checked < 0:\n            raise ValueError\n\n\n"
        "class Pair(NamedTuple):\n    first: int\n    second: int\n\n\n"
        "class Plain:\n    size: int\n\n\n"
        "def f(spec):\n    spec.unread = 1\n    return spec.kind, spec.derived\n"
    )
    reader.write_text("def g(pair):\n    return pair.first\n")
    assert unread_fields([module], [module, reader]) == [
        "mod.Spec.unread", "mod.Spec.checked", "mod.Spec.stale", "mod.Pair.second"
    ]


def wrapped_attributes(spans):
    """(module, attribute) pairs that the spans.py source wraps: every call
    whose first argument is a bare name and whose second is a string, as in
    `w(engine, "fit", ...)`."""
    out = set()
    for node in ast.walk(ast.parse(spans)):
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            module, attr = node.args[:2]
            if isinstance(module, ast.Name) and isinstance(attr, ast.Constant):
                out.add((module.id, attr.value))
    return out


def stale_noqa_imports(sources, wrapped):
    """Names imported under `# noqa: F401` in the given package files that
    their module does not name outside its imports and that wrapped does not
    hold for that module, as "module.name"."""
    out = []
    for path in sources:
        text = path.read_text()
        lines = text.splitlines()
        body = ast.parse(text, filename=str(path)).body
        imports = [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
        used = {name for node in body if node not in imports for name in _names(node)}
        for node in imports:
            if not any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used and (path.stem, name) not in wrapped:
                    out.append(f"{path.stem}.{name}")
    return out


def test_no_noqa_import_is_stale():
    wrapped = wrapped_attributes((ROOT / "bench" / "spans.py").read_text())
    assert stale_noqa_imports(sorted(PACKAGE.glob("*.py")), wrapped) == []


def test_stale_noqa_import_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .a import (  # noqa: F401\n    kept,\n    wrapped,\n    stale,\n)\n"
        "from .b import plain\n\n\ndef f():\n    return kept()\n"
    )
    wrapped = wrapped_attributes('w(mod, "wrapped", "span")\nw(other, "stale", "span")\n')
    assert stale_noqa_imports([module], wrapped) == ["mod.stale"]
