"""Every module-level function and class in afcec has a caller outside tests:
it is exported in afcec.__all__, or something else in src/afcec or bench/
names it. A name counts as an identifier, an attribute or a string constant,
since bench/spans.py wraps its layers by attribute name."""

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
