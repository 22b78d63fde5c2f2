"""Every public name in `egobatch` has a caller outside the tests.

A public top-level function or class of `src/egobatch/*.py`, or a public
method of such a class, must be referenced somewhere in `src/egobatch`
(outside `__init__.py`, whose re-exports are not callers), in `perfbench/`
or in `tools/`. The match is by name only: a reference is any `ast.Name` or
`ast.Attribute` spelled like the definition, whatever object it reaches, so
a name shared by two definitions counts as used for both.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "egobatch"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(module file, name) of every public top-level function or class and
    every public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and \
                            not member.name.startswith("_"):
                        yield path.name, f"{node.name}.{member.name}"


def referenced_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((REPO / "perfbench").rglob("*.py"))
    paths += sorted((REPO / "tools").rglob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    names = referenced_names()
    unused = [f"{module}:{name}" for module, name in public_definitions()
              if name.rpartition(".")[2] not in names]
    assert unused == []
