"""Every public name in `egobatch` has a caller outside the tests, and every
private one a reference outside its own definition.

A public top-level function or class of `src/egobatch/*.py`, or a public
method of such a class, must be referenced somewhere in `src/egobatch`
(outside `__init__.py`, whose re-exports are not callers), in `perfbench/`
or in `tools/`. A private (`_`-prefixed) one, or a private method that is
not a dunder, must be referenced in the same files outside its own body, so
code that a deletion leaves behind shows at once. The match is by name only:
a reference is any `ast.Name` or `ast.Attribute` spelled like the
definition, whatever object it reaches, so a name shared by two definitions
counts as used for both.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "egobatch"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions():
    """(module file, name, node) of every top-level function or class and
    every method of a top-level class, a method named `Class.method`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield path.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield path.name, f"{node.name}.{member.name}", member


def references(tree):
    """How many times each name is referenced in `tree`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def referenced_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((REPO / "perfbench").rglob("*.py"))
    paths += sorted((REPO / "tools").rglob("*.py"))
    names = Counter()
    for path in paths:
        names += references(parse(path))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    names = referenced_names()
    unused = [f"{module}:{name}" for module, name, _ in definitions()
              if not name.rpartition(".")[2].startswith("_")
              and name.rpartition(".")[2] not in names]
    assert unused == []


def test_every_private_name_is_referenced_outside_its_definition():
    names = referenced_names()
    unused = []
    for module, name, node in definitions():
        short = name.rpartition(".")[2]
        if short.startswith("_") and not (short.startswith("__") and short.endswith("__")):
            if names[short] - references(node)[short] <= 0:
                unused.append(f"{module}:{name}")
    assert unused == []
