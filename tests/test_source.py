"""Checks on the package's source text."""

import ast
from pathlib import Path

import zoneroute

PACKAGE = Path(zoneroute.__file__).parent
ROOT = PACKAGE.parent.parent


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that its code never reads;
    `from __future__` imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    sample = ("from __future__ import annotations\nimport os, numpy as np\n"
              "import os.path\nfrom .x import a, b as c\nnp.zeros(a)\n")
    assert unused_imports(sample) == ["os", "os", "c"]
    # __init__.py imports to re-export
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def defined_names(source: str) -> list[str]:
    """The module-level functions and classes a module defines."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def read_names(source: str, strings: bool = False) -> set[str]:
    """Every name a module reads, as a variable, an attribute or an imported
    name, and with `strings` every word of its string constants; a name read
    only inside its own module-level definition does not count."""
    names = set()
    for stmt in ast.parse(source).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(node.value.replace(".", " ").split())
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def test_every_function_and_class_is_read_somewhere():
    sample = ("def used(): pass\ndef recursive(): return recursive()\n"
              "class Kept: pass\nx = [used, Kept]\n")
    assert [name for name in defined_names(sample) if name not in read_names(sample)] == [
        "recursive"]
    # perfbench's traced stage patches functions by their names as strings
    readers = [(path, "perfbench" in path.parts)
               for path in (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
                            + sorted((ROOT / "perfbench").glob("*.py"))
                            + [ROOT / "tests" / "test_acceptance.py",
                               ROOT / "tests" / "tape_reference.py"])]
    read = set().union(*(read_names(path.read_text(), strings) for path, strings in readers))
    unread = {path.name: [name for name in defined_names(path.read_text()) if name not in read]
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unread.items() if names} == {}


def process_imports(source: str) -> list[str]:
    """The modules of `multiprocessing` and `concurrent` that a module
    imports anywhere, in function bodies too."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append(node.module)
    return [name for name in imported if name.split(".")[0] in ("multiprocessing", "concurrent")]


def test_only_parallel_starts_processes():
    sample = ("import os\ndef f():\n    from concurrent.futures import Executor\n"
              "    import multiprocessing.pool as mp, json\nfrom . import parallel\n")
    assert process_imports(sample) == ["concurrent.futures", "multiprocessing.pool"]
    found = {path.name: process_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "parallel.py"}
    assert {name: imported for name, imported in found.items() if imported} == {}
