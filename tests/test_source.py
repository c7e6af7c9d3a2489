"""Checks on the package's source text."""

import ast
from pathlib import Path

import zoneroute

PACKAGE = Path(zoneroute.__file__).parent


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
