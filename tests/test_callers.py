"""Every top-level function and class in the package has a caller in the package.

A definition that only tests use belongs in ``tests/support.py``.  The
search is by name, over every ``Name`` and attribute in ``src/formalchain``
outside the definition itself; imports and ``__all__`` entries are
re-exports and do not count as callers.
"""

import ast
from pathlib import Path

import formalchain
import formalchain.topo

SRC = Path(formalchain.__file__).parent

# names that stay without a caller in the package, and why
KEPT = {
    "erase_twice": "the paper's ket-erasure identity, checked by acceptance 12",
    "glue_closed": "the pairing over the empty boundary, beside glue_1d and glue_2d",
}


def _names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_every_definition_has_a_caller():
    statements = [stmt for path in sorted(SRC.rglob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_names(stmt) for stmt in statements]
    exported = set(formalchain.__all__) | set(formalchain.topo.__all__)
    uncalled = [
        stmt.name for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in exported
        and not any(stmt.name in used for j, used in enumerate(names) if j != i)
    ]
    lost = sorted(set(uncalled) - set(KEPT))
    assert not lost, f"no caller in src/formalchain: {lost}"
    # a KEPT name that gained a caller, or went, leaves the list
    stale = sorted(set(KEPT) - set(uncalled))
    assert not stale, f"KEPT lists names that are called or gone: {stale}"
