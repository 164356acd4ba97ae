"""Every top-level function and class, and every method, in the package has a
caller in the package, and every defaulted parameter is one a call there
passes.

A definition that only tests use belongs in ``tests/support.py``.  The
search is by name, over every ``Name`` and attribute in ``src/formalchain``
outside the definition itself; imports and ``__all__`` entries are
re-exports and do not count as callers.  A method is named ``Class.method``;
dunder methods are called by the language and are not searched.

A defaulted parameter that no call in the package passes, by keyword or by
position, is a setting only tests turn, or none at all: it belongs in the
tests, or becomes the constant it always is.  Calls are matched by name as
above; a method is matched by its attribute calls and ``__init__`` by calls
of its class, both with ``self`` counted; calls inside the definition itself
do not count.  A parameter is named ``function(parameter)``.

Run as a script (``python tests/test_callers.py``), this prints the
settable-value count: the defaulted parameters plus the defaulted dataclass
fields in the package, counted with ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "formalchain"

# names that stay without a caller in the package, and why
KEPT = {
    "erase_twice": "the paper's ket-erasure identity, checked by acceptance 12",
    "glue_closed": "the pairing over the empty boundary, beside glue_1d and glue_2d",
    "StepInfo.accepted": "benchmarks/tracing.py reads it for the per-kind acceptance ratios",
}

# defaulted parameters that no call in the package passes, and why
KEPT_PARAMETERS = {
    "main(argv)": "the console script calls main() bare; tests pass the arguments",
    "erase_twice(component)": "the component of the erasure identity acceptance 12 checks",
}


def _modules():
    return [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]


def _names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defaulted(fn):
    """(position, name) of each defaulted parameter; keyword-only ones at position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(cls):
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def settable_values(modules):
    """(defaulted parameters, defaulted dataclass fields) over the modules."""
    nodes = [n for tree in modules for n in ast.walk(tree)]
    params = sum(len(_defaulted(n)) for n in nodes
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    fields = sum(isinstance(s, ast.AnnAssign) and s.value is not None
                 for n in nodes if isinstance(n, ast.ClassDef) and _is_dataclass(n)
                 for s in n.body)
    return params, fields


def test_every_definition_has_a_caller():
    import formalchain
    import formalchain.topo

    statements = [stmt for tree in _modules() for stmt in tree.body]
    names = [_names(stmt) for stmt in statements]
    exported = set(formalchain.__all__) | set(formalchain.topo.__all__)
    uncalled = []
    for i, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        elsewhere = set().union(*(used for j, used in enumerate(names) if j != i))
        if stmt.name not in exported and stmt.name not in elsewhere:
            uncalled.append(stmt.name)
        if not isinstance(stmt, ast.ClassDef):
            continue
        members = [(m, _names(m)) for m in stmt.body]
        for m, _ in members:
            if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name):
                used = elsewhere.union(*(n for other, n in members if other is not m))
                if m.name not in used:
                    uncalled.append(f"{stmt.name}.{m.name}")
    lost = sorted(set(uncalled) - set(KEPT))
    assert not lost, f"no caller in src/formalchain: {lost}"
    # a KEPT name that gained a caller, or went, leaves the list
    stale = sorted(set(KEPT) - set(uncalled))
    assert not stale, f"KEPT lists names that are called or gone: {stale}"


def _definitions(modules):
    """(label, def node, called name, offset, via attribute only) of every def.

    ``offset`` is the number of parameters a call fills before its first
    argument: 1 for the ``self`` of a method or of ``__init__``.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                if cls is None:
                    out.append((child.name, child, child.name, 0, False))
                elif child.name == "__init__":
                    out.append((f"{cls.name}.__init__", child, cls.name, 1, False))
                else:
                    out.append((f"{cls.name}.{child.name}", child, child.name,
                                0 if static else 1, True))
                visit(child, None)
            else:
                visit(child, cls)

    for tree in modules:
        visit(tree, None)
    return out


def _passes(call, position, name, offset):
    """Whether ``call`` passes the parameter at ``position`` named ``name``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if i + offset == position or isinstance(arg, ast.Starred) and i + offset < position:
            return True
    return False


def test_every_defaulted_parameter_is_passed():
    modules = _modules()
    calls = [n for tree in modules for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = []
    for label, fn, called, offset, attribute_only in _definitions(modules):
        inside = {id(n) for n in ast.walk(fn)}
        candidates = [
            c for c in calls if id(c) not in inside and (
                isinstance(c.func, ast.Attribute) and c.func.attr == called
                or not attribute_only and isinstance(c.func, ast.Name) and c.func.id == called
            )
        ]
        for position, name in _defaulted(fn):
            if not any(_passes(c, position, name, offset) for c in candidates):
                unpassed.append(f"{label}({name})")
    lost = sorted(set(unpassed) - set(KEPT_PARAMETERS))
    assert not lost, f"no call in src/formalchain passes: {lost}"
    stale = sorted(set(KEPT_PARAMETERS) - set(unpassed))
    assert not stale, f"KEPT_PARAMETERS lists parameters that are passed or gone: {stale}"


if __name__ == "__main__":
    params, fields = settable_values(_modules())
    print(f"settable values in src/formalchain: {params + fields} "
          f"({params} defaulted parameters + {fields} defaulted dataclass fields)")
