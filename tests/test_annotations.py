"""Every annotation in the package resolves to a real type.

The modules use postponed evaluation (``from __future__ import annotations``),
so a name that is never imported only fails when something asks for the
hints; this test asks for all of them.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import formalchain

# Importing __main__ runs the command line.
MODULES = sorted(
    info.name for info in pkgutil.walk_packages(formalchain.__path__, "formalchain.")
    if not info.name.endswith(".__main__")
)


def _annotated(module):
    """Functions, classes and methods defined in ``module``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    for obj in _annotated(importlib.import_module(name)):
        typing.get_type_hints(obj)


@pytest.mark.parametrize("name", ["formalchain", "formalchain.topo"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
