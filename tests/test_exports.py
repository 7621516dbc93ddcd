"""Every module's ``__all__`` names only what the module defines, and every
frozen dataclass a module defines is slotted."""

import dataclasses
import importlib

import pytest

MODULES = ["enforcekit"] + [
    f"enforcekit.{name}"
    for name in ("events", "policy", "dsl", "enforcement", "oracle", "simulator", "cli")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []



# The library modules in the order the package re-exports them; cli is the
# console script and stays out.
LIBRARY = [importlib.import_module(name) for name in MODULES[1:-1]]


def test_library_exports_are_pairwise_disjoint():
    # The package star-imports every library module, so a name in two lists
    # would silently come from whichever module is imported last.
    owners = {}
    for module in LIBRARY:
        for attr in module.__all__:
            owners.setdefault(attr, []).append(module.__name__)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}


def test_star_import_binds_the_package_all_from_the_defining_modules():
    package = importlib.import_module("enforcekit")
    namespace = {}
    exec("from enforcekit import *", namespace)
    del namespace["__builtins__"]
    assert package.__all__ == ["__version__"] + [a for m in LIBRARY for a in m.__all__]
    assert sorted(namespace) == sorted(package.__all__)
    for module in LIBRARY:
        assert [a for a in module.__all__ if namespace[a] is not getattr(module, a)] == []


def test_every_frozen_dataclass_is_slotted():
    # A slotted instance has no __dict__, so vars() cannot write past the
    # frozen __setattr__.
    frozen = {
        cls.__name__: cls
        for module in LIBRARY + [importlib.import_module("enforcekit.cli")]
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
    }
    assert {"Event", "ProactiveModule", "ModuleRegistry", "Scenario", "EventUniverse"} <= set(
        frozen
    )
    assert [name for name, cls in frozen.items() if cls.__dictoffset__ != 0] == []
