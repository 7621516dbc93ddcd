"""Every module's ``__all__`` names only what the module defines."""

import importlib

import pytest

MODULES = ["enforcekit"] + [
    f"enforcekit.{name}"
    for name in ("events", "dsl", "policy", "enforcement", "oracle", "simulator", "cli")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []

