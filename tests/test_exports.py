"""Every name a module exports through __all__ exists."""

import importlib

import pytest

import biconsurf


@pytest.mark.parametrize("module", ["biconsurf"] + [f"biconsurf.{m}" for m in biconsurf.__all__
                                                    if not m.startswith("__")])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
