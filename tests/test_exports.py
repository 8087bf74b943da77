"""The package namespace and each submodule's __all__ stay in step."""

import importlib

import pytest

import paritylab

SUBMODULES = ("asymptotics", "checks", "cli", "distribution", "exact", "quadrature", "specialfn")


@pytest.mark.parametrize("name", ("paritylab",) + tuple(f"paritylab.{m}" for m in SUBMODULES))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public_in_their_submodule():
    # every name the package resolves lazily from a layer must be in that
    # layer's __all__, and must be what the package hands out
    drift = []
    for layer, names in paritylab._EXPORTS.items():
        module = importlib.import_module(f"paritylab.{layer}")
        drift += [
            f"{layer}.{name}"
            for name in names
            if name not in module.__all__ or getattr(paritylab, name) is not getattr(module, name)
        ]
    assert drift == []

