"""The package namespace and each submodule's __all__ stay in step."""

import ast
import importlib
from pathlib import Path

import pytest

import paritylab

SUBMODULES = ("asymptotics", "checks", "cli", "distribution", "exact", "specialfn")


@pytest.mark.parametrize("name", ("paritylab",) + tuple(f"paritylab.{m}" for m in SUBMODULES))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public_in_their_submodule():
    # every `from .X import name` in paritylab/__init__.py that the package
    # exports must also be in X.__all__
    tree = ast.parse(Path(paritylab.__file__).read_text(encoding="utf-8"))
    drift = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"paritylab.{node.module}")
            drift += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name in paritylab.__all__ and alias.name not in module.__all__
            ]
    assert drift == []
