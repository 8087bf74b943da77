"""The package namespace and each submodule's __all__ stay in step."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritylab

SUBMODULES = ("asymptotics", "checks", "cli", "distribution", "exact", "quadrature", "specialfn")
SRC = str(Path(paritylab.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", ("paritylab",) + tuple(f"paritylab.{m}" for m in SUBMODULES))
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_namespace_is_the_union_of_the_layers_all():
    # each layer's __all__ is the only list of its public names: the package
    # hands out each of them as the layer's own object, and lists them all
    union = []
    for layer in paritylab._LAYERS:
        module = importlib.import_module(f"paritylab.{layer}")
        assert getattr(paritylab, layer) is module
        for name in module.__all__:
            assert getattr(paritylab, name) is getattr(module, name), f"{layer}.{name}"
        union += module.__all__
    assert paritylab.__all__ == ["__version__", *union]
    assert len(set(union)) == len(union)
    assert set(dir(paritylab)) >= set(paritylab.__all__)


LOOKUP = """
import sys
import paritylab
for name in sys.argv[1:]:
    try:
        getattr(paritylab, name)
    except AttributeError:
        print("AttributeError", name)
print(" ".join(sorted(m for m in sys.modules if m.startswith("paritylab."))))
"""


@pytest.mark.parametrize(
    "names, missing, layers",
    [
        ((), (), ""),
        (("__wrapped__", "_repr_html_", "_LAYERS"), ("__wrapped__", "_repr_html_"), ""),
        (("exact",), (), "exact"),
        (("pd_distribution",), (), "exact"),
        (("erfc",), (), "exact specialfn"),
        (("histogram_of",), (), "distribution exact specialfn"),
        (("estimate_thm2",), (), "asymptotics distribution exact specialfn"),
        (("nope",), ("nope",), "asymptotics checks distribution exact specialfn"),
    ],
    ids=["none", "private", "layer", "exact", "specialfn", "distribution", "asymptotics", "unknown"],
)
def test_lookup_imports_the_layers_up_to_the_names_own(names, missing, layers):
    # a fresh interpreter, since the pytest process has imported every layer;
    # a private or dunder name raises without importing one, and a name no
    # layer lists is known to be missing only once every layer has said so
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOOKUP, *names], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *errors, loaded = proc.stdout.split("\n")[:-1]
    assert errors == [f"AttributeError {name}" for name in missing]
    assert loaded == " ".join(f"paritylab.{layer}" for layer in layers.split())
