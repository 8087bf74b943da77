"""Exact and asymptotic parity differences for partitions into distinct parts.

The package splits into five layers:

* :mod:`paritylab.exact` — packed big-integer engines for the exact
  joint distribution of the parity difference over partitions into distinct
  parts, plus the tail counts and bias values read off a distribution.
* :mod:`paritylab.specialfn` — the special functions: the complementary
  error function, the only one the estimates need; Bernoulli numbers, which
  serve the Euler–Maclaurin ray formula, and Bernoulli polynomials; the
  dilogarithm and its relatives, which serve the checks.
* :mod:`paritylab.distribution` — normalized histograms, the limiting
  Gaussian and bias densities, Kolmogorov–Smirnov distances, bias profiles.
* :mod:`paritylab.asymptotics` — the two-term estimates, boundary data,
  saddle-point coefficients and contour integrals, Gaussian tail integrals.
* :mod:`paritylab.checks` — the verification suite behind ``paritylab verify``.

The package namespace is the union of the layers' ``__all__``, and each
layer's ``__all__`` is the only list of its public names.  ``import
paritylab`` loads no layer.  The first lookup of a public name imports the
layers in the order above until one lists the name, so it loads the layers
up to the name's own, and caches it.  Each layer imports only layers ahead
of it.  ``distribution`` (~2 ms to import) comes before ``asymptotics``
(~7 ms), so a distribution name skips the estimates, and an asymptotics or
checks name pays only the cheaper layer.  A name with a leading underscore
is in no ``__all__`` and raises ``AttributeError`` at once; another name
that no layer lists raises only after every layer is imported.  ``__all__``
and ``dir()`` import every layer.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = ("exact", "specialfn", "distribution", "asymptotics", "checks")


def __getattr__(name: str):
    """A layer by its name, a public name from its layer, or the union `__all__`."""
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        globals()[name] = value = [
            "__version__",
            *(public for layer in _LAYERS for public in __getattr__(layer).__all__),
        ]
        return value
    if not name.startswith("_"):  # no layer lists a private name
        for layer in _LAYERS:
            module = __getattr__(layer)
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
