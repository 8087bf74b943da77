"""Exact and asymptotic parity differences for partitions into distinct parts.

The package splits into five layers:

* :mod:`paritylab.exact` — packed big-integer engines for the exact
  joint distribution of the parity difference over partitions into distinct
  parts, plus the tail counts and bias values read off a distribution.
* :mod:`paritylab.specialfn` — the special functions the estimates need
  (complementary error function, Bernoulli polynomials, dilogarithm and
  relatives, the Euler–Maclaurin ray formula).
* :mod:`paritylab.asymptotics` — the two-term estimates, boundary data,
  saddle-point coefficients and contour integrals, Gaussian tail integrals.
* :mod:`paritylab.distribution` — normalized histograms, the limiting
  Gaussian and bias densities, Kolmogorov–Smirnov distances, bias profiles.
* :mod:`paritylab.checks` — the verification suite behind ``paritylab verify``.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name and the layer that defines it.  A layer is imported on
# first access (module __getattr__), so `import paritylab` loads none of them
# and a CLI job compiles only the layers its command runs.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "exact": (
        "EnumerationLimitExceeded",
        "ParitySpec",
        "Partition",
        "PdDistribution",
        "count_at_least_of",
        "count_distinct",
        "enumerate_distinct",
        "lattice_span",
        "m_max",
        "parity_bias",
        "pd",
        "pd_distribution",
        "pd_distribution_family",
    ),
    "specialfn": (
        "EmfReport",
        "bernoulli_number",
        "bernoulli_poly",
        "erfc",
        "euler_maclaurin",
        "lambda_y",
        "polylog",
        "rogers_L",
        "s_of_y",
    ),
    "asymptotics": (
        "BoundaryData",
        "EstimateTerms",
        "LogScaledValue",
        "ResidueTuple",
        "H_value",
        "boundary_data",
        "estimate_bias",
        "estimate_hua",
        "estimate_thm1",
        "estimate_thm2",
        "gaussian_tail_integrals",
        "guarded_ceil",
        "l_count_check",
        "n3_class_shift",
        "nh_value",
        "nr_coefficient",
        "nr_contour_integral",
        "residue_tuples",
    ),
    "distribution": (
        "BiasProfile",
        "NormalizedHistogram",
        "bias_cumulative_ratio",
        "bias_density",
        "bias_mode_prediction",
        "bias_profile_of",
        "bias_support_bound",
        "gaussian_density",
        "histogram_of",
        "ks_distance_of",
    ),
    "checks": (
        "CHECK_COMPARISONS",
        "CheckResult",
        "check_emf",
        "check_lambda_identity",
        "check_nr_expansion",
        "check_sy_negativity",
        "check_sy_taylor",
        "default_emf_profiles",
        "default_suite",
        "default_sy_grid",
        "run_suite",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import the layer behind `name` (a public name or a layer) on first use."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
