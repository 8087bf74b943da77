"""Limit-law views of the exact parity-difference distributions.

Rescaled by n^{-1/4}, the parity differences follow a centred Gaussian with
variance 2 sqrt(3)/(pi N); the level-c bias pb(c) = f(c) - f(-c), likewise
rescaled and normalized by the aggregate bias, follows the density
(pi N / 2 sqrt 3) x e^{-pi N x^2/(4 sqrt 3)} on x >= 0, whose mode sits at
12^{1/4}/sqrt(pi N).  This module reads the histograms/profiles off one
exact PdDistribution and measures their distances to those laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ParitySpec, PdDistribution, m_max
from .specialfn import erfc

__all__ = [
    "NormalizedHistogram",
    "BiasProfile",
    "gaussian_density",
    "bias_density",
    "histogram_of",
    "ks_distance_of",
    "bias_profile_of",
    "bias_cumulative_ratio",
    "bias_mode_prediction",
    "bias_support_bound",
]

_SQRT3 = math.sqrt(3.0)
_Q3 = 3.0**0.25


@dataclass(frozen=True)
class NormalizedHistogram:
    """Area-1 histogram of the rescaled parity differences x = k n^{-1/4}.

    points holds (x, density) with density = f(k) n^{1/4} / d(n), so that
    sum(density) * bin width n^{-1/4} = 1.  mode is the x of maximal density
    (ties resolve toward smaller |x|, then toward the positive side).
    """

    n: int
    spec: ParitySpec
    points: list[tuple[float, float]]
    mode: float


@dataclass(frozen=True)
class BiasProfile:
    """Exact bias values pb(c) = f(c) - f(-c) for c = 0..max level.

    normalizer is the aggregate bias (tail count with threshold 0, minus the
    same for the swapped classes); the telescoping identity
    sum_{c>=1} pb(c) = normalizer always holds.
    """

    n: int
    spec: ParitySpec
    points: list[tuple[int, int]]
    normalizer: int


# ---------------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------------


def gaussian_density(x: float, N: int) -> float:
    """Density of the limiting Gaussian: sqrt(N)/(2*3^{1/4}) e^{-pi N x^2/(4 sqrt 3)}.

    Centred, with variance 2 sqrt(3)/(pi N).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    return math.sqrt(N) / (2.0 * _Q3) * math.exp(-math.pi * N * x * x / (4.0 * _SQRT3))


def bias_density(x: float, N: int) -> float:
    """Limit density of the normalized bias profile on x >= 0:
    (pi N / 2 sqrt 3) x e^{-pi N x^2/(4 sqrt 3)}; integrates to
    e^{-pi N a^2/(4 sqrt 3)} - e^{-pi N b^2/(4 sqrt 3)} over [a, b]."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return (
        math.pi * N / (2.0 * _SQRT3) * x * math.exp(-math.pi * N * x * x / (4.0 * _SQRT3))
    )


def bias_mode_prediction(N: int) -> float:
    """The x maximizing the bias density: 12^{1/4} / sqrt(pi N)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return 12.0**0.25 / math.sqrt(math.pi * N)


# ---------------------------------------------------------------------------
# histogram and KS distance
# ---------------------------------------------------------------------------


def histogram_of(dist: PdDistribution) -> NormalizedHistogram:
    """Area-1 normalized histogram of an exact distribution at weight n >= 1."""
    if dist.n < 1:
        raise ValueError("histograms need n >= 1 (n = 0 is a single atom)")
    total = dist.total()
    scale = dist.n**0.25
    points = [
        (k / scale, float(Fraction(v, total)) * scale)
        for k, v in dist.counts.items()
    ]
    mode = max(points, key=lambda p: (p[1], -abs(p[0]), p[0]))[0]
    return NormalizedHistogram(dist.n, dist.spec, points, mode)


def ks_distance_of(dist: PdDistribution) -> float:
    """Kolmogorov-Smirnov-style distance between the rescaled empirical CDF
    and the limiting Gaussian CDF.

    Convention (fixed deliberately): the right-continuous empirical CDF is
    evaluated at its jump points only, i.e. sup_k |F_emp(x_k) - F(x_k)| over
    the support.  Deterministic and one-sided at each jump.
    """
    if dist.n < 1:
        raise ValueError("KS distance needs n >= 1")
    N = dist.spec.N
    total = dist.total()
    scale = dist.n**-0.25
    # Gaussian CDF via erfc: F(x) = erfc(-x sqrt(pi N)/(2*3^{1/4})) / 2
    gauss_rate = math.sqrt(math.pi * N) / (2.0 * _Q3)
    cum = 0
    worst = 0.0
    for k in sorted(dist.counts):
        cum += dist.counts[k]
        x = k * scale
        f_limit = 0.5 * erfc(-x * gauss_rate)
        worst = max(worst, abs(cum / total - f_limit))
    return worst


# ---------------------------------------------------------------------------
# bias profile
# ---------------------------------------------------------------------------


def bias_profile_of(dist: PdDistribution) -> BiasProfile:
    """pb(c) for every level c in the support, plus the aggregate normalizer."""
    counts = dist.counts
    top = max((abs(k) for k in counts), default=0)
    points = [(c, counts.get(c, 0) - counts.get(-c, 0)) for c in range(top + 1)]
    # aggregate bias: tail count at threshold 0 minus the swapped-class tail,
    # which by reflection is sum_{k >= 0} f - sum_{k <= 0} f
    normalizer = sum(v for k, v in counts.items() if k >= 0) - sum(
        v for k, v in counts.items() if k <= 0
    )
    return BiasProfile(dist.n, dist.spec, points, normalizer)


def bias_cumulative_ratio(dist: PdDistribution, a: float, b: float) -> float:
    """sum of pb(c) over a <= c n^{-1/4} <= b, divided by the aggregate bias.

    Converges to e^{-pi N a^2/(4 sqrt 3)} - e^{-pi N b^2/(4 sqrt 3)}; any
    b >= m_max(n) n^{-1/4} behaves as b = infinity and the telescoping
    identity makes the ratio exactly 1 from a = 0.
    """
    if not 0.0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    profile = bias_profile_of(dist)
    if profile.normalizer == 0:
        raise ValueError("aggregate bias is zero: n too small for the bias law")
    scale = dist.n**-0.25
    numerator = sum(pb for c, pb in profile.points if a <= c * scale <= b)
    return float(Fraction(numerator, profile.normalizer))


def bias_support_bound(n: int) -> float:
    """The x beyond which the bias profile is identically zero: m_max(n) n^{-1/4}."""
    return m_max(n) * n**-0.25
