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

from .exact import (
    ParitySpec,
    PdDistribution,
    _Record,
    _require_span_one,
    lattice_span,
    m_max,
)
from .specialfn import _Q3, _SQRT3, _pi_n, erfc

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


class NormalizedHistogram(_Record):
    """Area-1 histogram of the rescaled parity differences x = k n^{-1/4}.

    points holds (x, density) with density = f(k) n^{1/4} / (h d(n)), where
    h is the span of the support (exact.lattice_span), so that
    sum(density) * bin width h n^{-1/4} = 1.  mode is the x of maximal
    density (ties resolve toward smaller |x|, then toward the positive side).
    """

    __slots__ = ("n", "spec", "points", "mode")
    n: int
    spec: ParitySpec
    points: list[tuple[float, float]]
    mode: float


class BiasProfile(_Record):
    """Exact bias values pb(c) = f(c) - f(-c) for c = 0..max level.

    normalizer is the aggregate bias (tail count with threshold 0, minus the
    same for the swapped classes), which by the telescoping identity is
    sum_{c>=1} pb(c); bias_profile_of sums it so.
    """

    __slots__ = ("n", "spec", "points", "normalizer")
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
    pi_n = _pi_n(N)
    return math.sqrt(N) / (2.0 * _Q3) * math.exp(-pi_n * x * x / (4.0 * _SQRT3))


def bias_density(x: float, N: int) -> float:
    """Limit density of the normalized bias profile on x >= 0:
    (pi N / 2 sqrt 3) x e^{-pi N x^2/(4 sqrt 3)}; integrates to
    e^{-pi N a^2/(4 sqrt 3)} - e^{-pi N b^2/(4 sqrt 3)} over [a, b]."""
    pi_n = _pi_n(N)
    return pi_n / (2.0 * _SQRT3) * x * math.exp(-pi_n * x * x / (4.0 * _SQRT3))


def bias_mode_prediction(N: int) -> float:
    """The x maximizing the bias density: 12^{1/4} / sqrt(pi N)."""
    return 12.0**0.25 / math.sqrt(_pi_n(N))


# ---------------------------------------------------------------------------
# histogram and KS distance
# ---------------------------------------------------------------------------


def histogram_of(dist: PdDistribution) -> NormalizedHistogram:
    """Area-1 normalized histogram of an exact distribution at weight n >= 1.

    On a lattice pair the mass sits on every h-th k, so each bar is h levels
    wide and the density is divided by h to compare with the Gaussian.
    """
    if dist.n < 1:
        raise ValueError("histograms need n >= 1 (n = 0 is a single atom)")
    total = lattice_span(dist.spec) * dist.total()
    scale = dist.n**0.25
    points = [
        (k / scale, v / total * scale)
        for k, v in dist.counts.items()
    ]
    mode = max(points, key=lambda p: (p[1], -abs(p[0]), p[0]))[0]
    return NormalizedHistogram(dist.n, dist.spec, points, mode)


def ks_distance_of(dist: PdDistribution) -> float:
    """Kolmogorov-Smirnov-style distance between the rescaled empirical CDF
    and the limiting Gaussian CDF.

    Convention: sup_k |F_mid(x_k) - F(x_k)| over the jump points x_k, where
    F_mid(x_k) = (F_emp(x_k-) + F_emp(x_k)) / 2 is the mid-step value of the
    empirical CDF.  It is the continuity-corrected comparison of a lattice
    law with a continuous one: the sup over both sides of each jump would add
    up to half the largest step, about 0.04 at n = 2000 for N = 2, which
    shrinks only like n^{-1/4}.  Swapping the two classes mirrors the
    distribution, F_mid(-x) = 1 - F_mid(x) and F(-x) = 1 - F(x), so the
    distance does not depend on the class order (up to rounding).

    Raises ValueError on a lattice pair: there the empirical CDF jumps only
    at every h-th level, and the distance measures the height of its steps.
    """
    if dist.n < 1:
        raise ValueError("KS distance needs n >= 1")
    _require_span_one(dist.spec, "the level-by-level Gaussian comparison")
    N = dist.spec.N
    total = dist.total()
    scale = dist.n**-0.25
    # Gaussian CDF via erfc: F(x) = erfc(-x sqrt(pi N)/(2*3^{1/4})) / 2
    gauss_rate = math.sqrt(_pi_n(N)) / (2.0 * _Q3)
    below = 0  # the count at levels below k
    worst = 0.0
    for k in sorted(dist.counts):
        x = k * scale
        f_limit = 0.5 * erfc(-x * gauss_rate)
        count = dist.counts[k]
        worst = max(worst, abs((2 * below + count) / (2 * total) - f_limit))
        below += count
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
    # which by reflection is sum_{k >= 0} f - sum_{k <= 0} f = sum_c pb(c)
    normalizer = sum(pb for _, pb in points)
    return BiasProfile(dist.n, dist.spec, points, normalizer)


def bias_cumulative_ratio(dist: PdDistribution, a: float, b: float) -> float:
    """sum of pb(c) over a <= c n^{-1/4} <= b, divided by the aggregate bias.

    Converges to e^{-pi N a^2/(4 sqrt 3)} - e^{-pi N b^2/(4 sqrt 3)}; any
    b >= m_max(n) n^{-1/4} behaves as b = infinity and the telescoping
    identity makes the ratio exactly 1 from a = 0.

    Raises ValueError on a lattice pair, where the bias depends on n mod h.
    """
    if not 0.0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    _require_span_one(dist.spec, "the bias law")
    profile = bias_profile_of(dist)
    if profile.normalizer == 0:
        raise ValueError("aggregate bias is zero: n too small for the bias law")
    scale = dist.n**-0.25
    numerator = sum(pb for c, pb in profile.points if a <= c * scale <= b)
    return numerator / profile.normalizer


def bias_support_bound(n: int) -> float:
    """The x beyond which the bias profile is identically zero: m_max(n) n^{-1/4}."""
    if n < 1:
        raise ValueError("the support bound needs n >= 1")
    return m_max(n) * n**-0.25
