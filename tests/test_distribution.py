import math

import pytest
from scipy.integrate import quad

from paritylab import (
    ParitySpec,
    PdDistribution,
    bias_cumulative_ratio,
    bias_density,
    bias_mode_prediction,
    bias_profile_of,
    bias_support_bound,
    gaussian_density,
    histogram_of,
    ks_distance_of,
    m_max,
    pd_distribution,
)

SPEC212 = ParitySpec(2, 1, 2)


# ---------------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 5])
def test_gaussian_density_mass_and_variance(N):
    mass, _ = quad(lambda x: gaussian_density(x, N), -math.inf, math.inf)
    assert mass == pytest.approx(1.0, abs=1e-10)
    var, _ = quad(lambda x: x * x * gaussian_density(x, N), -math.inf, math.inf)
    assert var == pytest.approx(2.0 * math.sqrt(3.0) / (math.pi * N), abs=1e-8)


def test_gaussian_density_peak_and_domain():
    assert gaussian_density(0.0, 2) == pytest.approx(math.sqrt(2.0) / (2 * 3**0.25))
    assert gaussian_density(0.3, 2) < gaussian_density(0.0, 2)
    with pytest.raises(ValueError):
        gaussian_density(0.0, 1)


@pytest.mark.parametrize("N", [2, 3])
def test_bias_density_mass_and_cumulative(N):
    mass, _ = quad(lambda x: bias_density(x, N), 0.0, math.inf)
    assert mass == pytest.approx(1.0, abs=1e-10)
    a, b = 0.3, 1.7
    seg, _ = quad(lambda x: bias_density(x, N), a, b)
    rate = math.pi * N / (4.0 * math.sqrt(3.0))
    assert seg == pytest.approx(
        math.exp(-rate * a * a) - math.exp(-rate * b * b), abs=1e-10
    )


def test_bias_mode_prediction_is_the_maximizer():
    for N in (2, 5):
        mode = bias_mode_prediction(N)
        assert mode == pytest.approx(12.0**0.25 / math.sqrt(math.pi * N), rel=1e-15)
        h = 1e-5
        assert bias_density(mode, N) > bias_density(mode - h, N)
        assert bias_density(mode, N) > bias_density(mode + h, N)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_histogram_n8():
    hist = histogram_of(pd_distribution(8, SPEC212))
    scale = 8**0.25
    assert [x for x, _ in hist.points] == [k / scale for k in (-2, -1, 1, 2)]
    mass = sum(d for _, d in hist.points) / scale
    assert mass == pytest.approx(1.0, abs=1e-12)
    # density 2/6 * scale at the two positive levels, 1/6 * scale at the others
    assert hist.points[2][1] == pytest.approx(2.0 / 6.0 * scale, rel=1e-15)
    assert hist.mode == pytest.approx(1.0 / scale)


def test_histogram_mass_is_one_midsize(family2):
    for n in (137, 1000):
        hist = histogram_of(family2[n])
        mass = sum(d for _, d in hist.points) / n**0.25
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_histogram_mode_tie_breaks_toward_positive():
    dist = PdDistribution(4, SPEC212, {-1: 5, 0: 3, 1: 5})
    hist = histogram_of(dist)
    assert hist.mode == pytest.approx(1.0 / 4**0.25)


def test_histogram_rejects_n0():
    with pytest.raises(ValueError):
        histogram_of(pd_distribution(0, SPEC212))


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_frozen_small_case():
    # right-continuous comparison at the jump points, worked out by hand for
    # the n=8 distribution {-2:1, -1:1, 1:2, 2:2}
    assert ks_distance_of(pd_distribution(8, SPEC212)) == pytest.approx(0.12170857897883691, abs=1e-12)


def test_ks_of_family_matches_public_entry(family2):
    assert ks_distance_of(pd_distribution(200, SPEC212)) == ks_distance_of(family2[200])


def test_ks_shrinks_with_n(family2):
    assert ks_distance_of(family2[1000]) < ks_distance_of(family2[200]) < 0.06


# ---------------------------------------------------------------------------
# bias profiles
# ---------------------------------------------------------------------------


def test_bias_profile_n8():
    profile = bias_profile_of(pd_distribution(8, SPEC212))
    assert profile.points == [(0, 0), (1, 1), (2, 1)]
    assert profile.normalizer == 2


def test_bias_profile_negative_values_are_data_not_errors():
    # small weights oscillate; a negative pointwise bias must not raise
    profile = bias_profile_of(pd_distribution(50, SPEC212))
    values = dict(profile.points)
    assert values[1] == -202
    assert profile.normalizer == 188


def test_bias_profile_telescopes(family2):
    for n in (100, 777):
        profile = bias_profile_of(family2[n])
        assert sum(pb for c, pb in profile.points if c >= 1) == profile.normalizer


def test_bias_cumulative_ratio_full_range_is_one():
    assert bias_cumulative_ratio(pd_distribution(100, SPEC212), 0.0, 1e9) == 1.0


def test_bias_cumulative_ratio_validation():
    dist = pd_distribution(100, SPEC212)
    with pytest.raises(ValueError):
        bias_cumulative_ratio(dist, -0.1, 1.0)
    with pytest.raises(ValueError):
        bias_cumulative_ratio(dist, 2.0, 1.0)
    # at n=4 the aggregate bias vanishes: {4} -> -1 and {3,1} -> +2 balance
    with pytest.raises(ValueError):
        bias_cumulative_ratio(pd_distribution(4, SPEC212), 0.0, 1.0)


@pytest.mark.parametrize(
    "spec, ks, ratio",
    [
        (ParitySpec(2, 1, 2), 0.033287230412995084, 0.640410544512821),
        (ParitySpec(3, 1, 3), 0.02677149128719558, 0.7856913086774486),
    ],
)
def test_ks_and_bias_ratio_on_span_one_pairs(spec, ks, ratio):
    # the values before the lattice guard existed, at n = 300
    dist = pd_distribution(300, spec)
    assert ks_distance_of(dist) == ks
    assert bias_cumulative_ratio(dist, 0.0, 1.0) == ratio


@pytest.mark.parametrize(
    "spec, span",
    [(ParitySpec(3, 1, 2), 3), (ParitySpec(3, 2, 1), 3), (ParitySpec(4, 1, 3), 2), (ParitySpec(4, 3, 1), 2)],
)
def test_ks_and_bias_ratio_refuse_lattice_pairs(spec, span):
    # pd keeps one residue mod the span: for (3,1,2) the bias mass on [0, 1]
    # would read 0.75, 1.30 and 1.86 at n = 3000-3002, and the empirical CDF
    # jumps at every third level only
    dist = pd_distribution(300, spec)
    with pytest.raises(ValueError, match=f"have span {span}"):
        ks_distance_of(dist)
    with pytest.raises(ValueError, match=f"have span {span}"):
        bias_cumulative_ratio(dist, 0.0, 1.0)


def test_bias_support_bound():
    assert bias_support_bound(2000) == m_max(2000) * 2000**-0.25
    dist = pd_distribution(200, SPEC212)
    profile = bias_profile_of(dist)
    top = max(c for c, pb in profile.points if pb != 0)
    assert top <= m_max(200)
    # b at the support bound already captures everything
    assert bias_cumulative_ratio(dist, 0.0, bias_support_bound(200)) == 1.0
