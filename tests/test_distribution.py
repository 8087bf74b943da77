import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from paritylab import (
    ParitySpec,
    PdDistribution,
    bias_cumulative_ratio,
    bias_density,
    bias_mode_prediction,
    bias_profile_of,
    bias_support_bound,
    estimate_bias,
    estimate_thm2,
    gaussian_density,
    histogram_of,
    ks_distance_of,
    m_max,
    pd_distribution,
    tail_counts,
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


@pytest.mark.parametrize("N", [10**308, 10**309])
def test_limit_laws_refuse_a_modulus_whose_pi_n_overflows(N):
    # pi N is inf at 10^308, and 10^309 does not convert to a float at all
    laws = [
        lambda: gaussian_density(0.0, N),
        lambda: bias_density(0.5, N),
        lambda: bias_mode_prediction(N),
        lambda: ks_distance_of(pd_distribution(40, ParitySpec(N, 1, 2))),
        lambda: estimate_thm2(100, ParitySpec(N, 1, 2), 0.0),
        lambda: estimate_bias(100, ParitySpec(N, 1, 2)),
    ]
    for law in laws:
        with pytest.raises(ValueError, match="pi \\* N overflows"):
            law()
    # the largest moduli with a finite pi N still give finite values
    top = 3 * 10**307
    assert gaussian_density(0.0, top) == math.sqrt(top) / (2 * 3**0.25)
    assert bias_density(1e-154, top) > 0.0
    assert bias_mode_prediction(top) > 0.0


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


@settings(max_examples=300, deadline=None)
@given(b=st.integers(min_value=1, max_value=2**1100), share=st.fractions(0, 1))
@example(b=2**1001 + 12345, share=Fraction(2**999 + 7, 2**1000))
@example(b=3**700, share=Fraction(1))
def test_int_division_rounds_as_fraction(b, share):
    # histogram_of and bias_cumulative_ratio divide exact counts with `/`:
    # int / int is correctly rounded, so it equals the rounded Fraction
    a = b * share.numerator // share.denominator
    assert 0 <= a <= b
    assert a / b == float(Fraction(a, b))


def test_ks_frozen_small_case():
    # mid-step comparison at the jump points of the n=8 distribution
    # {-2:1, -1:1, 1:2, 2:2}: F_mid is 1/12, 3/12, 6/12, 10/12 there, and the
    # Gaussian CDF comes from math.erfc, not the package's erfc
    counts = {-2: 1, -1: 1, 1: 2, 2: 2}
    assert pd_distribution(8, SPEC212).counts == counts
    sigma = math.sqrt(2.0 * math.sqrt(3.0) / (math.pi * 2))
    below, expected = Fraction(0), 0.0
    for k, v in counts.items():
        mid = below + Fraction(v, 2 * 6)
        below += Fraction(v, 6)
        gauss = 0.5 * math.erfc(-k * 8**-0.25 / (sigma * math.sqrt(2.0)))
        expected = max(expected, abs(float(mid) - gauss))
    assert expected == pytest.approx(0.28837524564550354, abs=1e-12)
    assert ks_distance_of(pd_distribution(8, SPEC212)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [ParitySpec(2, 1, 2), ParitySpec(3, 1, 3), ParitySpec(5, 1, 2), ParitySpec(5, 2, 4), ParitySpec(6, 1, 6)],
    ids=lambda spec: f"{spec.N}-{spec.alpha}-{spec.beta}",
)
@pytest.mark.parametrize("n", [8, 50, 300, 1000])
def test_ks_is_invariant_under_swapping_the_classes(spec, n):
    # swapping the classes mirrors the distribution; the one-sided comparison
    # this replaced read 0.0333 for (2,1,2) and 0.0942 for (2,2,1) at n = 300
    ks = ks_distance_of(pd_distribution(n, spec))
    assert ks_distance_of(pd_distribution(n, spec.swapped())) == pytest.approx(ks, abs=1e-12)


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
    # the normalizer sums the profile; by telescoping it is the aggregate
    # bias, the tail at threshold 0 minus the swapped classes' tail
    for n in (100, 777):
        profile = bias_profile_of(family2[n])
        (tail_ab,) = tail_counts(SPEC212, range(n, n + 1), [0])
        (tail_ba,) = tail_counts(SPEC212.swapped(), range(n, n + 1), [0])
        assert profile.normalizer == tail_ab - tail_ba


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
        (ParitySpec(2, 1, 2), 0.03297747973591225, 0.640410544512821),
        (ParitySpec(3, 1, 3), 0.05190648024751354, 0.7856913086774486),
    ],
    ids=["2-1-2", "3-1-3"],
)
def test_ks_and_bias_ratio_on_span_one_pairs(spec, ks, ratio):
    # at n = 300; the ratios are the values before the lattice guard existed
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


@pytest.mark.parametrize("n", [0, -1])
def test_bias_support_bound_needs_a_positive_weight(n):
    # as every other weight check of the limit-law views: a ValueError, not
    # the ZeroDivisionError of 0 ** -0.25
    with pytest.raises(ValueError, match="n >= 1"):
        bias_support_bound(n)
