import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from paritylab import (
    LogScaledValue,
    ParitySpec,
    boundary_data,
    count_distinct,
    estimate_bias,
    estimate_hua,
    estimate_thm1,
    estimate_thm2,
    gaussian_tail_integrals,
    guarded_ceil,
    H_value,
    l_count_check,
    n3_class_shift,
    nh_value,
    nr_coefficient,
    nr_contour_integral,
    residue_tuples,
)

Q3 = 3.0**0.25
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# log-scaled arithmetic
# ---------------------------------------------------------------------------


def test_log_scaled_round_trips():
    assert LogScaledValue.from_float(0.0).sign == 0
    assert LogScaledValue.zero().to_float() == 0.0
    assert LogScaledValue.from_float(-2.5).to_float() == pytest.approx(-2.5, rel=1e-15)
    big = 10**400
    assert LogScaledValue.from_int(big).log_abs == pytest.approx(
        400 * math.log(10), rel=1e-15
    )


def test_log_scaled_sentinel_enforced():
    with pytest.raises(ValueError):
        LogScaledValue(0, 1.0)
    with pytest.raises(ValueError):
        LogScaledValue(2, 1.0)
    with pytest.raises(ValueError):
        LogScaledValue(1, -math.inf)


@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
)
@settings(max_examples=200)
def test_log_scaled_plus_matches_float_addition(a, b):
    s = LogScaledValue.from_float(a).plus(LogScaledValue.from_float(b)).to_float()
    expected = a + b
    assert s == pytest.approx(expected, rel=1e-12, abs=1e-9 * (abs(a) + abs(b) + 1))


def test_log_scaled_algebra():
    x = LogScaledValue.from_float(3.0)
    assert x.plus(LogScaledValue.zero()) == x
    assert x.times(LogScaledValue.from_float(-2.0)).to_float() == pytest.approx(-6.0)
    assert x.scaled(-4.0).to_float() == pytest.approx(-12.0)
    assert x.scaled(0.0).sign == 0
    assert x.ratio_to(3) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        x.ratio_to(0)


def test_log_scaled_cancellation_to_zero():
    x = LogScaledValue.from_float(1.5)
    assert x.plus(LogScaledValue.from_float(-1.5)).sign == 0


# ---------------------------------------------------------------------------
# residue-tuple combinatorics
# ---------------------------------------------------------------------------


def test_nh_is_n_times_h_exactly():
    for N in (2, 3):
        for l in __import__("itertools").product(range(N), repeat=N):
            assert Fraction(nh_value(l, N)) == N * H_value(l, N)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=100)
def test_nh_integrality_random(N, data):
    l = tuple(
        data.draw(st.integers(min_value=0, max_value=N - 1)) for _ in range(N)
    )
    h = H_value(l, N)
    assert (N * h).denominator == 1
    assert nh_value(l, N) == N * h


def test_h_value_length_check():
    with pytest.raises(ValueError):
        H_value((0, 1), 3)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_residue_tuple_counts_small_n(N):
    for n in range(N):
        tuples = residue_tuples(n, N)
        assert len(tuples) == N ** (N - 1)
        assert all(nh_value(l, N) % N == n % N for l in tuples)


def test_residue_tuples_domain():
    with pytest.raises(ValueError):
        residue_tuples(10, 7)
    with pytest.raises(ValueError):
        residue_tuples(10, 1)


def test_even_n_tuples_for_N2():
    assert residue_tuples(0, 2) == [(0, 0), (0, 1)]
    assert residue_tuples(1, 2) == [(1, 0), (1, 1)]


def test_l_count_check_spot_and_domain():
    assert l_count_check(5, 1, 2, 0, 3, 4) == 5**2
    assert l_count_check(6, 2, 5, 3, 0, 1) == 6**3
    with pytest.raises(ValueError):
        l_count_check(4, 1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        l_count_check(5, 2, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        l_count_check(5, 1, 2, 0, 5, 0)


def test_n3_class_shift_structure():
    # the N=3 shift collapses to a function of (r, s) alone; spot the diagonal
    for r in range(3):
        assert n3_class_shift(r, r) == 0
    with pytest.raises(ValueError):
        n3_class_shift(3, 0)


# ---------------------------------------------------------------------------
# boundary bookkeeping
# ---------------------------------------------------------------------------


def test_guarded_ceil_values():
    assert guarded_ceil(2.3) == (3, pytest.approx(0.7))
    assert guarded_ceil(4.0) == (4, 0.0)
    assert guarded_ceil(5.0 - 1e-12) == (5, 0.0)
    assert guarded_ceil(5.0 + 1e-12) == (5, 0.0)
    assert guarded_ceil(-1.25) == (-1, pytest.approx(0.25))


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=1, max_value=10000),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_boundary_data_consistency(c0, n, N, data):
    alpha = data.draw(st.integers(min_value=1, max_value=N))
    beta = data.draw(st.integers(min_value=1, max_value=N).filter(lambda b: b != alpha))
    spec = ParitySpec(N, alpha, beta)
    l = tuple(data.draw(st.integers(min_value=0, max_value=N - 1)) for _ in range(N))
    bd = boundary_data(c0, n, l, spec)
    t = c0 * n**0.25
    assert 0.0 <= bd.partial < 1.0
    assert bd.kappa >= bd.ceil_c
    assert (bd.kappa - (l[alpha - 1] - l[beta - 1])) % N == 0
    # closed form: kappa = threshold + partial_star (also asserted internally)
    assert abs(bd.kappa - (t + bd.partial_star)) < 1e-9


# ---------------------------------------------------------------------------
# the two-term estimates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_main_term_at_zero_threshold(N):
    # erfc(0) = 1 and the tuple count N^{N-1} cancels the N dependence:
    # summed main term = e^{pi sqrt(n/3)} n^{-3/4} / (8 * 3^{1/4})
    n = 1234
    est = estimate_thm1(n, ParitySpec(N, 1, 2), 0.0)
    expected = math.pi * math.sqrt(n / 3.0) - 0.75 * math.log(n) - math.log(8.0 * Q3)
    assert est.main.sign == 1
    assert est.main.log_abs == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_main_term_halves_hua(N):
    for n in (97, 1234):
        est = estimate_thm1(n, ParitySpec(N, 1, 2), 0.0)
        hua = estimate_hua(n)
        assert est.main.log_abs - (hua.log_abs - math.log(2.0)) == pytest.approx(
            0.0, abs=1e-12
        )


def test_second_term_even_n_N2_aggregate():
    # over l in {(0,0),(0,1)} the coefficients are (4-0+1) and (4-4+1): sum 6
    n = 1200
    est = estimate_thm1(n, ParitySpec(2, 1, 2), 0.0)
    expected = (
        math.log(6.0)
        - math.log(16.0 * SQRT3 * 2.0**1.5)
        - 0.25 * math.log(n)
        + math.pi * math.sqrt(n / 3.0)
        - 0.75 * math.log(n)
    )
    assert est.second.sign == 1
    assert est.second.log_abs == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("N", [2, 5, 6])
@pytest.mark.parametrize("c0", [0.0, 0.5, 1.0, 2.0])
def test_thm1_equals_thm2(N, c0):
    spec = ParitySpec(N, 1, 2)
    for n in (97, 500, 2401):
        t1 = estimate_thm1(n, spec, c0)
        t2 = estimate_thm2(n, spec, c0)
        assert t1.total.sign == t2.total.sign
        assert t1.total.log_abs == pytest.approx(t2.total.log_abs, abs=1e-12)


@pytest.mark.parametrize("N", [2, 5, 6])
def test_thm1_equals_thm2_where_erfc_underflows(N):
    # at c0 = 50 erfc(x) underflows to 0 (x = 50 sqrt(pi N)/(2*3^{1/4}) > 80),
    # so both estimates take log erfc from the continued fraction.  The log
    # magnitudes are ~2000-7000, where one ulp is ~5e-13, so the totals (main
    # plus a second term of comparable size) are compared relatively
    spec = ParitySpec(N, 1, 2)
    for n in (97, 500, 2401):
        t1 = estimate_thm1(n, spec, 50.0)
        t2 = estimate_thm2(n, spec, 50.0)
        assert t1.main.log_abs == pytest.approx(t2.main.log_abs, abs=1e-12)
        assert t1.total.sign == t2.total.sign != 0
        assert t1.total.log_abs == pytest.approx(t2.total.log_abs, rel=1e-12)


def test_thm2_domain():
    with pytest.raises(ValueError):
        estimate_thm2(100, ParitySpec(3, 1, 2), 0.0)
    with pytest.raises(ValueError):
        estimate_thm2(0, ParitySpec(2, 1, 2), 0.0)


def test_fast_path_matches_enumeration():
    spec = ParitySpec(5, 2, 4)
    for c0 in (0.0, 0.7, 2.0):
        slow = estimate_thm1(977, spec, c0)
        fast = estimate_thm1(977, spec, c0, fast=True)
        assert fast.per_tuple == []
        assert fast.total.sign == slow.total.sign
        assert fast.total.log_abs == pytest.approx(slow.total.log_abs, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_thm1(977, ParitySpec(2, 1, 2), 0.0, fast=True)


def test_per_tuple_breakdown_shape():
    est = estimate_thm1(100, ParitySpec(3, 1, 2), 1.0)
    assert len(est.per_tuple) == 9
    total = LogScaledValue.zero()
    for _, main, second in est.per_tuple:
        total = total.plus(main).plus(second)
    assert total.log_abs == pytest.approx(est.total.log_abs, abs=1e-11)


def test_n3_second_term_closed_form():
    """For N=3, (1,2): second term = e^{-c0^2 3pi/(4 sqrt 3)} (10-6(d+sigma))
    / (48 n^{1/4}) x prefactor, where sigma is the printed 3x3 class table."""
    printed = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    for r in range(3):
        for s in range(3):
            assert n3_class_shift(r, s) == printed[r][s]
    spec = ParitySpec(3, 1, 2)
    for n in (300, 301, 302):
        r = n % 3
        for m in (3, 4, 5):
            for frac in (0.0, 0.5):  # integer and half-integer thresholds
                c0 = (m - frac) / n**0.25
                est = estimate_thm1(n, spec, c0)
                ceil_c, partial = guarded_ceil(c0 * n**0.25)
                assert ceil_c == m and abs(partial - frac) < 1e-9
                sigma = printed[r][m % 3]
                coef = 10.0 - 6.0 * (partial + sigma)
                expected_log = (
                    -c0 * c0 * 3.0 * math.pi / (4.0 * SQRT3)
                    + math.log(abs(coef))
                    - math.log(48.0)
                    - 0.25 * math.log(n)
                    + math.pi * math.sqrt(n / 3.0)
                    - 0.75 * math.log(n)
                )
                assert est.second.sign == (1 if coef > 0 else -1)
                assert est.second.log_abs == pytest.approx(expected_log, abs=1e-12)


def test_hua_ratio_smallish_n():
    n = 300
    ratio = estimate_hua(n).ratio_to(count_distinct(n))
    assert 0.9 < ratio < 1.1


def test_bias_estimate_antisymmetric_and_accurate(family2):
    spec = ParitySpec(2, 1, 2)
    fwd = estimate_bias(2000, spec)
    rev = estimate_bias(2000, spec.swapped())
    assert fwd.sign == 1 and rev.sign == -1
    assert fwd.log_abs == rev.log_abs
    counts = family2[2000].counts
    aggregate = sum(v for k, v in counts.items() if k >= 0) - sum(
        v for k, v in counts.items() if k <= 0
    )
    assert abs(fwd.ratio_to(aggregate) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# saddle-point coefficients and contour quadrature
# ---------------------------------------------------------------------------


def test_nr_coefficient_closed_forms():
    for N in (2, 3):
        B = math.pi * math.sqrt(N / 12.0)
        assert nr_coefficient(0.0, B, 0) == pytest.approx(
            N**0.25 / (2.0 * 12.0**0.25), rel=1e-12
        )
        assert nr_coefficient(0.5, B, 0) == pytest.approx(
            math.sqrt(math.pi * N) / (4.0 * SQRT3), rel=1e-12
        )


def test_nr_coefficient_terminates_for_half_integer():
    B = math.pi * math.sqrt(2.0 / 12.0)
    assert nr_coefficient(0.5, B, 1) != 0.0
    for r in (2, 3, 4, 7):
        assert nr_coefficient(0.5, B, r) == 0.0


def test_nr_coefficient_domain():
    B = 1.0
    with pytest.raises(ValueError):
        nr_coefficient(-0.5, B, 0)
    with pytest.raises(ValueError):
        nr_coefficient(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        nr_coefficient(0.0, B, -1)


def test_nr_contour_matches_expansion():
    B = math.pi * math.sqrt(2.0 / 12.0)
    n = 400
    q = nr_contour_integral(0.0, B, n)
    assert abs(q.imag) < 1e-12
    three_terms = sum(nr_coefficient(0.0, B, r) * n ** (-r / 2.0) for r in range(3))
    # the gap should be at the scale of the first omitted term
    t3_scale = abs(nr_coefficient(0.0, B, 3)) * n**-1.5
    assert abs(q - three_terms) < 3.0 * t3_scale


def test_nr_contour_preconditions():
    B = math.pi * math.sqrt(2.0 / 12.0)
    with pytest.raises(ValueError):
        nr_contour_integral(0.0, B, 400, mesh=500)
    with pytest.raises(ValueError):
        nr_contour_integral(0.0, B, 400, theta=0.0)
    with pytest.raises(ValueError):
        nr_contour_integral(0.0, B, 400, theta=math.pi * math.sqrt(400.0) / B)


# ---------------------------------------------------------------------------
# Gaussian tail integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.8])
def test_gaussian_tails_against_quadrature(t):
    spec = ParitySpec(3, 1, 2)
    c0_val, c1_val = gaussian_tail_integrals(t, 3, spec)
    # reduce to the (u_a, u_b) plane; the other N-2 coordinates integrate
    # to pi^{(N-2)/2} for the constant weight and 0 for their odd weights
    rest = math.pi ** ((3 - 2) / 2.0)
    c0_ref, _ = dblquad(
        lambda ua, ub: math.exp(-ua * ua - ub * ub),
        -8.0,
        8.0,
        lambda ub: ub + t,
        8.5,
        epsabs=1e-12,
    )
    assert c0_val == pytest.approx(rest * c0_ref, rel=1e-9)

    def cubic_weight(ua, ub):
        g = -(1 * ua + 2 * ub) / 3.0 + (ua**3 + ub**3) / 3.0
        return g * math.exp(-ua * ua - ub * ub)

    c1_ref, _ = dblquad(cubic_weight, -8.0, 8.0, lambda ub: ub + t, 8.5, epsabs=1e-12)
    assert c1_val == pytest.approx(rest * c1_ref, rel=1e-8, abs=1e-12)


def test_gaussian_tails_validates_modulus():
    with pytest.raises(ValueError):
        gaussian_tail_integrals(0.0, 3, ParitySpec(2, 1, 2))
