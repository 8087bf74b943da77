import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

import oracles

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
    lattice_span,
    n3_class_shift,
    nh_value,
    nr_coefficient,
    nr_contour_integral,
    residue_tuples,
    tail_counts,
)
from paritylab.asymptotics import _delta_class_counts, _pairwise_sum

Q3 = 3.0**0.25
SQRT3 = math.sqrt(3.0)
# SPAN_ONE[N]: every ordered class pair of modulus N with lattice span 1, the
# domain of estimate_thm2 (all but (3, {1, 2}) and (4, {1, 3}))
SPAN_ONE = {
    N: [
        ParitySpec(N, a, b)
        for a, b in itertools.permutations(range(1, N + 1), 2)
        if lattice_span(ParitySpec(N, a, b)) == 1
    ]
    for N in range(2, 7)
}


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


@pytest.mark.parametrize(
    "build",
    [lambda: LogScaledValue(1, math.nan), lambda: LogScaledValue.from_float(math.nan)],
    ids=["constructor", "from_float"],
)
def test_log_scaled_refuses_a_nan_log(build):
    with pytest.raises(ValueError, match="NaN"):
        build()


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


def _h_by_definition(m, N):
    # H(m) = (1/2) m.m + b.m with b_j = j/N - 1/2, term by term in rationals
    acc = Fraction(0)
    for j, mj in enumerate(m, start=1):
        acc += Fraction(mj * mj, 2) + (Fraction(j, N) - Fraction(1, 2)) * mj
    return acc


def test_nh_is_n_times_h_exactly():
    for N in (2, 3):
        for l in itertools.product(range(N), repeat=N):
            h = _h_by_definition(l, N)
            assert H_value(l, N) == h
            assert Fraction(nh_value(l, N)) == N * h


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=100)
def test_nh_integrality_random(N, data):
    l = tuple(
        data.draw(st.integers(min_value=0, max_value=N - 1)) for _ in range(N)
    )
    h = _h_by_definition(l, N)
    assert (N * h).denominator == 1
    assert nh_value(l, N) == N * h
    assert H_value(l, N) == h


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


@pytest.mark.parametrize("c0", [math.inf, -math.inf, math.nan])
def test_a_non_finite_threshold_raises_value_error(c0):
    # the threshold c0 n^{1/4} reaches guarded_ceil in each of these, and the
    # estimates take it before any erfc, so a NaN c0 gets the threshold message
    spec = ParitySpec(2, 1, 2)
    calls = (
        lambda: guarded_ceil(c0),
        lambda: boundary_data(c0, 100, (0, 1), spec),
        lambda: estimate_thm1(100, spec, c0),
        lambda: estimate_thm2(100, spec, c0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="threshold must be finite"):
            call()


@pytest.mark.parametrize("l", [(0,), (0, 1, 2)])
def test_boundary_data_refuses_a_tuple_of_the_wrong_length(l):
    with pytest.raises(ValueError, match="l must have length N"):
        boundary_data(1.0, 100, l, ParitySpec(2, 1, 2))


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


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("c0", [0.0, 0.5, 1.0, 2.0])
def test_thm1_equals_thm2(N, c0):
    for spec, n in itertools.product(SPAN_ONE[N], (97, 500, 2401)):
        t1 = estimate_thm1(n, spec, c0)
        t2 = estimate_thm2(n, spec, c0)
        assert t1.total.sign == t2.total.sign
        assert t1.total.log_abs == pytest.approx(t2.total.log_abs, abs=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_thm1_equals_thm2_where_erfc_underflows(N):
    # at c0 = 50 erfc(x) underflows to 0 (x = 50 sqrt(pi N)/(2*3^{1/4}) > 80),
    # so both estimates take log erfc from the continued fraction.  The log
    # magnitudes are ~2000-7000, where one ulp is ~5e-13, so the totals (main
    # plus a second term of comparable size) are compared relatively
    for spec, n in itertools.product(SPAN_ONE[N], (97, 500, 2401)):
        t1 = estimate_thm1(n, spec, 50.0)
        t2 = estimate_thm2(n, spec, 50.0)
        assert t1.main.log_abs == pytest.approx(t2.main.log_abs, abs=1e-12)
        assert t1.total.sign == t2.total.sign != 0
        assert t1.total.log_abs == pytest.approx(t2.total.log_abs, rel=1e-12)


def test_thm1_main_term_is_thm2_main_term_exactly():
    # the N^{N-1} admissible tuples split one main term, so the two forms
    # share it bit for bit, for every span-1 pair and at far thresholds too
    for N in range(2, 7):
        for spec in SPAN_ONE[N]:
            for n, c0 in itertools.product((1, 7, 500, 3001), (0.0, -0.75, 0.5, 2.5, 50.0)):
                assert estimate_thm1(n, spec, c0).main == estimate_thm2(n, spec, c0).main


def test_thm2_domain():
    # the four orders of the two lattice pairs
    for spec in (ParitySpec(3, 1, 2), ParitySpec(3, 2, 1), ParitySpec(4, 1, 3), ParitySpec(4, 3, 1)):
        with pytest.raises(ValueError, match="aggregated two-term form does not hold"):
            estimate_thm2(100, spec, 0.0)
    with pytest.raises(ValueError):
        estimate_thm2(0, ParitySpec(2, 1, 2), 0.0)


def test_delta_classes_hold_equal_tuple_counts():
    # each class delta = [l_a - l_b - c]_N holds N^{N-2} of the N^{N-1}
    # admissible tuples exactly on the class pairs of span 1 (the cut c only
    # relabels the classes); this is why the tuple sum of estimate_thm1
    # aggregates to estimate_thm2 there, and only there
    for N, n in itertools.product(range(2, 7), (100, 977, 2001)):
        tuples = residue_tuples(n, N)
        for alpha, beta in itertools.permutations(range(1, N + 1), 2):
            classes = Counter((l[alpha - 1] - l[beta - 1]) % N for l in tuples)
            uniform = sorted(classes) == list(range(N)) and set(classes.values()) == {N ** (N - 2)}
            assert uniform == (lattice_span(ParitySpec(N, alpha, beta)) == 1), (N, alpha, beta, n)


@pytest.mark.parametrize("spec", [ParitySpec(7, 1, 2), ParitySpec(12, 5, 7), ParitySpec(3, 1, 3), ParitySpec(4, 1, 2)])
@pytest.mark.parametrize("n", [1000, 2000])
def test_thm2_two_terms_near_the_exact_tail_at_N_3_4_7_12(spec, n):
    # moduli the tuple sum cannot reach (N = 7, 12) and span-1 pairs at N = 3, 4:
    # at c0 = 0 the second term takes the main term's 12-21 % shortfall to
    # within 1 % of the exact tail
    exact = tail_counts(spec, range(n, n + 1), [0])[0]
    est = estimate_thm2(n, spec, 0.0)
    main_ratio, total_ratio = est.main.ratio_to(exact), est.total.ratio_to(exact)
    assert abs(total_ratio - 1.0) < 0.012
    assert abs(total_ratio - 1.0) < abs(main_ratio - 1.0)


def test_delta_class_counts_match_residue_tuples():
    # estimate_thm1 counts the tuples of each delta class from the free
    # positions' distribution; the enumeration agrees for every class pair,
    # n mod N and ceiling mod N
    for N in range(2, 7):
        for r in range(N):
            tuples = residue_tuples(r, N)
            for alpha, beta in itertools.permutations(range(1, N + 1), 2):
                for s in range(N):
                    counts = _delta_class_counts(N, alpha, beta, r, s)
                    ref = Counter((l[alpha - 1] - l[beta - 1] - s) % N for l in tuples)
                    nonzero = {d: c for d, c in enumerate(counts) if c}
                    assert nonzero == ref, (N, alpha, beta, r, s)


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
    with pytest.raises(ValueError, match="B must be > 0"):
        nr_contour_integral(0.0, 0.0, 400)
    with pytest.raises(ValueError, match="B must be > 0"):
        nr_contour_integral(0.0, -B, 400)
    with pytest.raises(ValueError, match="n must be >= 1"):
        nr_contour_integral(0.0, B, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        nr_contour_integral(0.0, B, -400)
    with pytest.raises(ValueError, match=r"B / sqrt\(n\) must be < pi"):
        nr_contour_integral(0.0, math.pi, 1)


# The verify suite's four integrals, then A and n one at a time around them.
# n = 14 is the smallest weight whose contour stays inside |z| < 1/2
# (n > 8 B^2 = 13.16).  theta and mesh tell the oracle the package's one
# contour: |y| <= 1 in 4000 and 8000 trapezoid intervals.
NR_CASES = sorted(
    {(A, n) for A in (0.0, 0.5) for n in (400, 1600)}
    | {(A, n) for A in (0.0, 0.5, 1.0, 2.5) for n in (14, 400, 6400)}
    | {(1.0, n) for n in (100, 400, 1600, 6400)}
)


@pytest.mark.parametrize("A, n, theta, mesh", [(A, n, 1.0, 4000) for A, n in NR_CASES])
def test_nr_contour_equals_numpy_trapezoid(A, n, theta, mesh):
    B = math.pi * math.sqrt(2.0 / 12.0)
    got = nr_contour_integral(A, B, n)
    assert got == oracles.numpy_contour_integral(A, B, n, theta=theta, mesh=mesh)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 4000, 8000])
def test_pairwise_sum_equals_numpy_complex_sum(m):
    # numpy sums complex128 with four accumulators per component (float64 uses
    # eight), so the reference must be a complex array
    rng = np.random.default_rng(m)
    scales = np.exp(rng.uniform(-30.0, 30.0, size=(2, m)))
    values = rng.standard_normal((2, m)) * scales
    array = values[0] + 1j * values[1]
    want = np.sum(array)
    assert _pairwise_sum(values[0].tolist()) == want.real
    assert _pairwise_sum(values[1].tolist()) == want.imag


# ---------------------------------------------------------------------------
# Gaussian tail integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [1241, 1300, 10**400], ids=["1241", "1300", "10**400"])
def test_gaussian_tails_refuse_a_modulus_whose_pi_power_overflows(N):
    # pi^{N/2} overflows a float from N = 1241 on; 10**400 is too large for
    # a float itself
    with pytest.raises(ValueError, match=r"N is too large: pi\^\(N/2\) overflows a float"):
        gaussian_tail_integrals(1.0, ParitySpec(N, 1, 2))


def test_gaussian_tails_are_finite_below_the_overflow():
    assert all(map(math.isfinite, gaussian_tail_integrals(1.0, ParitySpec(1240, 1, 2))))


@pytest.mark.parametrize("t", [0.0, 0.8])
def test_gaussian_tails_against_quadrature(t):
    spec = ParitySpec(3, 1, 2)
    c0_val, c1_val = gaussian_tail_integrals(t, spec)
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
