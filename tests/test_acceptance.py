"""Acceptance gate: one test per criterion, tolerances pinned in-line.

Run `pytest -v tests/test_acceptance.py` for a one-line pass/fail verdict per
criterion.  Heavy exact data comes from the session-scoped family fixtures
(one packed-DP pass per spec for every weight up to 2000).
"""

import math

import pytest

import oracles
from paritylab import (
    ParitySpec,
    bias_cumulative_ratio,
    bias_mode_prediction,
    bias_profile_of,
    check_emf,
    check_nr_expansion,
    check_sy_negativity,
    check_sy_taylor,
    count_at_least_of,
    count_distinct,
    estimate_bias,
    estimate_hua,
    estimate_thm1,
    estimate_thm2,
    gaussian_density,
    guarded_ceil,
    histogram_of,
    ks_distance_of,
    l_count_check,
    lambda_y,
    lattice_span,
    n3_class_shift,
    nh_value,
    nr_coefficient,
    pd_distribution,
    residue_tuples,
    rogers_L,
)
from paritylab.cli import main as cli_main

SPEC212 = ParitySpec(2, 1, 2)
SQRT3 = math.sqrt(3.0)
# every ordered class pair with N <= 6; four of them are lattice pairs
EVERY_PAIR = [
    ParitySpec(N, a, b)
    for N in range(2, 7)
    for a in range(1, N + 1)
    for b in range(1, N + 1)
    if a != b
]


@pytest.fixture(scope="module")
def every_pair_2000():
    return {spec: pd_distribution(2000, spec) for spec in EVERY_PAIR}


def test_criterion_01_oracle_equivalence():
    """Exact DP tail counts equal brute-force enumeration: n <= 40,
    N in {2,3,5}, every ordered class pair, c in -3..3."""
    moduli = (2, 3, 5)
    ref = oracles.residue_count_histograms(40, moduli)
    for n in range(41):
        for N in moduli:
            for alpha in range(1, N + 1):
                for beta in range(1, N + 1):
                    if alpha == beta:
                        continue
                    expected = oracles.reduce_to_pd(ref[N][n], N, alpha, beta)
                    dist = pd_distribution(n, ParitySpec(N, alpha, beta))
                    assert dist.counts == expected
                    for c in range(-3, 4):
                        want = sum(v for k, v in expected.items() if k >= c)
                        assert count_at_least_of(dist, c) == want
    # the direct brute-force histogram agrees as well
    want = sum(v for k, v in oracles.pd_histogram(33, 5, 3, 1).items() if k >= -2)
    assert count_at_least_of(pd_distribution(33, ParitySpec(5, 3, 1)), -2) == want


def test_criterion_02_distinct_count_spot_values():
    """d(10)=10, d(20)=64, d(30)=296, d(40)=1113, exact, plus an
    independent one-dimensional DP oracle over the whole range."""
    assert count_distinct(10) == 10
    assert count_distinct(20) == 64
    assert count_distinct(30) == 296
    assert count_distinct(40) == 1113
    ref = oracles.count_distinct_upto(40)
    assert [count_distinct(n) for n in range(41)] == ref


def test_criterion_03_hua_ratio():
    """d(n) * 4 * 3^{1/4} * n^{3/4} * e^{-pi sqrt(n/3)} lands in (0.9, 1.1)
    at n=2000 and is closer to 1 there than at n=500."""

    def ratio(n):
        log_r = (
            math.log(count_distinct(n))
            + math.log(4.0 * 3.0**0.25)
            + 0.75 * math.log(n)
            - math.pi * math.sqrt(n / 3.0)
        )
        return math.exp(log_r)

    r500, r2000 = ratio(500), ratio(2000)
    assert 0.9 < r2000 < 1.1
    assert abs(r2000 - 1.0) < abs(r500 - 1.0)
    # the estimate module computes the reciprocal ratio; the routes agree
    assert estimate_hua(2000).ratio_to(count_distinct(2000)) == pytest.approx(
        1.0 / r2000, rel=1e-9
    )


def test_criterion_04_two_term_superiority(family2):
    """For N=2, (1,2), c0 in {0,1,2}: mean |two-term ratio - 1| over
    n = 1000..2000 step 50 is strictly below mean |main ratio - 1|."""
    ns = range(1000, 2001, 50)
    for c0 in (0.0, 1.0, 2.0):
        main_gaps, two_gaps = [], []
        for n in ns:
            c_int, _ = guarded_ceil(c0 * n**0.25)
            exact = sum(v for k, v in family2[n].counts.items() if k >= c_int)
            est = estimate_thm2(n, SPEC212, c0)
            main_gaps.append(abs(est.main.ratio_to(exact) - 1.0))
            two_gaps.append(abs(est.total.ratio_to(exact) - 1.0))
        assert sum(two_gaps) / len(two_gaps) < sum(main_gaps) / len(main_gaps)


def test_criterion_05_parity_bias_sign(family2):
    """More-odd-parts strictly beats more-even-parts for every
    20 <= n <= 2000 (exact integer comparison)."""
    for n in range(20, 2001):
        counts = family2[n].counts
        d_odd = sum(v for k, v in counts.items() if k > 0)
        d_even = sum(v for k, v in counts.items() if k < 0)
        assert d_odd > d_even, f"bias sign fails at n={n}"


def test_criterion_06_gaussian_limit_ks(family2):
    """KS distance <= 0.05 at n=2000, strictly decreasing along
    {200, 500, 1000, 2000}; quadrature variance of the limit density equals
    2 sqrt(3)/(pi N) within 1e-8."""
    values = [ks_distance_of(family2[n]) for n in (200, 500, 1000, 2000)]
    assert values[-1] <= 0.05
    assert all(a > b for a, b in zip(values, values[1:]))
    # the single-weight engine yields the same number
    assert ks_distance_of(pd_distribution(200, SPEC212)) == values[0]

    from scipy.integrate import quad

    for N in (2, 3):
        var, _ = quad(lambda x: x * x * gaussian_density(x, N), -math.inf, math.inf)
        assert abs(var - 2.0 * SQRT3 / (math.pi * N)) <= 1e-8


def test_criterion_07_bias_limit_law(family2):
    """Cumulative bias ratio over x in [0,1] at n=2000 is within 0.1 of
    1 - e^{-2 pi/(4 sqrt 3)}, the gap shrinks from n=500, and the exact mode
    sits in {4,5,6} around the predicted level."""
    target = 1.0 - math.exp(-2.0 * math.pi / (4.0 * SQRT3))
    gap500 = abs(bias_cumulative_ratio(family2[500], 0.0, 1.0) - target)
    gap2000 = abs(bias_cumulative_ratio(family2[2000], 0.0, 1.0) - target)
    assert gap2000 <= 0.1
    assert gap2000 < gap500

    profile = bias_profile_of(family2[2000])
    mode_c = max(profile.points, key=lambda p: p[1])[0]
    assert mode_c in {4, 5, 6}
    predicted = round(bias_mode_prediction(2) * 2000**0.25)
    assert predicted in {4, 5, 6}


def test_criterion_05_bias_sign_every_class_pair(every_pair_2000):
    """At n = 2000, the aggregate bias has the sign of beta - alpha for
    every ordered class pair with N <= 6 whose parity differences have
    lattice span 1 (66 of the 70)."""
    pairs = [spec for spec in EVERY_PAIR if lattice_span(spec) == 1]
    assert len(pairs) == 66
    for spec in pairs:
        aggregate = bias_profile_of(every_pair_2000[spec]).normalizer
        assert aggregate != 0 and (aggregate > 0) == (spec.beta > spec.alpha), spec


def test_criterion_06_gaussian_peak_every_class_pair(every_pair_2000):
    """At n = 2000, the largest density of the area-1 histogram is within
    10 % of the Gaussian's peak for all 70 ordered class pairs with N <= 6,
    the four lattice pairs included."""
    for spec, dist in every_pair_2000.items():
        peak = max(density for _, density in histogram_of(dist).points)
        assert abs(peak / gaussian_density(0.0, spec.N) - 1.0) <= 0.10, spec


def test_criterion_07_bias_estimate_every_class_pair(every_pair_2000):
    """At n = 2000, estimate_bias is within 4 % of the exact aggregate bias
    for every pair of lattice span 1 with N <= 6, and raises on the four
    lattice pairs."""
    for spec, dist in every_pair_2000.items():
        if lattice_span(spec) > 1:
            with pytest.raises(ValueError, match="span"):
                estimate_bias(2000, spec)
            continue
        aggregate = bias_profile_of(dist).normalizer
        # estimate / aggregate, whose sign is that of beta - alpha
        ratio = estimate_bias(2000, spec).ratio_to(abs(aggregate)) * (1 if aggregate > 0 else -1)
        assert abs(ratio - 1.0) <= 0.04, spec


def test_criterion_08_residue_tuple_combinatorics():
    """|residue tuples| = N^{N-1} exhaustively for N <= 6 and every residue
    of n; the fixed-entry count is N^{N-3} exhaustively for N in {5,6}."""
    for N in range(2, 7):
        for n in range(N):
            tuples = residue_tuples(n, N)
            assert len(tuples) == N ** (N - 1)
            assert all(nh_value(l, N) % N == n % N for l in tuples)
    for N in (5, 6):
        for alpha in range(1, N + 1):
            for beta in range(1, N + 1):
                if alpha == beta:
                    continue
                for r in range(N):
                    for la in range(N):
                        for lb in range(N):
                            assert (
                                l_count_check(N, alpha, beta, r, la, lb)
                                == N ** (N - 3)
                            )


def test_criterion_09_theorem_consistency():
    """Aggregated and tuple-sum estimates agree to 1e-12 relative for
    N in {2,5,6}; the c0=0 main term is half the full-count main term for
    every N <= 6; the N=3 second term reproduces the printed 3x3 shift table
    exactly on all 9 classes."""
    for N in (2, 5, 6):
        spec = ParitySpec(N, 1, 2)
        for c0 in (0.0, 0.5, 1.0, 2.0):
            for n in (97, 500, 2401):
                t1 = estimate_thm1(n, spec, c0)
                t2 = estimate_thm2(n, spec, c0)
                assert t1.total.sign == t2.total.sign
                assert t1.total.log_abs == pytest.approx(t2.total.log_abs, abs=1e-12)

    for N in range(2, 7):
        for n in (97, 1234):
            main = estimate_thm1(n, ParitySpec(N, 1, 2), 0.0).main
            hua = estimate_hua(n)
            assert main.log_abs == pytest.approx(
                hua.log_abs - math.log(2.0), abs=1e-12
            )

    printed = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    for r in range(3):
        for s in range(3):
            assert n3_class_shift(r, s) == printed[r][s]
    spec3 = ParitySpec(3, 1, 2)
    for n in (300, 301, 302):
        for m in (3, 4, 5):
            for frac in (0.0, 0.5):
                c0 = (m - frac) / n**0.25
                est = estimate_thm1(n, spec3, c0)
                ceil_c, partial = guarded_ceil(c0 * n**0.25)
                assert ceil_c == m
                sigma = printed[n % 3][m % 3]
                coef = 10.0 - 6.0 * (partial + sigma)
                expected_log = (
                    -c0 * c0 * 3.0 * math.pi / (4.0 * SQRT3)
                    + math.log(abs(coef))
                    - math.log(48.0)
                    - math.log(n)  # n^{-1/4} and the prefactor's n^{-3/4}
                    + math.pi * math.sqrt(n / 3.0)
                )
                assert est.second.sign == (1 if coef > 0 else -1)
                assert est.second.log_abs == pytest.approx(expected_log, abs=1e-12)


def test_criterion_10_contour_expansion():
    """Quadrature minus the R-term expansion decays at the n^{-R/2} rate
    within factor 3 for R in {1,2}, A in {0, 1/2}, B = pi sqrt(2/12),
    n in {400, 1600}; the two r=0 coefficients match their closed forms to
    1e-12."""
    B = math.pi * math.sqrt(2.0 / 12.0)
    for A in (0.0, 0.5):
        for R in (1, 2):
            res = check_nr_expansion(A, R)
            assert res.passed, res.notes
    assert nr_coefficient(0.0, B, 0) == pytest.approx(
        2.0**0.25 / (2.0 * 12.0**0.25), rel=1e-12
    )
    assert nr_coefficient(0.5, B, 0) == pytest.approx(
        math.sqrt(2.0 * math.pi) / (4.0 * SQRT3), rel=1e-12
    )


def test_criterion_11_special_functions():
    """Rogers value at 1/2, the Lambda value at 0, the s(y) negativity and
    quadratic coefficient, and the Euler-Maclaurin residual, each within its
    pinned tolerance."""
    assert abs(rogers_L(0.5) + math.pi**2 / 12.0) <= 1e-12
    for N in range(2, 7):
        assert abs(lambda_y(0.0, N) - N * math.pi**2 / 12.0) <= 1e-10
        assert check_sy_negativity(N).passed
        taylor = check_sy_taylor(N)
        assert taylor.passed and taylor.observed <= 10.0
    emf = check_emf()
    assert emf.passed and emf.observed <= 1e-8


def test_criterion_12_determinism(capsys):
    """Two runs of the verification suite and of a threaded sweep emit
    byte-identical text."""

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out.encode()

    v1 = run("verify")
    v2 = run("verify")
    assert v1 == v2 and v1[0] == 0

    sweep = ("compare", "--n-range", "100:200:50", "--c0", "1")
    s1 = run(*sweep, "--threads", "1")
    s2 = run(*sweep, "--threads", "4")
    assert s1 == s2 and s1[0] == 0
