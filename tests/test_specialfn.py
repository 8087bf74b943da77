import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from paritylab import (
    bernoulli_number,
    bernoulli_poly,
    default_sy_grid,
    dilog,
    erfc,
    euler_maclaurin,
    lambda_y,
    rogers_L,
    s_of_y,
)

# ---------------------------------------------------------------------------
# erfc
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [0.0, 0.3, -0.3, 1.0, 2.0, 2.5, -2.5, 5.0, 10.0, 26.5])
def test_erfc_against_stdlib(x):
    assert erfc(x) == pytest.approx(math.erfc(x), rel=1e-13, abs=1e-300)


@given(st.floats(min_value=-27.0, max_value=27.0, allow_nan=False))
@settings(max_examples=300)
def test_erfc_matches_stdlib_everywhere(x):
    expected = math.erfc(x)
    assert erfc(x) == pytest.approx(expected, rel=5e-13, abs=1e-300)


@given(st.floats(min_value=0.0, max_value=26.0, exclude_min=True))
def test_erfc_reflection(x):
    assert erfc(-x) + erfc(x) == pytest.approx(2.0, abs=5e-16)


def test_erfc_extremes():
    assert erfc(0.0) == 1.0
    assert erfc(40.0) == 0.0  # e^{-1600} underflows; the limit is exact
    assert erfc(-40.0) == 2.0
    assert (erfc(math.inf), erfc(-math.inf)) == (0.0, 2.0)
    with pytest.raises(ValueError, match="erfc is undefined at NaN"):
        erfc(math.nan)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_number_table():
    for r, value in BERNOULLI_TABLE.items():
        got = bernoulli_number(r)
        assert isinstance(got, Fraction)
        assert got == value
    assert all(bernoulli_number(r) == 0 for r in range(3, 60, 2))


def test_bernoulli_recurrence_exact():
    # sum_{k=0}^{r} C(r+1, k) B_k = 0 for all r >= 1
    for r in range(1, 61):
        acc = sum(math.comb(r + 1, k) * bernoulli_number(k) for k in range(r + 1))
        assert acc == 0


def test_bernoulli_table_equals_the_fraction_recurrence():
    # the package builds B_r from integer tangent numbers
    assert [bernoulli_number(r) for r in range(61)] == oracles.bernoulli_numbers(60)


def test_bernoulli_index_bounds():
    bernoulli_number(60)
    with pytest.raises(ValueError):
        bernoulli_number(61)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_poly_exact_arithmetic():
    x = Fraction(3, 7)
    for r in range(13):
        assert bernoulli_poly(r, Fraction(0)) == bernoulli_number(r)
        # forward difference: B_r(x+1) - B_r(x) = r x^{r-1}
        diff = bernoulli_poly(r, x + 1) - bernoulli_poly(r, x)
        assert diff == (r * x ** (r - 1) if r >= 1 else 0)


def test_bernoulli_poly_float_mode():
    got = bernoulli_poly(4, 0.5)
    assert isinstance(got, float)
    assert got == pytest.approx(float(Fraction(7, 240)), rel=1e-15)


# ---------------------------------------------------------------------------
# the dilogarithm
# ---------------------------------------------------------------------------

LI2_POINTS = [
    0.3,
    -0.7,
    0.5,
    0.9,
    0.99,
    -0.999,
    0.3 + 0.4j,
    0.999 * cmath.exp(2.2j),
    0.999 * cmath.exp(0.1j),
    -0.2 - 0.9j,
]


@pytest.mark.parametrize("w", LI2_POINTS)
def test_dilog_against_mpmath(w):
    ref = complex(mpmath.polylog(2, w))
    got = dilog(w)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_dilog_half_closed_form():
    expected = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert dilog(0.5).real == pytest.approx(expected, abs=1e-14)
    assert abs(dilog(0.5).imag) < 1e-15


def test_polylog_domain():
    # Li_2 is taken on |w| <= 1 - 1e-9 only
    with pytest.raises(ValueError):
        dilog(1.0)
    with pytest.raises(ValueError):
        dilog(1.0000001j * 1.0)


# ---------------------------------------------------------------------------
# Rogers dilogarithm and the Lambda/s functions
# ---------------------------------------------------------------------------


def test_rogers_half():
    assert rogers_L(0.5) == pytest.approx(-math.pi**2 / 12, abs=1e-12)


def test_rogers_reflection():
    # L(w) + L(1-w) = -pi^2/6 under this normalization
    for w in (0.2, 0.31, 0.77):
        assert rogers_L(w) + rogers_L(1 - w) == pytest.approx(
            -math.pi**2 / 6, abs=1e-12
        )


@pytest.mark.parametrize("w", [0.0, 1.0, -0.1, 1.3])
def test_rogers_domain(w):
    with pytest.raises(ValueError):
        rogers_L(w)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_lambda_at_zero(N):
    assert lambda_y(0.0, N) == pytest.approx(N * math.pi**2 / 12, abs=1e-10)


def test_lambda_conjugate_symmetry():
    for y in (0.1, 1.0, 7.3):
        assert lambda_y(-y, 2) == pytest.approx(lambda_y(y, 2).conjugate(), rel=1e-13)


def test_s_of_y_basics():
    assert s_of_y(0.0, 2) == pytest.approx(0.0, abs=1e-12)
    for y in (0.01, 0.5, 3.0, 40.0):
        assert s_of_y(y, 2) < 0
        assert s_of_y(-y, 2) == pytest.approx(s_of_y(y, 2), rel=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_s_of_y_is_the_uncached_formula(N):
    # lambda_y caches its N-free bracket per y; the negativity checks read
    # s(y) on this grid for every N, so each value must be bit-identical to
    # the formula evaluated afresh
    log2, pi2_6 = math.log(2.0), math.pi * math.pi / 6.0
    for y in default_sy_grid():
        u = complex(1.0, y)
        lam = N * (pi2_6 - log2 * log2 * u * u / 2.0 - dilog(cmath.exp(-u * log2)))
        assert s_of_y(y, N) == (lam / u).real - math.pi * math.pi * N / 12.0


@pytest.mark.parametrize("N", [2, 4, 6])
def test_s_of_y_taylor_coefficient(N):
    c = N * (math.log(2) ** 2 - math.pi**2 / 12)
    for y in (1e-2, 1e-3):
        assert abs(s_of_y(y, N) - c * y * y) <= 10 * y**4


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------


def _exp(t):
    return cmath.exp(-t)


def _dexp(order, x):
    # d^m/dx^m e^{-x} = (-1)^m e^{-x}
    return (-1) ** order * cmath.exp(-x)


def test_emf_geometric_series():
    z = 0.5
    report = euler_maclaurin(_exp, z, R=2, derivative=_dexp)
    assert report.sum_value == pytest.approx(1 / (1 - math.exp(-z)), rel=1e-12)
    # for f = e^{-t}: -B_2/2! z f'(0) = z/12
    assert report.correction_terms[0] == pytest.approx(z / 12, rel=1e-10)
    assert abs(report.residual) < 1e-4


def test_emf_report_identity():
    report = euler_maclaurin(_exp, 0.3, R=1, derivative=_dexp)
    reassembled = (
        report.integral_term
        + report.boundary_term
        + sum(report.correction_terms)
        + report.residual
    )
    assert reassembled == pytest.approx(report.sum_value, rel=1e-15)


def test_emf_gaussian_profile_residual():
    gaussian = lambda t: cmath.exp(-(t * t))

    def dgaussian(order, x):
        # d/dx e^{-x^2} via the Hermite three-term recurrence
        h_prev, h = 1.0 + 0j, 2.0 * x
        for m in range(2, order + 1):
            h_prev, h = h, 2.0 * x * h - 2.0 * (m - 1) * h_prev
        val = h if order >= 1 else 1.0
        return (-1) ** order * val * cmath.exp(-(x * x))

    report = euler_maclaurin(gaussian, 0.1, R=3, derivative=dgaussian)
    assert abs(report.residual) <= 1e-8


def test_emf_residual_is_the_first_omitted_term():
    z = 0.1
    report = euler_maclaurin(_exp, z, R=1, derivative=_dexp)
    assert report.correction_terms[0] == pytest.approx(z / 12, rel=1e-8)
    # the residual should be dominated by the first omitted term,
    # -B_4/4! z^3 f'''(0) = -z^3/720
    assert report.residual == pytest.approx(-(z**3) / 720, rel=0.05)


def test_emf_complex_ray():
    z = 0.4 + 0.2j
    report = euler_maclaurin(_exp, z, R=2, derivative=_dexp)
    expected = 1 / (1 - cmath.exp(-z))
    assert report.sum_value == pytest.approx(expected, rel=1e-12)
    assert abs(report.residual) < 1e-5


def test_emf_rejects_growth_and_bad_args():
    with pytest.raises(ArithmeticError):
        euler_maclaurin(cmath.exp, 0.5, R=1, derivative=lambda m, x: cmath.exp(x))
    with pytest.raises(ValueError):
        euler_maclaurin(_exp, 0.0, R=1, derivative=_dexp)
    with pytest.raises(ValueError):
        euler_maclaurin(_exp, 0.5, R=-1, derivative=_dexp)
    with pytest.raises(TypeError):
        euler_maclaurin(_exp, 0.5, R=1)  # the derivative is required
