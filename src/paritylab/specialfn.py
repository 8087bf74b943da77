"""Special functions for the asymptotic formulas and the verification suite.

Everything here is double precision with stated accuracy targets:

* erfc           -- complementary error function, 1e-12 relative
                    (series for |x| <= 2, Lentz continued fraction beyond,
                    absolute floor 1e-300 in the deep tail);
* Bernoulli      -- exact rational numbers/polynomials up to degree 60;
* dilog          -- the dilogarithm Li_2 on |w| < 1, 1e-12 relative;
* rogers_L       -- the Rogers dilogarithm on (0, 1);
* lambda_y, s_of_y -- the saddle-direction functions
                    Lambda(y) = N(pi^2/6 - log(2)^2 (1+iy)^2 / 2 - Li_2(2^{-(1+iy)}))
                    and s(y) = Re(Lambda(y)/(1+iy)) - pi^2 N / 12;
* euler_maclaurin -- the Euler-Maclaurin identity on the ray from 0 with an
                    itemized report of each term and the leftover residual
                    (the ray integral by QUADPACK's QAGI, see quadrature).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Union

from .exact import _Record

if TYPE_CHECKING:
    # imported where rationals are built: fractions loads decimal, and the
    # count, dist and bias paths build none
    from fractions import Fraction

__all__ = [
    "erfc",
    "bernoulli_number",
    "bernoulli_poly",
    "dilog",
    "rogers_L",
    "lambda_y",
    "s_of_y",
    "EmfReport",
    "euler_maclaurin",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)
_Q3 = 3.0**0.25  # 3^{1/4}
_PI2_6 = math.pi * math.pi / 6.0
_LOG2 = math.log(2.0)

MAX_BERNOULLI = 60


def _pi_n(N: int) -> float:
    """pi N, the scale of every limit law and estimate; a ValueError unless
    N >= 2 and pi N is a finite float."""
    if N < 2:
        raise ValueError("N must be >= 2")
    try:
        pi_n = math.pi * N
    except OverflowError:  # N itself is too large for a float
        pi_n = math.inf
    if not math.isfinite(pi_n):
        raise ValueError("N is too large: pi * N overflows a float")
    return pi_n


# ---------------------------------------------------------------------------
# complementary error function
# ---------------------------------------------------------------------------


def _erf_series(x: float) -> float:
    # erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_{n>=0} (2x^2)^n / (1*3*...*(2n+1)).
    # All terms positive, so no cancellation; used for |x| <= 2.
    t = 2.0 * x * x
    term = 1.0
    total = 1.0
    denom = 1.0
    for n in range(1, 200):
        denom += 2.0
        term *= t / denom
        total += term
        if term < 1e-18 * total:
            break
    return (2.0 / _SQRT_PI) * x * math.exp(-x * x) * total


def _erfc_cf(x: float) -> float:
    # the continued fraction f(x) = x + (1/2)/(x + 1/(x + (3/2)/(x + ...))),
    # with erfc(x) = e^{-x^2} / (sqrt(pi) f(x)), evaluated by the modified
    # Lentz algorithm; rapidly convergent for x > 2.  Both callers pass
    # x >= 2, so f, c and every denominator d stay positive and the
    # algorithm's usual guards against a zero denominator are not needed.
    f = x
    c = f
    d = 0.0
    for i in range(1, 300):
        a = i / 2.0
        d = 1.0 / (x + a * d)
        c = x + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return f


def erfc(x: float) -> float:
    """Complementary error function 2/sqrt(pi) * integral_x^inf e^{-t^2} dt."""
    if math.isnan(x):
        raise ValueError("erfc is undefined at NaN")
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x <= 2.0:
        return 1.0 - _erf_series(x)
    ex = math.exp(-x * x)
    if ex == 0.0:
        return 0.0  # deep tail: below the 1e-300 absolute floor
    return ex / (_SQRT_PI * _erfc_cf(x))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rationals)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_table() -> tuple[Fraction, ...]:
    # From the generating function t e^{xt}/(e^t - 1): B_0 = 1, B_1 = -1/2,
    # B_r = 0 for odd r >= 3, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    # with T_k the tangent numbers, which Brent and Harvey's O(k^2) recurrence
    # builds in integers.  Built on first use, so import does no rational
    # arithmetic.
    from fractions import Fraction

    m = MAX_BERNOULLI // 2
    tangent = [0] + [math.factorial(k - 1) for k in range(1, m + 1)]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]

    table = [Fraction(1), Fraction(-1, 2)]
    for r in range(2, MAX_BERNOULLI + 1):
        k = r // 2
        numerator = 0 if r % 2 else (-1) ** (k - 1) * r * tangent[k]
        table.append(Fraction(numerator, 4**k * (4**k - 1)))
    return tuple(table)


def bernoulli_number(r: int) -> Fraction:
    """B_r as an exact rational; r <= 60 (table exhaustion raises)."""
    if r < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if r > MAX_BERNOULLI:
        raise ValueError(f"Bernoulli coefficient table ends at r = {MAX_BERNOULLI}")
    return _bernoulli_table()[r]


def bernoulli_poly(
    r: int, x: Union[int, float, Fraction]
) -> Union[float, Fraction]:
    """B_r(x) = sum_k C(r,k) B_k x^{r-k}; exact Fraction for int/Fraction x."""
    if r < 0:
        raise ValueError("Bernoulli degree must be >= 0")
    if r > MAX_BERNOULLI:
        raise ValueError(f"Bernoulli coefficient table ends at r = {MAX_BERNOULLI}")
    from fractions import Fraction

    table = _bernoulli_table()
    rational = isinstance(x, (int, Fraction))
    acc: Union[float, Fraction] = Fraction(0) if rational else 0.0
    for k in range(r + 1):
        coef = math.comb(r, k) * table[k]
        power = x ** (r - k) if r != k else 1
        if rational:
            acc += coef * power
        else:
            acc += float(coef) * power
    return acc


# ---------------------------------------------------------------------------
# the dilogarithm
# ---------------------------------------------------------------------------


def _li2_series(w: complex) -> complex:
    # direct defining series, adequate for |w| <= 1/2 (~60 terms)
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for nn in range(1, 400):
        power *= w
        term = power / (nn * nn)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total

def _li2_log_expansion(w: complex) -> complex:
    # Expansion about the singularity at w = 1, with mu = Log w (|mu| < 2 pi):
    #   Li_2(e^mu) = pi^2/6 + mu (1 - Log(-mu)) - mu^2/4
    #                - sum_{k>=1} B_{2k}/(2k) * mu^{2k+1}/(2k+1)!
    # On 1/2 < |w| < 1 we have |mu| < sqrt(log(2)^2 + pi^2) ~ 3.22, so the
    # tail decays like (|mu|/2pi)^{2k} and the cached B_{2k} (k <= 29) suffice
    # for 1e-15.
    mu = cmath.log(w)
    total = _PI2_6 + mu * (1.0 - cmath.log(-mu)) - mu * mu / 4.0
    musq = mu * mu
    power = mu * musq  # mu^3
    for k in range(1, 30):
        term = (
            float(bernoulli_number(2 * k))
            / (2 * k)
            * power
            / math.factorial(2 * k + 1)
        )
        total -= term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
        power *= musq
    return total


def dilog(w: complex) -> complex:
    """Li_2(w) = sum_{n>=1} w^n / n^2 for |w| <= 1 - 1e-9.

    The defining series for |w| <= 1/2 and the log-singularity expansion on
    1/2 < |w| <= 1 - 1e-9.
    """
    w = complex(w)
    if not abs(w) <= 1.0 - 1e-9:
        raise ValueError("dilog requires |w| <= 1 - 1e-9")
    if abs(w) <= 0.5:
        return _li2_series(w)
    return _li2_log_expansion(w)


def rogers_L(w: float) -> float:
    """Rogers dilogarithm L(w) = Li_2(w) + (1/2) log(w) log(1-w) - pi^2/6 on (0,1)."""
    if not 0.0 < w < 1.0:
        raise ValueError("rogers_L requires 0 < w < 1")
    li2 = dilog(w).real
    return li2 + 0.5 * math.log(w) * math.log1p(-w) - _PI2_6


# ---------------------------------------------------------------------------
# Lambda(y) and s(y)
# ---------------------------------------------------------------------------


def lambda_y(y: float, N: int) -> complex:
    """Lambda(y) = N(pi^2/6 - log(2)^2 (1+iy)^2/2 - Li_2(2^{-(1+iy)})).

    The dilogarithm's argument has modulus exactly 1/2, so the direct series
    path is always taken.  At y = 0 the dilogarithm identity Li_2(1/2) =
    pi^2/12 - log(2)^2/2 collapses the bracket to pi^2/12, i.e.
    Lambda(0) = N pi^2 / 12.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    return N * _lambda_bracket(y)


@lru_cache(maxsize=1024)
def _lambda_bracket(y: float) -> complex:
    # the bracket of lambda_y, which does not depend on N: the negativity
    # checks for N = 2..6 and their tail variant evaluate it on one grid, so
    # each grid point costs one dilogarithm
    u = complex(1.0, y)
    w = cmath.exp(-u * _LOG2)  # 2^{-(1+iy)}
    return _PI2_6 - _LOG2 * _LOG2 * u * u / 2.0 - dilog(w)


def s_of_y(y: float, N: int) -> float:
    """s(y) = Re(Lambda(y)/(1+iy)) - pi^2 N / 12; zero exactly at y = 0.

    Near 0 it behaves like N(log(2)^2 - pi^2/12) y^2 (a negative multiple of
    y^2), and it stays strictly negative for every y != 0.
    """
    u = complex(1.0, y)
    return (lambda_y(y, N) / u).real - math.pi * math.pi * N / 12.0


# ---------------------------------------------------------------------------
# Euler-Maclaurin along a ray
# ---------------------------------------------------------------------------


class EmfReport(_Record):
    """Itemized two-sided accounting of the Euler-Maclaurin identity.

    sum_value = integral_term + boundary_term + sum(correction_terms) + residual
    holds by construction: residual is defined as the difference.
    """

    __slots__ = ("sum_value", "integral_term", "boundary_term", "correction_terms", "residual")
    sum_value: complex
    integral_term: complex
    boundary_term: complex
    correction_terms: list[complex]
    residual: complex


def euler_maclaurin(
    f: Callable[[complex], complex],
    z: complex,
    R: int,
    derivative: Callable[[int, complex], complex],
) -> EmfReport:
    """Evaluate sum_{n>=0} f(nz) against its Euler-Maclaurin expansion.

        sum_{n>=0} f(nz) = (1/z) Int_0^{inf*z} f(t) dt + f(0)/2
                           - sum_{r=1}^{R} B_{2r}/(2r)! z^{2r-1} f^{(2r-1)}(0)
                           + residual.

    f (and its derivatives) must decay rapidly along the ray; growth of the
    summand, or a NaN or infinite term, is detected and aborts.
    `derivative(order, x)` is the exact order-th derivative of f at x.
    """
    if R < 0:
        raise ValueError("R must be >= 0")
    z = complex(z)
    if z == 0:
        raise ValueError("ray direction z must be nonzero")

    # --- direct summation, truncated when terms stay below 1e-18 ---
    total = 0.0 + 0.0j
    tiny_run = 0
    growth_run = 0
    prev_mag = math.inf
    nn = 0
    while True:
        term = complex(f(nn * z))
        total += term
        mag = abs(term)
        if not math.isfinite(mag):
            raise ArithmeticError(f"summand is not finite at n = {nn}: {term!r}")
        if mag < 1e-18:
            tiny_run += 1
            if tiny_run >= 3:
                break
        else:
            tiny_run = 0
        if mag > prev_mag and mag > 1e-12:
            growth_run += 1
            if growth_run >= 12:
                raise ArithmeticError(
                    "summand does not decay along the ray; Euler-Maclaurin "
                    "truncation is meaningless here"
                )
        else:
            growth_run = 0
        prev_mag = mag
        nn += 1
        if nn > 10_000_000:
            raise ArithmeticError("summand decays too slowly to truncate")

    # --- integral along the ray, parameterized t = s z ---
    from .quadrature import integrate_to_infinity  # deferred: off the dist/bias/compare path

    re_part, _ = integrate_to_infinity(lambda s: (f(s * z)).real)
    im_part, _ = integrate_to_infinity(lambda s: (f(s * z)).imag)
    integral = complex(re_part, im_part)  # equals (1/z) * the contour integral

    boundary = complex(f(0j)) / 2.0

    corrections: list[complex] = []
    for r in range(1, R + 1):
        deriv = complex(derivative(2 * r - 1, 0j))
        coeff = float(bernoulli_number(2 * r)) / math.factorial(2 * r)
        corrections.append(-coeff * z ** (2 * r - 1) * deriv)

    residual = total - (integral + boundary + sum(corrections, 0j))
    return EmfReport(total, integral, boundary, corrections, residual)
