"""Special functions for the asymptotic formulas and the verification suite.

Everything here is double precision with stated accuracy targets:

* erfc           -- complementary error function, 1e-12 relative
                    (series for |x| <= 2, Lentz continued fraction beyond,
                    absolute floor 1e-300 in the deep tail);
* Bernoulli      -- exact rational numbers/polynomials up to degree 60;
* polylog        -- Li_s for integer s <= 2 on |w| < 1, 1e-12 relative;
* rogers_L       -- the Rogers dilogarithm on (0, 1);
* lambda_y, s_of_y -- the saddle-direction functions
                    Lambda(y) = N(pi^2/6 - log(2)^2 (1+iy)^2 / 2 - Li_2(2^{-(1+iy)}))
                    and s(y) = Re(Lambda(y)/(1+iy)) - pi^2 N / 12;
* euler_maclaurin -- the infinite-ray Euler-Maclaurin identity with an
                    itemized report of each term and the leftover residual.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from scipy.integrate import quad

__all__ = [
    "erfc",
    "bernoulli_number",
    "bernoulli_poly",
    "polylog",
    "rogers_L",
    "lambda_y",
    "s_of_y",
    "EmfReport",
    "euler_maclaurin",
]

_SQRT_PI = math.sqrt(math.pi)
_PI2_6 = math.pi * math.pi / 6.0
_LOG2 = math.log(2.0)

MAX_BERNOULLI = 60


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
    # Lentz algorithm; rapidly convergent for x > 2.
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for i in range(1, 300):
        a = i / 2.0
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return f


def erfc(x: float) -> float:
    """Complementary error function 2/sqrt(pi) * integral_x^inf e^{-t^2} dt."""
    if math.isnan(x):
        raise ValueError("erfc requires a finite argument")
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


def _build_bernoulli(limit: int) -> list[Fraction]:
    # B_0 = 1 and, from the generating function t e^{xt}/(e^t - 1),
    # B_r = -1/(r+1) * sum_{k<r} C(r+1, k) B_k.  This convention gives
    # B_1 = -1/2.
    table = [Fraction(1)]
    for r in range(1, limit + 1):
        acc = Fraction(0)
        for k in range(r):
            acc += math.comb(r + 1, k) * table[k]
        table.append(-acc / (r + 1))
    return table


_BERNOULLI: list[Fraction] = _build_bernoulli(MAX_BERNOULLI)


def bernoulli_number(r: int) -> Fraction:
    """B_r as an exact rational; r <= 60 (table exhaustion raises)."""
    if r < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if r > MAX_BERNOULLI:
        raise ValueError(f"Bernoulli coefficient table ends at r = {MAX_BERNOULLI}")
    return _BERNOULLI[r]


def bernoulli_poly(
    r: int, x: Union[int, float, Fraction]
) -> Union[float, Fraction]:
    """B_r(x) = sum_k C(r,k) B_k x^{r-k}; exact Fraction for int/Fraction x."""
    if r < 0:
        raise ValueError("Bernoulli degree must be >= 0")
    if r > MAX_BERNOULLI:
        raise ValueError(f"Bernoulli coefficient table ends at r = {MAX_BERNOULLI}")
    rational = isinstance(x, (int, Fraction))
    acc: Union[float, Fraction] = Fraction(0) if rational else 0.0
    for k in range(r + 1):
        coef = math.comb(r, k) * _BERNOULLI[k]
        power = x ** (r - k) if r != k else 1
        if rational:
            acc += coef * power
        else:
            acc += float(coef) * power
    return acc


# ---------------------------------------------------------------------------
# polylogarithms
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


def _li_negative(k: int, w: complex) -> complex:
    # Li_{-k}(w) = P_k(w) / (1-w)^{k+1} with integer-coefficient polynomials
    # P_0 = w and P_k = w((1-w) P'_{k-1} + k P_{k-1})  (apply w d/dw k times
    # to w/(1-w)).
    coeffs = [0, 1]  # P_0(w) = w, as coefficients of w^i
    for j in range(1, k + 1):
        deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
        inner = [0] * (len(deriv) + 1)
        for i, c in enumerate(deriv):
            inner[i] += c  # P'
            inner[i + 1] -= c  # minus w P'
        for i, c in enumerate(coeffs):
            inner[i] += j * c  # plus j P  (same degree as (1-w)P')
        coeffs = [0] + inner  # times w
    poly = 0.0 + 0.0j
    for c in reversed(coeffs):
        poly = poly * w + c
    return poly / (1.0 - w) ** (k + 1)


def polylog(s: int, w: complex) -> complex:
    """Li_s(w) = sum_{n>=1} w^n / n^s for integer s <= 2 and |w| < 1.

    Li_2 uses the defining series for |w| <= 1/2 and the log-singularity
    expansion on 1/2 < |w| <= 1 - 1e-9; Li_1 and below use closed forms.
    """
    if s > 2:
        raise ValueError("only s <= 2 is supported")
    w = complex(w)
    if abs(w) > 1.0 - 1e-9:
        raise ValueError("polylog requires |w| <= 1 - 1e-9")
    if s == 2:
        if abs(w) <= 0.5:
            return _li2_series(w)
        return _li2_log_expansion(w)
    if s == 1:
        return -cmath.log(1.0 - w)
    if s == 0:
        return w / (1.0 - w)
    return _li_negative(-s, w)


def rogers_L(w: float) -> float:
    """Rogers dilogarithm L(w) = Li_2(w) + (1/2) log(w) log(1-w) - pi^2/6 on (0,1)."""
    if not 0.0 < w < 1.0:
        raise ValueError("rogers_L requires 0 < w < 1")
    li2 = polylog(2, complex(w)).real
    return li2 + 0.5 * math.log(w) * math.log1p(-w) - _PI2_6


# ---------------------------------------------------------------------------
# Lambda(y) and s(y)
# ---------------------------------------------------------------------------


def lambda_y(y: float, N: int) -> complex:
    """Lambda(y) = N(pi^2/6 - log(2)^2 (1+iy)^2/2 - Li_2(2^{-(1+iy)})).

    The polylog argument has modulus exactly 1/2, so the direct series path is
    always taken.  At y = 0 the dilogarithm identity Li_2(1/2) =
    pi^2/12 - log(2)^2/2 collapses the bracket to pi^2/12, i.e.
    Lambda(0) = N pi^2 / 12.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    u = complex(1.0, y)
    w = cmath.exp(-u * _LOG2)  # 2^{-(1+iy)}
    return N * (_PI2_6 - _LOG2 * _LOG2 * u * u / 2.0 - polylog(2, w))


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


@dataclass
class EmfReport:
    """Itemized two-sided accounting of the Euler-Maclaurin identity.

    sum_value = integral_term + boundary_term + sum(correction_terms) + residual
    holds by construction: residual is defined as the difference.
    """

    sum_value: complex
    integral_term: complex
    boundary_term: complex
    correction_terms: list[complex]
    residual: complex


def _solve_fd_weights(order: int, offsets: Sequence[int]) -> list[Fraction]:
    # Exact finite-difference weights: solve sum_j w_j o_j^p = p! [p == order]
    # for p = 0..len(offsets)-1 (Vandermonde system, Fraction elimination).
    npts = len(offsets)
    rows = [
        [Fraction(o) ** p for o in offsets] + [Fraction(math.factorial(order)) if p == order else Fraction(0)]
        for p in range(npts)
    ]
    for col in range(npts):
        piv = next(r for r in range(col, npts) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(npts):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][npts] for j in range(npts)]


def _central_difference(
    f: Callable[[complex], complex], order: int, x: complex, h: float
) -> complex:
    # symmetric stencil of order+4 points: 4th-order accurate for odd orders
    half = (order + 3) // 2
    offsets = list(range(-half, half + 1))
    weights = _solve_fd_weights(order, offsets)
    acc = 0.0 + 0.0j
    for o, wgt in zip(offsets, weights):
        if wgt:
            acc += float(wgt) * f(x + o * h)
    return acc / h**order


def euler_maclaurin(
    f: Callable[[complex], complex],
    a: complex,
    z: complex,
    R: int,
    derivative: Callable[[int, complex], complex] | None = None,
    h: float | None = None,
) -> EmfReport:
    """Evaluate sum_{n>=0} f(nz + a) against its Euler-Maclaurin expansion.

        sum_{n>=0} f(nz+a) = (1/z) Int_a^{a+inf*z} f(t) dt + f(a)/2
                             - sum_{r=1}^{R} B_{2r}/(2r)! z^{2r-1} f^{(2r-1)}(a)
                             + residual.

    f (and its derivatives) must decay rapidly along the ray; growth of the
    summand is detected and aborts.  `derivative(order, x)` supplies exact
    derivatives; without it, 4th-order central differences with step
    h = 1e-4 * |z| are used -- fine for the low orders, noise-limited beyond
    order ~3, which is why the verification profiles pass exact derivatives.
    """
    if R < 0:
        raise ValueError("R must be >= 0")
    a = complex(a)
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
        term = complex(f(a + nn * z))
        total += term
        mag = abs(term)
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

    # --- integral along the ray, parameterized t = a + s z ---
    re_part, _ = quad(
        lambda s: (f(a + s * z)).real, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    im_part, _ = quad(
        lambda s: (f(a + s * z)).imag, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    integral = complex(re_part, im_part)  # equals (1/z) * the contour integral

    boundary = complex(f(a)) / 2.0

    if h is None:
        h = 1e-4 * abs(z)
    corrections: list[complex] = []
    for r in range(1, R + 1):
        order = 2 * r - 1
        if derivative is not None:
            deriv = complex(derivative(order, a))
        else:
            deriv = _central_difference(f, order, a, h)
        coeff = float(bernoulli_number(2 * r)) / math.factorial(2 * r)
        corrections.append(-coeff * z ** (2 * r - 1) * deriv)

    residual = total - (integral + boundary + sum(corrections, 0j))
    return EmfReport(total, integral, boundary, corrections, residual)
