"""Closed-form asymptotics for parity-difference counts, and their bookkeeping.

The tail count with threshold c0 * n^{1/4} grows like e^{pi sqrt(n/3)}, far
beyond double range for interesting n, so every estimate lives in
LogScaledValue form (sign + natural log of the magnitude).

Two equivalent closed forms are implemented:

* estimate_thm1: a sum over residue tuples l in {0..N-1}^N with
  N H(l) == n (mod N).  Each tuple contributes the same erfc main term and a
  second term driven by the boundary fraction partial* of that tuple.
* estimate_thm2: the aggregated two-term form available for N = 2 and
  5 <= N <= 6, with the tuple sum collapsed into the single coefficient
  (beta - alpha + N - 2 N partial).

Both must agree to ~1e-12 relative; the test suite holds them to that.

Also here: Hua's main term for d(n), the bias main term, the expansion
coefficients T_{A,B,r} of the saddle-point contour integral together with a
numeric quadrature of that integral (the oracle for the expansion), and the
closed-form Gaussian tail integrals with their erfc factors.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exact import ParitySpec
from .specialfn import _SQRT_PI, _erfc_cf, erfc

__all__ = [
    "LogScaledValue",
    "EstimateTerms",
    "BoundaryData",
    "ResidueTuple",
    "H_value",
    "nh_value",
    "residue_tuples",
    "l_count_check",
    "n3_class_shift",
    "guarded_ceil",
    "boundary_data",
    "estimate_thm1",
    "estimate_thm2",
    "estimate_hua",
    "estimate_bias",
    "nr_coefficient",
    "nr_contour_integral",
    "gaussian_tail_integrals",
]

# a residue tuple is a plain tuple (l_1, ..., l_N), entries in 0..N-1
ResidueTuple = tuple[int, ...]

_SQRT3 = math.sqrt(3.0)
_Q3 = 3.0**0.25  # 3^{1/4}


# ---------------------------------------------------------------------------
# log-scaled arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogScaledValue:
    """A real number stored as (sign, log|value|); sign 0 means exactly zero.

    Multiplication adds logs; addition is a signed log-sum-exp.  Quantities of
    size e^{pi sqrt(n/3)} stay representable for any n of interest.
    """

    sign: int
    log_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if (self.sign == 0) != (self.log_abs == -math.inf):
            raise ValueError("sign 0 must pair with the -inf log sentinel")

    @classmethod
    def zero(cls) -> "LogScaledValue":
        return cls(0, -math.inf)

    @classmethod
    def from_float(cls, x: float) -> "LogScaledValue":
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_int(cls, x: int) -> "LogScaledValue":
        # math.log of a big int is computed from its bit length and leading
        # bits, so this stays accurate for values far beyond double range
        if x == 0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def times(self, other: "LogScaledValue") -> "LogScaledValue":
        if self.sign == 0 or other.sign == 0:
            return LogScaledValue.zero()
        return LogScaledValue(self.sign * other.sign, self.log_abs + other.log_abs)

    def plus(self, other: "LogScaledValue") -> "LogScaledValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        m = max(self.log_abs, other.log_abs)
        r = self.sign * math.exp(self.log_abs - m) + other.sign * math.exp(
            other.log_abs - m
        )
        if r == 0.0:
            return LogScaledValue.zero()
        return LogScaledValue(1 if r > 0 else -1, m + math.log(abs(r)))

    def scaled(self, factor: float) -> "LogScaledValue":
        if factor == 0.0 or self.sign == 0:
            return LogScaledValue.zero()
        sign = self.sign if factor > 0 else -self.sign
        return LogScaledValue(sign, self.log_abs + math.log(abs(factor)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)

    def ratio_to(self, exact: int) -> float:
        """value / exact for a positive big integer, computed in log space."""
        if exact <= 0:
            raise ValueError("ratio_to needs a positive exact count")
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs - math.log(exact))


@dataclass(frozen=True)
class EstimateTerms:
    """Two-term asymptotic estimate: main, second, and their log-space total.

    per_tuple lists (residue tuple, main, second) for the tuple-sum route;
    closed-form routes leave it empty.
    """

    main: LogScaledValue
    second: LogScaledValue
    total: LogScaledValue
    per_tuple: list[tuple[ResidueTuple, LogScaledValue, LogScaledValue]]


@dataclass(frozen=True)
class BoundaryData:
    """Boundary-fraction bookkeeping for the threshold c0 * n^{1/4}.

    partial      is ceil(c0 n^{1/4}) - c0 n^{1/4} in [0, 1);
    partial_star is partial + [l_alpha - l_beta - ceil(c0 n^{1/4})]_N;
    kappa        is the smallest integer >= the threshold that is congruent to
                 l_alpha - l_beta (mod N);  kappa = c0 n^{1/4} + partial_star.
    """

    partial: float
    partial_star: float
    kappa: int
    ceil_c: int


# ---------------------------------------------------------------------------
# residue-tuple combinatorics
# ---------------------------------------------------------------------------


def nh_value(m: Sequence[int], N: int) -> int:
    """N * H(m) as an exact integer: sum_j [N m_j (m_j - 1)/2 + j m_j]."""
    total = 0
    for j, mj in enumerate(m, start=1):
        total += N * (mj * (mj - 1) // 2) + j * mj
    return total


def H_value(m: Sequence[int], N: int) -> Fraction:
    """H(m) = (1/2) m.m + b.m with b_j = j/N - 1/2, as an exact rational."""
    if len(m) != N:
        raise ValueError("m must have length N")
    acc = Fraction(0)
    for j, mj in enumerate(m, start=1):
        acc += Fraction(mj * mj, 2) + (Fraction(j, N) - Fraction(1, 2)) * mj
    return acc


def residue_tuples(n: int, N: int) -> list[ResidueTuple]:
    """All l in {0..N-1}^N with N H(l) == n (mod N); always N^{N-1} of them."""
    if not 2 <= N <= 6:
        raise ValueError("residue-tuple enumeration supports 2 <= N <= 6")
    target = n % N
    return [
        l for l in itertools.product(range(N), repeat=N) if nh_value(l, N) % N == target
    ]


@lru_cache(maxsize=None)
def _free_position_distribution(N: int, alpha: int, beta: int) -> tuple[int, ...]:
    # dist[rho] = number of assignments of the N-2 positions other than
    # alpha, beta whose summed contribution to N*H is == rho (mod N)
    free = [j for j in range(1, N + 1) if j not in (alpha, beta)]
    dist = [0] * N
    for combo in itertools.product(range(N), repeat=len(free)):
        rho = 0
        for j, v in zip(free, combo):
            rho += N * (v * (v - 1) // 2) + j * v
        dist[rho % N] += 1
    return tuple(dist)


def l_count_check(
    N: int, alpha: int, beta: int, r: int, l_alpha: int, l_beta: int
) -> int:
    """Count tuples with fixed (l_alpha, l_beta) entries and N H(l) == r (mod N).

    Enumerates the N-2 free coordinates (cached per (N, alpha, beta)); the
    answer is N^{N-3} for every argument combination, which the test suite
    verifies exhaustively.
    """
    if N not in (5, 6):
        raise ValueError("the closed tuple count applies to N in {5, 6}")
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    if not (0 <= l_alpha < N and 0 <= l_beta < N):
        raise ValueError("fixed entries must lie in 0..N-1")
    dist = _free_position_distribution(N, alpha, beta)
    fixed = (
        N * (l_alpha * (l_alpha - 1) // 2)
        + alpha * l_alpha
        + N * (l_beta * (l_beta - 1) // 2)
        + beta * l_beta
    )
    return dist[(r - fixed) % N]


def n3_class_shift(r: int, s: int) -> int:
    """The common shift [l_1 - l_2 - m]_3 over admissible tuples for N = 3.

    For N = 3 and classes (1, 2), every tuple with 3 H(l) == r (mod 3) has
    l_1 - l_2 == r (mod 3), so the second-term shift depends only on
    (r, s) = (n mod 3, ceil(threshold) mod 3) and the 3x3 table collapses to
    (r - s) mod 3.  Derived here by enumeration; raises if the collapse ever
    fails to hold.
    """
    if not (0 <= r < 3 and 0 <= s < 3):
        raise ValueError("r and s must lie in 0..2")
    shifts = {(l[0] - l[1] - s) % 3 for l in residue_tuples(r, 3)}
    if len(shifts) != 1:
        raise ArithmeticError(
            "admissible tuples for N=3 do not share a single class shift"
        )
    return shifts.pop()


# ---------------------------------------------------------------------------
# boundary bookkeeping
# ---------------------------------------------------------------------------


def guarded_ceil(t: float) -> tuple[int, float]:
    """(ceil(t), ceil(t) - t) with a near-integer snap.

    When t is within 1e-9 of an integer the ceiling is taken as that integer
    and the fractional part as exactly 0: the boundary fraction is
    discontinuous at integers and float noise (say 2401^{1/4} = 7 + 1ulp) must
    not flip the branch.
    """
    r = round(t)
    if abs(t - r) < 1e-9:
        return int(r), 0.0
    c = math.ceil(t)
    return int(c), c - t


def boundary_data(
    c0: float, n: int, l: ResidueTuple, spec: ParitySpec
) -> BoundaryData:
    """partial, partial*, kappa and the threshold ceiling for one residue tuple.

    kappa is found by integer search upward from ceil(c0 n^{1/4}) for the
    congruence kappa == l_alpha - l_beta (mod N), then cross-checked against
    the closed form kappa = c0 n^{1/4} + partial*.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = spec.N
    t = c0 * n**0.25
    ceil_c, partial = guarded_ceil(t)
    la = l[spec.alpha - 1]
    lb = l[spec.beta - 1]
    delta = (la - lb - ceil_c) % N
    kappa = ceil_c
    while (kappa - (la - lb)) % N != 0:
        kappa += 1
    partial_star = partial + delta
    if abs(kappa - (t + partial_star)) > 1e-9:
        raise ArithmeticError(
            "kappa search disagrees with the closed form c0 n^{1/4} + partial*"
        )
    return BoundaryData(partial, partial_star, kappa, ceil_c)


# ---------------------------------------------------------------------------
# two-term estimates
# ---------------------------------------------------------------------------


def _log_prefactor(n: int) -> float:
    # the shared scale e^{pi sqrt(n/3)} n^{-3/4}
    return math.pi * math.sqrt(n / 3.0) - 0.75 * math.log(n)


def _log_erfc(x: float) -> float:
    # log erfc(x).  Past x ~ 26.6 erfc underflows to 0 although its log is
    # finite, so there it is taken in log form from erfc(x) =
    # e^{-x^2} / (sqrt(pi) f(x)), f the continued fraction; -inf only once
    # x^2 overflows
    val = erfc(x)
    if val > 0.0:
        return math.log(val)
    log_val = -x * x
    if log_val == -math.inf:
        return log_val
    return log_val - math.log(_SQRT_PI * _erfc_cf(x))


def _log_scaled(sign: int, log_abs: float) -> LogScaledValue:
    # a term whose log magnitude underflowed to -inf is exactly zero here
    if log_abs == -math.inf:
        return LogScaledValue.zero()
    return LogScaledValue(sign, log_abs)


def _second_term(
    n: int, N: int, beta_minus_alpha: int, partial_star: float, c0: float
) -> LogScaledValue:
    # e^{-c0^2 pi N/(4 sqrt 3)} (N^2 - 2 partial* N + (beta-alpha))
    #   / (16 sqrt 3 N^{N-1/2}) * n^{-1/4}, times the shared prefactor
    coef = N * N - 2.0 * partial_star * N + beta_minus_alpha
    if coef == 0.0:
        return LogScaledValue.zero()
    log_mag = (
        -c0 * c0 * math.pi * N / (4.0 * _SQRT3)
        + math.log(abs(coef))
        - math.log(16.0 * _SQRT3)
        - (N - 0.5) * math.log(N)
        - 0.25 * math.log(n)
        + _log_prefactor(n)
    )
    return _log_scaled(1 if coef > 0 else -1, log_mag)


def estimate_thm1(
    n: int, spec: ParitySpec, c0: float, fast: bool = False
) -> EstimateTerms:
    """Two-term estimate as the sum over admissible residue tuples.

    Every tuple carries the same main term
    erfc(c0 sqrt(pi N)/(2 * 3^{1/4})) / (8 * 3^{1/4} N^{N-1}) and a second
    term that depends on the tuple only through its boundary fraction
    partial*.  Tuples are therefore grouped by delta = [l_a - l_b - ceil]_N
    (the grouping is lossless) so the total uses a handful of stable additions
    instead of up to 6^5 repeated log-sum-exps.

    fast=True (N >= 5 only) skips enumeration: each delta class is known to
    hold exactly N^{N-2} tuples, so the totals are identical but per_tuple is
    left empty.
    """
    N = spec.N
    if not 2 <= N <= 6:
        raise ValueError("estimates support 2 <= N <= 6")
    if n < 1:
        raise ValueError("n must be >= 1")
    bma = spec.beta - spec.alpha
    log_pref = _log_prefactor(n)

    log_erfc = _log_erfc(c0 * math.sqrt(math.pi * N) / (2.0 * _Q3))
    log_main_per_tuple = (
        log_erfc - math.log(8.0 * _Q3) - (N - 1) * math.log(N) + log_pref
    )

    t = c0 * n**0.25
    ceil_c, partial = guarded_ceil(t)

    if fast:
        if N < 5:
            raise ValueError("the closed tuple count shortcut needs N >= 5")
        delta_counts: dict[int, int] = {d: N ** (N - 2) for d in range(N)}
        per_tuple: list[tuple[ResidueTuple, LogScaledValue, LogScaledValue]] = []
        tuple_count = N ** (N - 1)
    else:
        tuples = residue_tuples(n, N)
        tuple_count = len(tuples)
        deltas = [
            (l[spec.alpha - 1] - l[spec.beta - 1] - ceil_c) % N for l in tuples
        ]
        delta_counts = dict(sorted(Counter(deltas).items()))
        main_per_tuple = _log_scaled(1, log_main_per_tuple)
        per_tuple = [
            (l, main_per_tuple, _second_term(n, N, bma, partial + d, c0))
            for l, d in zip(tuples, deltas)
        ]

    main_total = _log_scaled(1, log_main_per_tuple + math.log(tuple_count))
    second_total = LogScaledValue.zero()
    for d in sorted(delta_counts):
        cnt = delta_counts[d]
        term = _second_term(n, N, bma, partial + d, c0)
        second_total = second_total.plus(term.scaled(float(cnt)))
    return EstimateTerms(
        main_total, second_total, main_total.plus(second_total), per_tuple
    )


def estimate_thm2(n: int, spec: ParitySpec, c0: float) -> EstimateTerms:
    """Aggregated two-term estimate, valid for N = 2 and 5 <= N <= 6.

    main   = erfc(c0 sqrt(pi N)/(2*3^{1/4})) / (8*3^{1/4}) * e^{pi sqrt(n/3)} n^{-3/4}
    second = e^{-c0^2 pi N/(4 sqrt 3)} (beta - alpha + N - 2 N partial)
             / (16 sqrt(3N)) * n^{-1/4}   times the same prefactor.

    Matches the tuple-sum route to ~1e-12 relative wherever both apply.
    """
    N = spec.N
    if N not in (2, 5, 6):
        raise ValueError("the aggregated form needs N = 2 or 5 <= N <= 6")
    if n < 1:
        raise ValueError("n must be >= 1")
    log_pref = _log_prefactor(n)
    log_erfc = _log_erfc(c0 * math.sqrt(math.pi * N) / (2.0 * _Q3))
    main = _log_scaled(1, log_erfc - math.log(8.0 * _Q3) + log_pref)

    _, partial = guarded_ceil(c0 * n**0.25)
    coef = (spec.beta - spec.alpha) + N - 2.0 * N * partial
    if coef == 0.0:
        second = LogScaledValue.zero()
    else:
        log_mag = (
            -c0 * c0 * math.pi * N / (4.0 * _SQRT3)
            + math.log(abs(coef))
            - math.log(16.0 * math.sqrt(3.0 * N))
            - 0.25 * math.log(n)
            + log_pref
        )
        second = _log_scaled(1 if coef > 0 else -1, log_mag)
    return EstimateTerms(main, second, main.plus(second), [])


def estimate_hua(n: int) -> LogScaledValue:
    """Main term of the count of all distinct-part partitions:
    d(n) ~ e^{pi sqrt(n/3)} / (4 * 3^{1/4} n^{3/4})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LogScaledValue(1, _log_prefactor(n) - math.log(4.0 * _Q3))


def estimate_bias(n: int, spec: ParitySpec) -> LogScaledValue:
    """Main term of the zero-threshold bias
    (count with pd >= 0, alpha-beta order) - (same, beta-alpha order):
    e^{pi sqrt(n/3)} n^{-1} (beta - alpha) / (8 sqrt(3 N))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bma = spec.beta - spec.alpha
    log_mag = (
        math.pi * math.sqrt(n / 3.0)
        - math.log(n)
        + math.log(abs(bma))
        - math.log(8.0 * math.sqrt(3.0 * spec.N))
    )
    return LogScaledValue(1 if bma > 0 else -1, log_mag)


# ---------------------------------------------------------------------------
# saddle-point expansion coefficients and their quadrature oracle
# ---------------------------------------------------------------------------


def _recip_gamma(x: float) -> float:
    # 1/Gamma(x); exactly 0 at the poles x = 0, -1, -2, ...
    if x > 0:
        return 1.0 / math.gamma(x)
    if abs(x - round(x)) < 1e-12:
        return 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def nr_coefficient(A: float, B: float, r: int) -> float:
    """T_{A,B,r} = (-4B)^{-r} B^{A+1/2} Gamma(A+r+3/2) / (2 sqrt(pi) r! Gamma(A-r+3/2)).

    When A - r + 3/2 hits a non-positive integer the reciprocal gamma factor
    vanishes and the coefficient is exactly 0 (for A = 1/2 this kills every
    r >= 2, so the expansion terminates).
    """
    if A < 0:
        raise ValueError("A must be >= 0")
    if B <= 0:
        raise ValueError("B must be > 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    sign = -1.0 if r % 2 else 1.0
    return (
        sign
        * (4.0 * B) ** (-r)
        * B ** (A + 0.5)
        * math.gamma(A + r + 1.5)
        * _recip_gamma(A - r + 1.5)
        / (2.0 * math.sqrt(math.pi) * math.factorial(r))
    )


def nr_contour_integral(
    A: float, B: float, n: int, theta: float = 1.0, mesh: int = 4000
) -> complex:
    """Rescaled saddle-point contour integral, the oracle for the T expansion.

    Evaluates (1/2 pi i) Int z^A e^{B^2/z + n z} dz over z = eta(1 + iy),
    |y| <= theta, eta = B/sqrt(n), by composite trapezoid at mesh and 2*mesh
    subintervals with Richardson extrapolation (4 T2 - T1)/3; halving-step
    disagreement above 1e-6 raises.  The exponent is recentred by -2 B sqrt(n)
    and the result multiplied by n^{(2A+3)/4}, so it is O(1) and directly
    comparable to sum_r T_{A,B,r} n^{-r/2}.
    """
    if mesh < 1000:
        raise ValueError("mesh must be >= 1000")
    if not 0.0 < theta < math.pi * math.sqrt(n) / B:
        raise ValueError("theta must lie in (0, pi sqrt(n)/B)")
    eta = B / math.sqrt(n)
    two_b_sqrt_n = 2.0 * B * math.sqrt(n)

    def trap(points: int) -> complex:
        y = np.linspace(-theta, theta, points)
        z = eta * (1.0 + 1j * y)
        w = B * B / z + n * z - two_b_sqrt_n
        g = np.exp(w + A * np.log(z)) * (eta / (2.0 * math.pi))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return complex(trapezoid(g, y))

    t1 = trap(mesh + 1)
    t2 = trap(2 * mesh + 1)
    if abs(t2 - t1) > 1e-6:
        raise ArithmeticError(
            f"contour quadrature not converged: |T2-T1| = {abs(t2 - t1):.3e}"
        )
    value = (4.0 * t2 - t1) / 3.0
    return value * n ** ((2.0 * A + 3.0) / 4.0)


def gaussian_tail_integrals(
    kappa_scaled: float, N: int, spec: ParitySpec
) -> tuple[float, float]:
    """The two closed-form Gaussian tail integrals over {u : u_a - u_b >= t}.

    With t = kappa_scaled:
      constant weight:  Int e^{-|u|^2} du           = pi^{N/2}/2 * erfc(t/sqrt 2)
      cubic weight:     Int C1(u) e^{-|u|^2} du     = e^{-t^2/2} (beta-alpha)
                                                       pi^{(N-1)/2} / (2 sqrt 2 N)
    where C1(u) = sum_j (-j u_j / N + u_j^3 / 3).  Rotating to
    (u_a +- u_b)/sqrt 2 kills every odd factor except the (beta - alpha) v
    term, which integrates to e^{-t^2/2}/2.
    """
    if spec.N != N:
        raise ValueError("N must match spec.N")
    t = kappa_scaled
    c0_val = math.pi ** (N / 2.0) / 2.0 * erfc(t / math.sqrt(2.0))
    c1_val = (
        math.exp(-t * t / 2.0)
        * (spec.beta - spec.alpha)
        * math.pi ** ((N - 1) / 2.0)
        / (2.0 * math.sqrt(2.0) * N)
    )
    return c0_val, c1_val
