"""Closed-form asymptotics for parity-difference counts, and their bookkeeping.

The tail count with threshold c0 * n^{1/4} grows like e^{pi sqrt(n/3)}, far
beyond double range for interesting n, so every estimate lives in
LogScaledValue form (sign + natural log of the magnitude).

Two equivalent closed forms are implemented, and they share their terms:
one main-term and one second-term function serve both.

* estimate_thm1: a sum over residue tuples l in {0..N-1}^N with
  N H(l) == n (mod N).  The N^{N-1} tuples split the main term evenly, and
  each carries a second term driven by its boundary fraction partial*, which
  depends on the tuple only through its delta class [l_alpha - l_beta -
  ceil]_N; the tuples are counted per class, not enumerated.
* estimate_thm2: the aggregated two-term form, with the tuple sum collapsed
  into the single coefficient (beta - alpha + N - 2 N partial).  It holds for
  every class pair of span 1 (exact.lattice_span), at any N: there each delta
  class holds N^{N-2} of the admissible tuples, so the tuple sum averages
  delta to (N - 1)/2.  On the lattice pairs (3, {1, 2}) and (4, {1, 3}) the
  tuples crowd into N/h classes, and estimate_thm2 raises.

Their main terms are equal bit for bit.  Each takes the log of a single
coefficient, so their second terms agree to a few ulps.

Also here: Hua's main term for d(n), the bias main term, the expansion
coefficients T_{A,B,r} of the saddle-point contour integral together with a
numeric quadrature of that integral (the oracle for the expansion), and the
closed-form Gaussian tail integrals with their erfc factors.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .exact import ParitySpec, _finite_ceil, _Record, _require_span_one
from .specialfn import _Q3, _SQRT3, _SQRT_PI, _erfc_cf, _pi_n, erfc

if TYPE_CHECKING:
    from fractions import Fraction

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


# ---------------------------------------------------------------------------
# log-scaled arithmetic
# ---------------------------------------------------------------------------


class LogScaledValue(_Record):
    """A real number stored as (sign, log|value|); sign 0 means exactly zero.

    Multiplication adds logs; addition is a signed log-sum-exp.  Quantities of
    size e^{pi sqrt(n/3)} stay representable for any n of interest.
    """

    __slots__ = ("sign", "log_abs")
    sign: int
    log_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if math.isnan(self.log_abs):
            raise ValueError("log_abs must not be NaN")
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

    # math.log of a big int is computed from its bit length and leading bits,
    # so the same body stays accurate for ints far beyond double range
    from_int = from_float

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


class EstimateTerms(_Record):
    """Two-term asymptotic estimate: main, second, and their log-space total."""

    __slots__ = ("main", "second", "total")
    main: LogScaledValue
    second: LogScaledValue
    total: LogScaledValue


class BoundaryData(_Record):
    """Boundary-fraction bookkeeping for the threshold c0 * n^{1/4}.

    partial      is ceil(c0 n^{1/4}) - c0 n^{1/4} in [0, 1);
    partial_star is partial + [l_alpha - l_beta - ceil(c0 n^{1/4})]_N;
    kappa        is the smallest integer >= the threshold that is congruent to
                 l_alpha - l_beta (mod N);  kappa = c0 n^{1/4} + partial_star.
    """

    __slots__ = ("partial", "partial_star", "kappa", "ceil_c")
    partial: float
    partial_star: float
    kappa: int
    ceil_c: int


# ---------------------------------------------------------------------------
# residue-tuple combinatorics
# ---------------------------------------------------------------------------


def _nh_term(N: int, j: int, mj: int) -> int:
    # position j's share of N H(m): N m_j (m_j - 1)/2 + j m_j
    return N * (mj * (mj - 1) // 2) + j * mj


def nh_value(m: Sequence[int], N: int) -> int:
    """N * H(m) as an exact integer: sum_j [N m_j (m_j - 1)/2 + j m_j]."""
    return sum(_nh_term(N, j, mj) for j, mj in enumerate(m, start=1))


def H_value(m: Sequence[int], N: int) -> Fraction:
    """H(m) = (1/2) m.m + b.m with b_j = j/N - 1/2, as an exact rational."""
    from fractions import Fraction

    if len(m) != N:
        raise ValueError("m must have length N")
    return Fraction(nh_value(m, N), N)


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
        dist[sum(_nh_term(N, j, v) for j, v in zip(free, combo)) % N] += 1
    return tuple(dist)


def _delta_class_counts(N: int, alpha: int, beta: int, r: int, s: int) -> list[int]:
    """counts[delta]: the tuples l with N H(l) == r (mod N) and
    [l_alpha - l_beta - s]_N = delta.

    Each of the N^2 choices of (l_alpha, l_beta) fixes delta, and the free
    positions complete it to dist[(r - fixed) mod N] admissible tuples (see
    _free_position_distribution), so no tuple is enumerated.
    """
    dist = _free_position_distribution(N, alpha, beta)
    counts = [0] * N
    for la, lb in itertools.product(range(N), repeat=2):
        fixed = _nh_term(N, alpha, la) + _nh_term(N, beta, lb)
        counts[(la - lb - s) % N] += dist[(r - fixed) % N]
    return counts


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
    fixed = _nh_term(N, alpha, l_alpha) + _nh_term(N, beta, l_beta)
    return dist[(r - fixed) % N]


def n3_class_shift(r: int, s: int) -> int:
    """The common shift [l_1 - l_2 - m]_3 over admissible tuples for N = 3.

    For N = 3 and classes (1, 2), every tuple with 3 H(l) == r (mod 3) has
    l_1 - l_2 == r (mod 3), so the second-term shift depends only on
    (r, s) = (n mod 3, ceil(threshold) mod 3) and the 3x3 table collapses to
    (r - s) mod 3.  Read off the delta class counts of estimate_thm1; raises
    if the collapse ever fails to hold.
    """
    if not (0 <= r < 3 and 0 <= s < 3):
        raise ValueError("r and s must lie in 0..2")
    shifts = [d for d, count in enumerate(_delta_class_counts(3, 1, 2, r, s)) if count]
    if len(shifts) != 1:
        raise ArithmeticError(
            "admissible tuples for N=3 do not share a single class shift"
        )
    return shifts[0]


# ---------------------------------------------------------------------------
# boundary bookkeeping
# ---------------------------------------------------------------------------


def guarded_ceil(t: float) -> tuple[int, float]:
    """(ceil(t), ceil(t) - t) with a near-integer snap.

    When t is within 1e-9 of an integer the ceiling is taken as that integer
    and the fractional part as exactly 0: the boundary fraction is
    discontinuous at integers and float noise (say 2401^{1/4} = 7 + 1ulp) must
    not flip the branch.  An infinite or NaN t raises ValueError.
    """
    c = _finite_ceil(t)
    r = round(t)
    if abs(t - r) < 1e-9:
        return int(r), 0.0
    return c, c - t


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
    if len(l) != N:
        raise ValueError("l must have length N")
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


def _main_term(n: int, N: int, c0: float) -> LogScaledValue:
    # erfc(c0 sqrt(pi N)/(2 * 3^{1/4})) / (8 * 3^{1/4}), times the shared prefactor
    log_erfc = _log_erfc(c0 * math.sqrt(math.pi * N) / (2.0 * _Q3))
    return _log_scaled(1, log_erfc - math.log(8.0 * _Q3) + _log_prefactor(n))


def _second_term(n: int, N: int, c0: float, coef: float, log_den: float) -> LogScaledValue:
    # e^{-c0^2 pi N/(4 sqrt 3)} coef / e^{log_den} * n^{-1/4}, times the shared
    # prefactor; a zero coef gives an exact zero
    if coef == 0.0:
        return LogScaledValue.zero()
    log_mag = (
        -c0 * c0 * math.pi * N / (4.0 * _SQRT3)
        + math.log(abs(coef))
        - log_den
        - 0.25 * math.log(n)
        + _log_prefactor(n)
    )
    return _log_scaled(1 if coef > 0 else -1, log_mag)


def estimate_thm1(n: int, spec: ParitySpec, c0: float) -> EstimateTerms:
    """Two-term estimate as the sum over admissible residue tuples.

    The N^{N-1} admissible tuples (sum_delta counts[delta] = N^{N-1}) each
    carry 1/N^{N-1} of the main term, so their sum is estimate_thm2's main
    term.  Each tuple's second term
    e^{-c0^2 pi N/(4 sqrt 3)} (N^2 - 2 partial* N + (beta-alpha))
    / (16 sqrt 3 N^{N-1/2}) * n^{-1/4}, times the shared prefactor, depends on
    the tuple only through its boundary fraction partial*, so through
    delta = [l_a - l_b - ceil]_N alone, and it is linear in its coefficient.
    So the sum weighs each class's coefficient by the number of tuples in the
    class (see _delta_class_counts) and takes one second term of the sum; no
    tuple is enumerated.
    """
    N = spec.N
    if not 2 <= N <= 6:
        raise ValueError("estimates support 2 <= N <= 6")
    if n < 1:
        raise ValueError("n must be >= 1")
    ceil_c, partial = guarded_ceil(c0 * n**0.25)
    main = _main_term(n, N, c0)
    counts = _delta_class_counts(N, spec.alpha, spec.beta, n % N, ceil_c % N)
    log_den = math.log(16.0 * _SQRT3) + (N - 0.5) * math.log(N)
    coef = sum(
        count * (N * N - 2.0 * (partial + d) * N + (spec.beta - spec.alpha))
        for d, count in enumerate(counts)
    )
    second = _second_term(n, N, c0, coef, log_den)
    return EstimateTerms(main, second, main.plus(second))


def estimate_thm2(n: int, spec: ParitySpec, c0: float) -> EstimateTerms:
    """Aggregated two-term estimate, valid for every class pair of span 1.

    main   = erfc(c0 sqrt(pi N)/(2*3^{1/4})) / (8*3^{1/4}) * e^{pi sqrt(n/3)} n^{-3/4}
    second = e^{-c0^2 pi N/(4 sqrt 3)} (beta - alpha + N - 2 N partial)
             / (16 sqrt(3N)) * n^{-1/4}   times the same prefactor.

    Why span 1: position j adds N v(v-1)/2 + j v == j v (mod N) to N H(l).
    Fixing delta = [l_a - l_b - s]_N sets l_a = l_b + delta + s, and the
    congruence N H(l) == n then reads (alpha + beta) l_b + sum_free j l_j ==
    n - alpha (delta + s) (mod N).  Its left side is uniform on Z_N exactly
    when gcd(N, alpha + beta, free j) = 1, which is lattice_span(spec) = 1;
    then every delta holds N^{N-2} tuples.  At N = 2 there is no free
    position, and alpha + beta = 3 alone makes delta uniform.  A uniform delta
    averages estimate_thm1's coefficient N^2 - 2N(partial + delta) +
    (beta - alpha) to the one above, and N^{N-1} tuples over 16 sqrt 3
    N^{N-1/2} give 1/(16 sqrt(3N)).

    Its main term is estimate_thm1's exactly.  Raises ValueError on a lattice
    pair and on an N whose pi N overflows a float.
    """
    N = spec.N
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_span_one(spec, "the aggregated two-term form")
    _pi_n(N)
    _, partial = guarded_ceil(c0 * n**0.25)
    main = _main_term(n, N, c0)
    coef = (spec.beta - spec.alpha) + N - 2.0 * N * partial
    second = _second_term(n, N, c0, coef, math.log(16.0 * math.sqrt(3.0 * N)))
    return EstimateTerms(main, second, main.plus(second))


def estimate_hua(n: int) -> LogScaledValue:
    """Main term of the count of all distinct-part partitions:
    d(n) ~ e^{pi sqrt(n/3)} / (4 * 3^{1/4} n^{3/4})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LogScaledValue(1, _log_prefactor(n) - math.log(4.0 * _Q3))


def estimate_bias(n: int, spec: ParitySpec) -> LogScaledValue:
    """Main term of the zero-threshold bias
    (count with pd >= 0, alpha-beta order) - (same, beta-alpha order):
    e^{pi sqrt(n/3)} n^{-1} (beta - alpha) / (8 sqrt(3 N)).

    It is the difference of estimate_thm2's two class orders at c0 = 0: the
    main terms cancel and the coefficients (beta - alpha + N) and
    (alpha - beta + N) leave 2 (beta - alpha).

    Raises ValueError on a lattice pair (exact.lattice_span > 1): there pd
    keeps one residue mod h at each weight, so the bias depends on n mod h
    (for N = 3 its sign flips at n == 2 mod 3), which this term does not see.
    Raises ValueError too on an N whose pi N overflows a float."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_span_one(spec, "the bias estimate")
    N = spec.N
    _pi_n(N)
    coef = 2.0 * (spec.beta - spec.alpha)
    return _second_term(n, N, 0.0, coef, math.log(16.0 * math.sqrt(3.0 * N)))


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


def _require_finite(**values: float) -> None:
    """Refuse a NaN or infinite argument with a ValueError that names it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def nr_coefficient(A: float, B: float, r: int) -> float:
    """T_{A,B,r} = (-4B)^{-r} B^{A+1/2} Gamma(A+r+3/2) / (2 sqrt(pi) r! Gamma(A-r+3/2)).

    When A - r + 3/2 hits a non-positive integer the reciprocal gamma factor
    vanishes and the coefficient is exactly 0 (for A = 1/2 this kills every
    r >= 2, so the expansion terminates).  A NaN or infinite A or B raises
    ValueError.
    """
    _require_finite(A=A, B=B)
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


def _pairwise_sum(xs: Sequence[float]) -> float:
    """Sum as numpy sums one component of a complex128 array.

    numpy's pairwise summation: fewer than 4 terms one after another, up to 64
    terms in four accumulators (term i goes to accumulator i mod 4) combined
    as (r0 + r1) + (r2 + r3) with the remainder added after, and beyond 64
    terms a split at (m - m mod 8)/2 and a recursion on both halves.
    """
    m = len(xs)
    if m < 4:
        total = 0.0
        for x in xs:
            total += x
        return total
    if m <= 64:
        r0, r1, r2, r3 = xs[0], xs[1], xs[2], xs[3]
        end = m - m % 4
        for i in range(4, end, 4):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
        total = (r0 + r1) + (r2 + r3)
        for i in range(end, m):
            total += xs[i]
        return total
    half = (m - m % 8) // 2
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


# The contour's one grid: y runs over [-1, 1] in 8000 trapezoid intervals, and
# every second node gives the 4000-interval rule T1.
_NR_INTERVALS = 8000


@lru_cache
def nr_contour_integral(A: float, B: float, n: int) -> complex:
    """Rescaled saddle-point contour integral, the oracle for the T expansion.

    Evaluates (1/2 pi i) Int z^A e^{B^2/z + n z} dz over z = eta(1 + iy),
    |y| <= 1 (theta = 1), eta = B/sqrt(n), by composite trapezoid at 4000
    and 8000 intervals with Richardson extrapolation (4 T2 - T1)/3;
    halving-step disagreement above 1e-6 raises.  The exponent is recentred
    by -2 B sqrt(n) and the result multiplied by n^{(2A+3)/4}, so it is O(1)
    and directly comparable to sum_r T_{A,B,r} n^{-r/2}.

    Every node, trapezoid term and sum is rounded as numpy's linspace, complex
    division, exp and trapezoid round them.  The contour stays inside
    |z| < 1/2 where n > 8 B^2 (n >= 14 for the verify suite's B = pi/sqrt 6);
    there CPython's complex log and the C library's take the same route too,
    and the result equals numpy's bit for bit.  The result depends only on
    the arguments and is cached.  A NaN or infinite A or B raises ValueError.
    """
    _require_finite(A=A, B=B)
    if B <= 0:
        raise ValueError("B must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    # the contour's half-height eta stays below pi
    eta = B / math.sqrt(n)
    if not eta < math.pi:
        raise ValueError("B / sqrt(n) must be < pi")

    two_b_sqrt_n = 2.0 * B * math.sqrt(n)
    b2 = B * B
    scale = eta / (2.0 * math.pi)

    # linspace(-1, 1, 8001); the step halves exactly, so its even nodes are
    # exactly linspace(-1, 1, 4001)
    step = 2.0 / _NR_INTERVALS
    ys = [i * step - 1.0 for i in range(_NR_INTERVALS)]
    ys.append(1.0)
    gs = []
    for y in ys:
        zi = eta * y
        # B^2/z by Smith's rule, as numpy divides complex numbers; |zi| <= eta
        # on this contour, so numpy takes this branch at every node
        rat = zi / eta
        scl = 1.0 / (eta + zi * rat)
        b2_over_z = complex(b2 * scl, -(b2 * rat) * scl)
        z = complex(eta, zi)
        w = b2_over_z + n * z - two_b_sqrt_n
        gs.append(cmath.exp(w + A * cmath.log(z)) * scale)

    def trap(ys: list[float], gs: list[complex]) -> complex:
        re, im = [], []
        for i in range(len(ys) - 1):
            d = ys[i + 1] - ys[i]
            s = gs[i + 1] + gs[i]
            re.append(d * s.real * 0.5)
            im.append(d * s.imag * 0.5)
        return complex(_pairwise_sum(re), _pairwise_sum(im))

    t1 = trap(ys[::2], gs[::2])
    t2 = trap(ys, gs)
    if not abs(t2 - t1) <= 1e-6:
        raise ArithmeticError(
            f"contour quadrature not converged: |T2-T1| = {abs(t2 - t1):.3e}"
        )
    value = (4.0 * t2 - t1) / 3.0
    return value * n ** ((2.0 * A + 3.0) / 4.0)


def gaussian_tail_integrals(kappa_scaled: float, spec: ParitySpec) -> tuple[float, float]:
    """The two closed-form Gaussian tail integrals over {u : u_a - u_b >= t}.

    With t = kappa_scaled:
      constant weight:  Int e^{-|u|^2} du           = pi^{N/2}/2 * erfc(t/sqrt 2)
      cubic weight:     Int C1(u) e^{-|u|^2} du     = e^{-t^2/2} (beta-alpha)
                                                       pi^{(N-1)/2} / (2 sqrt 2 N)
    where C1(u) = sum_j (-j u_j / N + u_j^3 / 3).  Rotating to
    (u_a +- u_b)/sqrt 2 kills every odd factor except the (beta - alpha) v
    term, which integrates to e^{-t^2/2}/2.
    """
    N = spec.N
    t = kappa_scaled
    try:
        pi_half_n = math.pi ** (N / 2.0)
    except OverflowError:  # from N = 1241 on, and for an N too large for a float
        raise ValueError("N is too large: pi^(N/2) overflows a float") from None
    c0_val = pi_half_n / 2.0 * erfc(t / math.sqrt(2.0))
    c1_val = (
        math.exp(-t * t / 2.0)
        * (spec.beta - spec.alpha)
        * math.pi ** ((N - 1) / 2.0)
        / (2.0 * math.sqrt(2.0) * N)
    )
    return c0_val, c1_val
