"""Numeric verification suite for the analytic ingredients.

Each check evaluates one analytic fact on fixed deterministic inputs and
returns a CheckResult verdict; the CLI serializes them as JSON lines.  A
check's grid, weights and ray are module constants (its contour is
nr_contour_integral's own): its only parameters are those default_suite()
varies (N, y_min, A, R) and `bound`.  A check is the only judge of its
verdict: it compares the observed value with its `bound` argument (each
check's default is the bound the suite runs against) and applies any further
condition of its own, which no bound relaxes.  The suite covers:

* s(y) strict negativity off 0, and its quadratic Taylor coefficient;
* the Lambda(0) = N pi^2/12 dilogarithm identity;
* Euler-Maclaurin residuals on rapidly decaying profiles;
* the saddle-point expansion: quadrature minus the R-term sum must decay at
  the n^{-R/2} rate (checked through the residual ratio at n = 400, 1600,
  one-sided within factor 3 -- the omitted constants are unknown, and a
  vanishing leading omitted coefficient legitimately beats the generic rate).

Grids are fixed and logarithmic, never random: re-running a check yields a
bit-identical verdict.  Every check reduces its samples with _worst, which
keeps a NaN, and no comparison holds for NaN: a NaN sample fails its check.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Iterable, Mapping

from .asymptotics import nr_coefficient, nr_contour_integral
from .exact import _Record
from .specialfn import euler_maclaurin, lambda_y, s_of_y

__all__ = [
    "CheckResult",
    "check_sy_negativity",
    "check_sy_taylor",
    "check_nr_expansion",
    "check_emf",
    "check_lambda_identity",
    "default_sy_grid",
    "default_suite",
    "run_suite",
]


class CheckResult(_Record):
    """Machine-readable verdict: passed iff `observed` satisfies the check's
    comparison against `bound` (most checks: observed <= bound; the
    negativity check: observed > bound) and every other condition the check
    sets."""

    __slots__ = ("name", "passed", "observed", "bound", "samples", "notes")
    name: str
    passed: bool
    observed: float
    bound: float
    samples: int
    notes: str

    def to_json_line(self) -> str:
        import json

        return json.dumps(dict(zip(self.__slots__, self._values())))


def _worst(samples: Iterable[float]) -> float:
    """The largest of a check's samples, or NaN if any sample is NaN (the
    builtin max drops a NaN that is not its first argument)."""
    xs = list(samples)
    return math.nan if any(map(math.isnan, xs)) else max(xs)


# ---------------------------------------------------------------------------
# s(y) checks
# ---------------------------------------------------------------------------


def default_sy_grid() -> list[float]:
    """Symmetric fixed logarithmic grid: +-logspace(1e-3, 50, 200).

    The exponents are numpy.linspace's (start + i * step, the last one set to
    the end point exactly).  A few powers can differ by an ulp from those of
    numpy.logspace, whose vectorised pow may round differently; the minima
    check_sy_negativity reports come out the same.
    """
    a, b = math.log10(1e-3), math.log10(50.0)
    step = (b - a) / 199
    g = [10.0 ** (i * step + a) for i in range(199)] + [10.0**b]
    return [-v for v in reversed(g)] + g


def check_sy_negativity(
    N: int, y_min: float | None = None, *, bound: float = 0.0
) -> CheckResult:
    """s(y) < 0 at every y != 0 of default_sy_grid().

    observed is the grid minimum of -s(y) (distance from the forbidden sign);
    the check passes when that minimum is strictly above `bound`.  y_min
    restricts the grid to |y| >= y_min (the tail variant: negativity bounded
    away from zero beyond a fixed y0).
    """
    pts = default_sy_grid()
    if y_min is not None:
        pts = [y for y in pts if abs(y) >= y_min]
    if not pts:
        raise ValueError("empty grid")
    observed = -_worst(s_of_y(y, N) for y in pts)
    tail = f", |y| >= {y_min}" if y_min is not None else ""
    return CheckResult(
        name=f"check_sy_negativity[N={N}{',tail' if y_min is not None else ''}]",
        passed=observed > bound,
        observed=observed,
        bound=bound,
        samples=len(pts),
        notes=f"min of -s(y) over fixed log grid (N={N}{tail}); positive means s < 0 throughout",
    )


def check_sy_taylor(N: int, *, bound: float = 10.0) -> CheckResult:
    """s(y)/y^2 approaches N(log(2)^2 - pi^2/12); quartic remainder scaling.

    Passes iff |s(y)/y^2 - coefficient| <= bound y^2 at y = 1e-1, 1e-2, 1e-3;
    observed is the worst |residual|/y^2.
    """
    coef = N * (math.log(2.0) ** 2 - math.pi * math.pi / 12.0)
    ys = [1e-1, 1e-2, 1e-3]
    worst = _worst(abs(s_of_y(y, N) / (y * y) - coef) / (y * y) for y in ys)
    return CheckResult(
        name=f"check_sy_taylor[N={N}]",
        passed=worst <= bound,
        observed=worst,
        bound=bound,
        samples=len(ys),
        notes=f"max |s(y)/y^2 - c|/y^2 with c = N(log(2)^2 - pi^2/12) = {coef!r}",
    )


# ---------------------------------------------------------------------------
# saddle-point expansion check
# ---------------------------------------------------------------------------


# B is N = 2's saddle constant: B^2 = Lambda(0) = N pi^2/12, the smallest N
# the estimates cover.
_NR_B = math.pi * math.sqrt(2.0 / 12.0)
_NR_WEIGHTS = (400, 1600)


def check_nr_expansion(A: float, R: int, *, bound: float | None = None) -> CheckResult:
    """Quadrature minus the R-term expansion decays at the n^{-R/2} rate.

    The saddle constant is B = pi sqrt(2/12) and n runs over 400, 1600.  The
    quadrature is nr_contour_integral's one contour (theta = 1, 4000 and 8000
    trapezoid intervals), which stays inside |z| < 1/2 for n >= 14, so it
    equals numpy's trapezoid bit for bit at both weights.  The residual
    ratio must be <= bound (default 3) times the generic prediction
    (400/1600)^{R/2}.  One-sided on purpose:
    O(n^{-R/2}) is an upper bound, and when the leading omitted coefficient
    vanishes (A = 1/2, r >= 2) the decay is legitimately much faster -- noted,
    not failed.  R = 0 degrades to a boundedness check |quadrature| <= bound,
    by default 2 T_{A,B,0}.
    """
    B, ns = _NR_B, _NR_WEIGHTS
    residuals = []
    for n in ns:
        q = nr_contour_integral(A, B, n)
        expansion = sum(nr_coefficient(A, B, r) * n ** (-r / 2.0) for r in range(R))
        residuals.append(abs(q - expansion))

    if R == 0:
        limit = "2 T_{A,B,0}" if bound is None else repr(bound)
        if bound is None:
            bound = 2.0 * nr_coefficient(A, B, 0)
        observed = _worst(residuals)
        notes = f"degenerate R=0: rescaled integral bounded by {limit}"
    else:
        if bound is None:
            bound = 3.0
        (n1, n2), (r1, r2) = ns, residuals
        observed = 0.0 if r1 == 0.0 else (r2 / r1) / (n1 / n2) ** (R / 2.0)
        notes = f"max (residual ratio)/(n1/n2)^(R/2) over consecutive n; residuals {residuals!r}"
        if observed < 1.0 / 3.0:
            notes += "; decay faster than the generic rate (leading omitted coefficient vanishes or is small)"
    return CheckResult(
        name=f"check_nr_expansion[A={A!r},R={R}]",
        passed=observed <= bound,
        observed=observed,
        bound=bound,
        samples=len(ns),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Euler-Maclaurin profiles
# ---------------------------------------------------------------------------


def _gaussian_derivative(order: int, x: complex) -> complex:
    # d^m/dx^m e^{-x^2} = (-1)^m H_m(x) e^{-x^2}  (physicists' Hermite), m >= 1
    h_prev: complex = 1.0 + 0.0j
    h_cur: complex = 2.0 * x
    for m in range(1, order):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * m * h_prev
    return (-1.0) ** order * h_cur * cmath.exp(-x * x)


# (name, f, the exact derivative(order, x) of f); R = 3 needs orders 1, 3 and 5
_EMF_PROFILES = (
    ("gaussian", lambda x: cmath.exp(-x * x), _gaussian_derivative),
    ("exponential", lambda x: cmath.exp(-x), lambda order, x: (-1.0) ** order * cmath.exp(-x)),
)
_EMF_R = 3
_EMF_Z = 0.1


def check_emf(*, bound: float = 1e-8) -> CheckResult:
    """Euler-Maclaurin residual <= bound on every profile at z = 0.1, R = 3,
    summed along the ray from 0."""
    resids = [
        abs(euler_maclaurin(f, _EMF_Z, _EMF_R, derivative=derivative).residual)
        for _, f, derivative in _EMF_PROFILES
    ]
    worst = _worst(resids)
    details = (f"{name}: {r!r}" for (name, _, _), r in zip(_EMF_PROFILES, resids))
    return CheckResult(
        name="check_emf",
        passed=worst <= bound,
        observed=worst,
        bound=bound,
        samples=len(_EMF_PROFILES),
        notes=f"max |residual| at z={_EMF_Z!r}, R={_EMF_R}; " + "; ".join(details),
    )


def check_lambda_identity(*, bound: float = 1e-10) -> CheckResult:
    """Lambda(0) = N pi^2/12 for N = 2..6, real to 1e-12, value to `bound`.

    The imaginary-part limit 1e-12 is fixed: no bound relaxes it.
    """
    target = math.pi * math.pi / 12.0
    vals = {N: lambda_y(0.0, N) for N in range(2, 7)}
    worst = _worst(abs(val.real / N - target) for N, val in vals.items())
    worst_imag = _worst(abs(val.imag) for val in vals.values())
    return CheckResult(
        name="check_lambda_identity",
        passed=worst <= bound and worst_imag <= 1e-12,
        observed=worst,
        bound=bound,
        samples=len(vals),
        notes=f"max |Lambda(0)/N - pi^2/12| over N=2..6; max |Im Lambda(0)| = {worst_imag!r} (<= 1e-12 required)",
    )


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------


def default_suite() -> list[tuple[str, partial[CheckResult]]]:
    """The named checks cmd-verify runs, in fixed order; each is a check with
    its arguments bound, so `check.func.__name__` is its family."""
    return [
        *((f"check_sy_negativity[N={N}]", partial(check_sy_negativity, N)) for N in range(2, 7)),
        ("check_sy_negativity[N=2,tail]", partial(check_sy_negativity, 2, y_min=0.5)),
        *((f"check_sy_taylor[N={N}]", partial(check_sy_taylor, N)) for N in range(2, 7)),
        *(
            (f"check_nr_expansion[A={a!r},R={r}]", partial(check_nr_expansion, a, r))
            for a, r in ((0.0, 0), (0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2))
        ),
        ("check_emf", partial(check_emf)),
        ("check_lambda_identity", partial(check_lambda_identity)),
    ]


def run_suite(
    only: str | None = None, bounds: Mapping[str, float] | None = None
) -> list[CheckResult]:
    """Run the default suite, optionally restricted to names starting with
    `only`; `bounds` maps a check family to the bound its checks run against.

    A `bounds` key that names no check family raises ValueError before any
    check runs.
    """
    bounds = bounds or {}
    suite = default_suite()
    families = dict.fromkeys(check.func.__name__ for _, check in suite)
    for family in bounds:
        if family not in families:
            raise ValueError(
                f"tol.{family} names no check family (one of {', '.join(families)})"
            )
    results = []
    for name, check in suite:
        if only is not None and not name.startswith(only):
            continue
        family = check.func.__name__
        results.append(check(bound=bounds[family]) if family in bounds else check())
    return results
