"""The QAGI port returns what scipy's quad returns on [a, inf), to the last bit.

scipy runs the compiled QUADPACK; the port is pure Python.  Equal floats
(result and error estimate) over integrands that exercise every exit of
the routine (first-rule accept, plain bisection, epsilon extrapolation,
the subinterval limit) show the operations happen in the same order.
"""

import cmath
import math
import random
import warnings

import pytest
from scipy.integrate import quad

from paritylab.quadrature import integrate_to_infinity


def _integrands():
    cases = [
        # the verify suite's Euler-Maclaurin rays (z = 0.1)
        ("gaussian ray", lambda s: cmath.exp(-(0.1 * s) ** 2).real, 0.0),
        ("exponential ray", lambda s: cmath.exp(-0.1 * s).real, 0.0),
        ("zero", lambda s: 0.0, 0.0),
        ("algebraic", lambda s: 1.0 / (1.0 + s * s), 0.0),
        ("slow algebraic", lambda s: 1.0 / (1.0 + s) ** 1.1, 0.0),
        ("endpoint singularity", lambda s: math.exp(-s) / math.sqrt(s) if s > 0 else 0.0, 0.0),
        ("log singularity", lambda s: math.log(s) * math.exp(-s) if s > 0 else 0.0, 0.0),
        ("oscillating", lambda s: math.sin(3.0 * s) / (1.0 + s) ** 1.5, 0.0),
        ("shifted bump", lambda s: math.exp(-((s - 12.0) ** 2)), -1.5),
    ]
    rng = random.Random(2023)
    for i in range(15):
        a, b = rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0)
        cases.append(
            (f"damped cosine {i}", lambda s, a=a, b=b: math.exp(-a * s) * math.cos(b * s), rng.uniform(-1, 1))
        )
    return cases


@pytest.mark.parametrize("name,f,lower", _integrands(), ids=[c[0] for c in _integrands()])
@pytest.mark.parametrize("eps,limit", [(1e-12, 200), (1e-8, 50), (1e-6, 5), (1e-10, 1)])
def test_matches_scipy_quad_bit_for_bit(name, f, lower, eps, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = quad(f, lower, math.inf, epsabs=eps, epsrel=eps, limit=limit)[:2]
        got = integrate_to_infinity(f, lower, epsabs=eps, epsrel=eps, limit=limit)
    assert got == expected


def test_missed_tolerance_warns_and_returns_the_estimate():
    with pytest.warns(RuntimeWarning, match="subinterval limit"):
        value, _ = integrate_to_infinity(lambda s: math.sin(s) / (1.0 + s), 0.0, 1e-8, 1e-8, 3)
    assert math.isfinite(value)


def test_rejects_unreachable_tolerance():
    with pytest.raises(ValueError):
        integrate_to_infinity(math.exp, 0.0, 0.0, 1e-20, 50)
    with pytest.raises(ValueError):
        integrate_to_infinity(math.exp, 0.0, 1e-8, 1e-8, 0)
