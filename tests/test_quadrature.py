"""The QAGI port returns what scipy's quad returns on [0, inf), to the last bit.

scipy runs the compiled QUADPACK; the port is pure Python.  Equal floats
(result and error estimate) over integrands that reach every exit of the
routine at the package's setting (first-rule accept, plain bisection,
epsilon extrapolation, the subinterval limit) show the operations happen
in the same order.  A lower limit x0 other than 0 is moved into the
integrand, as f(s + x0) on [0, inf).
"""

import cmath
import math
import random
import warnings

import pytest
from scipy.integrate import quad

from paritylab import quadrature
from paritylab.quadrature import integrate_to_infinity


def _integrands():
    cases = [
        # the verify suite's Euler-Maclaurin rays (z = 0.1)
        ("gaussian ray", lambda s: cmath.exp(-(0.1 * s) ** 2).real),
        ("exponential ray", lambda s: cmath.exp(-0.1 * s).real),
        ("zero", lambda s: 0.0),
        ("algebraic", lambda s: 1.0 / (1.0 + s * s)),
        ("slow algebraic", lambda s: 1.0 / (1.0 + s) ** 1.1),
        ("endpoint singularity", lambda s: math.exp(-s) / math.sqrt(s) if s > 0 else 0.0),
        ("log singularity", lambda s: math.log(s) * math.exp(-s) if s > 0 else 0.0),
        ("oscillating", lambda s: math.sin(3.0 * s) / (1.0 + s) ** 1.5),
        # runs into the limit with a result that moves with one subinterval
        # more or less, so it pins the limit itself
        ("chirp", lambda s: math.sin(s * s) / (1.0 + s)),
        ("shifted bump", lambda s: math.exp(-((s + -1.5 - 12.0) ** 2))),
    ]
    rng = random.Random(2023)
    for i in range(15):
        a, b, x0 = rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-1, 1)
        cases.append(
            (
                f"damped cosine {i}",
                lambda s, a=a, b=b, x0=x0: math.exp(-a * (s + x0)) * math.cos(b * (s + x0)),
            )
        )
    return cases


def _port(f, eps, limit, monkeypatch):
    """The port where scipy runs at (eps, limit).

    (1e-12, 200) is the package's own setting.  Two others are set through
    the module constants, and one subinterval leaves QUADPACK nothing but
    its first rule, `_qk15i` on all of (0, 1].
    """
    if limit == 1:
        return quadrature._qk15i(f, 0.0, 1.0)[:2]
    if (eps, limit) != (1e-12, 200):
        monkeypatch.setattr(quadrature, "_EPSABS", eps)
        monkeypatch.setattr(quadrature, "_EPSREL", eps)
        monkeypatch.setattr(quadrature, "_LIMIT", limit)
    return integrate_to_infinity(f)


@pytest.mark.parametrize("name,f", _integrands(), ids=[c[0] for c in _integrands()])
@pytest.mark.parametrize("eps,limit", [(1e-12, 200), (1e-8, 50), (1e-6, 5), (1e-10, 1)])
def test_matches_scipy_quad_bit_for_bit(monkeypatch, name, f, eps, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = quad(f, 0.0, math.inf, epsabs=eps, epsrel=eps, limit=limit)[:2]
        got = _port(f, eps, limit, monkeypatch)
    assert got == expected


def _exit(f):
    """The exit QAGI leaves by on f at the package's setting."""
    rules, extrapolations = [], []
    qk15i, qelg = quadrature._qk15i, quadrature._qelg
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(quadrature, "_qk15i", lambda *a: rules.append(a) or qk15i(*a))
        mp.setattr(quadrature, "_qelg", lambda *a: extrapolations.append(a) or qelg(*a))
        integrate_to_infinity(f)
    if len(rules) == 1:
        return "first rule"
    # the first rule, then two per bisection until the list is full
    if len(rules) == 1 + 2 * (quadrature._LIMIT - 1):
        return "subinterval limit"
    return "extrapolation" if extrapolations else "bisection"


def test_the_integrands_reach_every_exit():
    exits = {name: _exit(f) for name, f in _integrands()}
    special = {
        "zero": "first rule",
        "algebraic": "bisection",
        "oscillating": "subinterval limit",
        "chirp": "subinterval limit",
    }
    assert exits == {name: special.get(name, "extrapolation") for name in exits}


def test_missed_tolerance_warns_and_returns_the_estimate():
    with pytest.warns(RuntimeWarning, match="subinterval limit"):
        value, _ = integrate_to_infinity(lambda s: math.sin(3.0 * s) / (1.0 + s) ** 1.5)
    assert math.isfinite(value)
