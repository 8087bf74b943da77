"""Library inputs outside a function's domain raise ValueError with its message."""

import re

import pytest

from paritylab.asymptotics import boundary_data, estimate_bias, estimate_hua, estimate_thm1
from paritylab.distribution import ks_distance_of
from paritylab.exact import (
    ParitySpec,
    Partition,
    count_distinct,
    enumerate_distinct,
    m_max,
    pd_distribution,
    pd_distribution_family,
)
from paritylab.specialfn import bernoulli_poly, lambda_y

SPEC = ParitySpec(2, 1, 2)

REFUSALS = [
    ("Partition", lambda: Partition((3, 1), 5), "parts sum to 4, not 5"),
    ("m_max", lambda: m_max(-1), "n must be >= 0"),
    ("enumerate_distinct", lambda: enumerate_distinct(-1), "n must be >= 0"),
    ("pd_distribution", lambda: pd_distribution(-1, SPEC), "n must be >= 0"),
    ("pd_distribution_family", lambda: pd_distribution_family(-1, SPEC), "n_max must be >= 0"),
    ("count_distinct", lambda: count_distinct(-1), "n must be >= 0"),
    ("boundary_data", lambda: boundary_data(1.0, 0, (0, 1), SPEC), "n must be >= 1"),
    (
        "estimate_thm1-N",
        lambda: estimate_thm1(100, ParitySpec(7, 1, 2), 1.0),
        "estimates support 2 <= N <= 6",
    ),
    ("estimate_thm1-n", lambda: estimate_thm1(0, SPEC, 1.0), "n must be >= 1"),
    ("estimate_hua", lambda: estimate_hua(0), "n must be >= 1"),
    ("estimate_bias", lambda: estimate_bias(0, SPEC), "n must be >= 1"),
    ("ks_distance_of", lambda: ks_distance_of(pd_distribution(0, SPEC)), "KS distance needs n >= 1"),
    ("bernoulli_poly-low", lambda: bernoulli_poly(-1, 0.5), "Bernoulli degree must be >= 0"),
    (
        "bernoulli_poly-high",
        lambda: bernoulli_poly(61, 0.5),
        "Bernoulli coefficient table ends at r = 60",
    ),
    ("lambda_y", lambda: lambda_y(0.0, 1), "N must be >= 2"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_out_of_domain_input_raises_value_error_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
