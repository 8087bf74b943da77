import pytest

from paritylab import ParitySpec, pd_distribution_family

# Session-wide exact family tables: one family-engine pass per spec yields
# the full distribution for every weight up to 2000, which is what the sweep
# criteria consume.  Building them once keeps the whole suite in seconds.


@pytest.fixture(scope="session")
def family2():
    return pd_distribution_family(2000, ParitySpec(2, 1, 2))


@pytest.fixture(scope="session")
def family3():
    return pd_distribution_family(2000, ParitySpec(3, 1, 2))
