import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from paritylab import (
    CeilingExceeded,
    EnumerationLimitExceeded,
    ParitySpec,
    Partition,
    count_at_least_of,
    count_distinct,
    enumerate_distinct,
    exact_ceiling,
    m_max,
    parity_bias,
    pd,
    pd_distribution,
    pd_distribution_family,
)
from paritylab.exact import _limb_width_bits

SPEC212 = ParitySpec(2, 1, 2)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_partition_of_builds_and_validates():
    lam = Partition.of(4, 3, 1)
    assert lam.parts == (4, 3, 1)
    assert lam.n == 8
    assert Partition.of().n == 0


@pytest.mark.parametrize("bad", [(3, 3, 1), (1, 3), (4, 0), (-2,)])
def test_partition_rejects_non_distinct_or_nonpositive(bad):
    with pytest.raises(ValueError):
        Partition.of(*bad)


def test_parity_spec_validation():
    assert ParitySpec(3, 1, 2).swapped() == ParitySpec(3, 2, 1)
    for N, a, b in [(1, 1, 1), (2, 1, 1), (2, 0, 1), (2, 1, 3)]:
        with pytest.raises(ValueError):
            ParitySpec(N, a, b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_distinct_frozen_small_cases():
    assert [p.parts for p in enumerate_distinct(0)] == [()]
    assert [p.parts for p in enumerate_distinct(5)] == [(5,), (4, 1), (3, 2)]
    assert [p.parts for p in enumerate_distinct(8)] == [
        (8,),
        (7, 1),
        (6, 2),
        (5, 3),
        (5, 2, 1),
        (4, 3, 1),
    ]


def test_enumerate_distinct_limit():
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_distinct(8, limit=3)
    assert len(enumerate_distinct(8, limit=6)) == 6


@given(st.integers(min_value=0, max_value=30))
def test_enumerate_matches_independent_recursion(n):
    ours = {p.parts for p in enumerate_distinct(n)}
    ref = set(oracles.distinct_partitions(n))
    assert ours == ref


# ---------------------------------------------------------------------------
# pd and the exact distribution
# ---------------------------------------------------------------------------


def test_pd_examples():
    assert pd(Partition.of(4, 3, 1), SPEC212) == 1
    assert pd(Partition.of(), SPEC212) == 0
    assert pd(Partition.of(5, 4, 2), ParitySpec(3, 1, 2)) == -1


def test_pd_residue_N_matches_zero():
    # alpha = N stands for the residue class 0 (mod N)
    assert pd(Partition.of(6, 3), ParitySpec(3, 3, 1)) == 2


def test_pd_distribution_examples():
    assert pd_distribution(5, SPEC212).counts == {0: 2, 1: 1}
    assert pd_distribution(8, SPEC212).counts == {-2: 1, -1: 1, 1: 2, 2: 2}
    assert pd_distribution(0, SPEC212).counts == {0: 1}


def test_count_at_least_examples():
    assert count_at_least_of(pd_distribution(8, SPEC212), 1) == 4
    assert count_at_least_of(pd_distribution(8, ParitySpec(2, 2, 1)), 0) == 2
    assert count_at_least_of(pd_distribution(0, SPEC212), 0) == 1
    assert count_at_least_of(pd_distribution(40, SPEC212), -999) == 1113


def test_count_at_least_real_threshold_uses_ceiling():
    # pd is integral, so any c in (0, 1] counts the same partitions as c = 1
    dist = pd_distribution(8, SPEC212)
    assert count_at_least_of(dist, 0.25) == count_at_least_of(dist, 1)


def test_count_distinct_examples_and_oracle_row():
    assert count_distinct(0) == 1
    assert count_distinct(8) == 6
    assert count_distinct(40) == 1113
    ref = oracles.count_distinct_upto(60)
    assert [count_distinct(n) for n in range(61)] == ref


def test_parity_bias_examples():
    dist = pd_distribution(8, SPEC212)
    assert parity_bias(dist, 1) == 1
    assert parity_bias(dist, 0) == 0
    assert parity_bias(dist, 2) == 1
    with pytest.raises(ValueError):
        parity_bias(dist, -1)


def test_m_max_values():
    # largest partition into distinct parts of n has m parts iff m(m+1)/2 <= n
    for n in range(0, 200):
        m = m_max(n)
        assert m * (m + 1) // 2 <= n
        assert (m + 1) * (m + 2) // 2 > n


# ---------------------------------------------------------------------------
# ceiling plumbing
# ---------------------------------------------------------------------------


def test_ceiling_override_refuses():
    with pytest.raises(CeilingExceeded):
        pd_distribution(60, SPEC212, ceiling=50)
    with pytest.raises(CeilingExceeded):
        count_distinct(60, ceiling=50)


def test_ceiling_env_var(monkeypatch):
    monkeypatch.setenv("PARITY_LAB_CEILING", "30")
    assert exact_ceiling() == 30
    with pytest.raises(CeilingExceeded):
        pd_distribution(40, SPEC212)
    # explicit override still wins over the environment
    assert pd_distribution(40, SPEC212, ceiling=100).total() == 1113


def test_ceiling_default():
    assert exact_ceiling() == 5000


# ---------------------------------------------------------------------------
# oracle equivalence and structural properties
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=28),
    st.sampled_from([2, 3, 5]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_distribution_matches_enumeration(n, N, data):
    alpha = data.draw(st.integers(min_value=1, max_value=N))
    beta = data.draw(
        st.integers(min_value=1, max_value=N).filter(lambda b: b != alpha)
    )
    spec = ParitySpec(N, alpha, beta)
    assert pd_distribution(n, spec).counts == oracles.pd_histogram(n, N, alpha, beta)


def test_distribution_matches_dict_dp_midsize():
    ref = oracles.pd_histograms_upto(300, 2, 1, 2)
    assert pd_distribution(300, SPEC212).counts == ref[300]
    ref3 = oracles.pd_histograms_upto(200, 3, 2, 3)
    assert pd_distribution(200, ParitySpec(3, 2, 3)).counts == ref3[200]


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=60, deadline=None)
def test_reflection_and_total(n):
    dist = pd_distribution(n, SPEC212)
    mirrored = pd_distribution(n, SPEC212.swapped())
    assert mirrored.counts == {-k: v for k, v in dist.counts.items()}
    assert dist.total() == count_distinct(n)
    assert all(abs(k) <= m_max(n) for k in dist.counts)


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=40, deadline=None)
def test_count_at_least_monotone_and_complete(n):
    dist = pd_distribution(n, SPEC212)
    m = m_max(n)
    values = [count_at_least_of(dist, c) for c in range(-m - 1, m + 2)]
    assert values[0] == count_distinct(n)
    assert values[-1] == 0
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_family_consistent_with_single_runs():
    family = pd_distribution_family(80, SPEC212)
    assert len(family) == 81
    assert [d.n for d in family] == list(range(81))
    for n in (0, 1, 17, 56, 80):
        assert family[n].counts == pd_distribution(n, SPEC212).counts


def test_family_respects_ceiling():
    with pytest.raises(CeilingExceeded):
        pd_distribution_family(60, SPEC212, ceiling=50)


# ---------------------------------------------------------------------------
# the single-weight engine against the family DP and the invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", range(2, 7))
def test_single_engine_matches_family_dp_and_enumeration(N):
    # every class pair of modulus N, residue 0 (alpha = N or beta = N) included
    specs = [
        ParitySpec(N, a, b)
        for a in range(1, N + 1)
        for b in range(1, N + 1)
        if a != b
    ]
    families = {spec: pd_distribution_family(60, spec) for spec in specs}
    for n in range(61):
        residues = oracles.residue_count_histograms(n, (N,))[N]
        for spec in specs:
            counts = pd_distribution(n, spec).counts
            assert counts == families[spec][n].counts, (n, spec)
            assert counts == oracles.reduce_to_pd(residues, N, spec.alpha, spec.beta)


@pytest.mark.parametrize("N", range(2, 7))
def test_family_matches_packed_dp_and_dict_dp(N):
    # every class pair of modulus N, residue 0 (alpha = N or beta = N) included
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a == b:
                continue
            rows = [d.counts for d in pd_distribution_family(60, ParitySpec(N, a, b))]
            assert rows == oracles.packed_dp_family(60, N, a, b), (N, a, b)
            assert rows == oracles.pd_histograms_upto(60, N, a, b), (N, a, b)


@pytest.mark.parametrize(
    "spec, n_max",
    [(ParitySpec(2, 1, 2), 1230), (ParitySpec(3, 2, 3), 1230), (ParitySpec(5, 1, 2), 1430)],
)
def test_family_matches_packed_dp_at_sweep_top_weights(spec, n_max):
    family = pd_distribution_family(n_max, spec)
    ref = oracles.packed_dp_family(n_max, spec.N, spec.alpha, spec.beta)
    assert [d.counts for d in family] == ref
    assert [d.total() for d in family] == oracles.count_distinct_upto(n_max)


@pytest.mark.parametrize("n", [2000, 3000])
def test_single_engine_total_and_reflection_large(n):
    d = count_distinct(n)
    for spec in (ParitySpec(2, 1, 2), ParitySpec(5, 1, 2), ParitySpec(3, 2, 3)):
        dist = pd_distribution(n, spec)
        assert dist.total() == d
        mirrored = pd_distribution(n, spec.swapped())
        assert list(mirrored.counts.items()) == [
            (-k, v) for k, v in reversed(dist.counts.items())
        ]


def test_limb_width_headroom(family2):
    # every count is at most d(n); the limb keeps 16 bits above it
    for dist in family2:
        assert dist.total().bit_length() <= _limb_width_bits(dist.n) - 16
