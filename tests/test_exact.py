import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from paritylab import (
    ParitySpec,
    Partition,
    count_at_least_of,
    count_distinct,
    enumerate_distinct,
    lattice_span,
    m_max,
    parity_bias,
    pd,
    pd_distribution,
    pd_distribution_family,
    tail_counts,
)
from paritylab import exact
from paritylab.cli import DEFAULT_CEILING
from paritylab.exact import _distinct_counts, _limb_width_bits

SPEC212 = ParitySpec(2, 1, 2)
ALL_PAIRS = [
    ParitySpec(N, a, b) for N in range(2, 7) for a in range(1, N + 1) for b in range(1, N + 1) if a != b
]


def _thresholds(m):
    # one threshold per ceiling from below -m to above m: the even ceilings
    # as integers, the odd ones as reals half a unit below them
    return [k if k % 2 == 0 else k - 0.5 for k in range(-m - 2, m + 3)]


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
    assert count_at_least_of(dist, 10**400) == 0


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_count_at_least_refuses_a_non_finite_threshold(c):
    with pytest.raises(ValueError, match="threshold must be finite"):
        count_at_least_of(pd_distribution(8, SPEC212), c)


def test_count_distinct_examples_and_oracle_row():
    assert count_distinct(0) == 1
    assert count_distinct(8) == 6
    assert count_distinct(40) == 1113
    ref = oracles.count_distinct_upto(60)
    assert [count_distinct(n) for n in range(61)] == ref


def test_count_distinct_matches_quadratic_oracle():
    # the oracle's O(n^2) loop, once, up to the command line's default
    # ceiling (~1.4 s); the whole row, so every n up to it, from one
    # pentagonal pass
    ref = oracles.count_distinct_upto(DEFAULT_CEILING)
    assert _distinct_counts(DEFAULT_CEILING) == ref
    for n in (1, 1999, 2000, 4999, DEFAULT_CEILING):
        assert count_distinct(n) == ref[n]


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
# no budget: the command line alone guards the weight
# ---------------------------------------------------------------------------


def test_engines_ignore_ceiling_env_var(monkeypatch):
    monkeypatch.setenv("PARITY_LAB_CEILING", "30")
    assert pd_distribution(40, SPEC212).total() == 1113
    assert pd_distribution_family(40, SPEC212)[40].total() == 1113
    assert count_distinct(40) == 1113


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


@pytest.mark.parametrize(
    "weights",
    [
        range(50, 301, 7),  # strided
        range(120, 301),  # dense
        range(0, 301, 25),  # weight 0 included
        range(300, 301),  # one weight
        # for (2,1,2) the outer rows k = -16 and 17 start at degrees 272 and 289:
        range(280, 301, 4),  # starts between them
        range(250, 288, 3),  # ends below 289, so row 17 holds none of the weights
        range(300, 301, 10**21),  # one weight, under a step no buffer can be sized by
    ],
    ids=["strided", "dense", "from-0", "one", "outer-rows", "below-outer-rows", "huge-step"],
)
@pytest.mark.parametrize("spec", [SPEC212, ParitySpec(3, 2, 3), ParitySpec(5, 1, 2)], ids=str)
def test_family_at_requested_weights(spec, weights):
    # the family read at these weights is the packed DP's, and the tail
    # engine, which unpacks each tail row whole and indexes it at the
    # requested weights, gives the family's tails there for every ceiling
    full = pd_distribution_family(300, spec)
    family = [full[s] for s in weights]
    ref = oracles.packed_dp_family(300, spec.N, spec.alpha, spec.beta)
    assert [d.counts for d in family] == [ref[s] for s in weights]
    for c in _thresholds(m_max(300)):
        tails = tail_counts(spec, weights, [c] * len(weights))
        assert tails == [count_at_least_of(d, c) for d in family], c


def test_engines_at_weights_0_and_1_for_every_class_pair():
    # neither engine has a branch of its own for weight 0, the empty partition
    for N in range(2, 7):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if a == b:
                    continue
                spec = ParitySpec(N, a, b)
                ref = oracles.pd_histograms_upto(1, N, a, b)
                for n_max in (0, 1):
                    family = pd_distribution_family(n_max, spec)
                    assert [(d.n, d.counts) for d in family] == list(enumerate(ref[: n_max + 1]))
                    assert pd_distribution(n_max, spec).counts == ref[n_max], (spec, n_max)


def test_huge_modulus_at_small_weight():
    # no part of 5 lies in a residue class above 5, so N = 10^12 costs what N = 5 does
    spec = ParitySpec(10**12, 1, 2)
    ref = oracles.pd_histogram(5, 10**12, 1, 2)
    assert pd_distribution(5, spec).counts == ref
    assert pd_distribution_family(5, spec)[5].counts == ref


def test_lattice_span_is_the_span_of_the_support():
    # the gcd of the differences between support keys, at n = 200..203 for
    # every pair with N <= 8; exactly the four ordered lattice pairs exceed 1
    lattice = set()
    for N in range(2, 9):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if a == b:
                    continue
                spec = ParitySpec(N, a, b)
                family = pd_distribution_family(203, spec)
                for n in range(200, 204):
                    keys = list(family[n].counts)
                    assert math.gcd(*(k - keys[0] for k in keys)) == lattice_span(spec), (spec, n)
                if lattice_span(spec) > 1:
                    lattice.add((N, a, b))
    assert lattice == {(3, 1, 2), (3, 2, 1), (4, 1, 3), (4, 3, 1)}


def test_residue_count_dp_matches_enumeration():
    moduli = (2, 3, 4, 5, 6)
    table = oracles.residue_count_histograms(40, moduli)
    for n in range(41):
        for N in moduli:
            ref = Counter(
                tuple(sum(1 for p in parts if p % N == r) for r in range(N))
                for parts in oracles.distinct_partitions(n)
            )
            assert table[N][n] == ref, (n, N)


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
    residues = oracles.residue_count_histograms(60, (N,))[N]
    for n in range(61):
        for spec in specs:
            counts = pd_distribution(n, spec).counts
            assert counts == families[spec][n].counts, (n, spec)
            assert counts == oracles.reduce_to_pd(residues[n], N, spec.alpha, spec.beta)


@pytest.mark.parametrize("n_max", [28, 78])
def test_single_engine_fits_limbs_with_no_spare_bit(monkeypatch, n_max):
    # d(n_max) fills its whole bytes exactly (8 and 16 bits), so with limbs of
    # exactly that width any column limb, or any accumulator limb (one column
    # pair's share of some f(k)), that exceeded d(n_max) would carry into the
    # next limb and break the equality
    W = _distinct_counts(n_max)[n_max].bit_length()
    assert W % 8 == 0
    monkeypatch.setattr(exact, "_limb_width_bits", lambda n: W)
    residues = oracles.residue_count_histograms(n_max, (2, 3, 4, 5, 6))
    for n in range(n_max + 1):
        for N in range(2, 7):
            for a in range(1, N + 1):
                for b in range(1, N + 1):
                    if a != b:
                        counts = pd_distribution(n, ParitySpec(N, a, b)).counts
                        assert counts == oracles.reduce_to_pd(residues[N][n], N, a, b), (n, N, a, b)


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


@pytest.mark.parametrize(
    "spec, n_max, steps",
    [
        (ParitySpec(2, 1, 2), 1230, 5456),
        (ParitySpec(5, 1, 2), 1430, 2685),
        (ParitySpec(3, 2, 3), 1230, 3529),
    ],
)
def test_family_pass_doubling_steps(monkeypatch, spec, n_max, steps):
    # a division by 1 - q^a truncated at limb top adds one shifted copy per
    # power a, 2a, 4a, ... <= top; every Horner level of a family row adds a
    # column, so a level that only divides would raise these counts
    divide = exact._divide_one_minus
    count = 0

    def counting(x, a, top, W, mask):
        nonlocal count
        count += (top // a).bit_length()
        return divide(x, a, top, W, mask)

    monkeypatch.setattr(exact, "_divide_one_minus", counting)
    pd_distribution_family(n_max, spec)
    assert count == steps


def test_family_reflection_at_every_weight():
    # f_{alpha,beta}(k) = f_{beta,alpha}(-k): the rows k < 0 of one pair are
    # made by the Horner pass that makes the rows k > 0 of the swapped pair
    pairs = [(spec, 60) for spec in ALL_PAIRS]
    assert len(pairs) == 70
    pairs += [(spec, 300) for spec in (SPEC212, ParitySpec(5, 1, 2), ParitySpec(3, 2, 3))]
    for spec, n_max in pairs:
        family = pd_distribution_family(n_max, spec)
        mirrored = pd_distribution_family(n_max, spec.swapped())
        assert [d.n for d in family] == [d.n for d in mirrored] == list(range(n_max + 1))
        for d, m in zip(family, mirrored):
            assert list(d.counts) == sorted(d.counts), (spec, d.n)
            assert list(m.counts) == sorted(m.counts), (spec, d.n)
            assert m.counts == {-k: v for k, v in d.counts.items()}, (spec, d.n)


@pytest.mark.parametrize("n_max", [28, 78])
def test_family_fits_limbs_with_no_spare_bit(monkeypatch, n_max):
    # d(n_max) fills its whole bytes exactly (8 and 16 bits), so with limbs of
    # exactly that width any Horner level or partial division whose limbs
    # exceeded d(n_max) would carry into the next limb and break the equality
    W = _distinct_counts(n_max)[n_max].bit_length()
    assert W % 8 == 0
    monkeypatch.setattr(exact, "_limb_width_bits", lambda n: W)
    for N in range(2, 7):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if a != b:
                    family = pd_distribution_family(n_max, ParitySpec(N, a, b))
                    rows = [d.counts for d in family]
                    assert rows == oracles.packed_dp_family(n_max, N, a, b), (N, a, b)


def test_family_matches_single_engine_at_3000():
    family = pd_distribution_family(3000, SPEC212)
    assert [d.total() for d in family] == _distinct_counts(3000)
    for n in (1, 1501, 2999, 3000):
        # items, not dicts: both engines list k in ascending order
        single = pd_distribution(n, SPEC212)
        assert list(family[n].counts.items()) == list(single.counts.items()), n


@pytest.mark.parametrize(
    "spec, n",
    [
        (ParitySpec(2, 1, 2), 2000),
        (ParitySpec(2, 1, 2), 2040),
        (ParitySpec(5, 1, 2), 2300),
        (ParitySpec(5, 1, 2), 2340),
        (ParitySpec(3, 2, 3), 2200),
        (ParitySpec(3, 2, 3), 2240),
        (ParitySpec(2, 1, 2), 3000),
        (ParitySpec(5, 1, 2), 3000),
        (ParitySpec(3, 2, 3), 3000),
    ],
)
def test_single_engine_matches_dot_products(spec, n):
    # perfbench's single-weight bands and n = 3000, against one dot
    # product per column pair; items, not dicts, so the key order counts too
    ref = oracles.dot_product_counts(n, spec.N, spec.alpha, spec.beta)
    assert list(pd_distribution(n, spec).counts.items()) == list(ref.items())


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_single_engine_with_a_class_n_matches_dot_products(N):
    # beta = N puts the neutral series on the transposed alpha side and keeps
    # each beta column packed in q^N; alpha = N runs as the swapped pair
    for other in range(1, N):
        for a, b in ((other, N), (N, other)):
            ref = oracles.dot_product_counts(1000, N, a, b)
            counts = pd_distribution(1000, ParitySpec(N, a, b)).counts
            assert list(counts.items()) == list(ref.items()), (N, a, b)


def _dense_neutral_product(n, spec, W):
    mask = (1 << (n + 1) * W) - 1
    D = 1
    for p in range(1, n + 1):
        if p % spec.N not in (spec.alpha % spec.N, spec.beta % spec.N):
            D = (D + (D << p * W)) & mask
    return D


def test_neutral_series_is_the_dense_product():
    # class N and the next neutral class are built lane by lane in q^N and
    # spread into one dense series; against one shifted add per neutral part
    specs = [
        ParitySpec(N, a, b)
        for N in range(2, 9)
        for a in range(1, N + 1)
        for b in range(1, N + 1)
        if a != b
    ]
    # N > n: a few lanes of a huge modulus, with and without class N neutral
    specs += [ParitySpec(10**12, 1, 2), ParitySpec(10**12, 10**12, 3), ParitySpec(97, 5, 97)]
    for spec in specs:
        for n in range(81):
            W = _limb_width_bits(n)
            dense = _dense_neutral_product(n, spec, W)
            assert exact._neutral_series(n, spec, W) == dense, (spec, n)


@pytest.mark.parametrize("spec", [SPEC212, SPEC212.swapped()], ids=str)
@pytest.mark.parametrize("n", [1000, 1001])
def test_two_classes_transpose_only_the_alpha_lanes_a_beta_column_meets(monkeypatch, spec, n):
    # with N = 2 every beta column is packed in q^2 and meets only the alpha
    # lane rho == n - low_l (mod 2); (2, 1, 2) has alpha columns in both lanes
    # and beta columns in lane 0, so only the lane n mod 2 is transposed
    lanes = []
    alpha_rows = exact._alpha_rows

    def recording(*args):
        rows = alpha_rows(*args)
        lanes.extend(rho for rho, _, _ in rows)
        return rows

    monkeypatch.setattr(exact, "_alpha_rows", recording)
    counts = pd_distribution(n, spec).counts
    met = {(n - low) % 2 for low in exact._lowest_degrees(spec.beta, 2, n)}
    reached = {low % 2 for low in exact._lowest_degrees(spec.alpha, 2, n)}
    assert sorted(lanes) == sorted(met & reached)
    if spec == SPEC212:
        assert lanes == [n % 2]
    ref = oracles.dot_product_counts(n, 2, spec.alpha, spec.beta)
    assert list(counts.items()) == list(ref.items())


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_single_engine_in_blocks_of_rows(monkeypatch, block_bytes):
    # the transposed tables are built and turned into rows block by block;
    # one row per block, and a few rows per block, at every pair with N <= 6
    monkeypatch.setattr(exact, "_TABLE_BLOCK_BYTES", block_bytes)
    residues = oracles.residue_count_histograms(40, (2, 3, 4, 5, 6))
    for spec in ALL_PAIRS:
        for n in range(41):
            counts = pd_distribution(n, spec).counts
            ref = oracles.reduce_to_pd(residues[spec.N][n], spec.N, spec.alpha, spec.beta)
            assert counts == ref, (spec, n)
    for spec in (SPEC212, ParitySpec(3, 2, 3), ParitySpec(5, 1, 2)):
        ref = oracles.dot_product_counts(700, spec.N, spec.alpha, spec.beta)
        assert list(pd_distribution(700, spec).counts.items()) == list(ref.items())


@pytest.mark.parametrize(
    "spec, n, single, tail",
    [
        # (limb-steps, values unpacked); before the neutral classes were
        # built in lanes and beta = N kept its columns packed, these were
        # (375 889, 33 371) and (654 219, 2020) at (2, 1, 2),
        # (1 105 415, 51 828) and (1 248 481, 2320) at (5, 1, 2),
        # (793 931, 60 684) and (931 251, 2219) at (3, 2, 3)
        (ParitySpec(2, 1, 2), 2020, (375_889, 32_361), (654_219, 2020)),
        (ParitySpec(5, 1, 2), 2320, (686_227, 51_828), (829_293, 2320)),
        (ParitySpec(3, 2, 3), 2220, (566_857, 21_242), (701_614, 2219)),
    ],
)
def test_single_weight_work_counts(monkeypatch, spec, n, single, tail):
    # a division by 1 - q^a truncated at limb top adds top + 1 limbs per power
    # a, 2a, 4a, ... <= top; every value read out of a packed series or a
    # transposed table passes through _limbs
    divide, limbs = exact._divide_one_minus, exact._limbs
    work = [0, 0]

    def counting_divide(x, a, top, W, mask):
        work[0] += (top // a).bit_length() * (top + 1)
        return divide(x, a, top, W, mask)

    def counting_limbs(blob, Wb):
        values = limbs(blob, Wb)
        work[1] += len(values)
        return values

    monkeypatch.setattr(exact, "_divide_one_minus", counting_divide)
    monkeypatch.setattr(exact, "_limbs", counting_limbs)
    pd_distribution(n, spec)
    assert tuple(work) == single
    work[:] = [0, 0]
    tail_counts(spec, range(n, n + 1), [1])
    assert tuple(work) == tail


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


def _euler_coefficients(n_max):
    """[q^n] (q;q)_inf for n <= n_max: (-1)^j at n = j(3j-1)/2, else 0 (Euler)."""
    coefficients = [0] * (n_max + 1)
    for j in range(-n_max, n_max + 1):
        if j * (3 * j - 1) // 2 <= n_max:
            coefficients[j * (3 * j - 1) // 2] = (-1) ** j
    return coefficients


def _signed_sum(dist):
    return sum(v if k % 2 == 0 else -v for k, v in dist.counts.items())


def test_family_at_z_minus_one_is_the_pentagonal_series(family2):
    # for N = 2 every part is in one class, so z = -1 turns each class factor
    # into (1 - q^p): sum_k (-1)^k f_n(k) = [q^n] (q;q)_inf, in either order
    swapped = pd_distribution_family(2000, SPEC212.swapped())
    for family in (family2, swapped):
        assert [_signed_sum(d) for d in family] == _euler_coefficients(2000)


@pytest.mark.parametrize("spec", [SPEC212, SPEC212.swapped()], ids=str)
@pytest.mark.parametrize("n, value", [(4030, 1), (5000, 0)])
def test_single_engine_at_z_minus_one_is_the_pentagonal_series(spec, n, value):
    # 4030 = j(3j - 1)/2 at j = 52; 5000 is no pentagonal number
    assert _euler_coefficients(n)[n] == value
    assert _signed_sum(pd_distribution(n, spec)) == value


def test_limb_width_headroom():
    # every count at weight n is at most d(n) <= e^{pi sqrt(n/3)}, the module
    # docstring's bound, so it has at most floor(pi sqrt(n/3) / ln 2) + 1 bits,
    # and the limb is wider still at every weight up to 20 000 (the engines
    # take no budget, so the bound, not a ceiling, keeps larger n exact)
    spare = []
    for n, d in enumerate(_distinct_counts(20_000)):
        bound_bits = math.floor(math.pi * math.sqrt(n / 3) / math.log(2)) + 1
        assert d.bit_length() <= bound_bits < _limb_width_bits(n), n
        spare.append(_limb_width_bits(n) - d.bit_length())
    assert min(spare) == 5 and spare.index(5) == 6


# ---------------------------------------------------------------------------
# the tail engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_max, weights", [(60, range(61)), (300, range(6, 301, 7))])
def test_tail_counts_match_family_and_packed_dp(n_max, weights):
    assert len(ALL_PAIRS) == 70
    for spec in ALL_PAIRS:
        full = pd_distribution_family(n_max, spec)
        family = [full[s] for s in weights]
        # so a tail of the family is a tail of the packed DP too
        packed = oracles.packed_dp_family(n_max, spec.N, spec.alpha, spec.beta)
        assert [d.counts for d in family] == [packed[s] for s in weights], spec
        for c in _thresholds(m_max(n_max)):
            tails = tail_counts(spec, weights, [c] * len(weights))
            assert tails == [count_at_least_of(d, c) for d in family], (spec, c)


def test_tail_counts_with_a_threshold_per_weight():
    # compare passes ceil(c0 n^{1/4}) per weight; here every weight also gets
    # a threshold of its own, runs of equal ones and a revisited one included
    weights = range(2, 301, 3)
    for spec in (SPEC212, ParitySpec(3, 2, 3), ParitySpec(5, 1, 2), ParitySpec(6, 6, 1)):
        full = pd_distribution_family(300, spec)
        family = [full[s] for s in weights]
        for thresholds in (
            [math.ceil(0.75 * n**0.25) for n in weights],
            [-math.ceil(0.5 * n**0.25) for n in weights],
            [(7 * i) % 31 - 15 + (i % 3) / 3 for i in range(len(weights))],
            [3 if i % 10 < 5 else -1 for i in range(len(weights))],
        ):
            tails = tail_counts(spec, weights, thresholds)
            assert tails == [count_at_least_of(d, c) for d, c in zip(family, thresholds)]


def test_tail_counts_of_both_class_orders_add_up_to_d():
    # pd_{beta,alpha} = -pd_{alpha,beta}, so the tails k >= c and k' >= 1 - c
    # of the two orders split the partitions of each weight
    d = _distinct_counts(400)
    weights = range(401)
    for spec in ALL_PAIRS[::3]:
        for c in (-30, -3, -1, 0, 1, 2, 5, 30):
            tail = tail_counts(spec, weights, [c] * len(weights))
            mirror = tail_counts(spec.swapped(), weights, [1 - c] * len(weights))
            assert [a + b for a, b in zip(tail, mirror)] == d, (spec, c)


@pytest.mark.parametrize("n_max", [28, 78])
def test_tail_counts_fit_limbs_with_no_spare_bit(monkeypatch, n_max):
    # d(n_max) fills its whole bytes exactly (8 and 16 bits), so with limbs of
    # exactly that width any suffix sum, Horner level or partial division
    # whose limbs exceeded d(n_max) would carry into the next limb
    W = _distinct_counts(n_max)[n_max].bit_length()
    assert W % 8 == 0
    monkeypatch.setattr(exact, "_limb_width_bits", lambda n: W)
    weights = range(n_max + 1)
    for spec in ALL_PAIRS:
        packed = oracles.packed_dp_family(n_max, spec.N, spec.alpha, spec.beta)
        for c in range(-m_max(n_max) - 2, m_max(n_max) + 3):
            tails = tail_counts(spec, weights, [c] * len(weights))
            assert tails == [sum(v for k, v in row.items() if k >= c) for row in packed]


@pytest.mark.parametrize(
    "spec, n",
    [
        (ParitySpec(2, 1, 2), 2000),
        (ParitySpec(2, 1, 2), 2040),
        (ParitySpec(5, 1, 2), 2300),
        (ParitySpec(5, 1, 2), 2340),
        (ParitySpec(3, 2, 3), 2200),
        (ParitySpec(3, 2, 3), 2240),
    ],
)
def test_tail_counts_match_single_engine(spec, n):
    dist = pd_distribution(n, spec)
    for c in (-50, -2, -1, 0, 0.5, 2, 4, 50):
        assert tail_counts(spec, range(n, n + 1), [c]) == [count_at_least_of(dist, c)], c


def test_tail_counts_edge_cases():
    assert tail_counts(SPEC212, range(0), []) == []
    assert tail_counts(SPEC212, range(3), [0, 0, 0]) == [1, 1, 0]  # d(2) = 1, pd(2) = -1
    assert tail_counts(SPEC212, range(100, 101), [1e300]) == [0]
    assert tail_counts(SPEC212, range(100, 101), [-1e300]) == [count_distinct(100)]
    assert tail_counts(SPEC212, range(100, 101), [-(10**400)]) == [count_distinct(100)]
    with pytest.raises(ValueError, match="one value per weight"):
        tail_counts(SPEC212, range(5), [0])
    # a negative step, a negative start, each with and without weight 0
    for weights in (range(-1, 5), range(-3, 60, 2), range(5, 0, -1), range(60, -1, -1)):
        with pytest.raises(ValueError, match="weights must be a range"):
            tail_counts(SPEC212, weights, [0] * len(weights))
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold must be finite"):
            tail_counts(SPEC212, range(3), [0, c, 0])
