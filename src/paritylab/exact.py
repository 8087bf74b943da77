"""Exact counting of partitions into distinct parts, stratified by parity difference.

A partition of n into distinct parts is a strictly decreasing tuple of positive
integers summing to n.  For a modulus N and residue classes alpha, beta in
1..N, the parity difference of a partition is

    pd(lambda) = #{parts == alpha (mod N)} - #{parts == beta (mod N)}.

This module computes, with exact big-integer arithmetic, the full distribution
n |-> {k: f(k)} where f(k) is the number of distinct-part partitions of n with
parity difference exactly k, and the derived tail counts
sum_{k >= ceil(c)} f(k).  No floats enter any computation here.

Both engines keep series packed: one Python integer whose s-th W-bit limb
holds the coefficient of q^s, so multiplying by 1 + q^p is one shifted
big-integer addition (shift by p*W bits), truncated at degree n.  Each job
runs exactly one engine:

* pd_distribution (one weight n) uses the class-factored engine.  The
  generating function factorises by residue class,

      prod_{p == alpha} (1 + z q^p) * prod_{p == beta} (1 + q^p / z)
          * prod_{other p} (1 + q^p),

  and Euler's identity puts each class side in closed form: the z^j column of
  the alpha side is A_j = q^{alpha j + N j(j-1)/2} / prod_{i<=j} (1 - q^{Ni}),
  and likewise B_l on the beta side.  The neutral product D, the columns A_j
  and the columns E_l = B_l * D are all built by shifts and doubling adds
  (a division by 1 - q^a is the product of 1 + q^a, 1 + q^{2a}, ...), and
  f(k) is the degree-n coefficient of sum_{j - l = k} A_j * E_l: a dot
  product of unpacked limbs per column pair, about n^2 limb products in all.
* pd_distribution_family (every weight s <= n_max) keeps one packed series
  per difference k, whose s-th limb is f_s(k).  The same closed forms are
  full series truncated at degree n_max, so they carry every weight at once:
  row k = j starts as D * A_j, and only the beta side runs a DP, one shifted
  add per beta part and row (the source masked to the limbs that stay at
  degree <= n_max).  For N = 2 that is about 6 s at n_max = 3000, roughly
  n^3, and larger N is faster.

Limbs never overflow.  Every limb at degree s <= n of every packed series
either engine builds (A_j, E_l, D and every partial sum on the way to them,
or a family row at any point of the beta pass) is coefficientwise at most a
series that counts partitions of s into distinct parts, so it is at most
d(s) <= d(n).  And d(n) q^n <= prod_k (1 + q^k) <= exp(pi^2 / (12 t)) at
q = e^{-t}; t = pi / sqrt(12 n) gives d(n) <= e^{pi sqrt(n/3)} < 2^(W-15)
for the W of _limb_width_bits (in practice d(n) < 2^(W-16)).  Shifts and
carries only move upward, so truncating at degree n drops exactly the terms
above n.  The unpacked dot products are plain Python integers.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CEILING",
    "CEILING_ENV_VAR",
    "CeilingExceeded",
    "EnumerationLimitExceeded",
    "Partition",
    "ParitySpec",
    "PdDistribution",
    "m_max",
    "exact_ceiling",
    "enumerate_distinct",
    "pd",
    "pd_distribution",
    "pd_distribution_family",
    "count_at_least_of",
    "count_distinct",
    "parity_bias",
]

DEFAULT_CEILING = 5000
CEILING_ENV_VAR = "PARITY_LAB_CEILING"


class CeilingExceeded(Exception):
    """The requested n is above the exact-compute budget.

    Exact arithmetic is this module's contract: above the ceiling we refuse
    rather than silently degrade to floating point.
    """


class EnumerationLimitExceeded(Exception):
    """enumerate_distinct was asked for more partitions than its cap."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A partition into distinct parts: strictly decreasing positive parts."""

    parts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise ValueError("all parts must be >= 1")
        if any(a <= b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be strictly decreasing")
        if sum(self.parts) != self.n:
            raise ValueError(f"parts sum to {sum(self.parts)}, not {self.n}")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts), sum(parts))


@dataclass(frozen=True)
class ParitySpec:
    """Modulus N >= 2 and the two residue classes alpha != beta in 1..N."""

    N: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("modulus N must be >= 2")
        if not (1 <= self.alpha <= self.N and 1 <= self.beta <= self.N):
            raise ValueError("alpha and beta must lie in 1..N")
        if self.alpha == self.beta:
            raise ValueError("alpha and beta must differ")

    def swapped(self) -> "ParitySpec":
        return ParitySpec(self.N, self.beta, self.alpha)


@dataclass(frozen=True)
class PdDistribution:
    """Exact counts f(k) of distinct-part partitions of n by parity difference k.

    Only nonzero counts are stored; keys are in ascending k order.  The counts
    always satisfy sum_k f(k) = d(n) and vanish for |k| > m_max(n).
    """

    n: int
    spec: ParitySpec
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)


# ---------------------------------------------------------------------------
# ceilings and bounds
# ---------------------------------------------------------------------------


def exact_ceiling(override: int | None = None) -> int:
    """Resolve the exact-compute ceiling: explicit arg, else env var, else default."""
    if override is not None:
        return override
    env = os.environ.get(CEILING_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_CEILING


def _check_ceiling(n: int, override: int | None) -> None:
    ceiling = exact_ceiling(override)
    if n > ceiling:
        raise CeilingExceeded(
            f"n = {n} exceeds the exact-compute ceiling {ceiling} "
            f"(set {CEILING_ENV_VAR} or pass a higher ceiling to raise the budget)"
        )


def m_max(n: int) -> int:
    """Maximum number of parts of a distinct-part partition of n.

    The m smallest distinct parts sum to at least 1+2+...+m = m(m+1)/2, so the
    part count is bounded by the integer root floor((sqrt(8n+1)-1)/2).  |pd| is
    bounded by the part count, hence by this value too.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (math.isqrt(8 * n + 1) - 1) // 2


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def enumerate_distinct(n: int, limit: int | None = None) -> list[Partition]:
    """All distinct-part partitions of n, largest part first, in descending
    lexicographic order: for n=8 that is (8),(7,1),(6,2),(5,3),(5,2,1),(4,3,1).

    `limit` caps the number of partitions produced; exceeding it raises
    EnumerationLimitExceeded, signalling an infeasible enumeration.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            if limit is not None and len(out) >= limit:
                raise EnumerationLimitExceeded(
                    f"more than {limit} partitions requested for n = {n}"
                )
            out.append(Partition(prefix, n))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p - 1, prefix + (p,))

    rec(n, n, ())
    return out


def pd(partition: Partition, spec: ParitySpec) -> int:
    """Parity difference: #parts == alpha (mod N) minus #parts == beta (mod N).

    Residues are compared via representatives 1..N, i.e. a part p matches
    alpha iff p % N == alpha % N (so alpha = N matches residue 0).
    """
    ra = spec.alpha % spec.N
    rb = spec.beta % spec.N
    diff = 0
    for p in partition.parts:
        r = p % spec.N
        if r == ra:
            diff += 1
        elif r == rb:
            diff -= 1
    return diff


# ---------------------------------------------------------------------------
# packed series, shared by both engines
# ---------------------------------------------------------------------------


def _limb_width_bits(n: int) -> int:
    """Bits per packed limb: enough for every count f_s(k) <= d(s) <= d(n).

    log2 d(n) <= pi*sqrt(n/3)/ln 2 + O(log n); 16 guard bits absorb the
    lower-order factor, and the total is rounded up to a whole number of bytes
    so limb extraction is a bytes slice.
    """
    bound = math.pi * math.sqrt(max(n, 1) / 3.0) / math.log(2.0)
    bits = int(bound) + 16
    return ((bits + 7) // 8) * 8


def _unpack(packed: int, W: int, n: int, start: int, stride: int) -> list[int]:
    """Limbs start, start + stride, ... <= n of a packed series."""
    Wb = W // 8
    blob = packed.to_bytes((n + 1) * Wb, "little")
    return [
        int.from_bytes(blob[i : i + Wb], "little")
        for i in range(start * Wb, (n + 1) * Wb, stride * Wb)
    ]


def _sorted_counts(row: dict[int, int]) -> dict[int, int]:
    return {k: row[k] for k in sorted(row)}


# ---------------------------------------------------------------------------
# class columns (Euler's identity), shared by both engines
# ---------------------------------------------------------------------------


def _class_columns(
    seed: int, r: int, N: int, n: int, W: int, mask: int
) -> Iterator[tuple[int, int]]:
    """Yield (lowest degree, seed * X_j) for j = 0, 1, ... while X_j has a term
    of degree <= n, as packed W-bit-limb series truncated at degree n.

    X_j = q^{rj + Nj(j-1)/2} / prod_{i<=j} (1 - q^{Ni}) is Euler's closed form
    for the z^j coefficient of prod_{p == r (mod N)} (1 + z q^p), with r in
    1..N the smallest such part.  Column j comes from column j - 1 by a shift
    of r + N(j-1) limbs and a division by 1 - q^{Nj}, which is the product of
    (1 + q^a) over a = Nj, 2Nj, 4Nj, ... <= n: one shifted add per factor.
    """
    x, low, j = seed, 0, 0
    while True:
        yield low, x
        step = r + N * j
        low += step
        j += 1
        if low > n:
            return
        x = (x << step * W) & mask
        a = N * j
        while a <= n:
            x = (x + (x << a * W)) & mask
            a *= 2


def _neutral_series(n: int, spec: ParitySpec, W: int, mask: int) -> int:
    """D = prod (1 + q^p) over the parts p <= n in neither class, packed."""
    N = spec.N
    D = 1
    for r in range(1, N + 1):
        if r != spec.alpha and r != spec.beta:
            # D * prod_{p == r} (1 + q^p) = sum_j D * X_j, by Euler's identity at z = 1
            D = sum(x for _, x in _class_columns(D, r, N, n, W, mask))
    return D


# ---------------------------------------------------------------------------
# one weight
# ---------------------------------------------------------------------------


def _class_factored_counts(n: int, spec: ParitySpec) -> dict[int, int]:
    """f(k) = [q^n] sum_{j - l = k} A_j * B_l * D for one weight n >= 1.

    A_j and B_l are the alpha and beta class columns (see _class_columns) and
    D is the neutral series (see _neutral_series).  The beta side is built as
    E_l = B_l * D by seeding its recurrence with D, so no two series are ever
    multiplied: only the degree-n coefficient of A_j * E_l is needed, a dot
    product of unpacked limbs.
    """
    N = spec.N
    W = _limb_width_bits(n)
    mask = (1 << ((n + 1) * W)) - 1
    D = _neutral_series(n, spec, W, mask)
    # A_j is q^{low} times a series in q^N: keep only limbs low, low + N, ...
    a_cols = [
        (low, _unpack(x, W, n, low, N))
        for low, x in _class_columns(1, spec.alpha, N, n, W, mask)
    ]
    counts: dict[int, int] = {}
    for l, (low_e, e) in enumerate(_class_columns(D, spec.beta, N, n, W, mask)):
        # e_rev[s] = E_l[n - s], the limb paired with A_j[s]; s <= n - low_e
        e_rev = _unpack(e, W, n, low_e, 1)[::-1]
        top = n - low_e
        for j, (low_a, a) in enumerate(a_cols):
            if low_a > top:
                break
            term = sum(map(operator.mul, a, e_rev[low_a : top + 1 : N]))
            if term:
                counts[j - l] = counts.get(j - l, 0) + term
    return counts


def pd_distribution(
    n: int, spec: ParitySpec, ceiling: int | None = None
) -> PdDistribution:
    """Exact parity-difference distribution of the distinct-part partitions of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_ceiling(n, ceiling)
    if n == 0:
        return PdDistribution(0, spec, {0: 1})
    return PdDistribution(n, spec, _sorted_counts(_class_factored_counts(n, spec)))


# ---------------------------------------------------------------------------
# every weight
# ---------------------------------------------------------------------------


def _family_state(n: int, spec: ParitySpec) -> tuple[list[int], int, int]:
    """Return (state, offset m, limb width W) for every weight <= n at once.

    state[i] is a packed series whose s-th W-bit limb is f_s(i - m).  The
    neutral and alpha sides are closed forms: row m + j starts as D * A_j.
    The beta parts p = beta, beta + N, ... <= n then each move difference
    k + 1 to k (row i + 1 to row i, ascending i so every part is taken at
    most once).  Only the limbs of degree <= n - p of the source can land at
    degree <= n, so the source is masked to them before the shift, and the
    sum stays below 2^{(n+1)W} by the no-overflow argument in the module
    docstring.
    """
    N = spec.N
    W = _limb_width_bits(n)
    m = m_max(n)
    mask = (1 << ((n + 1) * W)) - 1
    D = _neutral_series(n, spec, W, mask)
    state = [0] * (2 * m + 1)
    for j, (_, x) in enumerate(_class_columns(D, spec.alpha, N, n, W, mask)):
        state[m + j] = x
    for p in range(spec.beta, n + 1, N):
        sh = p * W
        low = (1 << ((n + 1 - p) * W)) - 1
        for i in range(2 * m):
            src = state[i + 1]
            if src:
                state[i] += (src & low) << sh
    return state, m, W


def _extract_rows(state: list[int], m: int, W: int, n: int) -> list[dict[int, int]]:
    """Unpack limbs: rows[s] = {k: f_s(k)} for every weight s <= n."""
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for i, packed in enumerate(state):
        if packed:
            for s, c in enumerate(_unpack(packed, W, n, 0, 1)):
                if c:
                    rows[s][i - m] = c
    return rows


def pd_distribution_family(
    n_max: int, spec: ParitySpec, ceiling: int | None = None
) -> list[PdDistribution]:
    """Distributions for every 0 <= n <= n_max from a single pass.

    Every packed series carries one limb per weight, so the whole family
    costs one pass at n_max: closed-form neutral and alpha sides, then one
    shifted add per beta part and difference row (about 6 s at n_max = 3000
    for N = 2, less for larger N).  Sweep commands and the n-by-n acceptance
    checks use this instead of n_max separate runs.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_ceiling(n_max, ceiling)
    if n_max == 0:
        return [PdDistribution(0, spec, {0: 1})]
    state, m, W = _family_state(n_max, spec)
    rows = _extract_rows(state, m, W, n_max)
    return [PdDistribution(s, spec, _sorted_counts(row)) for s, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# derived counts
# ---------------------------------------------------------------------------


def count_at_least_of(dist: PdDistribution, c: float) -> int:
    """Number of distinct-part partitions of n with parity difference >= c.

    pd takes integer values, so the real threshold resolves losslessly to
    ceil(c) before anything is counted: the sum is over k >= ceil(c).
    """
    kc = math.ceil(c)
    return sum(v for k, v in dist.counts.items() if k >= kc)


def count_distinct(n: int, ceiling: int | None = None) -> int:
    """d(n): the number of partitions of n into distinct parts.

    Computed by the plain single-variable recurrence (each part used 0 or 1
    times), independent of the packed parity DP; equals the total of any
    pd_distribution of the same n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_ceiling(n, ceiling)
    dp = [0] * (n + 1)
    dp[0] = 1
    for p in range(1, n + 1):
        for s in range(n, p - 1, -1):
            dp[s] += dp[s - p]
    return dp[n]


def parity_bias(dist: PdDistribution, c: int) -> int:
    """pb(c) = f(c) - f(-c): the asymmetry of the distribution at level c >= 0."""
    if c < 0:
        raise ValueError("bias level c must be >= 0")
    return dist.count(c) - dist.count(-c)
