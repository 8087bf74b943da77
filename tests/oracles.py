"""Independent reference implementations backing the test suite.

Everything in this file is deliberately written with a different algorithm
and a different code shape from the package under test: include/exclude
subset recursion instead of largest-part-first generation, a dict-of-Counter
DP instead of packed big-integer limbs, a packed DP over every part instead
of the package's family engine, one dot product per column pair instead of
the package's transposed single-weight engine, a plain one-dimensional DP
for the distinct-part counting sequence, and the Fraction recurrence for
Bernoulli numbers instead of integer tangent numbers.  If the package and
this file agree, the agreement means something.  The one exception is the
contour trapezoid, which the package rounds exactly as numpy does: its oracle
is the same rule run by numpy's vectorised operations.
"""

import math
from collections import Counter
from fractions import Fraction
from typing import Iterator


def distinct_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Distinct-part partitions of n as decreasing tuples (include/exclude)."""

    def go(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        p = min(cap, remaining)
        if p * (p + 1) // 2 < remaining:
            return  # even 1+2+...+p can't reach the remainder
        for rest in go(remaining - p, p - 1):
            yield (p,) + rest
        yield from go(remaining, p - 1)

    yield from go(n, n)


def pd_of_parts(parts: tuple[int, ...], N: int, alpha: int, beta: int) -> int:
    hits_a = sum(1 for p in parts if p % N == alpha % N)
    hits_b = sum(1 for p in parts if p % N == beta % N)
    return hits_a - hits_b


def pd_histogram(n: int, N: int, alpha: int, beta: int) -> dict[int, int]:
    """Exact f(k) by full enumeration; practical up to n around 50."""
    hist: Counter = Counter()
    for parts in distinct_partitions(n):
        hist[pd_of_parts(parts, N, alpha, beta)] += 1
    return dict(hist)


def residue_count_histograms(n_max: int, moduli: tuple[int, ...]) -> dict[int, list[Counter]]:
    """Per modulus N and weight s <= n_max, a Counter over the tuples
    (count of parts in residue 0, ..., count in residue N-1) of the
    distinct-part partitions of s.

    A DP over the parts 1..n_max that keeps one Counter of tuples per weight:
    taking part p adds the tuples of weight s - p, with p's residue counted
    once more, to weight s, from the top weight down so each part is taken
    at most once.  Every (alpha, beta) histogram for that N reduces from it.
    """
    out: dict[int, list[Counter]] = {}
    for N in moduli:
        table: list[Counter] = [Counter() for _ in range(n_max + 1)]
        table[0][(0,) * N] = 1
        for p in range(1, n_max + 1):
            r = p % N
            for s in range(n_max, p - 1, -1):
                into = table[s]
                for cnt, mult in table[s - p].items():
                    into[cnt[:r] + (cnt[r] + 1,) + cnt[r + 1 :]] += mult
        out[N] = table
    return out


def reduce_to_pd(residue_hist: Counter, N: int, alpha: int, beta: int) -> dict[int, int]:
    hist: Counter = Counter()
    for cnt, mult in residue_hist.items():
        hist[cnt[alpha % N] - cnt[beta % N]] += mult
    return dict(hist)


def count_distinct_upto(n_max: int) -> list[int]:
    """d(0..n_max): one-dimensional DP, each part usable at most once."""
    row = [0] * (n_max + 1)
    row[0] = 1
    for part in range(1, n_max + 1):
        for s in range(n_max, part - 1, -1):
            row[s] += row[s - part]
    return row


def pd_histograms_upto(n_max: int, N: int, alpha: int, beta: int) -> list[dict[int, int]]:
    """f(k) for every weight <= n_max via a dict-based DP (mid-size oracle)."""
    ra, rb = alpha % N, beta % N
    table: list[Counter] = [Counter() for _ in range(n_max + 1)]
    table[0][0] = 1
    for part in range(1, n_max + 1):
        step = 1 if part % N == ra else -1 if part % N == rb else 0
        for w in range(n_max, part - 1, -1):
            lower = table[w - part]
            if lower:
                tw = table[w]
                for k, v in lower.items():
                    tw[k + step] += v
    return [dict(t) for t in table]


def packed_dp_family(n_max: int, N: int, alpha: int, beta: int) -> list[dict[int, int]]:
    """f_s(k) for every weight s <= n_max by the packed DP over parts 1..n_max.

    One Python int per difference k holds a series whose s-th W-bit limb is
    f_s(k); taking part p adds the neighbouring row shifted by p limbs.  This
    visits every part and every difference row (about n^2.7), so it is the
    large-n reference for the package's family engine, not a fast path.
    """
    W = 8 * (count_distinct_upto(n_max)[-1].bit_length() // 8 + 1)  # every limb <= d(n_max)
    m = 0
    while (m + 1) * (m + 2) // 2 <= n_max:
        m += 1  # most parts a distinct-part partition of n_max can have
    width = 2 * m + 1
    mask = (1 << ((n_max + 1) * W)) - 1
    ra, rb = alpha % N, beta % N
    state = [0] * width
    state[m] = 1  # the empty partition: sum 0, difference 0
    for p in range(1, n_max + 1):
        sh = p * W
        r = p % N
        if r == ra:
            # taking p moves k -> k+1; iterate downward so each p is used once
            for i in range(width - 1, 0, -1):
                state[i] = (state[i] + (state[i - 1] << sh)) & mask
        elif r == rb:
            for i in range(width - 1):
                state[i] = (state[i] + (state[i + 1] << sh)) & mask
        else:
            for i in range(width):
                state[i] = (state[i] + (state[i] << sh)) & mask
    Wb = W // 8
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for i, packed in enumerate(state):
        blob = packed.to_bytes((n_max + 1) * Wb, "little")
        for s in range(n_max + 1):
            c = int.from_bytes(blob[s * Wb : (s + 1) * Wb], "little")
            if c:
                rows[s][i - m] = c
    return rows


def dot_product_counts(n: int, N: int, alpha: int, beta: int) -> dict[int, int]:
    """f(k) at one weight n >= 1 by class-factored columns and dot products.

    The generating function factorises by residue class, and Euler's
    identity gives each class side in closed form: the z^j column of the
    alpha side is A_j = q^{alpha j + N j(j-1)/2} / prod_{i<=j} (1 - q^{Ni}),
    likewise B_l on the beta side, and the neutral classes multiply to D.
    Every series is a full-width packed integer truncated at degree n, and
    f(k) is the sum over j - l = k of [q^n] A_j * (B_l * D), one dot product
    of unpacked limbs per column pair.  Keys come in ascending k order.
    """
    # every limb is at most d(n) <= e^{pi sqrt(n/3)} < 2^W
    W = 8 * (int(math.pi * math.sqrt(n / 3) / math.log(2)) // 8 + 1)
    Wb = W // 8
    mask = (1 << ((n + 1) * W)) - 1

    def columns(seed: int, r: int) -> Iterator[tuple[int, int]]:
        x, low, j = seed, 0, 0
        while low <= n:
            yield low, x
            x = (x << (r + N * j) * W) & mask
            low += r + N * j
            j += 1
            a = N * j  # 1 / (1 - q^a) = (1 + q^a)(1 + q^{2a})(1 + q^{4a})...
            while a <= n:
                x = (x + (x << a * W)) & mask
                a *= 2

    def limbs(x: int, start: int, stride: int) -> list[int]:
        blob = x.to_bytes((n + 1) * Wb, "little")
        return [
            int.from_bytes(blob[i : i + Wb], "little")
            for i in range(start * Wb, (n + 1) * Wb, stride * Wb)
        ]

    D = 1
    for r in range(1, N + 1):
        if r not in (alpha, beta):
            D = sum(x for _, x in columns(D, r))
    a_cols = [(low, limbs(x, low, N)) for low, x in columns(1, alpha)]
    counts: dict[int, int] = {}
    for l, (low_e, e) in enumerate(columns(D, beta)):
        e_rev = limbs(e, low_e, 1)[::-1]  # e_rev[s] = E_l[n - s] for s <= n - low_e
        for j, (low_a, a) in enumerate(a_cols):
            if low_a > n - low_e:
                break
            term = sum(x * y for x, y in zip(a, e_rev[low_a::N]))
            if term:
                counts[j - l] = counts.get(j - l, 0) + term
    return {k: counts[k] for k in sorted(counts)}


def numpy_contour_integral(A: float, B: float, n: int, theta: float, mesh: int) -> complex:
    """paritylab.nr_contour_integral by numpy's linspace, exp, log and trapezoid.

    The contour is |y| <= theta, with mesh and 2 mesh trapezoid intervals.
    """
    import numpy as np

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
    value = (4.0 * t2 - t1) / 3.0
    return value * n ** ((2.0 * A + 3.0) / 4.0)


def bernoulli_numbers(r_max: int) -> list[Fraction]:
    """B_0..B_{r_max} by B_r = -1/(r+1) sum_{k<r} C(r+1, k) B_k, B_1 = -1/2."""
    table = [Fraction(1)]
    for r in range(1, r_max + 1):
        acc = Fraction(0)
        for k in range(r):
            acc += math.comb(r + 1, k) * table[k]
        table.append(-acc / (r + 1))
    return table
