"""Exact counting of partitions into distinct parts, stratified by parity difference.

A partition of n into distinct parts is a strictly decreasing tuple of positive
integers summing to n.  For a modulus N and residue classes alpha, beta in
1..N, the parity difference of a partition is

    pd(lambda) = #{parts == alpha (mod N)} - #{parts == beta (mod N)}.

This module computes, with exact big-integer arithmetic, the full distribution
n |-> {k: f(k)} where f(k) is the number of distinct-part partitions of n with
parity difference exactly k, and the derived tail counts
sum_{k >= ceil(c)} f(k).  No floats enter any computation here.

Every engine keeps series packed: one Python integer whose i-th W-bit limb
holds a coefficient, so multiplying by 1 + q^p is one shifted big-integer
addition, truncated at degree n.  Each class column is kept shifted down by
its lowest degree, truncated to the limbs that reach degree n, and, when it
is a series in q^N, packed in q^N: limb i holds the coefficient of
q^{low + N i}, so its divisions touch 1/N of the limbs.  Such a column lies
in one lane, the degrees == low (mod N).  A column seeded by a dense series
is dense too, so the engines keep a series packed in q^N wherever its
lanes allow: the neutral product builds its first two classes in lanes,
and the single-weight engine puts the neutral product on the side where
the other side's columns stay packed.  Each job runs exactly one engine:

* pd_distribution (one weight n) uses the class-factored engine.  The
  generating function factorises by residue class,

      prod_{p == alpha} (1 + z q^p) * prod_{p == beta} (1 + q^p / z)
          * prod_{other p} (1 + q^p),

  and Euler's identity puts each class side in closed form: the z^j column of
  the alpha side is A_j = q^{alpha j + N j(j-1)/2} / prod_{i<=j} (1 - q^{Ni}),
  and likewise B_l on the beta side.  The neutral product D and the columns
  are all built by doubling adds (a division by 1 - q^a is the product of
  1 + q^a, 1 + q^{2a}, ...).  D rides on one side, as the seed of its
  recurrence.  When beta = N every B_l lies in lane 0, so D rides on the
  alpha side: C_j = A_j * D is dense, and E_l = B_l stays packed in q^N (a
  pair with alpha = N > 2 runs as its swapped pair, with the keys negated).
  Otherwise C_j = A_j is packed and E_l = B_l * D, dense unless N = 2
  leaves no neutral class.  f(k) is the degree-n coefficient of
  sum_{j - l = k} C_j * E_l.  The alpha columns are transposed once into
  row integers, one list per lane rho that some beta column meets: limb i
  of row u is C_j[rho + N u] for the i-th column that reaches the lane.  A
  beta column packed in q^N meets only the lane rho == n - low_l, which is
  the one lane n mod N when beta = N; a dense one meets every lane.  Each
  E_l meets a lane in one sum of products sum_u row_u * E_l[n - rho - N u],
  and limb i of that sum is the whole coefficient [q^n] C_j * E_l of one
  column pair.  Every limb of every E_l multiplies at most one row, so the
  Python-level work is at most one product per beta limb (19 000 to 50 000
  at the class pairs and weights 2000-2340 of perfbench's `single`
  workload), and the limb products, one per column pair and degree that
  can be nonzero (0.18 to 0.43 million there), run inside CPython's
  multiplication.
* pd_distribution_family (every weight s <= n_max) makes one packed row
  per difference k, whose s-th limb is f_s(k).  The same closed forms are
  full series truncated at degree n_max, so they carry every weight at once:
  row k >= 0 is sum_l C_{k+l} * B_l with C_j = D * A_j, evaluated by
  Horner's rule over the beta columns B_l, where each level is a division
  by 1 - q^{Nl} (again by doubling adds), a shift and the addition of one
  alpha stream column.  Row k < 0 comes from the reflection
  f_{alpha,beta}(k) = f_{beta,alpha}(-k), which holds because swapping the
  two classes and z with 1/z leaves the generating function unchanged: it
  is row -k of the swapped pair, sum_j C'_{-k+j} * A_j with C'_l = D * B_l,
  evaluated by Horner's rule over the alpha columns A_j.  So every level of
  either order adds a column; evaluated over B_l, a row k < 0 would start
  with -k levels that only divide, at the small moduli N l where a division
  takes the most doubling steps.  Each row is unpacked into the per-weight
  counts as soon as it is made.  For N = 2 this takes about 0.55 s at
  n_max = 3000, 1.9 s at 5000 and 9 s at 10 000, roughly n^2.5, and larger
  N is faster.
* tail_counts (the tails sum_{k >= c} f_s(k) at weights s <= n_max) makes
  one packed row per distinct threshold c, not every difference row.  With
  C_j = 0 for j < 0, row k is sum_l C_{k+l} * B_l for every k, negative k
  included, so the tail is

      T_c = sum_{k >= c} row_k = sum_l B_l * S_{max(c + l, 0)},
      S_m = sum_{j >= m} C_j:

  the family's Horner pass over the beta columns, with each stream column
  replaced, in place and from the last down, by its suffix sum.  S_m has
  C_m's lowest degree and keeps the same limbs, so the shifts and masks
  carry over, and for c < 0 the first -c levels add S_0, so no d(s) and no
  swapped pass is needed.  Each tail row is unpacked whole, like a family
  row, and indexed at the weights that carry its threshold, so no buffer
  depends on the step between them.  In process, at weights 1200-1430,
  one tail is 5 to 25 times faster than the family pass and its sums, and
  at one weight it is faster than the class-factored engine (about 2
  times at 2000-2340, 3 times at 10 000 for N = 2).

Limbs never overflow.  Every limb at degree s <= n of every packed series
an engine builds (A_j, B_l, E_l, D, C_j, C'_l and every partial sum on
the way to them) is coefficientwise at most a series that counts partitions
of s into distinct parts, so it is at most d(s) <= d(n); shifting a column
down or packing it in q^N, or splitting it into lanes, moves its limbs
but not their values.  So is every limb of a single-weight sum of
products: limb i of each partial sum is part of [q^n] C_j * E_l, one
column pair's share of f(j - l) <= d(n), whichever side D rides on, and
adding a product of nonnegative limbs only raises it towards that share.
So is every Horner level of a family row, in either class order, and of a
tail row.  Write the row as sum_l Y_{k+l} * X_l with k >= 0, where X_l is
the column the Horner pass divides by and Y_j the stream column it adds:
X = B and Y = C for rows k >= 0, X = A and Y = C' for the swapped pair's
rows, which are the rows -k.  Level l is G^(l) = sum_{l' >= l} Y_{k+l'} * X_{l'} / X_l,
and since X_{l'} = X_l * (X_{l'} / X_l), where X_l / q^{low_l} =
1 / prod_{i<=l} (1 - q^{Ni}) has constant term 1 and nonnegative
coefficients (for either class), q^{low_l} G^(l) <= sum_{l'} Y_{k+l'}
X_{l'} (the row) coefficientwise.  A level keeps only its limbs of degree
<= n - low_l, so each is at most d(n), and each partial product of the
division that leads to a level is at most that level.  A tail row is the
same sum with Y_{k+l'} = S_{max(c+l', 0)}, so each of its levels is at most
T_c, which is at most sum_k row_k = D * prod_{p == alpha} (1 + q^p) *
prod_{p == beta} (1 + q^p), the series of all partitions into distinct
parts; and each suffix sum S_m is at most sum_j C_j, which counts the
distinct-part partitions with no part in the beta class.  And d(n) q^n <=
prod_k (1 + q^k) <= exp(pi^2 / (12 t)) at q = e^{-t}; t = pi / sqrt(12 n)
gives d(n) <= e^{pi sqrt(n/3)}, so d(n) has at most
floor(pi sqrt(n/3) / ln 2) + 1 bits, one fewer than the W of
_limb_width_bits (in practice d(n) sits about 10 bits below the bound).
Shifts and carries only move upward, so truncating at degree n drops
exactly the terms above n.

The engines take no budget: they compute any n they are given, exactly, and
the argument above holds at every n.  What a job may
cost is the caller's decision; the command line refuses weights above its
budget (paritylab.cli) before any engine runs.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections.abc import Iterator, Sequence

__all__ = [
    "Partition",
    "ParitySpec",
    "PdDistribution",
    "m_max",
    "lattice_span",
    "enumerate_distinct",
    "pd",
    "pd_distribution",
    "pd_distribution_family",
    "tail_counts",
    "count_at_least_of",
    "count_distinct",
    "parity_bias",
]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class _Record:
    """Base of the package's records: a fixed list of fields, compared by value.

    A record lists its fields, in order, as __slots__; every field is
    required.  The record gets positional and keyword construction, the repr
    Name(field=value, ...), field-by-field equality with records of the same
    class, and a call to __post_init__, where it can validate its fields.  A
    record refuses assignment and deletion of its fields and hashes them.
    These are the semantics of a frozen dataclass, with no import of
    the dataclass machinery (which loads inspect, ast and dis, ~12 ms) and no
    code generated per class at import (~1 ms each).
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        init = object.__setattr__
        for field, value in zip(fields, args):
            init(self, field, value)
        for field in fields[len(args) :]:
            if field not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
            init(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected or repeated arguments {sorted(kwargs)}"
            )
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; records with constraints override this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self) -> tuple:
        # rebuild through __init__, which sets the fields past __setattr__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Partition(_Record):
    """A partition into distinct parts: strictly decreasing positive parts."""

    __slots__ = ("parts", "n")
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


class ParitySpec(_Record):
    """Modulus N >= 2 and the two residue classes alpha != beta in 1..N."""

    __slots__ = ("N", "alpha", "beta")
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


class PdDistribution(_Record):
    """Exact counts f(k) of distinct-part partitions of n by parity difference k.

    Only nonzero counts are stored; keys are in ascending k order.  The counts
    always satisfy sum_k f(k) = d(n) and vanish for |k| > m_max(n).
    """

    __slots__ = ("n", "spec", "counts")
    n: int
    spec: ParitySpec
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def m_max(n: int) -> int:
    """Maximum number of parts of a distinct-part partition of n.

    The m smallest distinct parts sum to at least 1+2+...+m = m(m+1)/2, so the
    part count is bounded by the integer root floor((sqrt(8n+1)-1)/2).  |pd| is
    bounded by the part count, hence by this value too.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (math.isqrt(8 * n + 1) - 1) // 2


def lattice_span(spec: ParitySpec) -> int:
    """h = gcd(N, alpha + beta, every residue in neither class): pd's span.

    Mod h every neutral part is 0 and beta == -alpha, so n == alpha * pd and
    pd keeps one residue mod h at each weight.  h is 3 for (3, {1, 2}), 2 for
    (4, {1, 3}) and 1 otherwise; for N > 5 the neutral residues among 1..5
    already have gcd 1 (no three of 1..5 share a factor), so the residues
    above 5 never matter, however large N is.
    """
    neutral = (r for r in range(1, min(spec.N, 5) + 1) if r not in (spec.alpha, spec.beta))
    return math.gcd(spec.N, spec.alpha + spec.beta, *neutral)


def _require_span_one(spec: ParitySpec, what: str) -> None:
    """Raise ValueError on a lattice pair (lattice_span > 1), where pd keeps
    one residue mod h at each weight and the level-by-level limits fail."""
    h = lattice_span(spec)
    if h > 1:
        raise ValueError(
            f"{what} does not hold for (N, alpha, beta) = "
            f"({spec.N}, {spec.alpha}, {spec.beta}), whose parity differences "
            f"have span {h}"
        )


def _finite_ceil(c: float) -> int:
    """ceil(c) of a finite threshold; an infinite or NaN one raises ValueError."""
    try:
        return math.ceil(c)
    except (OverflowError, ValueError):
        raise ValueError(f"threshold must be finite, got {c!r}") from None


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def enumerate_distinct(n: int) -> list[Partition]:
    """All distinct-part partitions of n, largest part first, in descending
    lexicographic order: for n=8 that is (8),(7,1),(6,2),(5,3),(5,2,1),(4,3,1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
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
# packed series, shared by every engine
# ---------------------------------------------------------------------------


def _limb_width_bits(n: int) -> int:
    """Bits per packed limb: enough for every count f_s(k) <= d(s) <= d(n).

    d(n) <= e^{pi sqrt(n/3)} (see the module docstring), so d(n) has at most
    floor(pi sqrt(n/3) / ln 2) + 1 bits.  One bit more absorbs a rounding of
    the float bound, and the total is rounded up to a whole number of bytes
    so a limb is a fixed-width bytes field (see _limbs).  The bound is a
    rigorous upper bound, not an estimate that needs guard bits: d(n) sits
    about 10 bits below it (7 at n = 100, 13 at n = 20 000), since the
    bound leaves out d(n)'s factor of order n^{-3/4}.
    """
    bound = math.pi * math.sqrt(max(n, 1) / 3.0) / math.log(2.0)
    bits = int(bound) + 2
    return ((bits + 7) // 8) * 8


def _limbs(blob: bytes | bytearray, Wb: int) -> list[int]:
    """The little-endian Wb-byte limbs of a byte string, lowest first.

    len(blob) is a multiple of Wb.  The struct module caches the compiled
    format, and the maps keep the loop over limbs out of Python bytecode.
    """
    chunks = map(operator.itemgetter(0), struct.iter_unpack(f"{Wb}s", blob))
    return list(map(int.from_bytes, chunks, itertools.repeat("little")))


def _unpack(packed: int, W: int, top: int) -> list[int]:
    """Limbs 0..top of a packed series."""
    Wb = W // 8
    return _limbs(packed.to_bytes((top + 1) * Wb, "little"), Wb)


# ---------------------------------------------------------------------------
# class columns (Euler's identity), shared by every engine
# ---------------------------------------------------------------------------


def _lowest_degrees(r: int, N: int, n: int) -> list[int]:
    """[low_0, low_1, ...]: low_j = rj + Nj(j-1)/2, the lowest degree of the
    z^j column of a class whose smallest part is r, for every j with low_j <= n.

    Built upward, one step low_j = low_{j-1} + r + N(j-1) per column, and
    stopped at the first degree above n: at N >= n every part up to n is a
    class of its own with at most two columns.
    """
    lows = [0]
    while (low := lows[-1] + r + N * (len(lows) - 1)) <= n:
        lows.append(low)
    return lows


def _class_columns(
    seed: int, g: int, r: int, N: int, n: int, W: int
) -> Iterator[tuple[int, int]]:
    """Yield (low_j, seed * X_j / q^{low_j}) for j = 0, 1, ... while low_j <= n.

    X_j = q^{low_j} / prod_{i<=j} (1 - q^{Ni}) is Euler's closed form for the
    z^j coefficient of prod_{p == r (mod N)} (1 + z q^p), with r in 1..N the
    smallest such part and low_j its lowest degree (see _lowest_degrees).
    The seed is a packed series in q^g, where g is 1 or N, and so is every
    column: limb i holds the coefficient of q^{low_j + g i}, for the limbs
    i <= (n - low_j) / g that reach degree n.  Column j comes from column
    j - 1 by a division by 1 - q^{Nj}, which is the product of (1 + q^a)
    over a = Nj, 2Nj, 4Nj, ... <= n - low_j: one shifted add per factor,
    over 1/g of the limbs a dense series would need.
    """
    x = seed
    for j, low in enumerate(_lowest_degrees(r, N, n)):
        if j:
            top = (n - low) // g
            mask = (1 << (top + 1) * W) - 1
            x = _divide_one_minus(x & mask, N * j // g, top, W, mask)
        yield low, x


def _divide_one_minus(x: int, a: int, top: int, W: int, mask: int) -> int:
    """x / (1 - q^a) truncated at degree top, packed.

    1 / (1 - q^a) = (1 + q^a)(1 + q^{2a})(1 + q^{4a})..., and the factors with
    a power above top leave limbs 0..top unchanged: one shifted add per factor,
    each truncated by mask = (1 << (top + 1) W) - 1, which the caller builds
    once and which x already fits.
    """
    while a <= top:
        x = (x + (x << a * W)) & mask
        a *= 2
    return x


def _neutral_series(n: int, spec: ParitySpec, W: int) -> int:
    """D = prod (1 + q^p) over the parts p <= n in neither class, packed.

    Each neutral class r multiplies D by sum_j X_j (Euler's identity at
    z = 1), one column at a time.  While D is a series in q^N, so is each
    column D * X_j / q^{low_j}: the class is built packed in q^N, and each
    column lies in the lane low_j mod N.  So class N (when it is neutral) is
    built first, seeded by 1, and its product lies in lane 0; the next
    neutral class, seeded by that product, is built packed too.  Their
    columns are summed lane by lane as they are made, in a dict (when N > n
    only a few of the N lanes are reached), and the lanes are then spread
    into one dense series by strided byte copies.  Only the classes after
    those are built dense, over every limb.
    """
    N = spec.N
    Wb = W // 8
    # a class with no part <= n is the factor 1
    neutral = [r for r in range(1, min(N, n) + 1) if r != spec.alpha and r != spec.beta]
    if not neutral:
        return 1
    if neutral[-1] == N:
        neutral.insert(0, neutral.pop())  # class N first
    packed = 2 if neutral[0] == N else 1  # the classes built in lanes
    lanes = {0: 1}  # limb i of lanes[lam] holds the coefficient of q^{lam + N i}
    for r in neutral[:packed]:
        seed = lanes.pop(0)  # D is a series in q^N so far
        for low, x in _class_columns(seed, N, r, N, n, W):
            lanes[low % N] = lanes.get(low % N, 0) + (x << low // N * W)
    dense = bytearray((n + 1) * Wb)
    while lanes:
        lam, x = lanes.popitem()
        blob = x.to_bytes(((n - lam) // N + 1) * Wb, "little")
        for b in range(Wb):  # byte b of each limb of the lane
            dense[lam * Wb + b :: N * Wb] = blob[b::Wb]
    D = int.from_bytes(dense, "little")
    del x, blob, dense  # not held while the dense classes are built
    for r in neutral[packed:]:
        D = sum(x << low * W for low, x in _class_columns(D, 1, r, N, n, W))
    return D


# ---------------------------------------------------------------------------
# one weight
# ---------------------------------------------------------------------------

_TABLE_BLOCK_BYTES = 1 << 20  # the most bytes of transposed limbs in one block of rows


def _alpha_rows(
    n: int, spec: ParitySpec, W: int, seed: int, lanes: set[int]
) -> list[tuple[int, list[int], list[int]]]:
    """The alpha columns C_j = seed * A_j transposed: one (rho, js, rows) per
    lane rho of `lanes` that some column reaches.

    Lane rho holds the degrees rho + N u.  Seeded by 1, C_j = A_j is
    q^{low_j} times a series in q^N, built packed in q^N, and lies in the
    one lane low_j mod N.  Seeded by a dense series, C_j is built dense and
    reaches every lane with a degree in low_j..n, and only the lanes asked
    for are copied out of it.  The columns j that reach lane rho (in js,
    ascending) are laid side by side: limb i of rows[u] is
    C_{js[i]}[rho + N u], zero below the column's lowest degree.  Each
    lane's limbs are copied into row-major byte tables as the columns are
    made, so no column outlives its copy.  A table holds a block of rows,
    of _TABLE_BLOCK_BYTES at most (or one row), and only the columns that
    reach the block, and the tables are turned into rows one at a time, so
    no more than one block is held both as bytes and as rows.
    """
    N = spec.N
    Wb = W // 8
    g = N if seed == 1 else 1
    lows = _lowest_degrees(spec.alpha, N, n)
    tables = []  # (rho, js, blocks of (first row, columns, table))
    slots: dict[int, list] = {}  # j: (rho, i, first row, blocks) of each lane it reaches
    for rho in lanes:
        # the columns j that reach lane rho, and the row of each one's first term there
        js = [
            j for j, low in enumerate(lows) if (rho - low) % N % g == 0 and low + (rho - low) % N <= n
        ]
        if not js:
            continue
        first = [-((rho - lows[j]) // N) for j in js]
        height = (n - rho) // N + 1
        per = max(1, _TABLE_BLOCK_BYTES // (len(js) * Wb))
        # the block of rows u.. holds the columns whose first row is below its
        # end, a prefix of js since the rows ascend with j (and at least one
        # column, so that its all-zero rows are limbs too)
        blocks = []
        for u in range(0, height, per):
            k = max(1, sum(f < u + per for f in first))
            blocks.append((u, k, bytearray(min(per, height - u) * k * Wb)))
        tables.append((rho, js, blocks))
        for i, j in enumerate(js):
            slots.setdefault(j, []).append((rho, i, first[i], blocks))
    for j, (low, x) in enumerate(_class_columns(seed, g, spec.alpha, N, n, W)):
        if j not in slots:
            continue
        blob = x.to_bytes(((n - low) // g + 1) * Wb, "little")
        step = N // g * Wb  # the stride of a lane's limbs in blob
        for rho, i, u0, blocks in slots.pop(j):
            for u, k, block in blocks:
                v = max(u0, u)  # the column's first row in the block, and its rows there
                count = len(block) // (k * Wb) - (v - u)
                if count > 0:
                    src = (rho + N * v - low) // g * Wb
                    # byte b of limb i of every row is a stride-(k Wb) slice of the block
                    dst = ((v - u) * k + i) * Wb
                    for b in range(Wb):
                        block[dst + b :: k * Wb] = blob[src + b : src + count * step : step]
        del blob  # not held while the next column is made
    for rho, js, blocks in tables:
        for b, (_, k, block) in enumerate(blocks):
            blocks[b] = _limbs(block, k * Wb)  # the table goes when `block` moves on
    return [(rho, js, list(itertools.chain.from_iterable(blocks))) for rho, js, blocks in tables]


def pd_distribution(n: int, spec: ParitySpec) -> PdDistribution:
    """Exact parity-difference distribution of the distinct-part partitions of n.

    f(k) = [q^n] sum_{j - l = k} A_j * B_l * D, where A_j and B_l are the
    alpha and beta class columns (see _class_columns) and D is the neutral
    series (see _neutral_series).  D rides on one side, as the seed of that
    side's recurrence, so no two series are ever multiplied: only the
    degree-n coefficient of each column pair's product is needed.  With
    beta = N every B_l lies in lane 0 (its degrees are multiples of N), so D
    rides on the alpha side, C_j = A_j * D, and E_l = B_l stays packed in
    q^N.  A pair with alpha = N > 2 runs as its swapped pair, with the keys
    negated (f_{alpha,beta}(k) = f_{beta,alpha}(-k)).  Otherwise C_j = A_j
    and E_l = B_l * D.  Each beta column meets a lane of alpha rows (see
    _alpha_rows) in one sum of products sum_u rows[u] * E_l[n - rho - N u],
    whose limb i is the whole coefficient [q^n] C_{js[i]} * E_l.  A beta
    column packed in q^N meets only the lane rho == n - low_l, so only the
    lanes that some beta column meets are transposed, and a beta column
    that meets none is never unpacked.  The counts are listed in ascending
    k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    N = spec.N
    if spec.alpha == N > 2:  # with N = 2 no neutral class leaves D = 1 to ride on either side
        swapped = pd_distribution(n, spec.swapped())
        return PdDistribution(n, spec, {-k: c for k, c in reversed(swapped.counts.items())})
    W = _limb_width_bits(n)
    D = _neutral_series(n, spec, W)
    seed_a, seed_b = (D, 1) if spec.beta == N else (1, D)
    g = N if seed_b == 1 else 1  # the beta columns are packed in q^g
    if g == N:
        lanes = {(n - low) % N for low in _lowest_degrees(spec.beta, N, n)}
    else:  # a dense beta column meets every lane of the (packed) alpha columns
        lanes = {low % N for low in _lowest_degrees(spec.alpha, N, n)}
    alpha_rows = _alpha_rows(n, spec, W, seed_a, lanes)
    counts: dict[int, int] = {}
    for l, (low_e, x) in enumerate(_class_columns(seed_b, g, spec.beta, N, n, W)):
        e = None  # e[i] = E_l[low_e + g i], unpacked when E_l first meets a lane
        for rho, js, rows in alpha_rows:
            # rows[u] meets E_l at degree n - rho - N u, limb (d - N u) / g of e
            d = n - rho - low_e
            if d < 0 or d % g:
                continue
            e = e or _unpack(x, W, (n - low_e) // g)
            acc = sum(map(operator.mul, rows, e[d // g :: -(N // g)]))
            if acc:
                for j, c in zip(js, _unpack(acc, W, len(js) - 1)):
                    if c:
                        counts[j - l] = counts.get(j - l, 0) + c
        del e  # not held while the next column is made
    return PdDistribution(n, spec, {k: counts[k] for k in sorted(counts)})


# ---------------------------------------------------------------------------
# Horner rows over the beta columns, shared by the family and tail engines
# ---------------------------------------------------------------------------


def _horner_columns(
    D: int, spec: ParitySpec, n: int, W: int
) -> tuple[list[int], list[int], list[int]]:
    """(cols, low_a, low_b): the alpha stream of spec and both classes' lowest degrees.

    cols[j] is C_j / q^{low_a[j]}, where C_j = D * A_j and low_a[j] is the
    lowest degree of A_j, keeping limbs 0..n - low_a[j] (see _class_columns);
    low_b[l] is the lowest degree of the beta column B_l.  Both lists of
    degrees end in the sentinel n + 1: no column pair past the last reaches
    degree n.
    """
    cols = [x for _, x in _class_columns(D, 1, spec.alpha, spec.N, n, W)]
    low_a = _lowest_degrees(spec.alpha, spec.N, n) + [n + 1]
    low_b = _lowest_degrees(spec.beta, spec.N, n) + [n + 1]
    return cols, low_a, low_b


def _horner_row(
    k: int, cols: list[int], low_a: list[int], low_b: list[int], spec: ParitySpec, n: int, W: int
) -> tuple[int, int]:
    """(e, G): sum_l cols[max(k + l, 0)] * B_l over the column pairs that reach
    degree n, divided by q^e, where e is its lowest degree; G keeps limbs 0..n - e.

    cols, low_a and low_b are as _horner_columns returns them, and
    low_a[max(k, 0)] <= n.  B_l = B_{l-1} * q^{d_l} / (1 - q^{Nl}) with
    d_l = low_b[l] - low_b[l-1], so the sum is one Horner pass from its last
    column pair inward: G <- cols[j_{l-1}] + q^{d_l} * G / (1 - q^{Nl}) for
    l = l1 .. 1, starting at G = cols[j_{l1}], where j_l = max(k + l, 0).
    Level l ends up multiplied by B_l, whose lowest degree is low_b[l], so
    only its limbs of degree <= n - low_b[l] are kept; the mask that keeps
    them truncates the level's incoming column and then serves the division
    that follows.  G holds each level divided by q^e as well, so the
    all-zero low limbs are never added.
    """
    N = spec.N
    # the levels whose column pair has a term of degree <= n: l in 0..l1
    l1 = 0
    while low_a[max(k + l1 + 1, 0)] + low_b[l1 + 1] <= n:
        l1 += 1
    j = max(k + l1, 0)
    e = low_a[j]
    top = n - low_b[l1] - e
    mask = (1 << (top + 1) * W) - 1
    G = cols[j] & mask
    for l in range(l1, 0, -1):
        G = _divide_one_minus(G, N * l, top, W, mask)
        j = max(k + l - 1, 0)
        shift = e + low_b[l] - low_b[l - 1] - low_a[j]
        e = low_a[j]
        top = n - low_b[l - 1] - e
        mask = (1 << (top + 1) * W) - 1
        G = (cols[j] & mask) + (G << shift * W)
    return e, G


# ---------------------------------------------------------------------------
# every weight
# ---------------------------------------------------------------------------


def pd_distribution_family(n_max: int, spec: ParitySpec) -> list[PdDistribution]:
    """Distributions at every weight 0..n_max from one pass; list index = weight.

    Every packed series carries one limb per weight, so the whole family
    costs one pass at n_max: closed-form neutral and class columns, then one
    Horner pass (see _horner_row) per difference row, whose s-th limb is
    f_s(k).  A row k >= 0 is sum_l C_{k+l} * B_l, a Horner pass over the
    beta columns.  A row k < 0 is row -k of the swapped pair (N, beta,
    alpha), by the reflection f_{alpha,beta}(k) = f_{beta,alpha}(-k)
    (swapping the two classes and z with 1/z leaves the generating function
    unchanged), so it is a Horner pass over the alpha columns; either way,
    since the pass's own k is >= 0, every level adds a column (see the
    module docstring for the cost).  The swapped pass runs first, from its
    last row down, so each weight's keys ascend.  Each row is unpacked as
    soon as it is made and dropped, so no more than one packed row is held
    at a time, and each pass builds its columns when it starts, after the
    other's are dropped.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    W = _limb_width_bits(n_max)
    D = _neutral_series(n_max, spec, W)
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for swapped in (True, False):
        pair = spec.swapped() if swapped else spec
        cols, low_a, low_b = _horner_columns(D, pair, n_max, W)
        for k in range(len(cols) - 1, 0, -1) if swapped else range(len(cols)):
            e, G = _horner_row(k, cols, low_a, low_b, pair, n_max, W)
            if not swapped:
                cols[k] = 0  # rows above k start at column k + 1
            key = -k if swapped else k  # one key object per row
            for s, c in enumerate(_unpack(G, W, n_max - e), e):
                if c:
                    rows[s][key] = c
            del G
        del cols  # the next pass builds its own columns
    del D  # hold only the counts while the records are built
    return [PdDistribution(s, spec, row) for s, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def tail_counts(spec: ParitySpec, weights: range, thresholds: Sequence[float]) -> list[int]:
    """sum_{k >= ceil(c_i)} f_{w_i}(k) for each weight w_i and its threshold c_i.

    `weights` is a range with step >= 1 and start >= 0, and `thresholds`
    holds one finite threshold per weight, in the same order.  One Horner
    pass at the top weight makes each distinct ceil(c) a packed tail row
    with one limb per weight s <= n (see the module docstring), unpacked
    whole and read at the weights that carry that threshold; no difference
    row and no distribution is made.
    """
    if len(thresholds) != len(weights):
        raise ValueError(
            f"thresholds must hold one value per weight: {len(thresholds)} for {len(weights)}"
        )
    if not weights:
        return []
    if weights.step < 1 or weights.start < 0:
        raise ValueError(
            f"weights must be a range with step >= 1 and start >= 0, got {weights!r}"
        )
    n = weights[-1]
    kcs = list(map(_finite_ceil, thresholds))
    W = _limb_width_bits(n)
    cols, low_a, low_b = _horner_columns(_neutral_series(n, spec, W), spec, n, W)
    # cols[m] <- S_m = sum_{j >= m} C_j, for every m a tail row reads
    for m in range(len(cols) - 2, max(min(kcs), 0) - 1, -1):
        # S_{m+1} keeps limbs 0..n - low_a[m+1], so shifted it fits C_m's
        cols[m] += cols[m + 1] << (low_a[m + 1] - low_a[m]) * W
    carriers: dict[int, list[int]] = {}  # the indices of the weights of each ceil(c)
    for i, kc in enumerate(kcs):
        carriers.setdefault(kc, []).append(i)
    counts = [0] * len(weights)
    for kc, indices in carriers.items():
        if kc >= len(cols):
            continue  # no column pair from column kc on reaches degree n
        e, G = _horner_row(kc, cols, low_a, low_b, spec, n, W)
        limbs = _unpack(G, W, n - e)  # limbs[s - e] is the tail at weight s >= e
        for i in indices:
            if weights[i] >= e:
                counts[i] = limbs[weights[i] - e]
    return counts


# ---------------------------------------------------------------------------
# derived counts
# ---------------------------------------------------------------------------


def count_at_least_of(dist: PdDistribution, c: float) -> int:
    """Number of distinct-part partitions of n with parity difference >= c.

    pd takes integer values, so the real threshold resolves losslessly to
    ceil(c) before anything is counted: the sum is over k >= ceil(c).
    """
    kc = _finite_ceil(c)
    return sum(v for k, v in dist.counts.items() if k >= kc)


def count_distinct(n: int) -> int:
    """d(n): the number of partitions of n into distinct parts.

    Computed from Euler's pentagonal number theorem, independent of the
    parity engines; equals the total of any pd_distribution of the same n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _distinct_counts(n)[n]


def _distinct_counts(n: int) -> list[int]:
    """d(0..n) in O(n^1.5) big-integer additions.

    prod(1+q^k) * prod(1-q^k) = prod(1-q^{2k}), and Euler's pentagonal
    theorem expands prod(1-q^k) = sum_j (-1)^j q^{j(3j-1)/2} over all
    integers j.  Comparing coefficients of q^s gives
        d(s) = e(s) + sum_{k>=1} (-1)^{k+1} (d(s - k(3k-1)/2) + d(s - k(3k+1)/2)),
    where e(s) = (-1)^j if s = j(3j-1) for some integer j, else 0.
    """
    even_pentagonal: dict[int, int] = {}
    j = 0
    while j * (3 * j - 1) <= n:
        even_pentagonal[j * (3 * j - 1)] = even_pentagonal[j * (3 * j + 1)] = (-1) ** j
        j += 1
    d = [0] * (n + 1)
    for s in range(n + 1):
        acc = even_pentagonal.get(s, 0)
        k, g = 1, 1
        while g <= s:
            term = d[s - g]
            if g + k <= s:
                term += d[s - g - k]
            acc += term if k % 2 else -term
            k += 1
            g = k * (3 * k - 1) // 2
        d[s] = acc
    return d


def parity_bias(dist: PdDistribution, c: int) -> int:
    """pb(c) = f(c) - f(-c): the asymmetry of the distribution at level c >= 0."""
    if c < 0:
        raise ValueError("bias level c must be >= 0")
    return dist.count(c) - dist.count(-c)
