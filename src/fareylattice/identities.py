"""Moebius function, interval totients, cardinality closed forms, ranks, and
the binomial-sum identities carried by the interior fractions of the sequences.

The rank of h/k in F_n is a Moebius sum over d = 1..n of mu(d) * g(n // d),
where g(N) = N + sum_{q<=N} floor(q*h/k) counts the pairs p/q <= h/k with
q <= N before reducing them; every size is the rank of the last term 1/1
plus one.  n // d takes O(sqrt(n)) values, each over a block of d, so the
sum runs over the blocks, weighted by Mertens differences M(last d) -
M(first d - 1).  _mertens sieves mu only up to about n^(2/3) and gets M at
the larger floor quotients of n from M(x) = 1 - sum_{d>=2} M(x // d).  The
inner sum is the Euclid-like floor sum, so no count or rank builds a sequence.

Every identity's left side is one pair sum over a stretch of a sequence,
sum_f sum_s C(M, s*a) * C(M', s*b), where a and b are linear forms in the
terms h/k (h, k, k-h, k-2h or 2h-k); _pair_sum computes all of them from
the (h, k) int pairs that sequences.iter_pairs generates.  C(M, s*a) is zero
once s*a > M, so a form above half its row leaves only the s = 1 product,
which _pair_sum adds directly: the same exact int as the sum over s.

The two interval totients, phi_interval by gcd and phi_interval_mobius by
the divisor sum, are each their argument checks over a private core that
takes h's cached table: _coprime_count reads h's coprime prefix table and
_divisor_sum h's squarefree divisors.  verify's divisor-sum check reads both
tables once per h and calls the two cores on every interval, so each side is
the arithmetic the public function runs, without its checks and lookups.

Every value here is an exact Python int; the sums grow like 2^(2m), so no
floating point is allowed anywhere in this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt
from operator import mul
from typing import NamedTuple

from .sequences import BOOLEAN, FAREY, SeqDescriptor, _point_sequence, iter_pairs

# The closed-form counts and the ranks sieve mu up to about m^(2/3) and keep
# Mertens values at the ~2*sqrt(m) floor quotients of m; refuse orders above
# this bound.
MAX_COUNT_ORDER = 10_000_000


def mobius(d: int) -> int:
    """Moebius mu(d) by trial division: 0 on a squared prime factor,
    else (-1)^(number of prime factors)."""
    if d < 1:
        raise ValueError(f"mobius needs a positive integer, got {d}")
    sign = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    if d > 1:
        sign = -sign
    return sign


def _mobius_sieve(m: int) -> list[int]:
    """[mu(0), mu(1), ..., mu(m)] for m >= 1 by a linear sieve (mu(0) is
    listed as 0).

    Every composite c is crossed out once, from its least prime factor p
    as c = i * p; mu(c) is 0 when p also divides i, else -mu(i).
    """
    mu = [0] * (m + 1)
    mu[1] = 1
    composite = bytearray(m + 1)
    primes: list[int] = []
    for i in range(2, m + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            c = i * p
            if c > m:
                break
            composite[c] = 1
            if i % p == 0:
                break
            mu[c] = -mu[i]
    return mu


# phi_interval tabulates residues only for h up to this, so the cached tables
# hold at most 128 * 1025 counts; for larger h it counts gcds directly.
_PREFIX_MAX_H = 1024


@lru_cache(maxsize=128)
def _coprime_prefix(h: int) -> tuple[int, ...]:
    """P[r] = how many j in [1, r] are coprime to h, for 0 <= r <= h, by gcd."""
    prefix = [0]
    for j in range(1, h + 1):
        prefix.append(prefix[-1] + (gcd(h, j) == 1))
    return tuple(prefix)


def _coprime_count(h: int, prefix: tuple[int, ...], i: int, l: int) -> int:
    """How many j in [i, l] are coprime to h, for 1 <= i <= l and h's prefix
    table P = _coprime_prefix(h).

    gcd(h, j) depends only on j mod h, so the count up to x is
    (x // h) * P[h] + P[x % h].
    """
    lo = i - 1
    return (l // h - lo // h) * prefix[h] + prefix[l % h] - prefix[lo % h]


def phi_interval(h: int, i: int, l: int) -> int:
    """How many j in [i, l] are coprime to h; empty intervals count 0.

    The checks are here; the count is _coprime_count over h's cached prefix
    table, or for h above _PREFIX_MAX_H a direct gcd count, which builds no
    table.
    """
    if h < 1:
        raise ValueError(f"phi_interval needs h >= 1, got {h}")
    if i < 1:
        raise ValueError(f"interval must start at a positive integer, got {i}")
    if l < i:
        return 0
    if h > _PREFIX_MAX_H:
        return sum(1 for j in range(i, l + 1) if gcd(h, j) == 1)
    return _coprime_count(h, _coprime_prefix(h), i, l)


@lru_cache(maxsize=1024)
def _squarefree_divisors(h: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for the divisors d of h >= 1 with mu(d) != 0, ascending.

    The divisors pair up as d and h // d with d <= isqrt(h); mu is the
    trial-division mobius, so the divisor sum stays independent of the
    sieve and the gcd counts it is checked against.  Checking h here, where
    the result is cached, costs the valid calls of phi_interval_mobius nothing.
    """
    if h < 1:
        raise ValueError(f"phi_interval_mobius needs h >= 1, got {h}")
    small = [d for d in range(1, isqrt(h) + 1) if h % d == 0]
    large = [h // d for d in reversed(small) if d * d != h]
    return tuple((d, mu) for d in small + large if (mu := mobius(d)))


def _divisor_sum(divisors: tuple[tuple[int, int], ...], lower: int, upper: int) -> int:
    """sum_{d | h, d <= upper} mu(d) * (upper//d - lower//d) over h's
    divisors = _squarefree_divisors(h), for 0 <= lower < upper.

    The divisors ascend, so the sum stops at the first one above upper,
    which would add 0.
    """
    total = 0
    for d, mu in divisors:
        if d > upper:
            break
        total += mu * (upper // d - lower // d)
    return total


def phi_interval_mobius(h: int, lower: int, upper: int) -> int:
    """Coprime count on [lower+1, upper] via the divisor sum
    sum_{d | h, d <= upper} mu(d) * (upper//d - lower//d).

    The interval checks are here; h's squarefree divisors and their mu are
    listed once per h (a bounded cache, which also rejects h < 1 as
    phi_interval does), and _divisor_sum sums this interval over them.
    """
    if lower < 0:
        raise ValueError(f"interval bound must be nonnegative, got {lower}")
    if lower >= upper:
        raise ValueError(f"empty interval [{lower + 1}, {upper}]")
    return _divisor_sum(_squarefree_divisors(h), lower, upper)


def _mertens(n: int) -> dict[int, int]:
    """M(x) = mu(1) + ... + mu(x) at every floor quotient x = n // d of n.

    mu is sieved up to about n^(2/3) and summed.  Each larger quotient x,
    taken in ascending order, comes from M(x) = 1 - sum_{d=2}^{x} M(x // d):
    every x // d is a smaller quotient of n, constant over blocks of d, so
    the sum runs over O(sqrt(x)) blocks.
    """
    if type(n) is not int:  # a bool is an int subclass, not an order
        raise TypeError(f"order must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > MAX_COUNT_ORDER:
        raise ValueError(f"order {n} exceeds the counting bound {MAX_COUNT_ORDER}")
    limit = min(n, 1 << (2 * n.bit_length() // 3))
    prefix = list(accumulate(_mobius_sieve(limit)))
    root = isqrt(n)
    mertens: dict[int, int] = {}
    for x in sorted({n // d for d in range(1, root + 1)}.union(range(1, root + 1))):
        if x <= limit:
            mertens[x] = prefix[x]
            continue
        total, d = 1, 2
        while d <= x:
            q = x // d
            top = x // q
            total -= (top - d + 1) * mertens[q]
            d = top + 1
        mertens[x] = total
    return mertens


def _mobius_blocks(n: int) -> list[tuple[int, int]]:
    """(q, w) for each value q of n // d over d = 1..n, with w the sum of
    mu(d) over the d that give q: a Mertens difference M(top) - M(first - 1)."""
    mertens = _mertens(n)
    blocks, below = [], 0
    for q in reversed(mertens):  # built ascending, so d ascends here
        top = mertens[n // q]
        blocks.append((q, top - below))
        below = top
    return blocks


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} (a*i + b) // m for n >= 0, m >= 1 and a, b >= 0.

    The Euclid-like reduction of the AtCoder Library: take out the whole
    parts of a/m and b/m, then count the same lattice points with the axes
    swapped, which replaces (m, a) by (a, m % a) as Euclid does.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _rank(h: int, k: int, blocks: list[tuple[int, int]]) -> int:
    """How many terms of F_n lie at or below h/k, less one, from n's blocks.

    The pairs (p, q) with 1 <= q <= N and 0 <= p/q <= h/k number
    N + sum_{q<=N} floor(q*h/k); each is g times a reduced pair, so Moebius
    inversion over g = d leaves sum_d mu(d) * (that count at N = n // d).
    """
    return sum(w * (q + _floor_sum(q + 1, k, h, 0)) for q, w in blocks if w) - 1


def _check_unit(h: int, k: int) -> None:
    """Reject h/k outside [0/1, 1/1]; an unreduced h/k ranks by its value."""
    if k < 1 or not 0 <= h <= k:
        raise ValueError(f"{h}/{k} is not a fraction in [0/1, 1/1]")


def farey_rank(h: int, k: int, n: int) -> int:
    """Zero-based position of the term h/k of F_n, counted without building
    F_n: O(sqrt(n)) floor sums over the blocks of d where n // d is
    constant, each weighted by a Mertens difference.  For any h/k in [0, 1]
    it is the number of terms at or below h/k, less one."""
    _check_unit(h, k)
    return _rank(h, k, _mobius_blocks(n))


def farey_size(m: int) -> int:
    """|F_m|, the rank of its last term 1/1 plus one.

    At 1/1 the rank's floor sum is N*(N+1)/2 and sum_d mu(d) * (m // d) is 1,
    so this is the closed form 1 + (1/2) sum_d mu(d) * (m//d) * (m//d + 1).
    """
    return farey_rank(1, 1, m) + 1


def farey_boolean_rank(h: int, k: int, m: int) -> int:
    """Zero-based position of h/k in F(B(2m), m), by counting.

    h/k is ranked by value; it need not be reduced.

    At or left of 1/2 it is the rank of h/(k-h) in F_m.  Right of 1/2 the
    complement h/k -> (k-h)/k reverses the sequence and carries the term to
    the left half, where h/(k-h) becomes (k-h)/h: the position is
    2 * rank(1/1) - rank((k-h)/h), since the last term 1/1 sits at twice
    the rank of 1/1 in F_m.  Both sides read one Mertens table of m.
    """
    _check_unit(h, k)
    blocks = _mobius_blocks(m)
    if 2 * h <= k:
        return _rank(h, k - h, blocks)
    return 2 * _rank(1, 1, blocks) - _rank(k - h, h, blocks)


def farey_boolean_size(m: int) -> int:
    """|F(B(2m), m)|, the rank of its last term 1/1 plus one.

    That is 2 * |F_m| - 1, also at m = 1, where direct counting of
    (0/1, 1/2, 1/1) gives 3.  Both sizes read the rank of 1/1 in F_m, so the
    two agree by algebra: verify checks the relation on generated counts,
    and each size against generation.
    """
    return farey_boolean_rank(1, 1, m) + 1


class IdentityReport(NamedTuple):
    """LHS sums, the RHS closed form, and whether every LHS matched."""

    name: str
    params: dict[str, int]
    lhs: list[int]
    rhs: int

    @property
    def passed(self) -> bool:
        return all(v == self.rhs for v in self.lhs)

    def to_dict(self) -> dict:
        return {**self._asdict(), "params": dict(self.params), "lhs": list(self.lhs),
                "pass": self.passed}

    def __str__(self) -> str:
        status = "pass" if self.passed else "fail"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name} {params}: lhs={self.lhs} rhs={self.rhs} {status}"


def _interior(d: SeqDescriptor) -> list[tuple[int, int]]:
    """The (h, k) pairs of the sequence d names with 0 < h/k < 1."""
    return [(h, k) for h, k in iter_pairs(d) if 0 < h < k]


# linear forms u*h + v*k in the terms h/k, written (u, v)
_H, _K, _K_H, _K_2H, _2H_K = (1, 0), (0, 1), (-1, 1), (-2, 1), (2, -1)


def _pair_sum(pairs: list[tuple[int, int]], m1: int, m2: int,
              forms: list[tuple[tuple[int, int], tuple[int, int]]]) -> int:
    """sum over the terms (h, k), over (a, b) in forms and over s >= 1 of
    C(m1, s*a(h, k)) * C(m2, s*b(h, k)), s running until either is zero.

    C(m, s*a) is zero once s*a > m, so when a > m1 // 2 or b > m2 // 2 only
    s = 1 can contribute: its one product C(m1, a) * C(m2, b) is the whole
    sum, exactly, and nothing when a > m1 or b > m2.  The sum runs over s
    only when both values are at most half their row.

    Every form must be positive on every pair given.
    """
    row1 = [comb(m1, i) for i in range(m1 + 1)]
    row2 = [comb(m2, i) for i in range(m2 + 1)]
    half1, half2 = m1 // 2, m2 // 2
    total = 0
    for h, k in pairs:
        for (u1, v1), (u2, v2) in forms:
            a, b = u1 * h + v1 * k, u2 * h + v2 * k
            if a < 1 or b < 1:
                raise ValueError(f"form value {a} or {b} is not positive at {h}/{k}")
            if a <= half1 and b <= half2:
                # row[a::a] holds C(m, s*a) for s = 1, 2, ... while s*a <= m
                total += sum(map(mul, row1[a::a], row2[b::b]))
            elif a <= m1 and b <= m2:
                total += row1[a] * row2[b]
    return total


def _halves_and_cross(m: int) -> tuple[int, int]:
    """(2^(2m-1) - 2^m - C(2m,m)/2 + 1, sum_t C(m,2t)*C(m,t)): the halves
    value and what the thirds and paired forms subtract from it."""
    central = comb(2 * m - 1, m - 1)  # C(2m, m) / 2, exactly
    cross = sum(comb(m, 2 * t) * comb(m, t) for t in range(1, m // 2 + 1))
    return 2 ** (2 * m - 1) - 2 ** m + 1 - central, cross


def interior_duality(n: int, m: int) -> IdentityReport:
    """The interior double sums of the (n, m) and (n, n-m) subsequences
    both collapse to 2^n - 2^m - 2^(n-m) + 1."""
    lhs = [
        _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, m)), m, n - m, [(_H, _K_H)]),
        _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, n - m)), n - m, m, [(_H, _K_H)]),
    ]
    return IdentityReport("interior-duality", {"n": n, "m": m}, lhs,
                          2 ** n - 2 ** m - 2 ** (n - m) + 1)


def filter_partition(n: int, m: int) -> IdentityReport:
    """2^n - 2^(n-m) subsets meet the marked m-block; removing the 2^m - 1
    subsets inside the block leaves the interior double sum."""
    interior = _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, m)), m, n - m, [(_H, _K_H)])
    return IdentityReport("filter-partition", {"n": n, "m": m},
                          [2 ** n - 2 ** (n - m)],
                          2 ** m - 1 + interior)


def symmetric_identities(m: int) -> list[IdentityReport]:
    """The three interior-sum identities of the symmetric sequence.

    sym-interior: the full interior double sum equals 2^(2m) - 2^(m+1) + 1.
    sym-halves:   the sums over (0,1/2) and (1/2,1) agree and equal
                  2^(2m-1) - 2^m - C(2m,m)/2 + 1.
    sym-thirds:   the four sums over (0,1/3), (1/3,1/2), (1/2,2/3), (2/3,1)
                  agree and equal the halves value minus
                  sum_t C(m,2t)*C(m,t).

    Left of 1/2 the summand is C(m, s*(k-h)) * (C(m, s*h) [+ C(m, s*(k-2h))]);
    right of 1/2 the roles of h and k-h swap and the thirds term uses 2h-k.
    The stretches are split by cross-multiplication: h/k < 1/2 is 2h < k.
    They hold from m = 1; sequences._point_sequence, called first, refuses
    a non-int m or m < 1, naming m.
    """
    interior = _interior(_point_sequence(BOOLEAN, m))
    halves_rhs, cross = _halves_and_cross(m)
    below = [(h, k) for h, k in interior if 2 * h < k]
    above = [(h, k) for h, k in interior if 2 * h > k]
    left, right = [(_K_H, _H)], [(_H, _K_H)]
    left3, right3 = left + [(_K_H, _K_2H)], right + [(_H, _2H_K)]
    return [
        IdentityReport("sym-interior", {"m": m},
                       [_pair_sum(interior, m, m, [(_H, _K_H)])],
                       2 ** (2 * m) - 2 ** (m + 1) + 1),
        IdentityReport("sym-halves", {"m": m},
                       [_pair_sum(below, m, m, left), _pair_sum(above, m, m, right)],
                       halves_rhs),
        IdentityReport("sym-thirds", {"m": m},
                       [_pair_sum([(h, k) for h, k in below if 3 * h < k], m, m, left3),
                        _pair_sum([(h, k) for h, k in below if 3 * h > k], m, m, left3),
                        _pair_sum([(h, k) for h, k in above if 3 * h < 2 * k], m, m, right3),
                        _pair_sum([(h, k) for h, k in above if 3 * h > 2 * k], m, m, right3)],
                       halves_rhs - cross),
    ]


def farey_identities(m: int) -> list[IdentityReport]:
    """The two interior-sum identities of the standard sequence F_m.

    farey-interior: sum over interior h/k, s <= m/k, of C(m,s*h)*C(m,s*k)
                    equals 2^(2m-1) - 2^m - C(2m,m)/2 + 1.
    farey-halves:   with summand C(m,s*k)*(C(m,s*h) + C(m,s*(k-h))) the
                    sums over (0,1/2) and (1/2,1) agree and equal the
                    interior value minus sum_t C(m,2t)*C(m,t).
    They hold from m = 1; sequences._point_sequence, called first, refuses
    a non-int m or m < 1, naming m.
    """
    interior = _interior(_point_sequence(FAREY, m))
    interior_rhs, cross = _halves_and_cross(m)
    paired = [(_K, _H), (_K, _K_H)]
    return [
        IdentityReport("farey-interior", {"m": m},
                       [_pair_sum(interior, m, m, [(_H, _K)])], interior_rhs),
        IdentityReport("farey-halves", {"m": m},
                       [_pair_sum([(h, k) for h, k in interior if 2 * h < k], m, m, paired),
                        _pair_sum([(h, k) for h, k in interior if 2 * h > k], m, m, paired)],
                       interior_rhs - cross),
    ]
