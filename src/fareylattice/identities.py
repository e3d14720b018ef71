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
_point_rank ranks both point families in the (x, y) = (h, k - c*h) of the
family's shear c: x/y in F_m at or below 1/1, its transpose y/x above it.

Every identity's left side is one pair sum over a stretch of a sequence,
sum_f sum_s C(M, s*a) * C(M', s*b), where a and b are linear forms in the
terms h/k (h, k, k-h, k-2h or 2h-k).  The summand depends on (a, b) alone,
so each identity function builds one table of it, _pair_table, and
_pair_sum reads one entry per term and form.  verify's 39 symmetric/farey
units at --max-m 40 took 36.4 ms of CPU against 43.1 ms when each term
sliced two binomial rows; at m = 200 the two functions' peak traced memory
rose from 3.6 to 6.5 MiB.

The interval totients count [lo + 1, hi] two ways.  phi_interval counts by
gcd: the whole periods of h at once, the tail one by one.  phi_interval_mobius
is its argument checks over the private row core _divisor_row, which for one
lo takes the divisor sum of every hi of a row from the columns x // d of h's
cached squarefree divisors; the public function passes a row of one hi.
verify's _divisor_sum_check lists h's columns and its coprime flags
gcd(h, x) == 1 once, and for each lo compares _divisor_row with _coprime_row,
the flags' running count from lo + 1, so each interval is still counted both
ways.  Its 40 units at --max-m 40 took 31.0 ms of CPU (2 vCPUs, Python 3.11.7).

Every value here is an exact Python int; the sums grow like 2^(2m), so no
floating point is allowed anywhere in this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, isqrt
from operator import add, countOf, sub
from typing import NamedTuple

from .sequences import _FAMILIES, BOOLEAN, FAREY, SeqDescriptor, _point_sequence, iter_pairs

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


def _coprime_row(flags: list[int], lo: int) -> list[int]:
    """How many j in [lo + 1, x] are coprime to h, for each x after lo, from
    flags[x] = 1 if gcd(h, x) == 1 else 0: a running count from lo + 1."""
    return list(accumulate(flags[lo + 1:]))


def phi_interval(h: int, i: int, l: int) -> int:
    """How many j in [i, l] are coprime to h; empty intervals count 0.
    gcd(h, j) depends on j mod h alone, so the whole periods of h in [i, l]
    each hold as many as 1..h, and the tail is counted by gcd: O(min(h,
    l - i + 1)) gcds, with no table."""
    if h < 1:
        raise ValueError(f"phi_interval needs h >= 1, got {h}")
    if i < 1:
        raise ValueError(f"interval must start at a positive integer, got {i}")
    if l < i:
        return 0
    periods, tail = divmod(l - i + 1, h)
    whole = countOf(map(gcd, repeat(h), range(1, h + 1)), 1) if periods else 0
    return periods * whole + countOf(map(gcd, repeat(h), range(l - tail + 1, l + 1)), 1)


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


def _divisor_row(divisors: tuple[tuple[int, int], ...], columns: list[list[int]],
                 lo: int) -> list[int]:
    """sum_{d | h} mu(d) * (x//d - x_lo//d) for each x after x_lo = entry lo of
    the columns, over divisors = _squarefree_divisors(h); columns[i] is x // d
    for the d of divisors[i].  A d above x adds 0.  Each divisor's terms are
    added across the row by map, so no interval runs Python code of its own."""
    row = repeat(0)
    for (_, mu), col in zip(divisors, columns):
        row = map(add if mu > 0 else sub, row, map(sub, col[lo + 1:], repeat(col[lo])))
    return list(row)


def phi_interval_mobius(h: int, lower: int, upper: int) -> int:
    """Coprime count on [lower+1, upper] via the divisor sum
    sum_{d | h, d <= upper} mu(d) * (upper//d - lower//d): the interval checks,
    then _divisor_row's row of one over h's squarefree divisors and their mu
    (a bounded cache, which also rejects h < 1 as phi_interval does)."""
    if lower < 0:
        raise ValueError(f"interval bound must be nonnegative, got {lower}")
    if lower >= upper:
        raise ValueError(f"empty interval [{lower + 1}, {upper}]")
    divisors = _squarefree_divisors(h)
    return _divisor_row(divisors, [[lower // d, upper // d] for d, _ in divisors], 0)[0]


def _divisor_sum_check(h: int, span: int) -> bool:
    """Whether the divisor sum and the gcd count agree on every interval
    [lo + 1, hi] with 0 <= lo < hi <= span.  h's columns x // d and its
    coprime flags over 0 <= x <= span are listed once; for each lo the two
    row cores count every interval, never from a difference of stored
    totals, and the rows are compared.  The cores are read here, at call time."""
    divisors, xs = _squarefree_divisors(h), range(span + 1)
    columns = [list(map(d.__rfloordiv__, xs)) for d, _ in divisors]  # x // d
    flags = [int(gcd(h, x) == 1) for x in xs]
    return all(_divisor_row(divisors, columns, lo) == _coprime_row(flags, lo)
               for lo in range(span))


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


def _point_rank(family: str, h: int, k: int, m: int) -> int:
    """Zero-based position of h/k in _point_sequence(family, m), by value.

    x/y = h/(k - c*h), for the family's shear c, at or below 1/1 is its rank
    in F_m.  Above it (boolean only) the complement h/k -> (k-h)/k reverses
    the sequence and carries x/y to y/x, and the last term 1/1 sits at twice
    the rank of 1/1 in F_m.  Every rank reads one Mertens table of m.
    """
    c = _FAMILIES[family][0]
    x, y = h, k - c * h
    blocks = _mobius_blocks(m)
    if x <= y:
        return _rank(x, y, blocks)
    return 2 * _rank(1, 1, blocks) - _rank(y, x, blocks)


def farey_rank(h: int, k: int, n: int) -> int:
    """Zero-based position of the term h/k of F_n, counted without building
    F_n: O(sqrt(n)) floor sums over the blocks of d where n // d is
    constant, each weighted by a Mertens difference.  For any h/k in [0, 1]
    it is the number of terms at or below h/k, less one."""
    _check_unit(h, k)
    return _point_rank(FAREY, h, k, n)


def farey_size(m: int) -> int:
    """|F_m|, the rank of its last term 1/1 plus one.

    At 1/1 the rank's floor sum is N*(N+1)/2 and sum_d mu(d) * (m // d) is 1,
    so this is the closed form 1 + (1/2) sum_d mu(d) * (m//d) * (m//d + 1).
    """
    return farey_rank(1, 1, m) + 1


def farey_boolean_rank(h: int, k: int, m: int) -> int:
    """Zero-based position of h/k in F(B(2m), m), by counting: at or left
    of 1/2 the rank of h/(k-h) in F_m, right of it 2*rank(1/1) - rank((k-h)/h).
    h/k is ranked by value; it need not be reduced."""
    _check_unit(h, k)
    return _point_rank(BOOLEAN, h, k, m)


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


def _pair_table(m1: int, m2: int) -> list[list[int]]:
    """g[a][b] = sum_{s>=1} C(m1, s*a) * C(m2, s*b) for 1 <= a <= m1 and
    1 <= b <= m2, with zeros in row and column 0.  s = 1 is the outer product
    of the two binomial rows; the term of s >= 2 is zero once s*a > m1 or
    s*b > m2, so it fills a <= m1 // s, b <= m2 // s from row[s::s] = C(m, s), C(m, 2s), ..."""
    row1 = list(map(comb, repeat(m1), range(m1 + 1)))
    row2 = list(map(comb, repeat(m2), range(m2 + 1)))
    table = [[0] * (m2 + 1)] + [[0, *map(c.__mul__, row2[1:])] for c in row1[1:]]
    for s in range(2, min(m1, m2) + 1):
        column = row2[s::s]
        top = len(column) + 1
        for a, c in enumerate(row1[s::s], 1):
            row = table[a]
            row[1:top] = map(add, row[1:top], map(c.__mul__, column))
    return table


def _pair_sum(pairs: list[tuple[int, int]], table: list[list[int]],
              forms: list[tuple[tuple[int, int], tuple[int, int]]]) -> int:
    """sum over the terms (h, k) and the forms (a, b) of g[a][b], from the
    table g = _pair_table(m1, m2); a value above its row adds nothing.
    Every form must be positive on every pair given."""
    m1, m2 = len(table) - 1, len(table[0]) - 1
    total = 0
    for h, k in pairs:
        for (u1, v1), (u2, v2) in forms:
            a, b = u1 * h + v1 * k, u2 * h + v2 * k
            if a < 1 or b < 1:
                raise ValueError(f"form value {a} or {b} is not positive at {h}/{k}")
            if a <= m1 and b <= m2:
                total += table[a][b]
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
    table = _pair_table(m, n - m)  # read with the forms swapped for (n, n-m)
    lhs = [
        _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, m)), table, [(_H, _K_H)]),
        _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, n - m)), table, [(_K_H, _H)]),
    ]
    return IdentityReport("interior-duality", {"n": n, "m": m}, lhs,
                          2 ** n - 2 ** m - 2 ** (n - m) + 1)


def filter_partition(n: int, m: int) -> IdentityReport:
    """2^n - 2^(n-m) subsets meet the marked m-block; removing the 2^m - 1
    subsets inside the block leaves the interior double sum."""
    interior = _pair_sum(_interior(SeqDescriptor(BOOLEAN, n, m)), _pair_table(m, n - m),
                         [(_H, _K_H)])
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
    table = _pair_table(m, m)
    return [
        IdentityReport("sym-interior", {"m": m},
                       [_pair_sum(interior, table, [(_H, _K_H)])],
                       2 ** (2 * m) - 2 ** (m + 1) + 1),
        IdentityReport("sym-halves", {"m": m},
                       [_pair_sum(below, table, left), _pair_sum(above, table, right)],
                       halves_rhs),
        IdentityReport("sym-thirds", {"m": m},
                       [_pair_sum([(h, k) for h, k in below if 3 * h < k], table, left3),
                        _pair_sum([(h, k) for h, k in below if 3 * h > k], table, left3),
                        _pair_sum([(h, k) for h, k in above if 3 * h < 2 * k], table, right3),
                        _pair_sum([(h, k) for h, k in above if 3 * h > 2 * k], table, right3)],
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
    table = _pair_table(m, m)
    return [
        IdentityReport("farey-interior", {"m": m},
                       [_pair_sum(interior, table, [(_H, _K)])], interior_rhs),
        IdentityReport("farey-halves", {"m": m},
                       [_pair_sum([(h, k) for h, k in interior if 2 * h < k], table, paired),
                        _pair_sum([(h, k) for h, k in interior if 2 * h > k], table, paired)],
                       interior_rhs - cross),
    ]
