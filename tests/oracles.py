"""Independent brute-force oracles for the test suite.

These deliberately avoid every code path of the package under test: they
use stdlib Fraction for ordering and raw filtering/enumeration for
membership, so agreement with the package is meaningful evidence.
"""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd


@lru_cache(maxsize=None)
def _farey_pairs(n: int) -> tuple[tuple[int, int], ...]:
    vals = sorted({Fraction(h, k) for k in range(1, n + 1) for h in range(k + 1)})
    return tuple((f.numerator, f.denominator) for f in vals)


def brute_farey(n: int) -> list[tuple[int, int]]:
    """All reduced (h, k) with 0 <= h <= k <= n, ascending; sorted once per n."""
    return list(_farey_pairs(n))


def brute_upper(n: int, m: int) -> list[tuple[int, int]]:
    return [(h, k) for h, k in _farey_pairs(n) if h <= m]


def brute_boolean(n: int, m: int) -> list[tuple[int, int]]:
    return [(h, k) for h, k in _farey_pairs(n) if h <= m and k - h <= n - m]


def brute_subset_fractions(n: int, m: int) -> list[tuple[int, int]]:
    """Reduced |B & A| / |B| over nonempty bitmask subsets B."""
    amask = (1 << m) - 1
    vals = {
        Fraction(bin(bits & amask).count("1"), bin(bits).count("1"))
        for bits in range(1, 1 << n)
    }
    return [(f.numerator, f.denominator) for f in sorted(vals)]


def brute_intersection_histogram(n: int, m: int) -> Counter:
    """counts[(|B & A|, |B|)] over all 2^n bitmask subsets B, one word at a
    time, with A the low m bits."""
    amask = (1 << m) - 1
    return Counter(((bits & amask).bit_count(), bits.bit_count()) for bits in range(1 << n))


def brute_mobius(d: int) -> int:
    """Moebius function from an explicit factorization."""
    factors = []
    x, p = d, 2
    while p * p <= x:
        while x % p == 0:
            factors.append(p)
            x //= p
        p += 1
    if x > 1:
        factors.append(x)
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def brute_coprime_count(h: int, i: int, l: int) -> int:
    return sum(1 for j in range(i, l + 1) if gcd(h, j) == 1)


def brute_divisor_sum(h: int, lower: int, upper: int) -> int:
    """sum of mu(d) * (upper//d - lower//d) over every d <= upper dividing h
    (an h < 1 has no divisors), mu from the factorization oracle."""
    return sum(brute_mobius(d) * (upper // d - lower // d)
               for d in range(1, min(h, upper) + 1) if h % d == 0)


def brute_pair_sum(pairs, m1: int, m2: int, forms) -> int:
    """sum of C(m1, s*a) * C(m2, s*b) over the pairs (h, k), the forms
    ((u1, v1), (u2, v2)) with a = u1*h + v1*k and b = u2*h + v2*k, and
    s = 1..max(m1, m2), straight from math.comb (zero above the row)."""
    return sum(comb(m1, s * (u1 * h + v1 * k)) * comb(m2, s * (u2 * h + v2 * k))
               for h, k in pairs for (u1, v1), (u2, v2) in forms
               for s in range(1, max(m1, m2) + 1))


def emit_json(seq) -> str:
    """A materialized sequence as compact JSON,
    {"family":...,"n":...,"m":...,"terms":[[h,k],...]}: the reference for
    the CLI's streamed JSON."""
    d = seq.descriptor
    obj = {"family": d.family, "n": d.n, "m": d.m, "terms": [[f.h, f.k] for f in seq]}
    return json.dumps(obj, separators=(",", ":"))
