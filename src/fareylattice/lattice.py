"""Brute-force ground truth from the subset lattice itself.

Subsets of an n-element ground set are n-bit words; the marked block A is
the low m bits.  Scanning all 2^n words realizes the defining construction
of the boolean sequence family (reduced |B & A| / |B| over nonempty B) and
the rank-slice counts behind the binomial identities, with no number
theory involved, so these scans validate the closed-form modules.  The
module imports nothing from sequences, the code it checks.

Each (n, m) is scanned once, into a histogram of (|B & A|, |B|) cells
that the enumeration, the rank-slice counts and the filter cardinality all
read.  The cells are counted word by word, never taken from binomials:
C(m, j) * C(n-m, l-j) is the identity the scan is there to check.  A scan
keeps no per-word buffer; its one table has 2^m bytes, under one byte per
word, so a scan at ENUM_BOUND holds at most 8 MiB.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import add

from .fracs import Frac
from .identities import IdentityReport

ENUM_BOUND = 24  # 2^n words are scanned; refuse anything bigger


def _check_bounds(n: int, m: int, bound: int = ENUM_BOUND) -> None:
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got n={n}, m={m}")
    if n > bound:
        raise ValueError(f"n={n} exceeds the enumeration bound {bound}")


@lru_cache(maxsize=64)
def _intersection_histogram(n: int, m: int) -> dict[tuple[int, int], int]:
    """counts[(j, l)] = number of subsets with |B| = l and |B & A| = j.

    The module's only scan of the 2^n words.  Every public function reads
    its (j, l) cells, and the cache lets them share one scan per (n, m).

    Every word w is counted once, under a code for its own cell: l is
    w.bit_count(), and since w & A == w mod 2^m, j is the popcount of word
    w mod 2^m.  The table `marked` holds (n-m)*j for the first 2^m words
    and is read 2^(n-m) times over, so the code is l + (n-m)*j =
    (n-m+1)*j + (l-j).  Codes stay below (n/2 + 1)^2, so for
    n <= ENUM_BOUND each fits in a byte and is a cached small int.
    """
    words = range(1 << n)
    scale = n - m
    marked = bytes(map(scale.__mul__, map(int.bit_count, words[: 1 << m])))
    codes = map(add, map(int.bit_count, words), chain.from_iterable(repeat(marked, 1 << scale)))
    width = scale + 1
    return {(c // width, c // width + c % width): count for c, count in Counter(codes).items()}


def enumerate_fractions(n: int, m: int) -> list[tuple[int, int]]:
    """Reduced (h, k) of every |B & A| / |B| over nonempty subsets B, ascending.

    Must coincide with the arithmetic characterization (h <= m and
    k - h <= n - m inside F_n) that sequences.iter_pairs walks; this scan
    never consults it.
    """
    _check_bounds(n, m)
    return [(f.h, f.k) for f in sorted({Frac(j, l) for j, l in _intersection_histogram(n, m) if l})]


def count_exact_intersection(n: int, m: int, j: int, l: int) -> int:
    """Subsets with |B| = l and |B & A| = j, counted by enumeration.

    Always equals C(m, j) * C(n-m, l-j); the scan is cached per (n, m) so
    sweeping all (j, l) cells costs one pass.
    """
    _check_bounds(n, m)
    if not 0 <= j <= l <= n:
        raise ValueError(f"need 0 <= j <= l <= n, got j={j}, l={l}, n={n}")
    return _intersection_histogram(n, m).get((j, l), 0)


def filter_cardinality_check(n: int, m: int) -> IdentityReport:
    """Count the subsets meeting the marked block against 2^n - 2^(n-m).

    The first LHS entry is the direct count.  The second reassembles it
    from the enumerated nonempty subsets inside the block (2^m - 1 of
    them) plus the closed-form count 2^n - 2^m - 2^(n-m) + 1 of the mixed
    ones, so it matches the RHS exactly when the block count is right.
    """
    _check_bounds(n, m, bound=20)
    cells = _intersection_histogram(n, m).items()
    meeting = sum(c for (j, l), c in cells if j)
    inside = sum(c for (j, l), c in cells if j == l >= 1)
    mixed_closed = 2 ** n - 2 ** m - 2 ** (n - m) + 1
    return IdentityReport(
        "filter-cardinality",
        {"n": n, "m": m},
        [meeting, inside + mixed_closed],
        2 ** n - 2 ** (n - m),
    )
