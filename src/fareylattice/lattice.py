"""Brute-force ground truth from the subset lattice itself.

Subsets of an n-element ground set are n-bit words; the marked block A is
the low m bits.  Scanning all 2^n words realizes the defining construction
of the boolean sequence family (reduced |B & A| / |B| over nonempty B) and
the rank-slice counts behind the binomial identities, with no number
theory involved, so these scans validate the closed-form modules.  The
module imports nothing from sequences, the code it checks.

Each (n, m) is scanned once, into a histogram of (|B & A|, |B|) cells
that the enumeration, the rank-slice counts and the filter cardinality all
read, so all three accept every 0 < m < n <= ENUM_BOUND and verify's oracle
suite runs each of them at every such (n, m).  The scan gives every word a
one-byte code for its cell and counts the codes in C byte operations, up
to 64 KiB of words at a time.  No cell is taken from a binomial, and no
cell is a product of two smaller histograms: C(m, j) * C(n-m, l-j) is the
identity the scan is there to check, so a scan that assumed it would check
nothing.
A scan keeps no per-word buffer beyond one table and one block, each of
at most 64 KiB.
"""

from __future__ import annotations

from functools import lru_cache

from .fracs import Frac
from .identities import IdentityReport

ENUM_BOUND = 24  # 2^n words are scanned; refuse anything bigger
_SHIFT = bytes(range(256))  # identity translation; rotated by s, it adds s to every code


def _check_bounds(n: int, m: int) -> None:
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got n={n}, m={m}")
    if n > ENUM_BOUND:
        raise ValueError(f"n={n} exceeds the enumeration bound {ENUM_BOUND}")


@lru_cache(maxsize=64)
def _intersection_histogram(n: int, m: int) -> dict[tuple[int, int], int]:
    """counts[(j, l)] = number of subsets with |B| = l and |B & A| = j.

    The module's only scan of the 2^n words.  Every public function reads
    its (j, l) cells, and the cache lets them share one scan per (n, m).

    Every word w gets a one-byte code for its own cell: each marked bit
    adds width = n-m+1 and each unmarked bit adds 1, so the code is
    width*j + (l-j).  Codes stay below (n/2 + 1)^2, so for n <= ENUM_BOUND
    each fits in a byte.  A word's low bits are the larger kind's, k of
    them: its marked bits are its low m bits when m >= n - m and its high m
    bits otherwise.  The codes of the low t = min(16, k) bits, all of one
    kind, come from doubling a table, once per bit, by appending it
    translated by that kind's weight, so the table holds t + 1 codes.  The
    words are then walked in blocks of len(table); a block is the table
    translated by the code of its first word's high bits, which holds the
    code of every word in the block, and each of its t + 1 codes is counted
    there with bytes.count, so every word is counted under its own code.
    No cell comes from C(m, j) * C(n-m, l-j), over the whole set or over
    its split into table and high bits, and no block reuses the table's
    counts: the scan is there to check that product rule, so it cannot
    assume it.
    """
    words = range(1 << n)
    width = n - m + 1
    marked_first = m >= n - m
    weight = width if marked_first else 1
    t = min(16, max(m, n - m))
    table = b"\0"
    for _ in _SHIFT[:t]:
        table += table.translate(_SHIFT[weight:] + _SHIFT[:weight])
    codes = _SHIFT[: weight * t + 1 : weight]
    marked = (1 << m) - 1 if marked_first else ((1 << m) - 1) << (n - m)
    counts = [0] * len(_SHIFT)
    for start in words[:: len(table)]:
        shift = (width - 1) * (start & marked).bit_count() + start.bit_count()
        block = table.translate(_SHIFT[shift:] + _SHIFT[:shift])
        for code in codes:
            counts[shift + code] += block.count(shift + code)
    return {(c // width, c // width + c % width): count for c, count in enumerate(counts) if count}


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
    _check_bounds(n, m)
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
