"""A fixed chunk of pure-Python work that measures how fast the host runs now.

On a shared host the interpreter's speed drifts by tens of percent from one
minute to the next, for every process alike.  The benchmark runs this chunk
between the program's calls and scales each pass's times by
NOMINAL_S / (mean chunk time in that pass), which reports them at a fixed
nominal host speed; the raw times stay in each run's detail line.  The
chunk never touches fareylattice.  Its work is shaped like the program's
per-term path: an integer Farey next-term recurrence, a gcd, a small slotted
object and an "h/k" string per term.
"""

from __future__ import annotations

import gc
import time
from math import gcd

ORDER = 300  # 27,397 terms per chunk
NOMINAL_S = 0.02  # chunk time the normalized figures are scaled to


class _Pair:
    __slots__ = ("h", "k")

    def __init__(self, h: int, k: int) -> None:
        self.h = h
        self.k = k


def chunk() -> float:
    """Run the chunk once, with the cyclic GC off so the program's leftover
    objects cannot slow it; return its wall time in seconds."""
    gc.disable()
    start = time.perf_counter()
    n = ORDER
    a, b, c, d = 0, 1, 1, n
    size = 0
    while c <= n:
        t = (n + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
        g = gcd(a, b)
        pair = _Pair(a // g, b // g)
        size += len(f"{pair.h}/{pair.k}")
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed
