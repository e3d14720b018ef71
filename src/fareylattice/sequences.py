"""Construction of Farey sequences and their Boolean-lattice subsequences.

Each family is defined once, in _FAMILIES, as a box in its own coordinates:
a term h/k has (x, y) = (h, k - c*h) for the family's shear c, and the
family is the reduced x/y in a stretch of [0/1, 1/0] with x <= A and y <= B:

  family       c  box (A, B)  stretch of x/y
  farey        0  (n, n)      0/1 .. 1/1   k <= n, the Farey sequence F_n
  upper        0  (m, n)      0/1 .. 1/1   k <= n and h <= m
  boolean      1  (m, n-m)    0/1 .. 1/0   h <= m and k-h <= n-m: the reduced
               values |B & A| / |B| over nonempty subsets B of an n-set
               with a marked m-subset A
  left-half    1  (m, n-m)    0/1 .. 1/1   x <= y, from 0/1 to 1/2; n = 2m
  right-half   1  (m, n-m)    1/1 .. 1/0   x >= y, from 1/2 to 1/1; n = 2m

The shear c = 1 is the catalog's left-to-farey map h/k -> h/(k-h), which
keeps the order and the determinant of consecutive terms.  Generation and
membership both read that table.  iter_pairs streams the terms as (h, k)
int pairs by the bounded next-term recurrence (Graham, Knuth and Patashnik,
Concrete Mathematics, section 4.5), in (x, y): after consecutive terms
x0/y0 < x1/y1 comes (t*x1 - x0)/(t*y1 - y0) for the largest t that keeps
it in the box.  That t is (B + y0) // y1, unless the x it gives exceeds A,
and then (A + x0) // x1; farey never exceeds A = n, so it takes one floor
division per term.  k = y + c*x is linear, so it follows the same
recurrence; iter_pairs carries (x, y, k) and emits (x, k).  Consecutive
pairs satisfy h1*k0 - h0*k1 = 1, so every pair is already reduced;
iter_terms wraps them as Frac without a gcd, and the CLI formats them
straight from the ints.  A SeqDescriptor names a sequence as the named
tuple (family, n, m), checked when built; `f in descriptor` tests the
stretch and the box directly, and only the descriptor decides which
(family, n, m) exist (halves need n = 2m).  FareySeq(descriptor) holds its
terms as a tuple built from the descriptor alone, and compares, hashes and
tests membership by the descriptor.  The builders farey(n),
upper_subsequence(n, m), farey_boolean(n, m), left_half(n, m) and
right_half(n, m) each materialize one descriptor.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from typing import Iterator

from .fracs import Frac, _immutable

FAREY = "farey"
UPPER = "upper"
BOOLEAN = "boolean"
LEFT_HALF = "left-half"
RIGHT_HALF = "right-half"


# A stretch is the pair that starts generation (a virtual term x0/y0 with
# x1*y0 - x0*y1 = 1, then the first term x1/y1) and the last term, in (x, y).
_TO_ONE = ((-1, 0), (0, 1), (1, 1))
_TO_INFINITY = ((-1, 0), (0, 1), (1, 0))
_ONE_TO_INFINITY = ((0, 1), (1, 1), (1, 0))

# family -> (its shear c, its box (A, B) as a function of (n, m), its stretch)
_FAMILIES = {
    FAREY: (0, lambda n, m: (n, n), _TO_ONE),
    UPPER: (0, lambda n, m: (m, n), _TO_ONE),
    BOOLEAN: (1, lambda n, m: (m, n - m), _TO_INFINITY),
    LEFT_HALF: (1, lambda n, m: (m, n - m), _TO_ONE),
    RIGHT_HALF: (1, lambda n, m: (m, n - m), _ONE_TO_INFINITY),
}

# Materializing F_n costs ~0.3*n^2 terms of memory; refuse runaway orders.
MAX_ORDER = 10_000


class SeqDescriptor(namedtuple("SeqDescriptor", ("family", "n", "m"), defaults=(None,))):
    """Which sequence this is: family plus its order n and parameter m."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, m: int | None = None) -> SeqDescriptor:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        # type(), not isinstance: a bool is an int subclass, not an order
        if type(n) is not int or not (m is None or type(m) is int):
            raise TypeError(f"n and m must be ints, got n={n!r}, m={m!r}")
        if n < 1:
            raise ValueError(f"order must be positive, got n={n}")
        if family == FAREY:
            if m is not None:
                raise ValueError("farey takes no parameter m")
        elif m is None:
            raise ValueError(f"{family} requires parameter m")
        elif not 0 < m < n:
            raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
        elif family in (LEFT_HALF, RIGHT_HALF) and n != 2 * m:
            raise ValueError(f"halfsequences exist only for n = 2m, got n={n}, m={m}")
        return super().__new__(cls, family, n, m)

    @classmethod
    def _make(cls, iterable) -> SeqDescriptor:
        """Build from an iterable through __new__'s checks, as _replace does."""
        return cls(*iterable)

    def __contains__(self, f: object) -> bool:
        """True when f is a term of the sequence: inside its stretch and box."""
        if not isinstance(f, Frac):
            return False
        c, box, (_, (x0, y0), (x1, y1)) = _FAMILIES[self.family]
        a, b = box(self.n, self.m)
        x, y = f.h, f.k - c * f.h
        return x0 * y <= x * y0 and x * y1 <= x1 * y and x <= a and y <= b

    def __str__(self) -> str:
        if self.family == FAREY:
            return f"farey(n={self.n})"
        return f"{self.family}(n={self.n}, m={self.m})"


def _point_sequence(family: str, m: int) -> SeqDescriptor:
    """F_m for family farey, else F(B(2m), m); a bad m is refused by m, not by 2m."""
    if type(m) is not int:  # a bool is an int subclass, not an order
        raise TypeError(f"order must be an int, got m={m!r}")
    if m < 1:
        raise ValueError(f"order must be positive, got m={m}")
    return SeqDescriptor(FAREY, m) if family == FAREY else SeqDescriptor(BOOLEAN, 2 * m, m)


class FareySeq:
    """The sequence a descriptor names, as a zero-indexed tuple of Frac terms."""

    __slots__ = ("descriptor", "terms")

    def __init__(self, descriptor: SeqDescriptor) -> None:
        _check_order(descriptor)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "terms", tuple(iter_terms(descriptor)))

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, not the setter above
        return (FareySeq, (self.descriptor,))

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __iter__(self) -> Iterator[Frac]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FareySeq):
            return NotImplemented
        return self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def index_of(self, f: Frac) -> int | None:
        """Zero-based position of f, or None when absent (binary search)."""
        i = bisect_left(self.terms, f)
        if i < len(self.terms) and self.terms[i] == f:
            return i
        return None

    def __contains__(self, f: object) -> bool:
        return f in self.descriptor

    def __repr__(self) -> str:
        return f"FareySeq({self.descriptor}, {len(self.terms)} terms)"


def iter_pairs(d: SeqDescriptor) -> Iterator[tuple[int, int]]:
    """Terms of the sequence d names, ascending, as coprime (h, k) int pairs.

    The walk runs in the family's (x, y) = (h, k - c*h).  From consecutive
    terms x0/y0 < x1/y1 the next is (t*x1 - x0)/(t*y1 - y0) for the largest
    t that keeps it in the box x <= A, y <= B: t = (B + y0) // y1, unless
    the x it gives exceeds A, and then t = (A + x0) // x1.  y1 = 0 only at
    the last term 1/0, and x1 = 0 only at the first term 0/1, whose next x
    is -x0 = 1 <= A; so neither division is by zero.  k = y + c*x follows
    the same recurrence, so each step carries (x, y, k) and emits (x, k).
    Each step keeps x1*y0 - x0*y1 = h1*k0 - h0*k1 = 1, so every pair is
    coprime without a gcd.
    """
    c, box, ((x0, y0), (x1, y1), (x_last, y_last)) = _FAMILIES[d.family]
    a, b = box(d.n, d.m)
    k0, k1 = y0 + c * x0, y1 + c * x1
    yield x1, k1
    # y1 equals y_last only at the last term and, on 0/1 .. 1/1, at the first
    while y1 != y_last or x1 != x_last:
        t = (b + y0) // y1
        x = t * x1 - x0
        if x > a:
            t = (a + x0) // x1
            x = t * x1 - x0
        x0, x1 = x1, x
        y0, y1 = y1, t * y1 - y0
        k0, k1 = k1, t * k1 - k0
        yield x, k1


def iter_terms(d: SeqDescriptor) -> Iterator[Frac]:
    """Terms of the sequence d names, ascending, as Frac: iter_pairs' pairs."""
    coprime = Frac._coprime
    return (coprime(h, k) for h, k in iter_pairs(d))


def _check_order(d: SeqDescriptor) -> None:
    if d.n > MAX_ORDER:
        raise ValueError(f"order {d.n} exceeds the materialization guard {MAX_ORDER}")


def materialize(d: SeqDescriptor) -> FareySeq:
    """Build the sequence a descriptor names."""
    return FareySeq(d)


def farey(n: int) -> FareySeq:
    """The Farey sequence of order n."""
    return materialize(SeqDescriptor(FAREY, n))


def upper_subsequence(n: int, m: int) -> FareySeq:
    """The subsequence of F_n whose numerators stay at or below m."""
    return materialize(SeqDescriptor(UPPER, n, m))


def farey_boolean(n: int, m: int) -> FareySeq:
    """The Boolean-lattice subsequence: h <= m and k - h <= n - m in F_n."""
    return materialize(SeqDescriptor(BOOLEAN, n, m))


def left_half(n: int, m: int) -> FareySeq:
    """Terms of F(B(n), m) up to and including 1/2; only n = 2m has halves."""
    return materialize(SeqDescriptor(LEFT_HALF, n, m))


def right_half(n: int, m: int) -> FareySeq:
    """Terms of F(B(n), m) from 1/2 on; only n = 2m has halves."""
    return materialize(SeqDescriptor(RIGHT_HALF, n, m))
