"""Construction of Farey sequences and their Boolean-lattice subsequences.

Each family is defined once, in _FAMILIES, as the reduced h/k in a stretch
of [0/1, 1/1] that meet linear bounds (u, v, w), each meaning u*h + v*k <= w:

  farey        (0,1,n)               k <= n, the Farey sequence F_n
  upper        (0,1,n), (1,0,m)      k <= n and h <= m
  boolean      (1,0,m), (-1,1,n-m)   h <= m and k-h <= n-m: the reduced values
               |B & A| / |B| over nonempty subsets B of an n-set with a
               marked m-subset A
  left-half    the boolean bounds with n = 2m, from 0/1 to 1/2
  right-half   the boolean bounds with n = 2m, from 1/2 to 1/1

Generation and membership both read that table.  iter_pairs streams the
terms as (h, k) int pairs by the bounded next-term recurrence (Graham, Knuth
and Patashnik, Concrete Mathematics, section 4.5): after consecutive terms
a/b < c/d comes (t*c - a)/(t*d - b), for the largest t that keeps it inside
every bound, the minimum of (w + x0) // x1 over the bounds with x1 > 0,
where x0 = u*a + v*b and x1 = u*c + v*d.  A bound's form is linear, so it
follows the same recurrence as the terms, x2 = t*x1 - x0; iter_pairs carries
each bound's (x0, x1) along and never multiplies by a coefficient.  Every
family has one or two bounds, and each count has its own loop.  Consecutive
pairs satisfy c*b - a*d = 1, so every pair is already reduced; iter_terms
wraps them as Frac without a gcd, and the CLI formats them straight from
the ints.  A SeqDescriptor names a sequence as the named tuple (family, n,
m), checked when built; `f in descriptor` tests the bounds directly, and
only the descriptor decides which (family, n, m) exist (halves need n = 2m).
FareySeq(descriptor) holds its terms as a tuple built from the descriptor
alone, and compares, hashes and tests membership by the descriptor.  The
builders farey(n), upper_subsequence(n, m), farey_boolean(n, m),
left_half(n, m) and right_half(n, m) each materialize one descriptor.
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


def _boolean_bounds(n: int, m: int) -> tuple[tuple[int, int, int], ...]:
    return ((1, 0, m), (-1, 1, n - m))


# A stretch of [0/1, 1/1] is the pair that starts generation (a virtual
# term h0/k0 with h1*k0 - h0*k1 = 1, then the first term h1/k1) and the
# last term.
_WHOLE = ((-1, 0), (0, 1), (1, 1))
_UP_TO_HALF = ((-1, 0), (0, 1), (1, 2))
_FROM_HALF = ((0, 1), (1, 2), (1, 1))

# family -> (its bounds (u, v, w) as a function of (n, m), its stretch)
_FAMILIES = {
    FAREY: (lambda n, m: ((0, 1, n),), _WHOLE),
    UPPER: (lambda n, m: ((0, 1, n), (1, 0, m)), _WHOLE),
    BOOLEAN: (_boolean_bounds, _WHOLE),
    LEFT_HALF: (_boolean_bounds, _UP_TO_HALF),
    RIGHT_HALF: (_boolean_bounds, _FROM_HALF),
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

    @property
    def bounds(self) -> tuple[tuple[int, int, int], ...]:
        """The family's bounds (u, v, w), each meaning u*h + v*k <= w."""
        return _FAMILIES[self.family][0](self.n, self.m)

    def __contains__(self, f: object) -> bool:
        """True when f is a term of the sequence: inside its stretch and bounds."""
        if not isinstance(f, Frac):
            return False
        bounds, (_, (h0, k0), (h1, k1)) = _FAMILIES[self.family]
        h, k = f.h, f.k
        if h0 * k > h * k0 or h * k1 > h1 * k:
            return False
        for u, v, w in bounds(self.n, self.m):
            if u * h + v * k > w:
                return False
        return True

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


# The walks: a bounded sequence has some bound with x1 > 0 at every term
# but its last, else t would have no limit.  The loop tests k1 first: it
# equals k_last only at the last term and, for 0/1 .. 1/1, at the first.


def _walk_one(bounds: tuple[tuple[int, int, int], ...],
              stretch: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, int]]:
    ((u, v, w),) = bounds
    (h0, k0), (h1, k1), (h_last, k_last) = stretch
    x0, x1 = u * h0 + v * k0, u * h1 + v * k1
    yield h1, k1
    while k1 != k_last or h1 != h_last:
        t = (w + x0) // x1  # the one bound: x1 > 0
        h0, h1 = h1, t * h1 - h0
        k0, k1 = k1, t * k1 - k0
        x0, x1 = x1, t * x1 - x0
        yield h1, k1


def _walk_two(bounds: tuple[tuple[int, int, int], ...],
              stretch: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, int]]:
    (u, v, w), (p, q, r) = bounds
    (h0, k0), (h1, k1), (h_last, k_last) = stretch
    x0, x1 = u * h0 + v * k0, u * h1 + v * k1
    y0, y1 = p * h0 + q * k0, p * h1 + q * k1
    yield h1, k1
    while k1 != k_last or h1 != h_last:
        if x1 > 0:
            t = (w + x0) // x1
            if y1 > 0:
                s = (r + y0) // y1
                if s < t:
                    t = s
        else:
            t = (r + y0) // y1
        h0, h1 = h1, t * h1 - h0
        k0, k1 = k1, t * k1 - k0
        x0, x1 = x1, t * x1 - x0
        y0, y1 = y1, t * y1 - y0
        yield h1, k1


# a walk per number of bounds; every _FAMILIES row has one or two
_WALKS = {1: _walk_one, 2: _walk_two}


def iter_pairs(d: SeqDescriptor) -> Iterator[tuple[int, int]]:
    """Terms of the sequence d names, ascending, as coprime (h, k) int pairs.

    From consecutive terms h0/k0 < h1/k1 the next is (t*h1 - h0)/(t*k1 - k0)
    for the largest t that keeps it inside every bound: the minimum of
    (w + x0) // x1 over the bounds with x1 > 0, where x0 = u*h0 + v*k0 and
    x1 = u*h1 + v*k1 are the bound's form at the two terms.  The other
    bounds only loosen as t grows.  The form is linear, so its value at the
    next term is t*x1 - x0: each bound's pair (x0, x1) is carried through
    the same recurrence as the terms, and no step multiplies by a
    coefficient.  Every family has one or two bounds, and each count has
    its own loop.  Each step keeps h1*k0 - h0*k1 = 1, so every pair is
    coprime without a gcd.
    """
    bounds = d.bounds
    return _WALKS[len(bounds)](bounds, _FAMILIES[d.family][1])


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
