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
membership both read that table, whose stretch is its first and last term.
One recurrence walks the terms, in (x, y): the bounded next-term
recurrence (Graham, Knuth and Patashnik, Concrete Mathematics, section
4.5), from a term and any neighbour to its right, a lattice point of
determinant 1 against it.  After consecutive terms x0/y0 < x1/y1 comes
(t*x1 - x0)/(t*y1 - y0) for the largest t that keeps it in the box, in
one floor division per term for every family: the bound on y gives t up to
the box's corner ray x/y = A/B, and the bound on x alone past it.
_walk streams the terms as (h, k) = (x, y + c*x) int pairs; iter_pairs
is _walk from the stretch's first term, whose neighbour is 1/0.  Each
pair is reduced, as h1*k0 - h0*k1 = 1, so iter_terms wraps them as Frac
without a gcd.  gen's pieces, up to cli._TABLE_MAX_ORDER, take _walk_text:
_walk's two loops, appending each term's two table strings with no
generator, tuple or islice per term.

_pieces cuts a sequence into consecutive pieces (left term, its
neighbour, right term) that the walk can take one at a time, in any
process.  Between neighbours l < r, the terms are exactly the points
i*l + j*r in the box with coprime i, j >= 1, and their number is at most
the area of the wedge between l and r in the box.  So _pieces descends
the box's Stern-Brocot tree of neighbour pairs from the stretch's ends,
splitting a node at its mediant while 3/5 of that area (about 6/pi^2, the
share of coprime pairs) exceeds the size asked for, and merges
consecutive small leaves.  No float is used.  A piece holds about that
many terms, or fewer: at 4096, the largest piece of farey(2000),
boolean(3000, 1000) and the halves at n = 2400 holds 4147, 4151 and
4128 terms.  A left run of the tree is taken in one step and holds one
pending entry, so the pending state is a few entries: at most 6 at
n = 20000, and 1 at n = 10^9.  The run's consecutive siblings are taken
as one leaf while the estimate of their union fits the size, so a piece
costs the cutter a bounded number of steps also where the leaves hold
two or three terms, as they do near fractions of small denominator.

A SeqDescriptor names a sequence as the named tuple (family, n, m),
checked when built; `f in descriptor` tests the stretch and the box
directly, and only the descriptor decides which (family, n, m) exist
(halves need n = 2m).  FareySeq(descriptor) holds its terms as a tuple
built from the descriptor alone, and compares, hashes and tests
membership by the descriptor.  The builders farey(n),
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


# A stretch is its first and last term, in (x, y); the two are neighbours,
# x1*y0 - x0*y1 = 1, so every term between them is i*first + j*last.
_TO_ONE = ((0, 1), (1, 1))
_TO_INFINITY = ((0, 1), (1, 0))
_ONE_TO_INFINITY = ((1, 1), (1, 0))

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
        c, box, ((x0, y0), (x1, y1)) = _FAMILIES[self.family]
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
    """Terms of the sequence d names, ascending, as coprime (h, k) int pairs:
    the walk from the stretch's first term, whose neighbour 1/0 lies to its
    right (both first terms, 0/1 and 1/1, have y = 1)."""
    _, _, (first, last) = _FAMILIES[d.family]
    return _walk(d, first, (1, 0), last)


def _walk(d: SeqDescriptor, left: tuple[int, int], partner: tuple[int, int],
          right: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """The terms of d from left through right, as (h, k) pairs.  left and
    right are terms of d in (x, y), left < right, and partner is any lattice
    point with partner_x*left_y - left_x*partner_y = 1.

    The walk runs in the family's (x, y) = (h, k - c*h).  The points with
    that determinant against left are partner + t*left, so left's successor
    is the one for the largest t that stays in the box x <= A, y <= B.
    With x0/y0 = -partner, and from then on the previous term, that is
    (t*x1 - x0)/(t*y1 - y0) for t the lesser of (B + y0) // y1 and
    (A + x0) // x1.  Since (A + x0)*y1 - (B + y0)*x1 = A*y1 - B*x1 - 1, the
    y bound is the lesser while x1/y1 lies left of the box's corner ray
    x/y = A/B, so its x first exceeds A at a term on or past the ray; every
    later term lies further right, where the x bound is the lesser.  So the
    walk takes t = (B + y0) // y1 until the x it gives exceeds A, and from
    that term on t = (A + x0) // x1 alone, in a second loop: one division
    per term, two at the one step where the loops meet.  y1 = 0 only at the
    last term 1/0, and x1 = 0 only at the first term 0/1, left of the ray;
    so neither division is by zero.  Each step carries (x, y) alone and emits
    (h, k) = (x, y + c*x).  Each step keeps x1*y0 - x0*y1 = h1*k0 - h0*k1 = 1,
    so every pair is coprime without a gcd.  _walk_text is the same recurrence.
    """
    c, box, _ = _FAMILIES[d.family]
    a, b = box(d.n, d.m)
    (x1, y1), (x_last, y_last) = left, right
    x0, y0 = -partner[0], -partner[1]
    yield x1, y1 + c * x1
    # y1 equals y_last only at the last term and, on 0/1 .. 1/1, at the first
    while y1 != y_last or x1 != x_last:
        t = (b + y0) // y1
        x = t * x1 - x0
        if x > a:
            break
        x0, x1 = x1, x
        y0, y1 = y1, t * y1 - y0
        yield x, y1 + c * x
    while y1 != y_last or x1 != x_last:
        t = (a + x0) // x1
        x = t * x1 - x0
        x0, x1 = x1, x
        y0, y1 = y1, t * y1 - y0
        yield x, y1 + c * x


def _walk_text(d: SeqDescriptor, left: tuple[int, int], partner: tuple[int, int],
               right: tuple[int, int], nums: list[str], dens: list[str]) -> str:
    """_walk's terms after left, as nums[h] + dens[k] each, joined: the same
    recurrence, in the same two loops, with no generator between them."""
    c, box, _ = _FAMILIES[d.family]
    a, b = box(d.n, d.m)
    (x1, y1), (x_last, y_last) = left, right
    x0, y0 = -partner[0], -partner[1]
    text = []
    append = text.append
    while y1 != y_last or x1 != x_last:
        t = (b + y0) // y1
        x = t * x1 - x0
        if x > a:
            break
        x0, x1 = x1, x
        y0, y1 = y1, t * y1 - y0
        append(nums[x])
        append(dens[y1 + c * x])
    while y1 != y_last or x1 != x_last:
        t = (a + x0) // x1
        x = t * x1 - x0
        x0, x1 = x1, x
        y0, y1 = y1, t * y1 - y0
        append(nums[x])
        append(dens[y1 + c * x])
    return "".join(text)


def _inner(l: tuple[int, int], r: tuple[int, int], a: int, b: int) -> int:
    """About how many terms lie strictly between l < r in the box x <= a,
    y <= b: 0 when their mediant l + r is outside it, else 3/5 of the area of
    the wedge between l and r in the box.

    When l and r are neighbours, those terms are the coprime (i, j) >= 1 with
    i*l + j*r in the box.  Since l and r have determinant 1, the wedge's area
    is that of the (i, j) it holds, and each (i, j) >= 1 owns the unit square
    below and left of it, inside the wedge's part of the box: so the area
    bounds the terms, and 3/5 is about 6/pi^2, the share of coprime pairs.
    When l and r are not neighbours, as for consecutive siblings in a run,
    their wedge is the union of the neighbours' wedges between them, and its
    area carries their determinant rx*ly - lx*ry.  The wedge leaves the box
    through its top edge, its side, or both sides of the corner (a, b).
    """
    (lx, ly), (rx, ry) = l, r
    if lx + rx > a or ly + ry > b:
        return 0
    if rx * b <= a * ry:
        twice_area = b * b * (rx * ly - lx * ry) // (ly * ry)
    elif lx * b >= a * ly:
        twice_area = a * a * (rx * ly - lx * ry) // (lx * rx)
    else:
        twice_area = (2 * a * b * ly * rx - b * b * lx * rx - a * a * ly * ry) // (ly * rx)
    return twice_area * 3 // 10


def _steps(q: tuple[int, int], l: tuple[int, int], a: int, b: int) -> int:
    """The largest t with q + t*l in the box x <= a, y <= b, for a left end l
    (l_y > 0); below 0 when q itself lies outside the box."""
    (qx, qy), (lx, ly) = q, l
    t = (b - qy) // ly
    return min(t, (a - qx) // lx) if lx else t if qx <= a else -1


def _leaves(a: int, b: int, root, size: int) -> Iterator[tuple]:
    """The leaves of the box's Stern-Brocot tree below the neighbours root,
    in order, each as (its left term, a partner of that term, its right term,
    about how many terms follow its left one), all in (x, y).

    A node (l, r) whose _inner estimate exceeds size splits at its mediant
    l + r, which then lies in the box, into (l, l + r) and (l + r, r); else
    it is the leaf (l, r, r, inner + 1).  A node's whole left run (l, r + j*l),
    down to its first leaf, is taken in one step, by a binary search for that
    leaf's j, and leaves one pending entry: the run's right siblings
    P_i = (r + i*l, r + (i-1)*l), for i from j down to 1.  So the pending
    entries are one per run on the path from the root.  The siblings
    P_j .. P_(i+1) are taken as one leaf, for the smallest i at which they
    hold size terms or fewer, by a second binary search, so that a piece
    costs a bounded number of steps wherever its leaves are small.  Each
    sibling holds its right term; those above s, whose mediant
    2r + (2i-1)*l leaves the box, hold no other, and the rest about the
    _inner estimate of their union.  A sibling that alone holds more is a
    node.
    """
    pending = []  # (l, r, j): a left run whose siblings j, j-1, ..., 1 are still to come
    node = root
    while True:
        if node is not None:
            l, r = node
            inner = _inner(l, r, a, b)
            if inner > size:
                (lx, ly), (rx, ry) = l, r
                # at j = top the node's mediant r + (j+1)*l leaves the box, so it is a leaf
                top, low = _steps(r, l, a, b), 1
                while low < top:
                    j = (low + top) // 2
                    if _inner(l, (rx + j * lx, ry + j * ly), a, b) > size:
                        low = j + 1
                    else:
                        top = j
                pending.append((l, r, top))
                node = l, (rx + top * lx, ry + top * ly)
                continue
            yield l, r, r, inner + 1
        if not pending:
            return
        l, r, j = pending[-1]
        (lx, ly), (rx, ry) = l, r
        # sibling i holds its mediant when 2i - 1 <= u, for the largest u with 2r + u*l in the box
        s = min(j, max(0, (_steps((2 * rx, 2 * ry), l, a, b) + 1) // 2))

        def terms(i: int) -> int:
            """About how many terms the siblings j down to i + 1 hold."""
            if i >= s:
                return j - i
            return j - i + _inner((rx + s * lx, ry + s * ly), (rx + i * lx, ry + i * ly), a, b)

        low, i = max(0, j - size), j
        while low < i:
            mid = (low + i) // 2
            if terms(mid) > size:
                low = mid + 1
            else:
                i = mid
        node = (rx + j * lx, ry + j * ly), (rx + (j - 1) * lx, ry + (j - 1) * ly)
        rest = min(i, j - 1)  # the siblings still to come; P_j alone is a node when i = j
        if rest:
            pending[-1] = l, r, rest
        else:
            pending.pop()
        if i < j:
            yield *node, (rx + i * lx, ry + i * ly), terms(i)
            node = None


def _pieces(d: SeqDescriptor, size: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Consecutive pieces (left, partner, right) of the sequence d names, in
    (x, y), for _walk: the first from the stretch's first term, each next
    from the last one's right, the last through the stretch's last term.  A
    piece holds about size terms after its left one, or fewer.

    The pieces are _leaves' leaves below the stretch's ends, which are
    neighbours, merged while they are consecutive and their terms, as
    estimated, stay within size.  A merged piece walks from its first leaf's
    left term and partner.
    """
    _, box, root = _FAMILIES[d.family]
    left = None
    for l, p, r, count in _leaves(*box(d.n, d.m), root, size):
        if left is not None and terms + count <= size:
            right, terms = r, terms + count
        else:
            if left is not None:
                yield left, partner, right
            left, partner, right, terms = l, p, r, count
    yield left, partner, right


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
