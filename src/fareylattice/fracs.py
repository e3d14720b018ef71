"""Exact reduced fractions in [0, 1] and 2x2 integer matrix maps on them.

Everything here is plain integer arithmetic; nothing is ever rounded.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd


def _immutable(self, *_) -> None:
    """__setattr__ and __delattr__ of the immutable classes: refuse."""
    raise AttributeError(f"{type(self).__name__} is immutable")


@total_ordering
class Frac:
    """An irreducible fraction h/k with 0 <= h <= k and k >= 1.

    The constructor canonicalizes: Frac(2, 4) is stored as 1/2 and
    Frac(0, 7) as 0/1.  Inputs outside [0, 1] are rejected.
    """

    __slots__ = ("h", "k")

    def __init__(self, h: int, k: int) -> None:
        if k == 0:
            raise ValueError("zero denominator")
        if h < 0 or k < 0:
            raise ValueError(f"negative component in {h}/{k}")
        if h > k:
            raise ValueError(f"{h}/{k} lies outside [0/1, 1/1]")
        g = gcd(h, k)
        object.__setattr__(self, "h", h // g)
        object.__setattr__(self, "k", k // g)

    @staticmethod
    def _coprime(h: int, k: int) -> "Frac":
        """h/k from a pair already known coprime with 0 <= h <= k and k >= 1.

        Skips the constructor's checks and gcd; callers vouch for the pair,
        as the next-term recurrence and a unimodular image do.
        """
        f = _new_frac(Frac)
        _set_h(f, h)
        _set_k(f, k)
        return f

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, not the setter above
        return (Frac, (self.h, self.k))

    # comparisons by cross multiplication; Python ints never overflow.
    # total_ordering derives <=, > and >= from these two.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return self.h == other.h and self.k == other.k

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return self.h * other.k < other.h * self.k

    def __hash__(self) -> int:
        return hash((self.h, self.k))

    def __str__(self) -> str:
        return f"{self.h}/{self.k}"

    def __repr__(self) -> str:
        return f"Frac({self.h}, {self.k})"

    @classmethod
    def parse(cls, text: str) -> "Frac":
        """Parse 'h/k', two runs of ASCII digits around one slash, ends stripped."""
        h, slash, k = text.strip().partition("/")
        if not (slash and h.isascii() and h.isdigit() and k.isascii() and k.isdigit()):
            raise ValueError(f"expected 'h/k', got {text!r}")
        return cls(int(h), int(k))


# For Frac._coprime: the slot setters skip Frac.__setattr__, which forbids
# mutation, and cost less per call than object.__setattr__.
_new_frac = object.__new__
_set_h, _set_k = Frac.h.__set__, Frac.k.__set__

ZERO = Frac(0, 1)
HALF = Frac(1, 2)
ONE = Frac(1, 1)


class UnimodularMap:
    """A 2x2 integer matrix [[a, b], [c, d]] acting on fractions.

    A fraction h/k is treated as the column vector (h, k), so the image
    of h/k is (a*h + b*k) / (c*h + d*k).  With |det| = 1 and gcd(h, k) = 1
    the image pair is automatically coprime; apply() checks that instead
    of re-reducing, so a non-unimodular matrix fails loudly.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int, check: bool = True) -> None:
        for name, value in zip(self.__slots__, (a, b, c, d)):
            object.__setattr__(self, name, value)
        if check and abs(self.det) != 1:
            raise ValueError(f"matrix {self} has determinant {self.det}, not +-1")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self) -> tuple:
        # unchecked, so a matrix built with check=False round-trips too
        return (UnimodularMap, (*self.entries(), False))

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, f: Frac) -> Frac:
        """Image of f under the matrix, as a reduced Frac.

        Raises ValueError when f is outside the matrix's domain (the image
        falls outside [0/1, 1/1] or has a nonpositive denominator) and
        ArithmeticError when the image pair is not coprime, which can only
        happen for a non-unimodular matrix.
        """
        num = self.a * f.h + self.b * f.k
        den = self.c * f.h + self.d * f.k
        if den <= 0:
            raise ValueError(f"{f} maps to nonpositive denominator under {self}")
        if num < 0 or num > den:
            raise ValueError(f"{f} maps to {num}/{den}, outside [0/1, 1/1]")
        if gcd(num, den) != 1:
            raise ArithmeticError(
                f"image {num}/{den} of {f} under {self} is not reduced"
            )
        return Frac._coprime(num, den)

    def inverse(self) -> "UnimodularMap":
        """Exact integer inverse; defined because |det| = 1."""
        det = self.det
        if abs(det) != 1:
            raise ValueError(f"matrix {self} with determinant {det} has no integer inverse")
        return UnimodularMap(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            check=False,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnimodularMap):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __neg__(self) -> "UnimodularMap":
        return UnimodularMap(-self.a, -self.b, -self.c, -self.d, check=False)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def is_involution(self) -> bool:
        """True when the matrix squares to plus or minus the identity."""
        return (self @ self)._is_plus_minus_identity()

    def _is_plus_minus_identity(self) -> bool:
        # +-I fixes every fraction; catalog's inverse-pair check uses this too
        return self.is_identity() or (-self).is_identity()

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self) -> str:
        return f"UnimodularMap({self.a}, {self.b}, {self.c}, {self.d})"
