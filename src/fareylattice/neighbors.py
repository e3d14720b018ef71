"""Constant-time neighbor formulas for Farey-type sequences.

One step, _neighbor, serves both point families and both directions; the
four public functions each call it once.  It maps f to its image p/q in
the order-m Farey sequence F_m and steps there: the unique x0 with
p*x0 = -1 (mod q) in the window [m-q+1, m] gives the successor
((p*x0+1)/q) / x0, and the +1 congruence gives the predecessor the same
way.  The image is read from the family's row of sequences._FAMILIES: in
(x, y) = (h, k - c*h), for the shear c, both point families are the reduced
x/y with x, y <= m.  At or below 1/1 that is F_m, and x/y is the image: f
itself for farey (c = 0), h/(k-h) on boolean's left half (c = 1).  Above
1/1, on boolean's right half, the paper conjugates through the
order-reversing complement h/k -> (k-h)/k, so the transpose y/x is the
image and steps the other way; at 1/1, boolean's 1/2, f steps in the half
that continues past it.  f is a term exactly when its image is in F_m,
q = max(x, y) <= m: that is the family's box, and the window's own
precondition.  m = 1 needs no case of its own: its windows hold the one
integer 1.

solve_congruence_in_range is the public solver: its checks, then the private
_solve.  _neighbor's window [m-q+1, m] holds q integers and its image p/q is
reduced, so it always meets those checks: it calls _solve directly and keeps
only its exactness guard.
"""

from __future__ import annotations

from math import gcd

from .fracs import Frac
from .sequences import _FAMILIES, BOOLEAN, FAREY, _point_sequence


def solve_congruence_in_range(
    h: int, modulus: int, residue_sign: int, lo: int, hi: int
) -> int:
    """The unique x0 in [lo, hi] with h*x0 = residue_sign (mod modulus).

    The window must contain exactly `modulus` integers, which is what makes
    the solution unique.  residue_sign is +1 or -1.  The checks are here;
    the solution is _solve's, which _neighbor calls directly.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if residue_sign not in (1, -1):
        raise ValueError(f"residue_sign must be +1 or -1, got {residue_sign}")
    if hi - lo + 1 != modulus:
        raise ValueError(
            f"window [{lo}, {hi}] holds {hi - lo + 1} integers, expected {modulus}"
        )
    g = gcd(h, modulus)
    if g != 1:
        raise ValueError(f"no solution: gcd({h}, {modulus}) = {g} > 1")
    return _solve(h, modulus, residue_sign, lo)


def _solve(h: int, modulus: int, sign: int, lo: int) -> int:
    """The x0 in [lo, lo + modulus - 1] with h*x0 = sign (mod modulus), for
    modulus >= 1, sign +1 or -1 and gcd(h, modulus) = 1, unchecked."""
    # h*inv = 1 (mod modulus), so the residue class is sign*inv
    return lo + (sign * pow(h % modulus, -1, modulus) - lo) % modulus


def _neighbor(f: Frac, m: int, family: str, sign: int) -> Frac:
    """The term next to f in _point_sequence(family, m): sign -1 the
    successor, +1 the predecessor.

    f is mapped to its F_m image p/q in the family's (x, y), which steps
    with sign s; f is a term exactly when m is an int (not a bool) and
    q <= m.  One congruence step in F_m, with its exactness re-checked as a
    guard on the solver, is mapped back.
    """
    c = _FAMILIES[family][0]
    x, y = f.h, f.k - c * f.h
    # above 1/1, and at 1/1 when stepping onward, the transpose y/x steps the other way
    p, q, s = (x, y, sign) if x < y + (sign > 0) else (y, x, -sign)
    if type(m) is not int or q > m:
        raise ValueError(f"{f} is not a term of {_point_sequence(family, m)}")
    # f is reduced with 0 <= h <= k, so h == k is 1/1 and h == 0 is 0/1
    if f.h == (f.k if sign < 0 else 0):
        raise ValueError("1/1 has no successor" if sign < 0 else "0/1 has no predecessor")
    x0 = _solve(p, q, s, m - q + 1)
    a, r = divmod(p * x0 - s, q)
    if r:
        raise ArithmeticError(f"inexact division stepping from {p}/{q} with m={m}")
    x, y = (a, x0) if s == sign else (x0, a)
    return Frac._coprime(x, y + c * x)


def next_in_farey(f: Frac, m: int) -> Frac:
    """Immediate successor of f in the Farey sequence of order m."""
    return _neighbor(f, m, FAREY, -1)


def prev_in_farey(f: Frac, m: int) -> Frac:
    """Immediate predecessor of f in the Farey sequence of order m."""
    return _neighbor(f, m, FAREY, 1)


def succ_in_boolean(f: Frac, m: int) -> Frac:
    """Immediate successor of f in F(B(2m), m)."""
    return _neighbor(f, m, BOOLEAN, -1)


def pred_in_boolean(f: Frac, m: int) -> Frac:
    """Immediate predecessor of f in F(B(2m), m)."""
    return _neighbor(f, m, BOOLEAN, 1)
