"""Constant-time neighbor formulas for Farey-type sequences.

One step, _neighbor, serves both point families and both directions; the
four public functions each call it once.  It maps f to its image p/q in
the order-m Farey sequence F_m and steps there: the unique x0 with
p*x0 = -1 (mod q) in the window [m-q+1, m] gives the successor
((p*x0+1)/q) / x0, and the +1 congruence gives the predecessor the same
way.  For farey the image is f itself.  The symmetric subsequence
F(B(2m), m) splits at 1/2 into halves in monotone bijection with F_m, and f
steps in the half that continues past it.  On the left half h/k maps to
h/(k-h), carried back by p/q -> p/(p+q).  On the right half the paper
conjugates through the order-reversing complement h/k -> (k-h)/k, so h/k
maps to (k-h)/h and steps the other way.  f is a term exactly when its
image is in F_m, q <= m: on a boolean term q = max(h, k-h), so this is the
family's box, and it is the window's own precondition.  m = 1 needs no
case of its own: its windows hold the one integer 1.

solve_congruence_in_range is the public solver: its checks, then the private
_solve.  _neighbor's window [m-q+1, m] holds q integers and its image p/q is
reduced, so it always meets those checks: it calls _solve directly and keeps
only its exactness guard.
"""

from __future__ import annotations

from math import gcd

from .fracs import Frac
from .sequences import BOOLEAN, FAREY, _point_sequence


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

    f is mapped to its F_m image p/q, which steps with sign s; f is a term
    exactly when m is an int (not a bool) and q <= m.  One congruence step
    in F_m, with its exactness re-checked as a guard on the solver, is
    mapped back.
    """
    h, k = f.h, f.k
    # a boolean term steps in the half that continues past it: forward from
    # 1/2 is the right half, back the left
    if family == FAREY:
        p, q, s = h, k, sign
    elif 2 * h < k + (sign > 0):
        p, q, s = h, k - h, sign
    else:
        # the complement (k-h)/k steps the other way on the left half
        p, q, s = k - h, h, -sign
    if type(m) is not int or q > m:
        raise ValueError(f"{f} is not a term of {_point_sequence(family, m)}")
    # f is reduced with 0 <= h <= k, so h == k is 1/1 and h == 0 is 0/1
    if h == (k if sign < 0 else 0):
        raise ValueError("1/1 has no successor" if sign < 0 else "0/1 has no predecessor")
    x0 = _solve(p, q, s, m - q + 1)
    a, r = divmod(p * x0 - s, q)
    if r:
        raise ArithmeticError(f"inexact division stepping from {p}/{q} with m={m}")
    if family == FAREY:
        return Frac._coprime(a, x0)
    return Frac._coprime(a, a + x0) if s == sign else Frac._coprime(x0, a + x0)


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
