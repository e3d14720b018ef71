"""Constant-time neighbor formulas for Farey-type sequences.

One step, _neighbor, serves both point families and both directions: it
checks that f is a term, refuses the step past an endpoint, and makes one
F_m step.  The four public functions each call it once.  For h/k in the
order-m Farey sequence, the unique x0 with h*x0 = -1 (mod k) in the
window [m-k+1, m] gives the successor ((h*x0+1)/k) / x0, and the +1
congruence gives the predecessor the same way.  The symmetric subsequence
F(B(2m), m) splits at 1/2 into halves in monotone bijection with F_m, and
a step is taken in the half that continues past f.  On its left half, h/k
steps as its F_m image h/(k-h) does, carried back by p/q -> p/(p+q); that
is the paper's congruence with modulus k-h.  On its right half, the paper
conjugates through the order-reversing complement h/k -> (k-h)/k, which
swaps the halves and exchanges predecessor with successor.  m = 1 needs
no case of its own: its windows hold the one integer 1.
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
    the solution unique.  residue_sign is +1 or -1.
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
    inv = pow(h % modulus, -1, modulus)
    # h*inv = 1 (mod modulus), so the residue class is residue_sign*inv
    return lo + (residue_sign * inv - lo) % modulus


def _require_term(f: Frac, family: str, m: int) -> None:
    """Raise unless f is a term of _point_sequence(family, m), which is F_m
    for family farey and F(B(2m), m) for boolean.  _neighbor's one check.

    The bounds k <= m, or h <= m and k-h <= m, are tested on (h, k)
    directly, so a term builds no descriptor.  Otherwise _point_sequence
    refuses a non-int m (TypeError) or m < 1, each by m, and else names
    the sequence in the message.
    """
    h, k = f.h, f.k
    if isinstance(m, int) and (k <= m if family == FAREY else h <= m and k - h <= m):
        return
    raise ValueError(f"{f} is not a term of {_point_sequence(family, m)}")


def _farey_step(h: int, k: int, m: int, sign: int) -> tuple[int, int]:
    """One step from h/k inside F_m: sign -1 forward, +1 back.

    Solves h*x0 = sign (mod k) in [m-k+1, m] and returns the neighbor as
    the pair ((h*x0 - sign)/k, x0).  The division is exact precisely
    because x0 solves the congruence, so exactness is re-checked on every
    call as a guard on the solver.
    """
    x0 = solve_congruence_in_range(h, k, sign, m - k + 1, m)
    p, r = divmod(h * x0 - sign, k)
    if r:
        raise ArithmeticError(f"inexact division stepping from {h}/{k} with m={m}")
    return p, x0


def _neighbor(f: Frac, m: int, family: str, sign: int) -> Frac:
    """The term next to f in _point_sequence(family, m): sign -1 the
    successor, +1 the predecessor."""
    _require_term(f, family, m)
    h, k = f.h, f.k
    # f is reduced with 0 <= h <= k, so h == k is 1/1 and h == 0 is 0/1
    if h == (k if sign < 0 else 0):
        raise ValueError("1/1 has no successor" if sign < 0 else "0/1 has no predecessor")
    if family == FAREY:
        return Frac._coprime(*_farey_step(h, k, m, sign))
    # the half that continues past f: forward from 1/2 is the right, back the left
    if 2 * h < k + (sign > 0):
        p, q = _farey_step(h, k - h, m, sign)
        return Frac._coprime(p, p + q)
    # the complement (k-h)/k steps the other way on the left; complement back
    p, q = _farey_step(k - h, h, m, -sign)
    return Frac._coprime(q, p + q)


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
