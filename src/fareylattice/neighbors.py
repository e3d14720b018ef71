"""Constant-time neighbor formulas for Farey-type sequences.

A term of a Farey sequence determines its neighbors through a congruence:
for h/k in the order-m sequence, the unique x0 with h*x0 = -1 (mod k) in
the window [m-k+1, m] gives the successor ((h*x0+1)/k) / x0, and the +1
congruence gives the predecessor the same way.  The symmetric subsequence
F(B(2m), m) has analogous formulas with modulus k-h on its left half; the
right half is handled by conjugating through the order-reversing
complement map h/k -> (k-h)/k, which swaps the two halves and exchanges
predecessor with successor.
"""

from __future__ import annotations

from math import gcd

from .fracs import HALF, ONE, ZERO, Frac
from .sequences import BOOLEAN, FAREY, SeqDescriptor


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
    if modulus == 1:
        return lo
    g = gcd(h, modulus)
    if g != 1:
        raise ValueError(f"no solution: gcd({h}, {modulus}) = {g} > 1")
    inv = pow(h % modulus, -1, modulus)
    # h*inv = 1 (mod modulus), so the residue class is residue_sign*inv
    return lo + (residue_sign * inv - lo) % modulus


def _require_term(f: Frac, family: str, m: int) -> None:
    """Raise unless f is a term of F_m (family farey) or of F(B(2m), m).

    The bounds k <= m, or h <= m and k-h <= m, are tested on (h, k)
    directly; the descriptor is built only on failure, for its validation
    of m and its name in the message.
    """
    h, k = f.h, f.k
    member = k <= m if family == FAREY else (h <= m and k - h <= m)
    if member:
        return
    d = SeqDescriptor(FAREY, m) if family == FAREY else SeqDescriptor(BOOLEAN, 2 * m, m)
    raise ValueError(f"{f} is not a term of {d}")


def next_in_farey(f: Frac, m: int) -> Frac:
    """Immediate successor of f in the Farey sequence of order m."""
    _require_term(f, FAREY, m)
    if f == ONE:
        raise ValueError("1/1 has no successor")
    x0 = solve_congruence_in_range(f.h, f.k, -1, m - f.k + 1, m)
    return Frac._coprime((f.h * x0 + 1) // f.k, x0)


def prev_in_farey(f: Frac, m: int) -> Frac:
    """Immediate predecessor of f in the Farey sequence of order m."""
    _require_term(f, FAREY, m)
    if f == ZERO:
        raise ValueError("0/1 has no predecessor")
    x0 = solve_congruence_in_range(f.h, f.k, 1, m - f.k + 1, m)
    return Frac._coprime((f.h * x0 - 1) // f.k, x0)


def _complement(f: Frac) -> Frac:
    return Frac._coprime(f.k - f.h, f.k)


def _left_step(f: Frac, m: int, sign: int) -> Frac:
    """One step from f <= 1/2 inside F(B(2m), m): sign -1 forward, +1 back.

    Solves h*x0 = sign (mod k-h) in [m-k+h+1, m] and returns the pair
    ((h*x0 - sign)/(k-h), (k*x0 - sign)/(k-h)).  Both divisions are exact
    precisely because x0 solves the congruence, so exactness is re-checked
    on every call as a guard on the solver.
    """
    h, k = f.h, f.k
    d = k - h
    x0 = solve_congruence_in_range(h, d, sign, m - d + 1, m)
    num, num_r = divmod(h * x0 - sign, d)
    den, den_r = divmod(k * x0 - sign, d)
    if num_r or den_r:
        raise ArithmeticError(f"inexact division stepping from {f} with m={m}")
    return Frac._coprime(num, den)


# m=1 gives the three-term sequence 0/1 < 1/2 < 1/1; the congruence windows
# are stated only for m > 1, so step by direct lookup there.
_BOOLEAN_M1 = (ZERO, HALF, ONE)


def succ_in_boolean(f: Frac, m: int) -> Frac:
    """Immediate successor of f in F(B(2m), m)."""
    _require_term(f, BOOLEAN, m)
    if f == ONE:
        raise ValueError("1/1 has no successor")
    if m == 1:
        return _BOOLEAN_M1[_BOOLEAN_M1.index(f) + 1]
    if f < HALF:
        return _left_step(f, m, -1)
    # at or right of 1/2: conjugate, step backward on the left, conjugate back
    return _complement(_left_step(_complement(f), m, 1))


def pred_in_boolean(f: Frac, m: int) -> Frac:
    """Immediate predecessor of f in F(B(2m), m)."""
    _require_term(f, BOOLEAN, m)
    if f == ZERO:
        raise ValueError("0/1 has no predecessor")
    if m == 1:
        return _BOOLEAN_M1[_BOOLEAN_M1.index(f) - 1]
    if f <= HALF:
        return _left_step(f, m, 1)
    return _complement(_left_step(_complement(f), m, -1))
