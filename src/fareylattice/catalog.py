"""The catalog of monotone unimodular bijections between the sequences.

Eleven maps, each a 2x2 integer matrix acting on h/k as a column vector:

  complement       boolean(n,m)  -> boolean(n,n-m)   (k-h)/k      reversing
  farey-reversal   farey(m)      -> farey(m)         (k-h)/k      reversing
  sym-complement   boolean(2m,m) -> itself           (k-h)/k      reversing
  left-flip        left half     -> itself           (k-2h)/(2k-3h) reversing
  right-flip       right half    -> itself           h/(3h-k)     reversing
  left-to-right    left half     -> right half       (k-h)/(2k-3h) preserving
  right-to-left    right half    -> left half        (2h-k)/(3h-k) preserving
  left-to-farey    left half     -> farey(m)         h/(k-h)      preserving
  farey-to-left    farey(m)      -> left half        h/(k+h)      preserving
  right-to-farey   right half    -> farey(m)         (k-h)/h      reversing
  farey-to-right   farey(m)      -> right half       k/(k+h)      reversing

A map applies when both its endpoint sequences exist: complement for
every 0 < m < n, the rest when n = 2m, from m = 1.  The matrices are in
MATRICES; everything else about a map is one row of _MAPS, from which
catalog() builds its descriptors.  Each map is checked two ways:
extensionally, by mapping every (h, k) pair iter_pairs generates for the
domain and comparing the images, in order, with the codomain's pairs, and
intensionally, through determinant, involution, and inverse-pair identities
on the matrices themselves.  verify_catalog generates each endpoint once per
call and shares its pair list, read-only, among the maps that read it.
Descriptors, counterexamples and reports are named tuples: verify_map
gathers its checks first and then builds the one report it returns.
"""

from __future__ import annotations

from typing import NamedTuple

from .fracs import Frac, UnimodularMap
from .identities import farey_boolean_rank
from .sequences import (
    BOOLEAN,
    FAREY,
    LEFT_HALF,
    RIGHT_HALF,
    SeqDescriptor,
    _check_order,
    iter_pairs,
)

PRESERVING = "preserving"
REVERSING = "reversing"

COMPLEMENT = "complement"
FAREY_REVERSAL = "farey-reversal"
SYM_COMPLEMENT = "sym-complement"
LEFT_FLIP = "left-flip"
RIGHT_FLIP = "right-flip"
LEFT_TO_RIGHT = "left-to-right"
RIGHT_TO_LEFT = "right-to-left"
LEFT_TO_FAREY = "left-to-farey"
FAREY_TO_LEFT = "farey-to-left"
RIGHT_TO_FAREY = "right-to-farey"
FAREY_TO_RIGHT = "farey-to-right"

# (a, b, c, d) for [[a, b], [c, d]]; module-level so tests can corrupt a copy
MATRICES: dict[str, tuple[int, int, int, int]] = {
    COMPLEMENT: (-1, 1, 0, 1),
    FAREY_REVERSAL: (-1, 1, 0, 1),
    SYM_COMPLEMENT: (-1, 1, 0, 1),
    LEFT_FLIP: (-2, 1, -3, 2),
    RIGHT_FLIP: (1, 0, 3, -1),
    LEFT_TO_RIGHT: (-1, 1, -3, 2),
    RIGHT_TO_LEFT: (2, -1, 3, -1),
    LEFT_TO_FAREY: (1, 0, -1, 1),
    FAREY_TO_LEFT: (1, 0, 1, 1),
    RIGHT_TO_FAREY: (-1, 1, 1, 0),
    FAREY_TO_RIGHT: (0, 1, 1, 1),
}

MAP_NAMES = tuple(MATRICES)

# A row names its endpoints by slot: BOOLEAN is boolean(n, m), _DUAL is
# boolean(n, n - m), and when n = 2m, _SYMMETRIC is boolean(n, m) again,
# LEFT_HALF and RIGHT_HALF are its halves and FAREY is farey(m).
_DUAL, _SYMMETRIC = "dual", "symmetric"

# name -> (domain, codomain, direction, the map that undoes it)
_MAPS = {
    COMPLEMENT: (BOOLEAN, _DUAL, REVERSING, COMPLEMENT),
    FAREY_REVERSAL: (FAREY, FAREY, REVERSING, FAREY_REVERSAL),
    SYM_COMPLEMENT: (_SYMMETRIC, _SYMMETRIC, REVERSING, SYM_COMPLEMENT),
    LEFT_FLIP: (LEFT_HALF, LEFT_HALF, REVERSING, LEFT_FLIP),
    RIGHT_FLIP: (RIGHT_HALF, RIGHT_HALF, REVERSING, RIGHT_FLIP),
    LEFT_TO_RIGHT: (LEFT_HALF, RIGHT_HALF, PRESERVING, RIGHT_TO_LEFT),
    RIGHT_TO_LEFT: (RIGHT_HALF, LEFT_HALF, PRESERVING, LEFT_TO_RIGHT),
    LEFT_TO_FAREY: (LEFT_HALF, FAREY, PRESERVING, FAREY_TO_LEFT),
    FAREY_TO_LEFT: (FAREY, LEFT_HALF, PRESERVING, LEFT_TO_FAREY),
    RIGHT_TO_FAREY: (RIGHT_HALF, FAREY, REVERSING, FAREY_TO_RIGHT),
    FAREY_TO_RIGHT: (FAREY, RIGHT_HALF, REVERSING, RIGHT_TO_FAREY),
}


class MapDescriptor(NamedTuple):
    """One catalog entry: a named matrix with its domain, codomain, direction."""

    name: str
    matrix: UnimodularMap
    domain: SeqDescriptor
    codomain: SeqDescriptor
    direction: str
    involution: bool = False
    inverse_of: str | None = None


class Counterexample(NamedTuple):
    source: Frac | None
    image: Frac | None
    reason: str

    def __str__(self) -> str:
        src = "-" if self.source is None else str(self.source)
        img = "-" if self.image is None else str(self.image)
        return f"input={src} image={img}: {self.reason}"


class VerificationReport(NamedTuple):
    """Outcome of checking one catalog map at one parameter choice."""

    name: str
    n: int
    m: int
    checks: list[tuple[str, bool]]
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def __str__(self) -> str:
        status = "pass" if self.passed else "fail"
        failed = [c for c, ok in self.checks if not ok]
        tail = "" if self.passed else f" failed={','.join(failed)} ({self.counterexample})"
        return f"{self.name} n={self.n} m={self.m}: {status}{tail}"


def _mat(name: str) -> UnimodularMap:
    return UnimodularMap(*MATRICES[name], check=False)


def catalog(n: int, m: int) -> list[MapDescriptor]:
    """The catalog maps whose endpoint sequences exist at (n, m), in _MAPS order.

    boolean(n, m) and boolean(n, n - m) exist for every 0 < m < n; the
    symmetric slot, the halves and farey(m) only when n = 2m, from m = 1.
    SeqDescriptor(BOOLEAN, n, m) refuses any other pair, in its own words.
    """
    slots = {BOOLEAN: SeqDescriptor(BOOLEAN, n, m), _DUAL: SeqDescriptor(BOOLEAN, n, n - m)}
    if n == 2 * m:
        slots.update({_SYMMETRIC: slots[BOOLEAN],
                      LEFT_HALF: SeqDescriptor(LEFT_HALF, n, m),
                      RIGHT_HALF: SeqDescriptor(RIGHT_HALF, n, m),
                      FAREY: SeqDescriptor(FAREY, m)})
    return [
        MapDescriptor(name, _mat(name), slots[domain], slots[codomain], direction,
                      involution=partner == name,
                      inverse_of=None if partner == name else partner)
        for name, (domain, codomain, direction, partner) in _MAPS.items()
        if domain in slots and codomain in slots
    ]


def _context_params(d: MapDescriptor) -> tuple[int, int]:
    # report (n, m) of the subsequence the map belongs to, even when the
    # map's own endpoints are standard Farey sequences of order m
    for desc in (d.domain, d.codomain):
        if desc.family != FAREY:
            return desc.n, desc.m
    return 2 * d.domain.n, d.domain.n


def _mismatch(d: MapDescriptor, domain_pairs: list[tuple[int, int]],
              codomain_pairs: list[tuple[int, int]], images: list[tuple[int, int]],
              expected: list[tuple[int, int]]) -> tuple[list[tuple[str, bool]], Counterexample]:
    """The failed checks and a counterexample when the images are not `expected`.

    In order: the first invalid image, the first image outside the codomain,
    the first codomain term with no preimage, and only when the image set is
    the codomain, the first index out of the map's direction.
    """
    domain = [Frac._coprime(h, k) for h, k in domain_pairs]
    for f in domain:
        try:
            d.matrix.apply(f)
        except (ValueError, ArithmeticError) as exc:
            return [("image-set", False)], Counterexample(f, None, str(exc))
    for f, (h, k) in zip(domain, images):
        g = Frac._coprime(h, k)
        if g not in d.codomain:
            return [("image-set", False)], Counterexample(f, g, "image is not a codomain term")
    image_set = set(images)
    for h, k in codomain_pairs:
        if (h, k) not in image_set:
            return ([("image-set", False)],
                    Counterexample(None, Frac._coprime(h, k), "codomain term has no preimage"))
    # a unimodular map is one to one, so the images are the codomain reordered
    i = next(i for i, (g, want) in enumerate(zip(images, expected)) if g != want)
    reason = f"expected {expected[i][0]}/{expected[i][1]} for {d.direction} order at index {i}"
    return ([("image-set", True), ("direction", False)],
            Counterexample(domain[i], Frac._coprime(*images[i]), reason))


def _verify(d: MapDescriptor,
            walked: dict[SeqDescriptor, list[tuple[int, int]]]) -> VerificationReport:
    """verify_map, reading each endpoint's pairs from `walked` and adding
    the ones it lacks; it never modifies a list it holds."""
    n, m = _context_params(d)
    det_ok = abs(d.matrix.det) == 1
    checks = [("determinant", det_ok)]
    if not det_ok:
        return VerificationReport(d.name, n, m, checks, Counterexample(
            None, None, f"matrix {d.matrix} has determinant {d.matrix.det}"))

    _check_order(d.domain)
    _check_order(d.codomain)
    for desc in (d.domain, d.codomain):
        if desc not in walked:
            walked[desc] = list(iter_pairs(desc))
    domain, codomain = walked[d.domain], walked[d.codomain]

    a, b, c, e = d.matrix.entries()  # [[a, b], [c, e]]
    images = [(a * h + b * k, c * h + e * k) for h, k in domain]
    expected = codomain if d.direction == PRESERVING else codomain[::-1]
    if images != expected:
        failed, counterexample = _mismatch(d, domain, codomain, images, expected)
        return VerificationReport(d.name, n, m, checks + failed, counterexample)
    checks += [("image-set", True), ("direction", True)]

    if d.involution:
        checks.append(("involution", d.matrix.is_involution()))
    if d.inverse_of is not None:
        partner = _mat(d.inverse_of)
        checks.append(("inverse-pair", (partner @ d.matrix)._is_plus_minus_identity()))
    if all(ok for _, ok in checks):
        return VerificationReport(d.name, n, m, checks)
    return VerificationReport(d.name, n, m, checks,
                              Counterexample(None, None, "matrix identity check failed"))


def verify_map(d: MapDescriptor) -> VerificationReport:
    """Run every applicable check on one catalog map.

    Both endpoints come from iter_pairs, never through a catalog map.  The
    images of the domain's pairs, taken in order, must equal the codomain's
    pairs in the map's direction; _mismatch classifies any difference.
    Failures are reported, never raised; an order above MAX_ORDER raises
    ValueError.
    """
    return _verify(d, {})


def verify_catalog(n: int, m: int) -> list[VerificationReport]:
    """Verify every catalog map for (n, m), as verify_map does.

    Each endpoint is generated once per call: the eleven maps of the
    symmetric case read only four sequences, boolean(2m, m), its two halves
    and farey(m), and their pair lists are shared by every map that reads
    them, within this call only.
    """
    walked: dict[SeqDescriptor, list[tuple[int, int]]] = {}
    return [_verify(d, walked) for d in catalog(n, m)]


def matrix_coherence_checks() -> list[tuple[str, bool]]:
    """Cross-route identities tying the bridge maps together, matrix level.

    Composing the half-to-farey bridges with the reversal recovers the
    half-to-half maps; composing a flip with the complement does the same.
    """
    lr, rl = _mat(LEFT_TO_RIGHT), _mat(RIGHT_TO_LEFT)
    l2f, f2l = _mat(LEFT_TO_FAREY), _mat(FAREY_TO_LEFT)
    r2f, f2r = _mat(RIGHT_TO_FAREY), _mat(FAREY_TO_RIGHT)
    rev, comp = _mat(FAREY_REVERSAL), _mat(SYM_COMPLEMENT)
    lflip, rflip = _mat(LEFT_FLIP), _mat(RIGHT_FLIP)
    return [
        ("farey-route-is-complement", f2r @ l2f == comp),
        ("flip-of-complement-is-left-to-right", rflip @ comp == lr),
        ("flip-of-complement-is-right-to-left", lflip @ comp == rl),
        ("reversal-route-is-left-to-right", f2r @ rev @ l2f == lr),
        ("reversal-route-is-right-to-left", f2l @ rev @ r2f == rl),
    ]


def quarter_indices(m: int) -> tuple[int, int, int, int]:
    """Indices of 1/3, 1/2, 2/3, 1/1 in the symmetric sequence for m > 1.

    They always land in ratio 1:2:3:4, which in particular makes the last
    index (the length minus one) divisible by four; both facts are
    asserted here rather than trusted.  The indices are Moebius counts
    (identities.farey_boolean_rank), so no sequence is built and no map of
    this catalog is used.
    """
    if m <= 1:  # 1/3 is not a term of boolean(2, 1)
        raise ValueError(f"quarter indices need m > 1, got {m}")
    idx = [farey_boolean_rank(h, k, m) for h, k in ((1, 3), (1, 2), (2, 3), (1, 1))]
    t13, t12, t23, t11 = idx
    if (t12, t23, t11) != (2 * t13, 3 * t13, 4 * t13):
        raise ArithmeticError(
            f"quarter indices {idx} for m={m} are not in ratio 1:2:3:4"
        )
    return t13, t12, t23, t11
