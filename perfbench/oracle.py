"""Correctness oracle for the benchmark, independent of fareylattice.

Nothing here imports the package under test.  Sequences are checked by
integer cross-multiplication and math.gcd, their lengths against a direct
gcd count, and point-query answers come from stdlib Fraction brute force.
Every check returns None on success or a one-line reason on failure.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from math import gcd

JSON_FAMILY = {None: None, "left": "left-half", "right": "right-half"}


def h_range(family: str, n: int, m: int | None, half: str | None, k: int) -> range:
    """Numerators h with h/k inside the family's bounds (gcd not yet applied)."""
    lo, hi = 0, k
    if family in ("upper", "boolean"):
        hi = min(hi, m)
    if family == "boolean":
        lo = max(lo, k - (n - m))
    if half == "left":
        hi = min(hi, k // 2)
    elif half == "right":
        lo = max(lo, (k + 1) // 2)
    return range(lo, hi + 1)


def expected_count(family: str, n: int, m: int | None, half: str | None) -> int:
    """Reduced h/k in the family, counted one gcd at a time."""
    return sum(
        1
        for k in range(1, n + 1)
        for h in h_range(family, n, m, half, k)
        if gcd(h, k) == 1
    )


def check_terms(terms: list[tuple[int, int]], family: str, n: int, m: int | None,
                half: str | None, count: int) -> str | None:
    """Strictly ascending reduced terms in bounds, as many as the gcd count.

    A strictly ascending list of distinct in-bounds reduced fractions with
    exactly `count` entries is the whole family, so this pins the output.
    """
    if len(terms) != count:
        return f"{len(terms)} terms, gcd count is {count}"
    prev = None
    for i, (h, k) in enumerate(terms):
        if k < 1 or gcd(h, k) != 1 or h not in h_range(family, n, m, half, k) or k > n:
            return f"term {i} {h}/{k} is not a reduced {family} term"
        if prev is not None and not prev[0] * k < h * prev[1]:
            return f"terms {i - 1}, {i} not ascending: {prev[0]}/{prev[1]}, {h}/{k}"
        prev = (h, k)
    return None


def parse_plain(text: str) -> list[tuple[int, int]] | str:
    """'h/k' lines into pairs, or a reason the text is malformed."""
    if not text.endswith("\n"):
        return "output does not end with a newline"
    terms = []
    for i, line in enumerate(text[:-1].split("\n")):
        h, sep, k = line.partition("/")
        if not (sep and h.isdigit() and k.isdigit()):
            return f"line {i} is not h/k: {line[:40]!r}"
        terms.append((int(h), int(k)))
    return terms


def check_gen(text: str, fmt: str, family: str, n: int, m: int | None,
              half: str | None, count: int) -> str | None:
    """Check the stdout of one `gen` call."""
    if fmt == "plain":
        terms = parse_plain(text)
        if isinstance(terms, str):
            return terms
        return check_terms(terms, family, n, m, half, count)
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if text != json.dumps(obj, separators=(",", ":")) + "\n":
        return "JSON output differs from its compact re-serialization"
    want_family = JSON_FAMILY[half] or family
    header = (obj.get("family"), obj.get("n"), obj.get("m"))
    if header != (want_family, n, m):
        return f"JSON header {header} != {(want_family, n, m)}"
    raw = obj.get("terms")
    if not isinstance(raw, list) or not all(
            isinstance(t, list) and len(t) == 2 and all(type(x) is int for x in t)
            for t in raw):
        return "JSON terms are not [h, k] integer pairs"
    return check_terms([(h, k) for h, k in raw], family, n, m, half, count)


def check_verify(text: str, checks: int) -> str | None:
    """`verify` prints one PASS line per check and PASS k/k last."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != checks + 2:
        return f"{len(lines) - 1} lines, expected {checks + 1}"
    if lines[-2] != f"PASS {checks}/{checks}":
        return f"summary {lines[-2]!r} != 'PASS {checks}/{checks}'"
    bad = next((ln for ln in lines[:-2] if not ln.startswith("PASS ")), None)
    return None if bad is None else f"check line {bad[:60]!r} did not pass"


# ----- point-query answers --------------------------------------------------

def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def farey_neighbor(h: int, k: int, m: int, direction: str) -> str:
    """Adjacent term of F_m: best candidate p/q over every denominator q."""
    if direction == "next":
        return _fmt(min(Fraction(h * q // k + 1, q) for q in range(1, m + 1)
                        if h * q // k + 1 <= q))
    return _fmt(max(Fraction((h * q - 1) // k, q) for q in range(1, m + 1)))


def boolean_neighbor(h: int, k: int, m: int, direction: str) -> str:
    """Adjacent term of the symmetric boolean sequence (p <= m, q - p <= m)."""
    best = None
    for q in range(1, 2 * m + 1):
        lo, hi = max(0, q - m), min(m, q)
        if direction == "next":
            p = max(h * q // k + 1, lo)
            if p <= hi:
                c = Fraction(p, q)
                best = c if best is None or c < best else best
        else:
            p = min((h * q - 1) // k if h else -1, hi)
            if p >= lo:
                c = Fraction(p, q)
                best = c if best is None or c > best else best
    return _fmt(best)


def family_terms(family: str, n: int, m: int | None, half: str | None = None) -> list[Fraction]:
    """The whole family, sorted, by brute force over (h, k)."""
    return sorted({Fraction(h, k) for k in range(1, n + 1)
                   for h in h_range(family, n, m, half, k)})


def index_answer(terms: list[Fraction], h: int, k: int) -> str:
    x = Fraction(h, k)
    i = bisect_left(terms, x)
    return str(i) if i < len(terms) and terms[i] == x else "absent"


def totient_prefix(limit: int) -> list[int]:
    """prefix[m] = sum of phi(q) for q <= m, by sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for q in range(p, limit + 1, p):
                phi[q] -= phi[q] // p
    prefix, total = [0] * (limit + 1), 0
    for q in range(1, limit + 1):
        total += phi[q]
        prefix[q] = total
    return prefix


def count_answer(prefix: list[int], family: str, m: int) -> str:
    """|F_m| = 1 + sum phi; the boolean family counts coprime (h, k-h) in
    [0, m]^2 minus (0, 0), which is 2 * sum phi + 1."""
    return str(1 + prefix[m] if family == "farey" else 2 * prefix[m] + 1)


# The eleven maps as fractional-linear functions of the value x = h/k,
# with the domain each one is defined on.
MAPS = {
    "complement": (lambda x: 1 - x, "boolean"),
    "farey-reversal": (lambda x: 1 - x, "farey"),
    "sym-complement": (lambda x: 1 - x, "sym"),
    "left-flip": (lambda x: (1 - 2 * x) / (2 - 3 * x), "left"),
    "right-flip": (lambda x: x / (3 * x - 1), "right"),
    "left-to-right": (lambda x: (1 - x) / (2 - 3 * x), "left"),
    "right-to-left": (lambda x: (2 * x - 1) / (3 * x - 1), "right"),
    "left-to-farey": (lambda x: x / (1 - x), "left"),
    "farey-to-left": (lambda x: x / (1 + x), "farey"),
    "right-to-farey": (lambda x: (1 - x) / x, "right"),
    "farey-to-right": (lambda x: 1 / (1 + x), "farey"),
}


def map_domain(name: str, n: int, m: int) -> tuple[str, int, int | None, str | None]:
    """(family, order, m, half) of the map's domain."""
    kind = MAPS[name][1]
    if kind == "boolean":
        return "boolean", n, m, None
    if kind == "farey":
        return "farey", m, None, None
    return "boolean", n, m, {"sym": None, "left": "left", "right": "right"}[kind]


def map_answer(name: str, h: int, k: int) -> str:
    return _fmt(MAPS[name][0](Fraction(h, k)))


def check_answer(expected: str | None, rc, out: str, err: str) -> str | None:
    """A valid query prints its answer; an invalid one exits 2 with a
    message on stderr and no traceback (expected is None)."""
    if expected is None:
        if rc != 2 or out or not err.strip() or "Traceback" in err:
            return f"invalid query gave exit {rc}, stdout {out[:40]!r}, stderr {err[:60]!r}"
        return None
    if rc != 0 or out != expected + "\n" or err:
        return f"exit {rc}, stdout {out[:40]!r}, expected {expected!r}"
    return None
