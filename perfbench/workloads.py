"""Seeded workloads: the argv lists the program sees, and what each must print.

Every workload is a batch of CLI calls that the benchmark runs over and
over ("passes").  Expected results are computed here by the oracle, before
any timing starts.  Parameters are drawn stratified (one draw per equal
slice of the range), so that different seeds give batches of nearly equal
cost and the spread between runs measures the program rather than the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, pi, sqrt

import oracle

# `verify --suite all --max-n 16 --max-m 40`, run as its four suites, one
# call each, with the check count the seed commit prints for each suite
# (1586 in all).  One call per suite lets the host-speed chunks sit between
# them.  The scale is fixed rather than seeded: it sets both the cost and
# the check counts, so a seeded scale would make the spread between runs
# measure the seed.
VERIFY_SCALE = ["--max-n", "16", "--max-m", "40"]
VERIFY_CHECKS = {"bijections": 593, "identities": 513, "partition": 120, "oracle": 360}

@dataclass
class Op:
    """One CLI call and what a correct run of it prints.

    kind is "gen", "verify" or "query".  For gen, spec is
    (format, family, n, m, half) and items the gcd count of its terms; for
    verify, items is the check count; for query, answer is the expected
    stdout line, or None when the correct result is exit 2 with a message.
    """

    argv: list[str]
    kind: str
    items: int = 1
    spec: tuple | None = None
    answer: str | None = None


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """count log-uniform integers in [lo, hi], one per equal slice, shuffled."""
    vals = [round(lo * (hi / lo) ** ((i + rng.random()) / count)) for i in range(count)]
    rng.shuffle(vals)
    return vals


def _pick_term(rng: random.Random, family: str, n: int, m: int | None,
               half: str | None = None, interior: bool = False) -> tuple[int, int]:
    """A reduced term of the family (not uniform over terms, which is fine)."""
    while True:
        k = rng.randint(1, n)
        hs = oracle.h_range(family, n, m, half, k)
        if not hs:
            continue
        h = rng.choice(hs)
        if gcd(h, k) == 1 and (not interior or 0 < h < k):
            return h, k


def gen_op(fmt: str, family: str, n: int, m: int | None = None,
            half: str | None = None) -> Op:
    argv = ["gen", "--family", family, "--n", str(n)]
    if m is not None:
        argv += ["--m", str(m)]
    if half is not None:
        argv += ["--half", half]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Op(argv, "gen", oracle.expected_count(family, n, m, half),
              (fmt, family, n, m, half))


# Terms each gen call emits.  A call's order is solved from this target and
# its seeded shape (m/n), using the coprime density 6/pi^2, so a pass costs
# nearly the same for every seed.
GEN_TERMS = 105_000
_DENSITY = 6 / pi ** 2


def gen_stream(rng: random.Random) -> list[Op]:
    """One call of each shape, each emitting about GEN_TERMS terms.

    upper (m ~ n/4) and boolean (m ~ n/3) discard most of the F_n terms they
    step through, and so do the halves, which use --half; the one JSON call
    materializes its sequence.  |F_n| ~ 3n^2/pi^2, and each half of the
    symmetric boolean sequence of order 2m has |F_m| terms.
    """
    order = round(sqrt(GEN_TERMS * pi ** 2 / 3))
    r = rng.uniform(0.24, 0.27)
    n_upper = round(sqrt(GEN_TERMS / (_DENSITY * (r - r * r / 2))))
    s = rng.uniform(0.30, 0.34)
    n_bool = round(sqrt(GEN_TERMS / (_DENSITY * s * (1 - s))))
    ops = [
        gen_op("plain", "farey", order + rng.randint(-6, 6)),
        gen_op("plain", "upper", n_upper, round(r * n_upper)),
        gen_op("plain", "boolean", n_bool, round(s * n_bool)),
    ]
    for half in ("left", "right"):
        m = order + rng.randint(-6, 6)
        ops.append(gen_op("plain", "boolean", 2 * m, m, half))
    ops.append(gen_op("json", "farey", order + rng.randint(-6, 6)))
    rng.shuffle(ops)
    return ops


def verify_sweep(rng: random.Random) -> list[Op]:
    """The four suites of `verify --suite all`, in seeded order."""
    suites = list(VERIFY_CHECKS)
    rng.shuffle(suites)
    return [Op(["verify", "--suite", suite, *VERIFY_SCALE], "verify", VERIFY_CHECKS[suite])
            for suite in suites]


def query(argv: list[str], answer: str | None) -> Op:
    return Op(argv, "query", 1, None, answer)


def _frac(h: int, k: int) -> str:
    return f"{h}/{k}"


def point_query(rng: random.Random) -> list[Op]:
    """300 single-answer queries: 204 neighbor, 24 map, 24 index, 30 count
    and 18 invalid ones whose correct answer is exit 2."""
    ops: list[Op] = []
    for family, lo, hi in (("farey", 100, 5000), ("boolean", 50, 2500)):
        for direction in ("next", "prev"):
            for m in _strata(rng, 51, lo, hi):
                if family == "farey":
                    h, k = _pick_term(rng, "farey", m, None, interior=True)
                    answer = oracle.farey_neighbor(h, k, m, direction)
                else:
                    h, k = _pick_term(rng, "boolean", 2 * m, m, interior=True)
                    answer = oracle.boolean_neighbor(h, k, m, direction)
                ops.append(query(["neighbor", "--family", family, "--m", str(m),
                                   "--frac", _frac(h, k), "--dir", direction], answer))

    names = list(oracle.MAPS) * 3
    rng.shuffle(names)
    for name in names[:24]:
        if name == "complement":
            n = rng.randint(60, 140)
            m = rng.randint(1, n - 1)
        else:
            m = rng.randint(20, 60)
            n = 2 * m
        h, k = _pick_term(rng, *oracle.map_domain(name, n, m))
        ops.append(query(["map", "--name", name, "--n", str(n), "--m", str(m),
                           "--frac", _frac(h, k)], oracle.map_answer(name, h, k)))

    for i, m in enumerate(_strata(rng, 12, 20, 60) + _strata(rng, 12, 60, 180)):
        family = "boolean" if i < 12 else "farey"
        n, mm = (2 * m, m) if family == "boolean" else (m, None)
        if rng.random() < 0.2:  # a reduced fraction outside the sequence
            h, k = 1, m + 2 if family == "boolean" else m + 1
        else:
            h, k = _pick_term(rng, family, n, mm)
        argv = ["index", "--m", str(m), "--frac", _frac(h, k)]
        if family == "farey":
            argv[1:1] = ["--family", "farey"]
        ops.append(query(argv, oracle.index_answer(oracle.family_terms(family, n, mm), h, k)))

    counts = _strata(rng, 30, 1000, 20000)
    prefix = oracle.totient_prefix(max(counts))
    for i, m in enumerate(counts):
        family = ("farey", "boolean")[i % 2]
        ops.append(query(["count", "--family", family, "--m", str(m)],
                          oracle.count_answer(prefix, family, m)))

    for _ in range(3):
        m = rng.randint(100, 2000)
        ops += [
            query(["neighbor", "--family", "farey", "--m", str(m), "--frac", "1/1",
                    "--dir", "next"], None),
            query(["neighbor", "--family", "boolean", "--m", str(m),
                    "--frac", _frac(1, m + 2), "--dir", "prev"], None),
            query(["map", "--name", "left-to-farey", "--n", str(2 * (m % 50 + 10)),
                    "--m", str(m % 50 + 10), "--frac", "2/3"], None),
            query(["neighbor", "--family", "farey", "--m", str(m), "--frac", f"{m}/0",
                    "--dir", "prev"], None),
            query(["count", "--family", "farey", "--m", "0"], None),
            query(["count", "--family", "boolean", "--m", f"x{m}"], None),
        ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"gen-stream": gen_stream, "verify-sweep": verify_sweep, "point-query": point_query}


def build(workload: str, seed: int) -> list[Op]:
    """The batch one pass of the workload runs, from its seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
