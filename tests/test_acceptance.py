"""Acceptance sweep: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact
integer arithmetic; there are no tolerances anywhere.  The wide sweeps
(orders up to 300) take a few tens of seconds combined.
"""

import subprocess
import sys
from math import comb

import pytest

from conftest import BOOLEAN_12_6, FAREY_6
from fareylattice.catalog import catalog, quarter_indices, verify_catalog, verify_map
from fareylattice.identities import (
    farey_boolean_size,
    farey_identities,
    farey_size,
    filter_partition,
    interior_duality,
    phi_interval,
    phi_interval_mobius,
    symmetric_identities,
)
from fareylattice.lattice import (
    count_exact_intersection,
    enumerate_fractions,
    filter_cardinality_check,
)
from fareylattice.neighbors import (
    next_in_farey,
    pred_in_boolean,
    prev_in_farey,
    succ_in_boolean,
)
from fareylattice.sequences import BOOLEAN, SeqDescriptor, farey, farey_boolean, iter_pairs

FAREY_LIMIT = 300
BOOLEAN_LIMIT = 150


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def farey_seqs():
    return {m: farey(m) for m in range(1, FAREY_LIMIT + 1)}


@pytest.fixture(scope="module")
def boolean_seqs():
    return {m: farey_boolean(2 * m, m) for m in range(1, BOOLEAN_LIMIT + 1)}


def _run_cli(*argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "fareylattice.cli", *argv],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_criterion_01_golden_sequences():
    got_farey = _run_cli("gen", "--family", "farey", "--n", "6")
    got_boolean = _run_cli("gen", "--family", "boolean", "--n", "12", "--m", "6")
    ok = (got_farey == "\n".join(FAREY_6) + "\n"
          and got_boolean == "\n".join(BOOLEAN_12_6) + "\n")
    _report("criterion-01 golden displayed sequences, byte-exact plain output", ok)


def test_criterion_02_direct_counts():
    checks = [
        len(farey_boolean(2, 1)) == 3,
        farey_boolean_size(1) == 3,
        len(farey_boolean(4, 2)) == 5,
        farey_boolean_size(2) == 5,
    ]
    _report("criterion-02 direct counts 3 and 5, generated and closed form",
            all(checks), str(checks))


def test_criterion_03_bijection_suite():
    bad = []
    for m in range(2, 61):
        bad += [str(r) for r in verify_catalog(2 * m, m) if not r.passed]
    for n in range(2, 31):
        for m in range(1, n):
            r = verify_map(catalog(n, m)[0])
            if not r.passed:
                bad.append(str(r))
    _report("criterion-03 all eleven maps verify for m in 2..60, "
            "complement for all 0<m<n<=30", not bad, "; ".join(bad[:3]))


def test_criterion_04_quarter_indices():
    bad = []
    for m in range(2, 61):
        try:
            t13, t12, t23, t11 = quarter_indices(m)
        except ArithmeticError as exc:
            bad.append(f"m={m}: {exc}")
            continue
        if (t12, t23, t11) != (2 * t13, 3 * t13, 4 * t13):
            bad.append(f"m={m}: ratio {t13}:{t12}:{t23}:{t11}")
        if t11 % 4 != 0 or t11 != len(farey_boolean(2 * m, m)) - 1:
            bad.append(f"m={m}: length end {t11}")
    _report("criterion-04 quarter indices in ratio 1:2:3:4, length-1 "
            "divisible by 4, m in 2..60", not bad, "; ".join(bad[:3]))


def test_criterion_05_neighbor_stepping(farey_seqs, boolean_seqs):
    bad = []
    for m, seq in farey_seqs.items():
        terms = seq.terms
        for a, b in zip(terms, terms[1:]):
            if next_in_farey(a, m) != b or prev_in_farey(b, m) != a:
                bad.append(f"farey m={m} at {a}")
                break
    for m, seq in boolean_seqs.items():
        terms = seq.terms
        for a, b in zip(terms, terms[1:]):
            if succ_in_boolean(a, m) != b or pred_in_boolean(b, m) != a:
                bad.append(f"boolean m={m} at {a}")
                break
    _report("criterion-05 stepping reproduces sequences (farey to 300, "
            "boolean to 150) and inverts at every term", not bad, "; ".join(bad[:3]))


def test_criterion_06_cardinality_closed_forms(farey_seqs, boolean_seqs):
    bad = []
    for m, seq in farey_seqs.items():
        if farey_size(m) != len(seq):
            bad.append(f"farey m={m}")
    for m in range(1, 101):
        if farey_boolean_size(m) != len(boolean_seqs[m]):
            bad.append(f"boolean m={m}")
    # on generated lengths: both closed forms read one Moebius sum
    for m in range(2, 101):
        if len(boolean_seqs[m]) != 2 * len(farey_seqs[m]) - 1:
            bad.append(f"relation m={m}")
    _report("criterion-06 closed-form sizes match generation "
            "(farey to 300, boolean to 100) and the doubling relation",
            not bad, "; ".join(bad[:3]))


def test_criterion_07_identity_sweeps():
    bad = []
    for n in range(2, 19):
        for m in range(1, n):
            for rep in (interior_duality(n, m), filter_partition(n, m)):
                if not rep.passed:
                    bad.append(str(rep))
    for m in range(2, 15):
        for rep in symmetric_identities(m) + farey_identities(m):
            if not rep.passed:
                bad.append(str(rep))
            if len(set(rep.lhs)) != 1:
                bad.append(f"{rep.name} m={m}: sums disagree {rep.lhs}")
    _report("criterion-07 identity sweeps (duality and partition to n=18, "
            "split identities to m=14, internal sums mutually equal)",
            not bad, "; ".join(bad[:3]))


def test_criterion_08_oracle_equivalence():
    bad = []
    for n in range(2, 15):
        for m in range(1, n):
            if enumerate_fractions(n, m) != list(iter_pairs(SeqDescriptor(BOOLEAN, n, m))):
                bad.append(f"enumerate n={n} m={m}")
            for l in range(n + 1):
                for j in range(l + 1):
                    if count_exact_intersection(n, m, j, l) != comb(m, j) * comb(n - m, l - j):
                        bad.append(f"count n={n} m={m} j={j} l={l}")
            if not filter_cardinality_check(n, m).passed:
                bad.append(f"filter n={n} m={m}")
    _report("criterion-08 subset enumeration agrees with the arithmetic "
            "characterization and binomial counts for all n<=14",
            not bad, "; ".join(bad[:3]))


def test_criterion_09_totient_consistency():
    bad = []
    for h in range(1, 61):
        for lo in range(0, 120):
            for hi in range(lo + 1, 121):
                if phi_interval_mobius(h, lo, hi) != phi_interval(h, lo + 1, hi):
                    bad.append(f"h={h} [{lo + 1},{hi}]")
                    break
            if bad:
                break
    for m in range(1, 101):
        for h in range(1, m + 1):
            if phi_interval(h, 2 * h + 1, h + m) != phi_interval(h, h + 1, m):
                bad.append(f"chain m={m} h={h}")
    _report("criterion-09 divisor-sum totient equals direct count "
            "(h<=60 on [1,120]) and the shifted-window chain holds to m=100",
            not bad, "; ".join(bad[:3]))


def test_criterion_10_classical_adjacency(farey_seqs):
    bad = []
    for n, seq in farey_seqs.items():
        terms = seq.terms
        for a, c in zip(terms, terms[1:]):
            if c.h * a.k - a.h * c.k != 1:
                bad.append(f"n={n} at {a},{c}")
                break
    _report("criterion-10 consecutive farey terms satisfy bc - ad = 1 "
            "for all n<=300", not bad, "; ".join(bad[:3]))
