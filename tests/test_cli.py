import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import traceback
import warnings
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice import cli
from fareylattice import identities as ident
from fareylattice.catalog import MATRICES, SYM_COMPLEMENT
from fareylattice.cli import main
from fareylattice.fracs import Frac
from fareylattice.identities import MAX_COUNT_ORDER
from fareylattice.neighbors import next_in_farey, pred_in_boolean, prev_in_farey, succ_in_boolean
from fareylattice.sequences import (
    BOOLEAN,
    FAREY,
    LEFT_HALF,
    MAX_ORDER,
    RIGHT_HALF,
    UPPER,
    SeqDescriptor,
    _pieces,
    _point_sequence,
    farey,
    farey_boolean,
    iter_pairs,
    left_half,
    materialize,
)
from conftest import child_env
from oracles import brute_boolean, brute_farey, brute_upper, emit_json


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def sweep_in_process(units):
    """The checks of a sweep's units, each unit run here, in order, when its turn comes."""
    return (check for unit in units for check in unit())


def audit_divisor_sum(monkeypatch, mutate=lambda monkeypatch: None):
    """Run the divisor-sum checks of an identities sweep with both row cores spied on.

    A check that skipped or merged intervals would still print PASS, so record what
    each side computes: for every h, every 0 <= lo < hi <= 2 * max_m once, on each side,
    from h's own cached divisors and h's own coprime flags.  mutate(monkeypatch) may wrap
    the spied cores.
    """
    sums, counts = [], []
    divisor_row, coprime_row = ident._divisor_row, ident._coprime_row
    monkeypatch.setattr(ident, "_divisor_row", lambda divisors, columns, lo:
                        sums.append((divisors, columns, lo)) or divisor_row(divisors, columns, lo))
    monkeypatch.setattr(ident, "_coprime_row", lambda flags, lo:
                        counts.append((flags, lo)) or coprime_row(flags, lo))
    mutate(monkeypatch)
    # every 0 <= lo < hi <= 2 * max_m: C(15, 2) of them
    want = [(lo, hi) for lo in range(14) for hi in range(lo + 1, 15)]
    assert len(want) == 105
    checked = []
    for label, ok, _ in sweep_in_process(cli._sweep_identities(2, 7)):
        if label.startswith("totient divisor-sum h="):
            h = int(label.rpartition("=")[2])
            divisors = ident._squarefree_divisors(h)
            assert ok, label
            summed, counted = [], []
            for d, columns, lo in sums:
                xs = columns[0]  # the column of d = 1 lists x itself
                assert d is divisors and columns == [[x // e for x in xs] for e, _ in d], label
                summed += [(xs[lo], hi) for hi in xs[lo + 1:]]
            for flags, lo in counts:
                assert flags == [int(gcd(h, x) == 1) for x in range(len(flags))], label
                counted += [(lo, hi) for hi in range(lo + 1, len(flags))]
            assert sorted(summed) == want and sorted(counted) == want, label
            checked.append(h)
        sums.clear()
        counts.clear()
    assert checked == list(range(1, 8))


def _wrap(name, mutant):
    """A mutation of identities' core `name`, given the core it wraps."""
    return lambda monkeypatch: monkeypatch.setattr(ident, name, mutant(getattr(ident, name)))


def _both(*mutations):
    def mutate(monkeypatch):
        for mutation in mutations:
            mutation(monkeypatch)
    return mutate


# a divisor row of two his or more drops its last, so phi_interval_mobius's rows of one are
# kept; every gcd row drops its last
_DROP_DIVISOR_HI = _wrap("_divisor_row", lambda core: lambda divisors, columns, lo: core(
    divisors, [col[:-1] for col in columns] if len(columns[0]) > lo + 2 else columns, lo))
_DROP_COPRIME_HI = _wrap("_coprime_row", lambda core: lambda flags, lo: core(flags[:-1], lo))
# what a check that skipped an interval, a lo or an h would compute
_DIVISOR_SUM_MUTANTS = {
    "hi from the divisor row": _DROP_DIVISOR_HI,
    "hi from the gcd row": _DROP_COPRIME_HI,
    "hi from both rows": _both(_DROP_DIVISOR_HI, _DROP_COPRIME_HI),
    "lo = 0 on both sides": _both(
        _wrap("_divisor_row", lambda core: lambda divisors, columns, lo:
              [] if columns[0][lo] == 0 else core(divisors, columns, lo)),
        _wrap("_coprime_row", lambda core: lambda flags, lo: [] if lo == 0 else core(flags, lo))),
    "h = 3": _wrap("_divisor_sum_check", lambda check: lambda h, span:
                   h == 3 or check(h, span)),
}


class TestGen:
    def test_farey_6_plain(self, capsys, golden_farey_6):
        rc, out, _ = run(capsys, "gen", "--family", "farey", "--n", "6")
        assert rc == 0
        assert out == "\n".join(golden_farey_6) + "\n"

    def test_boolean_12_6_plain(self, capsys, golden_boolean_12_6):
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "12", "--m", "6")
        assert rc == 0
        assert out == "\n".join(golden_boolean_12_6) + "\n"
        lines = out.splitlines()
        assert lines[0] == "0/1" and lines[6] == "1/3" and lines[-1] == "1/1"

    def test_upper(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "upper", "--n", "6", "--m", "1")
        assert rc == 0
        assert out.splitlines() == ["0/1", "1/6", "1/5", "1/4", "1/3", "1/2", "1/1"]

    def test_halves(self, capsys, golden_boolean_12_6):
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "12", "--m", "6",
                         "--half", "left")
        assert rc == 0 and out.splitlines() == golden_boolean_12_6[:13]
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "12", "--m", "6",
                         "--half", "right")
        assert rc == 0 and out.splitlines() == golden_boolean_12_6[12:]

    def test_half_needs_symmetric(self, capsys):
        rc, _, err = run(capsys, "gen", "--family", "boolean", "--n", "12", "--m", "5",
                         "--half", "left")
        assert rc == 2 and "n = 2m" in err

    @pytest.mark.parametrize("argv", [
        ["--family", "farey", "--n", "5", "--half", "left"],
        ["--family", "upper", "--n", "6", "--m", "2", "--half", "right"],
    ])
    def test_half_only_for_boolean(self, capsys, argv):
        rc, out, err = run(capsys, "gen", *argv)
        assert rc == 2 and out == ""
        assert err == "error: --half applies only to the boolean family\n"

    def test_missing_m(self, capsys):
        rc, _, err = run(capsys, "gen", "--family", "boolean", "--n", "12")
        assert rc == 2 and "--m" in err

    def test_stray_m_for_farey(self, capsys):
        rc, _, err = run(capsys, "gen", "--family", "farey", "--n", "6", "--m", "3")
        assert rc == 2 and "does not apply" in err

    def test_round_trip_is_byte_identical(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "14", "--m", "9")
        assert rc == 0
        reparsed = "".join(f"{Frac.parse(line)}\n" for line in out.splitlines())
        assert reparsed == out


class TestJson:
    def test_boolean_2_1(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "2", "--m", "1",
                         "--format", "json")
        assert rc == 0
        assert out.strip() == '{"family":"boolean","n":2,"m":1,"terms":[[0,1],[1,2],[1,1]]}'

    def test_farey_1(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "farey", "--n", "1",
                         "--format", "json")
        assert json.loads(out)["terms"] == [[0, 1], [1, 1]]
        assert json.loads(out)["m"] is None

    def test_left_half_4_2(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "boolean", "--n", "4", "--m", "2",
                         "--half", "left", "--format", "json")
        obj = json.loads(out)
        assert obj["family"] == "left-half"
        assert obj["terms"] == [[0, 1], [1, 3], [1, 2]]

    def test_emit_json_matches_cli(self):
        assert emit_json(left_half(4, 2)) == \
            '{"family":"left-half","n":4,"m":2,"terms":[[0,1],[1,3],[1,2]]}'

    def test_terms_ascending(self, capsys):
        _, out, _ = run(capsys, "gen", "--family", "farey", "--n", "9",
                        "--format", "json")
        terms = json.loads(out)["terms"]
        assert terms == [[f.h, f.k] for f in farey(9)]


def every_gen_call(n):
    """(argv, descriptor, oracle pairs) for every sequence of order n:
    F_n, upper and boolean for each 0 < m < n, and both halves at n = 2m."""
    yield ["--family", "farey", "--n", str(n)], SeqDescriptor(FAREY, n), brute_farey(n)
    for m in range(1, n):
        base = ["--n", str(n), "--m", str(m)]
        yield ["--family", "upper", *base], SeqDescriptor(UPPER, n, m), brute_upper(n, m)
        boolean = brute_boolean(n, m)
        yield ["--family", "boolean", *base], SeqDescriptor(BOOLEAN, n, m), boolean
        if n == 2 * m:
            yield (["--family", "boolean", *base, "--half", "left"],
                   SeqDescriptor(LEFT_HALF, n, m), [(h, k) for h, k in boolean if 2 * h <= k])
            yield (["--family", "boolean", *base, "--half", "right"],
                   SeqDescriptor(RIGHT_HALF, n, m), [(h, k) for h, k in boolean if 2 * h >= k])


def first_difference(got: str, want: str):
    """None if got == want, else 30 characters of each from where they part.

    Short, where pytest's own diff of two long texts can take minutes."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return got[i:i + 30], want[i:i + 30]


class TestGenEveryFamily:
    """The batched writers against oracles that share none of their code."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_plain_matches_oracles(self, capsys, n):
        for argv, _, pairs in every_gen_call(n):
            rc, out, err = run(capsys, "gen", *argv)
            assert rc == 0 and err == ""
            assert out.splitlines() == [f"{h}/{k}" for h, k in pairs], argv
            assert out.endswith("\n")

    @pytest.mark.parametrize("n", range(1, 41))
    def test_json_matches_emit_json(self, capsys, n):
        for argv, d, _ in every_gen_call(n):
            rc, out, err = run(capsys, "gen", *argv, "--format", "json")
            assert rc == 0 and err == ""
            assert out == emit_json(materialize(d)) + "\n", argv

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_output_spanning_batches(self, capsys, fmt):
        seq = farey(200)  # 12,233 terms: two batches and most of a third
        assert 2 * cli.GEN_BATCH < len(seq) < 3 * cli.GEN_BATCH
        rc, out, _ = run(capsys, "gen", "--family", "farey", "--n", "200", "--format", fmt)
        assert rc == 0
        want = emit_json(seq) if fmt == "json" else "\n".join(str(f) for f in seq)
        assert first_difference(out, want + "\n") is None


# (argv, descriptor) for every family, both halves, boolean --m 1, farey --n 1,
# and an output that crosses a GEN_BATCH boundary
FORMATTER_SHAPES = [
    (["--family", "farey", "--n", "1"], SeqDescriptor(FAREY, 1)),
    (["--family", "farey", "--n", "200"], SeqDescriptor(FAREY, 200)),  # 12,233 terms
    (["--family", "upper", "--n", "31", "--m", "9"], SeqDescriptor(UPPER, 31, 9)),
    (["--family", "boolean", "--n", "31", "--m", "1"], SeqDescriptor(BOOLEAN, 31, 1)),
    (["--family", "boolean", "--n", "31", "--m", "12"], SeqDescriptor(BOOLEAN, 31, 12)),
    (["--family", "boolean", "--n", "30", "--m", "15", "--half", "left"],
     SeqDescriptor(LEFT_HALF, 30, 15)),
    (["--family", "boolean", "--n", "30", "--m", "15", "--half", "right"],
     SeqDescriptor(RIGHT_HALF, 30, 15)),
]


class TestGenFormatter:
    """Both formats against f-string and json.dumps renderings of the same pairs,
    with the string tables (n within the bound) and without them (n above it),
    in pieces of GEN_BATCH terms and of about three."""

    @pytest.mark.parametrize("tables", [True, False], ids=["tables", "f-strings"])
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("argv, d", FORMATTER_SHAPES,
                             ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_matches_independent_rendering(self, capsys, monkeypatch, argv, d, fmt, tables):
        if tables:
            assert d.n <= cli._TABLE_MAX_ORDER
        else:
            monkeypatch.setattr(cli, "_TABLE_MAX_ORDER", d.n - 1)
        pairs = list(iter_pairs(d))
        if fmt == "plain":
            want = "".join(f"{h}/{k}\n" for h, k in pairs)
        else:
            obj = {"family": d.family, "n": d.n, "m": d.m, "terms": [[h, k] for h, k in pairs]}
            want = json.dumps(obj, separators=(",", ":")) + "\n"
        rc, out, err = run(capsys, "gen", *argv, "--format", fmt)
        assert (rc, err) == (0, "")
        assert first_difference(out, want) is None

    @pytest.mark.parametrize("tables", [True, False], ids=["tables", "f-strings"])
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("argv, d", FORMATTER_SHAPES,
                             ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_matches_in_pieces_of_three(self, capsys, monkeypatch, argv, d, fmt, tables):
        # pieces of three terms or so: 11 to 4,404 per shape, so gen crosses a piece
        # edge every few terms, forked (from eight pieces on) or not
        monkeypatch.setattr(cli, "GEN_BATCH", 3)
        assert 4 * sum(1 for _ in _pieces(d, 3)) >= sum(1 for _ in iter_pairs(d)) - 1
        self.test_matches_independent_rendering(capsys, monkeypatch, argv, d, fmt, tables)


class TestNeighbor:
    def test_next_boolean(self, capsys):
        rc, out, _ = run(capsys, "neighbor", "--family", "boolean", "--m", "6",
                         "--frac", "2/5", "--dir", "next")
        assert rc == 0 and out.strip() == "3/7"

    def test_prev_farey(self, capsys):
        rc, out, _ = run(capsys, "neighbor", "--family", "farey", "--m", "6",
                         "--frac", "2/5", "--dir", "prev")
        assert rc == 0 and out.strip() == "1/3"

    def test_endpoint_is_error(self, capsys):
        rc, _, err = run(capsys, "neighbor", "--family", "farey", "--m", "6",
                         "--frac", "1/1", "--dir", "next")
        assert rc == 2 and "no successor" in err

    def test_non_member_is_error(self, capsys):
        rc, _, err = run(capsys, "neighbor", "--family", "boolean", "--m", "6",
                         "--frac", "1/8", "--dir", "next")
        assert rc == 2 and "not a term" in err

    # the public steps the CLI no longer calls, as an oracle for its --dir
    PUBLIC_STEPS = {FAREY: {"next": next_in_farey, "prev": prev_in_farey},
                    BOOLEAN: {"next": succ_in_boolean, "prev": pred_in_boolean}}

    @pytest.mark.parametrize("family", [FAREY, BOOLEAN])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_prints_what_the_public_step_returns(self, capsys, family, m):
        for f in materialize(_point_sequence(family, m)).terms:
            for direction, step in self.PUBLIC_STEPS[family].items():
                try:
                    want = (0, f"{step(f, m)}\n", "")
                except ValueError as exc:
                    want = (2, "", f"error: {exc}\n")
                assert run(capsys, "neighbor", "--family", family, "--m", str(m),
                           "--frac", str(f), "--dir", direction) == want


class TestIndexCount:
    def test_index_displayed_position(self, capsys):
        rc, out, _ = run(capsys, "index", "--family", "boolean", "--m", "6",
                         "--frac", "1/3")
        assert rc == 0 and out.strip() == "6"

    def test_index_absent(self, capsys):
        rc, out, _ = run(capsys, "index", "--family", "farey", "--m", "6",
                         "--frac", "5/7")
        assert rc == 0 and out.strip() == "absent"

    @pytest.mark.parametrize("family,frac", [("farey", "1/9"), ("boolean", "1/8"),
                                             ("boolean", "2/9"), ("boolean", "7/8")])
    def test_index_absent_in_both_families(self, capsys, family, frac):
        rc, out, err = run(capsys, "index", "--family", family, "--m", "6", "--frac", frac)
        assert rc == 0 and out == "absent\n" and err == ""

    @pytest.mark.parametrize("m", [1, 2, 6, 17])
    def test_index_of_every_term(self, capsys, m):
        for family, seq in (("farey", farey(m)), ("boolean", farey_boolean(2 * m, m))):
            for i, f in enumerate(seq):
                rc, out, _ = run(capsys, "index", "--family", family, "--m", str(m),
                                 "--frac", str(f))
                assert rc == 0 and out == f"{i}\n", (family, f)

    @pytest.mark.parametrize("family", ["farey", "boolean"])
    def test_index_above_materialization_guard(self, capsys, family):
        rc, out, err = run(capsys, "index", "--family", family, "--m", str(MAX_ORDER + 1),
                           "--frac", "1/1")
        # |F_10001| = 30407279 = 1 + sum_{k <= 10001} phi(k), from a standalone
        # totient sieve; 1/1 is the last term, at |F| - 1 (twice that for boolean).
        assert MAX_ORDER + 1 == 10_001
        want = 30407279 - 1
        assert rc == 0 and err == ""
        assert out == f"{want if family == 'farey' else 2 * want}\n"

    @pytest.mark.parametrize("family", ["farey", "boolean"])
    @pytest.mark.parametrize("frac", ["1/3", "1/99999999"])
    def test_index_above_counting_bound_refused(self, capsys, monkeypatch, family, frac):
        sieved = []
        monkeypatch.setattr(ident, "_mobius_sieve", sieved.append)
        rc, out, err = run(capsys, "index", "--family", family,
                           "--m", str(MAX_COUNT_ORDER + 1), "--frac", frac)
        assert rc == 2 and out == "" and sieved == []
        assert err == f"error: order {MAX_COUNT_ORDER + 1} exceeds the counting bound " \
                      f"{MAX_COUNT_ORDER}\n"

    def test_count_boolean(self, capsys):
        rc, out, _ = run(capsys, "count", "--family", "boolean", "--m", "2")
        assert rc == 0 and out.strip() == "5"

    def test_count_farey(self, capsys):
        rc, out, _ = run(capsys, "count", "--family", "farey", "--m", "6")
        assert rc == 0 and out.strip() == "13"

    @pytest.mark.parametrize("family", ["farey", "boolean"])
    def test_count_above_bound_refused_before_sieving(self, capsys, monkeypatch, family):
        sieved = []
        monkeypatch.setattr(ident, "_mobius_sieve", sieved.append)
        rc, out, err = run(capsys, "count", "--family", family, "--m", str(MAX_COUNT_ORDER + 1))
        assert rc == 2 and out == "" and sieved == []
        assert err == f"error: order {MAX_COUNT_ORDER + 1} exceeds the counting bound " \
                      f"{MAX_COUNT_ORDER}\n"

    def test_count_at_bound_sieves(self, monkeypatch):
        # the bound lets the count through to its sieve, whatever the sieve's length
        def refuse(m):
            raise RuntimeError("sieve started")

        monkeypatch.setattr(ident, "_mobius_sieve", refuse)
        with pytest.raises(RuntimeError, match="^sieve started$"):
            ident.farey_size(MAX_COUNT_ORDER)


class TestPointRefusal:
    """Every point verb refuses a bad --m in one wording, by m, in both families."""

    @pytest.mark.parametrize("family", ["farey", "boolean"])
    @pytest.mark.parametrize("verb", [
        ["neighbor", "--frac", "1/2", "--dir", "next"],
        ["neighbor", "--frac", "1/2", "--dir", "prev"],
        ["index", "--frac", "1/2"],
        ["count"],
    ], ids=["next", "prev", "index", "count"])
    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_m(self, capsys, family, verb, m):
        rc, out, err = run(capsys, *verb, "--family", family, "--m", str(m))
        assert (rc, out, err) == (2, "", f"error: order must be positive, got m={m}\n")


class TestMap:
    def test_apply_bridge(self, capsys):
        rc, out, _ = run(capsys, "map", "--name", "right-to-farey",
                         "--n", "12", "--m", "6", "--frac", "4/7")
        assert rc == 0 and out.strip() == "3/4"

    def test_complement_on_asymmetric(self, capsys):
        rc, out, _ = run(capsys, "map", "--name", "complement",
                         "--n", "12", "--m", "5", "--frac", "1/3")
        assert rc == 0 and out.strip() == "2/3"

    def test_unknown_name(self, capsys):
        rc, _, err = run(capsys, "map", "--name", "rotate",
                         "--n", "12", "--m", "6", "--frac", "1/3")
        assert rc == 2 and "available" in err

    def test_map_not_applicable_for_parameters(self, capsys):
        rc, _, err = run(capsys, "map", "--name", "left-to-farey",
                         "--n", "12", "--m", "5", "--frac", "1/3")
        assert rc == 2

    def test_fraction_outside_domain(self, capsys):
        rc, _, err = run(capsys, "map", "--name", "left-to-farey",
                         "--n", "12", "--m", "6", "--frac", "2/3")
        assert rc == 2 and "domain" in err

    def test_domain_above_materialization_guard(self, capsys):
        # membership is tested on the box, so no sequence is materialized
        m = MAX_ORDER + 1
        rc, out, err = run(capsys, "map", "--name", "right-to-farey",
                           "--n", str(2 * m), "--m", str(m), "--frac", f"{m}/{m + 1}")
        assert rc == 0 and out.strip() == f"1/{m}" and err == ""


class TestVerify:
    def test_bijections_suite_passes(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "bijections",
                           "--max-n", "8", "--max-m", "6")
        assert rc == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        total = len(lines) - 1
        assert lines[-1] == f"PASS {total}/{total}"
        assert err == ""

    def test_partition_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "partition", "--max-n", "10")
        assert rc == 0 and out.splitlines()[-1].startswith("PASS")

    def test_oracle_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "8")
        assert rc == 0 and out.splitlines()[-1].startswith("PASS")

    @pytest.mark.parametrize("max_n", [7, 9])
    def test_oracle_cap_is_noted(self, capsys, monkeypatch, max_n):
        # a lowered bound keeps the run short; the note names the n checked and the bound
        monkeypatch.setattr(cli.lattice, "ENUM_BOUND", 6)
        rc, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", str(max_n))
        assert rc == 0
        assert err == f"note: the oracle suite checked n = 2..6 only; --max-n {max_n} " \
                      "exceeds lattice.ENUM_BOUND = 6\n"
        assert out.splitlines()[-2] == "PASS identity filter-cardinality n=6 m=5"
        assert out.splitlines()[-1] == "PASS 45/45"

    def test_oracle_checks_every_n_up_to_the_bound(self, capsys):
        # all three checks at every (n, m), past the single 64 KiB block of n = 16
        rc, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "17")
        lines = out.splitlines()
        assert rc == 0
        assert "PASS oracle rank-counts n=17 m=8" in lines
        assert "PASS identity filter-cardinality n=17 m=16" in lines
        assert lines[-1] == "PASS 408/408"

    @pytest.mark.parametrize("argv", [[], ["--max-n", "16"]])
    def test_oracle_within_bound_writes_no_stderr(self, capsys, argv):
        rc, _, err = run(capsys, "verify", "--suite", "oracle", *argv)
        assert rc == 0 and err == ""

    def test_identities_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "identities",
                         "--max-n", "8", "--max-m", "6")
        assert rc == 0 and out.splitlines()[-1].startswith("PASS")

    def test_totient_chain_checks_every_h(self, monkeypatch):
        # a chain check that skipped some h would still print PASS, so record what each one compares
        calls = []
        phi = ident.phi_interval
        monkeypatch.setattr(ident, "phi_interval",
                            lambda h, i, l: calls.append((h, i, l)) or phi(h, i, l))
        checked = []
        for label, ok, _ in sweep_in_process(cli._sweep_identities(2, 7)):
            if label.startswith("totient chain m="):
                m = int(label.rpartition("=")[2])
                want = [c for h in range(1, m + 1) for c in ((h, 2 * h + 1, h + m), (h, h + 1, m))]
                assert ok and sorted(calls) == sorted(want), label
                checked.append(m)
            calls.clear()
        assert checked == list(range(2, 8))

    def test_divisor_sum_checks_every_interval(self, monkeypatch):
        audit_divisor_sum(monkeypatch)

    @pytest.mark.parametrize("mutant", sorted(_DIVISOR_SUM_MUTANTS))
    def test_divisor_sum_audit_catches(self, monkeypatch, mutant):
        # each mutant computes fewer intervals than the check must, on one side or on both
        with pytest.raises(AssertionError):
            audit_divisor_sum(monkeypatch, _DIVISOR_SUM_MUTANTS[mutant])

    def test_off_by_one_divisor_sum_fails_sweep(self, capsys, monkeypatch):
        # each hi's sum stops before the divisor d = hi, so every h fails at (lo, hi) = (0, 1)
        def early_break(divisors, columns, lo):
            xs = columns[0]  # the column of d = 1 lists x itself
            return [sum(mu * (col[i] - col[lo]) for (d, mu), col in zip(divisors, columns)
                        if d < xs[i]) for i in range(lo + 1, len(xs))]

        monkeypatch.setattr(ident, "_divisor_row", early_break)
        rc, out, _ = run(capsys, "verify", "--suite", "identities")
        assert rc == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == [f"FAIL totient divisor-sum h={h}" for h in range(1, 13)] + \
            [f"FAIL 12/{len(out.splitlines()) - 1}"]

    @pytest.mark.parametrize("argv", [
        ["--suite", "all", "--max-n", "-5", "--max-m", "-3"],
        ["--suite", "oracle", "--max-n", "0"],
        ["--suite", "partition", "--max-n", "1"],
        ["--suite", "bijections", "--max-m", "1"],
    ])
    def test_bound_below_two_is_a_usage_error(self, capsys, argv):
        # such a sweep checks nothing, or only the bound-free matrix checks
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: --max-n and --max-m must be at least 2") and err.count("\n") == 1

    def test_smallest_bounds_check_something(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "2", "--max-m", "2")
        assert rc == 0 and out.splitlines()[-1] == "PASS 36/36"

    def test_dropped_lattice_term_fails_oracle_sweep(self, capsys, monkeypatch):
        scan = cli.lattice.enumerate_fractions

        def drop_one(n, m):
            pairs = scan(n, m)
            if (n, m) != (5, 2):
                return pairs
            return pairs[:3] + pairs[4:]

        monkeypatch.setattr(cli.lattice, "enumerate_fractions", drop_one)
        rc, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "6")
        assert rc == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL oracle enumerate n=5 m=2", f"FAIL 1/{len(out.splitlines()) - 1}"]
        assert err == "counterexample: oracle enumerate n=5 m=2: \n"

    def test_dropped_boolean_term_fails_size_relation(self, capsys, monkeypatch):
        # the relation compares generated counts, so a lost term breaks it too
        walk = cli.iter_pairs

        def drop_one(d):
            pairs = list(walk(d))
            return iter(pairs[:3] + pairs[4:] if d == SeqDescriptor(BOOLEAN, 6, 3) else pairs)

        monkeypatch.setattr(cli, "iter_pairs", drop_one)
        rc, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "3", "--max-m", "3")
        assert rc == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL size boolean m=3", "FAIL size relation m=3",
                          f"FAIL 2/{len(out.splitlines()) - 1}"]

    def test_quarter_indices_failure_is_reported(self, capsys, monkeypatch):
        def off_ratio(m):
            raise ArithmeticError(f"quarter indices [1, 2, 3, 5] for m={m} are not in ratio 1:2:3:4")

        monkeypatch.setattr(cli, "quarter_indices", off_ratio)
        rc, out, err = run(capsys, "verify", "--suite", "bijections", "--max-n", "2", "--max-m", "2")
        assert rc == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL quarter-indices m=2", f"FAIL 1/{len(out.splitlines()) - 1}"]
        assert err == "counterexample: quarter-indices m=2: " \
                      "quarter indices [1, 2, 3, 5] for m=2 are not in ratio 1:2:3:4\n"

    def test_corrupted_matrix_fails_sweep(self, capsys, monkeypatch):
        # an identity matrix is unimodular but not order-reversing
        monkeypatch.setitem(MATRICES, SYM_COMPLEMENT, (1, 0, 0, 1))
        rc, out, err = run(capsys, "verify", "--suite", "bijections",
                           "--max-n", "4", "--max-m", "4")
        assert rc == 1
        assert any(line.startswith("FAIL") for line in out.splitlines())
        assert out.splitlines()[-1].startswith("FAIL")
        assert "counterexample" in err


@pytest.fixture
def forks(monkeypatch):
    """The forks verify and gen make, counted, on a host they take to have two CPUs."""
    if not hasattr(os, "fork"):
        pytest.skip("verify and gen run every unit in process without os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made, fork = [], os.fork

    def counted():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def failed_fork():
    raise OSError(11, "Resource temporarily unavailable")


def open_fds():
    """The names in /proc/self/fd, or None where there is no /proc."""
    fds = Path("/proc/self/fd")
    return sorted(os.listdir(fds)) if fds.is_dir() else None


@contextlib.contextmanager
def resource_warnings_are_errors():
    """Run the block with ResourceWarning as an error, and fail if one was
    raised where it cannot propagate, as from a file that only the collector
    closes."""
    raised, hook = [], sys.unraisablehook
    sys.unraisablehook = raised.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [str(args.exc_value) for args in raised] == []


def session_members(sid):
    """The pids of the processes in session sid, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # after the parenthesized name: state, ppid, pgrp, session
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while listed
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


class TestVerifyInTwoProcesses:
    """A forked child computes every other unit; the output is the one-process output."""

    def both_ways(self, capsys, monkeypatch, forks, *argv):
        """(rc, out, err) of verify argv with the child and with os.fork removed."""
        forked = run(capsys, "verify", *argv)
        assert forks == [os.getpid()] and no_child_left()
        monkeypatch.delattr(os, "fork")
        alone = run(capsys, "verify", *argv)
        assert forked == alone
        return forked

    @pytest.mark.parametrize("argv", [
        ["--suite", "bijections", "--max-n", "6", "--max-m", "5"],
        ["--suite", "identities", "--max-n", "6", "--max-m", "5"],
        ["--suite", "partition", "--max-n", "7"],
        ["--suite", "oracle", "--max-n", "7"],
        ["--suite", "all"],
    ])
    def test_same_output_with_and_without_the_child(self, capsys, monkeypatch, forks, argv):
        rc, out, err = self.both_ways(capsys, monkeypatch, forks, *argv)
        assert rc == 0 and err == "" and out.splitlines()[-1].startswith("PASS")

    def test_oracle_note_once_after_the_checks(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(cli.lattice, "ENUM_BOUND", 5)
        rc, out, err = self.both_ways(capsys, monkeypatch, forks,
                                      "--suite", "all", "--max-n", "6", "--max-m", "3")
        assert rc == 0 and out.splitlines()[-1].startswith("PASS")
        assert err == "note: the oracle suite checked n = 2..5 only; --max-n 6 " \
                      "exceeds lattice.ENUM_BOUND = 5\n"

    def test_fail_computed_by_the_child(self, capsys, monkeypatch, forks):
        # the divisor sum is off by one for odd h only, whose units are all odd-numbered here
        divisor_row = ident._divisor_row
        monkeypatch.setattr(ident, "_divisor_row", lambda divisors, columns, lo:
                            [t + divisors[-1][0] % 2 for t in divisor_row(divisors, columns, lo)])
        units = [[(label, ok) for label, ok, _ in unit()]
                 for unit in cli._sweep_identities(4, 5)]
        failing = [i for i, checks in enumerate(units) for _, ok in checks if not ok]
        assert failing and all(i % 2 for i in failing)
        rc, out, err = self.both_ways(capsys, monkeypatch, forks,
                                      "--suite", "identities", "--max-n", "4", "--max-m", "5")
        assert rc == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == [f"FAIL totient divisor-sum h={h}" for h in (1, 3, 5)] + \
            [f"FAIL 3/{len(out.splitlines()) - 1}"]
        assert err == "".join(f"counterexample: totient divisor-sum h={h}: \n" for h in (1, 3, 5))

    def test_exception_in_a_child_unit(self, capsys, monkeypatch, forks):
        farey_identities = ident.farey_identities

        def broken(m):
            if m == 2:
                raise ArithmeticError("broken at m=2")
            return farey_identities(m)

        labels = [[label for label, _, _ in unit()] for unit in cli._sweep_identities(4, 5)]
        place = next(i for i, unit in enumerate(labels) if "identity farey-interior m=2" in unit)
        assert place % 2
        monkeypatch.setattr(ident, "farey_identities", broken)
        rc, out, err = self.both_ways(capsys, monkeypatch, forks,
                                      "--suite", "identities", "--max-n", "4", "--max-m", "5")
        assert (rc, err) == (2, "error: broken at m=2\n")
        assert out.splitlines() == [f"PASS {label}" for unit in labels[:place] for label in unit]
        assert no_child_left()

    def test_uncaught_exception_in_a_child_unit_keeps_its_traceback(
            self, capsys, monkeypatch, forks):
        farey_identities = ident.farey_identities

        def broken(m):
            if m == 2:
                raise TypeError("broken at m=2")
            return farey_identities(m)

        labels = [[label for label, _, _ in unit()] for unit in cli._sweep_identities(4, 5)]
        assert next(i for i, unit in enumerate(labels) if "identity farey-interior m=2" in unit) % 2
        monkeypatch.setattr(ident, "farey_identities", broken)

        def frames():
            with resource_warnings_are_errors(), pytest.raises(TypeError, match="m=2") as caught:
                main(["verify", "--suite", "identities", "--max-n", "4", "--max-m", "5"])
            capsys.readouterr()
            return traceback.extract_tb(caught.value.__traceback__)

        forked = frames()
        assert forks == [os.getpid()] and no_child_left()
        monkeypatch.delattr(os, "fork")
        alone = frames()
        assert forked == alone and forked[-1].name == "broken"

    def test_child_dying_mid_call(self, capsys, monkeypatch, forks):
        parent, symmetric_identities = os.getpid(), ident.symmetric_identities

        def dies_in_child(m):
            if os.getpid() != parent:
                os._exit(1)
            return symmetric_identities(m)

        monkeypatch.setattr(ident, "symmetric_identities", dies_in_child)
        rc, out, err = self.both_ways(capsys, monkeypatch, forks,
                                      "--suite", "identities", "--max-n", "6", "--max-m", "5")
        assert rc == 0 and err == "" and out.splitlines()[-1] == "PASS 58/58"

    @pytest.mark.parametrize("case", ["one unit", "pass", "FAIL", "exception", "child's death",
                                      "failed fork"])
    def test_no_path_leaves_the_pipe_open(self, capsys, monkeypatch, forks, case):
        parent, divisor_row = os.getpid(), ident._divisor_row
        farey_identities = ident.farey_identities

        def broken(m):
            if case == "exception" and m == 2:
                raise ArithmeticError("broken at m=2")
            if case == "child's death" and os.getpid() != parent:
                os._exit(1)
            return farey_identities(m)

        monkeypatch.setattr(ident, "farey_identities", broken)
        if case == "FAIL":
            monkeypatch.setattr(ident, "_divisor_row", lambda divisors, columns, lo:
                                [t + divisors[-1][0] % 2
                                 for t in divisor_row(divisors, columns, lo)])
        if case == "failed fork":
            monkeypatch.setattr(os, "fork", failed_fork)
        # the one-unit call gives the child nothing to compute, so none is forked
        argv = (["--suite", "partition", "--max-n", "2"] if case == "one unit" else
                ["--suite", "identities", "--max-n", "4", "--max-m", "5"])
        # a raw descriptor left open shows in /proc/self/fd, never as a ResourceWarning
        gc.collect()
        fds = open_fds()
        with resource_warnings_are_errors():
            rc, _, _ = run(capsys, "verify", *argv)
        assert rc == {"FAIL": 1, "exception": 2}.get(case, 0)
        assert forks == ([] if case in ("one unit", "failed fork") else [parent]) and no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("count, given", [
        *(pytest.param(count, given, id=str(count) + suffix)
          for given, suffix in ((list, ""), (iter, "-stream"))
          for count in (0, 1, 2, 3, cli._FORK_UNITS - 1, cli._FORK_UNITS, 40)),
    ])
    def test_each_unit_runs_once_in_one_process(self, forks, tmp_path, count, given):
        # each unit appends its number and pid to one file; from _FORK_UNITS units on, a
        # child takes the odd ones. The units come as a list or as a stream with no length
        log = tmp_path / "units"
        log.touch()

        def unit(i):
            def checks():
                with open(log, "a") as f:
                    f.write(f"{i} {os.getpid()}\n")
                return [(f"unit {i}", True, "")]
            return checks

        emitted = []
        cli._run_units(given(unit(i) for i in range(count)), emitted.extend)
        alone = count < cli._FORK_UNITS
        assert forks == ([] if alone else [os.getpid()])
        assert [label for label, _, _ in emitted] == [f"unit {i}" for i in range(count)]
        lines = log.read_text().splitlines()
        ran = dict(map(int, line.split()) for line in lines)
        assert sorted(ran) == list(range(count)) and len(lines) == count
        assert all((ran[i] == os.getpid()) == (alone or i % 2 == 0) for i in range(count))
        assert no_child_left()

    def test_units_are_pulled_as_they_run(self, forks):
        # an endless stream: a runner that listed its units first would never emit one
        class Stop(Exception):
            pass

        def units():
            for i in itertools.count():
                assert i < 10, f"unit {i} pulled ahead of the emitted ones"
                yield lambda i=i: [(f"unit {i}", True, "")]

        def emit(checks):
            emitted.extend(checks)
            if len(emitted) == 5:
                raise Stop

        emitted = []
        gc.collect()
        fds = open_fds()
        with resource_warnings_are_errors(), pytest.raises(Stop):
            cli._run_units(units(), emit)
        assert [label for label, _, _ in emitted] == [f"unit {i}" for i in range(5)]
        assert forks == [os.getpid()] and no_child_left()
        assert open_fds() == fds

    def test_failed_fork_runs_every_unit_in_process(self, capsys, monkeypatch, forks):
        argv = ["verify", "--suite", "partition", "--max-n", "6"]
        want = run(capsys, *argv)
        monkeypatch.setattr(os, "fork", failed_fork)
        assert run(capsys, *argv) == want

    # 10 units: the guard alone keeps the child away, as the same call forks without it
    GUARDED = ["verify", "--suite", "partition", "--max-n", "5"]

    def test_no_child_on_one_cpu(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = run(capsys, *self.GUARDED)
        assert alone[0] == 0 and forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert run(capsys, *self.GUARDED) == alone
        assert forks == [os.getpid()] and no_child_left()

    def test_no_child_beside_another_thread(self, capsys, forks):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            alone = run(capsys, *self.GUARDED)
        finally:
            release.set()
            other.join()
        assert alone[0] == 0 and forks == []
        assert run(capsys, *self.GUARDED) == alone
        assert forks == [os.getpid()] and no_child_left()

    # 6 and 7 units run in one process, 8 and 10 fork
    @pytest.mark.parametrize("argv, forked", [
        (["--suite", "partition", "--max-n", "4"], False),
        (["--suite", "bijections", "--max-n", "2", "--max-m", "6"], False),
        (["--suite", "identities", "--max-n", "3", "--max-m", "2"], True),
        (["--suite", "partition", "--max-n", "5"], True),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_forks_only_from_enough_units(self, capsys, monkeypatch, forks, argv, forked):
        args = cli._parse(["verify", *argv])
        units = sum(1 for _ in cli._SUITES[args.suite](args.max_n, args.max_m))
        assert (units >= cli._FORK_UNITS) == forked
        got = run(capsys, "verify", *argv)
        assert got[0] == 0 and got[2] == ""
        assert forks == ([os.getpid()] if forked else []) and no_child_left()
        monkeypatch.delattr(os, "fork")
        assert run(capsys, "verify", *argv) == got

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes from /proc")
    def test_head_closing_the_pipe_leaves_no_process(self, forks):
        head_closes_the_pipe(["verify", "--suite", "all", "--max-n", "16", "--max-m", "40"],
                             ["-1"], b"PASS bijection complement n=4 m=2\n")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes from /proc")
    def test_head_closing_the_pipe_at_a_huge_max_n(self, forks):
        # a call that listed its units before the first check would fail here with
        # MemoryError and print nothing
        head_closes_the_pipe(["verify", "--suite", "all", "--max-n", "100000"],
                             ["-1"], b"PASS bijection complement n=4 m=2\n")


def head_closes_the_pipe(argv, head_args, want):
    """Pipe the CLI's argv into head with head_args, in 1 GiB of address space,
    and check that head read want, and that the CLI exited 0, wrote nothing to
    stderr and left no process behind."""
    # forks only skips a host without os.fork; the subprocess reports two CPUs itself.
    # The CLI runs in its own session, so whatever it started keeps that session's id
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}\n"
            "from fareylattice.cli import main\nsys.exit(main())")
    cli_proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(), start_new_session=True, preexec_fn=cap)
    head = subprocess.Popen(["head", *head_args], stdin=cli_proc.stdout, stdout=subprocess.PIPE)
    cli_proc.stdout.close()
    try:
        got, _ = head.communicate(timeout=60)
        rc = cli_proc.wait(timeout=60)
    finally:
        head.kill()
        cli_proc.kill()
    assert got == want
    assert rc == 0 and cli_proc.stderr.read() == b""
    cli_proc.stderr.close()
    assert session_members(cli_proc.pid) == []


class TestGenInTwoProcesses:
    """A forked child renders every other piece; the output is the one-process output."""

    @pytest.mark.parametrize("case", ["fork", "one CPU", "failed fork"])
    @pytest.mark.parametrize("argv, d", [
        (["--family", "farey", "--n", "300"], SeqDescriptor(FAREY, 300)),
        (["--family", "boolean", "--n", "500", "--m", "150"], SeqDescriptor(BOOLEAN, 500, 150)),
        (["--family", "boolean", "--n", "600", "--m", "300", "--half", "right"],
         SeqDescriptor(RIGHT_HALF, 600, 300)),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_same_output_in_every_case(self, capsys, monkeypatch, forks, argv, d, fmt, case):
        assert len(list(_pieces(d, cli.GEN_BATCH))) >= cli._FORK_UNITS
        pairs = list(iter_pairs(d))
        if fmt == "plain":
            want = "".join(f"{h}/{k}\n" for h, k in pairs)
        else:
            obj = {"family": d.family, "n": d.n, "m": d.m, "terms": [[h, k] for h, k in pairs]}
            want = json.dumps(obj, separators=(",", ":")) + "\n"
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if case == "failed fork":
            monkeypatch.setattr(os, "fork", failed_fork)
        gc.collect()
        fds = open_fds()
        with resource_warnings_are_errors():
            rc, out, err = run(capsys, "gen", *argv, "--format", fmt)
        assert (rc, err) == (0, "")
        assert first_difference(out, want) is None
        assert forks == ([os.getpid()] if case == "fork" else []) and no_child_left()
        assert open_fds() == fds

    # 2, 4 and 7 pieces run in one process, 8 and 10 fork
    @pytest.mark.parametrize("argv, d, forked", [
        (["--family", "farey", "--n", "120"], SeqDescriptor(FAREY, 120), False),
        (["--family", "boolean", "--n", "300", "--m", "100"], SeqDescriptor(BOOLEAN, 300, 100), False),
        (["--family", "upper", "--n", "300", "--m", "200"], SeqDescriptor(UPPER, 300, 200), False),
        (["--family", "farey", "--n", "287"], SeqDescriptor(FAREY, 287), True),
        (["--family", "boolean", "--n", "500", "--m", "150"], SeqDescriptor(BOOLEAN, 500, 150), True),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_forks_only_from_enough_pieces(self, capsys, forks, argv, d, forked):
        assert (len(list(_pieces(d, cli.GEN_BATCH))) >= cli._FORK_UNITS) == forked
        rc, out, err = run(capsys, "gen", *argv)
        assert (rc, err) == (0, "")
        assert out == "".join(f"{h}/{k}\n" for h, k in iter_pairs(d))
        assert forks == ([os.getpid()] if forked else []) and no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes from /proc")
    def test_head_closing_the_pipe_at_a_huge_order(self, forks):
        head_closes_the_pipe(["gen", "--family", "farey", "--n", "1000000000"], ["-c", "64"],
                             b"0/1\n1/1000000000\n1/999999999\n1/999999998\n1/999999997\n"
                             b"1/999999996")


class TestNoSequenceBuilt:
    """No verb holds a sequence: materialize and FareySeq refuse every
    caller, the oracle suite's lattice scan included."""

    def test_oracle_suite(self, capsys, no_sequence_built):
        rc, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "8")
        assert rc == 0 and err == "" and out.splitlines()[-1].startswith("PASS")

    def test_gen_json_every_family(self, capsys, no_sequence_built):
        for argv, _, pairs in every_gen_call(12):
            rc, out, err = run(capsys, "gen", *argv, "--format", "json")
            assert rc == 0 and err == "", argv
            assert json.loads(out)["terms"] == [[h, k] for h, k in pairs], argv


# argv words for the parser property: every verb and flag, good and bad values,
# help, "--", "--flag=value", abbreviations and words no verb takes
_VERB_FLAGS = sorted({flag for _, _, arguments in cli._VERBS.values() for flag, _ in arguments})
_ARGV_VALUES = ["farey", "boolean", "upper", "cantor", "3", "12", "0", "-1", "x", "1/3",
                "x/y", "next", "up", "json", "left", "all", "oracle", "right-to-farey"]
# one well-formed argv per verb
_WELL_FORMED = [
    ["gen", "--family", "farey", "--n", "5"],
    ["map", "--name", "right-to-farey", "--n", "12", "--m", "6", "--frac", "4/7"],
    ["neighbor", "--family", "farey", "--m", "150", "--frac", "2/5", "--dir", "next"],
    ["index", "--m", "6", "--frac", "1/3"],
    ["count", "--family", "boolean", "--m", "6"],
    ["verify", "--suite", "partition", "--max-n", "4", "--max-m", "2"],
]
_ARGV_TOKEN = st.one_of(
    st.sampled_from([*cli._VERBS, *_VERB_FLAGS, *_ARGV_VALUES,
                     "-h", "--help", "--", "extra", "--bogus", "-x"]),
    st.builds(lambda flag, value: f"{flag}={value}",
              st.sampled_from(_VERB_FLAGS), st.sampled_from(_ARGV_VALUES)),
    st.builds(lambda flag, cut: flag[:cut], st.sampled_from(_VERB_FLAGS), st.integers(3, 6)),
)


class TestUsage:
    def test_no_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "cantor", "--n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["bogus"], ["bogus", "--m", "3"], ["--", "gen"],
        *([verb, "-h"] for verb in ("gen", "map", "neighbor", "index", "count", "verify")),
        ["gen"], ["gen", "--family", "cantor", "--n", "5"],
        ["gen", "--family", "farey", "--n", "x"],
        ["gen", "--family", "farey", "--n", "6", "extra"],
        ["gen", "--family", "farey", "--n", "6", "--bogus"],
        ["map", "--name", "left-to-farey", "--n", "12"],
        ["neighbor", "--family", "farey", "--m", "6", "--frac", "1/3", "--dir", "up"],
        ["index", "--m", "six", "--frac", "1/3"],
        ["index", "--m", "6", "--frac", "1/3", "more", "args"],
        ["count", "--family", "boolean", "--m", "x7"], ["count", "--m", "5"],
        ["verify", "--suite", "nope"], ["verify", "--suite", "all", "--max-n"],
    ])
    def test_one_verb_parser_matches_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for call in (lambda: main(argv), lambda: cli.build_parser().parse_args(argv)):
            with pytest.raises(SystemExit) as exc:
                call()
            captured = capsys.readouterr()
            outcomes.append((exc.value.code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2]

    def test_verb_argv_never_builds_the_full_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert [argv[0] for argv in _WELL_FORMED] == list(cli._VERBS)
        for argv in _WELL_FORMED:
            rc, out, err = run(capsys, *argv)
            assert rc == 0 and out and err == "", argv

    @given(st.one_of(st.just([]), st.sampled_from([[verb] for verb in cli._VERBS]),
                     st.sampled_from(_WELL_FORMED)),
           st.lists(_ARGV_TOKEN, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_verb_parser_matches_full_parser_on_any_argv(self, head, rest):
        argv = head + rest
        outcomes = []
        for parse in (cli._parse, lambda argv: cli.build_parser().parse_args(argv)):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    args = vars(parse(argv))
                    args.pop("verb", None)
                    outcomes.append(args)
                except SystemExit as exc:
                    outcomes.append((exc.code, out.getvalue(), err.getvalue()))
        assert outcomes[0] == outcomes[1], argv

    def test_bad_fraction_text(self, capsys):
        rc, _, err = run(capsys, "neighbor", "--family", "farey", "--m", "6",
                         "--frac", "x/y", "--dir", "next")
        assert rc == 2 and "h/k" in err

    def test_fraction_text_int_would_take(self, capsys):
        # int() reads "1_0" as 10, but only plain ASCII digits are 'h/k'
        rc, out, err = run(capsys, "index", "--m", "6", "--frac", "1_0/3_0")
        assert (rc, out, err) == (2, "", "error: expected 'h/k', got '1_0/3_0'\n")


class ClosedPipe(io.TextIOBase):
    """A stdout on descriptor fd whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class PipeClosingAfterFirstWrite(ClosedPipe):
    """A stdout whose reader takes the first write and then goes away."""

    def __init__(self, fd):
        super().__init__(fd)
        self.received = []

    def write(self, text):
        if self.received:
            raise BrokenPipeError(32, "Broken pipe")
        self.received.append(text)
        return len(text)


# Runs cli.main(argv) against a stdout whose writes raise BrokenPipeError
# after the first, under tracemalloc, and prints the exit status, the writes
# attempted, the traced peak in bytes and the seconds main took.
HUGE_ORDER_CHILD = """
import io, os, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
from fareylattice.cli import main

class PipeClosingAfterFirstWrite(io.TextIOBase):
    def __init__(self):
        self.fd, self.writes = os.open(os.devnull, os.O_WRONLY), 0
    def fileno(self):
        return self.fd
    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

report, sys.stdout = sys.stdout, PipeClosingAfterFirstWrite()
tracemalloc.start()
start = time.perf_counter()
rc = main(sys.argv[1:])
seconds = time.perf_counter() - start
print(rc, sys.stdout.writes, tracemalloc.get_traced_memory()[1], seconds, file=report)
"""


class TestBrokenPipe:
    def test_json_streams_above_materialization_guard(self, capsys, monkeypatch, tmp_path):
        n = MAX_ORDER + 1
        with open(tmp_path / "stdout", "w") as target:
            stdout = PipeClosingAfterFirstWrite(target.fileno())
            monkeypatch.setattr(sys, "stdout", stdout)
            rc = main(["gen", "--family", "farey", "--n", str(n), "--format", "json"])
        assert rc == 0
        assert stdout.received == [f'{{"family":"farey","n":{n},"m":null,"terms":[']
        assert capsys.readouterr().err == ""

    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
            rc = main(["gen", "--family", "farey", "--n", "50"])
            # the rest of the output goes to devnull
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_huge_order_builds_no_table(self, fmt):
        # in a child capped at 512 MiB of address space, so that a writer that
        # sized anything by n fails there instead of exhausting the host's memory
        argv = ["gen", "--family", "farey", "--n", str(10**9), "--format", fmt]
        proc = subprocess.run([sys.executable, "-c", HUGE_ORDER_CHILD, *argv], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        rc, writes, peak, seconds = proc.stdout.split()
        assert (rc, writes) == ("0", "2")
        assert int(peak) < 4 * 2**20
        assert float(seconds) < 10


class TestImportGraph:
    @staticmethod
    def loaded(code, names):
        """Which of names a fresh interpreter has imported once it has run code."""
        probe = f"import sys\n{code}\nprint(*(m for m in {names!r} if m in sys.modules))"
        return set(subprocess.run([sys.executable, "-c", probe], env=child_env(),
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout.split())

    def test_cli_startup_needs_no_dataclasses_inspect_or_json(self):
        # a bare interpreter started the same way sets the baseline
        names = ("dataclasses", "inspect", "json")
        bare = self.loaded("pass", names)
        assert self.loaded("from fareylattice.cli import build_parser\nbuild_parser()", names) <= bare

    def test_cli_startup_needs_no_pickle(self):
        # only a verify call that forks its child imports pickle
        bare = self.loaded("pass", ("pickle",))
        assert self.loaded("from fareylattice.cli import build_parser\nbuild_parser()",
                           ("pickle",)) <= bare
