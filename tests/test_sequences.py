import copy
import pickle
import re
import time
import tracemalloc
from itertools import chain, islice
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fareylattice import sequences
from fareylattice.cli import GEN_BATCH
from fareylattice.fracs import HALF, Frac, UnimodularMap
from fareylattice.identities import (
    farey_boolean_rank,
    farey_boolean_size,
    farey_rank,
    farey_size,
)
from fareylattice.neighbors import (
    next_in_farey,
    pred_in_boolean,
    prev_in_farey,
    succ_in_boolean,
)
from fareylattice.sequences import (
    BOOLEAN,
    FAREY,
    LEFT_HALF,
    MAX_ORDER,
    RIGHT_HALF,
    UPPER,
    FareySeq,
    SeqDescriptor,
    _FAMILIES,
    _pieces,
    _point_sequence,
    _walk,
    _walk_text,
    farey,
    farey_boolean,
    iter_pairs,
    iter_terms,
    left_half,
    materialize,
    right_half,
    upper_subsequence,
)
from oracles import brute_boolean, brute_farey, brute_upper


def as_pairs(seq):
    return [(f.h, f.k) for f in seq]


class TestFarey:
    def test_golden_order_6(self, golden_farey_6):
        assert [str(f) for f in farey(6)] == golden_farey_6

    def test_order_1(self):
        assert as_pairs(farey(1)) == [(0, 1), (1, 1)]

    def test_order_7_count(self):
        assert len(farey(7)) == 19

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_brute_force(self, n):
        assert as_pairs(farey(n)) == brute_farey(n)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_consecutive_terms_are_unimodular(self, n):
        terms = farey(n).terms
        for a, c in zip(terms, terms[1:]):
            assert c.h * a.k - a.h * c.k == 1

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            farey(0)

    def test_materialization_guard(self):
        with pytest.raises(ValueError, match="guard"):
            farey(MAX_ORDER + 1)

    def test_iterator_streams_same_terms(self):
        assert list(iter_terms(SeqDescriptor(FAREY, 9))) == list(farey(9))


class TestUpper:
    def test_small_numerators_only(self):
        assert [str(f) for f in upper_subsequence(6, 1)] == \
            ["0/1", "1/6", "1/5", "1/4", "1/3", "1/2", "1/1"]

    def test_order_3(self):
        assert [str(f) for f in upper_subsequence(3, 2)] == \
            ["0/1", "1/3", "1/2", "2/3", "1/1"]

    def test_nothing_removed_when_m_is_max_numerator(self):
        assert upper_subsequence(6, 5).terms == farey(6).terms

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 11) for m in range(1, n)])
    def test_matches_brute_force(self, n, m):
        assert as_pairs(upper_subsequence(n, m)) == brute_upper(n, m)


class TestBoolean:
    def test_golden_12_6(self, golden_boolean_12_6):
        assert [str(f) for f in farey_boolean(12, 6)] == golden_boolean_12_6

    def test_smallest(self):
        assert as_pairs(farey_boolean(2, 1)) == [(0, 1), (1, 2), (1, 1)]

    def test_3_1(self):
        assert [str(f) for f in farey_boolean(3, 1)] == ["0/1", "1/3", "1/2", "1/1"]

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 11) for m in range(1, n)])
    def test_matches_brute_force(self, n, m):
        assert as_pairs(farey_boolean(n, m)) == brute_boolean(n, m)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 17) for m in range(1, n)])
    def test_complement_reverses_into_dual(self, n, m):
        comp = UnimodularMap(-1, 1, 0, 1)
        images = [comp.apply(f) for f in farey_boolean(n, m)]
        assert images[::-1] == list(farey_boolean(n, n - m))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            farey_boolean(6, 0)
        with pytest.raises(ValueError):
            farey_boolean(6, 6)


class TestHalves:
    def test_left_of_12_6(self, golden_boolean_12_6):
        left = left_half(12, 6)
        assert [str(f) for f in left] == golden_boolean_12_6[:13]
        assert str(left[-1]) == "1/2"

    def test_right_of_12_6(self, golden_boolean_12_6):
        right = right_half(12, 6)
        assert [str(f) for f in right] == golden_boolean_12_6[12:]

    def test_left_of_4_2(self):
        assert as_pairs(left_half(4, 2)) == [(0, 1), (1, 3), (1, 2)]

    @pytest.mark.parametrize("m", range(1, 25))
    def test_halves_share_midpoint(self, m):
        le, ri = left_half(2 * m, m), right_half(2 * m, m)
        assert le[-1] == HALF == ri[0]
        assert len(le) + len(ri) == len(farey_boolean(2 * m, m)) + 1

    @pytest.mark.parametrize("m", range(1, 25))
    def test_halves_joined_at_midpoint_are_the_sequence(self, m):
        joined = left_half(2 * m, m).terms + right_half(2 * m, m).terms[1:]
        assert joined == farey_boolean(2 * m, m).terms

    def test_requires_symmetric_descriptor(self):
        for half in (left_half, right_half):
            with pytest.raises(ValueError, match=r"^halfsequences exist only for n = 2m, "
                                                 r"got n=12, m=5$"):
                half(12, 5)

    @pytest.mark.parametrize("half,family", [(left_half, LEFT_HALF), (right_half, RIGHT_HALF)])
    def test_builds_only_the_half(self, half, family, monkeypatch):
        # the half comes from its own descriptor, not from the whole sequence
        built = []
        init = FareySeq.__init__

        def counting_init(seq, descriptor):
            built.append(descriptor)
            init(seq, descriptor)

        monkeypatch.setattr(FareySeq, "__init__", counting_init)
        half(12, 6)
        assert built == [SeqDescriptor(family, 12, 6)]


def descriptors(n):
    """Every sequence of order n: F_n, and each family for each 0 < m < n."""
    yield SeqDescriptor(FAREY, n)
    for m in range(1, n):
        yield SeqDescriptor(UPPER, n, m)
        yield SeqDescriptor(BOOLEAN, n, m)
        if n == 2 * m:
            yield SeqDescriptor(LEFT_HALF, n, m)
            yield SeqDescriptor(RIGHT_HALF, n, m)


def oracle(d):
    """The (h, k) pairs of the sequence d names, by brute force alone."""
    if d.family == FAREY:
        return brute_farey(d.n)
    if d.family == UPPER:
        return brute_upper(d.n, d.m)
    boolean = brute_boolean(d.n, d.m)
    if d.family == LEFT_HALF:
        return [(h, k) for h, k in boolean if 2 * h <= k]
    if d.family == RIGHT_HALF:
        return [(h, k) for h, k in boolean if 2 * h >= k]
    return boolean


# the first three pairs of each family at n = 10^9 and m = 5*10^8, in closed form
_N, _M = 10**9, 5 * 10**8
_FIRST_THREE = {
    FAREY: [(0, 1), (1, _N), (1, _N - 1)],
    UPPER: [(0, 1), (1, _N), (1, _N - 1)],
    BOOLEAN: [(0, 1), (1, _N - _M + 1), (1, _N - _M)],
    LEFT_HALF: [(0, 1), (1, _M + 1), (1, _M)],
    RIGHT_HALF: [(1, 2), (_M, 2 * _M - 1), (_M - 1, 2 * _M - 3)],
}
# a fraction just outside each box at the same orders: y > B, or x > A
_PAST_THE_BOX = {
    FAREY: (1, _N + 1),
    UPPER: (_M + 1, _N),
    BOOLEAN: (1, _N - _M + 2),
    LEFT_HALF: (1, _M + 2),
    RIGHT_HALF: (_M + 1, 2 * _M + 1),
}


class TestOneDefinition:
    """Generation and membership both come from the family's _FAMILIES row;
    check each against the brute-force oracles, which never read it."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_every_family_matches_oracles(self, n):
        assert as_pairs(farey(n)) == brute_farey(n)
        for m in range(1, n):
            assert as_pairs(upper_subsequence(n, m)) == brute_upper(n, m)
            boolean = brute_boolean(n, m)
            assert as_pairs(farey_boolean(n, m)) == boolean
            if n == 2 * m:
                assert as_pairs(left_half(n, m)) == [(h, k) for h, k in boolean if 2 * h <= k]
                assert as_pairs(right_half(n, m)) == [(h, k) for h, k in boolean if 2 * h >= k]

    @pytest.mark.parametrize("n", range(1, 31))
    def test_membership_matches_materialized(self, n):
        candidates = [Frac(h, k) for k in range(1, n + 2) for h in range(k + 1)
                      if gcd(h, k) == 1]
        for d in descriptors(n):
            members = set(oracle(d))
            assert [f for f in candidates if f in d] == [
                f for f in candidates if (f.h, f.k) in members], d

    def test_membership_rejects_non_fractions(self):
        assert "1/2" not in SeqDescriptor(FAREY, 4)

    @pytest.mark.parametrize("family", sorted(_FIRST_THREE))
    def test_streaming_needs_no_materialization_guard(self, family):
        d = SeqDescriptor(family, _N, None if family == FAREY else _M)
        assert d.n > MAX_ORDER
        assert [(f.h, f.k) for f in islice(iter_terms(d), 3)] == _FIRST_THREE[family]

    @pytest.mark.parametrize("family", sorted(_FIRST_THREE))
    def test_membership_needs_no_materialization_guard(self, family):
        d = SeqDescriptor(family, _N, None if family == FAREY else _M)
        assert all(Frac(h, k) in d for h, k in _FIRST_THREE[family])
        assert Frac(*_PAST_THE_BOX[family]) not in d


# each family's shear c and box (A, B), from the module docstring's table,
# written out here so that the tests below do not read _FAMILIES
_SHEAR_AND_BOX = {
    FAREY: lambda n, m: (0, n, n),
    UPPER: lambda n, m: (0, m, n),
    BOOLEAN: lambda n, m: (1, m, n - m),
    LEFT_HALF: lambda n, m: (1, m, n - m),
    RIGHT_HALF: lambda n, m: (1, m, n - m),
}


def _partner(x, y):
    """A lattice point (px, py) with px*y - x*py = 1, for coprime x, y >= 0,
    by the extended Euclidean algorithm."""
    # invariants: r0 = s0*x + u0*y and r1 = s1*x + u1*y
    r0, s0, u0, r1, s1, u1 = x, 1, 0, y, 0, 1
    while r1:
        q = r0 // r1
        r0, s0, u0, r1, s1, u1 = r1, s1, u1, r0 - q * r1, s0 - q * s1, u0 - q * u1
    assert r0 == 1  # s0*x + u0*y = 1
    return u0, -s0


class TestWalks:
    """iter_pairs walks every row with two loops, in the row's (x, y): the
    bound on y gives each step until the walk reaches the box's corner ray,
    and the bound on x alone from there.  Checked against the brute-force
    oracles at orders past TestOneDefinition's, for every m: m = 1 and
    m = n - 1, the first step from 0/1, where x = 0, and at n = 128 both
    halves; the corner lemma against the oracles' terms; and _walk from the
    corner term at boxes up to 10^9 against a walk written here."""

    @staticmethod
    def assert_walks(d, expected):
        # one pair past the oracle's length, so a walk that misses its last
        # term fails instead of running on
        assert list(islice(iter_pairs(d), len(expected) + 1)) == expected, d

    @pytest.mark.parametrize("n", [64, 101, 128])
    def test_every_m_matches_oracles(self, n):
        for d in descriptors(n):
            self.assert_walks(d, oracle(d))

    def test_bounds_read_once_per_call(self, monkeypatch):
        shear, box, stretch = _FAMILIES[UPPER]
        reads = []
        monkeypatch.setitem(_FAMILIES, UPPER,
                            (shear, lambda n, m: reads.append((n, m)) or box(n, m), stretch))
        assert list(iter_pairs(SeqDescriptor(UPPER, 30, 12))) == brute_upper(30, 12)
        assert reads == [(30, 12)]

    @pytest.mark.parametrize("n", range(1, 61))
    def test_the_x_bound_binds_from_the_first_step_where_the_y_bound_overshoots(self, n):
        # for consecutive terms u < v < w in (x, y), w = t*v - u for the lesser
        # t of tA = (A + u_x) // v_x and tB = (B + u_y) // v_y.  Up to the first
        # step where tB > tA, tB <= tA at every step; from it on, tA <= tB
        for d in descriptors(n):
            c, a, b = _SHEAR_AND_BOX[d.family](d.n, d.m)
            terms = [(h, k - c * h) for h, k in oracle(d)]
            steps = []
            for (ux, uy), (vx, vy), (wx, wy) in zip(terms, terms[1:], terms[2:]):
                t_a, t_b = (a + ux) // vx, (b + uy) // vy
                t = min(t_a, t_b)
                assert (wx, wy) == (t * vx - ux, t * vy - uy), (d, (vx, vy))
                steps.append((t_a, t_b))
            first = next((i for i, (t_a, t_b) in enumerate(steps) if t_b > t_a), len(steps))
            assert all(t_b <= t_a for t_a, t_b in steps[:first]), d
            assert all(t_a <= t_b for t_a, t_b in steps[first:]), d
            if d.family in (FAREY, LEFT_HALF):
                assert first == len(steps), d  # they end at their corner 1/1
            if d.family == RIGHT_HALF:
                assert all(t_a <= t_b for t_a, t_b in steps), d  # it starts at its corner 1/1

    @given(st.sampled_from([UPPER, BOOLEAN]),
           st.integers(3, 10**9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
    @example(UPPER, (10**9, 10**9 - 1))
    @example(BOOLEAN, (10**9, 3 * 10**8))
    @example(BOOLEAN, (10**9, 10**9 - 1))
    @example(BOOLEAN, (10**9, 1))
    @settings(max_examples=60, deadline=None)
    def test_walk_from_the_corner_term_at_depth(self, family, order):
        n, m = order
        c, a, b = _SHEAR_AND_BOX[family](n, m)
        assume(a != b)  # a symmetric box's corner is the stretch's last term 1/1
        d = SeqDescriptor(family, n, m)
        g = gcd(a, b)
        corner = a // g, b // g
        partner = _partner(*corner)
        last = (1, 1) if family == UPPER else (1, 0)
        walked = list(islice(_walk(d, corner, partner, last), 2000))
        # the reference walk: the lesser of the two divisions at every step
        (x0, y0), (x1, y1) = (-partner[0], -partner[1]), corner
        want = [(x1, y1 + c * x1)]
        while len(want) < 2000 and (x1, y1) != last:
            t = min((a + x0) // x1, (b + y0) // y1)
            x0, y0, x1, y1 = x1, y1, t * x1 - x0, t * y1 - y0
            want.append((x1, y1 + c * x1))
        assert walked == want
        assert all(0 <= h <= a and 0 <= k - c * h <= b for h, k in walked)
        assert all(h1 * k0 - h0 * k1 == 1 for (h0, k0), (h1, k1) in zip(walked, walked[1:]))


def walked(d, pieces, count):
    """The first count pairs of: the first term of d, then each piece's walk after
    its left term.  Bounded, so that a walk that misses its piece's end fails."""
    after = (pair for piece in pieces for pair in islice(_walk(d, *piece), 1, None))
    return list(islice(chain([next(iter_pairs(d))], after), count))


class TestPieces:
    """_pieces cuts a sequence into pieces that _walk walks one by one; joined
    at their shared ends, they are the whole walk."""

    @pytest.mark.parametrize("n", range(1, 50))
    def test_walked_pieces_are_the_sequence(self, n):
        for d in descriptors(n):
            want = oracle(d)
            assert list(islice(iter_pairs(d), len(want) + 1)) == want, d
            for size in (1, 3, 64, GEN_BATCH):
                # each piece holds a term, so a cutter that repeats itself stops here
                pieces = list(islice(_pieces(d, size), len(want)))
                # one pair past the sequence, so pieces that run on past its end fail
                assert walked(d, pieces, len(want) + 1) == want, (d, size)
                assert all(p[2] == q[0] for p, q in zip(pieces, pieces[1:])), (d, size)
                # _walk_text renders the same terms as _walk, from both formats' tables
                for pre, sep, end in (("", "/", "\n"), (",[", ",", "]")):
                    nums = [f"{pre}{i}{sep}" for i in range(d.n + 1)]
                    dens = [f"{i}{end}" for i in range(d.n + 1)]
                    for piece in pieces:
                        want_text = "".join(f"{pre}{h}{sep}{k}{end}"
                                            for h, k in islice(_walk(d, *piece), 1, None))
                        assert _walk_text(d, *piece, nums, dens) == want_text, (d, size, piece)

    @pytest.mark.parametrize("d", [
        SeqDescriptor(FAREY, 2000), SeqDescriptor(BOOLEAN, 3000, 1000),
        SeqDescriptor(UPPER, 3000, 700), SeqDescriptor(LEFT_HALF, 2400, 1200),
        SeqDescriptor(RIGHT_HALF, 2400, 1200)], ids=str)
    def test_no_piece_holds_more_than_twice_the_size(self, d):
        after_first = sum(1 for _ in iter_pairs(d)) - 1
        pieces, sizes, total = _pieces(d, GEN_BATCH), [], 0
        # stops once the pieces hold as many terms as the sequence after its first,
        # so a cutter that repeats itself fails here rather than runs on
        for piece in pieces:
            sizes.append(sum(1 for _ in islice(_walk(d, *piece), 1, after_first + 1)))
            total += sizes[-1]
            if total >= after_first:
                break
        assert total == after_first and next(pieces, None) is None
        assert max(sizes) <= 2 * GEN_BATCH

    @pytest.mark.parametrize("d", [
        SeqDescriptor(FAREY, 10**6), SeqDescriptor(BOOLEAN, 10**6, 5 * 10**5)], ids=str)
    def test_a_piece_costs_a_bounded_number_of_estimates(self, monkeypatch, d):
        # near 0 these trees' leaves hold two or three terms each: taken one
        # leaf at a time, the first 400 pieces cost 500 to 800 estimates each
        calls, inner = [], sequences._inner
        monkeypatch.setattr(sequences, "_inner", lambda *args: calls.append(args) or inner(*args))
        pieces = list(islice(_pieces(d, GEN_BATCH), 400))
        assert len(pieces) == 400 and len(calls) <= 32 * len(pieces)
        held = sum(1 for piece in pieces[100:] for _ in islice(_walk(d, *piece), 1, None))
        assert held >= len(pieces[100:]) * GEN_BATCH // 2

    @pytest.mark.parametrize("family", sorted(_FIRST_THREE))
    def test_first_pieces_at_a_huge_order_are_quick_and_small(self, family):
        # a cutter that split at every mediant down the left spine would take
        # about 10^9 steps here before its first piece
        d = SeqDescriptor(family, _N, None if family == FAREY else _M)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            pieces = list(islice(_pieces(d, GEN_BATCH), 3))
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1 and peak < 2**20
        assert walked(d, pieces, 3) == _FIRST_THREE[family]


class TestPairs:
    """iter_terms wraps iter_pairs' pairs as Frac without a gcd; these
    properties are what make that sound."""

    @pytest.mark.parametrize("n", range(1, 61))
    def test_pairs_are_coprime_and_unimodular(self, n):
        for d in descriptors(n):
            pairs = list(iter_pairs(d))
            assert all(0 <= h <= k and gcd(h, k) == 1 for h, k in pairs), d
            for (h0, k0), (h1, k1) in zip(pairs, pairs[1:]):
                assert h1 * k0 - h0 * k1 == 1, (d, h0, k0, h1, k1)

    @pytest.mark.parametrize("n", [1, 7, 12])
    def test_terms_wrap_pairs(self, n):
        for d in descriptors(n):
            terms = list(iter_terms(d))
            assert [(f.h, f.k) for f in terms] == list(iter_pairs(d))
            assert terms == [Frac(h, k) for h, k in iter_pairs(d)]


class TestIndexing:
    def test_displayed_positions(self):
        s = farey_boolean(12, 6)
        assert s.index_of(Frac(1, 3)) == 6
        assert s.index_of(Frac(1, 2)) == 12

    def test_absent(self):
        assert farey(6).index_of(Frac(5, 7)) is None
        # the left half ends at 1/2, so 2/3 bisects to one past its last term
        assert left_half(12, 6).index_of(Frac(2, 3)) is None

    def test_contains(self):
        assert Frac(3, 8) in farey_boolean(12, 6)
        assert Frac(3, 8) not in farey(6)


class TestDescriptors:
    def test_farey_takes_no_m(self):
        with pytest.raises(ValueError):
            SeqDescriptor(FAREY, 6, 2)

    @pytest.mark.parametrize("family", [UPPER, BOOLEAN])
    def test_parametrized_family_requires_m(self, family):
        with pytest.raises(ValueError, match="requires parameter m"):
            SeqDescriptor(family, 6)

    def test_range_check(self):
        with pytest.raises(ValueError):
            SeqDescriptor(BOOLEAN, 6, 6)

    def test_half_requires_symmetric(self):
        with pytest.raises(ValueError):
            SeqDescriptor(LEFT_HALF, 12, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SeqDescriptor("middle", 6, 2)

    @pytest.mark.parametrize("family", [FAREY, BOOLEAN])
    def test_point_sequence_refuses_a_non_int_m_by_its_name(self, family):
        with pytest.raises(TypeError, match=r"^order must be an int, got m=2\.0$"):
            _point_sequence(family, 2.0)

    @pytest.mark.parametrize("m", [True, False])
    @pytest.mark.parametrize("family", [FAREY, BOOLEAN])
    def test_point_sequence_refuses_a_bool_m_by_its_name(self, family, m):
        with pytest.raises(TypeError, match=f"^order must be an int, got m={m}$"):
            _point_sequence(family, m)

    @pytest.mark.parametrize("call", [
        lambda: farey(4.0),
        lambda: SeqDescriptor(BOOLEAN, 6.5, 2),
        lambda: SeqDescriptor(BOOLEAN, 6, 2.0),
        lambda: next_in_farey(Frac(1, 3), 5.0),
        lambda: prev_in_farey(Frac(1, 3), 5.0),
        lambda: succ_in_boolean(Frac(1, 3), 5.0),
        lambda: pred_in_boolean(Frac(1, 3), 5.0),
        lambda: farey_size(10.0),
        lambda: farey_boolean_size(10.0),
        lambda: farey_rank(1, 3, 10.0),
        lambda: farey_boolean_rank(1, 3, 10.0),
    ])
    def test_non_int_order_raises_type_error(self, call):
        # a float order would otherwise leak floats into the exact terms
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("call,message", [
        (lambda: farey(True), "n and m must be ints, got n=True, m=None"),
        (lambda: SeqDescriptor(FAREY, False), "n and m must be ints, got n=False, m=None"),
        (lambda: SeqDescriptor(BOOLEAN, 6, True), "n and m must be ints, got n=6, m=True"),
        (lambda: next_in_farey(Frac(0, 1), True), "order must be an int, got m=True"),
        (lambda: prev_in_farey(Frac(1, 1), True), "order must be an int, got m=True"),
        (lambda: succ_in_boolean(Frac(0, 1), True), "order must be an int, got m=True"),
        (lambda: pred_in_boolean(Frac(1, 1), False), "order must be an int, got m=False"),
        (lambda: farey_size(True), "order must be an int, got True"),
        (lambda: farey_boolean_size(True), "order must be an int, got True"),
        (lambda: farey_rank(0, 1, True), "order must be an int, got True"),
        (lambda: farey_boolean_rank(1, 2, False), "order must be an int, got False"),
    ])
    def test_bool_order_is_refused_as_a_non_int(self, call, message):
        # bool is an int subclass: True would otherwise pass as the order 1
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("build", [
        lambda: farey(9),
        lambda: upper_subsequence(9, 4),
        lambda: farey_boolean(9, 4),
        lambda: left_half(8, 4),
        lambda: right_half(8, 4),
    ])
    def test_materialize_round_trips(self, build):
        seq = build()
        assert materialize(seq.descriptor) == seq


class TestDescriptorRecord:
    def test_fields_are_read_only(self):
        d = SeqDescriptor(BOOLEAN, 12, 6)
        with pytest.raises(AttributeError):
            d.n = 13
        assert d.n == 12

    def test_equal_descriptors_hash_equal(self):
        a, b = SeqDescriptor(BOOLEAN, 12, 6), SeqDescriptor(BOOLEAN, n=12, m=6)
        assert a == b and hash(a) == hash(b)
        assert SeqDescriptor(FAREY, 6) == SeqDescriptor(FAREY, 6, None)
        assert a != SeqDescriptor(BOOLEAN, 12, 5)

    def test_repr(self):
        assert repr(SeqDescriptor(BOOLEAN, 12, 6)) == "SeqDescriptor(family='boolean', n=12, m=6)"
        assert repr(SeqDescriptor(FAREY, 6)) == "SeqDescriptor(family='farey', n=6, m=None)"

    @pytest.mark.parametrize("d", [SeqDescriptor(FAREY, 6), SeqDescriptor(BOOLEAN, 12, 6),
                                   SeqDescriptor(LEFT_HALF, 12, 6)])
    def test_pickle_round_trip(self, d):
        assert pickle.loads(pickle.dumps(d)) == d

    @pytest.mark.parametrize("base, change", [
        (SeqDescriptor(FAREY, 6), {"n": -3}),
        (SeqDescriptor(FAREY, 6), {"n": 4.5}),
        (SeqDescriptor(BOOLEAN, 5, 4), {"m": 9}),
        (SeqDescriptor(BOOLEAN, 8, 3), {"family": LEFT_HALF}),
    ], ids=["n=-3", "n=4.5", "m=9", "left-half"])
    def test_replace_and_make_check_as_the_constructor_does(self, base, change):
        fields = {**base._asdict(), **change}

        def raised(build):
            try:
                build()
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return None

        direct = raised(lambda: SeqDescriptor(**fields))
        assert direct is not None
        assert raised(lambda: base._replace(**change)) == direct
        assert raised(lambda: SeqDescriptor._make(fields.values())) == direct

    def test_valid_replace_is_the_direct_build(self):
        d = SeqDescriptor(BOOLEAN, 6, 3)._replace(family=LEFT_HALF)
        assert type(d) is SeqDescriptor and d == SeqDescriptor(LEFT_HALF, 6, 3)
        assert pickle.loads(pickle.dumps(d)) == d
        assert copy.copy(d) == d and copy.deepcopy(d) == d


class TestFareySeqInvariants:
    def test_immutable(self):
        s = farey(3)
        with pytest.raises(AttributeError):
            s.terms = ()

    def test_equality_hash_and_repr(self):
        s = farey(3)
        assert s.__eq__(object()) is NotImplemented
        assert s != object()
        assert len({s, materialize(SeqDescriptor(FAREY, 3))}) == 1
        assert repr(s) == "FareySeq(farey(n=3), 5 terms)"
        assert repr(upper_subsequence(4, 2)) == "FareySeq(upper(n=4, m=2), 6 terms)"
