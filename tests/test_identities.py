import re
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareylattice import identities
from fareylattice.identities import (
    _PREFIX_MAX_H,
    _floor_sum,
    _mertens,
    _mobius_sieve,
    farey_boolean_rank,
    farey_boolean_size,
    farey_identities,
    farey_rank,
    farey_size,
    filter_partition,
    interior_duality,
    mobius,
    phi_interval,
    phi_interval_mobius,
    symmetric_identities,
)
from fareylattice.sequences import farey, farey_boolean
from oracles import brute_coprime_count, brute_divisor_sum, brute_mobius, brute_pair_sum


class TestMobius:
    @pytest.mark.parametrize("d,expected", [
        (1, 1), (2, -1), (3, -1), (4, 0), (5, -1), (6, 1),
        (12, 0), (30, -1), (210, 1), (9, 0), (49, 0),
    ])
    def test_known_values(self, d, expected):
        assert mobius(d) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)

    @given(st.integers(1, 5000))
    @settings(max_examples=300)
    def test_matches_factorization_oracle(self, d):
        assert mobius(d) == brute_mobius(d)

    def test_sieve_matches_trial_division(self):
        mu = _mobius_sieve(5000)
        assert len(mu) == 5001
        assert [mu[d] for d in range(1, 5001)] == [mobius(d) for d in range(1, 5001)]

    def test_sieve_smallest(self):
        assert _mobius_sieve(1) == [0, 1]
        assert _mobius_sieve(2) == [0, 1, -1]

    def test_cache_is_bounded(self):
        # bounded at zero: its one caller, _squarefree_divisors, caches per h
        assert not hasattr(mobius, "cache_info")


class TestPhiInterval:
    def test_euler_phi_special_case(self):
        assert phi_interval(12, 1, 12) == 4

    def test_plain_interval(self):
        assert phi_interval(2, 3, 8) == 3  # {3, 5, 7}

    def test_empty_interval(self):
        assert phi_interval(5, 6, 5) == 0

    def test_divisor_sum_form(self):
        assert phi_interval_mobius(2, 2, 8) == 3
        assert phi_interval_mobius(1, 0, 9) == 9
        assert phi_interval_mobius(6, 6, 12) == 2  # {7, 11}

    @pytest.mark.parametrize("count, args, message", [
        (phi_interval, (0, 1, 5), "h >= 1"),
        (phi_interval, (3, 0, 5), "positive integer"),
        (phi_interval_mobius, (3, -1, 5), "nonnegative"),
    ])
    def test_rejects_nonpositive_h_or_interval_start(self, count, args, message):
        with pytest.raises(ValueError, match=message):
            count(*args)

    def test_divisor_sum_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            phi_interval_mobius(3, 5, 5)

    @pytest.mark.parametrize("h, lower, upper", [(0, 0, 5), (-6, 0, 10), (-1, 3, 4)])
    def test_divisor_sum_rejects_nonpositive_h(self, h, lower, upper):
        # gcd(0, j) = j, so 0 has one coprime j on [1, 5]; a silent 0 would be wrong
        with pytest.raises(ValueError, match="h >= 1"):
            phi_interval_mobius(h, lower, upper)

    @pytest.mark.parametrize("h", range(1, 31))
    def test_divisor_sum_equals_direct_count(self, h):
        for lo in range(0, 60, 7):
            for hi in range(lo + 1, 61, 5):
                assert phi_interval_mobius(h, lo, hi) == phi_interval(h, lo + 1, hi)

    def test_divisor_sum_equals_brute_divisor_sum(self):
        # uppers from 1 up past 600 fall below some divisors of most h
        intervals = [(lo, hi) for lo in (0, 1, 4, 29) for hi in (1, 2, 3, 6, 10, 35, 97, 300, 601)
                     if lo < hi]
        for h in range(1, 601):
            for lo, hi in intervals:
                assert phi_interval_mobius(h, lo, hi) == brute_divisor_sum(h, lo, hi), (h, lo, hi)

    @given(st.integers(1, _PREFIX_MAX_H), st.integers(0, 3000), st.integers(1, 3000))
    @example(1, 0, 1)
    @example(_PREFIX_MAX_H, _PREFIX_MAX_H - 1, 2 * _PREFIX_MAX_H + 1)
    @settings(max_examples=300)
    def test_cores_match_oracles(self, h, lower, span):
        # the private cores, read from h's cached tables, against the brute oracles
        upper = lower + span
        divisors, prefix = identities._squarefree_divisors(h), identities._coprime_prefix(h)
        assert identities._divisor_sum(divisors, lower, upper) == brute_divisor_sum(h, lower, upper)
        assert identities._coprime_count(h, prefix, lower + 1, upper) == \
            brute_coprime_count(h, lower + 1, upper)

    def test_divisor_cache_is_bounded(self):
        assert identities._squarefree_divisors.cache_info().maxsize is not None

    @pytest.mark.parametrize("h", range(1, 41))
    def test_every_interval_matches_gcd_count(self, h):
        # count[x] = how many j in [1, x] are coprime to h, counted by gcd
        count = [0, *accumulate(gcd(h, j) == 1 for j in range(1, 171))]
        for i in range(1, 91):
            for l in range(0, 171):
                assert phi_interval(h, i, l) == max(0, count[l] - count[i - 1]), (h, i, l)

    @pytest.mark.parametrize("h", [_PREFIX_MAX_H, _PREFIX_MAX_H + 1, 2 * 3 * 5 * 7 * 11])
    def test_large_h_matches_oracle(self, h):
        for i, l in [(1, 5), (1, 2 * h + 3), (h - 2, h + 9), (3 * h + 1, 3 * h), (7, 1500)]:
            assert phi_interval(h, i, l) == brute_coprime_count(h, i, l)

    @given(st.integers(1, 200), st.integers(1, 150), st.integers(0, 80))
    @settings(max_examples=200)
    def test_against_oracle(self, h, i, span):
        assert phi_interval(h, i, i + span) == brute_coprime_count(h, i, i + span)

    @pytest.mark.parametrize("m", range(2, 31))
    def test_shifted_window_same_count(self, m):
        # coprime counts on [2h+1, h+m] and [h+1, m] agree for every h
        for h in range(1, m + 1):
            assert phi_interval(h, 2 * h + 1, h + m) == phi_interval(h, h + 1, m)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_counts_match_numerator_slices(self, m):
        """Per-numerator slice of the symmetric sequence below 1/2 matches
        both interval counts and the F_m slice below 1/1."""
        sym = farey_boolean(2 * m, m)
        std = farey(m)
        for h in range(1, m + 1):
            below = sum(1 for f in sym if f.h == h and 2 * f.h < f.k)
            interior = sum(1 for f in std if f.h == h and f.h < f.k)
            assert below == phi_interval(h, 2 * h + 1, h + m)
            assert interior == phi_interval(h, h + 1, m)


class TestClosedFormSizes:
    @pytest.mark.parametrize("m,size", [(1, 2), (6, 13)])
    def test_farey_size_known(self, m, size):
        assert farey_size(m) == size

    @pytest.mark.parametrize("m,size", [(1, 3), (2, 5), (6, 25)])
    def test_boolean_size_known(self, m, size):
        assert farey_boolean_size(m) == size

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 100, 500])
    def test_farey_size_matches_generator(self, m):
        assert farey_size(m) == len(farey(m))

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 40])
    def test_boolean_size_matches_generator(self, m):
        assert farey_boolean_size(m) == len(farey_boolean(2 * m, m))

    @pytest.mark.parametrize("m", range(2, 41))
    def test_boolean_is_twice_farey_minus_one(self, m):
        # on generated lengths: both closed forms read one Moebius sum
        assert len(farey_boolean(2 * m, m)) == 2 * len(farey(m)) - 1


class TestMertens:
    def test_small_orders_match_sieve_prefix(self):
        prefix = list(accumulate(_mobius_sieve(2000)))
        for n in range(1, 2001):
            mertens = _mertens(n)
            assert mertens == {x: prefix[x] for x in {n // d for d in range(1, n + 1)}}, n

    def test_floor_quotients_of_large_orders(self):
        prefix = list(accumulate(_mobius_sieve(10 ** 6)))
        for n in (10 ** 5, 10 ** 6):
            mertens = _mertens(n)
            assert len(mertens) == len({n // d for d in range(1, n + 1)})
            assert all(mertens[n // d] == prefix[n // d] for d in range(1, n + 1))

    @pytest.mark.parametrize("n", [0, -4])
    def test_rejects_nonpositive_order(self, n):
        with pytest.raises(ValueError, match="order must be positive"):
            _mertens(n)


class TestFloorSum:
    def test_matches_brute_sum(self):
        for n in range(0, 13):
            for m in range(1, 13):
                for a in range(0, 27):
                    for b in range(0, 27):
                        assert _floor_sum(n, m, a, b) == \
                            sum((a * i + b) // m for i in range(n)), (n, m, a, b)


class TestRank:
    """Ranks by counting, against the index_of of materialized sequences."""

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 300])
    def test_farey_rank_is_materialized_index(self, n):
        for i, f in enumerate(farey(n)):
            assert farey_rank(f.h, f.k, n) == i, f

    @pytest.mark.parametrize("m", range(1, 41))
    def test_boolean_rank_is_materialized_index(self, m):
        for i, f in enumerate(farey_boolean(2 * m, m)):
            assert farey_boolean_rank(f.h, f.k, m) == i, f

    def test_quarter_ratio_at_a_million(self):
        ranks = [farey_boolean_rank(h, k, 10 ** 6) for h, k in ((1, 3), (1, 2), (2, 3), (1, 1))]
        assert ranks == [151981776196 * j for j in (1, 2, 3, 4)]
        # 2 * sum_{k <= 10^6} phi(k), from a standalone totient sieve; the size
        # is itself the rank of 1/1, so comparing with it would be circular
        assert ranks[3] == 607927104784

    @pytest.mark.parametrize("rank", [farey_rank, farey_boolean_rank])
    @pytest.mark.parametrize("h, k", [(1, 0), (0, 0), (4, 3), (7, 2), (-1, 3), (1, -2)])
    def test_rejects_fractions_outside_the_unit_interval(self, rank, h, k):
        with pytest.raises(ValueError, match=f"{h}/{k} is not a fraction"):
            rank(h, k, 5)

    @pytest.mark.parametrize("rank", [farey_rank, farey_boolean_rank])
    def test_unreduced_fraction_ranks_by_value(self, rank):
        pairs = [(0, 1), (1, 3), (1, 2), (3, 4), (1, 1)]
        assert [rank(2 * h, 2 * k, 9) for h, k in pairs] == [rank(h, k, 9) for h, k in pairs]

    @pytest.mark.parametrize("rank, h, k", [
        (farey_rank, 1, 1), (farey_rank, 3, 3), (farey_boolean_rank, 1, 2),
        (farey_boolean_rank, 3, 6), (farey_boolean_rank, 1, 3),
    ])
    def test_image_at_or_below_one_is_one_floor_sum_rank(self, monkeypatch, rank, h, k):
        # only an image above 1/1 needs the rank of 1/1 as well; farey's size is one rank
        calls, core = [], identities._rank
        monkeypatch.setattr(identities, "_rank", lambda *args: calls.append(args) or core(*args))
        rank(h, k, 9)
        assert len(calls) == 1


class TestInteriorDuality:
    def test_3_1(self):
        r = interior_duality(3, 1)
        assert r.lhs == [3, 3] and r.rhs == 3 and r.passed

    def test_4_2(self):
        r = interior_duality(4, 2)
        assert r.lhs == [9, 9] and r.rhs == 9 and r.passed

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sweep(self, n):
        for m in range(1, n):
            r = interior_duality(n, m)
            assert r.passed, str(r)

    def test_swapping_m_gives_same_report_values(self):
        a, b = interior_duality(9, 2), interior_duality(9, 7)
        assert sorted(a.lhs) == sorted(b.lhs) and a.rhs == b.rhs

    def test_str_of_passing_and_failing_report(self):
        r = interior_duality(4, 2)
        assert str(r) == "interior-duality n=4 m=2: lhs=[9, 9] rhs=9 pass"
        assert str(r._replace(rhs=10)) == "interior-duality n=4 m=2: lhs=[9, 9] rhs=10 fail"


class TestFilterPartition:
    @pytest.mark.parametrize("n,m,lhs,rhs", [
        (3, 1, 4, 1 + 3),
        (4, 2, 12, 3 + 9),
        (12, 6, 4032, 63 + 3969),
    ])
    def test_known_values(self, n, m, lhs, rhs):
        r = filter_partition(n, m)
        assert r.lhs == [lhs] and r.rhs == rhs and r.passed

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sweep(self, n):
        for m in range(1, n):
            assert filter_partition(n, m).passed


class TestSymmetricIdentities:
    def test_m_1_values(self):
        # boolean(2, 1) is 0/1, 1/2, 1/1: only 1/2 is interior, and it splits the halves
        full, halves, thirds = symmetric_identities(1)
        assert full.lhs == [1] and full.rhs == 1
        assert halves.lhs == [0, 0] and halves.rhs == 0
        assert thirds.lhs == [0, 0, 0, 0] and thirds.rhs == 0

    def test_m_2_values(self):
        full, halves, thirds = symmetric_identities(2)
        assert full.lhs == [9] and full.rhs == 9
        assert halves.lhs == [2, 2] and halves.rhs == 2
        assert thirds.lhs == [0, 0, 0, 0] and thirds.rhs == 0

    def test_m_3_values(self):
        full, halves, thirds = symmetric_identities(3)
        assert full.lhs == [49]
        assert halves.lhs == [15, 15]
        assert thirds.lhs == [6, 6, 6, 6] and thirds.rhs == 6

    @pytest.mark.parametrize("m", range(2, 13))
    def test_sweep(self, m):
        for r in symmetric_identities(m):
            assert r.passed, str(r)
            assert len(set(r.lhs)) == 1  # the stated sums agree among themselves

    def test_rejects_degenerate(self):
        # refused by m, through the _point_sequence the identities are summed over
        for m in (0, -1):
            with pytest.raises(ValueError, match="order must be positive"):
                symmetric_identities(m)

    def test_pair_sum_rejects_a_nonpositive_form(self):
        # 2h - k is positive at 2/3 and 0 at 1/2
        with pytest.raises(ValueError, match="form value 1 or 0 is not positive at 1/2"):
            identities._pair_sum([(2, 3), (1, 2)], 4, 4, [(identities._H, identities._2H_K)])


_FORMS = (identities._H, identities._K, identities._K_H, identities._K_2H, identities._2H_K)
# the ordered pairs of forms that (h, k) -> (a, b) maps unimodularly, so any
# positive (a, b) has an integer (h, k); every identity's pair is one of them
_STEERABLE = [(f, g) for f in _FORMS for g in _FORMS if f[0] * g[1] - f[1] * g[0] in (1, -1)]


def _solve(forms, a, b):
    """The (h, k) at which a steerable pair of forms takes the values (a, b)."""
    (u1, v1), (u2, v2) = forms
    det = u1 * v2 - v1 * u2  # +-1, its own inverse
    return (a * v2 - v1 * b) * det, (u1 * b - u2 * a) * det


def _edge_values(m):
    """Form values at, just below and just above m // 2, and above m."""
    return st.sampled_from(sorted({max(1, m // 2 - 1), max(1, m // 2), m // 2 + 1, m + 1, m + 2}))


@st.composite
def _pair_sum_cases(draw):
    """(pairs, m1, m2, forms): each pair is solved from a steerable pair of
    forms for edge values of both; extra forms are kept where positive."""
    m1 = draw(st.integers(1, 24))
    m2 = draw(st.one_of(st.just(m1), st.integers(1, 24)))
    steer = draw(st.sampled_from(_STEERABLE))
    pairs = [_solve(steer, draw(_edge_values(m1)), draw(_edge_values(m2)))
             for _ in range(draw(st.integers(1, 4)))]
    extra = draw(st.lists(st.sampled_from([(f, g) for f in _FORMS for g in _FORMS]), max_size=2))
    forms = [steer] + [(f, g) for f, g in extra
                       if all(u * h + v * k > 0 for h, k in pairs for u, v in (f, g))]
    return pairs, m1, m2, forms


class TestPairSum:
    """_pair_sum against math.comb summed over every s, with no row slicing."""

    @given(_pair_sum_cases())
    @settings(max_examples=400)
    # at even m, a = m // 2 still has an s = 2 term: C(6, 6) * C(6, 2)
    @example(([(3, 4)], 6, 6, [(identities._H, identities._K_H)]))
    @example(([(3, 4)], 6, 9, [(identities._H, identities._K_H)]))
    def test_matches_brute_sum(self, case):
        pairs, m1, m2, forms = case
        assert identities._pair_sum(pairs, m1, m2, forms) == brute_pair_sum(pairs, m1, m2, forms)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
    def test_every_identity_pair_of_forms(self, m):
        # each steerable pair of forms over every (a, b) up to m + 2
        for forms in _STEERABLE:
            pairs = [_solve(forms, a, b) for a in range(1, m + 3) for b in range(1, m + 3)]
            for m2 in (m, m + 1):
                assert (identities._pair_sum(pairs, m, m2, [forms])
                        == brute_pair_sum(pairs, m, m2, [forms]))


class TestFareyIdentities:
    def test_m_1_values(self):
        # F_1 is 0/1, 1/1: no interior term, so every sum is empty
        interior, halves = farey_identities(1)
        assert interior.lhs == [0] and interior.rhs == 0
        assert halves.lhs == [0, 0] and halves.rhs == 0

    def test_m_2_values(self):
        interior, halves = farey_identities(2)
        assert interior.lhs == [2] and interior.rhs == 2
        assert halves.lhs == [0, 0] and halves.rhs == 0

    def test_m_3_interior(self):
        interior, halves = farey_identities(3)
        assert interior.lhs == [15] and interior.rhs == 2 ** 5 - 2 ** 3 - 10 + 1
        assert halves.lhs == [6, 6]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_sweep(self, m):
        for r in farey_identities(m):
            assert r.passed, str(r)

    def test_rejects_degenerate(self):
        # refused by m, through the _point_sequence the identities are summed over
        for m in (0, -1):
            with pytest.raises(ValueError, match="order must be positive"):
                farey_identities(m)


@pytest.mark.parametrize("identities_of", [symmetric_identities, farey_identities])
class TestIdentityRefusals:
    """A bad m is refused in the point verbs' wording, naming m itself,
    never the order 2m of boolean(2m, m)."""

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_m(self, identities_of, m):
        with pytest.raises(ValueError, match=f"^order must be positive, got m={m}$"):
            identities_of(m)

    def test_non_int_m(self, identities_of):
        with pytest.raises(TypeError, match=r"^order must be an int, got m=2\.0$"):
            identities_of(2.0)

    @pytest.mark.parametrize("m", [True, False])
    def test_bool_m(self, identities_of, m):
        # bool is an int subclass: True would otherwise pass as the order 1
        with pytest.raises(TypeError, match=f"^order must be an int, got m={m}$"):
            identities_of(m)


class TestReportShape:
    def test_to_dict_uses_pass_key(self):
        d = filter_partition(3, 1).to_dict()
        assert d == {"name": "filter-partition", "params": {"n": 3, "m": 1},
                     "lhs": [4], "rhs": 4, "pass": True}

    def test_failure_detected(self):
        r = filter_partition(3, 1)
        assert r.passed and not r._replace(lhs=[5]).passed
