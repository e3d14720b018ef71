import tracemalloc
from math import comb

import pytest

from fareylattice import lattice, sequences
from fareylattice.lattice import (
    count_exact_intersection,
    enumerate_fractions,
    filter_cardinality_check,
)
from fareylattice.sequences import BOOLEAN, SeqDescriptor, iter_pairs
from oracles import brute_intersection_histogram, brute_subset_fractions


class TestEnumerate:
    def test_two_element_ground_set(self):
        assert enumerate_fractions(2, 1) == [(0, 1), (1, 2), (1, 1)]

    def test_four_two(self):
        assert len(enumerate_fractions(4, 2)) == 5

    def test_twelve_six_matches_display(self, golden_boolean_12_6):
        assert [f"{h}/{k}" for h, k in enumerate_fractions(12, 6)] == golden_boolean_12_6

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 11) for m in range(1, n)])
    def test_equals_arithmetic_characterization(self, n, m):
        assert enumerate_fractions(n, m) == list(iter_pairs(SeqDescriptor(BOOLEAN, n, m)))

    @pytest.mark.parametrize("n,m", [(5, 2), (7, 3), (9, 5)])
    def test_matches_independent_scan(self, n, m):
        assert enumerate_fractions(n, m) == brute_subset_fractions(n, m)

    @pytest.mark.parametrize("n,m", [(18, 5), (20, 10)])
    def test_spot_pairs_beyond_sweep(self, n, m):
        assert enumerate_fractions(n, m) == list(iter_pairs(SeqDescriptor(BOOLEAN, n, m)))

    def test_bound(self):
        with pytest.raises(ValueError, match="bound"):
            enumerate_fractions(25, 5)

    @pytest.mark.parametrize("m", [0, 6])
    def test_rejects_m_outside_the_ground_set(self, m):
        with pytest.raises(ValueError, match="need 0 < m < n"):
            enumerate_fractions(6, m)

    def test_binds_nothing_from_sequences(self):
        # the scan is ground truth for sequences, so it must not reach into it
        own = [sequences] + [value for name, value in vars(sequences).items()
                             if not name.startswith("__")
                             and getattr(value, "__module__", sequences.__name__)
                             == sequences.__name__]
        assert [name for name, value in vars(lattice).items()
                if any(value is v for v in own)] == []


class TestRankCounts:
    def test_four_two_one_two(self):
        assert count_exact_intersection(4, 2, 1, 2) == 4

    def test_singleton(self):
        assert count_exact_intersection(3, 1, 1, 1) == 1

    def test_twelve_six(self):
        assert count_exact_intersection(12, 6, 2, 5) == comb(6, 2) * comb(6, 3)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 11) for m in range(1, n)])
    def test_equals_binomial_product(self, n, m):
        for l in range(n + 1):
            for j in range(l + 1):
                assert count_exact_intersection(n, m, j, l) == \
                    comb(m, j) * comb(n - m, l - j)

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            count_exact_intersection(6, 3, 4, 2)

    def test_bound(self):
        with pytest.raises(ValueError, match="bound"):
            count_exact_intersection(25, 5, 1, 1)

    @pytest.mark.parametrize("m", [0, 6])
    def test_rejects_m_outside_the_ground_set(self, m):
        with pytest.raises(ValueError, match="need 0 < m < n"):
            count_exact_intersection(6, m, 0, 0)


class TestFilterCardinality:
    @pytest.mark.parametrize("n,m,expected", [(3, 1, 4), (4, 2, 12), (2, 1, 2)])
    def test_known_counts(self, n, m, expected):
        r = filter_cardinality_check(n, m)
        assert r.rhs == expected
        assert r.lhs == [expected, expected]
        assert r.passed

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sweep(self, n):
        for m in range(1, n):
            assert filter_cardinality_check(n, m).passed

    @pytest.mark.parametrize("n,m", [(21, 10), (24, 23)])
    def test_passes_up_to_the_enumeration_bound(self, n, m):
        assert filter_cardinality_check(n, m).passed

    def test_bound(self):
        with pytest.raises(ValueError, match="bound"):
            filter_cardinality_check(lattice.ENUM_BOUND + 1, 5)

    @pytest.mark.parametrize("m", [0, 6])
    def test_rejects_m_outside_the_ground_set(self, m):
        with pytest.raises(ValueError, match="need 0 < m < n"):
            filter_cardinality_check(6, m)


class TestOneScan:
    def test_each_pair_is_scanned_once(self, monkeypatch):
        scanned = []

        def counting_range(*args):
            words = range(*args)
            scanned.append(len(words))
            return words

        monkeypatch.setattr(lattice, "range", counting_range, raising=False)
        lattice._intersection_histogram.cache_clear()
        enumerate_fractions(10, 4)
        filter_cardinality_check(10, 4)
        for l in range(11):
            for j in range(l + 1):
                count_exact_intersection(10, 4, j, l)
        assert sum(scanned) == 2 ** 10


class TestScan:
    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 15) for m in range(1, n)]
                             + [(17, 1), (18, 5), (20, 10), (20, 19), (17, 16), (18, 17), (18, 1), (19, 2)])
    def test_histogram_equals_per_word_count(self, n, m):
        assert lattice._intersection_histogram(n, m) == brute_intersection_histogram(n, m)

    def test_scan_holds_under_one_byte_per_word(self):
        # m = n - 1 marks every bit of the table and three high bits of each of 16 blocks
        lattice._intersection_histogram.cache_clear()
        tracemalloc.start()
        try:
            lattice._intersection_histogram(20, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_scan_at_the_bound_is_small_and_exact(self):
        # 256 blocks, whose high parts hold seven marked bits and one unmarked
        n, m = lattice.ENUM_BOUND, lattice.ENUM_BOUND - 1
        lattice._intersection_histogram.cache_clear()
        tracemalloc.start()
        try:
            cells = lattice._intersection_histogram(n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert cells == {(j, l): comb(m, j) * comb(n - m, l - j)
                         for l in range(n + 1) for j in range(max(0, l - (n - m)), min(l, m) + 1)}
