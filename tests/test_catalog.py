from importlib import import_module

import pytest

from fareylattice.catalog import (
    COMPLEMENT,
    FAREY_REVERSAL,
    FAREY_TO_LEFT,
    FAREY_TO_RIGHT,
    LEFT_FLIP,
    LEFT_TO_FAREY,
    LEFT_TO_RIGHT,
    MAP_NAMES,
    MATRICES,
    PRESERVING,
    REVERSING,
    RIGHT_FLIP,
    RIGHT_TO_FAREY,
    RIGHT_TO_LEFT,
    SYM_COMPLEMENT,
    Counterexample,
    MapDescriptor,
    catalog,
    matrix_coherence_checks,
    quarter_indices,
    verify_catalog,
    verify_map,
)
from fareylattice.fracs import Frac, UnimodularMap
from fareylattice.sequences import (
    BOOLEAN,
    FAREY,
    LEFT_HALF,
    MAX_ORDER,
    RIGHT_HALF,
    SeqDescriptor,
    farey,
    farey_boolean,
    right_half,
)

# the module itself; the package's `catalog` attribute is the function
catalog_module = import_module("fareylattice.catalog")


class TestCatalogContents:
    def test_eleven_names(self):
        assert len(MAP_NAMES) == 11

    def test_symmetric_case_has_all_maps(self):
        names = [d.name for d in catalog(12, 6)]
        assert names == list(MAP_NAMES)

    def test_asymmetric_case_has_complement_only(self):
        assert [d.name for d in catalog(12, 5)] == [COMPLEMENT]

    def test_m_equals_one_has_all_maps(self):
        # every endpoint exists at (2, 1), so the four farey bridges apply too
        maps = catalog(2, 1)
        assert [d.name for d in maps] == list(MAP_NAMES)
        bridge = maps[MAP_NAMES.index(LEFT_TO_FAREY)]
        assert bridge.domain == SeqDescriptor(LEFT_HALF, 2, 1)
        assert bridge.codomain == SeqDescriptor(FAREY, 1)
        with pytest.raises(ValueError):
            catalog(0, 0)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_maps_apply_where_their_endpoints_exist(self, n):
        for m in range(1, n):
            names = [d.name for d in catalog(n, m)]
            assert names == (list(MAP_NAMES) if n == 2 * m else [COMPLEMENT]), (n, m)

    def test_complement_endpoints(self):
        d = catalog(12, 5)[0]
        assert d.domain == SeqDescriptor(BOOLEAN, 12, 5)
        assert d.codomain == SeqDescriptor(BOOLEAN, 12, 7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalog(6, 6)

    @pytest.mark.parametrize("n, m", [(12, 0), (12, 12), (5, 7), (0, 0)])
    def test_refuses_as_the_descriptor_does(self, n, m):
        # catalog has no guard of its own: its boolean(n, m) slot refuses the pair
        with pytest.raises(ValueError) as want:
            SeqDescriptor(BOOLEAN, n, m)
        with pytest.raises(ValueError) as got:
            catalog(n, m)
        assert str(got.value) == str(want.value)

    def test_all_matrices_unimodular(self):
        for name in MAP_NAMES:
            assert abs(UnimodularMap(*MATRICES[name]).det) == 1


class TestMapAction:
    def test_left_flip_fixes_one_third(self):
        mat = UnimodularMap(*MATRICES[LEFT_FLIP])
        assert mat.apply(Frac(1, 3)) == Frac(1, 3)

    def test_left_to_right_preserves_position(self):
        # 2/5 sits at index 8 of the left half for m=6; its image 3/4 must
        # sit at index 8 of the right half (global index 20)
        mat = UnimodularMap(*MATRICES[LEFT_TO_RIGHT])
        assert mat.apply(Frac(2, 5)) == Frac(3, 4)
        seq = farey_boolean(12, 6)
        assert seq.index_of(Frac(3, 4)) == 20

    def test_right_to_farey_reverses_position(self):
        mat = UnimodularMap(*MATRICES[RIGHT_TO_FAREY])
        assert mat.apply(Frac(4, 7)) == Frac(3, 4)
        right = right_half(12, 6)
        assert right.index_of(Frac(4, 7)) == 3
        assert farey(6).index_of(Frac(3, 4)) == len(farey(6)) - 1 - 3


class TestVerifyMap:
    @pytest.mark.parametrize("m", range(2, 16))
    def test_symmetric_catalog_passes(self, m):
        for report in verify_catalog(2 * m, m):
            assert report.passed, str(report)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complement_passes_everywhere(self, n):
        for m in range(1, n):
            report = verify_map(catalog(n, m)[0])
            assert report.passed, str(report)

    def test_m_equals_one(self):
        for report in verify_catalog(2, 1):
            assert report.passed, str(report)

    def test_corrupted_matrix_fails_determinant(self):
        d = catalog(12, 6)[0]
        bad = MapDescriptor(d.name, UnimodularMap(-1, 1, 0, 2, check=False),
                            d.domain, d.codomain, d.direction, d.involution)
        report = verify_map(bad)
        assert not report.passed
        assert ("determinant", False) in report.checks
        assert report.counterexample is not None

    def test_wrong_codomain_fails_image_set(self):
        d = catalog(12, 5)[0]
        bad = MapDescriptor(d.name, d.matrix, d.domain,
                            SeqDescriptor(BOOLEAN, 12, 5), d.direction)
        report = verify_map(bad)
        assert not report.passed
        assert ("image-set", False) in report.checks
        assert report.counterexample is not None

    def test_wrong_direction_fails(self):
        d = catalog(12, 6)[0]
        bad = MapDescriptor(d.name, d.matrix, d.domain, d.codomain, PRESERVING)
        report = verify_map(bad)
        assert ("direction", False) in report.checks
        assert "expected" in report.counterexample.reason

    def test_report_parameters_use_subsequence_context(self):
        reports = {r.name: r for r in verify_catalog(12, 6)}
        assert (reports[FAREY_REVERSAL].n, reports[FAREY_REVERSAL].m) == (12, 6)
        assert (reports[LEFT_TO_FAREY].n, reports[LEFT_TO_FAREY].m) == (12, 6)

    def test_missing_codomain_term_is_an_image_set_failure(self):
        # every image of farey(5) is a left-half term and they ascend, but
        # 1/7 has no preimage: an image-set failure, not a direction one
        bad = MapDescriptor(FAREY_TO_LEFT, UnimodularMap(*MATRICES[FAREY_TO_LEFT]),
                            SeqDescriptor(FAREY, 5), SeqDescriptor(LEFT_HALF, 12, 6),
                            PRESERVING)
        report = verify_map(bad)
        assert report.checks == [("determinant", True), ("image-set", False)]
        assert report.counterexample == Counterexample(
            None, Frac(1, 7), "codomain term has no preimage")

    def test_invalid_image_reports_the_apply_error(self):
        bad = MapDescriptor(RIGHT_TO_FAREY, UnimodularMap(*MATRICES[RIGHT_TO_FAREY]),
                            SeqDescriptor(LEFT_HALF, 12, 6), SeqDescriptor(FAREY, 6),
                            REVERSING)
        report = verify_map(bad)
        assert report.checks == [("determinant", True), ("image-set", False)]
        assert report.counterexample == Counterexample(
            Frac(0, 1), None, "0/1 maps to nonpositive denominator under [[-1,1],[1,0]]")

    def test_order_above_guard_raises(self):
        with pytest.raises(ValueError, match=f"exceeds the materialization guard {MAX_ORDER}"):
            verify_map(catalog(MAX_ORDER + 1, 1)[0])


class TestSharedEndpoints:
    """verify_catalog generates each endpoint once per call and shares it;
    its reports must be the ones verify_map gives map by map."""

    @pytest.mark.parametrize("n, m, endpoints", [
        (12, 6, [SeqDescriptor(BOOLEAN, 12, 6), SeqDescriptor(LEFT_HALF, 12, 6),
                 SeqDescriptor(RIGHT_HALF, 12, 6), SeqDescriptor(FAREY, 6)]),
        (2, 1, [SeqDescriptor(BOOLEAN, 2, 1), SeqDescriptor(LEFT_HALF, 2, 1),
                SeqDescriptor(RIGHT_HALF, 2, 1), SeqDescriptor(FAREY, 1)]),
        (12, 5, [SeqDescriptor(BOOLEAN, 12, 5), SeqDescriptor(BOOLEAN, 12, 7)]),
    ])
    def test_each_endpoint_generated_once(self, monkeypatch, n, m, endpoints):
        walked = []
        pairs = catalog_module.iter_pairs
        monkeypatch.setattr(catalog_module, "iter_pairs",
                            lambda d: walked.append(d) or pairs(d))
        assert all(r.passed for r in verify_catalog(n, m))
        assert sorted(walked) == sorted(endpoints)

    @pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (12, 6), (30, 15), (12, 5), (9, 1)])
    def test_reports_match_verify_map(self, n, m):
        assert verify_catalog(n, m) == [verify_map(d) for d in catalog(n, m)]


class TestRecords:
    def test_map_descriptor_is_read_only(self):
        d = catalog(12, 6)[0]
        with pytest.raises(AttributeError):
            d.direction = PRESERVING
        assert d.direction == REVERSING

    def test_counterexample_is_read_only(self):
        c = Counterexample(Frac(1, 3), None, "reason")
        with pytest.raises(AttributeError):
            c.reason = "other"
        assert c.reason == "reason"

    def test_verification_report_is_read_only(self):
        report = verify_map(catalog(12, 6)[0])
        with pytest.raises(AttributeError):
            report.counterexample = Counterexample(None, None, "patched")
        assert report.counterexample is None

    def test_str_of_passing_and_failing_report(self):
        assert str(verify_map(catalog(12, 6)[0])) == "complement n=12 m=6: pass"
        bad = MapDescriptor(FAREY_TO_LEFT, UnimodularMap(*MATRICES[FAREY_TO_LEFT]),
                            SeqDescriptor(FAREY, 5), SeqDescriptor(LEFT_HALF, 12, 6),
                            PRESERVING)
        assert str(verify_map(bad)) == "farey-to-left n=12 m=6: fail failed=image-set " \
                                       "(input=- image=1/7: codomain term has no preimage)"

    @pytest.mark.parametrize("d", catalog(12, 6))
    def test_checks_are_a_list(self, d):
        assert type(verify_map(d).checks) is list

    @pytest.mark.parametrize("d, failed", [
        # maps every term to the right one but is flagged as an involution
        (MapDescriptor(LEFT_TO_RIGHT, UnimodularMap(*MATRICES[LEFT_TO_RIGHT]),
                       SeqDescriptor(LEFT_HALF, 12, 6), SeqDescriptor(RIGHT_HALF, 12, 6),
                       PRESERVING, involution=True), ("involution", False)),
        # the identity, named as undone by left-flip
        (MapDescriptor(LEFT_FLIP, UnimodularMap(1, 0, 0, 1), SeqDescriptor(LEFT_HALF, 12, 6),
                       SeqDescriptor(LEFT_HALF, 12, 6), PRESERVING, inverse_of=LEFT_FLIP),
         ("inverse-pair", False)),
    ])
    def test_failed_matrix_identity_has_counterexample(self, d, failed):
        report = verify_map(d)
        assert report.checks == [("determinant", True), ("image-set", True),
                                 ("direction", True), failed]
        assert report.counterexample == Counterexample(None, None, "matrix identity check failed")


class TestMatrixStructure:
    def test_involutions_square_to_identity(self):
        for name in (SYM_COMPLEMENT, LEFT_FLIP, RIGHT_FLIP, FAREY_REVERSAL, COMPLEMENT):
            assert UnimodularMap(*MATRICES[name]).is_involution()

    @pytest.mark.parametrize("a,b", [
        (LEFT_TO_RIGHT, RIGHT_TO_LEFT),
        (LEFT_TO_FAREY, FAREY_TO_LEFT),
        (RIGHT_TO_FAREY, FAREY_TO_RIGHT),
    ])
    def test_bridge_pairs_are_mutual_inverses(self, a, b):
        prod = UnimodularMap(*MATRICES[a]) @ UnimodularMap(*MATRICES[b])
        assert prod.is_identity() or (-prod).is_identity()

    def test_coherence_chains(self):
        for label, ok in matrix_coherence_checks():
            assert ok, label

    def test_inverse_round_trips_over_codomain(self):
        from fareylattice.sequences import materialize
        for d in catalog(12, 6):
            inv = d.matrix.inverse()
            assert all(d.matrix.apply(inv.apply(f)) == f
                       for f in materialize(d.codomain))


class TestQuarterIndices:
    def test_displayed_positions(self):
        assert quarter_indices(6) == (6, 12, 18, 24)

    def test_m_2(self):
        assert quarter_indices(2) == (1, 2, 3, 4)

    def test_m_3(self):
        assert quarter_indices(3) == (2, 4, 6, 8)

    @pytest.mark.parametrize("m", range(2, 26))
    def test_ratio_and_divisibility(self, m):
        t13, t12, t23, t11 = quarter_indices(m)
        assert (t12, t23, t11) == (2 * t13, 3 * t13, 4 * t13)
        assert t11 == len(farey_boolean(2 * m, m)) - 1
        assert t11 % 4 == 0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            quarter_indices(1)

    def test_ratio_is_checked(self, monkeypatch):
        rank = catalog_module.farey_boolean_rank
        # one more than the true index of 1/1 breaks the ratio
        monkeypatch.setattr(catalog_module, "farey_boolean_rank",
                            lambda h, k, m: rank(h, k, m) + (h == k))
        with pytest.raises(ArithmeticError,
                           match=r"quarter indices \[6, 12, 18, 25\] for m=6 are not in ratio"):
            quarter_indices(6)
