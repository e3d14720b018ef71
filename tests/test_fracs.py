import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice.fracs import HALF, ONE, ZERO, Frac, UnimodularMap


class TestFracConstruction:
    def test_reduces(self):
        f = Frac(2, 4)
        assert (f.h, f.k) == (1, 2)

    def test_zero_numerator_canonical(self):
        assert (Frac(0, 7).h, Frac(0, 7).k) == (0, 1)

    def test_already_reduced(self):
        assert (Frac(3, 8).h, Frac(3, 8).k) == (3, 8)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            Frac(1, 0)

    def test_above_one(self):
        with pytest.raises(ValueError, match="outside"):
            Frac(3, 2)

    def test_negative(self):
        with pytest.raises(ValueError):
            Frac(-1, 2)
        with pytest.raises(ValueError):
            Frac(1, -2)

    def test_immutable(self):
        f = Frac(1, 2)
        with pytest.raises(AttributeError):
            f.h = 3

    @given(st.integers(0, 10_000), st.integers(1, 10_000))
    def test_always_reduced_in_range(self, h, k):
        if h > k:
            h, k = k, h
        f = Frac(h, k)
        assert 0 <= f.h <= f.k
        assert Fraction(f.h, f.k) == Fraction(h, k)


class TestFracOrdering:
    def test_less(self):
        assert Frac(1, 3) < Frac(2, 5)

    def test_equal_reduced_forms(self):
        assert Frac(1, 2) == Frac(2, 4)

    def test_adjacent_pair(self):
        assert Frac(4, 9) < Frac(5, 11)

    @given(st.tuples(st.integers(0, 500), st.integers(1, 500)),
           st.tuples(st.integers(0, 500), st.integers(1, 500)))
    @settings(max_examples=200)
    def test_matches_exact_rationals(self, a, b):
        fa = Frac(min(a[0], a[1]), max(a[0], a[1]) if a[0] else a[1])
        fb = Frac(min(b[0], b[1]), max(b[0], b[1]) if b[0] else b[1])
        qa, qb = Fraction(fa.h, fa.k), Fraction(fb.h, fb.k)
        assert (fa < fb) == (qa < qb)
        assert (fa == fb) == (qa == qb)
        assert (fa >= fb) == (qa >= qb)

    def test_hash_consistent_with_eq(self):
        assert hash(Frac(2, 4)) == hash(Frac(1, 2))

    @pytest.mark.parametrize("other", [0.5, None, "1/2"])
    def test_ordering_against_other_types_is_type_error(self, other):
        f = Frac(1, 2)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(f, other)
        assert f != other


class TestParseRender:
    @pytest.mark.parametrize("text", ["0/1", "1/2", "5/11", "1/1"])
    def test_round_trip(self, text):
        assert str(Frac.parse(text)) == text

    def test_parse_reduces(self):
        assert str(Frac.parse("4/8")) == "1/2"

    def test_repr(self):
        assert repr(Frac(2, 4)) == "Frac(1, 2)"

    @pytest.mark.parametrize("bad", ["", "1", "1/2/3", "a/b", "1.5/2",
                                     "1_0/3_0", "\u0663/\u0664", "+1/2", "1 /2", "-1/2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError, match=r"^expected 'h/k', got "):
            Frac.parse(bad)


COMPLEMENT = UnimodularMap(-1, 1, 0, 1)


class TestUnimodularMap:
    def test_complement_image(self):
        assert COMPLEMENT.apply(Frac(1, 3)) == Frac(2, 3)

    def test_identity(self):
        assert UnimodularMap(1, 0, 0, 1).apply(Frac(5, 8)) == Frac(5, 8)

    def test_shear(self):
        assert UnimodularMap(1, 0, 1, 1).apply(Frac(1, 3)) == Frac(1, 4)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="determinant"):
            UnimodularMap(-1, 1, 0, 2)

    def test_unchecked_construction_allowed(self):
        assert UnimodularMap(-1, 1, 0, 2, check=False).det == -2

    @pytest.mark.parametrize("entries", [(1, 1, 1, 1), (-1, 1, 0, 2)])
    def test_unchecked_singular_matrix_has_no_inverse(self, entries):
        with pytest.raises(ValueError, match="has no integer inverse"):
            UnimodularMap(*entries, check=False).inverse()

    def test_equality_hash_and_repr(self):
        assert COMPLEMENT.__eq__(object()) is NotImplemented
        assert COMPLEMENT != object()
        assert len({COMPLEMENT, UnimodularMap(-1, 1, 0, 1)}) == 1
        assert hash(COMPLEMENT) == hash(UnimodularMap(-1, 1, 0, 1))
        assert repr(COMPLEMENT) == "UnimodularMap(-1, 1, 0, 1)"

    def test_bad_matrix_fails_loudly_on_apply(self):
        bad = UnimodularMap(-1, 1, 0, 2, check=False)
        with pytest.raises(ArithmeticError, match="not reduced"):
            bad.apply(Frac(1, 3))

    def test_image_outside_unit_interval(self):
        # h/(k-h) sends 2/3 to 2/1, which is out of range
        with pytest.raises(ValueError, match="outside"):
            UnimodularMap(1, 0, -1, 1).apply(Frac(2, 3))

    def test_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            UnimodularMap(1, 0, -1, 1).apply(ONE)

    def test_inverse_composes_to_identity(self):
        for mat in [COMPLEMENT, UnimodularMap(-2, 1, -3, 2),
                    UnimodularMap(1, 0, 3, -1), UnimodularMap(0, 1, 1, 1)]:
            assert (mat.inverse() @ mat).is_identity()

    @given(st.integers(0, 60), st.integers(1, 60))
    @settings(max_examples=150)
    def test_inverse_round_trip_on_fractions(self, h, k):
        if h > k:
            h, k = k, h
        f = Frac(h, k)
        mat = UnimodularMap(1, 0, 1, 1)  # maps [0,1] into [0,1/2]
        assert mat.inverse().apply(mat.apply(f)) == f

    def test_involution_detection(self):
        assert COMPLEMENT.is_involution()
        assert UnimodularMap(-2, 1, -3, 2).is_involution()
        assert not UnimodularMap(1, 0, 1, 1).is_involution()

    def test_constants(self):
        assert ZERO < HALF < ONE
