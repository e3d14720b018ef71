from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice import neighbors
from fareylattice.fracs import Frac
from fareylattice.neighbors import (
    next_in_farey,
    pred_in_boolean,
    prev_in_farey,
    solve_congruence_in_range,
    succ_in_boolean,
)
from fareylattice.sequences import BOOLEAN, FAREY, _point_sequence, farey, farey_boolean


class TestCongruenceSolver:
    def test_minus_one_residue(self):
        # successor step for 1/3 at order 6
        assert solve_congruence_in_range(1, 3, -1, 4, 6) == 5

    def test_shifted_window(self):
        assert solve_congruence_in_range(2, 3, -1, 4, 6) == 4

    def test_trivial_modulus(self):
        assert solve_congruence_in_range(7, 1, -1, 6, 6) == 6

    def test_solution_is_unique_in_window(self):
        x0 = solve_congruence_in_range(3, 7, 1, 10, 16)
        assert 10 <= x0 <= 16 and (3 * x0) % 7 == 1
        assert sum(1 for x in range(10, 17) if (3 * x) % 7 == 1) == 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="no solution"):
            solve_congruence_in_range(6, 9, 1, 1, 9)

    def test_rejects_wrong_window(self):
        with pytest.raises(ValueError, match="window"):
            solve_congruence_in_range(2, 5, 1, 1, 3)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError, match="modulus must be positive"):
            solve_congruence_in_range(1, 0, 1, 0, -1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="residue_sign"):
            solve_congruence_in_range(2, 5, 2, 1, 5)

    @given(st.integers(1, 400), st.integers(2, 200), st.integers(-50, 50),
           st.sampled_from([1, -1]))
    @settings(max_examples=200)
    def test_congruence_and_window_hold(self, h, modulus, lo, sign):
        from math import gcd

        from hypothesis import assume
        assume(gcd(h, modulus) == 1)
        x0 = solve_congruence_in_range(h, modulus, sign, lo, lo + modulus - 1)
        assert lo <= x0 < lo + modulus
        assert (h * x0 - sign) % modulus == 0


class TestFareyStepping:
    def test_successor_of_third(self):
        assert next_in_farey(Frac(1, 3), 6) == Frac(2, 5)

    def test_successor_of_zero(self):
        assert next_in_farey(Frac(0, 1), 6) == Frac(1, 6)

    def test_successor_reaches_one(self):
        assert next_in_farey(Frac(5, 6), 6) == Frac(1, 1)

    def test_predecessor_of_two_fifths(self):
        assert prev_in_farey(Frac(2, 5), 6) == Frac(1, 3)

    def test_predecessor_of_one(self):
        assert prev_in_farey(Frac(1, 1), 6) == Frac(5, 6)

    def test_predecessor_of_smallest(self):
        assert prev_in_farey(Frac(1, 6), 6) == Frac(0, 1)

    def test_no_successor_past_one(self):
        with pytest.raises(ValueError, match="no successor"):
            next_in_farey(Frac(1, 1), 6)

    def test_no_predecessor_before_zero(self):
        with pytest.raises(ValueError, match="no predecessor"):
            prev_in_farey(Frac(0, 1), 6)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="not a term"):
            next_in_farey(Frac(1, 7), 6)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 25])
    def test_walk_reproduces_sequence(self, m):
        seq = farey(m).terms
        f = Frac(0, 1)
        walked = [f]
        while f != Frac(1, 1):
            f = next_in_farey(f, m)
            walked.append(f)
        assert tuple(walked) == seq

    @given(st.integers(2, 60), st.data())
    @settings(max_examples=120)
    def test_prev_inverts_next(self, m, data):
        terms = farey(m).terms
        i = data.draw(st.integers(0, len(terms) - 2))
        f = terms[i]
        assert prev_in_farey(next_in_farey(f, m), m) == f


class TestBooleanStepping:
    def test_predecessor_of_half(self):
        assert pred_in_boolean(Frac(1, 2), 6) == Frac(5, 11)

    def test_predecessor_of_smallest(self):
        assert pred_in_boolean(Frac(1, 7), 6) == Frac(0, 1)

    def test_predecessor_right_of_half(self):
        assert pred_in_boolean(Frac(2, 3), 6) == Frac(5, 8)

    def test_successor_left_of_half(self):
        assert succ_in_boolean(Frac(2, 5), 6) == Frac(3, 7)

    def test_successor_of_zero(self):
        assert succ_in_boolean(Frac(0, 1), 6) == Frac(1, 7)

    def test_successor_of_half(self):
        assert succ_in_boolean(Frac(1, 2), 6) == Frac(6, 11)

    def test_endpoints_raise(self):
        with pytest.raises(ValueError, match="no successor"):
            succ_in_boolean(Frac(1, 1), 6)
        with pytest.raises(ValueError, match="no predecessor"):
            pred_in_boolean(Frac(0, 1), 6)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="not a term"):
            succ_in_boolean(Frac(1, 8), 6)

    @pytest.mark.parametrize("step", [succ_in_boolean, pred_in_boolean])
    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_rejects_nonpositive_m_by_its_own_name(self, step, m):
        # not by the order 2m of F(B(2m), m)
        with pytest.raises(ValueError, match=f"^order must be positive, got m={m}$"):
            step(Frac(1, 2), m)

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 20])
    def test_walk_reproduces_sequence(self, m):
        seq = farey_boolean(2 * m, m).terms
        f = Frac(0, 1)
        walked = [f]
        while f != Frac(1, 1):
            f = succ_in_boolean(f, m)
            walked.append(f)
        assert tuple(walked) == seq

    @pytest.mark.parametrize("m", [2, 3, 5, 11])
    def test_backward_walk(self, m):
        seq = farey_boolean(2 * m, m).terms
        f = Frac(1, 1)
        walked = [f]
        while f != Frac(0, 1):
            f = pred_in_boolean(f, m)
            walked.append(f)
        assert tuple(walked[::-1]) == seq

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=120)
    def test_pred_inverts_succ(self, m, data):
        terms = farey_boolean(2 * m, m).terms
        i = data.draw(st.integers(0, len(terms) - 2))
        f = terms[i]
        assert pred_in_boolean(succ_in_boolean(f, m), m) == f


class TestEndpointMessages:
    """Each public step refuses the step past its endpoint in the same
    words for both families, as the CLI prints them."""

    @pytest.mark.parametrize("step, m", [(next_in_farey, 1), (next_in_farey, 6),
                                         (succ_in_boolean, 1), (succ_in_boolean, 6)])
    def test_no_successor(self, step, m):
        with pytest.raises(ValueError, match="^1/1 has no successor$"):
            step(Frac(1, 1), m)

    @pytest.mark.parametrize("step, m", [(prev_in_farey, 1), (prev_in_farey, 6),
                                         (pred_in_boolean, 1), (pred_in_boolean, 6)])
    def test_no_predecessor(self, step, m):
        with pytest.raises(ValueError, match="^0/1 has no predecessor$"):
            step(Frac(0, 1), m)


_STEPS = {FAREY: (next_in_farey, prev_in_farey), BOOLEAN: (succ_in_boolean, pred_in_boolean)}
_ENDPOINT_MESSAGES = {"1/1 has no successor", "0/1 has no predecessor"}


def _check_step_refuses_exactly_non_members(family, m, f):
    """Both steps of the family refuse f, naming the sequence, exactly when
    f is not a term of it; from a term they reach a term or an endpoint."""
    d = _point_sequence(family, m)
    for step in _STEPS[family]:
        try:
            g = step(f, m)
        except ValueError as exc:
            if f in d:
                assert str(exc) in _ENDPOINT_MESSAGES
            else:
                assert str(exc) == f"{f} is not a term of {d}"
        else:
            assert f in d and g in d


class TestRequireTerm:
    """A step tests membership on the F_m image of f (q <= m), not on the
    family's box; the descriptor _point_sequence builds reads that from
    the _FAMILIES rows.  The two must agree on every fraction."""

    @pytest.mark.parametrize("family", [FAREY, BOOLEAN])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_hand_bounds_match_the_family_rows(self, family, m):
        for k in range(1, 2 * m + 3):
            for h in range(k + 1):
                if gcd(h, k) == 1:
                    _check_step_refuses_exactly_non_members(family, m, Frac(h, k))

    @given(st.sampled_from([FAREY, BOOLEAN]), st.integers(1, 10**12), st.data())
    @settings(max_examples=300)
    def test_large_orders(self, family, m, data):
        k = data.draw(st.integers(1, 3 * m))
        h = data.draw(st.integers(0, k))
        _check_step_refuses_exactly_non_members(family, m, Frac(h, k))


class TestStepGuard:
    """A solver that returns a window value other than the solution makes
    the step's division inexact, and every step then raises."""

    @pytest.fixture
    def wrong_solver(self, monkeypatch):
        # the step calls the private solver, so that is the one replaced
        solve = neighbors._solve

        def wrong(h, modulus, sign, lo):
            return lo + (solve(h, modulus, sign, lo) - lo + 1) % modulus

        monkeypatch.setattr(neighbors, "_solve", wrong)

    def test_farey_step(self, wrong_solver):
        # the solution of 2*x0 = -1 (mod 5) in [2, 6] is 2; the fake returns 3
        with pytest.raises(ArithmeticError, match="inexact division stepping from 2/5 with m=6"):
            next_in_farey(Frac(2, 5), 6)
        with pytest.raises(ArithmeticError, match="inexact division"):
            prev_in_farey(Frac(2, 5), 6)

    # a boolean step names the F_m image it stepped: 2/5 is 2/3 on the left
    # half, and 2/3 is 1/2 through the complement on the right half
    def test_left_half_boolean_step(self, wrong_solver):
        for step in (succ_in_boolean, pred_in_boolean):
            with pytest.raises(ArithmeticError,
                               match="^inexact division stepping from 2/3 with m=6$"):
                step(Frac(2, 5), 6)

    def test_right_half_boolean_step(self, wrong_solver):
        for step in (succ_in_boolean, pred_in_boolean):
            with pytest.raises(ArithmeticError,
                               match="^inexact division stepping from 1/2 with m=6$"):
                step(Frac(2, 3), 6)


class TestDegenerateOrder:
    """m = 1 steps through (0/1, 1/2, 1/1) by the general formulas: every
    window is [1, 1], so every congruence has the solution 1."""

    def test_walk(self):
        assert succ_in_boolean(Frac(0, 1), 1) == Frac(1, 2)
        assert succ_in_boolean(Frac(1, 2), 1) == Frac(1, 1)
        assert pred_in_boolean(Frac(1, 1), 1) == Frac(1, 2)
        assert pred_in_boolean(Frac(1, 2), 1) == Frac(0, 1)

    def test_non_member(self):
        with pytest.raises(ValueError, match="not a term"):
            succ_in_boolean(Frac(1, 3), 1)

    def test_endpoints(self):
        with pytest.raises(ValueError):
            succ_in_boolean(Frac(1, 1), 1)
        with pytest.raises(ValueError):
            pred_in_boolean(Frac(0, 1), 1)
