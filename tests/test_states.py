"""State existence, uniqueness values, certificates, and the constructive routes."""

from fractions import Fraction

import pytest

from conftest import algebra_from_sums
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.errors import HypothesisViolated, NotCentral
from effalg.states import (
    ExstateOutcome,
    InfeasibilityCertificate,
    StateVector,
    find_state,
    find_subadditive_state,
    fm_feasible,
    state_from_central_finite,
    state_space_dimension,
    state_system,
    state_via_exstate_procedure,
    verify_state,
)

F = Fraction
HALF = F(1, 2)


class TestFindState:
    def test_c3_unique_half(self, c3):
        got = find_state(c3)
        assert isinstance(got, StateVector)
        assert got.values == (F(0), HALF, F(1))

    def test_b2_feasible_and_deterministic(self, b2):
        got = find_state(b2)
        assert isinstance(got, StateVector)
        assert got.values == find_state(b2).values
        assert verify_state(b2, got) == []

    def test_whole_corpus_has_states(self, corpus):
        for E in corpus:
            assert isinstance(find_state(E), StateVector)

    def test_hexagon_state_is_forced(self, hex6):
        got = find_state(hex6)
        assert isinstance(got, StateVector)
        assert got.values == (F(0), F(1, 3), F(1, 3), F(2, 3), F(2, 3), F(1))

    def test_contradictory_table_yields_verified_certificate(self):
        # not an effect algebra: 1+1=1 forces w(1)+w(1)=w(1) against w(1)=1
        E = algebra_from_sums(3, 0, 2, [(1, 1, 2), (2, 2, 2)])
        got = find_state(E)
        assert isinstance(got, InfeasibilityCertificate)
        assert got.verify()
        assert not fm_feasible(got.system)


class TestFindSubadditive:
    def test_e5_unique_half_state(self, e5):
        got = find_subadditive_state(e5)
        assert isinstance(got, StateVector)
        assert got.values == (F(0), HALF, HALF, HALF, F(1))

    def test_b2_any_state_works(self, b2):
        got = find_subadditive_state(b2)
        assert isinstance(got, StateVector)
        assert verify_state(b2, got, require_subadditive=True) == []

    def test_c4_third_state(self, c4):
        got = find_subadditive_state(c4)
        assert got.values == (F(0), F(1, 3), F(2, 3), F(1))

    def test_hs2_subadditive(self, hs2):
        got = find_subadditive_state(hs2)
        assert isinstance(got, StateVector)
        # both coatom pairs must sum to 1 and joins force halves
        assert got.values[1] + got.values[2] == 1
        assert got.values[1] >= HALF and got.values[2] >= HALF


class TestDimension:
    def test_values(self, b2, c3, e5, hs2):
        assert state_space_dimension(c3) == 0
        assert state_space_dimension(b2) == 1
        assert state_space_dimension(e5) == 1
        assert state_space_dimension(hs2) == 2

    def test_empty_polytope(self):
        E = algebra_from_sums(3, 0, 2, [(1, 1, 2), (2, 2, 2)])
        assert state_space_dimension(E) == -1

    def test_one_lp_per_element(self, monkeypatch):
        import effalg.states

        calls = []
        solve = effalg.states.solve_standard

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(effalg.states, "solve_standard", counted)
        E = horizontal_sum([boolean_algebra(2), chain(4), chain(5)])
        assert state_space_dimension(E) == 1
        assert 0 < len(calls) <= E.size

    def test_stateless_fixture_dimension(self):
        from pathlib import Path

        from effalg.algfile import load_algebra
        fixture = load_algebra(
            Path(__file__).parent / "fixtures" / "stateless9.alg")
        assert state_space_dimension(fixture) == -1


class TestVerifyState:
    def test_clean_report(self, e5):
        w = StateVector(e5, (F(0), HALF, HALF, HALF, F(1)))
        assert verify_state(e5, w, require_subadditive=True) == []

    def test_subadditivity_violation_found(self, e5):
        w = StateVector(e5, (F(0), F(1), F(0), HALF, F(1)))
        report = verify_state(e5, w, require_subadditive=True)
        kinds = {v.kind for v in report}
        assert "subadditive" in kinds

    def test_additivity_violation(self, b2):
        w = StateVector(b2, (F(0), F(1, 3), F(1, 3), F(1)))
        report = verify_state(b2, w)
        assert any(v.kind == "additivity" and v.witness == (1, 2, 3) for v in report)

    def test_never_raises_on_garbage(self, b2):
        w = StateVector(b2, (F(2), F(-1), F(5), F(0)))
        report = verify_state(b2, w, require_subadditive=True)
        assert report  # plenty wrong, reported not raised


class TestCentralLift:
    def test_e5_with_top_reduces_to_solver(self, e5):
        got = state_from_central_finite(e5, 4)
        assert got.values == (F(0), HALF, HALF, HALF, F(1))

    def test_product_lift_depends_on_first_coordinate(self):
        E = product([boolean_algebra(2), chain(2)])
        c = 9  # the pair (1, 0)
        got = state_from_central_finite(E, c)
        # elements x and y with equal first coordinate get equal weight
        for x in range(E.size):
            for y in range(E.size):
                if x // 3 == y // 3:
                    assert got.values[x] == got.values[y]

    def test_non_central_rejected(self, e5):
        with pytest.raises(NotCentral):
            state_from_central_finite(e5, 3)

    def test_zero_rejected(self, e5):
        with pytest.raises(HypothesisViolated):
            state_from_central_finite(e5, 0)


class TestExstateProcedure:
    def test_e5_trace_and_state(self, e5):
        state, trace = state_via_exstate_procedure(e5)
        assert state.values == (F(0), HALF, HALF, HALF, F(1))
        assert trace.atom == 3 and trace.atom_order == 2
        assert trace.branch == "dichotomy"
        assert trace.dichotomy_checks == ((1, 4, 4), (2, 4, 4))
        assert trace.central == 4

    def test_c4_central_atom_branch(self, c4):
        state, trace = state_via_exstate_procedure(c4)
        assert state.values == (F(0), F(1, 3), F(2, 3), F(1))
        assert trace.branch == "central-atom"
        assert trace.atom == 1 and trace.atom_order == 3
        assert trace.central == 3

    def test_boolean_rejected(self, b2):
        with pytest.raises(HypothesisViolated) as info:
            state_via_exstate_procedure(b2)
        assert "S(E)" in str(info.value)

    def test_hs2_rejected_all_sharp(self, hs2):
        with pytest.raises(HypothesisViolated):
            state_via_exstate_procedure(hs2)

    def test_output_verifies_subadditive(self, e5, c4):
        for E in (e5, c4):
            state, _ = state_via_exstate_procedure(E)
            assert verify_state(E, state, require_subadditive=True) == []


class TestOracleAgreement:
    def test_fm_agrees_on_corpus(self, corpus):
        for E in corpus:
            sys = state_system(E)
            assert fm_feasible(sys) == isinstance(find_state(E), StateVector)

    def test_fm_agrees_subadditive(self, corpus):
        from effalg.core import derive_order
        for E in corpus:
            if not derive_order(E).is_lattice:
                continue
            sys = state_system(E, subadditive=True)
            assert fm_feasible(sys) == isinstance(
                find_subadditive_state(E), StateVector)
