"""State existence, uniqueness values, certificates, and the constructive routes."""

import functools
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import effalg.states
from conftest import algebra_from_sums, make_b2, make_c4, make_e5, make_hex6, make_hs2
from effalg.algfile import load_algebra
from effalg.construct import (boolean_algebra, central_decomposition, chain,
                              horizontal_sum, interval, product)
from effalg.core import derive_order
from effalg.enumeration import EnumerationConfig, enumerate_algebras
from effalg.errors import (HypothesisViolated, InternalCheckFailed, NotCentral,
                           NotLattice, StructuralError)
from effalg.linsolve import matrix_rank, row_basis, solve_standard
from effalg.states import (
    InfeasibilityCertificate,
    StateVector,
    _parametrize,
    _to_standard,
    find_state,
    find_subadditive_state,
    fm_feasible,
    state_from_central_finite,
    state_space_dimension,
    state_system,
    state_via_exstate_procedure,
    verify_state,
)
from effalg.structure import center, compatibility_center, compatible
import oracle_full_tableau as full
from oracle_fraction_certificate import fraction_multipliers
from oracle_fraction_check import certificate_holds, state_violations
from oracle_state_system import dict_state_system

F = Fraction
HALF = F(1, 2)
STATELESS9 = Path(__file__).parent / "fixtures" / "stateless9.alg"


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
        # the smallest stateless algebra: its additivity rows contradict w(1)=1
        got = find_state(load_algebra(STATELESS9))
        assert isinstance(got, InfeasibilityCertificate)
        assert got.verify()
        assert not fm_feasible(got.system)

    def test_certificate_covers_the_unreduced_system(self):
        # the presolve drops dependent rows; the certificate still names them
        E = load_algebra(STATELESS9)
        sys = state_system(E)
        kept = row_basis([coeffs + ((E.size, rhs),) for coeffs, rhs in sys.eq_rows])
        dropped = [i for i in range(len(sys.eq_rows)) if i not in kept]
        assert dropped
        got = find_state(E)
        assert isinstance(got, InfeasibilityCertificate)
        assert got.system == sys and got.verify()
        assert all(got.eq_mult[i] == 0 for i in dropped)
        # the LP has no bound rows w_i <= 1, so none carries a multiplier
        assert got.bound_mult == (F(0),) * E.size

    def test_forty_element_product(self):
        E = product([boolean_algebra(3), chain(4)])
        got = find_state(E)
        assert isinstance(got, StateVector)
        assert verify_state(E, got) == []

    # a zero multiplier added or dropped leaves every sum as it was, so
    # only the counts tell these certificates from the solver's
    @pytest.mark.parametrize("field, change", [
        ("eq_mult", lambda m: m + (F(0),)),
        ("bound_mult", lambda m: m + (F(0),)),
        ("ineq_mult", lambda m: m + (F(0),)),
        ("bound_mult", lambda m: m[:-1]),
    ], ids=["extra-eq", "extra-bound", "extra-ineq", "missing-bound"])
    def test_certificate_needs_one_multiplier_per_row(self, field, change):
        cert = find_state(load_algebra(STATELESS9))
        assert isinstance(cert, InfeasibilityCertificate) and cert.verify()
        assert cert.bound_mult[-1] == 0
        assert not replace(cert, **{field: change(getattr(cert, field))}).verify()


class TestPresolve:
    @pytest.mark.parametrize("E, subadditive, consistent", [
        (boolean_algebra(5), False, True),
        (boolean_algebra(4), True, True),
        (horizontal_sum([chain(2), chain(2), chain(2)]), True, True),
        (load_algebra(STATELESS9), False, False),
    ], ids=["boolean5", "boolean4-subadditive", "hs-subadditive", "stateless9"])
    def test_tableau_is_rank_sized(self, E, subadditive, consistent, monkeypatch):
        sys = state_system(E, subadditive=subadditive)
        rank = matrix_rank([coeffs for coeffs, _ in sys.eq_rows])
        assert consistent == (rank == matrix_rank(
            [coeffs + ((E.size, rhs),) for coeffs, rhs in sys.eq_rows]))
        red, k, cons = _parametrize(sys)
        assert red.kept == row_basis(
            [coeffs + ((E.size, rhs),) for coeffs, rhs in sys.eq_rows])
        assert len(red.kept) == rank + (0 if consistent else 1)
        assert k == E.size - rank
        # a reduced row has its pivot, at most k free columns and the rhs
        assert all(len(row) <= k + 2 for row in red.rows)
        if not consistent:
            # the elimination alone decides it: no LP is solved
            monkeypatch.setattr(effalg.states, "solve_standard", None)
            assert isinstance(find_state(E), InfeasibilityCertificate)
            return
        A, b, cols = _to_standard(cons, k)
        # the alternative: one row per free parameter and one for the
        # constant, one column per w_i >= 0 and per inequality row
        assert len(A) == len(b) == k + 1
        assert cols == E.size + len(sys.ineq_rows)
        assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in A)

    @pytest.mark.parametrize("solve", [
        find_state, find_subadditive_state, state_space_dimension])
    def test_table_without_complement_rows_is_rejected(self, solve):
        # an invalid table: the middle element sums with nothing but zero,
        # so no row w(x) + w(x') = w(1) bounds w(x) by 1
        with pytest.raises(StructuralError, match="orthosupplements"):
            solve(algebra_from_sums(3, 0, 2, []))


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

    def test_boolean5_within_five_seconds(self):
        # 435 join rows: about 0.2 s with sparse pivots, 10 s with dense ones
        E = boolean_algebra(5)
        t0 = time.perf_counter()
        got = find_subadditive_state(E)
        elapsed = time.perf_counter() - t0
        assert isinstance(got, StateVector)
        assert verify_state(E, got, require_subadditive=True) == []
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    def test_120_element_dimension_within_two_seconds(self):
        # 1,100 additivity rows: about 0.3 s with sparse integer rows, 3.7 s
        # with a dense Fraction tableau and a dense row basis
        E = product([boolean_algebra(3), chain(4), chain(2)])
        t0 = time.perf_counter()
        dim = state_space_dimension(E)
        elapsed = time.perf_counter() - t0
        assert dim == 4
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_120_element_hypothesis_class_within_eight_seconds(self):
        # MO3 with unsharp atoms times two chains: modular, atomic, not
        # orthomodular; 6,903 join rows.  About 2.2-3.5 s with sparse rows
        # from state_system on, 4.7-7.3 s and 413 MiB with dense ones
        E = product([horizontal_sum([chain(2), chain(2), chain(2)]),
                     chain(3), chain(5)])
        t0 = time.perf_counter()
        got = find_subadditive_state(E)
        elapsed = time.perf_counter() - t0
        assert isinstance(got, StateVector)
        assert verify_state(E, got, require_subadditive=True) == []
        assert elapsed < 8.0, f"{elapsed:.2f} s"

    def test_120_element_product_within_one_second(self):
        # a product of chains is an MV-algebra, so none of its 6,903 join
        # rows reaches the tableau: about 0.2 s, 2.2 s with every join row
        E = product([boolean_algebra(3), chain(4), chain(2)])
        t0 = time.perf_counter()
        got = find_subadditive_state(E)
        elapsed = time.perf_counter() - t0
        assert isinstance(got, StateVector)
        assert verify_state(E, got, require_subadditive=True) == []
        assert elapsed < 1.0, f"{elapsed:.2f} s"


@functools.cache
def lattices():
    """Every lattice class of sizes 2-8, then three constructed lattices."""
    out = [E for n in range(2, 9)
           for E in enumerate_algebras(EnumerationConfig(size=n))
           if derive_order(E).is_lattice]
    return out + [boolean_algebra(4), product([boolean_algebra(2), chain(3)]),
                  horizontal_sum([chain(2), chain(2), chain(2)])]


def middle_pairs(E):
    """The pairs of state_system's join rows, in row order."""
    middles = [x for x in range(E.size) if x not in (E.zero, E.one)]
    return [(x, y) for i, x in enumerate(middles) for y in middles[i + 1:]]


class TestImpliedJoinRows:
    """The subadditive system leaves out the join rows of compatible pairs;
    dict_state_system keeps every join row."""

    def test_reduced_lp_decides_as_the_full_system(self):
        # Fourier-Motzkin on the full system is fast up to size 6 (a size-7
        # class takes seconds), the full-system simplex decides the rest
        left_out_of_certificates = 0
        for E in lattices():
            every = dict_state_system(E, subadditive=True)
            if E.size <= 6:
                feasible = fm_feasible(every)
            else:
                feasible = isinstance(full.solve(E, every), StateVector)
            got = find_subadditive_state(E)
            assert isinstance(got, StateVector) == feasible
            if isinstance(got, InfeasibilityCertificate):
                assert got.system == state_system(E, subadditive=True)
                assert got.verify()
                left_out_of_certificates += (len(every.ineq_rows)
                                             - len(got.system.ineq_rows))
        assert left_out_of_certificates

    def test_mv_algebra_tableau_is_find_states(self, monkeypatch):
        # every pair of an MV-algebra is compatible
        E = product([chain(3), chain(4)])
        assert state_system(E, subadditive=True) == state_system(E)
        tableaus = []

        def captured(A, b, n):
            tableaus.append((A, b, n))
            return solve_standard(A, b, n)

        monkeypatch.setattr(effalg.states, "solve_standard", captured)
        find_state(E)
        find_subadditive_state(E)
        assert len(tableaus) == 2 and tableaus[0] == tableaus[1]


@functools.cache
def classes(n):
    """Every class of size n, in enumeration order."""
    return list(enumerate_algebras(EnumerationConfig(size=n)))


HS = horizontal_sum([chain(2), chain(2), chain(2)])


def constructions():
    """The nine instances of the benchmark's state LP workload, then
    hs40 = HS x chain(7) and hs120 = HS x chain(3) x chain(5), instances
    of the paper's hypothesis class."""
    stateless9 = load_algebra(STATELESS9)
    return [
        product([boolean_algebra(2), chain(4)]),
        product([chain(3), chain(4)]),
        boolean_algebra(5),
        horizontal_sum([stateless9, boolean_algebra(3)]),
        horizontal_sum([stateless9, product([boolean_algebra(2), chain(3)])]),
        boolean_algebra(4),
        product([boolean_algebra(2), chain(3)]),
        horizontal_sum([boolean_algebra(2), chain(4), chain(5)]),
        product([boolean_algebra(1), chain(4)]),
        product([HS, chain(7)]),
        product([HS, chain(3), chain(5)]),
    ]


def assert_same_as_full_tableau(E):
    """Verdicts and dimension equal the full tableau's; every state
    verifies, the only state is the tableau's, and every certificate
    verifies against the unreduced system."""
    dim = state_space_dimension(E)
    assert dim == full.state_space_dimension(E)
    calls = [(find_state, full.find_state, False)]
    if derive_order(E).is_lattice:
        calls.append((find_subadditive_state, full.find_subadditive_state, True))
    for call, oracle, subadditive in calls:
        got, want = call(E), oracle(E)
        assert type(got) is type(want)
        if isinstance(got, StateVector):
            assert verify_state(E, got, require_subadditive=subadditive) == []
            if dim == 0:
                assert got.values == want.values
        else:
            assert got.system == state_system(E, subadditive=subadditive)
            assert got.verify()


class TestFullTableauOracle:
    """The LPs in the free parameters decide as the full tableau does."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_enumerated_classes(self, n):
        # every class up to size 9, and the lattices of size 10
        for E in classes(n):
            if n <= 9 or derive_order(E).is_lattice:
                assert_same_as_full_tableau(E)

    def test_constructions(self):
        for E in constructions():
            assert_same_as_full_tableau(E)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fourier_motzkin_agrees(self, n):
        for E in classes(n):
            assert fm_feasible(state_system(E)) == isinstance(
                find_state(E), StateVector)
            if derive_order(E).is_lattice:
                assert fm_feasible(state_system(E, subadditive=True)) == isinstance(
                    find_subadditive_state(E), StateVector)


def incompatible_rows(E):
    """dict_state_system(E, subadditive=True) with the join rows of the
    pairs that structure.compatible rejects only, in middle-pair order."""
    every = dict_state_system(E, subadditive=True)
    kept = [t for t, (x, y) in enumerate(middle_pairs(E))
            if not compatible(E, x, y)]
    return replace(every, ineq_rows=tuple(every.ineq_rows[t] for t in kept),
                   ineq_labels=tuple(every.ineq_labels[t] for t in kept))


class TestStateSystemOracle:
    """state_system builds each row as its sorted tuple, and its labels
    from one list; the dict builder gives equal systems, less the join
    rows of compatible pairs."""

    def test_same_systems_as_the_dict_builder(self):
        # damaged tables whose sums repeat a summand, with one
        # orthosupplement per element: a + a = a; C4 with 2a + 2a = a;
        # HS2 with a + c = a, a' + c' = c' and a' + c = a
        damaged = [
            algebra_from_sums(4, 0, 3, [(1, 2, 3), (1, 1, 1)]),
            algebra_from_sums(4, 0, 3, [(1, 1, 2), (1, 2, 3), (2, 2, 1)]),
            algebra_from_sums(6, 0, 5, [(1, 2, 5), (3, 4, 5), (1, 3, 1),
                                        (2, 4, 4), (2, 3, 1)],
                              labels=["0", "a", "a'", "c", "c'", "1"]),
        ]
        for E in damaged:
            assert state_system(E) == dict_state_system(E)
        algebras = ([E for n in range(2, 9) for E in classes(n)]
                    + constructions() + [make_b2(), make_e5(), make_hex6()])
        for E in algebras:
            assert state_system(E) == dict_state_system(E)
            if derive_order(E).is_lattice:
                assert state_system(E, subadditive=True) == incompatible_rows(E)


class TestDimension:
    def test_values(self, b2, c3, e5, hs2):
        assert state_space_dimension(c3) == 0
        assert state_space_dimension(b2) == 1
        assert state_space_dimension(e5) == 1
        assert state_space_dimension(hs2) == 2

    def test_empty_polytope(self):
        # a horizontal sum restricts each state to its parts
        E = horizontal_sum([load_algebra(STATELESS9), chain(3)])
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

    @pytest.mark.parametrize("E, dim", [
        (horizontal_sum([boolean_algebra(2), chain(4), chain(5)]), 1),
        (load_algebra(STATELESS9), -1),
    ], ids=["horizontal-sum", "empty"])
    def test_at_most_dim_plus_two_lps(self, E, dim, monkeypatch):
        import effalg.states

        calls = []
        solve = effalg.states.solve_standard

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(effalg.states, "solve_standard", counted)
        assert state_space_dimension(E) == dim
        assert len(calls) <= dim + 2
        # stateless9's equality rows are inconsistent: the elimination
        # decides, with no LP
        assert (len(calls) > 0) == (dim >= 0)

    @pytest.mark.parametrize("E, dim", [
        *[(boolean_algebra(k), k - 1) for k in range(1, 5)],
        (horizontal_sum([boolean_algebra(3), chain(3),
                         product([boolean_algebra(1), chain(2)])]), 3),
        (product([boolean_algebra(2), chain(3)]), 2),
        (product([chain(3), chain(4)]), 1),
    ], ids=["boolean1", "boolean2", "boolean3", "boolean4", "horizontal-sum",
            "product-boolean2-chain3", "product-chain3-chain4"])
    def test_closed_forms(self, E, dim):
        # boolean(k): the simplex on k atoms; a horizontal sum adds its
        # parts' dimensions; a product of two parts adds 1 to that sum
        assert state_space_dimension(E) == dim

    def test_stateless_fixture_dimension(self):
        assert state_space_dimension(load_algebra(STATELESS9)) == -1


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


@functools.cache
def solver_states():
    """(algebra, state, subadditive) from the solver on small instances."""
    out = []
    for E in (make_b2(), make_c4(), make_e5(), make_hex6(), make_hs2(),
              boolean_algebra(3), product([boolean_algebra(1), chain(3)])):
        out.append((E, find_state(E), False))
        if derive_order(E).is_lattice:
            out.append((E, find_subadditive_state(E), True))
    return out


class TestIntegerCertificateOracle:
    """_certificate builds its multipliers in integers; the Fraction
    assembly it replaced must give the same ones."""

    def test_same_multipliers_as_the_fraction_assembly(self, monkeypatch):
        made = []
        certificate = effalg.states._certificate

        def recorded(*args):
            cert = certificate(*args)
            made.append((args, cert))
            return cert

        monkeypatch.setattr(effalg.states, "_certificate", recorded)
        stateless9 = load_algebra(STATELESS9)
        for E in (stateless9, *constructions()[3:5]):
            assert isinstance(find_state(E), InfeasibilityCertificate)
        lattices9 = [E for n in range(2, 10) for E in classes(n)
                     if derive_order(E).is_lattice]
        stateless = [E for E in lattices9 if isinstance(
            find_subadditive_state(E), InfeasibilityCertificate)]
        # 28 of the 34 size-9 lattice classes have no subadditive state
        assert sum(E.size == 9 for E in stateless) == 28
        assert len(made) == 3 + len(stateless)
        for args, cert in made:
            assert (cert.eq_mult, cert.ineq_mult) == fraction_multipliers(*args)
            assert all(type(m) is F for m in cert.eq_mult + cert.ineq_mult)
            assert cert.verify()
        # the subadditive LPs reach the integer assembly, not only the
        # inconsistent equality rows of the stateless tables
        assert sum(cons is not None for (_, _, cons, _), _ in made) == len(stateless)


@functools.cache
def solver_certificates():
    """Certificates from the solver: find_state on two stateless tables and
    find_subadditive_state on the first five lattices without such a state."""
    stateless9 = load_algebra(STATELESS9)
    out = [find_state(stateless9),
           find_state(horizontal_sum([stateless9, chain(3)]))]
    for E in lattices():
        if len(out) == 7:
            break
        got = find_subadditive_state(E)
        if isinstance(got, InfeasibilityCertificate):
            out.append(got)
    return out


shifts = st.fractions(min_value=-2, max_value=2, max_denominator=12)


class TestFractionOracle:
    """verify_state and InfeasibilityCertificate.verify check in integers;
    a textbook Fraction re-check must reach the same verdicts."""

    def test_solver_results_pass_the_oracle(self):
        for E, got, subadditive in solver_states():
            assert state_violations(E, got.values, subadditive) == []
        for cert in solver_certificates():
            assert certificate_holds(cert.system, cert.eq_mult,
                                     cert.bound_mult, cert.ineq_mult)

    @given(st.data(), shifts)
    @settings(max_examples=300, deadline=None)
    def test_perturbed_state(self, data, delta):
        E, got, subadditive = data.draw(st.sampled_from(solver_states()))
        x = data.draw(st.integers(0, E.size - 1))
        values = list(got.values)
        values[x] += delta
        report = verify_state(E, StateVector(E, tuple(values)), subadditive)
        assert ([(v.kind, v.witness, v.message) for v in report]
                == state_violations(E, values, subadditive))

    @given(st.data(), shifts)
    @settings(max_examples=300, deadline=None)
    def test_changed_multiplier(self, data, value):
        cert = data.draw(st.sampled_from(solver_certificates()))
        field = data.draw(st.sampled_from(["eq_mult", "bound_mult", "ineq_mult"]))
        mults = list(getattr(cert, field))
        if not mults:
            return
        mults[data.draw(st.integers(0, len(mults) - 1))] = value
        changed = replace(cert, **{field: tuple(mults)})
        assert changed.verify() == certificate_holds(
            changed.system, changed.eq_mult, changed.bound_mult, changed.ineq_mult)


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

    def test_interval_modularity_read_off_the_instance(self):
        # N5 x 2: both (1,0) and (0,1) are central, but only [0, (0,1)]
        # is modular
        E = product([horizontal_sum([chain(3), chain(2)]), chain(1)])
        assert E.size == 10
        index = {E.label(x): x for x in E.elements()}
        with pytest.raises(HypothesisViolated) as info:
            state_from_central_finite(E, index["(1,0)"])
        assert info.value.hypothesis == "[0,c] modular"
        # the triple that breaks the law in N5, in E's indices
        x, y, z = (index[lab] for lab in ("(p0.a,0)", "(p1.a,0)", "(p0.2a,0)"))
        assert info.value.detail == f"witness triple {(x, y, z)}"
        got = state_from_central_finite(E, index["(0,1)"])
        assert verify_state(E, got, require_subadditive=True) == []
        # the lift reads only the second coordinate
        assert got.values == tuple(F(x % 2) for x in E.elements())


def split_cases():
    """Every lattice class of sizes 3-10, then the nine instances of the
    benchmark's state LP workload, hs40 and product(boolean(2), chain(2))."""
    return ([E for n in range(3, 11) for E in classes(n)
             if derive_order(E).is_lattice]
            + constructions()[:10] + [product([boolean_algebra(2), chain(2)])])


class TestCentralSplitOracle:
    """central_decomposition's check on E's own table against center(E),
    and its split against the product [0,c] x [0,c'] built in full."""

    def test_splits_exactly_at_the_center(self):
        splits = 0
        for E in split_cases():
            middle = [c for c in E.elements() if c not in (E.zero, E.one)]
            if not derive_order(E).is_lattice:
                for c in middle:
                    with pytest.raises(NotLattice):
                        central_decomposition(E, c)
                continue
            cen = center(E)
            for c in middle:
                try:
                    iso = central_decomposition(E, c)
                except NotCentral:
                    assert not cen >> c & 1
                    continue
                assert cen >> c & 1
                upper = interval(E, E.zero, E.orth[c])
                prod = product([interval(E, E.zero, c), upper])
                index = [i * upper.size + j for i, j in iso]
                assert sorted(index) == list(range(prod.size))
                for x in E.elements():
                    for y in E.elements():
                        s, ps = E.sum[x][y], prod.sum[index[x]][index[y]]
                        assert ps is None if s is None else ps == index[s]
                splits += 1
        assert splits


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

    def test_non_central_multiple_is_an_alarm(self, monkeypatch):
        E = product([HS, chain(2)])
        c = state_via_exstate_procedure(E).trace.central
        assert c != E.one

        def not_central(E, c):
            raise NotCentral(f"{E.label(c)} is not central")

        monkeypatch.setattr(effalg.states, "central_decomposition", not_central)
        with pytest.raises(InternalCheckFailed) as info:
            state_via_exstate_procedure(E)
        assert str(info.value) == (f"saturated atom multiple {c} is not "
                                   "central; falsification alarm")

    def test_output_verifies_subadditive(self, e5, c4):
        for E in (e5, c4):
            state, _ = state_via_exstate_procedure(E)
            assert verify_state(E, state, require_subadditive=True) == []

    def test_central_atom_branch_is_the_compatibility_center(self):
        # the branch tests the atom's compatibilities directly; B(E), with
        # its block search, is the reference
        cases = [E for n in range(2, 10)
                 for E in enumerate_algebras(EnumerationConfig(size=n))
                 if derive_order(E).is_lattice]
        cases += [product([HS, chain(3), chain(5)]),
                  product([HS, chain(3), chain(9)]),
                  product([HS, boolean_algebra(2), chain(3), chain(4)])]
        branches = []
        for E in cases:
            try:
                trace = state_via_exstate_procedure(E).trace
            except HypothesisViolated:
                continue
            assert (trace.branch == "central-atom") == (
                bool(compatibility_center(E) >> trace.atom & 1)), E.size
            branches.append(trace.branch)
        assert set(branches) == {"central-atom", "dichotomy"}


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
